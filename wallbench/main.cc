// The wall-clock benchmark: runs one workload in this process and prints
// every metric by name with its unit. The last line of stdout is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   wallbench --workload power_r22|dialog_landscape|batch_load
//             [--seed <n>] [--seconds <1..3600>] [--trace 0|1]
//
// A bad argument exits with code 2; a failed check or operation exits 1.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "wallbench/harness.h"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WALLBENCH_COMPILER
#define WALLBENCH_COMPILER "unknown"
#endif

namespace wallbench {
namespace {

struct Metric {
  std::string name;
  const char* unit;
};

/// The end-to-end metrics, the same on every workload; see README.md for
/// what an operation is on each.
const Metric kEndToEnd[] = {
    {"setup_s", "s"},      {"ops_per_s", "1/s"},   {"op_p50_ms", "ms"},
    {"op_p99_ms", "ms"},   {"peak_rss_mb", "MB"}, {"ok_share", "ratio"},
};

/// The per-layer metrics of the traced run. A layer a workload does not
/// reach reads 0.
std::vector<Metric> PerLayerMetrics() {
  std::vector<Metric> m = {
      {"dispatch.self_ms", "ms"},
      {"dispatch.requests", "count"},
      {"dispatch.queued", "count"},
      {"dispatch.rejected", "count"},
  };
  for (const char* s : {"va03", "mm03", "va05", "va01", "va01_post", "sd_report"}) {
    m.push_back({std::string("sap.script.") + s + ".calls", "count"});
    m.push_back({std::string("sap.script.") + s + ".p50_us", "us"});
  }
  const Metric rest[] = {
      {"sap.loader.master.calls", "count"},
      {"sap.loader.master.p50_ms", "ms"},
      {"sap.loader.order.calls", "count"},
      {"sap.loader.order.p50_ms", "ms"},
      {"connection.round_trips", "count"},
      {"connection.rows_shipped", "count"},
      {"connection.cursor_hit_ratio", "ratio"},
      {"power.rdbms_pass_s", "s"},
      {"power.native_pass_s", "s"},
      {"power.open_pass_s", "s"},
      {"power.sap_schema_gap_s", "s"},
      {"power.opensql_gap_s", "s"},
      {"table_buffer.probes", "count"},
      {"table_buffer.hit_ratio", "ratio"},
      {"batch_input.transactions", "count"},
      {"batch_input.screens", "count"},
      {"batch_input.checks", "count"},
      {"batch_input.inserts", "count"},
      {"batch_input.failed", "count"},
      {"sql.statements", "count"},
      {"sql.hard_parses", "count"},
      {"sql.prepared_hit_ratio", "ratio"},
      {"optimizer.plans", "count"},
      {"bufferpool.logical_reads", "count"},
      {"bufferpool.physical_reads", "count"},
      {"bufferpool.hit_ratio", "ratio"},
      {"bufferpool.page_writes", "count"},
      {"storage.db_bytes", "bytes"},
      {"storage.pool_bytes", "bytes"},
      {"txn.commits", "count"},
      {"txn.rollbacks", "count"},
      {"wal.appends", "count"},
      {"wal.flushes", "count"},
      {"wal.flushed_bytes", "bytes"},
      {"wal.bytes_per_commit", "bytes"},
      {"mvcc.versions_created", "count"},
      {"setup.load_ms", "ms"},
      {"setup.analyze_ms", "ms"},
      {"setup.start_ms", "ms"},
      {"trace.events", "count"},
      {"trace.dropped", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  m.insert(m.end(), std::begin(rest), std::end(rest));
  for (const std::string& layer : TraceLayers()) {
    m.push_back({"trace." + layer + ".self_ms", "ms"});
    m.push_back({"trace." + layer + ".spans", "count"});
    m.push_back({"trace." + layer + ".trunc_bound_ms", "ms"});
  }
  return m;
}

const char* const kWorkloads[] = {"power_r22", "dialog_landscape",
                                  "batch_load"};

void Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload power_r22|dialog_landscape|"
               "batch_load [--seed <n>] [--seconds <1..3600>] [--trace 0|1]\n");
}

/// Whole-string unsigned decimal in [lo, hi]; no sign, space or suffix.
bool ParseUint(const char* s, uint64_t lo, uint64_t hi, uint64_t* out) {
  const char* end = s + std::strlen(s);
  if (s == end || *s < '0' || *s > '9') return false;
  auto [ptr, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && ptr == end && *out >= lo && *out <= hi;
}

/// Strict: every flag is known, given at most once and followed by a value
/// of its type; --workload is required.
bool ParseArgs(int argc, char** argv, Options* o) {
  bool seen[4] = {};
  for (int i = 1; i < argc; i += 2) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "wallbench: %s needs a value\n", flag);
      return false;
    }
    const char* value = argv[i + 1];
    const char* const flags[4] = {"--workload", "--seed", "--seconds",
                                  "--trace"};
    int f = 0;
    while (f < 4 && std::strcmp(flag, flags[f]) != 0) ++f;
    if (f == 4 || seen[f]) {
      std::fprintf(stderr, "wallbench: %s flag %s\n",
                   f == 4 ? "unknown" : "repeated", flag);
      return false;
    }
    seen[f] = true;
    uint64_t n = 0;
    bool ok = true;
    switch (f) {
      case 0:
        ok = false;
        for (const char* w : kWorkloads) ok = ok || std::strcmp(value, w) == 0;
        o->workload = value;
        break;
      case 1:
        ok = ParseUint(value, 0, UINT64_MAX, &o->seed);
        break;
      case 2:
        ok = ParseUint(value, 1, 3600, &n);
        o->seconds = static_cast<int>(n);
        break;
      case 3:
        ok = ParseUint(value, 0, 1, &n);
        o->trace = n == 1;
        break;
    }
    if (!ok) {
      std::fprintf(stderr, "wallbench: bad value '%s' for %s\n", value, flag);
      return false;
    }
  }
  if (!seen[0]) std::fprintf(stderr, "wallbench: --workload is required\n");
  return seen[0];
}

/// Keeps freed memory in the process: large blocks come from the heap, not
/// from their own mappings, and the heap is never given back. A unit then
/// reuses pages an earlier unit touched instead of faulting in fresh ones,
/// whose cost depends on the host's memory pressure rather than on the
/// program (a Native SQL power pass faulted in 45k-100k pages without this).
void KeepHeap() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed value
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

/// Peak resident set size of this process (Linux reports ru_maxrss in KiB).
double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024;
}

void AppendMetric(std::string* json, bool* first, const std::string& name,
                  double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  *json += *first ? "" : ", ";
  *first = false;
  *json += "\"" + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  std::printf("env: nproc %ld, build %s, compiler %s, workload %s, seed %" PRIu64
              ", seconds %d, trace %d\n",
              sysconf(_SC_NPROCESSORS_ONLN), WALLBENCH_BUILD_TYPE,
              WALLBENCH_COMPILER, opts.workload.c_str(), opts.seed,
              opts.seconds, opts.trace ? 1 : 0);

  KeepHeap();
  Outcome out;
  r3::Status st = opts.workload == "power_r22" ? RunPowerR22(opts, &out)
                  : opts.workload == "dialog_landscape"
                      ? RunDialogLandscape(opts, &out)
                      : RunBatchLoad(opts, &out);
  if (!st.ok()) {
    ++out.attempted;
    out.Fail("set-up: " + st.ToString());
  }
  Timings t = MedianOfUnits(out.units);
  if (!t.consistent) {
    out.Fail("measured units ran different numbers of operations");
  }
  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "wallbench: FAILED %s\n", e.c_str());
  }

  std::string metrics;
  bool first = true;
  if (!opts.trace) {
    double values[] = {
        Median(out.setup_s),
        t.ops_per_s,
        t.op_p50_ms,
        t.op_p99_ms,
        PeakRssMb(),
        out.attempted > 0
            ? static_cast<double>(out.attempted - out.failed) /
                  static_cast<double>(out.attempted)
            : 0,
    };
    std::printf("samples: %zu set-ups; %zu measured units of %zu operations "
                "each\n",
                out.setup_s.size(), out.units.size(), t.ops);
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      std::printf("%-12s %.6g %s\n", kEndToEnd[i].name.c_str(), values[i],
                  kEndToEnd[i].unit);
      AppendMetric(&metrics, &first, kEndToEnd[i].name, values[i],
                   kEndToEnd[i].unit);
    }
  } else {
    for (const Metric& m : PerLayerMetrics()) {
      auto it = out.layer.find(m.name);
      double v = it == out.layer.end() ? 0 : it->second;
      std::printf("%-36s %.6g %s\n", m.name.c_str(), v, m.unit);
      AppendMetric(&metrics, &first, m.name, v, m.unit);
    }
  }
  bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<int64_t>(out.attempted, 1),
              out.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
