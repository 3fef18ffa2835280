#include "wallbench/harness.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wallbench {
namespace {

/// Events buffered before LayerTrace::MaybeFlush() folds them; about 50 MB
/// of export text. The Tracer's own cap is far above any single pass, so
/// nothing is dropped between flush points.
constexpr size_t kFlushEvents = 200000;
constexpr size_t kMaxEvents = size_t{1} << 23;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

Timings MedianOfUnits(const std::vector<Unit>& units) {
  Timings t;
  if (units.empty()) return t;
  const size_t calls = units[0].op_ms.size();
  const size_t group = units[0].calls_per_op;
  std::vector<double> unit_s;
  for (const Unit& u : units) {
    if (u.op_ms.size() != calls || u.calls_per_op != group || group == 0 ||
        calls % group != 0) {
      return t;
    }
    unit_s.push_back(u.wall_s);
  }
  t.consistent = true;
  t.ops = calls / group;
  std::vector<double> op_ms(t.ops), samples(units.size());
  for (size_t op = 0; op < t.ops; ++op) {
    for (size_t u = 0; u < units.size(); ++u) {
      const double* first = units[u].op_ms.data() + op * group;
      samples[u] = std::accumulate(first, first + group, 0.0);
    }
    op_ms[op] = Median(samples);
  }
  double median_unit_s = Median(unit_s);
  t.ops_per_s =
      median_unit_s > 0 ? static_cast<double>(t.ops) / median_unit_s : 0;
  t.op_p50_ms = Percentile(op_ms, 0.5);
  t.op_p99_ms = Percentile(op_ms, 0.99);
  return t;
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 10) errors.push_back(what);
}

std::map<std::string, int64_t> Counters(const r3::MetricsRegistry& registry) {
  std::map<std::string, int64_t> out;
  for (const r3::MetricSample& s : registry.Snapshot()) {
    if (s.kind != r3::MetricSample::Kind::kHistogram) out[s.name] = s.value;
  }
  return out;
}

void AddDelta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              std::map<std::string, double>* sum) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*sum)[name] += static_cast<double>(
        value - (it == before.end() ? 0 : it->second));
  }
}

void AddRegistryLayers(const std::map<std::string, double>& delta,
                       double units, Outcome* out) {
  auto d = [&](const char* name) {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : it->second;
  };
  auto& l = out->layer;
  auto per_unit = [&](const char* layer_name, const char* counter) {
    l[layer_name] = d(counter) / units;
  };
  per_unit("dispatch.requests", "appsys.dispatch.requests");
  per_unit("dispatch.queued", "appsys.dispatch.queued");
  per_unit("dispatch.rejected", "appsys.dispatch.rejected");
  per_unit("connection.round_trips", "appsys.connection.round_trips");
  per_unit("connection.rows_shipped", "appsys.connection.rows_shipped");
  double cursor_hits = d("appsys.connection.cursor_cache_hits");
  l["connection.cursor_hit_ratio"] = Ratio(
      cursor_hits, cursor_hits + d("appsys.connection.cursor_cache_misses"));
  per_unit("table_buffer.probes", "appsys.table_buffer.probes");
  l["table_buffer.hit_ratio"] = Ratio(d("appsys.table_buffer.hits"),
                                      d("appsys.table_buffer.probes"));
  per_unit("sql.statements", "rdbms.sql.statements");
  per_unit("sql.hard_parses", "rdbms.sql.hard_parses");
  double prepared_hits = d("rdbms.sql.prepared_cache_hits");
  l["sql.prepared_hit_ratio"] =
      Ratio(prepared_hits, prepared_hits + d("rdbms.sql.hard_parses"));
  per_unit("optimizer.plans", "rdbms.optimizer.plans");
  per_unit("bufferpool.logical_reads", "rdbms.bufferpool.logical_reads");
  per_unit("bufferpool.physical_reads", "rdbms.bufferpool.physical_reads");
  per_unit("bufferpool.page_writes", "rdbms.bufferpool.page_writes");
  double logical = d("rdbms.bufferpool.logical_reads");
  l["bufferpool.hit_ratio"] =
      logical > 0 ? 1 - d("rdbms.bufferpool.physical_reads") / logical : 0;
  per_unit("txn.commits", "rdbms.txn.commits");
  per_unit("txn.rollbacks", "rdbms.txn.rollbacks");
  per_unit("wal.appends", "rdbms.wal.appends");
  per_unit("wal.flushes", "rdbms.wal.flushes");
  per_unit("wal.flushed_bytes", "rdbms.wal.flushed_bytes");
  l["wal.bytes_per_commit"] =
      Ratio(d("rdbms.wal.flushed_bytes"), d("rdbms.txn.commits"));
  per_unit("mvcc.versions_created", "rdbms.mvcc.versions_created");
}

void AddBatchInputDelta(const r3::appsys::BatchInputStats& before,
                        const r3::appsys::BatchInputStats& after,
                        r3::appsys::BatchInputStats* sum) {
  sum->transactions += after.transactions - before.transactions;
  sum->screens += after.screens - before.screens;
  sum->checks += after.checks - before.checks;
  sum->inserts += after.inserts - before.inserts;
  sum->failed_transactions +=
      after.failed_transactions - before.failed_transactions;
}

void AddBatchInputLayers(const r3::appsys::BatchInputStats& sum, double units,
                         Outcome* out) {
  auto& l = out->layer;
  l["batch_input.transactions"] = static_cast<double>(sum.transactions) / units;
  l["batch_input.screens"] = static_cast<double>(sum.screens) / units;
  l["batch_input.checks"] = static_cast<double>(sum.checks) / units;
  l["batch_input.inserts"] = static_cast<double>(sum.inserts) / units;
  l["batch_input.failed"] =
      static_cast<double>(sum.failed_transactions) / units;
}

LayerTrace::LayerTrace(r3::SimClock* clock, TraceTotals* totals)
    : tracer_(clock, r3::TraceOptions{/*include_wall_time=*/true,
                                      /*max_events=*/kMaxEvents}),
      totals_(totals) {}

r3::Status LayerTrace::Flush() {
  Stopwatch watch;
  std::vector<Span> spans;
  int64_t instants = 0;
  int64_t dropped = 0;
  R3_RETURN_IF_ERROR(
      ParseChromeTrace(tracer_.ExportChromeJson(), &spans, &instants, &dropped));
  AccumulateLayers(spans, &totals_->layers);
  totals_->events += static_cast<int64_t>(tracer_.event_count());
  totals_->dropped += dropped;
  tracer_.Clear();
  flush_s_ += watch.Seconds();
  return r3::Status::OK();
}

r3::Status LayerTrace::MaybeFlush() {
  if (tracer_.event_count() < kFlushEvents) return r3::Status::OK();
  return Flush();
}

uint64_t DatabaseBytes(const r3::rdbms::Database& db) {
  auto sizes = db.TableSizes();
  if (!sizes.ok()) return 0;
  uint64_t bytes = 0;
  for (const r3::rdbms::Database::TableSize& t : sizes.value()) {
    bytes += (t.data_kb + t.index_kb) * 1024;
  }
  return bytes;
}

const std::vector<std::string>& TraceLayers() {
  static const std::vector<std::string> layers = {
      "bench",       "sap",          "app",          "interface",
      "sql.prepare", "sql.parse",    "sql.bind",     "sql.optimize",
      "sql.execute", "exec.scan",    "exec.index",   "exec.join",
      "exec.agg",    "exec.project", "exec.other",   "txn",
      "other"};
  return layers;
}

void AddTraceLayers(const TraceTotals& totals, double units, Outcome* out) {
  for (const std::string& layer : TraceLayers()) {
    auto it = totals.layers.find(layer);
    const LayerTotal s = it == totals.layers.end() ? LayerTotal{} : it->second;
    out->layer["trace." + layer + ".self_ms"] =
        static_cast<double>(s.self_us) / 1e3 / units;
    out->layer["trace." + layer + ".spans"] =
        static_cast<double>(s.spans) / units;
    out->layer["trace." + layer + ".trunc_bound_ms"] =
        static_cast<double>(s.boundaries) / 1e3 / units;
  }
  out->layer["trace.events"] = static_cast<double>(totals.events) / units;
  out->layer["trace.dropped"] = static_cast<double>(totals.dropped);
}

}  // namespace wallbench
