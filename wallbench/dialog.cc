// dialog_landscape: a two-server SystemLandscape (Release 3.0, KONV
// converted) running the scripted VA03/MM03/VA05/VA01 dialog mix below its
// saturation knee, on a buffer pool that holds the whole database. Tens of
// thousands of short point lookups: the dispatcher, cursor caches, table
// buffer and per-call interface costs matter here, scans and WAL barely do.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>

#include "appsys/app_server.h"
#include "appsys/dispatch/landscape.h"
#include "rdbms/db.h"
#include "sap/dialog_workload.h"
#include "sap/loader.h"
#include "sap/schema.h"
#include "sap/views.h"
#include "tpcd/dbgen.h"
#include "wallbench/harness.h"

namespace wallbench {
namespace {

using r3::Status;
namespace appsys = r3::appsys;
namespace dispatch = r3::appsys::dispatch;

constexpr double kSf = 0.001;
constexpr int kServers = 2;
constexpr int kUsers = 200;
constexpr int64_t kHorizonS = 1800;
/// Holds the whole SAP database (about 33 MB at kSf after a run).
constexpr size_t kPoolBytes = size_t{128} << 20;
/// A run is at least this many landscape runs, so set-up time has a median.
constexpr int kMinRuns = 3;

constexpr int kScriptKinds = 6;
const char* const kScriptNames[kScriptKinds] = {"va03", "mm03",      "va05",
                                                "va01", "va01_post", "sd_report"};

/// One installation with its landscape started and its arrival plan made.
struct Installation {
  explicit Installation(uint64_t seed) : gen(kSf, seed) {}

  r3::tpcd::DbGen gen;
  r3::MetricsRegistry metrics;
  std::unique_ptr<appsys::R3System> sys;
  std::unique_ptr<dispatch::SystemLandscape> landscape;
  r3::sap::SapKeySpace keys;
  std::vector<dispatch::PlannedRequest> plan;
};

struct SetupTimes {
  double load_ms = 0;
  double analyze_ms = 0;
  double start_ms = 0;
};

Status Setup(uint64_t seed, Installation* in, SetupTimes* t) {
  Stopwatch load;
  appsys::AppServerOptions app;
  app.release = appsys::Release::kRelease30;
  app.table_buffer_bytes = 0;
  r3::rdbms::DatabaseOptions db;
  db.buffer_pool_bytes = kPoolBytes;
  db.metrics = &in->metrics;
  in->sys = std::make_unique<appsys::R3System>(app, db);
  R3_RETURN_IF_ERROR(in->sys->app.Bootstrap());
  R3_RETURN_IF_ERROR(r3::sap::CreateSapSchema(&in->sys->app));
  R3_RETURN_IF_ERROR(r3::sap::CreateJoinViews(&in->sys->app));
  r3::sap::SapLoader loader(&in->sys->app, &in->gen);
  R3_RETURN_IF_ERROR(loader.FastLoadAll());
  R3_RETURN_IF_ERROR(in->sys->app.dictionary()->ConvertToTransparent(
      "KONV", appsys::Release::kRelease30));
  in->keys = {in->gen.NumOrders(), in->gen.NumParts(), in->gen.NumCustomers(),
              in->gen.NumSuppliers()};
  r3::sap::DialogWorkloadOptions w;
  w.users = kUsers;
  w.duration_s = kHorizonS;
  w.seed = seed;
  in->plan = r3::sap::GenerateDialogWorkload(in->keys, w);
  t->load_ms = load.Ms();
  Stopwatch analyze;
  R3_RETURN_IF_ERROR(in->sys->db.Analyze());
  t->analyze_ms = analyze.Ms();
  Stopwatch start;
  dispatch::LandscapeOptions l;
  l.num_instances = kServers;
  in->landscape = std::make_unique<dispatch::SystemLandscape>(
      &in->sys->db, in->sys->app.dictionary(), l);
  R3_RETURN_IF_ERROR(in->landscape->Start());
  t->start_ms = start.Ms();
  return Status::OK();
}

/// Wall timings of one landscape run, taken around Run() and around each
/// script call inside it.
struct RunTimes {
  double run_s = 0;
  double script_s = 0;
  std::vector<double> op_ms;
  std::vector<double> script_us[kScriptKinds];
};

}  // namespace

Status RunDialogLandscape(const Options& opts, Outcome* out) {
  std::vector<double> load_ms, analyze_ms, start_ms;
  std::vector<double> untraced_run_s, traced_run_s, dispatch_self_ms;
  std::vector<double> script_us[kScriptKinds];
  std::map<std::string, double> delta;
  std::string first_digest;
  uint64_t db_bytes = 0;
  double traced_units = 0;
  TraceTotals trace_totals;
  char line[240];

  Stopwatch run;
  for (int i = 1; run.Seconds() < opts.seconds || i <= kMinRuns; ++i) {
    // The traced run alternates untraced and traced landscape runs.
    bool traced = opts.trace && i % 2 == 0;
    Installation in(opts.seed);
    SetupTimes st;
    Stopwatch setup;
    R3_RETURN_IF_ERROR(Setup(opts.seed, &in, &st));
    out->setup_s.push_back(setup.Seconds());
    load_ms.push_back(st.load_ms);
    analyze_ms.push_back(st.analyze_ms);
    start_ms.push_back(st.start_ms);

    r3::SimClock* clock = in.sys->app.clock();
    // Declared after the installation, so it detaches before the clock dies.
    std::optional<LayerTrace> layer_trace;
    if (traced) layer_trace.emplace(clock, &trace_totals);
    LayerTrace* trace = layer_trace ? &*layer_trace : nullptr;
    RunTimes times;
    dispatch::ScriptRunner inner = r3::sap::MakeSapScriptRunner(in.keys);
    Status trace_status;
    auto runner = [&](dispatch::AppServerInstance* inst,
                      dispatch::WorkProcess* wp,
                      const dispatch::PlannedRequest& req,
                      dispatch::ScriptResult* res) -> Status {
      // Between scripts no span is open, so the trace can be folded here.
      if (trace != nullptr && trace_status.ok()) {
        trace_status = trace->MaybeFlush();
      }
      size_t kind = static_cast<size_t>(req.script.kind);
      Stopwatch watch;
      Status s;
      {
        r3::TraceSpan span(clock, "sap",
                           std::string("script.") + kScriptNames[kind]);
        s = inner(inst, wp, req, res);
      }
      double ms = watch.Ms();
      times.script_s += ms / 1e3;
      times.op_ms.push_back(ms);
      times.script_us[kind].push_back(ms * 1e3);
      return s;
    };

    auto before = Counters(in.metrics);
    Stopwatch run_watch;
    auto result = in.landscape->Run(std::move(in.plan), runner);
    times.run_s = run_watch.Seconds();
    if (trace != nullptr) {
      times.run_s -= trace->flush_s();  // folding done inside Run()
      if (trace_status.ok()) trace_status = trace->Flush();
      if (!trace_status.ok()) out->Fail("trace: " + trace_status.ToString());
    }
    if (!result.ok()) {
      ++out->attempted;
      out->Fail("landscape run: " + result.status().ToString());
      break;
    }
    const dispatch::SystemLandscape::RunResult& r = result.value();
    out->attempted += r.offered;
    for (int64_t k = 0; k < r.rejected; ++k) out->Fail("request rejected");
    for (int64_t k = 0; k < r.script_errors; ++k) out->Fail("script error");
    std::string digest = r.ToJson().Get("outcomes_digest").string_value();
    if (first_digest.empty()) first_digest = digest;
    if (digest != first_digest) {
      out->Fail("outcomes digest " + digest + " differs from the first run's " +
                first_digest);
    }
    std::snprintf(line, sizeof(line),
                  "sim dialog_landscape %s run %d: outcomes_digest %s, %" PRId64
                  " completed, dialog p50 %" PRId64 " us p99 %" PRId64
                  " us, makespan %" PRId64 " us",
                  traced ? "traced" : "timed", i, digest.c_str(), r.completed,
                  r.dialog_p50_us, r.dialog_p99_us, r.makespan_us);
    out->Report(line);
    db_bytes = DatabaseBytes(in.sys->db);

    if (traced) {
      AddDelta(before, Counters(in.metrics), &delta);
      traced_run_s.push_back(times.run_s);
      dispatch_self_ms.push_back((times.run_s - times.script_s) * 1e3);
      traced_units += 1;
      continue;
    }
    untraced_run_s.push_back(times.run_s);
    out->units.push_back({times.run_s, std::move(times.op_ms)});
    for (int k = 0; k < kScriptKinds; ++k) {
      script_us[k].insert(script_us[k].end(), times.script_us[k].begin(),
                          times.script_us[k].end());
    }
  }

  std::snprintf(line, sizeof(line),
                "geometry dialog_landscape: sf %g, %d servers, %d users, %" PRId64
                " virtual s, DB %" PRIu64 " bytes after the run, pool %zu bytes",
                kSf, kServers, kUsers, kHorizonS, db_bytes, kPoolBytes);
  out->Report(line);

  auto& l = out->layer;
  double untraced_units = static_cast<double>(untraced_run_s.size());
  for (int k = 0; k < kScriptKinds; ++k) {
    std::string prefix = std::string("sap.script.") + kScriptNames[k];
    l[prefix + ".calls"] =
        static_cast<double>(script_us[k].size()) / untraced_units;
    l[prefix + ".p50_us"] = Median(script_us[k]);
  }
  l["setup.load_ms"] = Median(load_ms);
  l["setup.analyze_ms"] = Median(analyze_ms);
  l["setup.start_ms"] = Median(start_ms);
  l["storage.db_bytes"] = static_cast<double>(db_bytes);
  l["storage.pool_bytes"] = static_cast<double>(kPoolBytes);
  if (opts.trace && traced_units > 0) {
    AddRegistryLayers(delta, traced_units, out);
    AddTraceLayers(trace_totals, traced_units, out);
    l["dispatch.self_ms"] = Median(dispatch_self_ms);
    l["trace.overhead_ratio"] = Median(traced_run_s) / Median(untraced_run_s);
  }
  return Status::OK();
}

}  // namespace wallbench
