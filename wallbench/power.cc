// power_r22: repeated TPC-D power passes (UF1, Q1..Q17, UF2) on the
// isolated RDBMS, through Native SQL, and through Open SQL 2.2 on the SAP
// database with KONV still a cluster table — Table 4's three columns, with
// Table 4's memory geometry (the working set is far larger than the pool).
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>

#include "appsys/app_server.h"
#include "rdbms/db.h"
#include "sap/loader.h"
#include "sap/schema.h"
#include "sap/views.h"
#include "tpcd/dbgen.h"
#include "tpcd/loader.h"
#include "tpcd/power_test.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"
#include "tpcd/update_functions.h"
#include "tpcd/validate.h"
#include "wallbench/harness.h"

namespace wallbench {
namespace {

using r3::Result;
using r3::Status;
namespace appsys = r3::appsys;
namespace rdbms = r3::rdbms;
namespace tpcd = r3::tpcd;

constexpr double kSf = 0.002;
/// Set-ups per run; set-up time is their median, the last one is measured.
constexpr int kSetups = 3;
constexpr int kConfigs = 3;
const char* const kConfigNames[kConfigs] = {"rdbms", "native", "open"};
constexpr int kItemsPerPass = tpcd::kNumQueries + 2;
/// Untraced rounds a run measures at least, so each pass has a median.
constexpr int kMinRounds = 3;

/// Table 4's geometry scaled down: 10 MB of RDBMS buffer against 2.8 GB of
/// data at SF 0.2, floored at 128 KB (so 33.8 MB of SAP DB at SF 0.002).
rdbms::DatabaseOptions PowerDbOptions(r3::MetricsRegistry* metrics) {
  rdbms::DatabaseOptions opts;
  double scale = kSf / 0.2;
  opts.buffer_pool_bytes =
      static_cast<size_t>(std::max(128.0 * 1024, (10u << 20) * scale));
  opts.work_mem_bytes =
      static_cast<size_t>(std::max(64.0 * 1024, (4u << 20) * scale));
  opts.metrics = metrics;
  return opts;
}

/// FNV-1a over the items' simulated times: the invariance report's digest.
uint64_t SimDigest(const tpcd::PowerResult& result) {
  uint64_t h = 14695981039346656037ull;
  for (const tpcd::PowerItem& item : result.items) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint64_t>(item.sim_us >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Queries whose output order is fully specified; the others are compared
/// as multisets (ties on float sort keys make their order ambiguous).
bool OrderedOutput(int q) { return q == 1 || q == 4 || q == 12 || q == 13; }

/// Forwards to a query set, timing each call from outside and keeping its
/// answer so the three configurations can be compared after a pass.
class RecordingQuerySet final : public tpcd::IQuerySet {
 public:
  RecordingQuerySet(std::unique_ptr<tpcd::IQuerySet> inner,
                    std::vector<double>* call_ms)
      : inner_(std::move(inner)), call_ms_(call_ms) {}

  std::string name() const override { return inner_->name(); }

  Result<rdbms::QueryResult> RunQuery(int q,
                                      const tpcd::QueryParams& p) override {
    Stopwatch watch;
    Result<rdbms::QueryResult> r = inner_->RunQuery(q, p);
    call_ms_->push_back(watch.Ms());
    if (r.ok()) last_[q] = r.value();
    return r;
  }

  const rdbms::QueryResult& last(int q) const { return last_[q]; }

 private:
  std::unique_ptr<tpcd::IQuerySet> inner_;
  std::vector<double>* call_ms_;
  rdbms::QueryResult last_[tpcd::kNumQueries + 1];
};

struct Systems {
  explicit Systems(uint64_t seed)
      : gen(kSf, seed), params(tpcd::QueryParams::Defaults(kSf)) {}

  tpcd::DbGen gen;
  tpcd::QueryParams params;
  int64_t uf_count = 0;
  r3::MetricsRegistry rdbms_metrics;
  r3::MetricsRegistry sap_metrics;
  std::unique_ptr<rdbms::Database> rdb;
  std::unique_ptr<appsys::R3System> sap;
  std::unique_ptr<r3::sap::SapLoader> loader;
  std::unique_ptr<RecordingQuerySet> queries[kConfigs];
  tpcd::RefreshVerifier verifier;
  /// Wall time of every query and update function of the current round.
  std::vector<double> call_ms;
};

/// Generates and loads both databases the way table4_power_r22 does.
Status Setup(Systems* s, double* load_ms, double* analyze_ms) {
  Stopwatch load;
  s->uf_count = tpcd::UpdateFunctionCount(s->gen);
  s->rdb = std::make_unique<rdbms::Database>(
      nullptr, PowerDbOptions(&s->rdbms_metrics));
  R3_RETURN_IF_ERROR(tpcd::CreateTpcdSchema(s->rdb.get()));
  R3_RETURN_IF_ERROR(tpcd::LoadTpcdDatabase(s->rdb.get(), &s->gen));
  appsys::AppServerOptions app;
  app.release = appsys::Release::kRelease22;
  app.table_buffer_bytes = 0;
  s->sap = std::make_unique<appsys::R3System>(
      app, PowerDbOptions(&s->sap_metrics));
  R3_RETURN_IF_ERROR(s->sap->app.Bootstrap());
  R3_RETURN_IF_ERROR(r3::sap::CreateSapSchema(&s->sap->app));
  R3_RETURN_IF_ERROR(r3::sap::CreateJoinViews(&s->sap->app));
  s->loader = std::make_unique<r3::sap::SapLoader>(&s->sap->app, &s->gen);
  R3_RETURN_IF_ERROR(s->loader->FastLoadAll());
  *load_ms = load.Ms();
  Stopwatch analyze;
  R3_RETURN_IF_ERROR(s->sap->db.Analyze());
  *analyze_ms = analyze.Ms();
  R3_RETURN_IF_ERROR(s->verifier.Capture(s->rdb.get()));
  s->queries[0] = std::make_unique<RecordingQuerySet>(
      tpcd::MakeRdbmsQuerySet(s->rdb.get()), &s->call_ms);
  s->queries[1] = std::make_unique<RecordingQuerySet>(
      tpcd::MakeNativeQuerySet(&s->sap->app), &s->call_ms);
  s->queries[2] = std::make_unique<RecordingQuerySet>(
      tpcd::MakeOpen22QuerySet(&s->sap->app), &s->call_ms);
  return Status::OK();
}

struct Round {
  double pass_s[kConfigs] = {};
  uint64_t sim_digest[kConfigs] = {};
  double total_s() const { return pass_s[0] + pass_s[1] + pass_s[2]; }
};

/// One power pass per configuration, then the checks: every answer equals
/// the isolated RDBMS's, and UF1+UF2 restored the RDBMS's ORDERS/LINEITEM.
/// `traces`, when non-empty, holds one LayerTrace per clock (rdbms, SAP).
Round RunRound(Systems* s, std::vector<LayerTrace*> traces, Outcome* out) {
  Round round;
  s->call_ms.clear();
  for (int c = 0; c < kConfigs; ++c) {
    tpcd::IQuerySet* queries = s->queries[c].get();
    r3::SimClock* clock = c == 0 ? s->rdb->clock() : s->sap->app.clock();
    auto timed = [s](std::function<Status()> uf) {
      return [s, uf]() -> Status {
        Stopwatch watch;
        Status st = uf();
        s->call_ms.push_back(watch.Ms());
        return st;
      };
    };
    std::function<Status()> uf1, uf2;
    if (c == 0) {
      uf1 = [s] { return tpcd::RunUf1Rdbms(s->rdb.get(), &s->gen, s->uf_count); };
      uf2 = [s] { return tpcd::RunUf2Rdbms(s->rdb.get(), &s->gen, s->uf_count); };
    } else {
      uf1 = [s] { return tpcd::RunUf1Sap(s->loader.get(), s->uf_count); };
      uf2 = [s] { return tpcd::RunUf2Sap(s->loader.get(), s->uf_count); };
    }
    Stopwatch watch;
    Result<tpcd::PowerResult> result = [&] {
      r3::TraceSpan span(clock, "bench",
                         std::string("power.pass.") + kConfigNames[c]);
      return tpcd::RunPowerTest(kConfigNames[c], queries, s->params, clock,
                                timed(uf1), timed(uf2));
    }();
    round.pass_s[c] = watch.Seconds();
    if (!traces.empty()) {
      Status st = traces[c == 0 ? 0 : 1]->Flush();
      if (!st.ok()) out->Fail("trace: " + st.ToString());
    }
    out->attempted += kItemsPerPass;
    if (!result.ok()) {
      out->Fail(std::string(kConfigNames[c]) + " pass: " +
                result.status().ToString());
      continue;
    }
    round.sim_digest[c] = SimDigest(result.value());
    if (c == 0) {
      Status st = s->verifier.VerifyRestored(s->rdb.get());
      if (!st.ok()) out->Fail("RDBMS UF1+UF2: " + st.ToString());
    }
  }
  for (int q = 1; q <= tpcd::kNumQueries; ++q) {
    for (int c = 1; c < kConfigs; ++c) {
      std::string diff;
      if (!tpcd::ResultsEquivalent(s->queries[0]->last(q),
                                   s->queries[c]->last(q), OrderedOutput(q),
                                   &diff)) {
        out->Fail("Q" + std::to_string(q) + " " + kConfigNames[c] +
                  " differs from rdbms: " + diff);
      }
    }
  }
  return round;
}

void ReportRound(const Round& r, const char* kind, int index, Outcome* out) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "sim power_r22 %s round %d: rdbms %016" PRIx64
                " native %016" PRIx64 " open %016" PRIx64,
                kind, index, r.sim_digest[0], r.sim_digest[1], r.sim_digest[2]);
  out->Report(line);
}

}  // namespace

Status RunPowerR22(const Options& opts, Outcome* out) {
  std::unique_ptr<Systems> s;
  std::vector<double> load_ms, analyze_ms;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();  // free the previous set-up before building the next
    s = std::make_unique<Systems>(opts.seed);
    Stopwatch setup;
    double load = 0, analyze = 0;
    R3_RETURN_IF_ERROR(Setup(s.get(), &load, &analyze));
    out->setup_s.push_back(setup.Seconds());
    load_ms.push_back(load);
    analyze_ms.push_back(analyze);
  }
  uint64_t db_bytes = DatabaseBytes(*s->rdb) + DatabaseBytes(s->sap->db);
  uint64_t pool_bytes = s->rdb->options().buffer_pool_bytes +
                        s->sap->db.options().buffer_pool_bytes;
  char line[200];
  std::snprintf(line, sizeof(line),
                "geometry power_r22: sf %g, RDBMS DB %" PRIu64
                " bytes, SAP DB %" PRIu64 " bytes, pool %zu bytes each",
                kSf, DatabaseBytes(*s->rdb), DatabaseBytes(s->sap->db),
                s->sap->db.options().buffer_pool_bytes);
  out->Report(line);

  // Warm-up: fills plan and cursor caches; checked but not timed.
  ReportRound(RunRound(s.get(), {}, out), "warm-up", 0, out);

  std::vector<double> pass_s[kConfigs];
  std::vector<double> untraced_round_s, traced_round_s;
  std::map<std::string, double> delta;
  appsys::BatchInputStats batch_input;  // the SAP passes' UF1/UF2
  TraceTotals trace_totals;
  std::unique_ptr<LayerTrace> rdbms_trace, sap_trace;
  Stopwatch run;
  for (int i = 1; run.Seconds() < opts.seconds || i <= kMinRounds; ++i) {
    // The traced run alternates untraced and traced rounds; the untraced
    // ones give the pass times and the overhead ratio's denominator.
    bool traced = opts.trace && i % 2 == 0;
    if (!traced) {
      Round r = RunRound(s.get(), {}, out);
      for (int c = 0; c < kConfigs; ++c) pass_s[c].push_back(r.pass_s[c]);
      untraced_round_s.push_back(r.total_s());
      // An operation is a pass: its 19 timed items.
      out->units.push_back({r.total_s(), s->call_ms, kItemsPerPass});
      ReportRound(r, "timed", i, out);
      continue;
    }
    if (rdbms_trace == nullptr) {
      rdbms_trace =
          std::make_unique<LayerTrace>(s->rdb->clock(), &trace_totals);
      sap_trace =
          std::make_unique<LayerTrace>(s->sap->app.clock(), &trace_totals);
    }
    auto rdbms_before = Counters(s->rdbms_metrics);
    auto sap_before = Counters(s->sap_metrics);
    appsys::BatchInputStats bi_before = s->sap->app.batch_input()->stats();
    Round r = RunRound(s.get(), {rdbms_trace.get(), sap_trace.get()}, out);
    AddDelta(rdbms_before, Counters(s->rdbms_metrics), &delta);
    AddDelta(sap_before, Counters(s->sap_metrics), &delta);
    AddBatchInputDelta(bi_before, s->sap->app.batch_input()->stats(),
                       &batch_input);
    traced_round_s.push_back(r.total_s());
    ReportRound(r, "traced", i, out);
  }

  double median_pass[kConfigs];
  for (int c = 0; c < kConfigs; ++c) {
    median_pass[c] = Median(pass_s[c]);
    std::snprintf(line, sizeof(line), "%s_power_s = %.4f s (median of %zu passes)",
                  kConfigNames[c], median_pass[c], pass_s[c].size());
    out->Report(line);
  }

  auto& l = out->layer;
  l["power.rdbms_pass_s"] = median_pass[0];
  l["power.native_pass_s"] = median_pass[1];
  l["power.open_pass_s"] = median_pass[2];
  l["power.sap_schema_gap_s"] = median_pass[1] - median_pass[0];
  l["power.opensql_gap_s"] = median_pass[2] - median_pass[1];
  l["setup.load_ms"] = Median(load_ms);
  l["setup.analyze_ms"] = Median(analyze_ms);
  l["storage.db_bytes"] = static_cast<double>(db_bytes);
  l["storage.pool_bytes"] = static_cast<double>(pool_bytes);
  if (opts.trace) {
    double units = static_cast<double>(traced_round_s.size());
    AddRegistryLayers(delta, units, out);
    AddTraceLayers(trace_totals, units, out);
    AddBatchInputLayers(batch_input, units, out);
    l["trace.overhead_ratio"] =
        Median(traced_round_s) / Median(untraced_round_s);
  }
  return Status::OK();
}

}  // namespace wallbench
