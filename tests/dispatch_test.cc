// Dispatcher / work-process / landscape tests: deterministic scheduling,
// admission control, queue-wait accounting (ST03 + wait metrics), per-MANDT
// tenancy isolation across app servers, landscape-wide ST05 merging, and
// the RDBMS session pool backing the work processes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "appsys/dispatch/landscape.h"
#include "appsys/sql_trace.h"
#include "rdbms/session_pool.h"
#include "sap/dialog_workload.h"
#include "sap/loader.h"
#include "sap/schema.h"
#include "sap/views.h"
#include "tpcd/dbgen.h"

namespace r3 {
namespace appsys {
namespace dispatch {
namespace {

using rdbms::Value;
using sap::DialogWorkloadOptions;
using sap::SapKeySpace;

#define ASSERT_OK(expr)                      \
  do {                                       \
    ::r3::Status _st = (expr);               \
    ASSERT_TRUE(_st.ok()) << _st.ToString(); \
  } while (false)

constexpr double kSf = 0.0005;

/// One complete installation: SAP schema over TPC-D data, plus the pieces a
/// landscape needs. Built fresh per run so runs never see each other's
/// document inserts.
struct Installation {
  std::unique_ptr<R3System> sys;
  tpcd::DbGen gen{kSf};

  SapKeySpace Keys() const {
    return {gen.NumOrders(), gen.NumParts(), gen.NumCustomers(),
            gen.NumSuppliers()};
  }
};

std::unique_ptr<Installation> BuildInstallation(int exec_threads = 0) {
  auto ins = std::make_unique<Installation>();
  ins->sys = std::make_unique<R3System>();
  ins->sys->db.set_exec_threads(exec_threads);
  EXPECT_TRUE(ins->sys->app.Bootstrap().ok());
  EXPECT_TRUE(sap::CreateSapSchema(&ins->sys->app).ok());
  EXPECT_TRUE(sap::CreateJoinViews(&ins->sys->app).ok());
  sap::SapLoader loader(&ins->sys->app, &ins->gen);
  EXPECT_TRUE(loader.FastLoadAll().ok());
  EXPECT_TRUE(ins->sys->db.Analyze().ok());
  return ins;
}

/// Hand-built single-script request (tests drive exact scenarios).
PlannedRequest MakeRequest(int64_t arrival_us, int64_t seq, int32_t user,
                           std::string client, WpClass wp_class,
                           DialogScript script) {
  PlannedRequest r;
  r.arrival_us = arrival_us;
  r.seq = seq;
  r.user = user;
  r.client = std::move(client);
  r.wp_class = wp_class;
  r.script = std::move(script);
  return r;
}

DialogScript Mm03Script(int64_t partkey) {
  DialogScript s;
  s.tcode = "MM03";
  s.kind = ScriptKind::kMm03DisplayMaterial;
  s.partkey = partkey;
  return s;
}

DialogScript UpdatePostScript(int64_t orderkey, int64_t custkey,
                              std::vector<int64_t> parts) {
  DialogScript s;
  s.tcode = "VA01U";
  s.kind = ScriptKind::kVa01UpdatePost;
  s.orderkey = orderkey;
  s.custkey = custkey;
  s.parts = std::move(parts);
  return s;
}

// ---------------------------------------------------------------------------
// Determinism: the whole run document is byte-identical across repeated
// runs and across host thread counts (exec_threads is wall-clock-only).
// ---------------------------------------------------------------------------
TEST(DispatchDeterminismTest, ByteIdenticalAcrossRunsAndHostThreads) {
  std::vector<std::string> dumps;
  for (int exec_threads : {0, 0, 4}) {
    auto ins = BuildInstallation(exec_threads);
    LandscapeOptions lopts;
    lopts.num_instances = 2;
    SystemLandscape landscape(&ins->sys->db, ins->sys->app.dictionary(),
                              lopts);
    ASSERT_OK(landscape.Start());

    DialogWorkloadOptions wopts;
    wopts.users = 40;
    wopts.duration_s = 120;
    wopts.ramp_s = 20;
    auto plan = sap::GenerateDialogWorkload(ins->Keys(), wopts);
    ASSERT_FALSE(plan.empty());
    auto run =
        landscape.Run(std::move(plan), sap::MakeSapScriptRunner(ins->Keys()));
    ASSERT_OK(run.status());
    EXPECT_GT(run.value().completed, 0);
    dumps.push_back(run.value().ToJson().Dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]) << "same config, different run";
  EXPECT_EQ(dumps[0], dumps[2]) << "exec_threads leaked into simulated time";
}

// ---------------------------------------------------------------------------
// Admission control: 1 dialog WP + queue cap 2 against 10 simultaneous
// arrivals -> exactly 3 complete (1 direct + 2 queued), 7 rejected.
// ---------------------------------------------------------------------------
TEST(DispatcherTest, AdmissionControlRejectsBeyondQueueCap) {
  auto ins = BuildInstallation();
  LandscapeOptions lopts;
  lopts.instance.dialog_wps = 1;
  lopts.instance.batch_wps = 0;
  lopts.instance.update_wps = 0;
  lopts.instance.dispatcher.queue_cap[static_cast<size_t>(WpClass::kDialog)] =
      2;
  SystemLandscape landscape(&ins->sys->db, ins->sys->app.dictionary(), lopts);
  ASSERT_OK(landscape.Start());

  std::vector<PlannedRequest> plan;
  for (int i = 0; i < 10; ++i) {
    plan.push_back(MakeRequest(0, i, i, "301", WpClass::kDialog,
                               Mm03Script(/*partkey=*/1 + i)));
  }
  auto run =
      landscape.Run(std::move(plan), sap::MakeSapScriptRunner(ins->Keys()));
  ASSERT_OK(run.status());
  const auto& r = run.value();
  EXPECT_EQ(r.offered, 10);
  EXPECT_EQ(r.completed, 3);
  EXPECT_EQ(r.rejected, 7);
  const auto& dia = r.per_class[static_cast<size_t>(WpClass::kDialog)];
  EXPECT_EQ(dia.queued, 2);
  EXPECT_EQ(dia.rejected, 7);
  EXPECT_EQ(dia.peak_queue_depth, 2);

  const Dispatcher::QueueStats& qs =
      landscape.instance(0)->dispatcher()->queue_stats(WpClass::kDialog);
  EXPECT_EQ(qs.queued_total, 2);
  EXPECT_EQ(qs.rejected, 7);
}

// ---------------------------------------------------------------------------
// Queue-wait accounting: with one WP, the second of two simultaneous
// arrivals waits exactly the first one's service time; the wait shows up in
// ST03 (as wait time extending the step's response) and in the
// `appsys.wait.dispatch_queue*` metrics.
// ---------------------------------------------------------------------------
TEST(DispatcherTest, QueueWaitBookedInSt03AndWaitEvents) {
  auto ins = BuildInstallation();
  // The installation books into the process-wide registry, which earlier
  // tests in this binary also use: compare deltas.
  MetricsRegistry* metrics = ins->sys->db.metrics();
  Histogram* wait_hist = metrics->GetHistogram("appsys.wait.dispatch_queue_us");
  const int64_t waits_before = metrics->Value("appsys.wait.dispatch_queue");
  const int64_t wait_sum_before = wait_hist->Sum();
  LandscapeOptions lopts;
  lopts.instance.dialog_wps = 1;
  lopts.instance.batch_wps = 0;
  lopts.instance.update_wps = 0;
  SystemLandscape landscape(&ins->sys->db, ins->sys->app.dictionary(), lopts);
  ASSERT_OK(landscape.Start());

  // Identical scripts: the only first/second asymmetries are the one-time
  // program load and cold caches, both part of step 1's service time.
  std::vector<PlannedRequest> plan;
  plan.push_back(
      MakeRequest(0, 0, 0, "301", WpClass::kDialog, Mm03Script(1)));
  plan.push_back(
      MakeRequest(0, 1, 1, "301", WpClass::kDialog, Mm03Script(1)));
  auto run =
      landscape.Run(std::move(plan), sap::MakeSapScriptRunner(ins->Keys()));
  ASSERT_OK(run.status());
  const auto& r = run.value();
  ASSERT_EQ(r.completed, 2);
  EXPECT_EQ(r.outcomes[0].wait_us, 0);
  EXPECT_GT(r.outcomes[0].service_us, 0);
  EXPECT_EQ(r.outcomes[1].wait_us, r.outcomes[0].service_us);
  EXPECT_EQ(r.outcomes[1].response_us(),
            r.outcomes[1].wait_us + r.outcomes[1].service_us);

  // Dispatcher books the same wait...
  const Dispatcher::QueueStats& qs =
      landscape.instance(0)->dispatcher()->queue_stats(WpClass::kDialog);
  EXPECT_EQ(qs.total_wait_us, r.outcomes[1].wait_us);
  EXPECT_EQ(qs.waited_steps, 1);

  // ...the wait metrics saw it as one dispatch-queue stall...
  EXPECT_EQ(metrics->Value("appsys.wait.dispatch_queue") - waits_before, 1);
  EXPECT_EQ(wait_hist->Sum() - wait_sum_before, r.outcomes[1].wait_us);

  // ...and ST03's wait column carries it (the monitor's steps are our two
  // dialog steps; total wait == the queue wait).
  json::Value st03 = landscape.St03Json();
  ASSERT_EQ(st03.items().size(), 1u);
  const json::Value& tasks = st03.items()[0].Get("st03").Get("steps");
  ASSERT_TRUE(tasks.is_array());
  int64_t st03_wait = 0;
  int64_t st03_steps = 0;
  for (const json::Value& t : tasks.items()) {
    st03_wait += t.Get("wait_us").int_value();
    st03_steps += t.Get("steps").int_value();
  }
  EXPECT_EQ(st03_steps, 2);
  EXPECT_EQ(st03_wait, r.outcomes[1].wait_us);
}

// ---------------------------------------------------------------------------
// Per-MANDT isolation: two clients posting orders through logon-grouped
// instances end up with disjoint documents; Open SQL under one client never
// sees the other's rows, and the physical table carries both.
// ---------------------------------------------------------------------------
TEST(LandscapeTest, MandtIsolationAcrossLogonGroups) {
  auto ins = BuildInstallation();
  LandscapeOptions lopts;
  lopts.num_instances = 2;
  lopts.logon_groups["301"] = {0};
  lopts.logon_groups["402"] = {1};
  SystemLandscape landscape(&ins->sys->db, ins->sys->app.dictionary(), lopts);
  ASSERT_OK(landscape.Start());

  // Three postings for client 301, two for client 402 (update task runs
  // them with the poster's MANDT).
  std::vector<PlannedRequest> plan;
  int64_t seq = 0;
  for (int i = 0; i < 3; ++i) {
    plan.push_back(MakeRequest(seq * 1000, seq, /*user=*/0, "301",
                               WpClass::kUpdate,
                               UpdatePostScript(200000001 + i, 1, {1, 2})));
    ++seq;
  }
  for (int i = 0; i < 2; ++i) {
    plan.push_back(MakeRequest(seq * 1000, seq, /*user=*/1, "402",
                               WpClass::kUpdate,
                               UpdatePostScript(200000011 + i, 1, {3})));
    ++seq;
  }
  auto run =
      landscape.Run(std::move(plan), sap::MakeSapScriptRunner(ins->Keys()));
  ASSERT_OK(run.status());
  EXPECT_EQ(run.value().completed, 5);
  EXPECT_EQ(run.value().script_errors, 0);

  // Logon groups routed each client to its own instance.
  for (const RequestOutcome& o : run.value().outcomes) {
    EXPECT_EQ(o.instance, o.arrival_us < 3000 ? 0 : 1);
  }

  // Native count by MANDT: the shared table holds both tenants' documents.
  auto count = [&](const char* mandt) {
    auto res = ins->sys->db.Query(
        "SELECT COUNT(*) FROM VBAK WHERE MANDT = ? AND VBELN >= ?",
        {Value::Str(mandt), Value::Str(sap::Vbeln(200000000))});
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.value().rows[0][0].AsInt();
  };
  EXPECT_EQ(count("301"), 3);
  EXPECT_EQ(count("402"), 2);

  // Open SQL tenancy: client 402's interface cannot see 301's document.
  WorkProcess* wp =
      landscape.instance(1)->dispatcher()->FindFreeWp(WpClass::kDialog);
  ASSERT_NE(wp, nullptr);
  OpenSql* osql402 = landscape.instance(1)->OpenSqlFor(wp, "402");
  auto foreign = osql402->SelectSingle(
      "VBAK",
      {OsqlCond::Eq("VBELN", Value::Str(sap::Vbeln(200000001)))});
  ASSERT_OK(foreign.status());
  EXPECT_FALSE(foreign.value().has_value());
  auto own = osql402->SelectSingle(
      "VBAK",
      {OsqlCond::Eq("VBELN", Value::Str(sap::Vbeln(200000011)))});
  ASSERT_OK(own.status());
  EXPECT_TRUE(own.value().has_value());
}

// ---------------------------------------------------------------------------
// VA01 schedules its posting as a followup on an update work process.
// ---------------------------------------------------------------------------
TEST(LandscapeTest, Va01PostsThroughUpdateWorkProcesses) {
  auto ins = BuildInstallation();
  LandscapeOptions lopts;
  lopts.instance.dialog_wps = 2;
  lopts.instance.batch_wps = 0;
  lopts.instance.update_wps = 1;
  SystemLandscape landscape(&ins->sys->db, ins->sys->app.dictionary(), lopts);
  ASSERT_OK(landscape.Start());

  DialogScript va01;
  va01.tcode = "VA01";
  va01.kind = ScriptKind::kVa01CreateOrder;
  va01.custkey = 1;
  va01.parts = {1, 2};
  std::vector<PlannedRequest> plan;
  for (int i = 0; i < 4; ++i) {
    plan.push_back(
        MakeRequest(i * 1000000, i, i, "301", WpClass::kDialog, va01));
  }
  auto run =
      landscape.Run(std::move(plan), sap::MakeSapScriptRunner(ins->Keys()));
  ASSERT_OK(run.status());
  const auto& r = run.value();
  EXPECT_EQ(r.offered, 8) << "each VA01 must schedule one posting";
  EXPECT_EQ(r.completed, 8);
  EXPECT_EQ(r.script_errors, 0);
  const auto& upd = r.per_class[static_cast<size_t>(WpClass::kUpdate)];
  EXPECT_EQ(upd.completed, 4);
  int64_t update_outcomes = 0;
  for (const RequestOutcome& o : r.outcomes) {
    if (o.wp_class != WpClass::kUpdate) continue;
    ++update_outcomes;
    EXPECT_EQ(o.wp, 2) << "postings must run on the single update WP";
    EXPECT_GT(o.rows, 0);
  }
  EXPECT_EQ(update_outcomes, 4);

  // The documents exist, numbered above the generated keyspace.
  auto res = ins->sys->db.Query(
      "SELECT COUNT(*) FROM VBAK WHERE VBELN >= ?",
      {Value::Str(sap::Vbeln(100000001))});
  ASSERT_OK(res.status());
  EXPECT_EQ(res.value().rows[0][0].AsInt(), 4);
}

// ---------------------------------------------------------------------------
// Landscape-wide ST05: CombineTraces merges every work process's trace.
// ---------------------------------------------------------------------------
TEST(LandscapeTest, CombineTracesMergesAllWorkProcesses) {
  auto ins = BuildInstallation();
  LandscapeOptions lopts;
  lopts.num_instances = 2;
  lopts.instance.st05 = true;
  SystemLandscape landscape(&ins->sys->db, ins->sys->app.dictionary(), lopts);
  ASSERT_OK(landscape.Start());

  DialogWorkloadOptions wopts;
  wopts.users = 20;
  wopts.duration_s = 60;
  wopts.ramp_s = 10;
  auto plan = sap::GenerateDialogWorkload(ins->Keys(), wopts);
  auto run =
      landscape.Run(std::move(plan), sap::MakeSapScriptRunner(ins->Keys()));
  ASSERT_OK(run.status());
  ASSERT_GT(run.value().completed, 0);

  size_t per_wp_events = 0;
  size_t traced_wps = 0;
  for (int i = 0; i < landscape.num_instances(); ++i) {
    for (const WorkProcess& wp : landscape.instance(i)->dispatcher()->wps()) {
      ASSERT_NE(wp.trace, nullptr);
      per_wp_events += wp.trace->events().size();
      traced_wps += 1;
    }
  }
  EXPECT_EQ(traced_wps, 20u);  // 2 instances x (6+2+2)
  EXPECT_GT(per_wp_events, 0u);

  appsys::SqlTrace combined;
  landscape.CombineTraces(&combined);
  EXPECT_EQ(combined.events().size(), per_wp_events);
  EXPECT_FALSE(combined.TopStatements(3).empty());
}

// ---------------------------------------------------------------------------
// SessionPool: hard cap on concurrent RDBMS sessions, RAII release.
// ---------------------------------------------------------------------------
TEST(SessionPoolTest, CapDenyAndRelease) {
  R3System sys;
  rdbms::SessionPool pool(&sys.db, /*max_sessions=*/2);
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_EQ(pool.active(), 2);

  auto c = pool.Acquire();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool.denied(), 1);

  {
    rdbms::SessionPool::Lease lease = std::move(a).value();
    EXPECT_EQ(pool.active(), 2);
  }  // lease released
  EXPECT_EQ(pool.active(), 1);
  auto d = pool.Acquire();
  ASSERT_OK(d.status());
  EXPECT_EQ(pool.active(), 2);
  EXPECT_EQ(pool.peak(), 2);
}

TEST(SessionPoolTest, LandscapeStartFailsWhenPoolTooSmall) {
  auto ins = BuildInstallation();
  LandscapeOptions lopts;
  lopts.num_instances = 2;          // 2 x (6+2+2) = 20 work processes
  lopts.max_sessions = 5;
  SystemLandscape landscape(&ins->sys->db, ins->sys->app.dictionary(), lopts);
  Status st = landscape.Start();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dispatch
}  // namespace appsys
}  // namespace r3
