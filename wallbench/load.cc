// batch_load: Table 3's batch-input load (Release 2.2, one EnterX dialog
// transaction per record) into an empty SAP database with WAL and MVCC on.
// The database grows from fitting in the pool to about 100 times it. The
// write path: dictionary encode, heap and B-tree inserts, DML parse and one
// commit per transaction.
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "appsys/app_server.h"
#include "appsys/batch_input.h"
#include "rdbms/db.h"
#include "sap/loader.h"
#include "sap/schema.h"
#include "sap/views.h"
#include "tpcd/dbgen.h"
#include "wallbench/harness.h"

namespace wallbench {
namespace {

using r3::Status;
namespace appsys = r3::appsys;
namespace tpcd = r3::tpcd;

constexpr double kSf = 0.001;
/// Table 3's and Table 4's geometry: 128 KB of pool at this scale.
constexpr size_t kPoolBytes = 128 * 1024;
/// A run is at least this many loads, so set-up time has a median.
constexpr int kMinLoads = 3;
constexpr int kExtraSetups = 10;

/// The generator's records, made before the load so it times only EnterX.
struct Input {
  std::vector<tpcd::RegionRec> regions;
  std::vector<tpcd::NationRec> nations;
  std::vector<tpcd::SupplierRec> suppliers;
  std::vector<tpcd::PartRec> parts;
  std::vector<tpcd::PartSuppRec> partsupps;
  std::vector<tpcd::CustomerRec> customers;
  std::vector<tpcd::OrderRec> orders;
  int64_t lineitems = 0;
};

/// An empty installation ready for batch input, as table3_loading sets it
/// up (master-data checks hit the table buffer), plus WAL.
struct Installation {
  explicit Installation(uint64_t seed) : gen(kSf, seed) {}

  tpcd::DbGen gen;
  Input input;
  r3::MetricsRegistry metrics;
  std::unique_ptr<appsys::R3System> sys;
  std::unique_ptr<r3::sap::SapLoader> loader;
};

Status Setup(Installation* in) {
  Input& i = in->input;
  i.regions = in->gen.MakeRegions();
  i.nations = in->gen.MakeNations();
  i.suppliers = in->gen.MakeSuppliers();
  i.parts = in->gen.MakeParts();
  i.partsupps = in->gen.MakePartSupps();
  i.customers = in->gen.MakeCustomers();
  R3_RETURN_IF_ERROR(in->gen.ForEachOrder([&](const tpcd::OrderRec& o) {
    i.orders.push_back(o);
    i.lineitems += static_cast<int64_t>(o.lines.size());
    return Status::OK();
  }));
  appsys::AppServerOptions app;
  app.release = appsys::Release::kRelease22;
  app.table_buffer_bytes = 4u << 20;
  r3::rdbms::DatabaseOptions db;
  db.buffer_pool_bytes = kPoolBytes;
  db.work_mem_bytes = 64 * 1024;
  db.metrics = &in->metrics;
  in->sys = std::make_unique<appsys::R3System>(app, db);
  R3_RETURN_IF_ERROR(in->sys->app.Bootstrap());
  R3_RETURN_IF_ERROR(r3::sap::CreateSapSchema(&in->sys->app));
  R3_RETURN_IF_ERROR(r3::sap::CreateJoinViews(&in->sys->app));
  for (const char* table : {"MARA", "KNA1", "T005", "LFA1"}) {
    in->sys->app.buffer()->EnableFor(table);
  }
  R3_RETURN_IF_ERROR(in->sys->db.EnableWal());
  in->loader = std::make_unique<r3::sap::SapLoader>(&in->sys->app, &in->gen);
  return Status::OK();
}

/// Physical row counts the load must produce, from the generator's records.
std::vector<std::pair<const char*, int64_t>> ExpectedRows(const Input& i) {
  auto n = [](const auto& v) { return static_cast<int64_t>(v.size()); };
  return {{"T005U", n(i.regions)},   {"T005", n(i.nations)},
          {"LFA1", n(i.suppliers)},  {"MARA", n(i.parts)},
          {"MAKT", n(i.parts)},      {"EINA", n(i.partsupps)},
          {"EINE", n(i.partsupps)},  {"KNA1", n(i.customers)},
          {"VBAK", n(i.orders)},     {"VBAP", i.lineitems},
          {"VBEP", i.lineitems}};
}

/// Wall timings of one load, one sample per EnterX call.
struct LoadTimes {
  double load_s = 0;
  std::vector<double> op_ms;  ///< every call, in order
  std::vector<double> master_ms;
  std::vector<double> order_ms;
};

}  // namespace

Status RunBatchLoad(const Options& opts, Outcome* out) {
  std::vector<double> setup_ms, untraced_load_s, traced_load_s;
  std::vector<double> master_ms, order_ms;
  std::map<std::string, double> delta;
  TraceTotals trace_totals;
  appsys::BatchInputStats bi_sum;
  uint64_t db_bytes = 0;
  double traced_units = 0;
  char line[240];

  // A set-up takes milliseconds, so a run times a few extra ones as well:
  // set-up time is the median of all of them.
  for (int k = 0; k < kExtraSetups; ++k) {
    Installation in(opts.seed);
    Stopwatch setup;
    R3_RETURN_IF_ERROR(Setup(&in));
    out->setup_s.push_back(setup.Seconds());
    setup_ms.push_back(setup.Ms());
  }
  Stopwatch run;
  for (int it = 1; run.Seconds() < opts.seconds || it <= kMinLoads; ++it) {
    // The traced run alternates untraced and traced loads.
    bool traced = opts.trace && it % 2 == 0;
    Installation in(opts.seed);
    Stopwatch setup;
    R3_RETURN_IF_ERROR(Setup(&in));
    out->setup_s.push_back(setup.Seconds());
    setup_ms.push_back(setup.Ms());

    r3::SimClock* clock = in.sys->app.clock();
    // Declared after the installation, so it detaches before the clock dies.
    std::optional<LayerTrace> layer_trace;
    if (traced) layer_trace.emplace(clock, &trace_totals);
    LayerTrace* trace = layer_trace ? &*layer_trace : nullptr;
    r3::sap::SapLoader* loader = in.loader.get();
    LoadTimes times;
    // One batch-input transaction, timed and (when traced) spanned.
    auto enter = [&](bool order, const std::function<Status()>& call) {
      ++out->attempted;
      if (trace != nullptr) {
        Status st = trace->MaybeFlush();
        if (!st.ok()) out->Fail("trace: " + st.ToString());
      }
      Stopwatch watch;
      Status st;
      {
        r3::TraceSpan span(clock, "sap",
                           order ? "loader.order" : "loader.master");
        st = call();
      }
      double ms = watch.Ms();
      times.op_ms.push_back(ms);
      (order ? times.order_ms : times.master_ms).push_back(ms);
      if (!st.ok()) out->Fail("batch input: " + st.ToString());
    };

    const Input& i = in.input;
    auto before = Counters(in.metrics);
    r3::SimTimer sim(*clock);
    Stopwatch load;
    for (const auto& r : i.regions) enter(false, [&] { return loader->EnterRegion(r); });
    for (const auto& n : i.nations) enter(false, [&] { return loader->EnterNation(n); });
    for (const auto& s : i.suppliers) enter(false, [&] { return loader->EnterSupplier(s); });
    for (const auto& p : i.parts) enter(false, [&] { return loader->EnterPart(p); });
    for (size_t k = 0; k < i.partsupps.size(); ++k) {
      enter(false, [&] {
        return loader->EnterPartSupp(i.partsupps[k], static_cast<int64_t>(k % 4));
      });
    }
    for (const auto& c : i.customers) enter(false, [&] { return loader->EnterCustomer(c); });
    for (const auto& o : i.orders) enter(true, [&] { return loader->EnterOrder(o); });
    times.load_s = load.Seconds();
    int64_t sim_us = sim.ElapsedUs();
    if (trace != nullptr) {
      times.load_s -= trace->flush_s();  // folding done during the load
      Status st = trace->Flush();
      if (!st.ok()) out->Fail("trace: " + st.ToString());
    }

    const appsys::BatchInputStats& bi = in.sys->app.batch_input()->stats();
    if (bi.failed_transactions != 0) {
      out->Fail(std::to_string(bi.failed_transactions) +
                " batch-input transactions failed");
    }
    for (const auto& [table, want] : ExpectedRows(i)) {
      auto info = in.sys->db.catalog()->GetTable(table);
      int64_t got = info.ok() ? static_cast<int64_t>(info.value()->row_count) : -1;
      if (got != want) {
        out->Fail(std::string(table) + " has " + std::to_string(got) +
                  " rows, the generator made " + std::to_string(want));
      }
    }
    std::snprintf(line, sizeof(line),
                  "sim batch_load %s load %d: %" PRId64
                  " us simulated for %zu transactions",
                  traced ? "traced" : "timed", it, sim_us,
                  times.master_ms.size() + times.order_ms.size());
    out->Report(line);
    db_bytes = DatabaseBytes(in.sys->db);

    if (traced) {
      AddDelta(before, Counters(in.metrics), &delta);
      AddBatchInputDelta({}, bi, &bi_sum);
      traced_load_s.push_back(times.load_s);
      traced_units += 1;
      continue;
    }
    untraced_load_s.push_back(times.load_s);
    out->units.push_back({times.load_s, times.op_ms});
    master_ms.insert(master_ms.end(), times.master_ms.begin(),
                     times.master_ms.end());
    order_ms.insert(order_ms.end(), times.order_ms.begin(),
                    times.order_ms.end());
  }

  std::snprintf(line, sizeof(line),
                "geometry batch_load: sf %g, DB %" PRIu64
                " bytes after the load, pool %zu bytes",
                kSf, db_bytes, kPoolBytes);
  out->Report(line);

  auto& l = out->layer;
  double untraced_units = static_cast<double>(untraced_load_s.size());
  l["sap.loader.master.calls"] =
      static_cast<double>(master_ms.size()) / untraced_units;
  l["sap.loader.master.p50_ms"] = Median(master_ms);
  l["sap.loader.order.calls"] =
      static_cast<double>(order_ms.size()) / untraced_units;
  l["sap.loader.order.p50_ms"] = Median(order_ms);
  l["setup.load_ms"] = Median(setup_ms);
  l["storage.db_bytes"] = static_cast<double>(db_bytes);
  l["storage.pool_bytes"] = static_cast<double>(kPoolBytes);
  if (opts.trace && traced_units > 0) {
    AddRegistryLayers(delta, traced_units, out);
    AddTraceLayers(trace_totals, traced_units, out);
    AddBatchInputLayers(bi_sum, traced_units, out);
    l["trace.overhead_ratio"] = Median(traced_load_s) / Median(untraced_load_s);
  }
  return Status::OK();
}

}  // namespace wallbench
