#ifndef WALLBENCH_HARNESS_H_
#define WALLBENCH_HARNESS_H_

// Pieces shared by the benchmark's workloads: options, wall-clock sampling,
// the outcome a workload hands back, registry deltas and the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "appsys/batch_input.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/trace.h"
#include "rdbms/db.h"
#include "wallbench/selftime.h"

namespace wallbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Wall time on the steady clock since construction.
class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Ms() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Nearest-rank percentile of `v` for q in (0, 1]; 0 when `v` is empty.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// One untraced measured unit: a power round, a landscape run or a load.
/// Every unit of a run repeats the same operations in the same order.
struct Unit {
  double wall_s = 0;           ///< wall time of the whole unit
  std::vector<double> op_ms;   ///< wall time of each timed call, in order
  /// Consecutive timed calls that make one operation (a power pass is its
  /// 19 items; elsewhere an operation is one call).
  size_t calls_per_op = 1;
};

/// The end-to-end timings of a run's units. The shared machine's speed
/// drifts within a run, so every figure is a median over the whole run:
///   op time   = median over the units of the sum of the op's calls
///   ops_per_s = ops / median unit wall time
///   op_p50_ms, op_p99_ms = percentiles of the op times
struct Timings {
  bool consistent = false;  ///< every unit has the same operation count
  size_t ops = 0;
  double ops_per_s = 0;
  double op_p50_ms = 0;
  double op_p99_ms = 0;
};
Timings MedianOfUnits(const std::vector<Unit>& units);

/// What one workload run hands back to main() for printing.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures, for stderr
  std::vector<double> setup_s;      ///< one per complete set-up
  std::vector<Unit> units;
  /// Per-layer metrics, each per measured unit (one power round, one
  /// landscape run, one load); only printed by the traced run.
  std::map<std::string, double> layer;
  std::vector<std::string> report;  ///< report lines printed before the result

  void Fail(const std::string& what);
  void Report(const std::string& line) { report.push_back(line); }
};

/// Counter and gauge values of a registry, by name.
std::map<std::string, int64_t> Counters(const r3::MetricsRegistry& registry);

/// Adds after - before, name by name, into `*sum`.
void AddDelta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              std::map<std::string, double>* sum);

/// Turns summed registry deltas over `units` measured units into the
/// per-layer counters and ratios (connection, table buffer, SQL, optimizer,
/// buffer pool, transactions, WAL, MVCC, dispatcher).
void AddRegistryLayers(const std::map<std::string, double>& delta,
                       double units, Outcome* out);

/// Adds after - before of the batch-input counters into `*sum`.
void AddBatchInputDelta(const r3::appsys::BatchInputStats& before,
                        const r3::appsys::BatchInputStats& after,
                        r3::appsys::BatchInputStats* sum);

/// batch_input.* per measured unit.
void AddBatchInputLayers(const r3::appsys::BatchInputStats& sum, double units,
                         Outcome* out);

/// Per-layer sums over the traced units of a run.
struct TraceTotals {
  std::map<std::string, LayerTotal> layers;
  int64_t events = 0;
  int64_t dropped = 0;
};

/// A Tracer on one simulated clock whose spans are folded into per-layer
/// wall self times. Events are exported and folded in chunks, so memory
/// stays bounded however long the traced run is.
class LayerTrace {
 public:
  /// Attaches to `clock` (detaches when destroyed) and folds into
  /// `*totals`; both must outlive this object.
  LayerTrace(r3::SimClock* clock, TraceTotals* totals);

  /// Folds the buffered events into the totals and empties the buffer.
  /// Call only while no span is open.
  r3::Status Flush();
  /// Flush() once a chunk's worth of events is buffered.
  r3::Status MaybeFlush();

  /// Wall seconds spent exporting and folding; not part of the traced run.
  double flush_s() const { return flush_s_; }

 private:
  r3::Tracer tracer_;
  TraceTotals* totals_;
  double flush_s_ = 0;
};

/// The self-time layers the traced run reports, in print order.
const std::vector<std::string>& TraceLayers();

/// Adds trace.<layer>.{self_ms,spans,trunc_bound_ms}, trace.events and
/// trace.dropped, per measured unit.
void AddTraceLayers(const TraceTotals& totals, double units, Outcome* out);

/// Allocated data + index bytes of every table.
uint64_t DatabaseBytes(const r3::rdbms::Database& db);

// The workloads. Each runs in its own process; a returned error is a
// failed set-up, while failed operations and checks go to Outcome::Fail.
r3::Status RunPowerR22(const Options& opts, Outcome* out);
r3::Status RunDialogLandscape(const Options& opts, Outcome* out);
r3::Status RunBatchLoad(const Options& opts, Outcome* out);

}  // namespace wallbench

#endif  // WALLBENCH_HARNESS_H_
