#ifndef R3DB_APPSYS_WORKLOAD_MONITOR_H_
#define R3DB_APPSYS_WORKLOAD_MONITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/sim_clock.h"

namespace r3 {
namespace appsys {

/// The workload monitor — the analogue of SAP's ST03 transaction, which
/// decomposes every dialog step's response time into where it was spent:
/// dispatcher wait, program load, database requests, and the processing
/// remainder. The paper's tuning workflow starts here ("is it the database
/// or the application?") before drilling into ST04/ST05.
///
/// BeginStep()/EndStep() bracket one dialog step (a report run, a screen's
/// worth of work); steps do not nest, matching R/3. While a step is open the
/// DbConnection attributes each call's simulated time to the step via
/// AddDbRequestTime() (wired by DbConnection::set_workload_monitor()), and
/// wait/load time can be booked explicitly. The processing component is the
/// residual, so the four components sum *exactly* to the step's end-to-end
/// simulated time — asserted in tests. The monitor itself never charges the
/// clock.
class WorkloadMonitor {
 public:
  explicit WorkloadMonitor(SimClock* clock) : clock_(clock) {}

  WorkloadMonitor(const WorkloadMonitor&) = delete;
  WorkloadMonitor& operator=(const WorkloadMonitor&) = delete;

  /// Opens a step of the named task type; an open step is closed first.
  void BeginStep(const std::string& task_type);
  /// Closes the open step and books its decomposition; no-op when none open.
  void EndStep();

  /// RAII form of Begin/EndStep.
  class Scope {
   public:
    Scope(WorkloadMonitor* monitor, const std::string& task_type)
        : monitor_(monitor) {
      if (monitor_ != nullptr) monitor_->BeginStep(task_type);
    }
    ~Scope() {
      if (monitor_ != nullptr) monitor_->EndStep();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WorkloadMonitor* monitor_;
  };

  /// Books `sim_us` of the open step as database-request time (called by
  /// the DbConnection per db call); dropped when no step is open.
  void AddDbRequestTime(int64_t sim_us);
  /// Books wait time that elapsed *on the clock* while the step was open
  /// (the time is part of the step's clock span and is re-attributed from
  /// processing to wait).
  void AddWaitTime(int64_t sim_us);
  /// Books dispatcher-queue wait that happened *before* the work process
  /// picked the step up — off-clock virtual-timeline time (the discrete-
  /// event scheduler charges queueing on its own timeline, not the shared
  /// SimClock), so it *extends* the step's total instead of re-attributing
  /// part of the clock span. Response time = queue wait + service, exactly
  /// like the real ST03's "wait time" column. This is the per-step view of
  /// the wait Dispatcher::RecordQueueWait books in `appsys.wait.*`.
  void AddDispatchWait(int64_t sim_us);
  /// Books program/statement load time (ST03's "load time" column).
  void AddLoadTime(int64_t sim_us);

  /// Aggregated decomposition of one task type. Components always satisfy
  /// wait + load + db_request + processing == total.
  struct StepStats {
    std::string task_type;
    int64_t steps = 0;
    int64_t total_us = 0;
    int64_t wait_us = 0;
    int64_t load_us = 0;
    int64_t db_request_us = 0;
    int64_t processing_us = 0;
  };

  /// Task types in first-seen order.
  const std::vector<StepStats>& steps() const { return steps_; }

  /// The ST03-style table: one line per task type with the decomposition
  /// and the db share of response time.
  std::string RenderReport() const;

  /// {"steps":[{"task_type":..,"steps":..,"total_us":..,...}]}.
  json::Value ToJson() const;

  void Reset();

 private:
  SimClock* clock_;

  bool open_ = false;
  std::string open_task_;
  int64_t open_start_us_ = 0;
  int64_t open_wait_us_ = 0;
  int64_t open_dispatch_wait_us_ = 0;
  int64_t open_load_us_ = 0;
  int64_t open_db_us_ = 0;

  std::vector<StepStats> steps_;
  std::map<std::string, size_t> index_;  ///< task type -> index into steps_
};

}  // namespace appsys
}  // namespace r3

#endif  // R3DB_APPSYS_WORKLOAD_MONITOR_H_
