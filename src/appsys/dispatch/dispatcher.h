#ifndef R3DB_APPSYS_DISPATCH_DISPATCHER_H_
#define R3DB_APPSYS_DISPATCH_DISPATCHER_H_

#include <deque>
#include <optional>
#include <vector>

#include "appsys/dispatch/request.h"
#include "appsys/dispatch/work_process.h"
#include "common/metrics.h"

namespace r3 {
namespace appsys {
namespace dispatch {

/// Per-class bounded request queues of one app server's dispatcher.
struct DispatcherOptions {
  /// Maximum queued (not yet dispatched) requests per class; arriving
  /// requests beyond the cap are rejected — R/3's dispatcher queue is a
  /// fixed-size shared-memory table, and a full queue refuses the logon/
  /// step rather than growing without bound.
  int64_t queue_cap[kNumWpClasses] = {500, 50, 200};
};

/// The R/3 dispatcher of one application server (rdisp): routes each
/// arriving request to a free work process of the request's class,
/// FIFO-queues it when all are busy, and rejects it when the class queue is
/// full (admission control). All times are virtual-timeline microseconds
/// maintained by the landscape's discrete-event loop — the dispatcher
/// itself never charges the shared SimClock; queue wait is off-clock time
/// booked once, in the `appsys.wait.dispatch_queue` counter and
/// `appsys.wait.dispatch_queue_us` histogram (RecordQueueWait), and per
/// dialog step via WorkloadMonitor::AddDispatchWait.
///
/// The dispatcher owns the server's work processes. Scheduling is
/// deterministic: the lowest-id free work process wins, queues are strict
/// FIFO, and every decision is a function of the (deterministic) event
/// order.
class Dispatcher {
 public:
  Dispatcher(MetricsRegistry* metrics, DispatcherOptions options);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Takes ownership of a configured work process (instance construction).
  WorkProcess* AddWorkProcess(WorkProcess wp);

  /// Counts one arriving request (`appsys.dispatch.requests`) — called by
  /// the landscape for every arrival, whether it dispatches immediately,
  /// queues, or is rejected.
  void OnArrival();

  /// The lowest-id idle work process of `c`; null when all are busy.
  WorkProcess* FindFreeWp(WpClass c);

  /// Queues an arrival that found no free work process. Returns false —
  /// and counts a rejection — when the class queue is at capacity.
  bool Enqueue(PlannedRequest req, int64_t now_us);

  /// Pops the FIFO head of the class queue (empty optional when idle).
  std::optional<PlannedRequest> PopQueued(WpClass c, int64_t now_us);

  /// Marks `wp` busy with a step until `until_us` (virtual timeline).
  void MarkBusy(WorkProcess* wp, int64_t now_us, int64_t until_us);
  void MarkFree(WorkProcess* wp);

  /// Books one dispatched step's queue wait in the `appsys.wait.*` metrics.
  /// Virtual-timeline times, like everything here.
  void RecordQueueWait(WpClass c, int64_t wait_us);

  /// A deque for reference stability: AddWorkProcess hands out pointers.
  std::deque<WorkProcess>& wps() { return wps_; }
  const std::deque<WorkProcess>& wps() const { return wps_; }

  /// Queue accounting of one class, over the whole run.
  struct QueueStats {
    int64_t queued_total = 0;    ///< requests that went through the queue
    int64_t rejected = 0;        ///< admission-control rejections
    int64_t cur_depth = 0;
    int64_t peak_depth = 0;
    /// Time-weighted depth integral (depth × virtual µs): mean depth =
    /// integral / horizon.
    int64_t depth_integral_us = 0;
    int64_t last_change_us = 0;
    int64_t total_wait_us = 0;  ///< summed queue wait of dispatched steps
    int64_t waited_steps = 0;   ///< dispatched steps with wait > 0
  };
  const QueueStats& queue_stats(WpClass c) const {
    return stats_[static_cast<size_t>(c)];
  }

  /// Closes the depth integrals at the end of the run (`horizon_us` = the
  /// virtual makespan); queues must be empty by then.
  void FinishAccounting(int64_t horizon_us);

 private:
  void AdvanceDepthClock(WpClass c, int64_t now_us);

  DispatcherOptions options_;
  std::deque<WorkProcess> wps_;
  std::deque<PlannedRequest> queues_[kNumWpClasses];
  QueueStats stats_[kNumWpClasses];
  Counter* m_requests_;
  Counter* m_queued_;
  Counter* m_rejected_;
  Counter* m_wait_count_;
  Histogram* h_wait_us_;
};

}  // namespace dispatch
}  // namespace appsys
}  // namespace r3

#endif  // R3DB_APPSYS_DISPATCH_DISPATCHER_H_
