#include "appsys/dispatch/dispatcher.h"

#include <utility>

namespace r3 {
namespace appsys {
namespace dispatch {

Dispatcher::Dispatcher(MetricsRegistry* metrics, DispatcherOptions options)
    : options_(options) {
  m_requests_ = metrics->GetCounter("appsys.dispatch.requests");
  m_queued_ = metrics->GetCounter("appsys.dispatch.queued");
  m_rejected_ = metrics->GetCounter("appsys.dispatch.rejected");
  m_wait_count_ = metrics->GetCounter("appsys.wait.dispatch_queue");
  h_wait_us_ = metrics->GetHistogram("appsys.wait.dispatch_queue_us");
}

WorkProcess* Dispatcher::AddWorkProcess(WorkProcess wp) {
  wps_.push_back(std::move(wp));
  return &wps_.back();
}

void Dispatcher::OnArrival() { m_requests_->Add(1); }

WorkProcess* Dispatcher::FindFreeWp(WpClass c) {
  for (WorkProcess& wp : wps_) {
    if (wp.wp_class == c && !wp.busy) return &wp;
  }
  return nullptr;
}

void Dispatcher::AdvanceDepthClock(WpClass c, int64_t now_us) {
  QueueStats& s = stats_[static_cast<size_t>(c)];
  s.depth_integral_us += s.cur_depth * (now_us - s.last_change_us);
  s.last_change_us = now_us;
}

bool Dispatcher::Enqueue(PlannedRequest req, int64_t now_us) {
  size_t ci = static_cast<size_t>(req.wp_class);
  QueueStats& s = stats_[ci];
  if (static_cast<int64_t>(queues_[ci].size()) >= options_.queue_cap[ci]) {
    s.rejected += 1;
    m_rejected_->Add(1);
    return false;
  }
  AdvanceDepthClock(req.wp_class, now_us);
  queues_[ci].push_back(std::move(req));
  s.cur_depth += 1;
  if (s.cur_depth > s.peak_depth) s.peak_depth = s.cur_depth;
  s.queued_total += 1;
  m_queued_->Add(1);
  return true;
}

std::optional<PlannedRequest> Dispatcher::PopQueued(WpClass c,
                                                    int64_t now_us) {
  size_t ci = static_cast<size_t>(c);
  if (queues_[ci].empty()) return std::nullopt;
  AdvanceDepthClock(c, now_us);
  PlannedRequest req = std::move(queues_[ci].front());
  queues_[ci].pop_front();
  stats_[ci].cur_depth -= 1;
  return req;
}

void Dispatcher::MarkBusy(WorkProcess* wp, int64_t now_us, int64_t until_us) {
  wp->busy = true;
  wp->busy_us += until_us - now_us;
  wp->steps += 1;
}

void Dispatcher::MarkFree(WorkProcess* wp) { wp->busy = false; }

void Dispatcher::RecordQueueWait(WpClass c, int64_t wait_us) {
  QueueStats& s = stats_[static_cast<size_t>(c)];
  s.total_wait_us += wait_us;
  // The histogram sees every dispatched step (zero waits included — the
  // distribution's mass at 0 is the unsaturated regime); the counter counts
  // steps that actually waited.
  h_wait_us_->Observe(wait_us);
  if (wait_us <= 0) return;
  s.waited_steps += 1;
  m_wait_count_->Add(1);
}

void Dispatcher::FinishAccounting(int64_t horizon_us) {
  for (size_t ci = 0; ci < kNumWpClasses; ++ci) {
    AdvanceDepthClock(static_cast<WpClass>(ci), horizon_us);
  }
}

}  // namespace dispatch
}  // namespace appsys
}  // namespace r3
