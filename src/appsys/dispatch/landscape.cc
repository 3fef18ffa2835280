#include "appsys/dispatch/landscape.h"

#include <algorithm>
#include <utility>

#include "common/fnv.h"
#include "common/sim_clock.h"
#include "common/str_util.h"

namespace r3 {
namespace appsys {
namespace dispatch {

namespace {

// Exact nearest-rank percentile over a sorted sample (q in (0, 100]).
int64_t Percentile(const std::vector<int64_t>& sorted, int q) {
  if (sorted.empty()) return 0;
  size_t rank = (sorted.size() * static_cast<size_t>(q) + 99) / 100;  // ceil
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

// FNV-1a over the outcome stream: a compact determinism witness that covers
// every per-request decision without dumping thousands of outcomes into the
// bench document.
uint64_t DigestOutcomes(const std::vector<RequestOutcome>& outcomes) {
  Fnv1a h;
  for (const RequestOutcome& o : outcomes) {
    h.AddU64(static_cast<uint64_t>(o.arrival_us));
    h.AddU64(static_cast<uint64_t>(o.dispatch_us));
    h.AddU64(static_cast<uint64_t>(o.service_us));
    h.AddU64(static_cast<uint64_t>(o.rows));
    h.AddU64((static_cast<uint64_t>(static_cast<uint32_t>(o.instance)) << 32) |
             static_cast<uint32_t>(o.wp));
    h.AddU64((static_cast<uint64_t>(o.wp_class) << 2) |
             (static_cast<uint64_t>(o.rejected) << 1) |
             static_cast<uint64_t>(o.ok));
  }
  return h.value();
}

}  // namespace

/// One entry on the discrete-event heap. Completions sort before arrivals at
/// the same instant so a freed work process can pick up a simultaneous
/// arrival instead of the arrival being queued past an idle process.
struct SystemLandscape::Event {
  int64_t t_us = 0;
  int kind = 0;  ///< 0 = completion, 1 = arrival
  int64_t seq = 0;
  int inst = -1;          ///< completion: which instance
  WorkProcess* wp = nullptr;  ///< completion: which work process
  PlannedRequest req;     ///< arrival payload

  // Min-heap via std::*_heap with this as the "greater" comparator.
  struct After {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t_us != b.t_us) return a.t_us > b.t_us;
      if (a.kind != b.kind) return a.kind > b.kind;
      return a.seq > b.seq;
    }
  };
};

SystemLandscape::SystemLandscape(rdbms::Database* db, DataDictionary* dict,
                                 LandscapeOptions options)
    : db_(db), dict_(dict), options_(std::move(options)) {
  sessions_ =
      std::make_unique<rdbms::SessionPool>(db_, options_.max_sessions);
}

Status SystemLandscape::Start() {
  if (options_.num_instances < 1) {
    return Status::InvalidArgument("landscape needs at least one instance");
  }
  for (int i = 0; i < options_.num_instances; ++i) {
    InstanceOptions opts = options_.instance;
    opts.name = str::Format("%s%02d", opts.name.c_str(), i + 1);
    auto inst = std::make_unique<AppServerInstance>(db_, dict_,
                                                    sessions_.get(), opts);
    R3_RETURN_IF_ERROR(inst->Start());
    instances_.push_back(std::move(inst));
  }
  return Status::OK();
}

int SystemLandscape::Route(const std::string& client, int32_t user) const {
  auto it = options_.logon_groups.find(client);
  if (it == options_.logon_groups.end() || it->second.empty()) {
    return static_cast<int>(static_cast<uint32_t>(user) %
                            instances_.size());
  }
  const std::vector<int>& group = it->second;
  return group[static_cast<uint32_t>(user) % group.size()];
}

void SystemLandscape::StartExecution(int inst_idx, WorkProcess* wp,
                                     PlannedRequest req, int64_t now_us,
                                     const ScriptRunner& runner,
                                     std::vector<Event>* heap,
                                     RunResult* result, Status* error) {
  AppServerInstance* inst = instances_[inst_idx].get();
  Dispatcher* disp = inst->dispatcher();
  const int64_t wait_us = now_us - req.arrival_us;
  disp->RecordQueueWait(req.wp_class, wait_us);

  WorkloadMonitor* mon = inst->monitor();
  mon->BeginStep(req.script.tcode);
  // Queue wait happened on the virtual timeline, not the shared SimClock —
  // book it into ST03 so response time decomposes as the paper's monitor
  // shows it: wait + load + DB + processing.
  mon->AddDispatchWait(wait_us);

  SimTimer timer(*inst->clock());
  inst->EnsureProgramLoaded(req.script.tcode);
  ScriptResult res;
  Status st = runner(inst, wp, req, &res);
  if (!st.ok()) {
    mon->EndStep();
    *error = st;
    return;
  }
  const int64_t service_us = timer.ElapsedUs();
  mon->EndStep();

  const int64_t done_us = now_us + service_us;
  disp->MarkBusy(wp, now_us, done_us);

  RequestOutcome o;
  o.arrival_us = req.arrival_us;
  o.dispatch_us = now_us;
  o.wait_us = wait_us;
  o.service_us = service_us;
  o.rows = res.rows;
  o.instance = inst_idx;
  o.wp = wp->id;
  o.wp_class = req.wp_class;
  o.ok = res.ok;
  result->outcomes.push_back(o);
  result->completed += 1;
  if (!res.ok) result->script_errors += 1;
  result->makespan_us = std::max(result->makespan_us, done_us);

  Event completion;
  completion.t_us = done_us;
  completion.kind = 0;
  completion.seq = next_seq_++;
  completion.inst = inst_idx;
  completion.wp = wp;
  heap->push_back(std::move(completion));
  std::push_heap(heap->begin(), heap->end(), Event::After());

  if (res.followup.has_value()) {
    Event arrival;
    arrival.t_us = done_us;
    arrival.kind = 1;
    arrival.seq = next_seq_++;
    arrival.req = std::move(*res.followup);
    arrival.req.arrival_us = done_us;
    arrival.req.seq = arrival.seq;
    result->offered += 1;
    heap->push_back(std::move(arrival));
    std::push_heap(heap->begin(), heap->end(), Event::After());
  }
}

Result<SystemLandscape::RunResult> SystemLandscape::Run(
    std::vector<PlannedRequest> requests, const ScriptRunner& runner) {
  if (instances_.empty()) {
    return Status::InvalidArgument("landscape not started");
  }
  RunResult result;
  result.offered = static_cast<int64_t>(requests.size());

  next_seq_ = 0;
  std::vector<Event> heap;
  heap.reserve(requests.size() + 16);
  for (PlannedRequest& r : requests) {
    next_seq_ = std::max(next_seq_, r.seq + 1);
    Event e;
    e.t_us = r.arrival_us;
    e.kind = 1;
    e.seq = r.seq;
    e.req = std::move(r);
    heap.push_back(std::move(e));
  }
  std::make_heap(heap.begin(), heap.end(), Event::After());

  Status error = Status::OK();
  while (!heap.empty() && error.ok()) {
    std::pop_heap(heap.begin(), heap.end(), Event::After());
    Event ev = std::move(heap.back());
    heap.pop_back();

    if (ev.kind == 0) {  // completion: free the WP, pull from its queue
      Dispatcher* disp = instances_[ev.inst]->dispatcher();
      disp->MarkFree(ev.wp);
      std::optional<PlannedRequest> next =
          disp->PopQueued(ev.wp->wp_class, ev.t_us);
      if (next.has_value()) {
        StartExecution(ev.inst, ev.wp, std::move(*next), ev.t_us, runner,
                       &heap, &result, &error);
      }
      continue;
    }

    // Arrival: route, dispatch to a free WP, else queue (or reject).
    const int inst_idx = Route(ev.req.client, ev.req.user);
    Dispatcher* disp = instances_[inst_idx]->dispatcher();
    disp->OnArrival();
    if (WorkProcess* wp = disp->FindFreeWp(ev.req.wp_class)) {
      StartExecution(inst_idx, wp, std::move(ev.req), ev.t_us, runner, &heap,
                     &result, &error);
      continue;
    }
    const int64_t arrival_us = ev.req.arrival_us;
    const WpClass wp_class = ev.req.wp_class;
    if (!disp->Enqueue(std::move(ev.req), ev.t_us)) {
      RequestOutcome o;
      o.arrival_us = arrival_us;
      o.dispatch_us = arrival_us;
      o.instance = inst_idx;
      o.wp_class = wp_class;
      o.rejected = true;
      o.ok = false;
      result.outcomes.push_back(o);
      result.rejected += 1;
    }
  }
  R3_RETURN_IF_ERROR(error);

  // -- Close the books and aggregate. -----------------------------------------
  for (auto& inst : instances_) {
    inst->dispatcher()->FinishAccounting(result.makespan_us);
  }

  std::vector<int64_t> dialog_responses;
  int64_t dialog_sum = 0;
  for (const RequestOutcome& o : result.outcomes) {
    if (o.rejected || o.wp_class != WpClass::kDialog) continue;
    dialog_responses.push_back(o.response_us());
    dialog_sum += o.response_us();
    result.dialog_max_us = std::max(result.dialog_max_us, o.response_us());
  }
  std::sort(dialog_responses.begin(), dialog_responses.end());
  result.dialog_steps = static_cast<int64_t>(dialog_responses.size());
  result.dialog_p50_us = Percentile(dialog_responses, 50);
  result.dialog_p95_us = Percentile(dialog_responses, 95);
  result.dialog_p99_us = Percentile(dialog_responses, 99);
  if (result.dialog_steps > 0) {
    result.dialog_mean_us = dialog_sum / result.dialog_steps;
  }

  for (size_t ci = 0; ci < kNumWpClasses; ++ci) {
    ClassStats& cs = result.per_class[ci];
    int64_t depth_integral = 0;
    for (auto& inst : instances_) {
      const Dispatcher::QueueStats& qs =
          inst->dispatcher()->queue_stats(static_cast<WpClass>(ci));
      cs.rejected += qs.rejected;
      cs.queued += qs.queued_total;
      cs.total_wait_us += qs.total_wait_us;
      cs.peak_queue_depth = std::max(cs.peak_queue_depth, qs.peak_depth);
      depth_integral += qs.depth_integral_us;
      for (const WorkProcess& wp : inst->dispatcher()->wps()) {
        if (wp.wp_class != static_cast<WpClass>(ci)) continue;
        cs.wps += 1;
        cs.busy_us += wp.busy_us;
        cs.completed += wp.steps;
      }
    }
    if (result.makespan_us > 0) {
      cs.mean_queue_depth =
          static_cast<double>(depth_integral) /
          static_cast<double>(result.makespan_us);
      if (cs.wps > 0) {
        cs.utilization =
            static_cast<double>(cs.busy_us) /
            (static_cast<double>(cs.wps) *
             static_cast<double>(result.makespan_us));
      }
    }
  }
  return result;
}

json::Value SystemLandscape::RunResult::ToJson() const {
  json::Value doc = json::Value::Object();
  doc.Set("offered", json::Value::Int(offered));
  doc.Set("completed", json::Value::Int(completed));
  doc.Set("rejected", json::Value::Int(rejected));
  doc.Set("script_errors", json::Value::Int(script_errors));
  doc.Set("makespan_us", json::Value::Int(makespan_us));

  json::Value dialog = json::Value::Object();
  dialog.Set("steps", json::Value::Int(dialog_steps));
  dialog.Set("p50_us", json::Value::Int(dialog_p50_us));
  dialog.Set("p95_us", json::Value::Int(dialog_p95_us));
  dialog.Set("p99_us", json::Value::Int(dialog_p99_us));
  dialog.Set("mean_us", json::Value::Int(dialog_mean_us));
  dialog.Set("max_us", json::Value::Int(dialog_max_us));
  doc.Set("dialog", std::move(dialog));

  json::Value classes = json::Value::Object();
  for (size_t ci = 0; ci < kNumWpClasses; ++ci) {
    const ClassStats& cs = per_class[ci];
    json::Value c = json::Value::Object();
    c.Set("wps", json::Value::Int(cs.wps));
    c.Set("completed", json::Value::Int(cs.completed));
    c.Set("rejected", json::Value::Int(cs.rejected));
    c.Set("queued", json::Value::Int(cs.queued));
    c.Set("busy_us", json::Value::Int(cs.busy_us));
    c.Set("total_wait_us", json::Value::Int(cs.total_wait_us));
    c.Set("peak_queue_depth", json::Value::Int(cs.peak_queue_depth));
    // Fixed-point so the rendered document is bit-stable across libm builds.
    c.Set("mean_queue_depth_milli",
          json::Value::Int(static_cast<int64_t>(cs.mean_queue_depth * 1000)));
    c.Set("utilization_pct_milli",
          json::Value::Int(static_cast<int64_t>(cs.utilization * 100000)));
    classes.Set(WpClassName(static_cast<WpClass>(ci)), std::move(c));
  }
  doc.Set("classes", std::move(classes));
  doc.Set("outcomes_digest",
          json::Value::Str(str::Format("%016llx",
                                       static_cast<unsigned long long>(
                                           DigestOutcomes(outcomes)))));
  return doc;
}

void SystemLandscape::CombineTraces(SqlTrace* out) const {
  for (const auto& inst : instances_) {
    for (const WorkProcess& wp : inst->dispatcher()->wps()) {
      if (wp.trace != nullptr) out->Combine(*wp.trace);
    }
  }
}

json::Value SystemLandscape::St03Json() const {
  json::Value arr = json::Value::Array();
  for (const auto& inst : instances_) {
    json::Value entry = json::Value::Object();
    entry.Set("instance", json::Value::Str(inst->name()));
    entry.Set("st03", inst->monitor()->ToJson());
    arr.Append(std::move(entry));
  }
  return arr;
}

}  // namespace dispatch
}  // namespace appsys
}  // namespace r3
