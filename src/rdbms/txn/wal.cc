#include "rdbms/txn/wal.h"

#include "common/trace.h"

namespace r3 {
namespace rdbms {
namespace txn {

Wal::Wal(SimClock* clock, MetricsRegistry* metrics) : clock_(clock) {
  if (metrics == nullptr) metrics = GlobalMetrics();
  m_appends_ = metrics->GetCounter("rdbms.wal.appends");
  m_flushes_ = metrics->GetCounter("rdbms.wal.flushes");
  m_flushed_bytes_ = metrics->GetCounter("rdbms.wal.flushed_bytes");
  m_flush_pages_ = metrics->GetCounter("rdbms.wal.flush_pages");
  m_wait_flush_ = metrics->GetCounter("rdbms.wait.wal_flush");
  h_wait_flush_us_ = metrics->GetHistogram("rdbms.wait.wal_flush_us");
}

uint64_t Wal::Append(LogRecord rec) {
  rec.lsn = next_lsn_++;
  pending_bytes_ += rec.ApproxBytes();
  log_.push_back(std::move(rec));
  m_appends_->Add(1);
  return next_lsn_ - 1;
}

Status Wal::Flush() {
  if (crashed_) return Status::IoError("wal: log device lost (crashed)");
  if (next_lsn_ - 1 <= flushed_lsn_) return Status::OK();  // nothing pending
  ++flush_attempts_;
  if (crash_at_flush_ > 0 && flush_attempts_ == crash_at_flush_) {
    // The process image dies before the write hits the log device: nothing
    // appended since the previous flush becomes durable.
    crashed_ = true;
    return Status::IoError("wal: injected crash at flush point " +
                           std::to_string(crash_at_flush_));
  }
  int64_t pages =
      static_cast<int64_t>((pending_bytes_ + kPageSize - 1) / kPageSize);
  if (pages < 1) pages = 1;
  int64_t cost_us = pages * clock_->model().page_write_us;
  clock_->Charge(cost_us);
  m_wait_flush_->Add(1);
  h_wait_flush_us_->Observe(cost_us);
  if (Tracer* tracer = clock_->tracer()) {
    tracer->Complete("wal", "flush", clock_->NowMicros() - cost_us, cost_us);
  }
  m_flushes_->Add(1);
  m_flushed_bytes_->Add(static_cast<int64_t>(pending_bytes_));
  m_flush_pages_->Add(pages);
  flushed_lsn_ = next_lsn_ - 1;
  pending_bytes_ = 0;
  return Status::OK();
}

Status Wal::EnsureDurable(uint64_t lsn) {
  if (lsn <= flushed_lsn_) return Status::OK();
  return Flush();
}

void Wal::DropUnflushed() {
  while (!log_.empty() && log_.back().lsn > flushed_lsn_) log_.pop_back();
  next_lsn_ = flushed_lsn_ + 1;
  pending_bytes_ = 0;
  crashed_ = false;
  crash_at_flush_ = 0;
}

void Wal::TruncateBefore(uint64_t lsn) {
  size_t keep_from = 0;
  while (keep_from < log_.size() && log_[keep_from].lsn < lsn) ++keep_from;
  if (keep_from > 0) log_.erase(log_.begin(), log_.begin() + keep_from);
}

void Wal::set_crash_at_flush(int64_t k) {
  crash_at_flush_ = k == 0 ? 0 : flush_attempts_ + k;
}

}  // namespace txn
}  // namespace rdbms
}  // namespace r3
