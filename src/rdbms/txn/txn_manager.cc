#include "rdbms/txn/txn_manager.h"

#include <string>

#include "common/trace.h"
#include "rdbms/storage/page.h"

namespace r3 {
namespace rdbms {
namespace txn {

TxnManager::TxnManager(BufferPool* pool, SimClock* clock,
                       MetricsRegistry* metrics)
    : pool_(pool),
      clock_(clock),
      metrics_(metrics == nullptr ? GlobalMetrics() : metrics),
      locks_(metrics_),
      mvcc_(metrics_) {
  m_begins_ = metrics_->GetCounter("rdbms.txn.begins");
  m_commits_ = metrics_->GetCounter("rdbms.txn.commits");
  m_rollbacks_ = metrics_->GetCounter("rdbms.txn.rollbacks");
  m_checkpoints_ = metrics_->GetCounter("rdbms.txn.checkpoints");
}

Status TxnManager::EnableWal() {
  if (wal_enabled()) return Status::OK();
  if (in_txn()) {
    return Status::InvalidArgument("EnableWal inside a transaction");
  }
  // Everything loaded so far becomes the durable baseline image; the log
  // only ever describes changes after this point.
  R3_RETURN_IF_ERROR(pool_->FlushAll());
  wal_ = std::make_unique<Wal>(clock_, metrics_);
  pool_->set_wal_hook(this);
  // Version tracking rides on the WAL switch: both mark the transition from
  // "fixture loading" to "transactional operation".
  mvcc_.set_enabled(true);
  return Checkpoint();
}

Result<uint64_t> TxnManager::Begin() {
  if (in_txn()) {
    return Status::InvalidArgument("transaction already active");
  }
  active_txn_ = next_txn_id_++;
  mvcc_.BeginTxn(active_txn_);
  if (wal_enabled()) {
    LogRecord rec;
    rec.txn_id = active_txn_;
    rec.type = LogType::kBegin;
    active_begin_lsn_ = wal_->Append(std::move(rec));
  }
  m_begins_->Add(1);
  return active_txn_;
}

Status TxnManager::Commit() {
  if (!in_txn()) return Status::InvalidArgument("no active transaction");
  TraceSpan span(clock_, "txn", "commit");
  span.ArgInt("txn_id", static_cast<int64_t>(active_txn_));
  if (wal_enabled()) {
    LogRecord rec;
    rec.txn_id = active_txn_;
    rec.type = LogType::kCommit;
    wal_->Append(std::move(rec));
    // Force: the commit is durable before control returns. Everything
    // pending rides along (group commit).
    R3_RETURN_IF_ERROR(wal_->Flush());
  }
  for (const PageId& pid : txn_pages_) pool_->ClearNoSteal(pid);
  txn_pages_.clear();
  mvcc_.CommitTxn(active_txn_);
  locks_.ReleaseAll(active_txn_);
  active_txn_ = 0;
  active_begin_lsn_ = 0;
  m_commits_->Add(1);
  return Status::OK();
}

Status TxnManager::FinishRollback() {
  if (!in_txn()) return Status::InvalidArgument("no active transaction");
  if (wal_enabled() && !wal_->crashed()) {
    LogRecord rec;
    rec.txn_id = active_txn_;
    rec.type = LogType::kAbort;
    wal_->Append(std::move(rec));
    // Not forced: recovery discards this txn with or without the marker.
  }
  for (const PageId& pid : txn_pages_) pool_->ClearNoSteal(pid);
  txn_pages_.clear();
  // The Database already restored the heap images; revert the version map
  // to match.
  mvcc_.AbortTxn(active_txn_);
  locks_.ReleaseAll(active_txn_);
  active_txn_ = 0;
  active_begin_lsn_ = 0;
  m_rollbacks_->Add(1);
  return Status::OK();
}

Status TxnManager::LogHeapOp(LogType type, uint32_t file_id, Rid rid,
                             std::string_view payload) {
  if (!wal_enabled()) return Status::OK();
  LogRecord rec;
  rec.txn_id = active_txn_;  // 0 = autocommit
  rec.type = type;
  rec.file_id = file_id;
  rec.rid = rid;
  rec.payload.assign(payload.data(), payload.size());
  uint64_t lsn = wal_->Append(std::move(rec));
  // Stamp the page so redo is idempotent; the page is resident (the caller
  // just modified it through a pin).
  PageId pid{file_id, rid.page_no};
  R3_ASSIGN_OR_RETURN(PageHandle h, pool_->FetchPage(pid));
  SlottedPage(h.data()).set_lsn(lsn);
  h.MarkDirty();
  bool no_steal = in_txn();
  R3_RETURN_IF_ERROR(pool_->MarkWalDirty(pid, lsn, no_steal));
  if (no_steal) txn_pages_.insert(pid);
  return Status::OK();
}

Status TxnManager::Checkpoint() {
  if (!wal_enabled()) {
    return Status::InvalidArgument("checkpoint requires WAL");
  }
  // Fuzzy: flush what is flushable (skips active-txn pages), then record
  // where redo must start — the oldest change still only in memory, or the
  // oldest active transaction, whichever is earlier.
  R3_RETURN_IF_ERROR(pool_->FlushAll());
  uint64_t redo_lsn = wal_->next_lsn();
  uint64_t min_dirty = pool_->MinDirtyRecLsn();
  if (min_dirty != 0 && min_dirty < redo_lsn) redo_lsn = min_dirty;
  if (in_txn() && active_begin_lsn_ != 0 && active_begin_lsn_ < redo_lsn) {
    redo_lsn = active_begin_lsn_;
  }
  LogRecord rec;
  rec.type = LogType::kCheckpoint;
  rec.checkpoint_redo_lsn = redo_lsn;
  wal_->Append(std::move(rec));
  R3_RETURN_IF_ERROR(wal_->Flush());
  wal_->TruncateBefore(redo_lsn);
  m_checkpoints_->Add(1);
  return Status::OK();
}

void TxnManager::ResetAfterCrash() {
  if (active_txn_ != 0) locks_.ReleaseAll(active_txn_);
  active_txn_ = 0;
  active_begin_lsn_ = 0;
  txn_pages_.clear();
  // Recovery rebuilds only committed state, visible to every snapshot; any
  // version chains describe heap images that no longer exist.
  mvcc_.Reset();
}

uint64_t TxnManager::AllocWriteId() {
  if (in_txn()) return active_txn_;
  if (!mvcc_.enabled()) return 0;
  return next_txn_id_++;
}

void TxnManager::FinishAutocommitWrite(uint64_t write_id, bool committed) {
  if (write_id == 0 || write_id == active_txn_) return;
  if (committed) {
    mvcc_.CommitTxn(write_id);
  } else {
    mvcc_.AbortTxn(write_id);
  }
}

Status TxnManager::EnsureDurable(uint64_t lsn) {
  if (!wal_enabled()) return Status::OK();
  return wal_->EnsureDurable(lsn);
}

}  // namespace txn
}  // namespace rdbms
}  // namespace r3
