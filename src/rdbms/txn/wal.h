#ifndef R3DB_RDBMS_TXN_WAL_H_
#define R3DB_RDBMS_TXN_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "rdbms/storage/disk.h"
#include "rdbms/storage/page.h"

namespace r3 {
namespace rdbms {
namespace txn {

/// Record types of the redo-only log. There are no CLRs: the buffer pool's
/// no-steal policy guarantees a loser's pages never reach disk, so recovery
/// simply discards records of transactions without a commit (DESIGN.md §8).
enum class LogType : uint8_t {
  kBegin,
  kCommit,
  kAbort,
  kHeapInsert,  ///< payload = record image, applied at exactly `rid`
  kHeapDelete,  ///< no payload
  kHeapUpdate,  ///< payload = after-image, in-place at `rid`
  kCheckpoint,  ///< `checkpoint_redo_lsn` = where redo must start
};

/// One physiological log record: page-addressed (file + rid), logical
/// within the page (slot-level op, not a byte diff).
struct LogRecord {
  uint64_t lsn = 0;  ///< assigned by Wal::Append
  uint64_t txn_id = 0;  ///< 0 = autocommit (implicitly committed when logged)
  LogType type = LogType::kBegin;
  uint32_t file_id = 0;
  Rid rid;
  std::string payload;
  uint64_t checkpoint_redo_lsn = 0;

  /// Serialized footprint used for group-flush I/O accounting.
  size_t ApproxBytes() const { return 32 + payload.size(); }
};

/// Redo-only write-ahead log with group flush.
///
/// Append() is cheap (an in-memory enqueue); durability happens at Flush(),
/// which makes every appended record durable at once and charges the
/// simulated clock one page write per started 8 KiB of accumulated log —
/// the group-commit batching that lets many small transactions share one
/// I/O. Records past flushed_lsn() are lost by a crash (DropUnflushed).
///
/// Fault injection: set_crash_at_flush(k) makes the k-th non-empty Flush()
/// fail with kIoError and latches the log in a crashed state (every later
/// append/flush fails too), simulating the process image dying at that
/// flush boundary. DropUnflushed() — the crash itself — clears the latch.
class Wal {
 public:
  Wal(SimClock* clock, MetricsRegistry* metrics = nullptr);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Enqueues a record, assigning and returning its LSN.
  uint64_t Append(LogRecord rec);

  /// Makes all appended records durable; no-op when none are pending.
  Status Flush();

  /// Flushes iff `lsn` is not yet durable (the WAL-before-data hook).
  Status EnsureDurable(uint64_t lsn);

  /// Crash: loses the unflushed tail and clears the injected-crash latch.
  void DropUnflushed();

  /// Checkpoint truncation: drops records with lsn < `lsn`.
  void TruncateBefore(uint64_t lsn);

  /// All retained records in LSN order (recovery scans this after
  /// DropUnflushed has removed the non-durable tail).
  const std::vector<LogRecord>& records() const { return log_; }

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t flushed_lsn() const { return flushed_lsn_; }
  bool crashed() const { return crashed_; }

  /// 0 disables injection; k >= 1 crashes the k-th non-empty flush
  /// (counted from the next call).
  void set_crash_at_flush(int64_t k);
  /// Non-empty flushes performed (or attempted) so far.
  int64_t flush_attempts() const { return flush_attempts_; }

 private:
  SimClock* clock_;
  Counter* m_appends_;
  Counter* m_flushes_;
  Counter* m_flushed_bytes_;
  Counter* m_flush_pages_;
  // The log-force stall, booked under its wait class (DESIGN.md §12).
  Counter* m_wait_flush_;
  Histogram* h_wait_flush_us_;
  std::vector<LogRecord> log_;
  uint64_t next_lsn_ = 1;
  uint64_t flushed_lsn_ = 0;
  size_t pending_bytes_ = 0;
  int64_t crash_at_flush_ = 0;
  int64_t flush_attempts_ = 0;
  bool crashed_ = false;
};

}  // namespace txn
}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_TXN_WAL_H_
