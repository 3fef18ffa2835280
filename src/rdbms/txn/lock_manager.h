#ifndef R3DB_RDBMS_TXN_LOCK_MANAGER_H_
#define R3DB_RDBMS_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace r3 {
namespace rdbms {
namespace txn {

/// Multi-granularity lock modes. The hierarchy is three levels deep: the
/// root resource (database) takes intention modes, tables take intention or
/// S/X modes, rows take S/X.
enum class LockMode : uint8_t { kIS, kIX, kS, kX };

const char* LockModeName(LockMode mode);

/// True when two modes may be held on the same resource by different txns.
bool LockCompatible(LockMode a, LockMode b);

/// Interned lock resource key: {table, row}. Replaces the old string key so
/// the hot path (one row X lock per DML row) never builds a std::string.
///
/// `table_id` is the heap file id + 1 (0 names the database root);
/// `row` is the packed RID, or kWholeTable for a table-level lock.
struct LockKey {
  static constexpr uint64_t kWholeTable = ~0ull;

  uint32_t table_id = 0;
  uint64_t row = kWholeTable;

  static LockKey Root() { return LockKey{0, kWholeTable}; }
  static LockKey Table(uint32_t file_id) {
    return LockKey{file_id + 1, kWholeTable};
  }
  static LockKey Row(uint32_t file_id, uint64_t packed_rid) {
    return LockKey{file_id + 1, packed_rid};
  }

  bool operator==(const LockKey& o) const {
    return table_id == o.table_id && row == o.row;
  }

  struct Hash {
    size_t operator()(const LockKey& k) const {
      uint64_t h = (static_cast<uint64_t>(k.table_id) << 32) ^ k.row;
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  std::string DebugString() const;
};

/// Hierarchical lock manager (thread-safe, blocking) with row-granularity
/// X locks and waits-for-graph deadlock detection.
///
/// Grants are mode-compatible sets per resource; an incompatible request
/// records a waits-for edge to each conflicting holder and blocks on a
/// condition variable. Before sleeping (and after every wake) the requester
/// runs cycle detection over the waits-for graph: if its wait closes a
/// cycle, the youngest transaction in the cycle (highest txn id) is chosen
/// as victim — deterministically, since every cycle member is parked and
/// the graph cannot change under the manager's mutex. The victim's pending
/// and future Acquires return Status::Aborted (code kAborted) until its
/// locks are released, at which point the caller is expected to roll back.
class LockManager {
 public:
  /// Blocked Acquires count under `rdbms.wait.lock_wait`, deadlock victims
  /// under `rdbms.wait.deadlock_abort`. Counts only: a lock wait's duration
  /// is wall time, which would break determinism, so the manager never
  /// reads the simulated clock.
  explicit LockManager(MetricsRegistry* metrics = nullptr);

  /// Blocks until granted (or upgraded). Re-acquiring an already-covering
  /// mode is a no-op. Returns kAborted when this transaction was chosen as
  /// a deadlock victim (caller must roll back, which calls ReleaseAll).
  Status Acquire(uint64_t txn_id, LockKey key, LockMode mode);

  /// Releases every lock held by `txn_id`, clears its victim mark and
  /// waits-for edges, and wakes waiters.
  void ReleaseAll(uint64_t txn_id);

  /// Number of resources on which `txn_id` holds a lock (for tests).
  size_t HeldCount(uint64_t txn_id) const;

 private:
  struct Holder {
    uint64_t txn_id;
    LockMode mode;
  };
  struct Resource {
    std::vector<Holder> holders;
  };

  /// True when `mode` may be granted to `txn_id` given current holders;
  /// ignores the txn's own entry (upgrade path).
  bool Grantable(const Resource& res, uint64_t txn_id, LockMode mode) const;

  /// Records waits-for edges from `txn_id` to the conflicting holders of
  /// `res`, then checks for a cycle through `txn_id`. When one exists,
  /// marks the youngest member as victim and returns its id (0 = no cycle).
  uint64_t DetectDeadlockLocked(const Resource& res, uint64_t txn_id,
                                LockMode mode);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<LockKey, Resource, LockKey::Hash> resources_;
  /// txn -> set of txns it currently waits for (edges live only while the
  /// requester is parked in Acquire).
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> waits_for_;
  std::unordered_set<uint64_t> victims_;

  Counter* m_lock_waits_;       ///< Acquires that had to block
  Counter* m_deadlock_aborts_;  ///< victims chosen
  Counter* m_wait_lock_;        ///< wait-class mirror of m_lock_waits_
  Counter* m_wait_deadlock_;    ///< wait-class mirror of m_deadlock_aborts_
  Histogram* h_wait_us_;        ///< blocked-acquire wall time
};

/// Deterministic virtual-time model of the lock protocol for the throughput
/// bench: statements in the discrete-event simulation execute atomically
/// against the real engine, and this schedule decides *when* each one could
/// have started had the streams truly interleaved — an S request waits for
/// the last conflicting X to end, an X request for every earlier holder.
/// No threads, no timing jitter: byte-identical output across runs.
///
/// Keys are strings (table names, or "table#rid" for the row-granularity
/// model) — this is bench bookkeeping, not the engine hot path.
class LockSchedule {
 public:
  /// Earliest virtual time >= `t` at which `mode` on `resource` can start.
  int64_t GrantStart(const std::string& resource, LockMode mode,
                     int64_t t) const;

  /// Records that a granted lock was held until virtual time `end`.
  void Record(const std::string& resource, LockMode mode, int64_t end);

 private:
  struct Tail {
    int64_t last_x_end = 0;    ///< latest end of any X holder
    int64_t last_any_end = 0;  ///< latest end of any holder (S or X)
  };
  std::unordered_map<std::string, Tail> tails_;
};

}  // namespace txn
}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_TXN_LOCK_MANAGER_H_
