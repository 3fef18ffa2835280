#ifndef R3DB_RDBMS_STORAGE_BUFFER_POOL_H_
#define R3DB_RDBMS_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "rdbms/storage/disk.h"

namespace r3 {
namespace rdbms {

class BufferPool;

/// WAL-before-data hook. The transaction manager implements this; before the
/// pool writes a dirty frame whose latest change carries a WAL LSN, it calls
/// EnsureDurable(lsn) so the log reaches the device first. Declared here
/// (rather than pulling txn/ headers into storage/) to keep the layering
/// acyclic: storage knows only this one interface.
class WalHook {
 public:
  virtual ~WalHook() = default;
  virtual Status EnsureDurable(uint64_t lsn) = 0;
};

/// RAII pin on a buffered page. Unpins on destruction; call MarkDirty()
/// after modifying the frame.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame_idx, char* data);
  ~PageHandle();

  PageHandle(PageHandle&& o) noexcept;
  PageHandle& operator=(PageHandle&& o) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  char* data() { return data_; }
  const char* data() const { return data_; }
  bool valid() const { return pool_ != nullptr; }

  void MarkDirty();
  /// Explicit early unpin.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_idx_ = 0;
  char* data_ = nullptr;
};

/// I/O statistics (cumulative).
struct BufferPoolStats {
  uint64_t logical_reads = 0;   ///< FetchPage/ReadPageForScan calls
  uint64_t physical_reads = 0;  ///< misses that hit the Disk
  uint64_t sequential_reads = 0;
  uint64_t random_reads = 0;
  uint64_t page_writes = 0;

  double HitRatio() const {
    return logical_reads == 0
               ? 0.0
               : 1.0 - static_cast<double>(physical_reads) / logical_reads;
  }

  BufferPoolStats& operator+=(const BufferPoolStats& o) {
    logical_reads += o.logical_reads;
    physical_reads += o.physical_reads;
    sequential_reads += o.sequential_reads;
    random_reads += o.random_reads;
    page_writes += o.page_writes;
    return *this;
  }
};

/// Fixed-capacity LRU buffer pool over a Disk.
///
/// The paper's SAP installation gives the RDBMS only 10 MB of buffer by
/// default; the pool's byte capacity is a constructor parameter so benches
/// can reproduce that setting. Every physical transfer charges the shared
/// SimClock, classifying a read as sequential when it follows the previous
/// read of the same file by exactly one page.
///
/// Thread safety: the page table is partitioned into kNumShards shards
/// (hash(PageId) -> shard), each guarded by its own latch and carrying its
/// own stats counters (aggregated on read by stats()). The LRU list and
/// free list stay global under `lru_mu_` — a single replacement order keeps
/// serial eviction behaviour identical to the unsharded pool — and the
/// miss/eviction path is serialized by `evict_mu_`. Lock order: shard -> lru,
/// evict -> shard, evict -> lru; lru_mu_ is always innermost, so there is no
/// cycle.
///
/// Parallel table scans use ReadPageForScan(), which copies a resident frame
/// out under the shard latch (or reads the Disk into the caller's buffer on
/// a miss) without pinning, touching the LRU, or evicting — pool state is
/// untouched, so concurrent-scan hit/miss behaviour depends only on the pool
/// contents before the parallel region. That keeps simulated time
/// deterministic and models scan-resistant buffer management (large scans do
/// not flush the working set).
class BufferPool {
 public:
  static constexpr size_t kNumShards = 16;  // power of two

  /// `capacity_bytes` is rounded down to whole frames (>= 8 frames enforced).
  /// I/O counters are mirrored into `metrics` under `rdbms.bufferpool.*`
  /// (GlobalMetrics() when null); the counter pointers are resolved once
  /// here, so the hot paths never touch the registry.
  BufferPool(Disk* disk, SimClock* clock, size_t capacity_bytes,
             MetricsRegistry* metrics = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page in memory, reading it from disk on a miss. Thread-safe.
  Result<PageHandle> FetchPage(PageId id);

  /// Copies the page into `buf` (kPageSize bytes) without pinning or
  /// disturbing replacement state. Thread-safe; see class comment.
  Status ReadPageForScan(PageId id, char* buf);

  /// Allocates a fresh page in `file_id` and pins it (zeroed, dirty).
  Result<PageHandle> NewPage(uint32_t file_id, uint32_t* page_no);

  /// Writes back all dirty frames. Frames held by an active transaction
  /// (no-steal) are skipped — FlushAll doubles as the fuzzy-checkpoint
  /// writer, which must not persist uncommitted changes.
  Status FlushAll();

  /// Drops all frames (asserts nothing pinned); flushes dirty ones. Fails
  /// if any frame is still no-steal (an active transaction's page).
  Status Reset();

  /// Crash simulation: discards every frame *without* writing anything back,
  /// so the Disk keeps only what earlier evictions/flushes persisted. Fails
  /// if any page is pinned.
  Status DropAllNoFlush();

  /// Installs the WAL-before-data hook (null to detach).
  void set_wal_hook(WalHook* hook) { wal_hook_ = hook; }

  /// Tags the resident page `id` with the WAL LSN of the change just applied
  /// to it. `no_steal` pins the frame against eviction/flush until
  /// ClearNoSteal — set for pages dirtied by an active explicit transaction
  /// (redo-only logging is only correct if loser pages never reach disk).
  /// The page must be resident (it was just modified through a pin).
  Status MarkWalDirty(PageId id, uint64_t lsn, bool no_steal);

  /// Lifts the no-steal pin at transaction end (commit or rollback).
  void ClearNoSteal(PageId id);

  /// Smallest rec_lsn (LSN of the *first* change since the frame was last
  /// clean) over all dirty frames; 0 when none. The fuzzy checkpoint uses
  /// this as its redo-point bound.
  uint64_t MinDirtyRecLsn() const;

  /// Aggregates per-shard counters; a consistent snapshot only while no
  /// reads are in flight.
  BufferPoolStats stats() const;
  void ResetStats();

  size_t capacity_frames() const { return frames_.size(); }
  SimClock* clock() { return clock_; }
  Disk* disk() { return disk_; }

 private:
  friend class PageHandle;

  struct Frame {
    PageId id;
    std::unique_ptr<char[]> data;
    bool in_use = false;
    bool dirty = false;
    int pin_count = 0;
    std::list<size_t>::iterator lru_it;  // valid iff pin_count == 0 && in_use
    bool in_lru = false;
    // WAL state, guarded by the frame's shard mutex like `dirty`:
    uint64_t wal_lsn = 0;   // latest logged change (flush log up to here)
    uint64_t rec_lsn = 0;   // first logged change since last clean
    bool no_steal = false;  // dirtied by an active txn; not evictable
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<PageId, size_t, PageIdHash> page_table;
    BufferPoolStats stats;
  };

  Shard& ShardOf(PageId id) { return shards_[PageIdHash{}(id) % kNumShards]; }

  void Unpin(size_t frame_idx, bool dirty);
  /// Caller must hold evict_mu_.
  Result<size_t> GetVictimFrame();
  /// Classifies a physical read against the active lane's (or the shared)
  /// read stream, charges the clock (and emits an "io" trace event when a
  /// tracer is attached and no lane is active), and returns true when
  /// sequential.
  bool ChargeRead(PageId id);

  Disk* disk_;
  SimClock* clock_;
  WalHook* wal_hook_ = nullptr;
  // Registry mirrors of the shard stats (cached pointers; see constructor).
  Counter* m_logical_reads_;
  Counter* m_physical_reads_;
  Counter* m_sequential_reads_;
  Counter* m_random_reads_;
  Counter* m_page_writes_;
  // The physical-read stalls, booked under their wait class (DESIGN.md §12).
  Counter* m_wait_io_;
  Histogram* h_wait_io_us_;
  std::vector<Frame> frames_;
  Shard shards_[kNumShards];
  std::mutex lru_mu_;      // guards lru_ + free_frames_ + Frame lru links
  std::mutex evict_mu_;    // serializes the miss/eviction path
  std::mutex stream_mu_;   // guards last_read_page_ (serial read stream)
  std::list<size_t> lru_;  // front = least recently used
  std::vector<size_t> free_frames_;
  std::unordered_map<uint32_t, uint32_t> last_read_page_;  // file -> page_no
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_STORAGE_BUFFER_POOL_H_
