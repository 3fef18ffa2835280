#include "rdbms/storage/buffer_pool.h"

#include <cassert>
#include <cstring>
#include <mutex>

#include "common/str_util.h"
#include "common/trace.h"

namespace r3 {
namespace rdbms {

PageHandle::PageHandle(BufferPool* pool, size_t frame_idx, char* data)
    : pool_(pool), frame_idx_(frame_idx), data_(data) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& o) noexcept
    : pool_(o.pool_), frame_idx_(o.frame_idx_), data_(o.data_) {
  o.pool_ = nullptr;
  o.data_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_idx_ = o.frame_idx_;
    data_ = o.data_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  if (pool_ == nullptr) return;
  // The frame's id is stable while we hold a pin.
  BufferPool::Frame& f = pool_->frames_[frame_idx_];
  std::lock_guard<std::mutex> lk(pool_->ShardOf(f.id).mu);
  f.dirty = true;
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_idx_, /*dirty=*/false);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(Disk* disk, SimClock* clock, size_t capacity_bytes,
                       MetricsRegistry* metrics)
    : disk_(disk), clock_(clock) {
  if (metrics == nullptr) metrics = GlobalMetrics();
  m_logical_reads_ = metrics->GetCounter("rdbms.bufferpool.logical_reads");
  m_physical_reads_ = metrics->GetCounter("rdbms.bufferpool.physical_reads");
  m_sequential_reads_ =
      metrics->GetCounter("rdbms.bufferpool.sequential_reads");
  m_random_reads_ = metrics->GetCounter("rdbms.bufferpool.random_reads");
  m_page_writes_ = metrics->GetCounter("rdbms.bufferpool.page_writes");
  m_wait_io_ = metrics->GetCounter("rdbms.wait.buffer_pool_io");
  h_wait_io_us_ = metrics->GetHistogram("rdbms.wait.buffer_pool_io_us");
  size_t n = capacity_bytes / kPageSize;
  if (n < 8) n = 8;
  frames_.resize(n);
  free_frames_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    frames_[i].data = std::make_unique<char[]>(kPageSize);
    free_frames_.push_back(n - 1 - i);  // pop_back yields frame 0 first
  }
}

bool BufferPool::ChargeRead(PageId id) {
  // Workers classify against their lane's private read stream; the serial
  // path uses the pool-wide stream under stream_mu_. Either way, back-to-back
  // page_no values within one stream count as sequential I/O.
  std::unordered_map<uint32_t, uint32_t>* stream;
  std::unique_lock<std::mutex> lk;
  if (SimClock::Lane* lane = SimClock::active_lane()) {
    stream = &lane->last_read_page;
  } else {
    lk = std::unique_lock<std::mutex>(stream_mu_);
    stream = &last_read_page_;
  }
  auto it = stream->find(id.file_id);
  bool sequential = it != stream->end() && id.page_no == it->second + 1;
  (*stream)[id.file_id] = id.page_no;
  int64_t cost_us = sequential ? clock_->model().seq_page_read_us
                               : clock_->model().random_page_read_us;
  clock_->Charge(cost_us);
  m_wait_io_->Add(1);
  h_wait_io_us_->Observe(cost_us);
  if (Tracer* t = clock_->tracer()) {
    // Lane-active calls are dropped inside Complete(); the coordinator's
    // Gather span already carries the workers' merged critical path.
    t->Complete("io", sequential ? "page_read.seq" : "page_read.rand",
                clock_->NowMicros() - cost_us, cost_us);
  }
  return sequential;
}

Result<size_t> BufferPool::GetVictimFrame() {
  {
    std::lock_guard<std::mutex> lk(lru_mu_);
    if (!free_frames_.empty()) {
      size_t idx = free_frames_.back();
      free_frames_.pop_back();
      return idx;
    }
  }
  // No-steal frames popped while hunting for a victim go back to the LRU
  // front (original relative order) once the hunt is over.
  std::vector<size_t> skipped;
  auto reinsert_skipped = [&] {
    for (size_t i = skipped.size(); i-- > 0;) {
      Frame& sf = frames_[skipped[i]];
      std::lock_guard<std::mutex> shard_lk(ShardOf(sf.id).mu);
      std::lock_guard<std::mutex> lru_lk(lru_mu_);
      // A concurrent fetch may have pinned it meanwhile; Unpin re-lists it.
      if (sf.in_use && sf.pin_count == 0 && !sf.in_lru) {
        lru_.push_front(skipped[i]);
        sf.lru_it = lru_.begin();
        sf.in_lru = true;
      }
    }
  };
  Result<size_t> result = Status::Internal("victim search did not conclude");
  bool decided = false;
  while (!decided) {
    size_t idx;
    {
      std::lock_guard<std::mutex> lk(lru_mu_);
      if (lru_.empty()) {
        result = Status::Internal(
            "buffer pool exhausted: all frames pinned or held by active "
            "transactions");
        break;
      }
      idx = lru_.front();
      lru_.pop_front();
      frames_[idx].in_lru = false;
    }
    Frame& f = frames_[idx];
    Shard& vs = ShardOf(f.id);
    std::lock_guard<std::mutex> lk(vs.mu);
    // A concurrent FetchPage may have re-pinned the frame between the LRU
    // pop and here; it will be pushed back on unpin, so just skip it.
    if (f.pin_count > 0) continue;
    if (f.no_steal) {
      skipped.push_back(idx);
      continue;
    }
    if (f.dirty) {
      Status st;
      if (wal_hook_ != nullptr && f.wal_lsn != 0) {
        st = wal_hook_->EnsureDurable(f.wal_lsn);
      }
      if (st.ok()) st = disk_->WritePage(f.id, f.data.get());
      if (!st.ok()) {
        // Put the frame back (still dirty, still resident) and fail the
        // fetch: with the log device gone nothing may reach the disk.
        std::lock_guard<std::mutex> lru_lk(lru_mu_);
        lru_.push_front(idx);
        f.lru_it = lru_.begin();
        f.in_lru = true;
        result = st;
        break;
      }
      ++vs.stats.page_writes;
      m_page_writes_->Add(1);
      clock_->ChargePageWrite();
      if (Tracer* t = clock_->tracer()) {
        int64_t cost_us = clock_->model().page_write_us;
        t->Complete("io", "page_write", clock_->NowMicros() - cost_us,
                    cost_us);
      }
      f.dirty = false;
    }
    f.wal_lsn = 0;
    f.rec_lsn = 0;
    vs.page_table.erase(f.id);
    f.in_use = false;
    result = idx;
    decided = true;
  }
  // Reinserted outside any shard lock (a skipped frame may share the
  // victim's shard; shard mutexes are not recursive).
  reinsert_skipped();
  return result;
}

Result<PageHandle> BufferPool::FetchPage(PageId id) {
  Shard& s = ShardOf(id);
  m_logical_reads_->Add(1);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    ++s.stats.logical_reads;
    auto it = s.page_table.find(id);
    if (it != s.page_table.end()) {
      size_t idx = it->second;
      Frame& f = frames_[idx];
      {
        std::lock_guard<std::mutex> lru_lk(lru_mu_);
        if (f.in_lru) {
          lru_.erase(f.lru_it);
          f.in_lru = false;
        }
      }
      ++f.pin_count;
      return PageHandle(this, idx, f.data.get());
    }
  }
  // Miss: the load/eviction path runs one thread at a time.
  std::lock_guard<std::mutex> ev(evict_mu_);
  {
    // Another thread may have loaded the page while we waited.
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.page_table.find(id);
    if (it != s.page_table.end()) {
      size_t idx = it->second;
      Frame& f = frames_[idx];
      {
        std::lock_guard<std::mutex> lru_lk(lru_mu_);
        if (f.in_lru) {
          lru_.erase(f.lru_it);
          f.in_lru = false;
        }
      }
      ++f.pin_count;
      return PageHandle(this, idx, f.data.get());
    }
  }
  R3_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  Frame& f = frames_[idx];
  R3_RETURN_IF_ERROR(disk_->ReadPage(id, f.data.get()));
  bool sequential = ChargeRead(id);
  f.id = id;
  f.in_use = true;
  f.dirty = false;
  f.pin_count = 1;
  m_physical_reads_->Add(1);
  (sequential ? m_sequential_reads_ : m_random_reads_)->Add(1);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    ++s.stats.physical_reads;
    if (sequential) {
      ++s.stats.sequential_reads;
    } else {
      ++s.stats.random_reads;
    }
    s.page_table[id] = idx;
  }
  return PageHandle(this, idx, f.data.get());
}

Status BufferPool::ReadPageForScan(PageId id, char* buf) {
  Shard& s = ShardOf(id);
  m_logical_reads_->Add(1);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    ++s.stats.logical_reads;
    auto it = s.page_table.find(id);
    if (it != s.page_table.end()) {
      std::memcpy(buf, frames_[it->second].data.get(), kPageSize);
      return Status::OK();
    }
  }
  // Miss: read straight from disk into the caller's buffer. No frame is
  // allocated and nothing is evicted, so replacement state (and therefore
  // every other reader's hit/miss outcome) is unaffected.
  R3_RETURN_IF_ERROR(disk_->ReadPage(id, buf));
  bool sequential = ChargeRead(id);
  m_physical_reads_->Add(1);
  (sequential ? m_sequential_reads_ : m_random_reads_)->Add(1);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    ++s.stats.physical_reads;
    if (sequential) {
      ++s.stats.sequential_reads;
    } else {
      ++s.stats.random_reads;
    }
  }
  return Status::OK();
}

Result<PageHandle> BufferPool::NewPage(uint32_t file_id, uint32_t* page_no) {
  std::lock_guard<std::mutex> ev(evict_mu_);
  R3_ASSIGN_OR_RETURN(uint32_t pn, disk_->AllocatePage(file_id));
  *page_no = pn;
  R3_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  Frame& f = frames_[idx];
  std::memset(f.data.get(), 0, kPageSize);
  f.id = PageId{file_id, pn};
  f.in_use = true;
  f.dirty = true;
  f.pin_count = 1;
  Shard& s = ShardOf(f.id);
  std::lock_guard<std::mutex> lk(s.mu);
  s.page_table[f.id] = idx;
  return PageHandle(this, idx, f.data.get());
}

void BufferPool::Unpin(size_t frame_idx, bool dirty) {
  Frame& f = frames_[frame_idx];
  // f.id is stable while pinned, so this resolves the right shard.
  Shard& s = ShardOf(f.id);
  std::lock_guard<std::mutex> lk(s.mu);
  assert(f.pin_count > 0);
  if (dirty) f.dirty = true;
  if (--f.pin_count == 0) {
    std::lock_guard<std::mutex> lru_lk(lru_mu_);
    lru_.push_back(frame_idx);
    f.lru_it = std::prev(lru_.end());
    f.in_lru = true;
  }
}

Status BufferPool::FlushAll() {
  // Runs in serial context only (no concurrent workers).
  std::lock_guard<std::mutex> ev(evict_mu_);
  for (Frame& f : frames_) {
    if (f.in_use && f.dirty) {
      if (f.no_steal) continue;  // an active txn's page; see header comment
      if (wal_hook_ != nullptr && f.wal_lsn != 0) {
        R3_RETURN_IF_ERROR(wal_hook_->EnsureDurable(f.wal_lsn));
      }
      R3_RETURN_IF_ERROR(disk_->WritePage(f.id, f.data.get()));
      {
        std::lock_guard<std::mutex> lk(ShardOf(f.id).mu);
        ++ShardOf(f.id).stats.page_writes;
      }
      m_page_writes_->Add(1);
      clock_->ChargePageWrite();
      f.dirty = false;
      f.wal_lsn = 0;
      f.rec_lsn = 0;
    }
  }
  return Status::OK();
}

Status BufferPool::Reset() {
  R3_RETURN_IF_ERROR(FlushAll());
  std::lock_guard<std::mutex> ev(evict_mu_);
  for (Frame& f : frames_) {
    if (f.pin_count > 0) {
      return Status::Internal("Reset with pinned pages");
    }
    if (f.in_use && f.no_steal) {
      return Status::Internal("Reset with an active transaction's pages");
    }
  }
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.page_table.clear();
  }
  std::lock_guard<std::mutex> lru_lk(lru_mu_);
  lru_.clear();
  free_frames_.clear();
  for (size_t i = 0; i < frames_.size(); ++i) {
    frames_[i].in_use = false;
    frames_[i].in_lru = false;
    frames_[i].dirty = false;
    frames_[i].wal_lsn = 0;
    frames_[i].rec_lsn = 0;
    frames_[i].no_steal = false;
    free_frames_.push_back(frames_.size() - 1 - i);
  }
  std::lock_guard<std::mutex> stream_lk(stream_mu_);
  last_read_page_.clear();
  return Status::OK();
}

Status BufferPool::DropAllNoFlush() {
  // Serial context only: the "crash" happens with no statements in flight.
  std::lock_guard<std::mutex> ev(evict_mu_);
  for (Frame& f : frames_) {
    if (f.pin_count > 0) {
      return Status::Internal("DropAllNoFlush with pinned pages");
    }
  }
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.page_table.clear();
  }
  std::lock_guard<std::mutex> lru_lk(lru_mu_);
  lru_.clear();
  free_frames_.clear();
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    f.in_use = false;
    f.in_lru = false;
    f.dirty = false;
    f.wal_lsn = 0;
    f.rec_lsn = 0;
    f.no_steal = false;
    free_frames_.push_back(frames_.size() - 1 - i);
  }
  std::lock_guard<std::mutex> stream_lk(stream_mu_);
  last_read_page_.clear();
  return Status::OK();
}

Status BufferPool::MarkWalDirty(PageId id, uint64_t lsn, bool no_steal) {
  Shard& s = ShardOf(id);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.page_table.find(id);
  if (it == s.page_table.end()) {
    return Status::Internal(
        str::Format("MarkWalDirty: page %u:%u not resident", id.file_id,
                    id.page_no));
  }
  Frame& f = frames_[it->second];
  f.dirty = true;
  f.wal_lsn = lsn;
  if (f.rec_lsn == 0) f.rec_lsn = lsn;
  if (no_steal) f.no_steal = true;
  return Status::OK();
}

void BufferPool::ClearNoSteal(PageId id) {
  Shard& s = ShardOf(id);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.page_table.find(id);
  if (it == s.page_table.end()) return;
  frames_[it->second].no_steal = false;
}

uint64_t BufferPool::MinDirtyRecLsn() const {
  // Serial context only (checkpoint path); reads frame fields unlatched the
  // same way FlushAll does.
  uint64_t min_lsn = 0;
  for (const Frame& f : frames_) {
    if (f.in_use && f.dirty && f.rec_lsn != 0) {
      if (min_lsn == 0 || f.rec_lsn < min_lsn) min_lsn = f.rec_lsn;
    }
  }
  return min_lsn;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    total += s.stats;
  }
  return total;
}

void BufferPool::ResetStats() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.stats = BufferPoolStats();
  }
}

}  // namespace rdbms
}  // namespace r3
