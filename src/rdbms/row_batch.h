#ifndef R3DB_RDBMS_ROW_BATCH_H_
#define R3DB_RDBMS_ROW_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "rdbms/row.h"

namespace r3 {
namespace rdbms {

/// Default number of rows exchanged per operator call (DatabaseOptions can
/// override; 1 reproduces the legacy row-at-a-time pipeline shape).
inline constexpr size_t kDefaultBatchRows = 1024;

/// Indices of batch rows surviving a predicate, ascending.
using SelVector = std::vector<uint32_t>;

/// A batch of rows exchanged between operators.
///
/// The container owns a pool of Row slots that is never shrunk: clearing or
/// resetting a batch keeps every slot's Value storage, so a slot reused
/// across batches re-fills without re-allocating (this is where most of the
/// batch pipeline's wall-clock win over row-at-a-time comes from, next to
/// amortized virtual dispatch).
///
/// `capacity` is a fill limit, not a storage bound: producers append at most
/// `capacity()` rows per fill. Operators honour the *caller's* capacity so
/// early-exit consumers (LIMIT, EXISTS, scalar subqueries) pull exactly the
/// rows the row-at-a-time engine would have pulled — the simulated-cost
/// identity argument in DESIGN.md §6 depends on this.
class RowBatch {
 public:
  RowBatch() = default;
  explicit RowBatch(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  /// Empties the batch and sets a new fill limit; slot storage is kept.
  void Reset(size_t capacity) {
    capacity_ = capacity;
    size_ = 0;
  }

  /// Empties the batch; capacity and slot storage are kept.
  void Clear() { size_ = 0; }

  /// Appends a slot and returns it for in-place filling. The slot is not
  /// cleared: it still holds whatever row used it last, possibly of another
  /// width or table, so the caller overwrites every position
  /// (DecodeIntoWide, or assigning a whole row) and the slot's Value
  /// storage is reused instead of destroyed and rebuilt. The returned
  /// reference is invalidated by the next Append/Push call.
  Row& AppendRow() {
    if (slots_.size() <= size_) slots_.emplace_back();
    return slots_[size_++];
  }

  /// Appends by move (the slot's previous storage is dropped).
  void PushRow(Row&& row) {
    if (slots_.size() <= size_) slots_.emplace_back();
    slots_[size_++] = std::move(row);
  }

  /// Drops the most recently appended row (its slot storage is kept).
  void PopRow() { --size_; }

  Row& row(size_t i) { return slots_[i]; }
  const Row& row(size_t i) const { return slots_[i]; }

  void Truncate(size_t n) {
    if (n < size_) size_ = n;
  }

  /// Compacts the tail [first, size) down to the rows selected by `sel`
  /// (absolute ascending indices >= first); rows before `first` are kept.
  /// Swaps slots instead of copying so dropped slots keep their storage.
  void Keep(const SelVector& sel, size_t first = 0) {
    size_t w = first;
    for (uint32_t idx : sel) {
      if (idx != w) slots_[w].swap(slots_[idx]);
      ++w;
    }
    size_ = w;
  }

 private:
  std::vector<Row> slots_;
  size_t size_ = 0;
  size_t capacity_ = kDefaultBatchRows;
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_ROW_BATCH_H_
