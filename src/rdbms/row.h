#ifndef R3DB_RDBMS_ROW_H_
#define R3DB_RDBMS_ROW_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdbms/schema.h"
#include "rdbms/value.h"

namespace r3 {
namespace rdbms {

/// A materialized tuple.
using Row = std::vector<Value>;

/// Serializes `row` according to `schema` and appends to `*out`.
///
/// Wire format per column: 1 null byte, then (if non-null) the column's
/// fixed-width payload, or u16 length + bytes for VARCHAR. CHAR(n) columns
/// are blank-padded to exactly n bytes (and trimmed on read) — this is what
/// makes SAP's CHAR(16)-coded keys physically ~4x larger than the original
/// TPC-D 4-byte integer keys.
Status SerializeRow(const Schema& schema, const Row& row, std::string* out);

/// Which of a table's columns a decode materialises: empty means every
/// column, otherwise one entry per column, indexed by local column id.
using ColumnMask = std::vector<bool>;

/// Decodes the serialized row `data` of a table with `schema` straight into
/// the wide row `*wide`, the single decode routine of the engine. `*wide` is
/// resized to `wide_width`; the table's columns land at
/// [offset, offset + NumColumns()). Only the columns in `needed` are
/// materialised; unneeded columns and every position outside the table's
/// range become NULL. Every column is still walked and bounds-checked, so a
/// truncated record or one with trailing bytes fails whichever columns are
/// needed. Values are set in place, so a recycled slot — even one that held
/// another table's row — refills without allocating.
Status DecodeIntoWide(const Schema& schema, std::string_view data,
                      const ColumnMask& needed, size_t offset,
                      size_t wide_width, Row* wide);

/// Parses a serialized row. `data` must be exactly one row.
Status DeserializeRow(const Schema& schema, std::string_view data, Row* row);

/// Serialized size without building the string.
size_t SerializedRowSize(const Schema& schema, const Row& row);

/// Renders a row as "(a, b, c)" for tests and debugging.
std::string RowToString(const Row& row);

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_ROW_H_
