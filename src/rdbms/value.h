#ifndef R3DB_RDBMS_VALUE_H_
#define R3DB_RDBMS_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace r3 {
namespace rdbms {

/// Column/value types supported by the engine.
///
/// kDecimal is a fixed-point type with scale 2 (hundredths), stored as a
/// scaled int64 — TPC-D money and quantity columns. Arithmetic involving
/// decimals is carried out in double precision by the evaluator; storage and
/// comparisons are exact.
enum class DataType : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kDouble = 2,
  kDecimal = 3,
  kString = 4,
  kDate = 5,  ///< day number, see common/date.h
};

/// Returns "BOOL", "INT", "DOUBLE", "DECIMAL", "STRING", or "DATE".
const char* DataTypeName(DataType t);

/// True for kInt64/kDouble/kDecimal.
bool IsNumeric(DataType t);

/// A dynamically typed SQL value (possibly NULL).
class Value {
 public:
  /// Default: NULL of type kInt64 (callers usually overwrite).
  Value() = default;

  static Value Null(DataType t = DataType::kInt64) {
    Value v;
    v.type_ = t;
    v.null_ = true;
    return v;
  }
  static Value Bool(bool b) { return MakeInt(DataType::kBool, b ? 1 : 0); }
  static Value Int(int64_t i) { return MakeInt(DataType::kInt64, i); }
  static Value Dbl(double d) {
    Value v;
    v.type_ = DataType::kDouble;
    v.null_ = false;
    v.d_ = d;
    return v;
  }
  /// From scaled hundredths: DecimalFromCents(12345) == 123.45.
  static Value DecimalFromCents(int64_t cents) {
    return MakeInt(DataType::kDecimal, cents);
  }
  /// From a double, rounding to hundredths.
  static Value Decimal(double d);
  static Value Str(std::string s) {
    Value v;
    v.type_ = DataType::kString;
    v.null_ = false;
    v.s_ = std::move(s);
    return v;
  }
  static Value Date(int32_t day_number) {
    return MakeInt(DataType::kDate, day_number);
  }

  /// In-place setters for decode loops: each overwrites the whole value
  /// like the matching factory, but keeps the string buffer's capacity, so
  /// a reused row slot refills without allocating.
  void SetNull(DataType t) {
    type_ = t;
    null_ = true;
    i_ = 0;
    d_ = 0.0;
    s_.clear();
  }
  void SetInt(DataType t, int64_t i) {
    type_ = t;
    null_ = false;
    i_ = i;
    d_ = 0.0;
    s_.clear();
  }
  void SetDbl(double d) {
    type_ = DataType::kDouble;
    null_ = false;
    i_ = 0;
    d_ = d;
    s_.clear();
  }
  void SetStr(std::string_view s) {
    type_ = DataType::kString;
    null_ = false;
    i_ = 0;
    d_ = 0.0;
    s_.assign(s.data(), s.size());
  }

  DataType type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_value() const { return i_ != 0; }
  int64_t int_value() const { return i_; }
  double double_value() const { return d_; }
  int64_t decimal_cents() const { return i_; }
  const std::string& string_value() const { return s_; }
  int32_t date_value() const { return static_cast<int32_t>(i_); }

  /// Numeric view of any numeric (or date) value, as a double.
  /// Decimals are unscaled: Decimal(1.25).AsDouble() == 1.25.
  double AsDouble() const;

  /// Numeric view as int64 (decimals truncate toward zero).
  int64_t AsInt() const;

  /// Three-way comparison. NULLs sort first (before all non-NULL values);
  /// this is the *sorting* comparison — SQL predicate comparison with NULL
  /// is handled by the evaluator. Numeric types cross-compare; strings and
  /// dates only compare with their own kind.
  /// Returns <0, 0, >0. Mixed incomparable kinds compare by type id.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }

  /// Hash usable for hash joins / aggregation; equal values hash equal.
  size_t Hash() const;

  /// Display rendering (dates as YYYY-MM-DD, decimals with two digits,
  /// NULL as "NULL").
  std::string ToString() const;

  /// Casts to `target`, e.g. string->int for key coding, int->decimal.
  Result<Value> CastTo(DataType target) const;

 private:
  static Value MakeInt(DataType t, int64_t i) {
    Value v;
    v.type_ = t;
    v.null_ = false;
    v.i_ = i;
    return v;
  }

  DataType type_ = DataType::kInt64;
  bool null_ = true;
  int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_VALUE_H_
