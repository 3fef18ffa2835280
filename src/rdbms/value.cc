#include "rdbms/value.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <functional>

#include "common/date.h"
#include "common/str_util.h"

namespace r3 {
namespace rdbms {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kDecimal:
      return "DECIMAL";
    case DataType::kString:
      return "STRING";
    case DataType::kDate:
      return "DATE";
  }
  return "?";
}

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kDecimal;
}

namespace {

/// True when `d` converts to int64 without overflow; false for NaN and ±inf.
bool FitsInt64(double d) {
  return d >= -9223372036854775808.0 && d < 9223372036854775808.0;
}

/// `d` truncated toward zero, saturated to the int64 range (NaN -> 0), so
/// the conversion is defined for every double.
int64_t SaturatingInt64(double d) {
  if (FitsInt64(d)) return static_cast<int64_t>(d);
  if (std::isnan(d)) return 0;
  return d < 0 ? INT64_MIN : INT64_MAX;
}

/// `d` (the numeric reading of `from`) rounded once to cents as a DECIMAL,
/// or InvalidArgument when the cents leave int64, NaN and ±inf included.
Result<Value> CheckedDecimal(double d, const Value& from) {
  const double cents = std::round(d * 100.0);
  if (!FitsInt64(cents)) {
    return Status::InvalidArgument("value " + from.ToString() +
                                   " out of range for DECIMAL");
  }
  return Value::DecimalFromCents(static_cast<int64_t>(cents));
}

}  // namespace

Value Value::Decimal(double d) {
  const double cents = std::round(d * 100.0);
  return DecimalFromCents(SaturatingInt64(cents));
}

double Value::AsDouble() const {
  switch (type_) {
    case DataType::kDouble:
      return d_;
    case DataType::kDecimal:
      return static_cast<double>(i_) / 100.0;
    default:
      return static_cast<double>(i_);
  }
}

int64_t Value::AsInt() const {
  switch (type_) {
    case DataType::kDouble:
      return SaturatingInt64(d_);
    case DataType::kDecimal:
      return i_ / 100;
    default:
      return i_;
  }
}

int Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  // Numeric cross-comparison (int/decimal/double). Bool and date compare
  // only with themselves via the integer path below.
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == other.type_ && type_ != DataType::kDouble) {
      return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case DataType::kString: {
      int c = s_.compare(other.s_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
  }
}

size_t Value::Hash() const {
  if (null_) return 0x9e3779b9u;
  switch (type_) {
    case DataType::kString:
      return std::hash<std::string>()(s_);
    case DataType::kDouble: {
      // Hash the numeric value so 1.0 (double) == 1 (int) hash-match in
      // mixed-type joins after binder casts; doubles that are integral hash
      // as their integer value.
      double d = d_;
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case DataType::kDecimal: {
      if (i_ % 100 == 0) return std::hash<int64_t>()(i_ / 100);
      return std::hash<double>()(AsDouble());
    }
    default:
      return std::hash<int64_t>()(i_);
  }
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case DataType::kBool:
      return i_ ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(i_);
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", d_);
      return buf;
    }
    case DataType::kDecimal: {
      char buf[40];
      int64_t whole = i_ / 100;
      int64_t frac = i_ % 100;
      if (frac < 0) frac = -frac;
      if (i_ < 0 && whole == 0) {
        std::snprintf(buf, sizeof(buf), "-0.%02lld", static_cast<long long>(frac));
      } else {
        std::snprintf(buf, sizeof(buf), "%lld.%02lld", static_cast<long long>(whole),
                      static_cast<long long>(frac));
      }
      return buf;
    }
    case DataType::kString:
      return s_;
    case DataType::kDate:
      return date::ToString(static_cast<int32_t>(i_));
  }
  return "?";
}

Result<Value> Value::CastTo(DataType target) const {
  if (null_) return Null(target);
  if (target == type_) return *this;
  switch (target) {
    case DataType::kInt64:
      switch (type_) {
        case DataType::kDouble:
          if (!FitsInt64(d_)) {
            return Status::InvalidArgument("value " + ToString() +
                                           " out of range for INT");
          }
          [[fallthrough]];
        case DataType::kDecimal:
        case DataType::kBool:
        case DataType::kDate:
          return Int(AsInt());
        case DataType::kString: {
          std::string t = str::Trim(s_);
          char* end = nullptr;
          errno = 0;
          long long v = std::strtoll(t.c_str(), &end, 10);
          if (end == t.c_str() || (end != nullptr && *end != '\0') ||
              errno == ERANGE) {
            return Status::InvalidArgument("cannot cast '" + s_ + "' to INT");
          }
          return Int(v);
        }
        default:
          break;
      }
      break;
    case DataType::kDouble:
      if (IsNumeric(type_) || type_ == DataType::kBool) return Dbl(AsDouble());
      if (type_ == DataType::kString) {
        std::string t = str::Trim(s_);
        char* end = nullptr;
        double d = std::strtod(t.c_str(), &end);
        if (end == t.c_str() || (end != nullptr && *end != '\0')) {
          return Status::InvalidArgument("cannot cast '" + s_ + "' to DOUBLE");
        }
        return Dbl(d);
      }
      break;
    case DataType::kDecimal:
      if (IsNumeric(type_)) return CheckedDecimal(AsDouble(), *this);
      if (type_ == DataType::kString) {
        std::string t = str::Trim(s_);
        char* end = nullptr;
        double d = std::strtod(t.c_str(), &end);
        if (end == t.c_str() || (end != nullptr && *end != '\0')) {
          return Status::InvalidArgument("cannot cast '" + s_ +
                                         "' to DECIMAL");
        }
        return CheckedDecimal(d, *this);
      }
      break;
    case DataType::kString:
      return Str(ToString());
    case DataType::kDate:
      if (type_ == DataType::kString) {
        R3_ASSIGN_OR_RETURN(int32_t dn, date::Parse(str::RTrim(s_)));
        return Date(dn);
      }
      if (type_ == DataType::kInt64) return Date(static_cast<int32_t>(i_));
      break;
    case DataType::kBool:
      if (IsNumeric(type_)) return Bool(AsDouble() != 0.0);
      break;
  }
  return Status::InvalidArgument(std::string("unsupported cast ") +
                                 DataTypeName(type_) + " -> " +
                                 DataTypeName(target));
}

}  // namespace rdbms
}  // namespace r3
