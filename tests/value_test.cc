// Unit tests for the Value type: construction, comparison (incl. NULL and
// cross-numeric ordering), hashing consistency, rendering, and casts.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/date.h"
#include "rdbms/value.h"

namespace r3 {
namespace rdbms {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
}

TEST(ValueTest, Constructors) {
  EXPECT_EQ(Value::Int(5).int_value(), 5);
  EXPECT_DOUBLE_EQ(Value::Dbl(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::Str("x").string_value(), "x");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Date(100).date_value(), 100);
  EXPECT_EQ(Value::DecimalFromCents(1234).decimal_cents(), 1234);
  EXPECT_FALSE(Value::Int(0).is_null());
}

TEST(ValueTest, DecimalRounding) {
  EXPECT_EQ(Value::Decimal(1.006).decimal_cents(), 101);  // rounds to cents
  EXPECT_EQ(Value::Decimal(-2.50).decimal_cents(), -250);
  EXPECT_DOUBLE_EQ(Value::Decimal(123.45).AsDouble(), 123.45);
}

TEST(ValueTest, AsDoubleAndAsInt) {
  EXPECT_DOUBLE_EQ(Value::Int(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value::DecimalFromCents(150).AsDouble(), 1.5);
  EXPECT_EQ(Value::Dbl(3.9).AsInt(), 3);
  EXPECT_EQ(Value::DecimalFromCents(199).AsInt(), 1);
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null(DataType::kString)), 0);
  EXPECT_GT(Value::Str("").Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCrossComparison) {
  EXPECT_EQ(Value::Int(5).Compare(Value::Dbl(5.0)), 0);
  EXPECT_EQ(Value::Int(5).Compare(Value::DecimalFromCents(500)), 0);
  EXPECT_LT(Value::DecimalFromCents(499).Compare(Value::Int(5)), 0);
  EXPECT_GT(Value::Dbl(5.01).Compare(Value::DecimalFromCents(500)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::Str("abc").Compare(Value::Str("abd")), 0);
  EXPECT_LT(Value::Str("ab").Compare(Value::Str("abc")), 0);
  EXPECT_EQ(Value::Str("x").Compare(Value::Str("x")), 0);
}

TEST(ValueTest, DateComparison) {
  EXPECT_LT(Value::Date(10).Compare(Value::Date(11)), 0);
  EXPECT_EQ(Value::Date(10), Value::Date(10));
}

TEST(ValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Dbl(5.0).Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::DecimalFromCents(500).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::DecimalFromCents(105).ToString(), "1.05");
  EXPECT_EQ(Value::DecimalFromCents(-5).ToString(), "-0.05");
  EXPECT_EQ(Value::DecimalFromCents(-105).ToString(), "-1.05");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Date(date::FromYmd(1995, 6, 17)).ToString(), "1995-06-17");
}

TEST(ValueTest, CastNumericFamilies) {
  auto as_int = Value::Dbl(3.7).CastTo(DataType::kInt64);
  ASSERT_TRUE(as_int.ok());
  EXPECT_EQ(as_int.value().int_value(), 3);

  auto as_dec = Value::Int(5).CastTo(DataType::kDecimal);
  ASSERT_TRUE(as_dec.ok());
  EXPECT_EQ(as_dec.value().decimal_cents(), 500);

  auto as_dbl = Value::DecimalFromCents(150).CastTo(DataType::kDouble);
  ASSERT_TRUE(as_dbl.ok());
  EXPECT_DOUBLE_EQ(as_dbl.value().double_value(), 1.5);
}

TEST(ValueTest, CastFromStrings) {
  EXPECT_EQ(Value::Str(" 42 ").CastTo(DataType::kInt64).value().int_value(), 42);
  EXPECT_DOUBLE_EQ(
      Value::Str("2.5").CastTo(DataType::kDouble).value().double_value(), 2.5);
  EXPECT_EQ(
      Value::Str("1.25").CastTo(DataType::kDecimal).value().decimal_cents(),
      125);
  EXPECT_EQ(Value::Str("1995-06-17").CastTo(DataType::kDate).value().date_value(),
            date::FromYmd(1995, 6, 17));
  EXPECT_FALSE(Value::Str("abc").CastTo(DataType::kInt64).ok());
  EXPECT_FALSE(Value::Str("1.2.3").CastTo(DataType::kDouble).ok());
}

TEST(ValueTest, CastOfOutOfRangeDoubleIsRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {1e300, -1e300, 9.3e18, -9.3e18, inf, -inf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    auto i = Value::Dbl(d).CastTo(DataType::kInt64);
    ASSERT_FALSE(i.ok()) << d << " -> " << i.value().ToString();
    EXPECT_EQ(i.status().code(), StatusCode::kInvalidArgument) << d;
    auto c = Value::Dbl(d).CastTo(DataType::kDecimal);
    ASSERT_FALSE(c.ok()) << d << " -> " << c.value().ToString();
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument) << d;
  }
  // Fits as an integer, but not once scaled to cents.
  EXPECT_FALSE(Value::Dbl(1e17).CastTo(DataType::kDecimal).ok());
  EXPECT_FALSE(Value::Str("1e300").CastTo(DataType::kDecimal).ok());
  EXPECT_FALSE(
      Value::Int(INT64_MAX).CastTo(DataType::kDecimal).ok());
  // The edges of the range still convert.
  EXPECT_EQ(Value::Dbl(-9223372036854775808.0)
                .CastTo(DataType::kInt64)
                .value()
                .int_value(),
            INT64_MIN);
  EXPECT_EQ(Value::Dbl(-3.7).CastTo(DataType::kInt64).value().int_value(), -3);
  EXPECT_EQ(
      Value::Dbl(1e15).CastTo(DataType::kDecimal).value().decimal_cents(),
      100000000000000000);
  // The unchecked views saturate instead of overflowing.
  EXPECT_EQ(Value::Dbl(1e300).AsInt(), INT64_MAX);
  EXPECT_EQ(Value::Dbl(-inf).AsInt(), INT64_MIN);
  EXPECT_EQ(Value::Dbl(std::numeric_limits<double>::quiet_NaN()).AsInt(), 0);
  EXPECT_EQ(Value::Decimal(1e300).decimal_cents(), INT64_MAX);
}

TEST(ValueTest, CastToString) {
  EXPECT_EQ(Value::Int(7).CastTo(DataType::kString).value().string_value(), "7");
}

TEST(ValueTest, CastPreservesNull) {
  auto v = Value::Null(DataType::kInt64).CastTo(DataType::kString);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().is_null());
  EXPECT_EQ(v.value().type(), DataType::kString);
}

TEST(ValueTest, IsNumericClassifier) {
  EXPECT_TRUE(IsNumeric(DataType::kInt64));
  EXPECT_TRUE(IsNumeric(DataType::kDouble));
  EXPECT_TRUE(IsNumeric(DataType::kDecimal));
  EXPECT_FALSE(IsNumeric(DataType::kString));
  EXPECT_FALSE(IsNumeric(DataType::kDate));
  EXPECT_FALSE(IsNumeric(DataType::kBool));
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(DataTypeName(DataType::kDecimal), "DECIMAL");
  EXPECT_STREQ(DataTypeName(DataType::kDate), "DATE");
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
