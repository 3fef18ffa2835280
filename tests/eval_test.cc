// Expression-evaluator tests: SQL three-valued logic, NULL propagation,
// arithmetic typing (incl. date arithmetic), CASE, functions, and the
// expression-tree helpers.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/date.h"
#include "rdbms/expr/eval.h"
#include "rdbms/sql/parser.h"

namespace r3 {
namespace rdbms {
namespace {

/// Parses `sql_expr` as "SELECT <expr> FROM t" and evaluates it against an
/// empty context (constant expressions only).
Value EvalConst(const std::string& sql_expr) {
  auto sel = ParseSelect("SELECT " + sql_expr + " FROM t");
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  EvalContext ctx;
  Value out;
  Status st = EvalExpr(*sel.value()->items[0].expr, ctx, &out);
  EXPECT_TRUE(st.ok()) << sql_expr << ": " << st.ToString();
  return out;
}

TEST(EvalTest, Arithmetic) {
  EXPECT_EQ(EvalConst("1 + 2 * 3").int_value(), 7);
  EXPECT_EQ(EvalConst("(1 + 2) * 3").int_value(), 9);
  EXPECT_DOUBLE_EQ(EvalConst("7 / 2").AsDouble(), 3.5);  // '/' -> double
  EXPECT_EQ(EvalConst("-(3 + 4)").int_value(), -7);
  EXPECT_DOUBLE_EQ(EvalConst("1.5 + 1").AsDouble(), 2.5);
}

TEST(EvalTest, DivisionByZeroIsError) {
  auto sel = ParseSelect("SELECT 1 / 0 FROM t");
  ASSERT_TRUE(sel.ok());
  EvalContext ctx;
  Value out;
  EXPECT_FALSE(EvalExpr(*sel.value()->items[0].expr, ctx, &out).ok());
}

TEST(EvalTest, DateArithmetic) {
  Value v = EvalConst("DATE '1998-12-01' - 90");
  EXPECT_EQ(v.type(), DataType::kDate);
  EXPECT_EQ(date::ToString(v.date_value()), "1998-09-02");
  EXPECT_EQ(EvalConst("DATE '1995-01-10' - DATE '1995-01-01'").int_value(), 9);
}

TEST(EvalTest, IntegerOverflowIsAnError) {
  auto lit = [](int64_t v) { return MakeLiteral(Value::Int(v)); };
  auto eval = [](const ExprPtr& e, Value* out) {
    EvalContext ctx;
    return EvalExpr(*e, ctx, out);
  };
  Value out;
  for (const ExprPtr& e :
       {MakeArith(ArithOp::kAdd, lit(INT64_MAX), lit(1)),
        MakeArith(ArithOp::kSub, lit(INT64_MIN), lit(1)),
        MakeArith(ArithOp::kMul, lit(INT64_MAX), lit(2)),
        MakeArith(ArithOp::kMul, lit(INT64_MIN), lit(-1)),
        MakeNeg(lit(INT64_MIN)),
        MakeNeg(MakeLiteral(Value::DecimalFromCents(INT64_MIN))),
        MakeArith(ArithOp::kAdd, MakeLiteral(Value::Date(0)), lit(INT64_MAX)),
        MakeArith(ArithOp::kSub, MakeLiteral(Value::Date(0)), lit(INT64_MIN)),
        // Fits int64 but not the 32-bit day number.
        MakeArith(ArithOp::kAdd, MakeLiteral(Value::Date(0)),
                  lit(int64_t{1} << 40))}) {
    Status st = eval(e, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << e->ToString();
  }
  // The edges themselves still evaluate.
  ASSERT_TRUE(eval(MakeArith(ArithOp::kAdd, lit(INT64_MAX - 1), lit(1)), &out)
                  .ok());
  EXPECT_EQ(out.int_value(), INT64_MAX);
  ASSERT_TRUE(eval(MakeNeg(lit(INT64_MAX)), &out).ok());
  EXPECT_EQ(out.int_value(), -INT64_MAX);
  ASSERT_TRUE(eval(MakeArith(ArithOp::kMul, lit(INT64_MIN), lit(1)), &out)
                  .ok());
  EXPECT_EQ(out.int_value(), INT64_MIN);
  // From SQL text, and through the functions that negate or divide.
  auto sel = ParseSelect("SELECT 9223372036854775807 * 2 FROM t");
  ASSERT_TRUE(sel.ok());
  EvalContext ctx;
  EXPECT_EQ(EvalExpr(*sel.value()->items[0].expr, ctx, &out).code(),
            StatusCode::kInvalidArgument);
  std::vector<ExprPtr> abs_args;
  abs_args.push_back(lit(INT64_MIN));
  EXPECT_FALSE(eval(MakeFunc("ABS", std::move(abs_args)), &out).ok());
  std::vector<ExprPtr> mod_args;
  mod_args.push_back(lit(INT64_MIN));
  mod_args.push_back(lit(-1));
  ASSERT_TRUE(eval(MakeFunc("MOD", std::move(mod_args)), &out).ok());
  EXPECT_EQ(out.int_value(), 0);
}

TEST(EvalTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(EvalConst("1 + NULL").is_null());
  EXPECT_TRUE(EvalConst("NULL * 0").is_null());
}

TEST(EvalTest, ComparisonsWithNullAreUnknown) {
  EXPECT_TRUE(EvalConst("1 = NULL").is_null());
  EXPECT_TRUE(EvalConst("NULL <> NULL").is_null());
  EXPECT_FALSE(EvalConst("1 = 1").is_null());
  EXPECT_TRUE(EvalConst("1 < 2").bool_value());
}

TEST(EvalTest, ThreeValuedLogic) {
  // FALSE AND UNKNOWN = FALSE; TRUE AND UNKNOWN = UNKNOWN.
  EXPECT_FALSE(EvalConst("1 = 2 AND 1 = NULL").bool_value());
  EXPECT_FALSE(EvalConst("1 = 2 AND 1 = NULL").is_null());
  EXPECT_TRUE(EvalConst("1 = 1 AND 1 = NULL").is_null());
  // TRUE OR UNKNOWN = TRUE; FALSE OR UNKNOWN = UNKNOWN.
  EXPECT_TRUE(EvalConst("1 = 1 OR 1 = NULL").bool_value());
  EXPECT_TRUE(EvalConst("1 = 2 OR 1 = NULL").is_null());
  // NOT UNKNOWN = UNKNOWN.
  EXPECT_TRUE(EvalConst("NOT (1 = NULL)").is_null());
  EXPECT_FALSE(EvalConst("NOT (1 = 1)").bool_value());
}

TEST(EvalTest, IsNullNeverUnknown) {
  EXPECT_TRUE(EvalConst("NULL IS NULL").bool_value());
  EXPECT_FALSE(EvalConst("1 IS NULL").bool_value());
  EXPECT_TRUE(EvalConst("1 IS NOT NULL").bool_value());
}

TEST(EvalTest, InListSemantics) {
  EXPECT_TRUE(EvalConst("2 IN (1, 2, 3)").bool_value());
  EXPECT_FALSE(EvalConst("5 IN (1, 2, 3)").bool_value());
  // No match but a NULL in the list -> UNKNOWN.
  EXPECT_TRUE(EvalConst("5 IN (1, NULL, 3)").is_null());
  // Match wins over NULLs.
  EXPECT_TRUE(EvalConst("1 IN (1, NULL)").bool_value());
  // NOT IN flips.
  EXPECT_TRUE(EvalConst("5 NOT IN (1, 2)").bool_value());
  EXPECT_TRUE(EvalConst("5 NOT IN (1, NULL)").is_null());
}

TEST(EvalTest, BetweenSemantics) {
  EXPECT_TRUE(EvalConst("2 BETWEEN 1 AND 3").bool_value());
  EXPECT_TRUE(EvalConst("1 BETWEEN 1 AND 3").bool_value());  // inclusive
  EXPECT_FALSE(EvalConst("0 BETWEEN 1 AND 3").bool_value());
  EXPECT_TRUE(EvalConst("0 NOT BETWEEN 1 AND 3").bool_value());
  EXPECT_TRUE(EvalConst("2 BETWEEN NULL AND 3").is_null());
}

TEST(EvalTest, LikeSemantics) {
  EXPECT_TRUE(EvalConst("'hello' LIKE 'h%'").bool_value());
  EXPECT_TRUE(EvalConst("'hello' NOT LIKE 'x%'").bool_value());
  EXPECT_TRUE(EvalConst("NULL LIKE 'x%'").is_null());
}

TEST(EvalTest, CaseExpression) {
  EXPECT_EQ(EvalConst("CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' "
                      "ELSE 'c' END").string_value(),
            "b");
  EXPECT_EQ(EvalConst("CASE WHEN 1 = 2 THEN 'a' ELSE 'c' END").string_value(),
            "c");
  EXPECT_TRUE(EvalConst("CASE WHEN 1 = 2 THEN 'a' END").is_null());
  // UNKNOWN WHEN condition is skipped like FALSE.
  EXPECT_EQ(
      EvalConst("CASE WHEN NULL = 1 THEN 'a' ELSE 'b' END").string_value(),
      "b");
}

TEST(EvalTest, Functions) {
  EXPECT_EQ(EvalConst("YEAR(DATE '1997-03-04')").int_value(), 1997);
  EXPECT_EQ(EvalConst("MONTH(DATE '1997-03-04')").int_value(), 3);
  EXPECT_EQ(EvalConst("SUBSTR('abcdef', 2, 3)").string_value(), "bcd");
  EXPECT_EQ(EvalConst("SUBSTR('abc', 5, 2)").string_value(), "");
  EXPECT_EQ(EvalConst("UPPER('aBc')").string_value(), "ABC");
  EXPECT_EQ(EvalConst("LOWER('aBc')").string_value(), "abc");
  EXPECT_EQ(EvalConst("LENGTH('abcd')").int_value(), 4);
  EXPECT_EQ(EvalConst("ABS(0 - 7)").int_value(), 7);
  EXPECT_EQ(EvalConst("MOD(17, 5)").int_value(), 2);
  EXPECT_DOUBLE_EQ(EvalConst("ROUND(2.567, 2)").AsDouble(), 2.57);
}

TEST(EvalTest, UnknownFunctionIsError) {
  auto sel = ParseSelect("SELECT FROBNICATE(1) FROM t");
  ASSERT_TRUE(sel.ok());
  EvalContext ctx;
  Value out;
  Status st = EvalExpr(*sel.value()->items[0].expr, ctx, &out);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST(EvalTest, CastExpression) {
  EXPECT_EQ(EvalConst("CAST(2.9 AS INT)").int_value(), 2);
  EXPECT_EQ(EvalConst("CAST('42' AS INT)").int_value(), 42);
  EXPECT_EQ(EvalConst("CAST(7 AS VARCHAR)").string_value(), "7");
}

TEST(EvalTest, ParamsBindByIndex) {
  auto sel = ParseSelect("SELECT ? + ? FROM t");
  ASSERT_TRUE(sel.ok());
  std::vector<Value> params{Value::Int(40), Value::Int(2)};
  EvalContext ctx;
  ctx.params = &params;
  Value out;
  ASSERT_TRUE(EvalExpr(*sel.value()->items[0].expr, ctx, &out).ok());
  EXPECT_EQ(out.int_value(), 42);
  // Missing binding is an error.
  std::vector<Value> short_params{Value::Int(1)};
  ctx.params = &short_params;
  EXPECT_FALSE(EvalExpr(*sel.value()->items[0].expr, ctx, &out).ok());
}

TEST(EvalTest, RowAndColumnRefs) {
  auto e = MakeColumnRef("", "x");
  e->column_index = 1;
  Row row{Value::Int(10), Value::Str("hit")};
  EvalContext ctx;
  ctx.row = &row;
  Value out;
  ASSERT_TRUE(EvalExpr(*e, ctx, &out).ok());
  EXPECT_EQ(out.string_value(), "hit");
  // Out-of-range ref is an internal error, not UB.
  e->column_index = 9;
  EXPECT_FALSE(EvalExpr(*e, ctx, &out).ok());
}

// ---------------------------------------------------------------------------
// Expression-tree helpers
// ---------------------------------------------------------------------------

TEST(ExprHelpersTest, SplitAndCombineConjuncts) {
  auto sel = ParseSelect("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3");
  ASSERT_TRUE(sel.ok());
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(sel.value()->where), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
  ExprPtr combined = CombineConjuncts(std::move(conjuncts));
  ASSERT_NE(combined, nullptr);
  EXPECT_EQ(combined->kind, ExprKind::kLogic);
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST(ExprHelpersTest, ContainsPredicates) {
  auto sel = ParseSelect("SELECT SUM(a + ?) FROM t");
  ASSERT_TRUE(sel.ok());
  const Expr& e = *sel.value()->items[0].expr;
  EXPECT_TRUE(ExprHasAggregates(e));
  EXPECT_TRUE(ExprHasParams(e));
  EXPECT_TRUE(ExprHasColumnRefs(e));
  auto lit = MakeLiteral(Value::Int(1));
  EXPECT_FALSE(ExprHasColumnRefs(*lit));
}

TEST(ExprHelpersTest, CloneIsDeep) {
  auto sel = ParseSelect("SELECT a FROM t WHERE b IN (1, 2) AND c LIKE 'x%'");
  ASSERT_TRUE(sel.ok());
  ExprPtr clone = sel.value()->where->Clone();
  EXPECT_EQ(clone->ToString(), sel.value()->where->ToString());
  // Mutating the clone must not affect the original.
  clone->children[0]->negated = !clone->children[0]->negated;
  EXPECT_NE(clone->ToString(), sel.value()->where->ToString());
}

TEST(ExprHelpersTest, ToStringIsReadable) {
  auto sel = ParseSelect(
      "SELECT a FROM t WHERE x BETWEEN 1 AND 2 AND s LIKE 'p%' AND "
      "y IS NOT NULL");
  ASSERT_TRUE(sel.ok());
  std::string text = sel.value()->where->ToString();
  EXPECT_NE(text.find("BETWEEN"), std::string::npos);
  EXPECT_NE(text.find("LIKE"), std::string::npos);
  EXPECT_NE(text.find("IS NOT NULL"), std::string::npos);
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
