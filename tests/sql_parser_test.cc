// Lexer and parser tests: token classification, statement shapes, operator
// precedence, special forms, and error reporting.
#include <gtest/gtest.h>

#include <cstdint>

#include "rdbms/sql/lexer.h"
#include "rdbms/sql/parser.h"

namespace r3 {
namespace rdbms {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto toks = Tokenize("SELECT a, 42 FROM t WHERE x <= 3.5");
  ASSERT_TRUE(toks.ok());
  const auto& v = toks.value();
  EXPECT_EQ(v[0].type, TokenType::kIdentifier);
  EXPECT_EQ(v[0].text, "SELECT");
  EXPECT_EQ(v[2].type, TokenType::kOperator);  // ','
  EXPECT_EQ(v[3].type, TokenType::kInteger);
  EXPECT_EQ(v[3].int_value, 42);
  EXPECT_EQ(v[8].text, "<=");
  EXPECT_EQ(v[9].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(v[9].float_value, 3.5);
  EXPECT_EQ(v.back().type, TokenType::kEnd);
}

TEST(LexerTest, StringsWithEscapes) {
  auto toks = Tokenize("'it''s'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].type, TokenType::kString);
  EXPECT_EQ(toks.value()[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(LexerTest, CommentsSkipped) {
  auto toks = Tokenize("SELECT 1 -- trailing comment\n, 2");
  ASSERT_TRUE(toks.ok());
  // SELECT 1 , 2 <end>
  EXPECT_EQ(toks.value().size(), 5u);
}

TEST(LexerTest, NotEqualsNormalized) {
  auto toks = Tokenize("a != b");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[1].text, "<>");
}

TEST(LexerTest, BadCharacterRejected) {
  EXPECT_FALSE(Tokenize("SELECT #").ok());
}

TEST(LexerTest, ScientificNotation) {
  auto toks = Tokenize("1e3 2.5E-2");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(toks.value()[0].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks.value()[1].float_value, 0.025);
}

TEST(LexerTest, OutOfRangeLiteralsRejected) {
  // The int64 limit itself still lexes...
  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value()[0].int_value, INT64_MAX);
  // ...one past it, or a double that overflows to infinity, does not: a
  // clamped value would silently run the query on a different number.
  auto big_int = Tokenize("SELECT 99999999999999999999");
  ASSERT_FALSE(big_int.ok());
  EXPECT_EQ(big_int.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(big_int.status().message().find("out of range"),
            std::string::npos);
  EXPECT_FALSE(Tokenize("9223372036854775808").ok());
  EXPECT_FALSE(Tokenize("1e999").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a = 1e400").ok());
  // Tiny magnitudes are not clamped to a limit, so they stay legal.
  EXPECT_TRUE(Tokenize("1e-400").ok());
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

std::unique_ptr<SelectStmt> MustSelect(const std::string& sql) {
  auto r = ParseSelect(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(ParserTest, MinimalSelect) {
  auto s = MustSelect("SELECT a FROM t");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->items.size(), 1u);
  EXPECT_EQ(s->from.size(), 1u);
  EXPECT_EQ(s->from[0]->name, "t");
  EXPECT_EQ(s->where, nullptr);
}

TEST(ParserTest, SelectStarAndAliases) {
  auto s = MustSelect("SELECT *, a AS x, b y FROM t u");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->items[0].star);
  EXPECT_EQ(s->items[1].alias, "x");
  EXPECT_EQ(s->items[2].alias, "y");
  EXPECT_EQ(s->from[0]->alias, "u");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto s = MustSelect("SELECT 1 + 2 * 3 FROM t");
  const Expr& e = *s->items[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kArith);
  EXPECT_EQ(e.arith_op, ArithOp::kAdd);
  EXPECT_EQ(e.children[1]->arith_op, ArithOp::kMul);
}

TEST(ParserTest, LogicalPrecedence) {
  auto s = MustSelect("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
  const Expr& e = *s->where;
  ASSERT_EQ(e.kind, ExprKind::kLogic);
  EXPECT_EQ(e.logic_op, LogicOp::kOr);  // AND binds tighter
  EXPECT_EQ(e.children[1]->logic_op, LogicOp::kAnd);
}

TEST(ParserTest, SpecialPredicates) {
  auto s = MustSelect(
      "SELECT a FROM t WHERE a LIKE 'x%' AND b NOT LIKE 'y%' "
      "AND c BETWEEN 1 AND 2 AND d NOT IN (1, 2) AND e IS NOT NULL");
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(s->where), &conjuncts);
  ASSERT_EQ(conjuncts.size(), 5u);
  EXPECT_EQ(conjuncts[0]->kind, ExprKind::kLike);
  EXPECT_FALSE(conjuncts[0]->negated);
  EXPECT_TRUE(conjuncts[1]->negated);
  EXPECT_EQ(conjuncts[2]->kind, ExprKind::kBetween);
  EXPECT_EQ(conjuncts[3]->kind, ExprKind::kInList);
  EXPECT_TRUE(conjuncts[3]->negated);
  EXPECT_EQ(conjuncts[4]->kind, ExprKind::kIsNull);
  EXPECT_TRUE(conjuncts[4]->negated);
}

TEST(ParserTest, JoinsExplicitAndOuter) {
  auto s = MustSelect(
      "SELECT a FROM t JOIN u ON t.id = u.id LEFT JOIN v ON u.id = v.id");
  ASSERT_EQ(s->from.size(), 1u);
  const TableRef& outer = *s->from[0];
  EXPECT_EQ(outer.kind, TableRef::Kind::kJoin);
  EXPECT_TRUE(outer.left_outer);
  EXPECT_EQ(outer.left->kind, TableRef::Kind::kJoin);
  EXPECT_FALSE(outer.left->left_outer);
}

TEST(ParserTest, GroupHavingOrderLimit) {
  auto s = MustSelect(
      "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 "
      "ORDER BY a DESC, 2 ASC LIMIT 10");
  EXPECT_EQ(s->group_by.size(), 1u);
  ASSERT_NE(s->having, nullptr);
  ASSERT_EQ(s->order_by.size(), 2u);
  EXPECT_FALSE(s->order_by[0].asc);
  EXPECT_TRUE(s->order_by[1].asc);
  EXPECT_EQ(s->limit, 10);
}

TEST(ParserTest, AggregatesAndDistinct) {
  auto s = MustSelect(
      "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b), AVG(c), MIN(d), MAX(e) "
      "FROM t");
  EXPECT_EQ(s->items[0].expr->agg_func, AggFunc::kCountStar);
  EXPECT_EQ(s->items[1].expr->agg_func, AggFunc::kCount);
  EXPECT_TRUE(s->items[1].expr->agg_distinct);
  EXPECT_EQ(s->items[2].expr->agg_func, AggFunc::kSum);
  EXPECT_EQ(s->items[5].expr->agg_func, AggFunc::kMax);
}

TEST(ParserTest, CaseWhen) {
  auto s = MustSelect(
      "SELECT CASE WHEN a > 1 THEN 'big' WHEN a > 0 THEN 'small' "
      "ELSE 'neg' END FROM t");
  const Expr& e = *s->items[0].expr;
  EXPECT_EQ(e.kind, ExprKind::kCase);
  EXPECT_TRUE(e.case_has_else);
  EXPECT_EQ(e.children.size(), 5u);
}

TEST(ParserTest, SubqueryForms) {
  auto s = MustSelect(
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u) "
      "AND b IN (SELECT x FROM v) AND c = (SELECT MAX(y) FROM w)");
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(s->where), &conjuncts);
  EXPECT_EQ(conjuncts[0]->kind, ExprKind::kExistsSubquery);
  EXPECT_EQ(conjuncts[1]->kind, ExprKind::kInSubquery);
  EXPECT_EQ(conjuncts[2]->children[1]->kind, ExprKind::kScalarSubquery);
}

TEST(ParserTest, DateLiteralAndParams) {
  auto s = MustSelect("SELECT a FROM t WHERE d >= DATE '1995-06-17' AND x = ?");
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(s->where), &conjuncts);
  EXPECT_EQ(conjuncts[0]->children[1]->literal.type(), DataType::kDate);
  EXPECT_EQ(conjuncts[1]->children[1]->kind, ExprKind::kParam);
  EXPECT_EQ(conjuncts[1]->children[1]->param_index, 0u);
}

TEST(ParserTest, CastAndFunctions) {
  auto s = MustSelect(
      "SELECT CAST(a AS DOUBLE), YEAR(d), SUBSTR(s, 1, 3) FROM t");
  EXPECT_EQ(s->items[0].expr->kind, ExprKind::kCast);
  EXPECT_EQ(s->items[0].expr->cast_target, DataType::kDouble);
  EXPECT_EQ(s->items[1].expr->kind, ExprKind::kFunc);
  EXPECT_EQ(s->items[1].expr->func_name, "YEAR");
  EXPECT_EQ(s->items[2].expr->children.size(), 3u);
}

TEST(ParserTest, DmlStatements) {
  auto ins = ParseStatement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().kind, Statement::Kind::kInsert);
  EXPECT_EQ(ins.value().insert->rows.size(), 2u);

  auto del = ParseStatement("DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().kind, Statement::Kind::kDelete);

  auto upd = ParseStatement("UPDATE t SET a = a + 1, b = 'z' WHERE c = 2");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().update->assignments.size(), 2u);
}

TEST(ParserTest, DdlStatements) {
  auto ct = ParseStatement(
      "CREATE TABLE t (a INT NOT NULL, b CHAR(10), c DECIMAL(15,2), d DATE, "
      "PRIMARY KEY (a))");
  ASSERT_TRUE(ct.ok());
  const CreateTableStmt& stmt = *ct.value().create_table;
  EXPECT_EQ(stmt.columns.size(), 4u);
  EXPECT_FALSE(stmt.columns[0].nullable);
  EXPECT_EQ(stmt.columns[1].length, 10);
  EXPECT_EQ(stmt.primary_key.size(), 1u);

  auto ci = ParseStatement("CREATE UNIQUE INDEX i ON t (a, b)");
  ASSERT_TRUE(ci.ok());
  EXPECT_TRUE(ci.value().create_index->unique);

  auto cv = ParseStatement("CREATE VIEW v AS SELECT a FROM t");
  ASSERT_TRUE(cv.ok());
  EXPECT_EQ(cv.value().create_view->select_sql, "SELECT a FROM t");

  auto dr = ParseStatement("DROP INDEX i");
  ASSERT_TRUE(dr.ok());
  EXPECT_EQ(dr.value().drop->target, DropStmt::Target::kIndex);
}

TEST(ParserTest, ErrorsAreDescriptive) {
  auto r1 = ParseStatement("SELECT FROM t");
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("near"), std::string::npos);
  EXPECT_FALSE(ParseStatement("SELECT a").ok());            // missing FROM
  EXPECT_FALSE(ParseStatement("SELECT a FROM t extra garbage ,").ok());
  EXPECT_FALSE(ParseStatement("FOO BAR").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE").ok());
}

TEST(ParserTest, CloneProducesEqualTree) {
  auto s = MustSelect(
      "SELECT a, SUM(b) FROM t JOIN u ON t.i = u.i WHERE c IN (1,2) "
      "GROUP BY a ORDER BY a LIMIT 5");
  auto clone = s->Clone();
  EXPECT_EQ(clone->items.size(), s->items.size());
  EXPECT_EQ(clone->items[1].expr->ToString(), s->items[1].expr->ToString());
  EXPECT_EQ(clone->where->ToString(), s->where->ToString());
  EXPECT_EQ(clone->limit, 5);
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
