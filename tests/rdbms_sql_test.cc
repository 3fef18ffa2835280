// End-to-end SQL tests for the embedded RDBMS: DDL, DML, scans, joins,
// aggregation, subqueries, views, prepared statements, and plan choice.
#include <gtest/gtest.h>

#include <cstdint>

#include "rdbms/db.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                                \
  do {                                                 \
    ::r3::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();           \
  } while (false)

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_OK(db_->Execute(
        "CREATE TABLE dept (id INT, name CHAR(12), PRIMARY KEY (id))"));
    ASSERT_OK(db_->Execute(
        "CREATE TABLE emp (id INT, dept_id INT, name VARCHAR, salary DECIMAL, "
        "hired DATE, PRIMARY KEY (id))"));
    ASSERT_OK(db_->Execute("CREATE INDEX emp_dept ON emp (dept_id)"));
    ASSERT_OK(db_->Execute(
        "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')"));
    ASSERT_OK(db_->Execute(
        "INSERT INTO emp VALUES "
        "(10, 1, 'ada', 120.50, DATE '1995-01-15'), "
        "(11, 1, 'grace', 140.00, DATE '1996-06-01'), "
        "(12, 2, 'edsger', 90.25, DATE '1994-12-31'), "
        "(13, 2, 'alan', 95.75, DATE '1995-07-07'), "
        "(14, NULL, 'lonely', 50.00, DATE '1996-01-01')"));
    ASSERT_OK(db_->Execute("ANALYZE"));
  }

  QueryResult Q(const std::string& sql) {
    auto res = db_->Query(sql);
    EXPECT_TRUE(res.ok()) << sql << " -> " << res.status().ToString();
    return res.ok() ? std::move(res).value() : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlTest, SimpleSelect) {
  QueryResult r = Q("SELECT name FROM dept WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "sales");
}

TEST_F(SqlTest, SelectStar) {
  QueryResult r = Q("SELECT * FROM dept ORDER BY id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].size(), 2u);
  EXPECT_EQ(r.rows[0][1].string_value(), "eng");
}

TEST_F(SqlTest, WherePredicates) {
  EXPECT_EQ(Q("SELECT id FROM emp WHERE salary > 100").rows.size(), 2u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE salary BETWEEN 90 AND 100").rows.size(),
            2u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE name LIKE 'a%'").rows.size(), 2u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id IS NULL").rows.size(), 1u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id IS NOT NULL").rows.size(), 4u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE id IN (10, 12, 99)").rows.size(), 2u);
  EXPECT_EQ(
      Q("SELECT id FROM emp WHERE hired >= DATE '1995-01-01' AND "
        "hired < DATE '1996-01-01'")
          .rows.size(),
      2u);
}

TEST_F(SqlTest, NullComparisonsRejectRows) {
  // dept_id = NULL is UNKNOWN, never true.
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id = NULL").rows.size(), 0u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept_id <> 1").rows.size(), 2u);
}

TEST_F(SqlTest, Arithmetic) {
  QueryResult r = Q("SELECT salary * 2 + 1 FROM emp WHERE id = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 242.0);
}

TEST_F(SqlTest, JoinImplicit) {
  QueryResult r = Q(
      "SELECT e.name, d.name FROM emp e, dept d "
      "WHERE e.dept_id = d.id ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].string_value(), "ada");
  EXPECT_EQ(r.rows[0][1].string_value(), "eng");
}

TEST_F(SqlTest, JoinExplicit) {
  QueryResult r = Q(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id "
      "WHERE d.name = 'sales' ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "alan");
}

TEST_F(SqlTest, LeftOuterJoin) {
  QueryResult r = Q(
      "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_id = d.id "
      "ORDER BY d.name, e.name");
  // eng x2, sales x2, empty x1 (null-extended).
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].string_value(), "empty");
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqlTest, NonEquiJoinsCarryTheInnerColumnsRead) {
  // A non-equi join runs as nested loops over a materialized inner side that
  // keeps only the columns the query reads (here emp's id, name and hired:
  // three separate runs of the wide row).
  const char* inner_sql =
      "SELECT d.name, e.name, e.hired FROM dept d, emp e "
      "WHERE e.id > d.id + 11 ORDER BY d.name, e.name";
  auto plan = db_->Explain(inner_sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("NLJoin"), std::string::npos) << plan.value();
  QueryResult r = Q(inner_sql);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].string_value(), "eng");
  EXPECT_EQ(r.rows[0][1].string_value(), "alan");
  EXPECT_EQ(r.rows[0][2].ToString(), "1995-07-07");
  EXPECT_EQ(r.rows[1][1].string_value(), "lonely");
  EXPECT_EQ(r.rows[2][0].string_value(), "sales");
  EXPECT_EQ(r.rows[2][1].string_value(), "lonely");
  EXPECT_EQ(r.rows[2][2].ToString(), "1996-01-01");

  const char* outer_sql =
      "SELECT d.name, e.name, e.hired FROM dept d LEFT JOIN emp e "
      "ON e.id > d.id + 11 ORDER BY d.name, e.name";
  plan = db_->Explain(outer_sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("NLOuterJoin"), std::string::npos)
      << plan.value();
  r = Q(outer_sql);
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].string_value(), "empty");
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  EXPECT_EQ(r.rows[1][1].string_value(), "alan");
  EXPECT_EQ(r.rows[1][2].ToString(), "1995-07-07");
  EXPECT_EQ(r.rows[3][0].string_value(), "sales");
  EXPECT_EQ(r.rows[3][1].string_value(), "lonely");
}

TEST_F(SqlTest, GroupByAggregates) {
  QueryResult r = Q(
      "SELECT dept_id, COUNT(*), SUM(salary), AVG(salary), MIN(name), "
      "MAX(salary) FROM emp WHERE dept_id IS NOT NULL "
      "GROUP BY dept_id ORDER BY dept_id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 260.5);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 130.25);
  EXPECT_EQ(r.rows[0][4].string_value(), "ada");
  EXPECT_DOUBLE_EQ(r.rows[0][5].AsDouble(), 140.0);
}

TEST_F(SqlTest, AggregateWithoutGroupBy) {
  QueryResult r = Q("SELECT COUNT(*), SUM(salary) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_NEAR(r.rows[0][1].AsDouble(), 496.5, 1e-9);
}

TEST_F(SqlTest, AggregateOverEmptyInput) {
  QueryResult r = Q("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 1000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqlTest, Having) {
  QueryResult r = Q(
      "SELECT dept_id, COUNT(*) FROM emp WHERE dept_id IS NOT NULL "
      "GROUP BY dept_id HAVING SUM(salary) > 200 ORDER BY dept_id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(SqlTest, GroupByExpression) {
  QueryResult r = Q(
      "SELECT YEAR(hired), COUNT(*) FROM emp GROUP BY YEAR(hired) "
      "ORDER BY YEAR(hired)");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1994);
  EXPECT_EQ(r.rows[1][0].AsInt(), 1995);
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
}

TEST_F(SqlTest, CaseExpression) {
  QueryResult r = Q(
      "SELECT SUM(CASE WHEN salary > 100 THEN 1 ELSE 0 END) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(SqlTest, DistinctAndLimit) {
  EXPECT_EQ(Q("SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL")
                .rows.size(),
            2u);
  EXPECT_EQ(Q("SELECT id FROM emp ORDER BY id LIMIT 2").rows.size(), 2u);
}

TEST_F(SqlTest, CountDistinct) {
  QueryResult r = Q("SELECT COUNT(DISTINCT dept_id) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(SqlTest, ScalarSubquery) {
  QueryResult r = Q(
      "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "grace");
}

TEST_F(SqlTest, CorrelatedScalarSubquery) {
  // Best-paid employee of each department.
  QueryResult r = Q(
      "SELECT e.name FROM emp e WHERE e.dept_id IS NOT NULL AND e.salary = "
      "(SELECT MAX(e2.salary) FROM emp e2 WHERE e2.dept_id = e.dept_id) "
      "ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "alan");
  EXPECT_EQ(r.rows[1][0].string_value(), "grace");
}

TEST_F(SqlTest, ExistsSubquery) {
  QueryResult r = Q(
      "SELECT d.name FROM dept d WHERE EXISTS "
      "(SELECT * FROM emp e WHERE e.dept_id = d.id) ORDER BY d.name");
  ASSERT_EQ(r.rows.size(), 2u);
  QueryResult r2 = Q(
      "SELECT d.name FROM dept d WHERE NOT EXISTS "
      "(SELECT * FROM emp e WHERE e.dept_id = d.id)");
  ASSERT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(r2.rows[0][0].string_value(), "empty");
}

TEST_F(SqlTest, InSubquery) {
  QueryResult r = Q(
      "SELECT name FROM dept WHERE id IN (SELECT dept_id FROM emp "
      "WHERE salary > 100) ORDER BY name");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "eng");
}

TEST_F(SqlTest, View) {
  ASSERT_OK(db_->Execute(
      "CREATE VIEW emp_dept AS SELECT e.id eid, e.name ename, e.salary sal, "
      "d.name dname FROM emp e, dept d WHERE e.dept_id = d.id"));
  QueryResult r = Q(
      "SELECT ename, dname FROM emp_dept WHERE sal > 100 ORDER BY ename");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "ada");
  EXPECT_EQ(r.rows[0][1].string_value(), "eng");
}

TEST_F(SqlTest, PreparedStatementWithParams) {
  auto stmt = db_->Prepare("SELECT name FROM emp WHERE salary > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto r1 = db_->ExecutePrepared(stmt.value(), {Value::Dbl(100.0)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().rows.size(), 2u);
  auto r2 = db_->ExecutePrepared(stmt.value(), {Value::Dbl(0.0)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().rows.size(), 5u);
  // Same text returns the same plan (cursor caching substrate).
  auto stmt2 = db_->Prepare("SELECT name FROM emp WHERE salary > ?");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt.value(), stmt2.value());
}

TEST_F(SqlTest, DeleteAndUpdate) {
  int64_t affected = 0;
  ASSERT_OK(db_->Execute("DELETE FROM emp WHERE dept_id = 2", {}, nullptr,
                         &affected));
  EXPECT_EQ(affected, 2);
  EXPECT_EQ(Q("SELECT id FROM emp").rows.size(), 3u);

  ASSERT_OK(db_->Execute("UPDATE emp SET salary = salary + 10 WHERE id = 10",
                         {}, nullptr, &affected));
  EXPECT_EQ(affected, 1);
  QueryResult r = Q("SELECT salary FROM emp WHERE id = 10");
  EXPECT_NEAR(r.rows[0][0].AsDouble(), 130.5, 1e-9);
}

TEST_F(SqlTest, UniqueConstraint) {
  Status st = db_->Execute("INSERT INTO dept VALUES (1, 'dup')");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation) << st.ToString();
  // Table unchanged.
  EXPECT_EQ(Q("SELECT id FROM dept").rows.size(), 3u);
}

TEST_F(SqlTest, NotNullConstraint) {
  ASSERT_OK(db_->Execute(
      "CREATE TABLE strict (a INT NOT NULL, b INT)"));
  Status st = db_->Execute("INSERT INTO strict VALUES (NULL, 1)");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlTest, ExplainShowsIndexForSelectivePredicate) {
  auto plan = db_->Explain("SELECT name FROM emp WHERE id = 11");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("IndexScan"), std::string::npos) << plan.value();
}

TEST_F(SqlTest, ExplainParameterizedIsBlindIndex) {
  // With a literal covering everything, the optimizer picks a scan...
  auto lit = db_->Explain("SELECT name FROM emp WHERE id > 0");
  ASSERT_TRUE(lit.ok());
  EXPECT_NE(lit.value().find("SeqScan"), std::string::npos) << lit.value();
  // ...with a parameter it cannot know and blindly takes the index.
  auto par = db_->Explain("SELECT name FROM emp WHERE id > ?");
  ASSERT_TRUE(par.ok());
  EXPECT_NE(par.value().find("IndexScan"), std::string::npos) << par.value();
}

TEST_F(SqlTest, IntegerOverflowPlansThenFailsAtExecution) {
  // The optimizer's plan-time folding of the overflowing constant fails, so
  // it falls back to default selectivity; execution reports the overflow.
  const std::string sql =
      "SELECT name FROM emp WHERE id = 9223372036854775807 * 2";
  ASSERT_TRUE(db_->Explain(sql).ok());
  auto res = db_->Query(sql);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  // Same through a prepared statement whose bind value overflows.
  auto stmt = db_->Prepare("SELECT name FROM emp WHERE salary > ? + 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto bad = db_->ExecutePrepared(stmt.value(), {Value::Int(INT64_MAX)});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The database stays usable after the failed statements.
  EXPECT_EQ(Q("SELECT name FROM emp WHERE id = 10").rows.size(), 1u);
}

TEST_F(SqlTest, OutOfRangeIntegersAreRejected) {
  // A literal past int64 is a parse error, not INT64_MAX.
  auto lit = db_->Query("SELECT 99999999999999999999 FROM dept");
  ASSERT_FALSE(lit.ok());
  EXPECT_EQ(lit.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(lit.status().message().find("out of range"), std::string::npos)
      << lit.status().ToString();
  // So is a string cast to INT, rather than INT64_MAX.
  EXPECT_EQ(Q("SELECT CAST('-42' AS INT) FROM dept WHERE id = 1")
                .rows[0][0]
                .int_value(),
            -42);
  auto cast =
      db_->Query("SELECT CAST('99999999999999999999' AS INT) FROM dept");
  ASSERT_FALSE(cast.ok());
  EXPECT_EQ(cast.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cast.status().message().find("cannot cast"), std::string::npos)
      << cast.status().ToString();
  // A double past int64 (or NaN/inf) is refused by the cast, rather than
  // converted with undefined behaviour (it used to read INT64_MIN).
  for (const char* sql : {"SELECT CAST(1e300 AS INT) FROM dept",
                          "SELECT CAST(-1e300 AS INT) FROM dept",
                          "SELECT CAST(1e300 AS DECIMAL) FROM dept",
                          "SELECT CAST(1e17 AS DECIMAL) FROM dept"}) {
    auto big = db_->Query(sql);
    ASSERT_FALSE(big.ok()) << sql << " -> "
                           << big.value().rows[0][0].ToString();
    EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(big.status().message().find("out of range"), std::string::npos)
        << big.status().ToString();
  }
  EXPECT_EQ(Q("SELECT CAST(2.5e3 AS INT) FROM dept WHERE id = 1")
                .rows[0][0]
                .int_value(),
            2500);
  // A 4-byte INTEGER column refuses a value it would have to truncate
  // (4294967297 would have stored as 1 while its index key kept the full
  // value).
  auto wide = db_->Execute(
      "INSERT INTO dept VALUES (4294967297, 'wide')");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Q("SELECT name FROM dept WHERE id = 1").rows.size() == 1u);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM dept").rows[0][0].AsInt(), 3);
  // The INTEGER limits themselves still fit.
  ASSERT_OK(db_->Execute(
      "INSERT INTO dept VALUES (2147483647, 'max'), (-2147483648, 'min')"));
  QueryResult r = Q("SELECT id FROM dept WHERE id > 3 OR id < 0 ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), INT32_MIN);
  EXPECT_EQ(r.rows[1][0].AsInt(), INT32_MAX);
  // An UPDATE that would narrow is refused the same way.
  auto upd = db_->Execute("UPDATE dept SET id = 2147483648 WHERE id = 3");
  ASSERT_FALSE(upd.ok());
  EXPECT_EQ(upd.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Q("SELECT name FROM dept WHERE id = 3").rows.size(), 1u);
}

/// SUM over BIGINT rows whose total leaves int64 fails with InvalidArgument
/// on the serial HashAggregate and on the DOP-4 partial-aggregate merge; a
/// total that fits is exact even when a running sum would have overflowed.
TEST(SqlAggregateTest, IntegerSumOverflowIsAnErrorSerialAndParallel) {
  for (int dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    DatabaseOptions opts;
    opts.planner.dop = dop;
    opts.planner.parallel_threshold_rows = 1;
    Database db(nullptr, opts);
    ASSERT_OK(db.Execute("CREATE TABLE big (g INT, v BIGINT)"));
    ASSERT_OK(db.Execute("INSERT INTO big VALUES (1, 9000000000000000000), "
                         "(1, 9000000000000000000), (2, 9000000000000000000), "
                         "(2, 9000000000000000000), (2, -9000000000000000000)"));
    for (int i = 0; i < 200; ++i) {
      ASSERT_OK(db.InsertRow("big", {Value::Int(3), Value::Int(i)}));
    }
    ASSERT_OK(db.Execute("ANALYZE"));
    const std::string sum_all = "SELECT SUM(v) FROM big WHERE g = 1";
    auto plan = db.Explain(sum_all);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan.value().find("PartialHashAggregate") != std::string::npos,
              dop == 4)
        << plan.value();

    auto over = db.Query(sum_all);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(over.status().message().find("overflow"), std::string::npos);
    auto grouped = db.Query("SELECT g, SUM(v) FROM big GROUP BY g");
    ASSERT_FALSE(grouped.ok());
    EXPECT_EQ(grouped.status().code(), StatusCode::kInvalidArgument);

    // 9e18 + 9e18 - 9e18 fits: the result is exact in any order.
    auto fits = db.Query("SELECT SUM(v) FROM big WHERE g = 2");
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits.value().rows[0][0].int_value(), 9000000000000000000);
    // AVG divides the floating sum and never overflows.
    auto avg = db.Query("SELECT AVG(v) FROM big WHERE g = 1");
    ASSERT_TRUE(avg.ok()) << avg.status().ToString();
    EXPECT_DOUBLE_EQ(avg.value().rows[0][0].double_value(), 9e18);
  }
}

TEST_F(SqlTest, OrderByDesc) {
  QueryResult r = Q("SELECT id FROM emp ORDER BY salary DESC LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 11);
}

TEST_F(SqlTest, ThreeWayJoin) {
  ASSERT_OK(db_->Execute("CREATE TABLE loc (dept_id INT, city VARCHAR)"));
  ASSERT_OK(db_->Execute(
      "INSERT INTO loc VALUES (1, 'zurich'), (2, 'london')"));
  ASSERT_OK(db_->Execute("ANALYZE loc"));
  QueryResult r = Q(
      "SELECT e.name, d.name, l.city FROM emp e, dept d, loc l "
      "WHERE e.dept_id = d.id AND d.id = l.dept_id AND e.salary > 100 "
      "ORDER BY e.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][2].string_value(), "zurich");
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
