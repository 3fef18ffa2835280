// Batch-at-a-time execution pipeline: RowBatch mechanics, batch-size
// invariance of results and simulated times (batch capacity is a wall-clock
// knob only), LIMIT cutting a batch mid-fill, empty results, cursor
// rebind-and-reopen on cached plans, EXPLAIN ANALYZE counters, and the
// app-server regression that tuple shipping stays charged per tuple no
// matter how many tuples a FetchBatch call returns.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "appsys/connection.h"
#include "common/sim_clock.h"
#include "common/str_util.h"
#include "rdbms/db.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                      \
  do {                                       \
    ::r3::Status _st = (expr);               \
    ASSERT_TRUE(_st.ok()) << _st.ToString(); \
  } while (false)

TEST(RowBatchTest, AppendTruncatePop) {
  RowBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_TRUE(batch.empty());
  for (int i = 0; i < 4; ++i) {
    batch.AppendRow() = Row{Value::Int(i)};
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.row(2)[0].AsInt(), 2);

  batch.PopRow();
  EXPECT_EQ(batch.size(), 3u);
  batch.Truncate(1);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.row(0)[0].AsInt(), 0);

  // Reset empties but keeps capacity and slot storage; an appended slot is
  // not cleared, it still holds the row that used it last.
  batch.Reset(4);
  EXPECT_TRUE(batch.empty());
  Row& r = batch.AppendRow();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].AsInt(), 0);
}

TEST(RowBatchTest, KeepCompactsFromOffset) {
  RowBatch batch(8);
  for (int i = 0; i < 8; ++i) {
    batch.AppendRow() = Row{Value::Int(i)};
  }
  // Keep rows 0..2 untouched, then survivors {4, 6, 7} of the tail.
  SelVector sel = {4, 6, 7};
  batch.Keep(sel, /*first=*/3);
  ASSERT_EQ(batch.size(), 6u);
  const int64_t expect[] = {0, 1, 2, 4, 6, 7};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(batch.row(i)[0].AsInt(), expect[i]) << "row " << i;
  }
}

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  Status st = db->Execute(
      "CREATE TABLE t (id INT, grp INT, val DECIMAL, PRIMARY KEY (id))");
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = db->Execute("CREATE TABLE s (id INT, t_grp INT, PRIMARY KEY (id))");
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (int64_t i = 0; i < 500; ++i) {
    st = db->InsertRow("t", Row{Value::Int(i), Value::Int(i % 100),
                                Value::Decimal(static_cast<double>(i) / 7.0)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  for (int64_t i = 0; i < 200; ++i) {
    st = db->InsertRow("s", Row{Value::Int(i), Value::Int(i % 50)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  st = db->Analyze();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

std::vector<std::string> RowStrings(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  return out;
}

// Results and simulated times must be identical at batch 1 (the legacy
// row-at-a-time shape), a deliberately awkward 7, and the default 1024 —
// across scans, filters, aggregation, sort, distinct, joins, and LIMIT.
TEST(BatchSizeInvarianceTest, RowsAndSimTimesIdenticalAcrossBatchSizes) {
  const std::vector<std::string> queries = {
      "SELECT grp, COUNT(*), SUM(val) FROM t WHERE val > 10.0 GROUP BY grp",
      "SELECT DISTINCT grp FROM t WHERE id < 200",
      "SELECT id, val FROM t ORDER BY val DESC LIMIT 10",
      "SELECT COUNT(*) FROM t, s WHERE t.id = s.t_grp",
      "SELECT id FROM t WHERE id >= 100 LIMIT 37",
  };

  // Per batch size, a fresh (deterministically identical) database; the
  // simulated time of each query must not depend on the batch capacity.
  std::vector<std::vector<int64_t>> times;
  std::vector<std::vector<std::vector<std::string>>> rows;
  for (size_t batch_rows : {size_t{1}, size_t{7}, kDefaultBatchRows}) {
    auto db = MakeDb();
    db->set_batch_rows(batch_rows);
    times.emplace_back();
    rows.emplace_back();
    for (const std::string& q : queries) {
      ASSERT_OK(db->pool()->Reset());
      SimTimer t(*db->clock());
      auto res = db->Query(q);
      times.back().push_back(t.ElapsedUs());
      ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
      rows.back().push_back(RowStrings(res.value()));
    }
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t k = 1; k < times.size(); ++k) {
      EXPECT_EQ(times[0][qi], times[k][qi])
          << queries[qi] << ": batch-size run " << k
          << " changed simulated time";
      EXPECT_EQ(rows[0][qi], rows[k][qi])
          << queries[qi] << ": batch-size run " << k << " changed rows";
    }
  }
}

TEST(BatchExecTest, LimitCutsMidBatch) {
  auto db = MakeDb();
  for (size_t batch_rows : {size_t{1}, size_t{7}, kDefaultBatchRows}) {
    db->set_batch_rows(batch_rows);
    auto res = db->Query("SELECT id FROM t WHERE id >= 100 LIMIT 37");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res.value().rows.size(), 37u) << "batch " << batch_rows;
    for (size_t i = 0; i < 37; ++i) {
      EXPECT_EQ(res.value().rows[i][0].AsInt(), static_cast<int64_t>(100 + i));
    }
  }
}

TEST(BatchExecTest, EmptyResultAndStickyExhaustion) {
  auto db = MakeDb();
  auto res = db->Query("SELECT id FROM t WHERE id < 0");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res.value().rows.empty());

  auto stmt = db->Prepare("SELECT id FROM t WHERE id < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto cur = db->OpenCursor(stmt.value(), {Value::Int(0)});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch(db->batch_rows());
  auto got = cur.value().FetchBatch(&batch);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.value());
  EXPECT_TRUE(batch.empty());
  // Exhaustion is sticky: further fetches keep returning false.
  got = cur.value().FetchBatch(&batch);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.value());
  ASSERT_OK(cur.value().Close());
}

TEST(BatchExecTest, CursorFetchGranularityAndRebind) {
  auto db = MakeDb();
  db->set_batch_rows(10);
  auto stmt = db->Prepare("SELECT id FROM t WHERE id < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  // 25 qualifying rows arrive as batches of 10, 10, 5.
  auto cur = db->OpenCursor(stmt.value(), {Value::Int(25)});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch(10);
  std::vector<size_t> batch_sizes;
  int64_t next_id = 0;
  while (true) {
    auto got = cur.value().FetchBatch(&batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    batch_sizes.push_back(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.row(i)[0].AsInt(), next_id++);
    }
  }
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{10, 10, 5}));
  ASSERT_OK(cur.value().Close());

  // Rebind-and-reopen the same cached plan with new parameters.
  auto cur2 = db->OpenCursor(stmt.value(), {Value::Int(3)});
  ASSERT_TRUE(cur2.ok()) << cur2.status().ToString();
  size_t rows = 0;
  while (true) {
    auto got = cur2.value().FetchBatch(&batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    rows += batch.size();
  }
  EXPECT_EQ(rows, 3u);
  ASSERT_OK(cur2.value().Close());

  // And the plain prepared path still works after cursor use.
  auto res = db->ExecutePrepared(stmt.value(), {Value::Int(7)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().rows.size(), 7u);
}

TEST(BatchExecTest, ExplainAnalyzeShowsRuntimeCounters) {
  auto db = MakeDb();
  const std::string q =
      "SELECT grp, COUNT(*) FROM t WHERE val > 10.0 GROUP BY grp";

  auto plain = db->Explain(q);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().find("[rows="), std::string::npos) << plain.value();

  auto analyzed = db->ExplainAnalyze(q);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed.value().find("[rows="), std::string::npos)
      << analyzed.value();
  EXPECT_NE(analyzed.value().find("sim="), std::string::npos)
      << analyzed.value();
  EXPECT_NE(analyzed.value().find("Totals:"), std::string::npos)
      << analyzed.value();
  // Stripped of the annotations, the analyzed plan is the plain plan.
  EXPECT_NE(analyzed.value().find("HashAggregate"), std::string::npos)
      << analyzed.value();
}

// The app server's interface cost is per tuple crossing the wire plus one
// round trip per call — batching the fetch amortizes neither. The cursor
// path must cost exactly rpc_round_trip + n * tuple_ship more than the
// same prepared statement executed inside the database, at every batch
// size.
TEST(BatchExecTest, ConnectionChargesTupleShipPerTuple) {
  for (size_t batch_rows : {size_t{2}, kDefaultBatchRows}) {
    auto db = MakeDb();
    db->set_batch_rows(batch_rows);
    appsys::DbConnection conn(db.get(), db->clock());
    const std::string sql = "SELECT id FROM t WHERE grp = ?";
    const std::vector<Value> params = {Value::Int(3)};

    // Warm: pays the hard parse so both timed runs are soft-parse.
    auto warm = conn.ExecuteCursor(sql, params);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const int64_t n = static_cast<int64_t>(warm.value().rows.size());
    ASSERT_EQ(n, 5);

    auto stmt = db->Prepare(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

    ASSERT_OK(db->pool()->Reset());
    SimTimer t_db(*db->clock());
    auto inside = db->ExecutePrepared(stmt.value(), params);
    int64_t db_us = t_db.ElapsedUs();
    ASSERT_TRUE(inside.ok()) << inside.status().ToString();

    conn.ResetStats();
    ASSERT_OK(db->pool()->Reset());
    SimTimer t_conn(*db->clock());
    auto shipped = conn.ExecuteCursor(sql, params);
    int64_t conn_us = t_conn.ElapsedUs();
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();

    const CostModel& model = db->clock()->model();
    EXPECT_EQ(conn_us - db_us,
              model.rpc_round_trip_us + n * model.tuple_ship_us)
        << "batch " << batch_rows
        << ": interface overhead is not per-tuple (db=" << db_us
        << "us conn=" << conn_us << "us)";
    EXPECT_EQ(conn.stats().rows_shipped, n);
    EXPECT_EQ(conn.stats().round_trips, 1);
  }
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
