// Storage-engine tests: ENGINE-clause selection and parsing, cross-engine
// checksum equality on identical data, RecordIterator lifecycle, stats
// rebuild through Analyze on a columnar table, dictionary-compression
// round-trips for CHAR columns, RLE suppression of an all-default column,
// single-distinct-value pushdown, empty tables, the WAL/columnar mutual
// exclusion (both orderings), crash semantics for memory-resident engines,
// late materialisation (scans leave unneeded columns NULL) and the
// columnar.* metric surface.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "rdbms/db.h"
#include "rdbms/storage/columnar/columnar_engine.h"
#include "rdbms/storage/storage_engine.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)

// Loads the same small two-column table into `db` under the given engine.
// Values cycle through a handful of CHAR strings so dictionary compression
// has repetition to work with.
void LoadSmallTable(Database* db, const std::string& engine_clause,
                    int rows = 64) {
  std::string ddl = "CREATE TABLE T (K INTEGER, S CHAR(16), V DOUBLE)";
  if (!engine_clause.empty()) ddl += " ENGINE=" + engine_clause;
  ASSERT_OK(db->Execute(ddl));
  static const char* kStrings[] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < rows; ++i) {
    ASSERT_OK(db->Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                          ", '" + kStrings[i % 4] + "', " +
                          std::to_string(i * 0.5) + ")"));
  }
}

Result<TableInfo*> GetTable(Database* db, const std::string& name) {
  return db->catalog()->GetTable(name);
}

ColumnarEngine* AsColumnar(TableInfo* t) {
  EXPECT_EQ(t->storage->kind(), EngineKind::kColumnar);
  return static_cast<ColumnarEngine*>(t->storage.get());
}

// -- ENGINE clause & kind parsing ---------------------------------------------

TEST(EngineSelectionTest, EngineClauseSelectsEngine) {
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE R (A INTEGER)"));
  ASSERT_OK(db.Execute("CREATE TABLE C (A INTEGER) ENGINE=columnar"));
  // The clause is case-insensitive, like the rest of the SQL surface.
  ASSERT_OK(db.Execute("CREATE TABLE C2 (A INTEGER) ENGINE=COLUMNAR"));

  auto r = GetTable(&db, "R");
  auto c = GetTable(&db, "C");
  auto c2 = GetTable(&db, "C2");
  ASSERT_OK(r.status());
  ASSERT_OK(c.status());
  ASSERT_OK(c2.status());
  EXPECT_EQ((*r)->storage->kind(), EngineKind::kRowHeap);
  EXPECT_EQ((*c)->storage->kind(), EngineKind::kColumnar);
  EXPECT_EQ((*c2)->storage->kind(), EngineKind::kColumnar);
  EXPECT_STREQ((*r)->storage->name(), "row");
  EXPECT_STREQ((*c)->storage->name(), "columnar");
}

TEST(EngineSelectionTest, UnknownEngineNameIsRejected) {
  Database db;
  Status st = db.Execute("CREATE TABLE T (A INTEGER) ENGINE=parquet");
  EXPECT_FALSE(st.ok()) << "unknown engine accepted";
}

TEST(EngineSelectionTest, ParseEngineKindAliases) {
  auto expect_kind = [](std::string_view name, EngineKind want) {
    auto got = ParseEngineKind(name);
    ASSERT_OK(got.status());
    EXPECT_EQ(*got, want) << name;
  };
  expect_kind("row", EngineKind::kRowHeap);
  expect_kind("rowheap", EngineKind::kRowHeap);
  expect_kind("heap", EngineKind::kRowHeap);
  expect_kind("columnar", EngineKind::kColumnar);
  expect_kind("column", EngineKind::kColumnar);
  expect_kind("Columnar", EngineKind::kColumnar);
  EXPECT_FALSE(ParseEngineKind("lsm").ok());
  EXPECT_FALSE(ParseEngineKind("").ok());
}

TEST(EngineSelectionTest, DefaultEngineOptionApplies) {
  DatabaseOptions opts;
  opts.default_engine = EngineKind::kColumnar;
  Database db(nullptr, opts);
  ASSERT_OK(db.Execute("CREATE TABLE T (A INTEGER)"));
  auto t = GetTable(&db, "T");
  ASSERT_OK(t.status());
  EXPECT_EQ((*t)->storage->kind(), EngineKind::kColumnar);
  // An explicit clause still overrides the default.
  ASSERT_OK(db.Execute("CREATE TABLE T2 (A INTEGER) ENGINE=row"));
  auto t2 = GetTable(&db, "T2");
  ASSERT_OK(t2.status());
  EXPECT_EQ((*t2)->storage->kind(), EngineKind::kRowHeap);
}

// -- Cross-engine equivalence -------------------------------------------------

TEST(EngineEquivalenceTest, ChecksumsMatchAcrossEngines) {
  Database row_db;
  Database col_db;
  LoadSmallTable(&row_db, "");
  LoadSmallTable(&col_db, "columnar");
  auto row_sum = row_db.TableChecksum("T");
  auto col_sum = col_db.TableChecksum("T");
  ASSERT_OK(row_sum.status());
  ASSERT_OK(col_sum.status());
  EXPECT_EQ(*row_sum, *col_sum);

  // And after identical DML on both sides.
  for (Database* db : {&row_db, &col_db}) {
    ASSERT_OK(db->Execute("DELETE FROM T WHERE K = 7"));
    ASSERT_OK(db->Execute("UPDATE T SET V = 99.5 WHERE K = 11"));
  }
  row_sum = row_db.TableChecksum("T");
  col_sum = col_db.TableChecksum("T");
  ASSERT_OK(row_sum.status());
  ASSERT_OK(col_sum.status());
  EXPECT_EQ(*row_sum, *col_sum);
}

// -- RecordIterator lifecycle -------------------------------------------------

TEST(RecordIteratorTest, VisitsEveryLiveRecordOnce) {
  for (const char* engine : {"row", "columnar"}) {
    Database db;
    LoadSmallTable(&db, engine == std::string("row") ? "" : engine);
    ASSERT_OK(db.Execute("DELETE FROM T WHERE K = 3"));

    auto t = GetTable(&db, "T");
    ASSERT_OK(t.status());
    std::unique_ptr<RecordIterator> it = (*t)->storage->NewIterator();
    std::set<uint64_t> rids;
    Rid rid;
    std::string rec;
    size_t n = 0;
    while (true) {
      auto more = it->Next(&rid, &rec);
      ASSERT_OK(more.status());
      if (!*more) break;
      EXPECT_TRUE(rids.insert(rid.Pack()).second)
          << engine << ": rid visited twice";
      EXPECT_FALSE(rec.empty());
      ++n;
    }
    EXPECT_EQ(n, 63u) << engine;
    // A second Next past the end stays at the end rather than erroring.
    auto more = it->Next(&rid, &rec);
    ASSERT_OK(more.status());
    EXPECT_FALSE(*more);

    // Two iterators opened at once are independent.
    std::unique_ptr<RecordIterator> a = (*t)->storage->NewIterator();
    std::unique_ptr<RecordIterator> b = (*t)->storage->NewIterator();
    auto ma = a->Next(&rid, &rec);
    ASSERT_OK(ma.status());
    ASSERT_TRUE(*ma);
    const std::string first = rec;
    size_t nb = 0;
    while (true) {
      auto mb = b->Next(&rid, &rec);
      ASSERT_OK(mb.status());
      if (!*mb) break;
      ++nb;
    }
    EXPECT_EQ(nb, 63u) << engine;
    auto ma2 = a->Next(&rid, &rec);  // `a` unaffected by draining `b`
    ASSERT_OK(ma2.status());
    EXPECT_TRUE(*ma2);
  }
}

TEST(RecordIteratorTest, EmptyTableYieldsNothing) {
  for (const char* engine : {"", "columnar"}) {
    Database db;
    std::string ddl = "CREATE TABLE E (A INTEGER)";
    if (*engine != '\0') ddl += std::string(" ENGINE=") + engine;
    ASSERT_OK(db.Execute(ddl));
    auto t = GetTable(&db, "E");
    ASSERT_OK(t.status());
    std::unique_ptr<RecordIterator> it = (*t)->storage->NewIterator();
    Rid rid;
    std::string rec;
    auto more = it->Next(&rid, &rec);
    ASSERT_OK(more.status());
    EXPECT_FALSE(*more);
  }
}

// -- Late materialisation ----------------------------------------------------

TEST(ScanCursorTest, NeededColumnsOnlyOtherPositionsNull) {
  for (const char* engine : {"", "columnar"}) {
    Database db;
    LoadSmallTable(&db, engine);
    auto t = GetTable(&db, "T");
    ASSERT_OK(t.status());
    ScanSpec spec;
    spec.offset = 1;
    spec.wide_width = 5;  // [pad, K, S, V, pad]
    spec.needed = {false, true, false};  // S only
    std::unique_ptr<ScanCursor> cursor = (*t)->storage->NewScanCursor(spec);
    RowBatch batch(16);
    std::set<std::string> seen;
    size_t rows = 0;
    ASSERT_OK(cursor->BeginBatch());
    while (true) {
      batch.Clear();
      auto more = cursor->NextChunk(&batch);
      ASSERT_OK(more.status());
      if (!*more) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        const Row& r = batch.row(i);
        ASSERT_EQ(r.size(), 5u) << engine;
        EXPECT_TRUE(r[0].is_null()) << engine;
        EXPECT_TRUE(r[1].is_null()) << engine << ": unneeded K decoded";
        ASSERT_FALSE(r[2].is_null()) << engine;
        seen.insert(r[2].string_value());
        EXPECT_TRUE(r[3].is_null()) << engine << ": unneeded V decoded";
        EXPECT_TRUE(r[4].is_null()) << engine;
        ++rows;
      }
    }
    EXPECT_EQ(rows, 64u) << engine;
    EXPECT_EQ(seen, (std::set<std::string>{"alpha", "beta", "gamma", "delta"}))
        << engine;
  }
}

// -- Stats rebuild on columnar ------------------------------------------------

TEST(ColumnarStatsTest, AnalyzeRebuildsStatsThroughEngineIterator) {
  Database db;
  LoadSmallTable(&db, "columnar", /*rows=*/128);
  auto t = GetTable(&db, "T");
  ASSERT_OK(t.status());
  EXPECT_FALSE((*t)->stats.valid);
  ASSERT_OK(db.Analyze("T"));
  EXPECT_TRUE((*t)->stats.valid);
  EXPECT_EQ((*t)->stats.row_count, 128u);
  ASSERT_EQ((*t)->stats.columns.size(), 3u);

  // DML then re-analyze keeps stats in step with the engine contents.
  ASSERT_OK(db.Execute("DELETE FROM T WHERE K < 28"));
  ASSERT_OK(db.Analyze("T"));
  EXPECT_EQ((*t)->stats.row_count, 100u);
}

// -- Dictionary compression ---------------------------------------------------

TEST(ColumnarCompressionTest, DictionaryRoundTripsCharValues) {
  Database db;
  LoadSmallTable(&db, "columnar", /*rows=*/256);
  // Exact values come back out of the dictionary.
  auto res = db.Query("SELECT S FROM T WHERE K = 5 OR K = 6 ORDER BY K");
  ASSERT_OK(res.status());
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->rows[0][0].string_value(), "beta");
  EXPECT_EQ(res->rows[1][0].string_value(), "gamma");

  // 256 rows share 4 distinct strings: the dictionary must shrink the
  // column well below its raw footprint.
  auto t = GetTable(&db, "T");
  ASSERT_OK(t.status());
  ColumnarEngine* eng = AsColumnar(*t);
  EXPECT_EQ(eng->live_row_count(), 256u);
  EXPECT_GT(eng->RawBytes(), 0u);
  EXPECT_LT(eng->CompressedBytes(), eng->RawBytes());
}

TEST(ColumnarCompressionTest, AllDefaultColumnCollapsesUnderRle) {
  Database db;
  // S never varies: one dictionary entry, one run per chunk.
  ASSERT_OK(db.Execute(
      "CREATE TABLE F (K INTEGER, S CHAR(64)) ENGINE=columnar"));
  const std::string filler(60, 'z');
  for (int i = 0; i < 512; ++i) {
    ASSERT_OK(db.Execute("INSERT INTO F VALUES (" + std::to_string(i) +
                         ", '" + filler + "')"));
  }
  auto t = GetTable(&db, "F");
  ASSERT_OK(t.status());
  ColumnarEngine* eng = AsColumnar(*t);
  const uint64_t raw = eng->RawBytes();
  const uint64_t compressed = eng->CompressedBytes();
  // 512 copies of a 60-byte string suppress to a single dictionary entry
  // plus run headers; expect an order-of-magnitude collapse at least.
  EXPECT_LT(compressed * 4, raw)
      << "compressed=" << compressed << " raw=" << raw;

  // The collapsed column still scans correctly.
  auto res = db.Query("SELECT COUNT(*) FROM F WHERE S = '" + filler + "'");
  ASSERT_OK(res.status());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0].AsInt(), 512);
}

TEST(ColumnarCompressionTest, SingleDistinctValuePredicates) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE G (K INTEGER, S CHAR(8)) ENGINE=columnar"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db.Execute("INSERT INTO G VALUES (" + std::to_string(i) +
                         ", 'only')"));
  }
  // Dictionary-equality pushdown: the matching literal selects everything,
  // a non-member literal selects nothing without materializing rows.
  auto hit = db.Query("SELECT COUNT(*) FROM G WHERE S = 'only'");
  auto miss = db.Query("SELECT COUNT(*) FROM G WHERE S = 'other'");
  ASSERT_OK(hit.status());
  ASSERT_OK(miss.status());
  EXPECT_EQ(hit->rows[0][0].AsInt(), 100);
  EXPECT_EQ(miss->rows[0][0].AsInt(), 0);
}

TEST(ColumnarCompressionTest, EmptyTableHasZeroFootprint) {
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE E (A INTEGER, S CHAR(8)) "
                       "ENGINE=columnar"));
  auto t = GetTable(&db, "E");
  ASSERT_OK(t.status());
  ColumnarEngine* eng = AsColumnar(*t);
  EXPECT_EQ(eng->live_row_count(), 0u);
  EXPECT_EQ(eng->RawBytes(), 0u);
  EXPECT_EQ(eng->CompressedBytes(), 0u);
  auto res = db.Query("SELECT COUNT(*) FROM E");
  ASSERT_OK(res.status());
  EXPECT_EQ(res->rows[0][0].AsInt(), 0);
  ASSERT_OK(db.Analyze("E"));
  EXPECT_TRUE((*t)->stats.valid);
  EXPECT_EQ((*t)->stats.row_count, 0u);
}

// -- WAL gating ---------------------------------------------------------------

TEST(EngineWalGatingTest, EnableWalRejectsExistingColumnarTable) {
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE C (A INTEGER) ENGINE=columnar"));
  Status st = db.EnableWal();
  EXPECT_FALSE(st.ok()) << "EnableWal accepted a non-WAL-capable table";
}

TEST(EngineWalGatingTest, ColumnarCreateRejectedAfterEnableWal) {
  Database db;
  ASSERT_OK(db.EnableWal());
  Status st = db.Execute("CREATE TABLE C (A INTEGER) ENGINE=columnar");
  EXPECT_FALSE(st.ok()) << "columnar table created under WAL";
  // Row tables remain fine.
  ASSERT_OK(db.Execute("CREATE TABLE R (A INTEGER) ENGINE=row"));
}

// -- Crash semantics ----------------------------------------------------------

TEST(EngineCrashTest, CrashEmptiesColumnarTableAndItIsReusable) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE W (K INTEGER, S CHAR(8)) ENGINE=columnar"));
  ASSERT_OK(db.Execute("CREATE INDEX W_K ON W (K)"));
  for (int i = 0; i < 32; ++i) {
    ASSERT_OK(db.Execute("INSERT INTO W VALUES (" + std::to_string(i) +
                         ", 'v')"));
  }
  ASSERT_OK(db.Analyze("W"));
  ASSERT_OK(db.SimulateCrash());

  // Memory-resident engine: the crash empties the table, its indexes, and
  // its statistics; the warehouse re-extracts rather than recovers.
  auto t = GetTable(&db, "W");
  ASSERT_OK(t.status());
  EXPECT_EQ((*t)->row_count, 0u);
  EXPECT_FALSE((*t)->stats.valid);
  auto res = db.Query("SELECT COUNT(*) FROM W");
  ASSERT_OK(res.status());
  EXPECT_EQ(res->rows[0][0].AsInt(), 0);

  // And the table is immediately usable again.
  ASSERT_OK(db.Execute("INSERT INTO W VALUES (1, 'w')"));
  res = db.Query("SELECT COUNT(*) FROM W WHERE K = 1");
  ASSERT_OK(res.status());
  EXPECT_EQ(res->rows[0][0].AsInt(), 1);
}

// -- Metrics surface ----------------------------------------------------------

TEST(ColumnarMetricsTest, ScanAndCompressionCountersAreEmitted) {
  MetricsRegistry registry;
  DatabaseOptions opts;
  opts.metrics = &registry;
  Database db(nullptr, opts);
  LoadSmallTable(&db, "columnar", /*rows=*/128);

  auto res = db.Query("SELECT SUM(V) FROM T WHERE K >= 0");
  ASSERT_OK(res.status());
  ASSERT_EQ(res->rows.size(), 1u);

  EXPECT_GT(registry.Value("columnar.segments_read"), 0);
  EXPECT_GT(registry.Value("columnar.values_scanned"), 0);
  EXPECT_GT(registry.Value("columnar.values_materialized"), 0);

  // Gauges publish on stats recompute.
  auto t = GetTable(&db, "T");
  ASSERT_OK(t.status());
  (void)AsColumnar(*t)->CompressedBytes();
  EXPECT_GT(registry.Value("columnar.raw_bytes"), 0);
  EXPECT_GT(registry.Value("columnar.compressed_bytes"), 0);
  EXPECT_GT(registry.Value("columnar.dict_bytes_saved"), 0);
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
