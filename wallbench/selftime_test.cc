// Self-time computation on hand-built span lists, and the round trip from
// a real Tracer export.
#include "wallbench/selftime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "common/sim_clock.h"
#include "common/trace.h"

namespace wallbench {
namespace {

Span S(const char* cat, const char* name, int64_t start, int64_t dur) {
  return Span{cat, name, start, dur};
}

TEST(SelfTimesTest, NestedSpansSubtractTheirChildren) {
  // A [0,100) holds B [10,40) and D [50,90); B holds C [20,30). Listed in
  // the Tracer's order: by end, a parent after its children.
  std::vector<Span> spans = {S("x", "C", 20, 10), S("x", "B", 10, 30),
                             S("x", "D", 50, 40), S("x", "A", 0, 100)};
  std::vector<SelfTime> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0].self_us, 10);  // C
  EXPECT_EQ(self[1].self_us, 20);  // B: 30 - 10
  EXPECT_EQ(self[2].self_us, 40);  // D
  EXPECT_EQ(self[3].self_us, 30);  // A: 100 - 30 - 40
  // Boundaries next to each span's booked time: its own two plus two per
  // direct child.
  EXPECT_EQ(self[0].boundaries, 2);
  EXPECT_EQ(self[1].boundaries, 4);
  EXPECT_EQ(self[2].boundaries, 2);
  EXPECT_EQ(self[3].boundaries, 6);
}

TEST(SelfTimesTest, EqualTruncatedBoundsBookTheInnerSpan) {
  // A child that started and ended in the same microseconds as its parent:
  // the parent is recorded last, so it began first and gets nothing.
  std::vector<Span> spans = {S("x", "child", 5, 10), S("x", "parent", 5, 10)};
  std::vector<SelfTime> self = SelfTimes(spans);
  EXPECT_EQ(self[0].self_us, 10);
  EXPECT_EQ(self[1].self_us, 0);
}

TEST(SelfTimesTest, OverlappingSiblingsShareTimeByLatestStart) {
  // An operator reopened while its sibling is still open: O [0,100),
  // X [10,60), Y [50,80). Time goes to the most recently begun open span.
  std::vector<Span> spans = {S("x", "X", 10, 50), S("x", "Y", 50, 30),
                             S("x", "O", 0, 100)};
  std::vector<SelfTime> self = SelfTimes(spans);
  EXPECT_EQ(self[0].self_us, 40);
  EXPECT_EQ(self[1].self_us, 30);
  EXPECT_EQ(self[2].self_us, 30);
}

TEST(SelfTimesTest, ZeroLengthAndDisjointSpans) {
  std::vector<Span> spans = {S("x", "a", 0, 7), S("x", "io", 9, 0),
                             S("x", "b", 12, 3)};
  std::vector<SelfTime> self = SelfTimes(spans);
  EXPECT_EQ(self[0].self_us, 7);
  EXPECT_EQ(self[1].self_us, 0);
  EXPECT_EQ(self[1].boundaries, 0);
  EXPECT_EQ(self[2].self_us, 3);
}

TEST(LayerOfTest, CategoriesAndOperatorFamilies) {
  EXPECT_EQ(LayerOf(S("sql", "parse", 0, 0)), "sql.parse");
  EXPECT_EQ(LayerOf(S("sql", "whatever", 0, 0)), "other");
  EXPECT_EQ(LayerOf(S("exec", "SeqScan(LINEITEM)", 0, 0)), "exec.scan");
  EXPECT_EQ(LayerOf(S("exec", "ColumnarScan(X)", 0, 0)), "exec.scan");
  EXPECT_EQ(LayerOf(S("exec", "IndexScan(VBAP~0)", 0, 0)), "exec.index");
  EXPECT_EQ(LayerOf(S("exec", "IndexNLJoin(a=b)", 0, 0)), "exec.index");
  EXPECT_EQ(LayerOf(S("exec", "HashJoin(a=b)", 0, 0)), "exec.join");
  EXPECT_EQ(LayerOf(S("exec", "NLOuterJoin", 0, 0)), "exec.join");
  EXPECT_EQ(LayerOf(S("exec", "HashAggregate(g)", 0, 0)), "exec.agg");
  EXPECT_EQ(LayerOf(S("exec", "Distinct", 0, 0)), "exec.agg");
  EXPECT_EQ(LayerOf(S("exec", "Project(x)", 0, 0)), "exec.project");
  EXPECT_EQ(LayerOf(S("exec", "Filter(Scan = 1)", 0, 0)), "exec.other");
  EXPECT_EQ(LayerOf(S("interface", "db_call.cursor", 0, 0)), "interface");
  EXPECT_EQ(LayerOf(S("io", "page_read.seq", 0, 0)), "other");
}

TEST(ParseChromeTraceTest, ReadsATracerExport) {
  r3::SimClock clock;
  r3::Tracer tracer(&clock);
  {
    r3::TraceSpan outer(&clock, "app", "report \"quoted\"");
    outer.ArgStr("table", "VBAK");
    {
      r3::TraceSpan inner(&clock, "sql", "execute");
      inner.ArgInt("rows", 3);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    tracer.Instant("app", "table_buffer.hit");
  }
  std::vector<Span> spans;
  int64_t instants = 0;
  int64_t dropped = -1;
  ASSERT_TRUE(
      ParseChromeTrace(tracer.ExportChromeJson(), &spans, &instants, &dropped)
          .ok());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(spans[0].category, "sql");
  EXPECT_EQ(spans[1].name, "report \"quoted\"");
  EXPECT_GE(spans[0].dur_us, 2000);
  EXPECT_GE(spans[1].dur_us, spans[0].dur_us);

  std::map<std::string, LayerTotal> totals;
  AccumulateLayers(spans, &totals);
  EXPECT_EQ(totals["sql.execute"].self_us, spans[0].dur_us);
  EXPECT_EQ(totals["app"].self_us, spans[1].dur_us - spans[0].dur_us);
  EXPECT_EQ(totals["app"].spans, 1);
}

TEST(ParseChromeTraceTest, RejectsMalformedAndWallLessExports) {
  std::vector<Span> spans;
  int64_t instants = 0;
  int64_t dropped = 0;
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[", &spans, &instants,
                                &dropped)
                   .ok());
  EXPECT_FALSE(ParseChromeTrace("{} trailing", &spans, &instants, &dropped).ok());
  r3::SimClock clock;
  r3::Tracer tracer(&clock, r3::TraceOptions{/*include_wall_time=*/false});
  { r3::TraceSpan span(&clock, "app", "x"); }
  EXPECT_FALSE(
      ParseChromeTrace(tracer.ExportChromeJson(), &spans, &instants, &dropped)
          .ok());
}

}  // namespace
}  // namespace wallbench
