// obs trace suite: span-tree structure, RAII closure on error paths,
// disarmed no-op behavior, the span-arena cap, note accumulation, the
// thread-local arm/restore discipline and the bounded slow-query ring.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "common/result.h"

namespace grnn::obs {
namespace {

TEST(TraceContextTest, PreorderTreeWithParentLinks) {
  TraceContext ctx;
  ctx.Begin();
  const int32_t root = ctx.Open("query");
  const int32_t child = ctx.Open("hub.sweep");
  ctx.Close(child);
  const int32_t sibling = ctx.Open("hub.verify");
  const int32_t grandchild = ctx.Open("page.miss");
  ctx.Close(grandchild);
  ctx.Close(sibling);
  ctx.Close(root);
  ASSERT_TRUE(ctx.AllClosed());
  const auto& spans = ctx.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_STREQ(spans[0].name, "query");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, root);
  EXPECT_EQ(spans[3].parent, sibling);
  // Closed spans carry a duration; opens are preorder by start time.
  EXPECT_GE(spans[3].start_nanos, spans[2].start_nanos);
}

TEST(TraceContextTest, BeginResetsPriorTrace) {
  TraceContext ctx;
  ctx.Begin();
  ctx.Close(ctx.Open("a"));
  ASSERT_EQ(ctx.spans().size(), 1u);
  ctx.Begin();
  EXPECT_TRUE(ctx.spans().empty());
  EXPECT_EQ(ctx.dropped_spans(), 0u);
}

TEST(TraceContextTest, NotesAccumulateByKey) {
  TraceContext ctx;
  ctx.Begin();
  const int32_t s = ctx.Open("label.scan");
  ctx.Note("entries", 3);
  ctx.Note("entries", 4);
  ctx.NoteOn(s, "pins", 1);
  ctx.Close(s);
  const auto& notes = ctx.spans()[0].notes;
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_STREQ(notes[0].first, "entries");
  EXPECT_EQ(notes[0].second, 7u);
  EXPECT_EQ(notes[1].second, 1u);
}

TEST(TraceContextTest, NoteWithoutOpenSpanIsNoOp) {
  TraceContext ctx;
  ctx.Begin();
  ctx.Note("ignored", 1);  // nothing open: must not crash or record
  EXPECT_TRUE(ctx.spans().empty());
}

TEST(TraceContextTest, ArenaCapCountsDroppedSpans) {
  TraceContext ctx;
  ctx.Begin();
  std::vector<int32_t> open;
  for (size_t i = 0; i < TraceContext::kMaxSpans + 10; ++i) {
    open.push_back(ctx.Open("deep"));
  }
  EXPECT_EQ(ctx.spans().size(), TraceContext::kMaxSpans);
  EXPECT_EQ(ctx.dropped_spans(), 10u);
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    ctx.Close(*it);  // Close(-1) for the dropped ones is a no-op
  }
  EXPECT_TRUE(ctx.AllClosed());
}

// ScopedSpan must close the tree on early error returns.
Status FailsMidSpan(TraceContext* ctx) {
  ScopedSpan outer(ctx, "query");
  ScopedSpan inner(ctx, "hub.sweep");
  return Status::Internal("label page corrupt");
}

TEST(ScopedSpanTest, ClosesOnErrorPath) {
  TraceContext ctx;
  ctx.Begin();
  EXPECT_FALSE(FailsMidSpan(&ctx).ok());
  EXPECT_TRUE(ctx.AllClosed());
  ASSERT_EQ(ctx.spans().size(), 2u);
  EXPECT_GT(ctx.spans()[1].duration_nanos, 0u);
}

TEST(ScopedSpanTest, NullContextIsDisarmedNoOp) {
  ScopedSpan span(nullptr, "anything");
  EXPECT_FALSE(span.armed());
  span.Note("k", 1);  // must be a no-op, not a crash
}

TEST(TraceArmTest, PublishesAndRestoresThreadLocal) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  TraceContext outer_ctx;
  outer_ctx.Begin();
  {
    TraceArm outer(&outer_ctx);
    EXPECT_EQ(CurrentTrace(), &outer_ctx);
    TraceContext inner_ctx;
    inner_ctx.Begin();
    {
      TraceArm inner(&inner_ctx);
      EXPECT_EQ(CurrentTrace(), &inner_ctx);
    }
    EXPECT_EQ(CurrentTrace(), &outer_ctx);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(SlowQueryLogTest, RingBoundsAndDrain) {
  SlowQueryLog log;
  for (int i = 0; i < 5; ++i) {
    SlowQuery q;
    q.label = "q" + std::to_string(i);
    log.Push(std::move(q), /*capacity=*/3);
  }
  EXPECT_EQ(log.dropped(), 2u);
  std::vector<SlowQuery> drained = log.Drain();
  ASSERT_EQ(drained.size(), 3u);
  // Oldest dropped: survivors are the most recent, oldest first.
  EXPECT_EQ(drained.front().label, "q2");
  EXPECT_EQ(drained.back().label, "q4");
  EXPECT_TRUE(log.Drain().empty());
}

}  // namespace
}  // namespace grnn::obs
