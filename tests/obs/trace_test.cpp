#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>

#include "util/thread_pool.hpp"

namespace rsm::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kTracingCompiled)
      GTEST_SKIP() << "built with RSM_TRACING=OFF; spans compile to no-ops";
    set_tracing_enabled(true);
    reset_tracing();
  }
  void TearDown() override {
    reset_tracing();
    set_tracing_enabled(kTracingCompiled);
  }
};

void burn(int loops) {
  volatile double x = 1.0;
  for (int i = 0; i < loops; ++i) x = x * 1.0000001 + 1e-9;
}

TEST_F(TraceTest, RecordsNestedSpans) {
  {
    RSM_TRACE_SPAN("outer");
    burn(1000);
    {
      RSM_TRACE_SPAN("inner");
      burn(1000);
    }
    {
      RSM_TRACE_SPAN("inner");
      burn(1000);
    }
  }
  const SpanStats root = trace_snapshot();
  const SpanStats* outer = root.child("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_GT(outer->total_seconds, 0.0);
  const SpanStats* inner = outer->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_LE(inner->total_seconds, outer->total_seconds);
  EXPECT_LE(inner->min_seconds, inner->max_seconds);
  // "inner" exists only under "outer" — nesting is positional, not global.
  EXPECT_EQ(root.child("inner"), nullptr);
}

TEST_F(TraceTest, MinMaxBracketEachCall) {
  for (int i = 0; i < 5; ++i) {
    RSM_TRACE_SPAN("repeat");
    burn(100 * (i + 1));
  }
  const SpanStats root = trace_snapshot();
  const SpanStats* node = root.child("repeat");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 5u);
  EXPECT_GE(node->min_seconds, 0.0);
  EXPECT_GE(node->max_seconds, node->min_seconds);
  EXPECT_GE(node->total_seconds, node->max_seconds);
  EXPECT_LE(node->total_seconds, 5 * node->max_seconds + 1e-12);
}

int fib_traced(int n) {
  RSM_TRACE_SPAN("fib");
  if (n <= 1) return n;
  return fib_traced(n - 1) + fib_traced(n - 2);
}

TEST_F(TraceTest, ReentrantSpansNestAsAChain) {
  fib_traced(5);
  // Recursion builds a "fib" chain; every level is reachable and counted.
  SpanStats root = trace_snapshot();
  const SpanStats* node = root.child("fib");
  ASSERT_NE(node, nullptr);
  std::uint64_t total_calls = 0;
  int depth = 0;
  while (node != nullptr) {
    total_calls += node->count;
    node = node->child("fib");
    ++depth;
  }
  // fib(5) makes 15 calls, max recursion depth 5.
  EXPECT_EQ(total_calls, 15u);
  EXPECT_EQ(depth, 5);
  // total_named sums every "fib" node; each level's total includes its
  // recursive children, so the sum dominates the top-level total.
  EXPECT_GE(root.total_named("fib"), root.child("fib")->total_seconds);
}

TEST_F(TraceTest, TotalNamedSumsAcrossSubtrees) {
  {
    RSM_TRACE_SPAN("a");
    { RSM_TRACE_SPAN("x"); burn(100); }
  }
  {
    RSM_TRACE_SPAN("b");
    { RSM_TRACE_SPAN("x"); burn(100); }
  }
  const SpanStats root = trace_snapshot();
  const double ax = root.child("a")->child("x")->total_seconds;
  const double bx = root.child("b")->child("x")->total_seconds;
  EXPECT_DOUBLE_EQ(root.total_named("x"), ax + bx);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  set_tracing_enabled(false);
  {
    RSM_TRACE_SPAN("ghost");
    burn(100);
  }
  set_tracing_enabled(true);
  const SpanStats root = trace_snapshot();
  EXPECT_EQ(root.child("ghost"), nullptr);
  EXPECT_TRUE(root.children.empty());
}

TEST_F(TraceTest, ResetClearsAccumulatedStats) {
  {
    RSM_TRACE_SPAN("short_lived");
  }
  ASSERT_NE(trace_snapshot().child("short_lived"), nullptr);
  reset_tracing();
  EXPECT_EQ(trace_snapshot().child("short_lived"), nullptr);
}

TEST_F(TraceTest, ExitedThreadSpansMergeIntoSnapshot) {
  std::thread worker([] {
    RSM_TRACE_SPAN("worker.task");
    burn(1000);
  });
  worker.join();
  const SpanStats root = trace_snapshot();
  const SpanStats* node = root.child("worker.task");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 1u);
}

TEST_F(TraceTest, TwoExitedThreadsAccumulateCounts) {
  for (int t = 0; t < 2; ++t) {
    std::thread worker([] {
      for (int i = 0; i < 3; ++i) {
        RSM_TRACE_SPAN("pooled.op");
      }
    });
    worker.join();
  }
  const SpanStats root = trace_snapshot();
  const SpanStats* node = root.child("pooled.op");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 6u);
}

// Pool workers never exit, so their own trees never reach a snapshot. Three
// parts that wait for one another run on the caller and both workers, and
// every part's spans still appear once, under the caller's span.
TEST_F(TraceTest, PoolPartSpansMergeUnderTheCallersSpan) {
  ThreadPool::Options options;
  options.num_threads = 2;
  ThreadPool pool(options);
  constexpr std::size_t kParts = 3;
  std::atomic<std::size_t> arrived{0};
  {
    RSM_TRACE_SPAN("fan.out");
    traced_parallel_for(&pool, kParts, [&](std::size_t) {
      RSM_TRACE_SPAN("fan.part");
      arrived++;
      while (arrived.load() < kParts) std::this_thread::yield();
      RSM_TRACE_SPAN("fan.inner");
    });
  }
  const SpanStats root = trace_snapshot();
  EXPECT_EQ(root.child("fan.part"), nullptr);
  const SpanStats* fan = root.child("fan.out");
  ASSERT_NE(fan, nullptr);
  const SpanStats* part = fan->child("fan.part");
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(part->count, kParts);
  const SpanStats* inner = part->child("fan.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, kParts);
}

}  // namespace
}  // namespace rsm::obs
