// Cooperative stop machinery: tokens, deadlines, the ambient scoped control
// stack, and end-to-end interruption of an instrumented solver loop.
#include <gtest/gtest.h>

#include "core/omp.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/cancellation.hpp"
#include "util/errors.hpp"

namespace rsm {
namespace {

TEST(CancellationTokenTest, DefaultTokenNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTokenTest, SourceCancelPropagatesToEveryToken) {
  CancellationSource source;
  const CancellationToken a = source.token();
  const CancellationToken b = source.token();
  EXPECT_FALSE(source.cancel_requested());
  EXPECT_FALSE(a.cancelled());
  source.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
}

TEST(DeadlineTest, DefaultIsUnlimited) {
  const Deadline d;
  EXPECT_FALSE(d.is_limited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 1e17);
}

TEST(DeadlineTest, NonPositiveBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::after_seconds(0).expired());
  EXPECT_TRUE(Deadline::after_seconds(-1).expired());
  EXPECT_FALSE(Deadline::after_seconds(3600).expired());
}

TEST(DeadlineTest, SoonerPrefersTheLimitedDeadline) {
  const Deadline limited = Deadline::after_seconds(10);
  const Deadline unlimited = Deadline::unlimited();
  EXPECT_TRUE(Deadline::sooner(limited, unlimited).is_limited());
  EXPECT_TRUE(Deadline::sooner(unlimited, limited).is_limited());
  EXPECT_FALSE(Deadline::sooner(unlimited, unlimited).is_limited());
  const Deadline tight = Deadline::after_seconds(-1);
  EXPECT_TRUE(Deadline::sooner(tight, limited).expired());
  EXPECT_TRUE(Deadline::sooner(limited, tight).expired());
}

TEST(ScopedRunControlTest, NoScopeMeansNoop) {
  EXPECT_FALSE(cooperative_stop_requested());
  EXPECT_NO_THROW(check_cooperative_stop("test.noscope"));
}

TEST(ScopedRunControlTest, CancelledScopeThrowsStructuredError) {
  CancellationSource source;
  source.request_cancel();
  ScopedRunControl scope({source.token(), Deadline::unlimited()});
  EXPECT_TRUE(cooperative_stop_requested());
  try {
    check_cooperative_stop("test.site", 17);
    FAIL() << "check should have thrown";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
  }
}

TEST(ScopedRunControlTest, ExpiredDeadlineThrows) {
  ScopedRunControl scope({CancellationToken{}, Deadline::after_seconds(-1)});
  EXPECT_TRUE(cooperative_stop_requested());
  EXPECT_THROW(check_cooperative_stop("test.deadline"),
               DeadlineExceededError);
}

TEST(ScopedRunControlTest, ScopesNestAndOuterIsHonored) {
  CancellationSource outer;
  ScopedRunControl outer_scope({outer.token(), Deadline::unlimited()});
  {
    // Inner scope is healthy; the cancelled *outer* scope must still stop
    // the nested work.
    ScopedRunControl inner({CancellationToken{}, Deadline::unlimited()});
    EXPECT_NO_THROW(check_cooperative_stop("test.nested"));
    outer.request_cancel();
    EXPECT_THROW(check_cooperative_stop("test.nested"),
                 DeadlineExceededError);
  }
  EXPECT_THROW(check_cooperative_stop("test.outer"), DeadlineExceededError);
}

TEST(ScopedRunControlTest, ScopeRemovalRestoresPreviousState) {
  {
    ScopedRunControl scope({CancellationToken{}, Deadline::after_seconds(-1)});
    EXPECT_TRUE(cooperative_stop_requested());
  }
  EXPECT_FALSE(cooperative_stop_requested());
  EXPECT_NO_THROW(check_cooperative_stop("test.after"));
}

TEST(ScopedRunControlTest, ClassifierMapsToDeadlineExceeded) {
  try {
    throw DeadlineExceededError("watchdog", "test");
  } catch (const std::exception& e) {
    EXPECT_EQ(classify_error(e), ErrorCode::kDeadlineExceeded);
  }
}

TEST(CooperativeSolverTest, GreedyFitUnwindsUnderCancelledScope) {
  // The OMP greedy loop polls check_cooperative_stop ambiently: a cancelled
  // scope installed by a caller (the campaign layer in production) must
  // interrupt the fit without any solver-option plumbing.
  Rng rng(3);
  const Matrix g = monte_carlo_normal(40, 25, rng);
  std::vector<Real> f(40);
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = g(static_cast<Index>(i), 0) + 0.5 * g(static_cast<Index>(i), 3);

  const OmpSolver solver;
  {
    CancellationSource source;
    source.request_cancel();
    ScopedRunControl scope({source.token(), Deadline::unlimited()});
    EXPECT_THROW((void)solver.fit_path(MaterializedSource(g), f, 10),
                 DeadlineExceededError);
  }
  // Outside the scope the same fit succeeds.
  const SolverPath path = solver.fit_path(MaterializedSource(g), f, 10);
  EXPECT_GT(path.num_steps(), 0);
}

}  // namespace
}  // namespace rsm
