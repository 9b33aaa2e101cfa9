// Assertion-macro semantics, the structured error taxonomy, and the
// deterministic fault schedules.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "io/checkpoint.hpp"
#include "io/crc32.hpp"
#include "util/common.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace rsm {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    RSM_CHECK_MSG(1 + 1 == 3, "math broke: " << 42);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos);
    EXPECT_NE(what.find("math broke: 42"), std::string::npos);
  }
}

TEST(Dcheck, FiresExactlyInDebugBuilds) {
  // RSM_DCHECK must throw in debug builds and must not even EVALUATE its
  // argument in release builds (it is in hot loops).
  int evaluations = 0;
  auto touch = [&evaluations]() {
    ++evaluations;
    return true;
  };
  RSM_DCHECK(touch());
  EXPECT_EQ(evaluations, kDchecksEnabled ? 1 : 0);

  if (kDchecksEnabled) {
    EXPECT_THROW(RSM_DCHECK(false), Error);
  } else {
    EXPECT_NO_THROW(RSM_DCHECK(false));
  }
}

TEST(ErrorTaxonomy, CodesAndNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kSingularMatrix),
               "singular-matrix");
  EXPECT_STREQ(error_code_name(ErrorCode::kNoConvergence), "no-convergence");
  EXPECT_STREQ(error_code_name(ErrorCode::kNumericalDomain),
               "numerical-domain");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnclassified), "unclassified");
}

TEST(ErrorTaxonomy, CarriesSampleAndStrategyContext) {
  const SingularMatrixError e("zero pivot", "gmin-stepping", 17);
  EXPECT_EQ(e.code(), ErrorCode::kSingularMatrix);
  EXPECT_EQ(e.strategy(), "gmin-stepping");
  EXPECT_EQ(e.sample(), 17);
  const std::string what = e.what();
  EXPECT_NE(what.find("singular-matrix"), std::string::npos);
  EXPECT_NE(what.find("gmin-stepping"), std::string::npos);
  EXPECT_NE(what.find("17"), std::string::npos);
  EXPECT_NE(what.find("zero pivot"), std::string::npos);
}

TEST(ErrorTaxonomy, ConvergenceErrorRecordsIterations) {
  const ConvergenceError e("stalled", 123, "newton");
  EXPECT_EQ(e.code(), ErrorCode::kNoConvergence);
  EXPECT_EQ(e.iterations(), 123);
}

TEST(ErrorTaxonomy, ClassifyMapsToCodes) {
  EXPECT_EQ(classify_error(SingularMatrixError("x")),
            ErrorCode::kSingularMatrix);
  EXPECT_EQ(classify_error(ConvergenceError("x", 1)),
            ErrorCode::kNoConvergence);
  EXPECT_EQ(classify_error(NumericalDomainError("x")),
            ErrorCode::kNumericalDomain);
  EXPECT_EQ(classify_error(Error("legacy")), ErrorCode::kUnclassified);
  EXPECT_EQ(classify_error(std::runtime_error("foreign")),
            ErrorCode::kUnclassified);
}

TEST(ErrorTaxonomy, SubclassesCatchAsError) {
  // Every taxonomy member must remain catchable as rsm::Error so legacy
  // call sites keep working.
  EXPECT_THROW(throw SingularMatrixError("x"), Error);
  EXPECT_THROW(throw ConvergenceError("x", 1), Error);
  EXPECT_THROW(throw NumericalDomainError("x"), Error);
}

TEST(FaultInjector, DisabledNeverFaults) {
  const FaultSchedule<FaultKind> off;
  EXPECT_FALSE(off.enabled());
  for (Index k = 0; k < 100; ++k) {
    EXPECT_EQ(off.kind(k), FaultKind::kNone);
    EXPECT_NO_THROW(off.throw_if_faulted(k, 0));
  }
}

TEST(FaultInjector, DeterministicAndSeedDependent) {
  const FaultSchedule<FaultKind> a({.fault_rate = 0.1, .seed = 7});
  const FaultSchedule<FaultKind> b({.fault_rate = 0.1, .seed = 7});
  const FaultSchedule<FaultKind> c({.fault_rate = 0.1, .seed = 8});
  int differences = 0;
  for (Index k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.kind(k), b.kind(k));
    EXPECT_EQ(a.is_persistent(k), b.is_persistent(k));
    if (a.kind(k) != c.kind(k)) ++differences;
  }
  EXPECT_GT(differences, 0);  // a different seed gives a different plan
}

TEST(FaultInjector, RateIsApproximatelyHonored) {
  const FaultSchedule<FaultKind> inj({.fault_rate = 0.05, .seed = 42});
  int faulted = 0;
  for (Index k = 0; k < 10000; ++k)
    if (inj.kind(k) != FaultKind::kNone) ++faulted;
  EXPECT_GT(faulted, 300);  // ~500 expected
  EXPECT_LT(faulted, 700);
}

TEST(FaultInjector, TransientFaultsClearOnRetryPersistentDoNot) {
  const FaultSchedule<FaultKind> inj(
      {.fault_rate = 0.3, .persistent_fraction = 0.5, .seed = 3});
  for (Index k = 0; k < 500; ++k) {
    if (inj.kind(k) == FaultKind::kNone) {
      EXPECT_FALSE(inj.should_fail(k, 0));
      continue;
    }
    EXPECT_TRUE(inj.should_fail(k, 0));  // first attempt always fails
    EXPECT_EQ(inj.should_fail(k, 1), inj.is_persistent(k));
    EXPECT_EQ(inj.should_fail(k, 5), inj.is_persistent(k));
  }
}

TEST(FaultInjector, ThrowsTheAdvertisedTaxonomyType) {
  const FaultSchedule<FaultKind> inj({.fault_rate = 1.0, .seed = 11});
  bool saw_singular = false;
  bool saw_stall = false;
  for (Index k = 0; k < 100; ++k) {
    try {
      inj.throw_if_faulted(k, 0);
      FAIL() << "fault_rate 1.0 must fault every sample";
    } catch (const StructuredError& e) {
      EXPECT_EQ(e.sample(), k);
      EXPECT_EQ(e.strategy(), "fault-injection");
      if (inj.kind(k) == FaultKind::kSingularSolve) {
        EXPECT_EQ(e.code(), ErrorCode::kSingularMatrix);
        saw_singular = true;
      } else {
        EXPECT_EQ(e.code(), ErrorCode::kNoConvergence);
        saw_stall = true;
      }
    }
  }
  EXPECT_TRUE(saw_singular);
  EXPECT_TRUE(saw_stall);
}

// ---- Pinned schedules. Checkpoints bind a resume to the fault plan, and
// tests assert exact quarantine sets, so no schedule bit may move. Each
// hash folds one layer's decisions over kPinnedOps ops at three or four
// (rate, seed) plans, the layer's default seed among them; the expected
// values were printed by the same sweep linked against the four per-layer
// injector classes that FaultSchedule<Kind> replaced. ----

constexpr std::uint64_t kPinnedOps = 4096;

struct PinHash {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) { value = io::fnv1a64(&v, sizeof v, value); }
};

/// Folds kind() of the first kPinnedOps ops under `plan` into `hash`.
template <typename Kind>
void fold_kinds(PinHash& hash, const FaultScheduleOptions<Kind>& plan) {
  const FaultSchedule<Kind> schedule(plan);
  for (std::uint64_t op = 0; op < kPinnedOps; ++op)
    hash.add(static_cast<std::uint64_t>(schedule.kind(op)));
}

TEST(FaultSchedulePins, SampleLayer) {
  PinHash hash;
  auto fold = [&hash](const FaultSchedule<FaultKind>::Options& plan) {
    const FaultSchedule<FaultKind> schedule(plan);
    for (Index op = 0; op < static_cast<Index>(kPinnedOps); ++op) {
      hash.add(static_cast<std::uint64_t>(schedule.kind(op)));
      hash.add(schedule.is_persistent(op));
      hash.add(schedule.should_fail(op, 0));
      hash.add(schedule.should_fail(op, 1));
    }
  };
  fold({.fault_rate = 0.05});
  fold({.fault_rate = 0.3, .persistent_fraction = 0.25, .seed = 7});
  fold({.fault_rate = 1.0, .seed = 42});
  fold({.fault_rate = 0.5, .persistent_fraction = 1.0, .seed = 1234});
  EXPECT_EQ(hash.value, 0xcb54c8cf9e886226ull);

  const FaultSchedule<FaultKind> disabled;
  EXPECT_EQ(io::fault_plan_fingerprint(disabled, 3), 0xf526eb3f47cf94aeull);
  const FaultSchedule<FaultKind> plan({.fault_rate = 0.1, .seed = 7});
  EXPECT_EQ(io::fault_plan_fingerprint(plan, 3), 0x9686a7601a629f45ull);
}

TEST(FaultSchedulePins, WorkerLayer) {
  PinHash hash;
  fold_kinds<WorkerFaultKind>(hash, {.fault_rate = 0.05});
  fold_kinds<WorkerFaultKind>(hash, {.fault_rate = 0.4, .seed = 1});
  fold_kinds<WorkerFaultKind>(hash, {.fault_rate = 1.0, .seed = 3});
  EXPECT_EQ(hash.value, 0x53c0b2b5757a9804ull);
}

TEST(FaultSchedulePins, FsLayer) {
  PinHash hash;
  fold_kinds<FsFaultKind>(hash, {.fault_rate = 0.05});
  fold_kinds<FsFaultKind>(hash, {.fault_rate = 0.5, .seed = 6});
  fold_kinds<FsFaultKind>(hash, {.fault_rate = 0.25, .seed = 99});
  EXPECT_EQ(hash.value, 0xcd3de230a67a1264ull);
}

}  // namespace
}  // namespace rsm
