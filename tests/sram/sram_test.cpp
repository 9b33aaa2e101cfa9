#include "sram/sram.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "io/crc32.hpp"
#include "stats/descriptive.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm::sram {
namespace {

SramConfig small_config() {
  SramConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  return cfg;
}

class SramTest : public ::testing::Test {
 protected:
  SramWorkload workload_{small_config()};
};

TEST(SramVariableMapTest, PaperVariableCount) {
  // Default geometry reproduces the paper's 21 310 independent variables.
  EXPECT_EQ(SramVariableMap(SramConfig{}).total(), 21310);
}

TEST(SramVariableMapTest, LayoutIsDisjointAndComplete) {
  const SramConfig cfg = small_config();
  const SramVariableMap vm(cfg);
  std::vector<int> hits(static_cast<std::size_t>(vm.total()), 0);
  for (Index g = 0; g < vm.num_globals; ++g) ++hits[static_cast<std::size_t>(vm.global(g))];
  for (Index s = 0; s < cfg.driver_stages; ++s)
    for (Index p = 0; p < 2; ++p) ++hits[static_cast<std::size_t>(vm.driver(s, p))];
  for (Index c = 0; c < cfg.replica_cells; ++c)
    for (Index p = 0; p < 2; ++p) ++hits[static_cast<std::size_t>(vm.replica(c, p))];
  for (Index p = 0; p < vm.num_sense_vars; ++p) ++hits[static_cast<std::size_t>(vm.sense(p))];
  for (Index p = 0; p < vm.num_misc_vars; ++p) ++hits[static_cast<std::size_t>(vm.misc(p))];
  for (Index r = 0; r < cfg.rows; ++r)
    for (Index c = 0; c < cfg.cols; ++c) ++hits[static_cast<std::size_t>(vm.cell(r, c))];
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(SramTest, NominalDelayInRange) {
  EXPECT_GT(workload_.nominal(), 2e-11);
  EXPECT_LT(workload_.nominal(), 2e-9);
}

TEST_F(SramTest, Deterministic) {
  Rng rng(3);
  const std::vector<Real> dy = rng.normal_vector(workload_.num_variables());
  EXPECT_EQ(workload_.evaluate(dy), workload_.evaluate(dy));
}

TEST_F(SramTest, WeakerAccessedCellSlowsRead) {
  const SramVariableMap& vm = workload_.variable_map();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()), 0.0);
  dy[static_cast<std::size_t>(vm.cell(0, 0))] = 2.0;  // +2 sigma Vth
  const Real slow = workload_.evaluate(dy);
  dy[static_cast<std::size_t>(vm.cell(0, 0))] = -2.0;
  const Real fast = workload_.evaluate(dy);
  EXPECT_GT(slow, workload_.nominal());
  EXPECT_LT(fast, workload_.nominal());
}

TEST_F(SramTest, DelayMonotonicInAccessedCellVth) {
  const SramVariableMap& vm = workload_.variable_map();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()), 0.0);
  Real prev = -1;
  for (Real v = -3.0; v <= 3.0; v += 0.5) {
    dy[static_cast<std::size_t>(vm.cell(0, 0))] = v;
    const Real d = workload_.evaluate(dy);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(SramTest, SparsityStructure) {
  // An off-path cell moves the delay by orders of magnitude less than the
  // accessed cell — the Fig. 6 sparse coefficient spectrum.
  const SramVariableMap& vm = workload_.variable_map();
  const Real nominal = workload_.nominal();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()), 0.0);

  dy[static_cast<std::size_t>(vm.cell(0, 0))] = 1.0;
  const Real d_accessed = std::abs(workload_.evaluate(dy) - nominal);
  dy[static_cast<std::size_t>(vm.cell(0, 0))] = 0.0;

  // Same column (bit-line leakage): small but nonzero.
  dy[static_cast<std::size_t>(vm.cell(5, 0))] = 1.0;
  const Real d_column = std::abs(workload_.evaluate(dy) - nominal);
  dy[static_cast<std::size_t>(vm.cell(5, 0))] = 0.0;

  // Different column (supply droop only): tiny.
  dy[static_cast<std::size_t>(vm.cell(5, 3))] = 1.0;
  const Real d_far = std::abs(workload_.evaluate(dy) - nominal);

  EXPECT_GT(d_accessed, 100 * d_column);
  EXPECT_GT(d_column, d_far);
  EXPECT_GT(d_accessed, 1e4 * d_far);
  EXPECT_GT(d_far, 0.0);  // nothing is exactly zero (droop coupling)
}

TEST_F(SramTest, ReplicaCellsSetTiming) {
  const SramVariableMap& vm = workload_.variable_map();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()), 0.0);
  // Slower replica (higher Vth) -> later firing -> more bit-line swing ->
  // total delay shifts measurably.
  for (Index c = 0; c < small_config().replica_cells; ++c)
    dy[static_cast<std::size_t>(vm.replica(c, 0))] = 1.5;
  const Real shifted = workload_.evaluate(dy);
  EXPECT_GT(std::abs(shifted - workload_.nominal()),
            0.01 * workload_.nominal());
}

TEST_F(SramTest, SenseAmpOffsetShiftsDelay) {
  const SramVariableMap& vm = workload_.variable_map();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()), 0.0);
  dy[static_cast<std::size_t>(vm.sense(0))] = 2.0;
  const Real with_offset = workload_.evaluate(dy);
  EXPECT_NE(with_offset, workload_.nominal());
}

TEST_F(SramTest, DriverChainVariablesMatter) {
  const SramVariableMap& vm = workload_.variable_map();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()), 0.0);
  for (Index s = 0; s < small_config().driver_stages; ++s)
    dy[static_cast<std::size_t>(vm.driver(s, 0))] = 2.0;  // weaker drivers
  EXPECT_GT(workload_.evaluate(dy), workload_.nominal());
}

TEST_F(SramTest, MonteCarloSpreadReasonable) {
  Rng rng(11);
  std::vector<Real> delays;
  for (int i = 0; i < 200; ++i)
    delays.push_back(
        workload_.evaluate(rng.normal_vector(workload_.num_variables())));
  // Coefficient of variation: a few percent to a few tens of percent.
  const Real cv = stddev(delays) / mean(delays);
  EXPECT_GT(cv, 0.01);
  EXPECT_LT(cv, 0.5);
}

TEST_F(SramTest, MarginMetricIsPositiveNominally) {
  const std::vector<Real> zeros(
      static_cast<std::size_t>(workload_.num_variables()), 0.0);
  const auto m = workload_.evaluate_metrics(zeros);
  EXPECT_GT(m.margin, 0.05);  // healthy sensing margin
  EXPECT_LT(m.margin, 1.0);
  EXPECT_EQ(m.delay, workload_.nominal());
}

TEST_F(SramTest, WeakCellShrinksMargin) {
  const sram::SramVariableMap& vm = workload_.variable_map();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()),
                       0.0);
  const Real nominal_margin = workload_.evaluate_metrics(dy).margin;
  dy[static_cast<std::size_t>(vm.cell(0, 0))] = 2.5;  // weak accessed cell
  EXPECT_LT(workload_.evaluate_metrics(dy).margin, nominal_margin);
}

TEST_F(SramTest, SaOffsetEatsMarginLinearly) {
  const sram::SramVariableMap& vm = workload_.variable_map();
  std::vector<Real> dy(static_cast<std::size_t>(workload_.num_variables()),
                       0.0);
  const Real m0 = workload_.evaluate_metrics(dy).margin;
  dy[static_cast<std::size_t>(vm.sense(0))] = 1.0;
  const Real m1 = workload_.evaluate_metrics(dy).margin;
  dy[static_cast<std::size_t>(vm.sense(0))] = 2.0;
  const Real m2 = workload_.evaluate_metrics(dy).margin;
  EXPECT_NEAR(m0 - m1, workload_.config().sigma_sa_offset, 1e-12);
  EXPECT_NEAR(m1 - m2, m0 - m1, 1e-12);  // exactly linear in the offset var
}

TEST_F(SramTest, WrongSampleSizeThrows) {
  EXPECT_THROW((void)workload_.evaluate(std::vector<Real>(3, 0.0)), Error);
}

TEST(SramPinnedBits, PaperSizeDelayAndMargin) {
  // FNV-1a 64 over the bytes of each sample's delay, then its margin, for
  // 64 samples at the paper's geometry (21 310 variables), as an earlier
  // build printed them. A change to the model's arithmetic that moves a
  // bit has to say so and re-pin.
  const SramWorkload sram{SramConfig{}};
  Rng rng(64);
  const Matrix dy = monte_carlo_normal(64, sram.num_variables(), rng);
  std::uint64_t hash = io::kFnvOffsetBasis;
  for (Index r = 0; r < dy.rows(); ++r) {
    const SramWorkload::Metrics m = sram.evaluate_metrics(dy.row(r));
    hash = io::fnv1a64(&m.delay, sizeof(m.delay), hash);
    hash = io::fnv1a64(&m.margin, sizeof(m.margin), hash);
  }
  EXPECT_EQ(hash, 0x1a0f8ddc8a034788ull);
}

TEST(Sram, GeometryScalesVariableCount) {
  SramConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  const SramWorkload w(cfg);
  EXPECT_EQ(w.num_variables(),
            16 + 6 + 2 * cfg.driver_stages + 2 * cfg.replica_cells + 6 + 2);
}

}  // namespace
}  // namespace rsm::sram
