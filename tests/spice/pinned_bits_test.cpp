// Pinned bits of the simulator's linear core. One netlist holds every linear
// element (R, C, I, V, VCVS, VCCS) with values drawn from Rng::uniform; the
// DC solution under the default ladder and under each one-strategy ladder,
// and the AC phasors at a few frequencies, are hashed over their raw bytes
// and compared with the hashes an earlier build printed. A refactor of the
// stamps, the element walk or the Newton loop must leave every bit where it
// was; a change that moves one has to say so and re-pin.
//
// Only uniform draws and IEEE arithmetic feed these values: the netlist has
// no MOSFET (its model calls exp and log1p), and the pseudo-transient ladder
// runs one rung so its geometric schedule never calls std::pow. No libm
// version can move them.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "io/crc32.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/netlist.hpp"
#include "stats/rng.hpp"

namespace rsm::spice {
namespace {

/// FNV-1a 64 over the raw bytes of each value, sizes included.
class BitHash {
 public:
  template <class T>
  BitHash& add(const std::vector<T>& values) {
    const std::uint64_t count = values.size();
    hash_ = io::fnv1a64(&count, sizeof(count), hash_);
    hash_ = io::fnv1a64(values.data(), values.size() * sizeof(T), hash_);
    return *this;
  }
  BitHash& add(std::int64_t value) {
    hash_ = io::fnv1a64(&value, sizeof(value), hash_);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = io::kFnvOffsetBasis;
};

/// A six-node network: a driven ladder with a capacitive tap, a current
/// injection, a VCVS buffer and a VCCS feedback path. Every value is drawn
/// from Rng::uniform.
Netlist linear_netlist() {
  Rng rng(2201);
  Netlist n;
  std::vector<NodeId> v;
  for (const char* name : {"n1", "n2", "n3", "n4", "n5", "n6"})
    v.push_back(n.node(name));
  const auto r = [&rng] { return rng.uniform(1e3, 1e4); };
  const auto c = [&rng] { return rng.uniform(1e-12, 1e-11); };
  n.add_vsource(v[0], kGround, rng.uniform(0.5, 1.5), 1.0);
  n.add_resistor(v[0], v[1], r());
  n.add_resistor(v[1], v[2], r());
  n.add_resistor(v[2], kGround, r());
  n.add_resistor(v[1], v[3], r());
  n.add_resistor(v[3], v[4], r());
  n.add_resistor(v[4], kGround, r());
  n.add_resistor(v[2], v[5], r());
  n.add_resistor(v[5], kGround, r());
  n.add_capacitor(v[1], kGround, c());
  n.add_capacitor(v[4], v[2], c());
  n.add_capacitor(v[3], kGround, c());
  n.add_isource(kGround, v[3], rng.uniform(1e-5, 1e-4),
                rng.uniform(1e-6, 1e-5));
  n.add_vcvs(v[5], kGround, v[1], v[2], rng.uniform(0.5, 2.0));
  n.add_vccs(v[4], kGround, v[0], v[3], rng.uniform(1e-4, 1e-3));
  return n;
}

std::uint64_t hash_dc(const DcSolution& sol) {
  return BitHash()
      .add(sol.x)
      .add(sol.iterations)
      .add(static_cast<std::int64_t>(sol.strategy))
      .value();
}

DcOptions one_strategy(DcStrategy strategy) {
  DcOptions opt;
  opt.strategies = {strategy};
  opt.ptran_steps = 1;
  return opt;
}

TEST(SpicePinnedBits, DcUnderEveryLadder) {
  const Netlist n = linear_netlist();
  // Plain Newton converges, so the default ladder stops at its first rung.
  EXPECT_EQ(hash_dc(solve_dc(n)), 0x01ca2dc552f15a84ull);
  EXPECT_EQ(hash_dc(solve_dc(n, one_strategy(DcStrategy::kNewton))),
            0x01ca2dc552f15a84ull);
  EXPECT_EQ(hash_dc(solve_dc(n, one_strategy(DcStrategy::kGminStepping))),
            0x21aed9058c68acb4ull);
  EXPECT_EQ(hash_dc(solve_dc(n, one_strategy(DcStrategy::kSourceStepping))),
            0x7e9f2e20ad368b17ull);
  EXPECT_EQ(hash_dc(solve_dc(n, one_strategy(DcStrategy::kPseudoTransient))),
            0x91d41a026b62c4e4ull);
}

TEST(SpicePinnedBits, AcPhasors) {
  const Netlist n = linear_netlist();
  const DcSolution op = solve_dc(n);
  BitHash hash;
  for (const Real hz : {1e3, 1e6, 3e7, 1e9}) hash.add(solve_ac(n, op, hz));
  EXPECT_EQ(hash.value(), 0x55d58671557cf7d4ull);
}

}  // namespace
}  // namespace rsm::spice
