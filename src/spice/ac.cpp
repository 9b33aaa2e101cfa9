#include "spice/ac.hpp"

#include <cmath>
#include <numbers>

#include "linalg/lu.hpp"
#include "spice/mna.hpp"

namespace rsm::spice {

std::vector<Phasor> solve_ac(const Netlist& netlist, const DcSolution& op,
                             Real hz) {
  RSM_CHECK(hz >= 0);
  const Index n = netlist.mna_size();
  Stamp<Phasor> stamp(n);
  const Real omega = 2 * std::numbers::pi_v<Real> * hz;
  stamp_ac(netlist, op.x, omega, stamp);
  ComplexLu lu(std::move(stamp.matrix()), n);
  return lu.solve(stamp.rhs());
}

Phasor ac_voltage(std::span<const Phasor> solution, NodeId node) {
  if (node == kGround) return {};
  return solution[static_cast<std::size_t>(node - 1)];
}

std::vector<AcSweepPoint> ac_sweep(const Netlist& netlist,
                                   const DcSolution& op, NodeId node,
                                   Real hz_start, Real hz_stop,
                                   int points_per_decade) {
  RSM_CHECK(hz_start > 0 && hz_stop > hz_start && points_per_decade >= 1);
  std::vector<AcSweepPoint> sweep;
  const Real decades = std::log10(hz_stop / hz_start);
  const int total = std::max(2, static_cast<int>(decades * points_per_decade) + 1);
  for (int i = 0; i < total; ++i) {
    const Real f = hz_start *
                   std::pow(Real{10}, decades * static_cast<Real>(i) /
                                          static_cast<Real>(total - 1));
    const std::vector<Phasor> sol = solve_ac(netlist, op, f);
    sweep.push_back({f, ac_voltage(sol, node)});
  }
  return sweep;
}

namespace {

Real magnitude_at(const Netlist& netlist, const DcSolution& op, NodeId node,
                  Real hz) {
  const std::vector<Phasor> sol = solve_ac(netlist, op, hz);
  return std::abs(ac_voltage(sol, node));
}

/// Finds the lowest f in [hz_lo, hz_stop] with magnitude(f) < threshold by
/// octave bracketing followed by log-domain bisection.
Real find_crossing(const Netlist& netlist, const DcSolution& op, NodeId node,
                   Real threshold, Real hz_lo, Real hz_stop) {
  Real lo = hz_lo;
  Real hi = lo;
  bool bracketed = false;
  while (hi < hz_stop) {
    hi = std::min(hi * 2, hz_stop);
    if (magnitude_at(netlist, op, node, hi) < threshold) {
      bracketed = true;
      break;
    }
    lo = hi;
  }
  if (!bracketed) return hz_stop;

  for (int i = 0; i < 60; ++i) {
    const Real mid = std::sqrt(lo * hi);
    if (magnitude_at(netlist, op, node, mid) < threshold) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi / lo < Real{1} + Real{1e-9}) break;
  }
  return std::sqrt(lo * hi);
}

}  // namespace

Real find_3db_bandwidth(const Netlist& netlist, const DcSolution& op,
                        NodeId node, Real hz_ref, Real hz_stop) {
  RSM_CHECK(hz_ref > 0 && hz_stop > hz_ref);
  const Real ref = magnitude_at(netlist, op, node, hz_ref);
  RSM_CHECK_MSG(ref > 0, "reference magnitude is zero");
  return find_crossing(netlist, op, node, ref / std::sqrt(Real{2}), hz_ref,
                       hz_stop);
}

Real find_unity_gain_frequency(const Netlist& netlist, const DcSolution& op,
                               NodeId node, Real hz_start, Real hz_stop) {
  RSM_CHECK(hz_start > 0 && hz_stop > hz_start);
  if (magnitude_at(netlist, op, node, hz_start) < Real{1}) return hz_start;
  return find_crossing(netlist, op, node, Real{1}, hz_start, hz_stop);
}

}  // namespace rsm::spice
