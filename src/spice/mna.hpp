// Modified nodal analysis stamping.
//
// Unknown ordering: node voltages 1..n-1 first (ground eliminated), then one
// branch current per voltage source, then one per VCVS. One element walk
// stamps both analyses: real stamps serve the DC Newton loop (and with it
// every transient time point); complex stamps (G + jwC) serve AC analysis.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "spice/netlist.hpp"
#include "util/common.hpp"

namespace rsm::spice {

/// Dense MNA system A x = z under construction, over Real (DC) or
/// std::complex<Real> (AC). Header-only because it is a template.
template <typename T>
class Stamp {
 public:
  explicit Stamp(Index size)
      : n_(size), a_(static_cast<std::size_t>(size * size)),
        z_(static_cast<std::size_t>(size)) {}

  /// Admittance y between nodes a and b (a conductance at DC).
  void admittance(NodeId a, NodeId b, T y) {
    const Index ia = Netlist::mna_node_index(a);
    const Index ib = Netlist::mna_node_index(b);
    if (ia >= 0) add(ia, ia, y);
    if (ib >= 0) add(ib, ib, y);
    if (ia >= 0 && ib >= 0) {
      add(ia, ib, -y);
      add(ib, ia, -y);
    }
  }

  void current_into(NodeId node, T amps) {
    const Index i = Netlist::mna_node_index(node);
    if (i >= 0) add_rhs(i, amps);
  }

  /// Raw access for branch rows (voltage sources / VCVS).
  void add(Index row, Index col, T value) {
    RSM_DCHECK(row >= 0 && row < n_ && col >= 0 && col < n_);
    a_[static_cast<std::size_t>(row * n_ + col)] += value;
  }
  void add_rhs(Index row, T value) {
    RSM_DCHECK(row >= 0 && row < n_);
    z_[static_cast<std::size_t>(row)] += value;
  }

  [[nodiscard]] Index size() const { return n_; }
  [[nodiscard]] std::vector<T>& matrix() { return a_; }
  [[nodiscard]] std::vector<T>& rhs() { return z_; }

 private:
  Index n_;
  std::vector<T> a_;  // row-major n x n
  std::vector<T> z_;
};

/// Backward-Euler companion of a capacitor over one step h: conductance
/// g = C/h between a and b in parallel with the history current g * v_prev
/// into a, where v_prev is V(a) - V(b) at the previous point. Transient
/// analysis replaces every capacitor by one; the pseudo-transient DC aid
/// ties every node to ground through one.
struct Companion {
  NodeId a = kGround, b = kGround;
  Real g = 0;
  Real v_prev = 0;

  void stamp(Stamp<Real>& stamp) const {
    stamp.admittance(a, b, g);
    stamp.current_into(a, g * v_prev);
    stamp.current_into(b, -g * v_prev);
  }
};

/// Stamps every element of `netlist` into a real DC system (capacitors are
/// open at DC) and adds the companion models of all MOSFETs linearized at
/// the estimate `x`. `gmin` is a conductance tied from every node to ground
/// for convergence aid. `source_scale` multiplies every independent source
/// value — the source stepping homotopy ramps it 0 -> 1 (at 0 the only DC
/// solution is the all-off state, which Newton finds trivially).
void stamp_dc(const Netlist& netlist, std::span<const Real> x, Real gmin,
              Real source_scale, Stamp<Real>& stamp);

/// Stamps the small-signal system at angular frequency `omega`, linearizing
/// MOSFETs at the DC solution `dc_solution`. Independent sources contribute
/// their AC magnitudes (DC values are zeroed in small-signal analysis).
void stamp_ac(const Netlist& netlist, std::span<const Real> dc_solution,
              Real omega, Stamp<std::complex<Real>>& stamp);

/// Voltage of `node` in an MNA solution vector (0 for ground).
template <typename T>
[[nodiscard]] T node_voltage(std::span<const T> solution, NodeId node) {
  if (node == kGround) return T{};
  return solution[static_cast<std::size_t>(node - 1)];
}

}  // namespace rsm::spice
