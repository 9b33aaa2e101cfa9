// Transient analysis: fixed-step backward Euler on the MNA system.
//
// Capacitors become conductance companions G = C/h with history current
// I_eq = (C/h) * v(t-h); every time point is one run of the DC solver's
// Newton loop (spice::newton_run) with those companions, warm-started from
// the previous point and held to the same convergence test. Backward Euler
// is L-stable — the right default for the stiff RC + square-law networks
// here — at the cost of first-order accuracy (halve `timestep` to check
// convergence).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "spice/netlist.hpp"
#include "util/common.hpp"

namespace rsm::spice {

struct TransientOptions {
  Real timestep = 1e-12;      // integration step h [s]
  Real stop_time = 1e-9;      // simulate t in [0, stop_time]

  /// Called before each step with the current time; mutate source values
  /// (e.g. netlist.vsource(id).dc = pulse(t)) to drive stimuli.
  std::function<void(Real time, Netlist&)> update_sources;

  /// Start from the DC operating point at t = 0 (with sources already set
  /// through update_sources(0)); if false, start from all-zeros.
  bool start_from_dc = true;
};

struct TransientResult {
  std::vector<Real> time;                 // sample instants
  std::vector<std::vector<Real>> states;  // MNA vector per instant

  /// Waveform of one node across the run.
  [[nodiscard]] std::vector<Real> node_waveform(NodeId node) const;

  [[nodiscard]] Real voltage(std::size_t step, NodeId node) const {
    if (node == kGround) return 0;
    return states[step][static_cast<std::size_t>(node - 1)];
  }
};

/// Runs the transient. The netlist is taken by mutable reference because
/// `update_sources` may steer its source values; element topology must not
/// change during the run. Throws if Newton fails at any time point.
[[nodiscard]] TransientResult run_transient(Netlist& netlist,
                                            const TransientOptions& options);

/// Convenience stimulus: a single rising step v0 -> v1 at t = t_step with
/// linear rise over t_rise.
[[nodiscard]] std::function<Real(Real)> step_waveform(Real v0, Real v1,
                                                      Real t_step,
                                                      Real t_rise);

}  // namespace rsm::spice
