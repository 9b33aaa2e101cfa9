// Nonlinear DC operating-point analysis.
//
// Newton-Raphson on the MNA system with voltage-step damping, backed by a
// configurable escalation ladder of homotopy strategies — the same aids
// commercial simulators apply, in the same order:
//
//   1. kNewton          plain damped Newton at the target gmin
//   2. kGminStepping    large shunt conductance walked down to the target
//   3. kSourceStepping  all independent sources ramped 0 -> 100 %
//   4. kPseudoTransient pseudo-capacitor continuation: each node is pulled
//                       toward the previous pseudo-state by a conductance
//                       that is relaxed geometrically until Newton owns the
//                       solution (ptran / "dptran" in SPICE dialects)
//
// Every strategy ends with a verification run at the target gmin and full
// source strength, so a convergence claim always refers to the *requested*
// system. On failure solve_dc throws a structured taxonomy error
// (SingularMatrixError / ConvergenceError / NumericalDomainError, see
// util/errors.hpp) so campaign layers can retry, escalate, or quarantine.
#pragma once

#include <span>
#include <vector>

#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "util/common.hpp"
#include "util/errors.hpp"

namespace rsm::spice {

/// Convergence-aid strategies, in default escalation order.
enum class DcStrategy {
  kNewton,
  kGminStepping,
  kSourceStepping,
  kPseudoTransient,
};

[[nodiscard]] const char* dc_strategy_name(DcStrategy strategy);

struct DcOptions {
  int max_iterations = 200;
  Real voltage_tolerance = 1e-9;     // absolute [V]
  Real relative_tolerance = 1e-6;    // relative to node voltage / current
  Real current_tolerance = 1e-9;     // absolute, branch-current unknowns [A]
  Real max_step = 0.5;               // Newton damping: max |dV| per iteration
  Real gmin = 1e-12;                 // baseline convergence aid [S]
  int gmin_ladder_steps = 8;         // retries with decreasing gmin
  int source_ladder_steps = 10;      // source-stepping ramp points
  int ptran_steps = 30;              // pseudo-transient relaxation steps

  /// Escalation ladder, tried in order until one converges. Must be
  /// non-empty; campaigns shrink or reorder it per retry budget.
  std::vector<DcStrategy> strategies = {
      DcStrategy::kNewton, DcStrategy::kGminStepping,
      DcStrategy::kSourceStepping, DcStrategy::kPseudoTransient};
};

/// Progressively hardened options for campaign retries: level 0 returns
/// `base` unchanged; each further level doubles the iteration budget,
/// halves the damping step, and deepens every homotopy ladder.
[[nodiscard]] DcOptions escalated(const DcOptions& base, int level);

struct DcSolution {
  /// MNA unknowns: node voltages then branch currents (see mna.hpp).
  std::vector<Real> x;
  int iterations = 0;
  bool converged = false;

  /// Strategy that produced convergence, and how many were attempted.
  DcStrategy strategy = DcStrategy::kNewton;
  int strategies_tried = 0;

  [[nodiscard]] Real voltage(NodeId node) const {
    return node == kGround ? Real{0}
                           : x[static_cast<std::size_t>(node - 1)];
  }
};

/// Solves the DC operating point. `initial_guess` (optional, MNA-sized)
/// seeds Newton — passing the previous sample's solution makes per-sample
/// Monte Carlo evaluation converge in a couple of iterations.
///
/// Throws SingularMatrixError when every strategy died on a singular MNA
/// matrix (a topology problem no ladder can fix), NumericalDomainError when
/// an iterate left the finite domain, and ConvergenceError otherwise.
[[nodiscard]] DcSolution solve_dc(const Netlist& netlist,
                                  const DcOptions& options = {},
                                  std::span<const Real> initial_guess = {});

/// How one Newton run ended.
enum class NewtonResult { kConverged, kSingular, kNonFinite, kMaxIterations };

/// The convergence aids one Newton run stamps on top of the DC system.
struct NewtonAids {
  Real gmin = 0;
  Real source_scale = 1;
  /// Stamped last: a transient point's capacitors, or the
  /// pseudo-transient aid's node anchors.
  std::span<const Companion> companions = {};
};

/// One damped Newton run under fixed aids: the loop under every solve_dc
/// strategy and every transient time point. `x` holds the initial guess on
/// entry and the last iterate on exit; `iterations_used` accumulates the
/// iterations run. The run converges only when node-voltage and
/// branch-current updates have both settled, and ends at once on a
/// singular matrix or a non-finite iterate.
[[nodiscard]] NewtonResult newton_run(const Netlist& netlist,
                                      const DcOptions& opt,
                                      const NewtonAids& aids,
                                      std::vector<Real>& x,
                                      int& iterations_used);

/// Branch current of voltage source `k` in a DC solution (positive current
/// flows into the + terminal through the source to the - terminal).
[[nodiscard]] Real vsource_current(const Netlist& netlist,
                                   const DcSolution& solution, Index k);

/// DC transfer sweep: sets voltage source `source` to each entry of
/// `values` in turn, solving the operating point (warm-started from the
/// previous one) and recording V(probe). The classic .DC analysis, e.g. an
/// inverter's VTC. The netlist is restored to its original source value.
[[nodiscard]] std::vector<Real> dc_sweep(Netlist& netlist, VsourceId source,
                                         std::span<const Real> values,
                                         NodeId probe,
                                         const DcOptions& options = {});

}  // namespace rsm::spice
