#include "spice/dc.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "linalg/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"
#include "util/log.hpp"

namespace rsm::spice {

NewtonResult newton_run(const Netlist& netlist, const DcOptions& opt,
                        const NewtonAids& aids, std::vector<Real>& x,
                        int& iterations_used) {
  const Index n = netlist.mna_size();
  const Index num_voltage_unknowns = netlist.num_nodes() - 1;
  for (int it = 0; it < opt.max_iterations; ++it) {
    // A hung operating point must not outlive its watchdog: this is the
    // innermost loop a pathological sample spins in, so the campaign's
    // deadline/cancellation is polled here (no-op without an active scope).
    check_cooperative_stop("dc.newton");
    Stamp<Real> stamp(n);
    stamp_dc(netlist, x, aids.gmin, aids.source_scale, stamp);
    for (const Companion& companion : aids.companions) companion.stamp(stamp);

    std::vector<Real> x_new;
    try {
      LuFactorization<Real> lu(std::move(stamp.matrix()), n);
      x_new = lu.solve(stamp.rhs());
    } catch (const Error&) {
      return NewtonResult::kSingular;  // singular system; caller escalates
    }
    for (Real v : x_new) {
      if (!std::isfinite(v)) {
        return NewtonResult::kNonFinite;  // device model overflow / bad stamp
      }
    }

    // Damped update: limit per-node voltage change to max_step. Branch
    // currents are updated undamped but still tracked for convergence with
    // their own tolerance — otherwise a run can report a converged voltage
    // profile while source currents are still moving.
    Real max_dv = 0;
    Real max_di = 0;
    for (Index i = 0; i < n; ++i) {
      Real dv = x_new[static_cast<std::size_t>(i)] -
                x[static_cast<std::size_t>(i)];
      if (i < num_voltage_unknowns) {
        dv = std::clamp(dv, -opt.max_step, opt.max_step);
        max_dv = std::max(max_dv, std::abs(dv));
      } else {
        max_di = std::max(max_di, std::abs(dv));
      }
      x[static_cast<std::size_t>(i)] += dv;
    }
    ++iterations_used;

    Real max_abs_v = 0;
    Real max_abs_i = 0;
    for (Index i = 0; i < n; ++i) {
      const Real a = std::abs(x[static_cast<std::size_t>(i)]);
      if (i < num_voltage_unknowns) {
        max_abs_v = std::max(max_abs_v, a);
      } else {
        max_abs_i = std::max(max_abs_i, a);
      }
    }
    const bool v_done =
        max_dv < opt.voltage_tolerance + opt.relative_tolerance * max_abs_v;
    const bool i_done =
        max_di < opt.current_tolerance + opt.relative_tolerance * max_abs_i;
    if (v_done && i_done) return NewtonResult::kConverged;
  }
  return NewtonResult::kMaxIterations;
}

namespace {

/// Pseudo-transient anchor conductances [S]: the first rung's, and the
/// last rung's before the unanchored handoff.
constexpr Real kPtranGInitial = 1e2;
constexpr Real kPtranGFinal = 1e-9;

/// Strategy drivers. Each reports how its final run at the target gmin and
/// full source strength ended.

NewtonResult run_plain_newton(const Netlist& netlist, const DcOptions& opt,
                              std::vector<Real>& x, int& iterations) {
  return newton_run(netlist, opt, {.gmin = opt.gmin}, x, iterations);
}

NewtonResult run_gmin_stepping(const Netlist& netlist, const DcOptions& opt,
                               std::vector<Real>& x, int& iterations) {
  // Start heavily damped (large gmin linearizes the system), walk down to
  // the target, warm-starting each rung from the previous.
  std::fill(x.begin(), x.end(), Real{0});
  Real gmin = Real{1e-2};
  for (int step = 0; step <= opt.gmin_ladder_steps; ++step) {
    const bool last = gmin <= opt.gmin;
    const Real g = last ? opt.gmin : gmin;
    if (newton_run(netlist, opt, {.gmin = g}, x, iterations) !=
        NewtonResult::kConverged) {
      RSM_DEBUG("DC: gmin rung " << g << " failed");
      // Keep descending anyway; a later rung sometimes recovers.
    }
    if (last) break;
    gmin *= Real{1e-1};
    if (gmin < opt.gmin) gmin = opt.gmin;
  }
  // Final verification run at the target gmin.
  return newton_run(netlist, opt, {.gmin = opt.gmin}, x, iterations);
}

NewtonResult run_source_stepping(const Netlist& netlist, const DcOptions& opt,
                                 std::vector<Real>& x, int& iterations) {
  // Homotopy in source strength: at scale 0 the all-off circuit converges
  // from anywhere; each rung warm-starts the next along a continuous branch
  // of solutions, which steers multistable circuits to a stable state.
  std::fill(x.begin(), x.end(), Real{0});
  const int steps = std::max(opt.source_ladder_steps, 1);
  for (int step = 1; step <= steps; ++step) {
    const Real scale = static_cast<Real>(step) / static_cast<Real>(steps);
    if (newton_run(netlist, opt, {.gmin = opt.gmin, .source_scale = scale}, x,
                   iterations) != NewtonResult::kConverged) {
      RSM_DEBUG("DC: source rung " << scale << " failed");
    }
  }
  return newton_run(netlist, opt, {.gmin = opt.gmin}, x, iterations);
}

NewtonResult run_pseudo_transient(const Netlist& netlist,
                                  const DcOptions& opt, std::vector<Real>& x,
                                  int& iterations) {
  // Pseudo-capacitor continuation: tie every node to ground through the
  // backward-Euler companion of a pseudo-capacitor, whose history voltage
  // is the node's previous pseudo-state, and relax its conductance
  // geometrically — equivalent to integrating d/dt with an exponentially
  // growing pseudo-timestep until the circuit is at rest.
  std::fill(x.begin(), x.end(), Real{0});
  const int steps = std::max(opt.ptran_steps, 1);
  const Real shrink =
      steps > 1 ? std::pow(kPtranGFinal / kPtranGInitial,
                           Real{1} / static_cast<Real>(steps - 1))
                : Real{1};
  std::vector<Companion> anchors(static_cast<std::size_t>(
      netlist.num_nodes() - 1));
  Real g = kPtranGInitial;
  for (int step = 0; step < steps; ++step) {
    for (NodeId node = 1; node < netlist.num_nodes(); ++node) {
      anchors[static_cast<std::size_t>(node - 1)] = {
          node, kGround, g, x[static_cast<std::size_t>(node - 1)]};
    }
    if (newton_run(netlist, opt, {.gmin = opt.gmin, .companions = anchors},
                   x, iterations) != NewtonResult::kConverged) {
      RSM_DEBUG("DC: ptran rung g=" << g << " failed");
    }
    g *= shrink;
  }
  return newton_run(netlist, opt, {.gmin = opt.gmin}, x, iterations);
}

}  // namespace

const char* dc_strategy_name(DcStrategy strategy) {
  switch (strategy) {
    case DcStrategy::kNewton: return "newton";
    case DcStrategy::kGminStepping: return "gmin-stepping";
    case DcStrategy::kSourceStepping: return "source-stepping";
    case DcStrategy::kPseudoTransient: return "pseudo-transient";
  }
  return "?";
}

DcOptions escalated(const DcOptions& base, int level) {
  RSM_CHECK(level >= 0);
  DcOptions opt = base;
  for (int l = 0; l < level; ++l) {
    opt.max_iterations *= 2;
    opt.max_step = std::max(opt.max_step / 2, Real{0.05});
    opt.gmin_ladder_steps += 4;
    opt.source_ladder_steps *= 2;
    opt.ptran_steps += opt.ptran_steps / 2;
  }
  return opt;
}

DcSolution solve_dc(const Netlist& netlist, const DcOptions& options,
                    std::span<const Real> initial_guess) {
  RSM_TRACE_SPAN("dc.solve");
  obs::metrics().counter("dc.solves").increment();
  const Index n = netlist.mna_size();
  RSM_CHECK_MSG(n > 0, "empty netlist");
  RSM_CHECK_MSG(!options.strategies.empty(),
                "DcOptions.strategies must not be empty");

  DcSolution sol;
  sol.x.assign(static_cast<std::size_t>(n), Real{0});
  if (!initial_guess.empty()) {
    RSM_CHECK(static_cast<Index>(initial_guess.size()) == n);
    std::copy(initial_guess.begin(), initial_guess.end(), sol.x.begin());
  }

  bool all_singular = true;
  bool any_non_finite = false;
  for (const DcStrategy strategy : options.strategies) {
    ++sol.strategies_tried;
    if (sol.strategies_tried > 1) {
      RSM_DEBUG("DC: escalating to " << dc_strategy_name(strategy));
    }
    NewtonResult result = NewtonResult::kMaxIterations;
    switch (strategy) {
      case DcStrategy::kNewton: {
        RSM_TRACE_SPAN("dc.newton");
        result = run_plain_newton(netlist, options, sol.x, sol.iterations);
        break;
      }
      case DcStrategy::kGminStepping: {
        RSM_TRACE_SPAN("dc.gmin_stepping");
        result = run_gmin_stepping(netlist, options, sol.x, sol.iterations);
        break;
      }
      case DcStrategy::kSourceStepping: {
        RSM_TRACE_SPAN("dc.source_stepping");
        result = run_source_stepping(netlist, options, sol.x, sol.iterations);
        break;
      }
      case DcStrategy::kPseudoTransient: {
        RSM_TRACE_SPAN("dc.pseudo_transient");
        result =
            run_pseudo_transient(netlist, options, sol.x, sol.iterations);
        break;
      }
    }
    if (result == NewtonResult::kConverged) {
      sol.converged = true;
      sol.strategy = strategy;
      obs::metrics()
          .histogram("dc.newton_iterations",
                     {5, 10, 25, 50, 100, 250, 500, 1000})
          .observe(static_cast<double>(sol.iterations));
      return sol;
    }
    if (result != NewtonResult::kSingular) all_singular = false;
    if (result == NewtonResult::kNonFinite) any_non_finite = true;
  }

  obs::metrics().counter("dc.failures").increment();
  std::ostringstream os;
  os << "DC operating point failed after " << sol.strategies_tried
     << " strategies / " << sol.iterations << " Newton iterations";
  const char* last_strategy =
      dc_strategy_name(options.strategies.back());
  if (all_singular) {
    throw SingularMatrixError(
        "MNA matrix singular under every strategy — " + os.str(),
        last_strategy);
  }
  if (any_non_finite) {
    throw NumericalDomainError("non-finite Newton iterate — " + os.str(),
                               last_strategy);
  }
  throw ConvergenceError(os.str(), sol.iterations, last_strategy);
}

Real vsource_current(const Netlist& netlist, const DcSolution& solution,
                     Index k) {
  const Index br = netlist.vsource_branch_index(k);
  return solution.x[static_cast<std::size_t>(br)];
}

std::vector<Real> dc_sweep(Netlist& netlist, VsourceId source,
                           std::span<const Real> values, NodeId probe,
                           const DcOptions& options) {
  RSM_CHECK(!values.empty());
  const Real original = netlist.vsource(source).dc;
  std::vector<Real> out;
  out.reserve(values.size());
  std::vector<Real> warm;
  for (Real v : values) {
    netlist.vsource(source).dc = v;
    const DcSolution sol = solve_dc(netlist, options, warm);
    warm = sol.x;
    out.push_back(sol.voltage(probe));
  }
  netlist.vsource(source).dc = original;
  return out;
}

}  // namespace rsm::spice
