#include "spice/transient.hpp"

#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "util/cancellation.hpp"

namespace rsm::spice {

std::vector<Real> TransientResult::node_waveform(NodeId node) const {
  std::vector<Real> out;
  out.reserve(states.size());
  for (std::size_t s = 0; s < states.size(); ++s) out.push_back(voltage(s, node));
  return out;
}

TransientResult run_transient(Netlist& netlist,
                              const TransientOptions& options) {
  RSM_CHECK(options.timestep > 0 && options.stop_time > options.timestep);
  const Index n = netlist.mna_size();
  RSM_CHECK(n > 0);
  const DcOptions newton;  // every time point runs DC's default Newton

  TransientResult result;
  const auto num_steps =
      static_cast<std::size_t>(options.stop_time / options.timestep) + 1;
  result.time.reserve(num_steps + 1);
  result.states.reserve(num_steps + 1);

  if (options.update_sources) options.update_sources(0, netlist);
  std::vector<Real> x;
  if (options.start_from_dc) {
    x = solve_dc(netlist, newton).x;
  } else {
    x.assign(static_cast<std::size_t>(n), Real{0});
  }
  result.time.push_back(0);
  result.states.push_back(x);

  std::vector<Companion> companions(netlist.capacitors().size());
  int iterations = 0;
  const auto solve_point = [&] {
    return newton_run(netlist, newton,
                      {.gmin = newton.gmin, .companions = companions}, x,
                      iterations) == NewtonResult::kConverged;
  };
  Real t = 0;
  while (t < options.stop_time) {
    // Transient runs are the longest single-sample computations in the
    // system; honor campaign watchdogs between time points.
    check_cooperative_stop("spice.transient");
    t += options.timestep;
    if (options.update_sources) options.update_sources(t, netlist);
    // Every capacitor becomes its companion around the previous point.
    const std::span<const Real> x_prev = result.states.back();
    for (std::size_t k = 0; k < companions.size(); ++k) {
      const Capacitor& c = netlist.capacitors()[k];
      companions[k] = {c.a, c.b, c.capacitance / options.timestep,
                       node_voltage(x_prev, c.a) - node_voltage(x_prev, c.b)};
    }
    // Warm start from the previous point.
    if (!solve_point()) {
      // One retry from the previous solution with a fresh copy (the damped
      // iterate may have wandered); then give up loudly.
      x.assign(x_prev.begin(), x_prev.end());
      RSM_CHECK_MSG(solve_point(), "transient Newton failed at t=" << t);
    }
    result.time.push_back(t);
    result.states.push_back(x);
  }
  return result;
}

std::function<Real(Real)> step_waveform(Real v0, Real v1, Real t_step,
                                        Real t_rise) {
  RSM_CHECK(t_rise >= 0);
  return [=](Real t) {
    if (t <= t_step) return v0;
    if (t_rise == 0 || t >= t_step + t_rise) return v1;
    return v0 + (v1 - v0) * (t - t_step) / t_rise;
  };
}

}  // namespace rsm::spice
