#include "sram/sram.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "spice/mosfet.hpp"

namespace rsm::sram {
namespace {

using spice::kSubthresholdSlope;
using spice::kThermalVoltage;

/// Saturation drain current of a square-law device (the only operating
/// region the timing stages use).
Real sat_current(Real kp, Real w_over_l, Real vgs, Real vth) {
  const Real vov = vgs - vth;
  if (vov <= 0) return 0;
  return Real{0.5} * kp * w_over_l * vov * vov;
}

/// Subthreshold leakage of one cell at gate bias 0.
Real cell_leakage(Real kp, Real w_over_l, Real vth) {
  const Real n_vt = kSubthresholdSlope * kThermalVoltage;
  const Real i_spec = kp * w_over_l * n_vt * n_vt / 2;
  return i_spec * std::exp(-vth / n_vt);
}

}  // namespace

SramVariableMap::SramVariableMap(const SramConfig& config)
    : num_globals(6),
      num_driver_vars(2 * config.driver_stages),
      num_replica_vars(2 * config.replica_cells),
      num_sense_vars(6),
      num_misc_vars(2),
      num_cells(config.rows * config.cols),
      rows_(config.rows),
      cols_(config.cols),
      driver_stages_(config.driver_stages),
      replica_cells_(config.replica_cells) {
  RSM_CHECK(rows_ > 1 && cols_ > 0 && driver_stages_ > 0 &&
            replica_cells_ > 0);
}

Index SramVariableMap::total() const {
  return num_globals + num_driver_vars + num_replica_vars + num_sense_vars +
         num_misc_vars + num_cells;
}

Index SramVariableMap::global(Index g) const {
  RSM_CHECK(g >= 0 && g < num_globals);
  return g;
}

Index SramVariableMap::driver(Index stage, Index p) const {
  RSM_CHECK(stage >= 0 && stage < driver_stages_ && (p == 0 || p == 1));
  return num_globals + 2 * stage + p;
}

Index SramVariableMap::replica(Index cell, Index p) const {
  RSM_CHECK(cell >= 0 && cell < replica_cells_ && (p == 0 || p == 1));
  return num_globals + num_driver_vars + 2 * cell + p;
}

Index SramVariableMap::sense(Index p) const {
  RSM_CHECK(p >= 0 && p < num_sense_vars);
  return num_globals + num_driver_vars + num_replica_vars + p;
}

Index SramVariableMap::misc(Index p) const {
  RSM_CHECK(p >= 0 && p < num_misc_vars);
  return num_globals + num_driver_vars + num_replica_vars + num_sense_vars + p;
}

Index SramVariableMap::cell(Index row, Index col) const {
  RSM_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  return num_globals + num_driver_vars + num_replica_vars + num_sense_vars +
         num_misc_vars + row * cols_ + col;
}

SramWorkload::SramWorkload(const SramConfig& config)
    : config_(config), map_(config) {
  const std::vector<Real> zeros(static_cast<std::size_t>(map_.total()),
                                Real{0});
  nominal_ = evaluate(zeros);
}

Real SramWorkload::evaluate(std::span<const Real> dy) const {
  return evaluate_metrics(dy).delay;
}

SramWorkload::Metrics SramWorkload::evaluate_metrics(
    std::span<const Real> dy) const {
  RSM_CHECK(static_cast<Index>(dy.size()) == map_.total());
  const circuits::Process65& p = config_.process;
  const SramVariableMap& vm = map_;
  const auto at = [&](Index i) { return dy[static_cast<std::size_t>(i)]; };

  // Globals: threshold / strength / geometry / supply shifts.
  const Real g_vth = at(vm.global(0)) * p.sigma_vth_global;
  const Real g_kp = at(vm.global(1)) * p.sigma_kp_global;
  const Real g_len = at(vm.global(2)) * p.sigma_len_global;
  const Real g_vdd = at(vm.global(3)) * Real{0.01} * p.vdd;   // supply noise
  const Real g_cap = at(vm.global(4)) * Real{0.02};           // BEOL caps
  const Real g_res = at(vm.global(5)) * Real{0.05};           // grid/wire R

  const Real kp_eff = p.kp_nmos * (1 + g_kp);
  const Real wol_cell = Real{2.0} / (1 + g_len);    // cell composite W/L
  const Real wol_driver = Real{40.0} / (1 + g_len); // driver W/L

  // Every threshold below is vth_base + local shift, the same left-to-right
  // sum as p.vt0_nmos + g_vth + shift. The cells are one row-major block of
  // dy (SramVariableMap::cell), bounds-checked once here.
  const Real vth_base = p.vt0_nmos + g_vth;
  const Index first_cell = vm.cell(0, 0);
  RSM_CHECK(first_cell + vm.num_cells <= static_cast<Index>(dy.size()));
  const Real* const cells = dy.data() + first_cell;

  // --- Supply droop from total array leakage. Every cell participates:
  // this is the mechanism that gives all 21k variables a (tiny) nonzero
  // delay sensitivity.
  Real i_leak_total = 0;
  for (Index i = 0; i < vm.num_cells; ++i) {
    const Real vth_cell = vth_base + cells[i] * config_.sigma_cell_vth;
    i_leak_total += cell_leakage(kp_eff, wol_cell, vth_cell);
  }
  const Real vdd_eff = p.vdd + g_vdd -
                       config_.r_grid * (1 + g_res) * i_leak_total;
  RSM_CHECK_MSG(vdd_eff > Real{0.8},
                "supply collapsed (vdd_eff=" << vdd_eff << " V)");

  // --- Word-line driver chain: per stage t = 0.69 * C * V / I_drive.
  Real t_wl = 0;
  const Real c_stage = config_.c_stage * (1 + g_cap);
  for (Index s = 0; s < config_.driver_stages; ++s) {
    const Real vth_drv = vth_base + at(vm.driver(s, 0)) * Real{0.008};
    const Real kp_drv = kp_eff * (1 + at(vm.driver(s, 1)) * p.sigma_kp_local);
    const Real i_drive = sat_current(kp_drv, wol_driver, vdd_eff, vth_drv);
    RSM_CHECK_MSG(i_drive > 0, "driver stage " << s << " off");
    t_wl += Real{0.69} * c_stage * vdd_eff / i_drive;
  }

  // --- Replica column: self-timed sense trigger. The replica discharge
  // current is the sum over replica cells (parallel pull-down mimicking the
  // mean cell), fired when the replica bit-line swings by vdd/2.
  Real i_replica = 0;
  for (Index c = 0; c < config_.replica_cells; ++c) {
    const Real vth_rep =
        vth_base + at(vm.replica(c, 0)) * config_.sigma_cell_vth;
    const Real kp_rep =
        kp_eff * (1 + at(vm.replica(c, 1)) * p.sigma_kp_local);
    i_replica += sat_current(kp_rep, wol_cell, vdd_eff, vth_rep);
  }
  i_replica /= static_cast<Real>(config_.replica_cells);
  RSM_CHECK_MSG(i_replica > 0, "replica column off");
  const Real c_replica = config_.c_replica * (1 + g_cap);
  const Real t_fire = c_replica * (vdd_eff / 2) / i_replica;

  // --- Accessed cell develops the bit-line differential during t_fire.
  // Bit-line leakage of the unaccessed cells in the same column opposes it.
  const Real vth_acc = vth_base + cells[0] * config_.sigma_cell_vth;
  const Real i_cell = sat_current(kp_eff, wol_cell, vdd_eff, vth_acc);
  RSM_CHECK_MSG(i_cell > 0, "accessed cell off (vth=" << vth_acc << ")");
  Real i_bl_leak = 0;
  for (Index r = 1; r < config_.rows; ++r) {
    const Real vth_cell =
        vth_base + cells[r * config_.cols] * config_.sigma_cell_vth;
    i_bl_leak += cell_leakage(kp_eff, wol_cell, vth_cell);
  }
  const Real c_bl = config_.c_bitline * (1 + g_cap);
  const Real dv_bl = (i_cell - i_bl_leak) * t_fire / c_bl;

  // --- Sense amplifier: regenerative resolution from the net input
  // (bit-line differential minus input-referred offset).
  const Real v_os = at(vm.sense(0)) * config_.sigma_sa_offset +
                    (at(vm.sense(1)) - at(vm.sense(2))) *
                        config_.sigma_sa_offset / 2;
  const Real gm_scale = 1 + at(vm.sense(3)) * p.sigma_kp_local +
                        at(vm.sense(4)) * p.sigma_kp_local / 2;
  const Real tau_sa = config_.sense_tau / std::max(gm_scale, Real{0.5}) *
                      (1 + at(vm.sense(5)) * Real{0.01});
  const Real dv_net = dv_bl - v_os;
  RSM_CHECK_MSG(dv_net > Real{1e-4},
                "read failure: sense input " << dv_net << " V");
  const Real t_sa = tau_sa * std::log(config_.sense_swing / dv_net);

  // --- Column mux RC (misc periphery).
  const Real t_mux = Real{8e-12} * (1 + at(vm.misc(0)) * Real{0.05}) *
                     (1 + g_res) *
                     (1 + at(vm.misc(1)) * Real{0.03} + g_cap);

  Metrics out;
  out.delay = t_wl + t_fire + std::max(t_sa, Real{0}) + t_mux;
  out.margin = dv_net;
  return out;
}

}  // namespace rsm::sram
