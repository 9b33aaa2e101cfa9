#include "spice/mna.hpp"

#include <type_traits>

namespace rsm::spice {
namespace {

/// A MOSFET linearized at one operating point. Works in actual terminal
/// voltages; handles PMOS by reflecting into the NMOS convention.
struct LinearizedMos {
  Real ids;  // current drain->source at the linearization point
  Real gm;   // referenced to actual (vg - vs)
  Real gds;  // referenced to actual (vd - vs)
};

LinearizedMos linearize(const Mosfet& m, Real vd, Real vg, Real vs) {
  if (m.params.type == MosType::kNmos) {
    const MosfetEval e =
        evaluate_nmos_convention(m.params, vg - vs, vd - vs);
    return {e.ids, e.gm, e.gds};
  }
  // PMOS: evaluate the mirror NMOS at negated voltages; current and
  // derivatives reflect back with the same signs for the MNA stamp below
  // because d(-I(-v))/dv = I'(-v).
  const MosfetEval e =
      evaluate_nmos_convention(m.params, vs - vg, vs - vd);
  return {-e.ids, e.gm, e.gds};
}

/// The one element walk behind stamp_dc (T = Real) and stamp_ac
/// (T = complex). Both stamp the same elements in the same order through
/// the same add calls and differ only where DC and small-signal analysis
/// differ: at DC capacitors are open, sources take dc * source_scale and
/// MOSFETs add their companion current; in AC capacitors stamp jwC and
/// sources take their AC magnitudes. `op` is the linearization point.
template <typename T>
void stamp_elements(const Netlist& netlist, std::span<const Real> op,
                    Real gmin, Real source_scale, Real omega,
                    Stamp<T>& stamp) {
  constexpr bool kDc = std::is_same_v<T, Real>;
  RSM_CHECK(static_cast<Index>(op.size()) == netlist.mna_size());
  RSM_CHECK(stamp.size() == netlist.mna_size());

  for (const Resistor& r : netlist.resistors())
    stamp.admittance(r.a, r.b, T(Real{1} / r.resistance));

  if constexpr (!kDc) {
    for (const Capacitor& c : netlist.capacitors())
      stamp.admittance(c.a, c.b, T(0, omega * c.capacitance));
  }

  for (const CurrentSource& i : netlist.isources()) {
    const Real amps = kDc ? i.dc * source_scale : i.ac;
    stamp.current_into(i.a, T(-amps));
    stamp.current_into(i.b, T(amps));
  }

  const auto& vsources = netlist.vsources();
  for (Index k = 0; k < static_cast<Index>(vsources.size()); ++k) {
    const VoltageSource& v = vsources[static_cast<std::size_t>(k)];
    const Index br = netlist.vsource_branch_index(k);
    const Index ia = Netlist::mna_node_index(v.a);
    const Index ib = Netlist::mna_node_index(v.b);
    if (ia >= 0) {
      stamp.add(ia, br, T(1));
      stamp.add(br, ia, T(1));
    }
    if (ib >= 0) {
      stamp.add(ib, br, T(-1));
      stamp.add(br, ib, T(-1));
    }
    stamp.add_rhs(br, T(kDc ? v.dc * source_scale : v.ac));
  }

  const auto& vcvs = netlist.vcvs_list();
  for (Index k = 0; k < static_cast<Index>(vcvs.size()); ++k) {
    const Vcvs& e = vcvs[static_cast<std::size_t>(k)];
    const Index br = netlist.vcvs_branch_index(k);
    const Index ip = Netlist::mna_node_index(e.p);
    const Index iq = Netlist::mna_node_index(e.q);
    const Index icp = Netlist::mna_node_index(e.cp);
    const Index icq = Netlist::mna_node_index(e.cq);
    if (ip >= 0) {
      stamp.add(ip, br, T(1));
      stamp.add(br, ip, T(1));
    }
    if (iq >= 0) {
      stamp.add(iq, br, T(-1));
      stamp.add(br, iq, T(-1));
    }
    if (icp >= 0) stamp.add(br, icp, T(-e.gain));
    if (icq >= 0) stamp.add(br, icq, T(e.gain));
  }

  for (const Vccs& e : netlist.vccs_list()) {
    const Index ip = Netlist::mna_node_index(e.p);
    const Index iq = Netlist::mna_node_index(e.q);
    const Index icp = Netlist::mna_node_index(e.cp);
    const Index icq = Netlist::mna_node_index(e.cq);
    if (ip >= 0 && icp >= 0) stamp.add(ip, icp, T(e.gm));
    if (ip >= 0 && icq >= 0) stamp.add(ip, icq, T(-e.gm));
    if (iq >= 0 && icp >= 0) stamp.add(iq, icp, T(-e.gm));
    if (iq >= 0 && icq >= 0) stamp.add(iq, icq, T(e.gm));
  }

  // MOSFETs linearized at op: around it the device current is
  //   ids ~= Ids0 + gm*(vgs - vgs0) + gds*(vds - vds0)
  // which stamps as a VCCS (gm) and a conductance (gds); the DC companion
  // model adds the equivalent current source Ieq = Ids0 - gm*vgs0 -
  // gds*vds0 from drain to source.
  for (const Mosfet& m : netlist.mosfets()) {
    const Real vd = node_voltage(op, m.d);
    const Real vg = node_voltage(op, m.g);
    const Real vs = node_voltage(op, m.s);
    const LinearizedMos lin = linearize(m, vd, vg, vs);

    stamp.admittance(m.d, m.s, T(lin.gds));
    // VCCS gm from (g,s) controlling current d->s.
    const Index id = Netlist::mna_node_index(m.d);
    const Index is = Netlist::mna_node_index(m.s);
    const Index ig = Netlist::mna_node_index(m.g);
    if (id >= 0 && ig >= 0) stamp.add(id, ig, T(lin.gm));
    if (id >= 0 && is >= 0) stamp.add(id, is, T(-lin.gm));
    if (is >= 0 && ig >= 0) stamp.add(is, ig, T(-lin.gm));
    if (is >= 0) stamp.add(is, is, T(lin.gm));

    if constexpr (kDc) {
      const Real ieq = lin.ids - lin.gm * (vg - vs) - lin.gds * (vd - vs);
      stamp.current_into(m.d, -ieq);
      stamp.current_into(m.s, ieq);
    }
  }

  // gmin from every node to ground.
  if (gmin > 0) {
    for (NodeId n = 1; n < netlist.num_nodes(); ++n)
      stamp.admittance(n, kGround, T(gmin));
  }
}

}  // namespace

void stamp_dc(const Netlist& netlist, std::span<const Real> x, Real gmin,
              Real source_scale, Stamp<Real>& stamp) {
  stamp_elements(netlist, x, gmin, source_scale, Real{0}, stamp);
}

void stamp_ac(const Netlist& netlist, std::span<const Real> dc_solution,
              Real omega, Stamp<std::complex<Real>>& stamp) {
  // A tiny gmin keeps floating AC nodes solvable.
  stamp_elements(netlist, dc_solution, Real{1e-12}, Real{1}, omega, stamp);
}

}  // namespace rsm::spice
