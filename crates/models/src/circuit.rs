//! Whole-circuit evaluation: per-gate delay and energy, critical path,
//! totals.

use std::sync::{Arc, OnceLock};

use minpower_activity::{Activities, InputActivity};
use minpower_device::Technology;
use minpower_netlist::{GateId, GateKind, LevelizedCsr, Netlist};
use minpower_wiring::WireModel;

use crate::design::Design;
use crate::energy::EnergyBreakdown;

/// Capacitive load (in unit-width gate inputs) presented by a primary
/// output: a register/pad input of twice the minimum width.
pub(crate) const PO_LOAD_WIDTHS: f64 = 2.0;

/// One fanout branch of a gate: its sink and the interconnect attached to
/// the branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FanoutEdge {
    /// Sink gate index, or `None` for a primary-output load.
    pub(crate) target: Option<u32>,
    /// Interconnect capacitance of the branch, farads.
    pub(crate) c_int: f64,
    /// Interconnect resistance of the branch, ohms.
    pub(crate) r_int: f64,
    /// Time of flight down the branch, seconds.
    pub(crate) flight: f64,
}

/// Structure-dependent per-gate data, precomputed once.
#[derive(Debug, Clone)]
pub(crate) struct GateInfo {
    pub(crate) is_input: bool,
    pub(crate) fanin: Vec<u32>,
    pub(crate) fanin_count: f64,
    pub(crate) stack: f64,
    pub(crate) activity: f64,
    pub(crate) fanout: Vec<FanoutEdge>,
}

/// Per-gate result of one design evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateEval {
    /// Worst-case propagation delay of the gate, seconds (Eq. A3).
    pub delay: f64,
    /// Static + dynamic energy per cycle, joules (Eqs. A1, A2).
    pub energy: EnergyBreakdown,
}

/// Whole-circuit result of one design evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitEval {
    /// Per-gate delay and energy, indexed by [`GateId::index`].
    pub gates: Vec<GateEval>,
    /// Arrival time at each gate output, seconds.
    pub arrival: Vec<f64>,
    /// Critical path delay: the latest arrival over the primary outputs.
    pub critical_delay: f64,
    /// Total static + dynamic energy per cycle over all gates.
    pub energy: EnergyBreakdown,
}

impl CircuitEval {
    /// Whether every primary output arrives within `cycle_time` seconds.
    pub fn meets_cycle_time(&self, cycle_time: f64) -> bool {
        self.critical_delay <= cycle_time
    }
}

/// A netlist bound to a technology, wiring model, and activity profile,
/// ready for fast repeated evaluation of candidate [`Design`]s.
///
/// Construction is `O(E)` and precomputes everything that does not depend
/// on the design variables; each evaluation is then a single `O(E)`
/// topological pass — the "circuit simulation" unit in the paper's
/// `O(M³)` complexity accounting.
#[derive(Debug, Clone)]
pub struct CircuitModel {
    pub(crate) netlist: Netlist,
    pub(crate) tech: Technology,
    pub(crate) info: Vec<GateInfo>,
    pub(crate) topo: Vec<u32>,
    /// [`CircuitModel::fingerprint`], computed on first use: the model
    /// is immutable after construction.
    fingerprint: OnceLock<u64>,
    /// [`CircuitModel::csr`], built on first use.
    csr: OnceLock<Arc<LevelizedCsr>>,
}

impl CircuitModel {
    /// Binds `netlist` to a technology, a wiring model, and precomputed
    /// activities.
    ///
    /// # Panics
    ///
    /// Panics if `activities` was computed for a different netlist (length
    /// mismatch).
    pub fn new(
        netlist: &Netlist,
        tech: Technology,
        wires: &WireModel,
        activities: &Activities,
    ) -> Self {
        assert_eq!(
            activities.densities().len(),
            netlist.gate_count(),
            "activities must cover every gate of the netlist"
        );
        let mut info = Vec::with_capacity(netlist.gate_count());
        for (i, gate) in netlist.gates().iter().enumerate() {
            let id = GateId::new(i);
            let is_input = gate.kind() == GateKind::Input;
            let mut fanout = Vec::new();
            let branch = wires.branch_length_m(netlist.fanout(id).len().max(1));
            let (c_int, r_int, flight) = (
                tech.wire_capacitance(branch),
                tech.wire_resistance(branch),
                tech.time_of_flight(branch),
            );
            for &sink in netlist.fanout(id) {
                fanout.push(FanoutEdge {
                    target: Some(sink.index() as u32),
                    c_int,
                    r_int,
                    flight,
                });
            }
            if netlist.is_output(id) || fanout.is_empty() {
                fanout.push(FanoutEdge {
                    target: None,
                    c_int,
                    r_int,
                    flight,
                });
            }
            info.push(GateInfo {
                is_input,
                fanin: gate.fanin().iter().map(|f| f.index() as u32).collect(),
                fanin_count: gate.fanin_count() as f64,
                stack: gate.kind().series_stack(gate.fanin_count()) as f64,
                activity: activities.density(id),
                fanout,
            });
        }
        let topo = netlist
            .topological_order()
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        CircuitModel {
            netlist: netlist.clone(),
            tech,
            info,
            topo,
            fingerprint: OnceLock::new(),
            csr: OnceLock::new(),
        }
    }

    /// Convenience constructor: derives the wiring model from the gate
    /// count and propagates a uniform `(p, d)` input activity profile —
    /// the configuration of the paper's tables.
    pub fn with_uniform_activity(
        netlist: &Netlist,
        tech: Technology,
        probability: f64,
        density: f64,
    ) -> Self {
        let wires = WireModel::for_gate_count(netlist.logic_gate_count().max(1));
        let profile = InputActivity::uniform(probability, density, netlist.inputs().len());
        let activities = Activities::propagate(netlist, &profile);
        CircuitModel::new(netlist, tech, &wires, &activities)
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The netlist's levelized CSR view, built on first use and then
    /// shared: the SoA kernel and the warm incremental STA read this one
    /// copy of the topology.
    pub fn csr(&self) -> &Arc<LevelizedCsr> {
        self.csr
            .get_or_init(|| Arc::new(LevelizedCsr::new(&self.netlist)))
    }

    /// The bound technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The switching activity (transition density) used for gate `id`.
    pub fn activity(&self, id: GateId) -> f64 {
        self.info[id.index()].activity
    }

    /// A structural digest of the model: netlist name and wiring,
    /// per-gate activities, and every technology parameter. Two models
    /// with equal fingerprints evaluate any design identically (modulo an
    /// FNV collision), which is what lets the evaluation cache salt its
    /// keys with this value. Hashed once per model, then cached.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        let t = &self.tech;
        let mut words: Vec<u64> = Vec::with_capacity(8 * self.info.len() + 32);
        words.extend(self.netlist.name().bytes().map(u64::from));
        words.push(self.info.len() as u64);
        for g in &self.info {
            words.push(u64::from(g.is_input));
            words.push(g.fanin.len() as u64);
            words.extend(g.fanin.iter().map(|&f| u64::from(f)));
            words.push(g.fanin_count.to_bits());
            words.push(g.stack.to_bits());
            words.push(g.activity.to_bits());
            for e in &g.fanout {
                words.push(e.target.map_or(u64::MAX, u64::from));
                words.push(e.c_int.to_bits());
                words.push(e.r_int.to_bits());
                words.push(e.flight.to_bits());
            }
        }
        for x in [
            t.feature_m,
            t.alpha,
            t.k_drive,
            t.subthreshold_n,
            t.i_off0,
            t.i_junction,
            t.temperature_k,
            t.c_in,
            t.c_pd,
            t.c_mi,
            t.beta,
            t.wire_r_per_m,
            t.wire_c_per_m,
            t.wire_velocity,
            t.vdd_range.0,
            t.vdd_range.1,
            t.vt_range.0,
            t.vt_range.1,
            t.w_range.0,
            t.w_range.1,
        ] {
            words.push(x.to_bits());
        }
        minpower_engine::fnv1a_words(words)
    }

    /// Worst-case delay of gate `id` under `design`, given the largest
    /// delay among the gates driving it (Eq. A3).
    ///
    /// Returns `f64::INFINITY` when the operating point cannot switch the
    /// gate (drive current no larger than the opposing leakage).
    pub fn gate_delay(&self, design: &Design, id: GateId, max_fanin_delay: f64) -> f64 {
        let g = &self.info[id.index()];
        if g.is_input {
            return 0.0;
        }
        let vdd = design.vdd;
        let vt = design.vt[id.index()];
        let w = design.width[id.index()];
        let tech = &self.tech;

        // Input-slope contribution: [1/2 − (1 − Vts/Vdd)/(1 + α)]·max t_dij.
        let slope_coeff = (0.5 - (1.0 - vt / vdd) / (1.0 + tech.alpha)).max(0.0);
        let t_slope = slope_coeff * max_fanin_delay;

        // Switching term: series-stack-derated drive fighting the leakage
        // of the complementary network.
        let i_on = tech.drive_current(w, vdd, vt) / g.stack;
        let i_leak = g.fanin_count * tech.off_current(w, vt);
        let i_drive = i_on - i_leak;
        if i_drive <= 0.0 {
            return f64::INFINITY;
        }
        let mut c_load = w * tech.c_pd;
        let mut t_wire: f64 = 0.0;
        for edge in &g.fanout {
            let sink_w = match edge.target {
                Some(t) => design.width[t as usize],
                None => PO_LOAD_WIDTHS,
            };
            let c_sink = sink_w * tech.c_in;
            c_load += c_sink + edge.c_int;
            t_wire = t_wire.max(edge.r_int * (c_sink + edge.c_int / 2.0) + edge.flight);
        }
        let t_switch = vdd / 2.0 * c_load / i_drive;

        // Intermediate-node discharge of the series stack.
        let t_internal =
            (g.fanin_count - 1.0).max(0.0) * tech.c_mi * w * vdd / tech.drive_current(w, vdd, vt);

        t_slope + t_switch + t_internal + t_wire
    }

    /// Per-gate delays under `design`, computed in topological order so
    /// each gate sees its drivers' final delays. Indexed by
    /// [`GateId::index`]; primary inputs have zero delay.
    pub fn delays(&self, design: &Design) -> Vec<f64> {
        let mut delays = Vec::new();
        self.delays_into(design, &mut delays);
        delays
    }

    /// [`CircuitModel::delays`] into a caller-owned buffer — the
    /// allocation-free variant for callers that recompute in a loop.
    /// Produces exactly the vector [`CircuitModel::delays`] would.
    pub fn delays_into(&self, design: &Design, delays: &mut Vec<f64>) {
        delays.clear();
        delays.resize(self.info.len(), 0.0);
        for &i in &self.topo {
            let id = GateId::new(i as usize);
            let max_fanin = self.max_fanin_delay(delays, i as usize);
            delays[i as usize] = self.gate_delay(design, id, max_fanin);
        }
    }

    /// Delay and arrival analysis into caller-owned buffers, returning the
    /// critical delay (latest primary-output arrival). Produces exactly
    /// the `gates[..].delay` / `arrival` / `critical_delay` values of
    /// [`CircuitModel::evaluate`] without its per-call allocations — the
    /// Monte-Carlo trial loop's workhorse.
    pub fn timing_into(
        &self,
        design: &Design,
        delays: &mut Vec<f64>,
        arrival: &mut Vec<f64>,
    ) -> f64 {
        self.delays_into(design, delays);
        arrival.clear();
        arrival.resize(self.info.len(), 0.0);
        for &i in &self.topo {
            let idx = i as usize;
            let latest = self.info[idx]
                .fanin
                .iter()
                .map(|&f| arrival[f as usize])
                .fold(0.0, f64::max);
            arrival[idx] = latest + delays[idx];
        }
        self.netlist
            .outputs()
            .iter()
            .map(|&o| arrival[o.index()])
            .fold(0.0, f64::max)
    }

    /// The largest delay among the drivers of gate `index`.
    pub fn max_fanin_delay(&self, delays: &[f64], index: usize) -> f64 {
        self.info[index]
            .fanin
            .iter()
            .map(|&f| delays[f as usize])
            .fold(0.0, f64::max)
    }

    /// Incrementally repairs a self-consistent `delays` vector after the
    /// width of `changed` was modified in `design`, touching only the
    /// affected cone: the changed gate, its drivers (their load moved),
    /// and everything downstream reached through the input-slope term.
    ///
    /// Produces exactly the vector [`CircuitModel::delays`] would, at
    /// `O(|cone|)` instead of `O(E)` — the enabling trick for
    /// sensitivity-driven sizing loops. The journal hook
    /// `on_change(index, previous_delay)` fires for every gate whose
    /// delay actually moved, *before* the overwrite — exactly what a
    /// transactional caller needs to revert the repair without
    /// recomputation.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the gate count.
    pub fn update_delays_after_width_change_with(
        &self,
        design: &Design,
        delays: &mut [f64],
        changed: GateId,
        mut on_change: impl FnMut(usize, f64),
    ) {
        assert_eq!(delays.len(), self.info.len());
        // Seed: the changed gate and its drivers (whose load changed).
        let n = self.info.len();
        let mut dirty = vec![false; n];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>> =
            std::collections::BinaryHeap::new();
        let push =
            |heap: &mut std::collections::BinaryHeap<_>, dirty: &mut Vec<bool>, idx: usize| {
                if !dirty[idx] {
                    dirty[idx] = true;
                    let level = self.netlist.level(GateId::new(idx)) as u32;
                    heap.push(std::cmp::Reverse((level, idx as u32)));
                }
            };
        push(&mut heap, &mut dirty, changed.index());
        for &f in &self.info[changed.index()].fanin {
            push(&mut heap, &mut dirty, f as usize);
        }
        // Process in level order so every recompute sees final upstream
        // values; propagate downstream only when a delay actually moved.
        while let Some(std::cmp::Reverse((_, idx))) = heap.pop() {
            let i = idx as usize;
            dirty[i] = false;
            let id = GateId::new(i);
            if self.info[i].is_input {
                continue;
            }
            let max_fanin = self.max_fanin_delay(delays, i);
            let new = self.gate_delay(design, id, max_fanin);
            // Bitwise comparison, not an epsilon: propagation must stop
            // only when the value is *exactly* the full-recompute fixed
            // point, or repeated repairs could drift from a dense pass.
            if new.to_bits() != delays[i].to_bits() {
                on_change(i, delays[i]);
                delays[i] = new;
                for edge in &self.info[i].fanout {
                    if let Some(t) = edge.target {
                        push(&mut heap, &mut dirty, t as usize);
                    }
                }
            }
        }
    }

    /// Static energy per cycle of gate `id` (Eq. A1), joules.
    pub fn gate_static_energy(&self, design: &Design, id: GateId, fc: f64) -> f64 {
        let g = &self.info[id.index()];
        if g.is_input {
            return 0.0;
        }
        design.vdd
            * self
                .tech
                .off_current(design.width[id.index()], design.vt[id.index()])
            / fc
    }

    /// Dynamic energy per cycle of gate `id` (Eq. A2), joules.
    pub fn gate_dynamic_energy(&self, design: &Design, id: GateId) -> f64 {
        let g = &self.info[id.index()];
        if g.is_input {
            return 0.0;
        }
        let tech = &self.tech;
        let w = design.width[id.index()];
        let mut c_sw = w * tech.c_pd + (g.fanin_count - 1.0).max(0.0) * tech.c_mi * w;
        for edge in &g.fanout {
            let sink_w = match edge.target {
                Some(t) => design.width[t as usize],
                None => PO_LOAD_WIDTHS,
            };
            c_sw += sink_w * tech.c_in + edge.c_int;
        }
        0.5 * g.activity * design.vdd * design.vdd * c_sw
    }

    /// Total static + dynamic energy per cycle over all gates, joules.
    pub fn total_energy(&self, design: &Design, fc: f64) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for i in 0..self.info.len() {
            let id = GateId::new(i);
            total.static_ += self.gate_static_energy(design, id, fc);
            total.dynamic += self.gate_dynamic_energy(design, id);
        }
        total
    }

    /// Builds an [`EnergyLedger`] over `design`: per-gate energy terms
    /// plus a delta-maintained total, for sizing loops that change one
    /// width at a time.
    pub fn energy_ledger(&self, design: &Design, fc: f64) -> EnergyLedger {
        let terms: Vec<EnergyBreakdown> = (0..self.info.len())
            .map(|i| {
                let id = GateId::new(i);
                EnergyBreakdown::new(
                    self.gate_static_energy(design, id, fc),
                    self.gate_dynamic_energy(design, id),
                )
            })
            .collect();
        let mut running = EnergyBreakdown::default();
        for t in &terms {
            running.static_ += t.static_;
            running.dynamic += t.dynamic;
        }
        EnergyLedger { terms, running, fc }
    }

    /// Full evaluation: delays, arrivals, critical path, per-gate and
    /// total energy.
    pub fn evaluate(&self, design: &Design, fc: f64) -> CircuitEval {
        let delays = self.delays(design);
        let mut arrival = vec![0.0f64; self.info.len()];
        for &i in &self.topo {
            let idx = i as usize;
            let latest = self.info[idx]
                .fanin
                .iter()
                .map(|&f| arrival[f as usize])
                .fold(0.0, f64::max);
            arrival[idx] = latest + delays[idx];
        }
        let critical_delay = self
            .netlist
            .outputs()
            .iter()
            .map(|&o| arrival[o.index()])
            .fold(0.0, f64::max);
        let mut gates = Vec::with_capacity(self.info.len());
        let mut energy = EnergyBreakdown::default();
        for (i, &delay) in delays.iter().enumerate() {
            let id = GateId::new(i);
            let e = EnergyBreakdown::new(
                self.gate_static_energy(design, id, fc),
                self.gate_dynamic_energy(design, id),
            );
            energy = energy + e;
            gates.push(GateEval { delay, energy: e });
        }
        CircuitEval {
            gates,
            arrival,
            critical_delay,
            energy,
        }
    }
}

/// Per-gate [`EnergyBreakdown`] terms with a delta-maintained sum.
///
/// A width change at gate `g` perturbs only `g`'s own terms (its static
/// leakage and the self-load part of its dynamic energy) and the dynamic
/// terms of `g`'s *fanins*, whose output load moved — an `O(cone)` update
/// instead of the `O(E)` full [`CircuitModel::total_energy`] pass.
///
/// Floating-point addition is not associative, so the running delta total
/// is *close to* but not bitwise-equal to a dense re-sum. Callers that
/// must report a total bit-identical to [`CircuitModel::total_energy`]
/// (the determinism contract of the sizing paths) use
/// [`exact_total`](EnergyLedger::exact_total): an index-order re-sum of
/// the per-gate terms, each of which *is* bitwise-equal to its dense
/// counterpart, at `O(N)` without any `O(fanout)` energy recomputation.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    terms: Vec<EnergyBreakdown>,
    running: EnergyBreakdown,
    fc: f64,
}

impl EnergyLedger {
    /// Refreshes the terms of `changed` and its fanins after
    /// `design.width[changed]` was modified, returning how many gate
    /// terms were touched. `model` and `design` must be the ones the
    /// ledger was built over (with only accepted width edits applied).
    pub fn on_width_change(
        &mut self,
        model: &CircuitModel,
        design: &Design,
        changed: GateId,
    ) -> usize {
        self.refresh(model, design, changed.index());
        let mut touched = 1;
        for &f in &model.info[changed.index()].fanin {
            self.refresh(model, design, f as usize);
            touched += 1;
        }
        touched
    }

    fn refresh(&mut self, model: &CircuitModel, design: &Design, i: usize) {
        let id = GateId::new(i);
        let new = EnergyBreakdown::new(
            model.gate_static_energy(design, id, self.fc),
            model.gate_dynamic_energy(design, id),
        );
        let old = self.terms[i];
        self.running.static_ += new.static_ - old.static_;
        self.running.dynamic += new.dynamic - old.dynamic;
        self.terms[i] = new;
    }

    /// The delta-maintained total — cheap, but carries the usual
    /// floating-point drift of an incremental sum. Good for move scoring,
    /// not for reported results.
    pub fn running_total(&self) -> EnergyBreakdown {
        self.running
    }

    /// Index-order re-sum of the per-gate terms: bitwise-identical to
    /// [`CircuitModel::total_energy`] over the same design.
    pub fn exact_total(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for t in &self.terms {
            total.static_ += t.static_;
            total.dynamic += t.dynamic;
        }
        total
    }

    /// The current energy term of gate `id`.
    pub fn term(&self, id: GateId) -> EnergyBreakdown {
        self.terms[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_netlist::NetlistBuilder;

    fn chain(len: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        b.input("a").unwrap();
        let mut prev = "a".to_string();
        for i in 0..len {
            let name = format!("n{i}");
            b.gate(&name, GateKind::Not, &[&prev]).unwrap();
            prev = name;
        }
        b.output(&prev).unwrap();
        b.finish().unwrap()
    }

    fn model(netlist: &Netlist) -> CircuitModel {
        CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, 0.5)
    }

    #[test]
    fn fingerprint_is_cached_per_model_and_tracks_activity() {
        let n = chain(4);
        let m = model(&n);
        let cold = m.clone();
        let fp = m.fingerprint();
        assert_eq!(fp, m.compute_fingerprint());
        assert_eq!(m.fingerprint(), fp);
        // A clone taken after the first call carries the cached value; one
        // taken before hashes afresh. Both agree with the original.
        assert_eq!(m.clone().fingerprint(), fp);
        assert_eq!(cold.fingerprint(), fp);
        let other = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.25);
        assert_ne!(other.fingerprint(), fp);
    }

    #[test]
    fn nominal_corner_delay_is_subnanosecond_per_stage() {
        let n = chain(1);
        let m = model(&n);
        let d = Design::uniform(&n, 3.3, 0.7, 4.0);
        let delays = m.delays(&d);
        let y = n.find("n0").unwrap();
        let t = delays[y.index()];
        assert!(t > 1e-12 && t < 1e-9, "stage delay {t}");
    }

    #[test]
    fn delay_decreases_with_width_on_loaded_gate() {
        // A gate driving a large fixed fanout gets faster when upsized.
        let mut b = NetlistBuilder::new("fan");
        b.input("a").unwrap();
        b.gate("drv", GateKind::Not, &["a"]).unwrap();
        for i in 0..8 {
            b.gate(&format!("s{i}"), GateKind::Not, &["drv"]).unwrap();
            b.output(&format!("s{i}")).unwrap();
        }
        let n = b.finish().unwrap();
        let m = model(&n);
        let drv = n.find("drv").unwrap();
        let mut d = Design::uniform(&n, 1.5, 0.3, 2.0);
        let slow = m.delays(&d)[drv.index()];
        d.width[drv.index()] = 20.0;
        let fast = m.delays(&d)[drv.index()];
        assert!(fast < slow, "upsizing did not help: {fast} vs {slow}");
    }

    #[test]
    fn delay_increases_as_vdd_drops() {
        let n = chain(3);
        let m = model(&n);
        let hi = m.evaluate(&Design::uniform(&n, 3.3, 0.5, 4.0), 3e8);
        let lo = m.evaluate(&Design::uniform(&n, 1.2, 0.5, 4.0), 3e8);
        assert!(lo.critical_delay > hi.critical_delay);
    }

    #[test]
    fn delay_increases_as_vt_rises() {
        let n = chain(3);
        let m = model(&n);
        let lo_vt = m.evaluate(&Design::uniform(&n, 1.2, 0.2, 4.0), 3e8);
        let hi_vt = m.evaluate(&Design::uniform(&n, 1.2, 0.5, 4.0), 3e8);
        assert!(hi_vt.critical_delay > lo_vt.critical_delay);
    }

    #[test]
    fn subthreshold_operation_is_slow_but_finite() {
        let n = chain(2);
        let m = model(&n);
        // Vdd below Vt: the transregional model must still switch.
        let e = m.evaluate(&Design::uniform(&n, 0.25, 0.4, 4.0), 3e8);
        assert!(e.critical_delay.is_finite());
        assert!(e.critical_delay > 1e-8, "subthreshold should be slow");
    }

    #[test]
    fn dynamic_energy_scales_quadratically_with_vdd() {
        let n = chain(4);
        let m = model(&n);
        let e1 = m.total_energy(&Design::uniform(&n, 1.0, 0.5, 4.0), 3e8);
        let e2 = m.total_energy(&Design::uniform(&n, 2.0, 0.5, 4.0), 3e8);
        let ratio = e2.dynamic / e1.dynamic;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn static_energy_explodes_as_vt_drops() {
        let n = chain(4);
        let m = model(&n);
        let hi_vt = m.total_energy(&Design::uniform(&n, 1.0, 0.6, 4.0), 3e8);
        let lo_vt = m.total_energy(&Design::uniform(&n, 1.0, 0.15, 4.0), 3e8);
        assert!(lo_vt.static_ > 1e3 * hi_vt.static_);
        // Dynamic component is unchanged by Vt.
        assert!((lo_vt.dynamic - hi_vt.dynamic).abs() < 1e-20);
    }

    #[test]
    fn arrival_accumulates_along_chain() {
        let n = chain(5);
        let m = model(&n);
        let e = m.evaluate(&Design::uniform(&n, 3.3, 0.7, 4.0), 3e8);
        // Critical delay ≈ sum of stage delays (each stage adds slope +
        // switching), strictly more than any single stage.
        let last = n.find("n4").unwrap();
        assert!(e.critical_delay >= e.gates[last.index()].delay);
        assert!(e.critical_delay > 3.0 * e.gates[last.index()].delay / 2.0);
        assert!(e.meets_cycle_time(1.0));
        assert!(!e.meets_cycle_time(1e-15));
    }

    #[test]
    fn infeasible_drive_reports_infinite_delay() {
        let n = chain(1);
        let m = model(&n);
        // Vt far above Vdd with a huge leakage burden: drive < leakage.
        let mut d = Design::uniform(&n, 0.1, 3.0, 1.0);
        d.vdd = 0.05;
        let delays = m.delays(&d);
        let y = n.find("n0").unwrap();
        assert!(delays[y.index()].is_infinite());
    }

    #[test]
    fn inputs_cost_nothing() {
        let n = chain(2);
        let m = model(&n);
        let d = Design::uniform(&n, 3.3, 0.7, 4.0);
        let e = m.evaluate(&d, 3e8);
        let a = n.find("a").unwrap();
        assert_eq!(e.gates[a.index()].delay, 0.0);
        assert_eq!(e.gates[a.index()].energy.total(), 0.0);
    }

    #[test]
    fn incremental_delay_update_matches_full_recompute() {
        // Reconvergent structure so the dirty cone is nontrivial.
        let mut b = NetlistBuilder::new("recon");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate("u", GateKind::Nand, &["a", "c"]).unwrap();
        b.gate("v", GateKind::Nor, &["u", "c"]).unwrap();
        b.gate("w", GateKind::Nand, &["u", "v"]).unwrap();
        b.gate("x", GateKind::Or, &["w", "u"]).unwrap();
        b.gate("y", GateKind::Not, &["x"]).unwrap();
        b.output("y").unwrap();
        let n = b.finish().unwrap();
        let m = model(&n);
        let mut d = Design::uniform(&n, 1.5, 0.3, 4.0);
        let mut delays = m.delays(&d);
        // A sequence of width edits, each repaired incrementally. Bitwise
        // propagation makes the repair land exactly on the full-recompute
        // fixed point, not merely within a tolerance.
        for (name, w) in [("u", 12.0), ("w", 2.0), ("y", 30.0), ("u", 5.0)] {
            let id = n.find(name).unwrap();
            d.width[id.index()] = w;
            m.update_delays_after_width_change_with(&d, &mut delays, id, |_, _| {});
            let full = m.delays(&d);
            for i in 0..n.gate_count() {
                assert!(
                    delays[i].to_bits() == full[i].to_bits(),
                    "after {name}={w}: gate {i} incremental {} vs full {}",
                    delays[i],
                    full[i]
                );
            }
        }
    }

    #[test]
    fn journaled_update_reverts_bit_exactly() {
        let n = chain(6);
        let m = model(&n);
        let mut d = Design::uniform(&n, 1.5, 0.3, 4.0);
        let mut delays = m.delays(&d);
        let before = delays.clone();
        let id = n.find("n2").unwrap();
        let w_old = d.width[id.index()];
        d.width[id.index()] = 17.0;
        let mut journal: Vec<(usize, f64)> = Vec::new();
        m.update_delays_after_width_change_with(&d, &mut delays, id, |i, old| {
            journal.push((i, old));
        });
        assert!(!journal.is_empty(), "the edit must move some delay");
        // Replaying the journal in reverse restores the exact prior state.
        d.width[id.index()] = w_old;
        for &(i, old) in journal.iter().rev() {
            delays[i] = old;
        }
        for (i, (now, then)) in delays.iter().zip(before.iter()).enumerate() {
            assert_eq!(now.to_bits(), then.to_bits(), "gate {i}");
        }
    }

    #[test]
    fn delays_into_and_timing_into_match_evaluate() {
        let n = chain(5);
        let m = model(&n);
        let d = Design::uniform(&n, 2.0, 0.4, 3.0);
        let eval = m.evaluate(&d, 3e8);
        let mut delays = Vec::new();
        let mut arrival = Vec::new();
        // Run twice to exercise buffer reuse.
        for _ in 0..2 {
            let critical = m.timing_into(&d, &mut delays, &mut arrival);
            assert_eq!(critical.to_bits(), eval.critical_delay.to_bits());
            for (i, g) in eval.gates.iter().enumerate() {
                assert_eq!(delays[i].to_bits(), g.delay.to_bits(), "delay {i}");
                assert_eq!(
                    arrival[i].to_bits(),
                    eval.arrival[i].to_bits(),
                    "arrival {i}"
                );
            }
        }
    }

    #[test]
    fn energy_ledger_tracks_width_edits() {
        let n = chain(6);
        let m = model(&n);
        let mut d = Design::uniform(&n, 2.0, 0.35, 3.0);
        let fc = 3e8;
        let mut ledger = m.energy_ledger(&d, fc);
        let dense = m.total_energy(&d, fc);
        assert_eq!(
            ledger.exact_total().static_.to_bits(),
            dense.static_.to_bits()
        );
        assert_eq!(
            ledger.exact_total().dynamic.to_bits(),
            dense.dynamic.to_bits()
        );
        for (name, w) in [("n1", 9.0), ("n4", 1.5), ("n1", 2.0)] {
            let id = n.find(name).unwrap();
            d.width[id.index()] = w;
            let touched = ledger.on_width_change(&m, &d, id);
            assert!(touched >= 2, "gate plus at least one fanin");
            let dense = m.total_energy(&d, fc);
            // The exact total is bit-identical to the dense pass; the
            // running total only approximately so.
            assert_eq!(
                ledger.exact_total().static_.to_bits(),
                dense.static_.to_bits()
            );
            assert_eq!(
                ledger.exact_total().dynamic.to_bits(),
                dense.dynamic.to_bits()
            );
            let drift = (ledger.running_total().total() - dense.total()).abs();
            assert!(drift <= 1e-9 * dense.total().abs().max(1e-30));
            assert_eq!(
                ledger.term(id).static_.to_bits(),
                m.gate_static_energy(&d, id, fc).to_bits()
            );
        }
    }

    #[test]
    fn total_energy_matches_per_gate_sum() {
        let n = chain(6);
        let m = model(&n);
        let d = Design::uniform(&n, 2.0, 0.3, 3.0);
        let e = m.evaluate(&d, 3e8);
        let sum: EnergyBreakdown = e.gates.iter().map(|g| g.energy).sum();
        assert!((sum.total() - e.energy.total()).abs() < 1e-24);
    }
}
