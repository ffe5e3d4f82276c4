//! Whole-circuit evaluation: per-gate delay and energy, critical path,
//! totals.

use std::sync::atomic::{AtomicU64, Ordering};
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

/// Source of [`CircuitModel`] identities (see `CircuitModel::id`).
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(0);

/// The interconnect of one fanout branch. A gate's branches all share one
/// wire length (`branch_length_m` of its fanout count), so one value per
/// gate serves every branch, the primary-output load included.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Branch {
    /// Interconnect capacitance, farads.
    pub(crate) c_int: f64,
    /// Interconnect resistance, ohms.
    pub(crate) r_int: f64,
    /// Time of flight, seconds.
    pub(crate) flight: f64,
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
/// Construction is `O(V)` and precomputes, in flat per-gate arrays,
/// everything that does not depend on the design variables; adjacency is
/// the netlist's shared [`LevelizedCsr`]. Each evaluation is then a single
/// `O(E)` levelized pass — the "circuit simulation" unit in the paper's
/// `O(M³)` complexity accounting.
#[derive(Debug, Clone)]
pub struct CircuitModel {
    pub(crate) netlist: Netlist,
    pub(crate) tech: Technology,
    /// Process-unique identity, part of a `SizeScratch`'s warm-lane key.
    /// A model never changes after [`CircuitModel::new`], so clones share
    /// it.
    pub(crate) id: u64,
    pub(crate) is_input: Vec<bool>,
    pub(crate) fanin_count: Vec<f64>,
    pub(crate) stack: Vec<f64>,
    pub(crate) activity: Vec<f64>,
    pub(crate) branch: Vec<Branch>,
    /// Whether the gate drives a primary-output load: it is an output, or
    /// it has no sink (a dangling gate still drives a pad). The load
    /// follows the gate's sinks in every fold.
    pub(crate) po_load: Vec<bool>,
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
        let n = netlist.gate_count();
        let mut model = CircuitModel {
            netlist: netlist.clone(),
            tech,
            id: NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed),
            is_input: Vec::with_capacity(n),
            fanin_count: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            activity: Vec::with_capacity(n),
            branch: Vec::with_capacity(n),
            po_load: Vec::with_capacity(n),
            fingerprint: OnceLock::new(),
            csr: OnceLock::new(),
        };
        let tech = &model.tech;
        for (i, gate) in netlist.gates().iter().enumerate() {
            let id = GateId::new(i);
            let sinks = netlist.fanout(id).len();
            let length = wires.branch_length_m(sinks.max(1));
            model.is_input.push(gate.kind() == GateKind::Input);
            model.fanin_count.push(gate.fanin_count() as f64);
            model
                .stack
                .push(gate.kind().series_stack(gate.fanin_count()) as f64);
            model.activity.push(activities.density(id));
            model.branch.push(Branch {
                c_int: tech.wire_capacitance(length),
                r_int: tech.wire_resistance(length),
                flight: tech.time_of_flight(length),
            });
            model.po_load.push(netlist.is_output(id) || sinks == 0);
        }
        model
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
    /// shared: every pass of the model and the warm evaluator's repair read
    /// this one copy of the topology.
    pub fn csr(&self) -> &Arc<LevelizedCsr> {
        self.csr
            .get_or_init(|| Arc::new(LevelizedCsr::new(&self.netlist)))
    }

    /// The bound technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Total gate count (primary inputs included).
    pub(crate) fn gate_count(&self) -> usize {
        self.is_input.len()
    }

    /// The switching activity (transition density) used for gate `id`.
    pub fn activity(&self, id: GateId) -> f64 {
        self.activity[id.index()]
    }

    /// A structural digest of the model: netlist name and wiring,
    /// per-gate activities, and every technology parameter. Two models
    /// with equal fingerprints evaluate any design identically (modulo an
    /// FNV collision), which is what lets the evaluation cache salt its
    /// keys with this value. Hashed once per model, then cached.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    /// The word stream is part of the on-disk format: probe salts, and so
    /// the job journals that persist them, are keyed on it. Per gate:
    /// input flag, fanin count and indices, fanin count, stack and
    /// activity bits, then one `(sink, c_int, r_int, flight)` record per
    /// fanout branch, with sink `u64::MAX` for the primary-output load.
    fn compute_fingerprint(&self) -> u64 {
        let t = &self.tech;
        let csr: &LevelizedCsr = self.csr();
        let n = self.gate_count();
        let mut words: Vec<u64> = Vec::with_capacity(8 * n + 32);
        words.extend(self.netlist.name().bytes().map(u64::from));
        words.push(n as u64);
        for i in 0..n {
            let fanin = csr.fanin_of(i);
            words.push(u64::from(self.is_input[i]));
            words.push(fanin.len() as u64);
            words.extend(fanin.iter().map(|&f| u64::from(f)));
            words.push(self.fanin_count[i].to_bits());
            words.push(self.stack[i].to_bits());
            words.push(self.activity[i].to_bits());
            let b = self.branch[i];
            let sinks = csr.fanout_of(i).iter().map(|&s| u64::from(s));
            for sink in sinks.chain(self.po_load[i].then_some(u64::MAX)) {
                words.extend([
                    sink,
                    b.c_int.to_bits(),
                    b.r_int.to_bits(),
                    b.flight.to_bits(),
                ]);
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

    /// Calls `load` with the width of every load gate `i` drives, in the
    /// netlist's fanout order, then with the primary-output load if it
    /// drives one: the edge order of every per-gate fold.
    ///
    /// `inline(always)` here and on [`CircuitModel::load`]: left to the
    /// inliner, either could become a call per gate, which made the dense
    /// delay pass about 14% slower on the suite circuits.
    #[inline(always)]
    pub(crate) fn for_each_load(
        &self,
        csr: &LevelizedCsr,
        i: usize,
        width: &[f64],
        mut load: impl FnMut(f64),
    ) {
        for &s in csr.fanout_of(i) {
            load(width[s as usize]);
        }
        if self.po_load[i] {
            load(PO_LOAD_WIDTHS);
        }
    }

    /// Gate `i`'s output load capacitance at width `w` and its worst
    /// branch wire delay (RC plus time of flight), folded over its loads.
    #[inline(always)]
    fn load(&self, csr: &LevelizedCsr, i: usize, w: f64, width: &[f64]) -> (f64, f64) {
        let tech = &self.tech;
        let b = self.branch[i];
        let mut c_load = w * tech.c_pd;
        let mut t_wire: f64 = 0.0;
        self.for_each_load(csr, i, width, |sink_w| {
            let c_sink = sink_w * tech.c_in;
            c_load += c_sink + b.c_int;
            t_wire = t_wire.max(b.r_int * (c_sink + b.c_int / 2.0) + b.flight);
        });
        (c_load, t_wire)
    }

    /// Worst-case delay of gate `id` under `design`, given the largest
    /// delay among the gates driving it (Eq. A3).
    ///
    /// This is the reference formula: it calls the device functions
    /// directly, and the dense passes ([`CircuitModel::delays_into`]) and
    /// the batched sizing sweep must reproduce it bit for bit. The
    /// single-gate repair and the sizers' move probes use it.
    ///
    /// Returns `f64::INFINITY` when the operating point cannot switch the
    /// gate (drive current no larger than the opposing leakage).
    pub fn gate_delay(&self, design: &Design, id: GateId, max_fanin_delay: f64) -> f64 {
        let i = id.index();
        if self.is_input[i] {
            return 0.0;
        }
        let vdd = design.vdd;
        let vt = design.vt[i];
        let w = design.width[i];
        let tech = &self.tech;

        // Input-slope contribution: [1/2 − (1 − Vts/Vdd)/(1 + α)]·max t_dij.
        let slope_coeff = (0.5 - (1.0 - vt / vdd) / (1.0 + tech.alpha)).max(0.0);
        let t_slope = slope_coeff * max_fanin_delay;

        // Switching term: series-stack-derated drive fighting the leakage
        // of the complementary network.
        let i_on = tech.drive_current(w, vdd, vt) / self.stack[i];
        let i_leak = self.fanin_count[i] * tech.off_current(w, vt);
        let i_drive = i_on - i_leak;
        if i_drive <= 0.0 {
            return f64::INFINITY;
        }
        let (c_load, t_wire) = self.load(self.csr(), i, w, &design.width);
        let t_switch = vdd / 2.0 * c_load / i_drive;

        // Intermediate-node discharge of the series stack.
        let t_internal = (self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi * w * vdd
            / tech.drive_current(w, vdd, vt);

        t_slope + t_switch + t_internal + t_wire
    }

    /// [`CircuitModel::gate_delay`] of logic gate `i` with its `(vdd, vt)`
    /// device terms taken from `terms`. `k_drive·w·od_pow` and
    /// `w·leak_per_w` multiply in the order of `drive_current` /
    /// `off_current`, so the value is bitwise the reference one.
    #[inline]
    fn memo_gate_delay(
        &self,
        csr: &LevelizedCsr,
        terms: &VtTerms,
        design: &Design,
        i: usize,
        max_fanin_delay: f64,
    ) -> f64 {
        let vdd = design.vdd;
        let w = design.width[i];
        let tech = &self.tech;
        let t_slope = terms.slope_coeff * max_fanin_delay;
        let i_full = tech.k_drive * w * terms.od_pow;
        let i_on = i_full / self.stack[i];
        let i_leak = self.fanin_count[i] * (w * terms.leak_per_w);
        let i_drive = i_on - i_leak;
        if i_drive <= 0.0 {
            return f64::INFINITY;
        }
        let (c_load, t_wire) = self.load(csr, i, w, &design.width);
        let t_switch = vdd / 2.0 * c_load / i_drive;
        let t_internal = (self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi * w * vdd / i_full;
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
    ///
    /// One levelized sweep over [`CircuitModel::csr`]. The `(vdd, vt)`
    /// device terms of [`CircuitModel::gate_delay`] (two `powf`s, an
    /// `exp`/`ln_1p`) are recomputed only when a gate's Vt differs from
    /// the last logic gate's, and every value is bitwise the reference
    /// formula's.
    pub fn delays_into(&self, design: &Design, delays: &mut Vec<f64>) {
        let csr: &LevelizedCsr = self.csr();
        delays.clear();
        delays.resize(self.gate_count(), 0.0);
        let mut memo = VtMemo::new(&self.tech, design.vdd);
        for &i in csr.order() {
            let i = i as usize;
            if self.is_input[i] {
                continue;
            }
            let max_fanin = csr
                .fanin_of(i)
                .iter()
                .map(|&f| delays[f as usize])
                .fold(0.0, f64::max);
            let terms = memo.get(design.vt[i]);
            delays[i] = self.memo_gate_delay(csr, terms, design, i, max_fanin);
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
        self.arrivals_into(delays, arrival)
    }

    /// Arrival times under per-gate `delays` into a caller-owned buffer,
    /// returning the critical delay (latest primary-output arrival): one
    /// levelized sweep over [`CircuitModel::csr`], each arrival the
    /// largest fanin arrival (folded in fanin order) plus the gate's delay.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the gate count.
    pub fn arrivals_into(&self, delays: &[f64], arrival: &mut Vec<f64>) -> f64 {
        assert_eq!(
            delays.len(),
            self.gate_count(),
            "one delay per gate required"
        );
        let csr: &LevelizedCsr = self.csr();
        arrival.clear();
        arrival.resize(self.gate_count(), 0.0);
        for &i in csr.order() {
            let i = i as usize;
            let latest = csr
                .fanin_of(i)
                .iter()
                .map(|&f| arrival[f as usize])
                .fold(0.0, f64::max);
            arrival[i] = latest + delays[i];
        }
        csr.outputs()
            .iter()
            .map(|&o| arrival[o as usize])
            .fold(0.0, f64::max)
    }

    /// The largest delay among the drivers of gate `index`.
    pub fn max_fanin_delay(&self, delays: &[f64], index: usize) -> f64 {
        self.csr()
            .fanin_of(index)
            .iter()
            .map(|&f| delays[f as usize])
            .fold(0.0, f64::max)
    }

    /// Static (Eq. A1) and dynamic (Eq. A2) energy per cycle of gate
    /// `id`, joules. The one per-gate energy formula: every total and
    /// ledger term is a sum of its values.
    pub fn gate_energy(&self, design: &Design, id: GateId, fc: f64) -> EnergyBreakdown {
        self.gate_energy_in(self.csr(), design, id.index(), fc)
    }

    #[inline]
    fn gate_energy_in(
        &self,
        csr: &LevelizedCsr,
        design: &Design,
        i: usize,
        fc: f64,
    ) -> EnergyBreakdown {
        if self.is_input[i] {
            return EnergyBreakdown::default();
        }
        let tech = &self.tech;
        let vdd = design.vdd;
        let w = design.width[i];
        let static_ = vdd * tech.off_current(w, design.vt[i]) / fc;
        let c_int = self.branch[i].c_int;
        let mut c_sw = w * tech.c_pd + (self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi * w;
        self.for_each_load(csr, i, &design.width, |sink_w| {
            c_sw += sink_w * tech.c_in + c_int;
        });
        EnergyBreakdown::new(static_, 0.5 * self.activity[i] * vdd * vdd * c_sw)
    }

    /// Every gate's energy terms, in gate index order.
    fn energy_terms<'a>(
        &'a self,
        design: &'a Design,
        fc: f64,
    ) -> impl Iterator<Item = EnergyBreakdown> + 'a {
        let csr: &LevelizedCsr = self.csr();
        (0..self.gate_count()).map(move |i| self.gate_energy_in(csr, design, i, fc))
    }

    /// Total static + dynamic energy per cycle over all gates, joules:
    /// the gate-index-order sum of [`CircuitModel::gate_energy`].
    pub fn total_energy(&self, design: &Design, fc: f64) -> EnergyBreakdown {
        self.energy_terms(design, fc).sum()
    }

    /// Builds an [`EnergyLedger`] over `design`: per-gate energy terms,
    /// for sizing loops that change one width at a time.
    pub fn energy_ledger(&self, design: &Design, fc: f64) -> EnergyLedger {
        EnergyLedger {
            terms: self.energy_terms(design, fc).collect(),
            fc,
        }
    }

    /// Full evaluation: delays, arrivals, critical path, per-gate and
    /// total energy.
    pub fn evaluate(&self, design: &Design, fc: f64) -> CircuitEval {
        let (mut delays, mut arrival) = (Vec::new(), Vec::new());
        let critical_delay = self.timing_into(design, &mut delays, &mut arrival);
        let gates: Vec<GateEval> = delays
            .iter()
            .zip(self.energy_terms(design, fc))
            .map(|(&delay, energy)| GateEval { delay, energy })
            .collect();
        CircuitEval {
            energy: gates.iter().map(|g| g.energy).sum(),
            gates,
            arrival,
            critical_delay,
        }
    }
}

/// The terms of [`CircuitModel::gate_delay`] that depend on `(vdd, vt)`
/// alone: the transcendentals of the slope coefficient, `drive_current`
/// and `off_current`, with the width factored out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VtTerms {
    /// `max(1/2 − (1 − vt/vdd)/(1 + α), 0)`, the input-slope coefficient.
    pub(crate) slope_coeff: f64,
    /// `overdrive(vdd, vt)^α`: `drive_current(w) = k_drive·w·od_pow`.
    pub(crate) od_pow: f64,
    /// `off_current(w, vt) = w·leak_per_w`.
    pub(crate) leak_per_w: f64,
}

impl VtTerms {
    fn new(tech: &Technology, vdd: f64, vt: f64) -> Self {
        VtTerms {
            slope_coeff: (0.5 - (1.0 - vt / vdd) / (1.0 + tech.alpha)).max(0.0),
            od_pow: tech.overdrive(vdd, vt).powf(tech.alpha),
            leak_per_w: tech.i_off0 * 10f64.powf(-vt / tech.subthreshold_swing()) + tech.i_junction,
        }
    }
}

/// One-entry memo of [`VtTerms`] at a fixed Vdd, keyed on the bits of
/// the last Vt asked for. A uniform-Vt design pays the transcendentals
/// once per pass; any Vt change (`-0.0` vs `0.0` included) recomputes.
/// Invariant: `terms == VtTerms::new(tech, vdd, f64::from_bits(key))`.
pub(crate) struct VtMemo<'a> {
    tech: &'a Technology,
    vdd: f64,
    key: u64,
    terms: VtTerms,
}

impl<'a> VtMemo<'a> {
    pub(crate) fn new(tech: &'a Technology, vdd: f64) -> Self {
        VtMemo {
            tech,
            vdd,
            key: 0f64.to_bits(),
            terms: VtTerms::new(tech, vdd, 0.0),
        }
    }

    #[inline]
    pub(crate) fn get(&mut self, vt: f64) -> &VtTerms {
        if vt.to_bits() != self.key {
            self.key = vt.to_bits();
            self.terms = VtTerms::new(self.tech, self.vdd, vt);
        }
        &self.terms
    }
}

/// Per-gate [`EnergyBreakdown`] terms of one design, kept current one
/// width change at a time.
///
/// A width change at gate `g` perturbs only `g`'s own terms (its static
/// leakage and the self-load part of its dynamic energy) and the dynamic
/// terms of `g`'s *fanins*, whose output load moved — an `O(cone)` update
/// instead of the `O(E)` full [`CircuitModel::total_energy`] pass. Each
/// term is bitwise its dense counterpart, so
/// [`exact_total`](EnergyLedger::exact_total), an index-order re-sum, is
/// bitwise [`CircuitModel::total_energy`] at `O(N)` without any
/// `O(fanout)` energy recomputation.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    terms: Vec<EnergyBreakdown>,
    fc: f64,
}

impl EnergyLedger {
    /// Refreshes the terms of `changed` and its fanins after
    /// `design.width[changed]` was modified. `model` and `design` must be
    /// the ones the ledger was built over (with only accepted width edits
    /// applied).
    pub fn on_width_change(&mut self, model: &CircuitModel, design: &Design, changed: GateId) {
        let csr: &LevelizedCsr = model.csr();
        let i = changed.index();
        for g in std::iter::once(i).chain(csr.fanin_of(i).iter().map(|&f| f as usize)) {
            self.terms[g] = model.gate_energy_in(csr, design, g, self.fc);
        }
    }

    /// Index-order re-sum of the per-gate terms: bitwise-identical to
    /// [`CircuitModel::total_energy`] over the same design.
    pub fn exact_total(&self) -> EnergyBreakdown {
        self.terms.iter().copied().sum()
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
        // The ledger's total against the dense pass, and each term against
        // the per-gate formula, bit for bit.
        let assert_dense = |ledger: &EnergyLedger, d: &Design| {
            let exact = ledger.exact_total();
            let dense = m.total_energy(d, fc);
            assert_eq!(exact.static_.to_bits(), dense.static_.to_bits());
            assert_eq!(exact.dynamic.to_bits(), dense.dynamic.to_bits());
            for (i, term) in ledger.terms.iter().enumerate() {
                let want = m.gate_energy(d, GateId::new(i), fc);
                assert_eq!(term.static_.to_bits(), want.static_.to_bits(), "{i}");
                assert_eq!(term.dynamic.to_bits(), want.dynamic.to_bits(), "{i}");
            }
        };
        assert_dense(&ledger, &d);
        for (name, w) in [("n1", 9.0), ("n4", 1.5), ("n1", 2.0)] {
            let id = n.find(name).unwrap();
            d.width[id.index()] = w;
            ledger.on_width_change(&m, &d, id);
            assert_dense(&ledger, &d);
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
