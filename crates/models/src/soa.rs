//! Levelized structure-of-arrays evaluation kernel with batched
//! speculative width probes.
//!
//! [`CircuitModel`] stores per-gate `Vec`s behind a `Vec` of structs —
//! fine at ISCAS scale, but a pointer chase per gate once netlists reach
//! 10⁵–10⁶ gates. [`SoaKernel`] flattens the model once into contiguous
//! parallel arrays (per-gate constants, fanout edges in CSR form, a
//! [`LevelizedCsr`] over the netlist) so a full delay/arrival/energy pass
//! is a few tight sweeps over flat `f64` buffers.
//!
//! The kernel also batches the innermost loop of Procedure 2. The scalar
//! sizer bisects each gate's width with `M` sequential `gate_delay`
//! probes, and every probe re-derives the gate's width-independent terms —
//! two `powf`s, an `exp`/`ln_1p`, the wire RC fold. One sizing sweep is
//! embarrassingly independent across gates (each bisection reads only
//! *previous-sweep* sink widths and the fixed budget vector), so
//! [`SoaKernel::size_sweep`] hoists those invariants into per-level lane
//! arrays once and runs each lane's `M` bisection steps against the
//! hoisted constants — a handful of mul/add per probe instead of a full
//! `gate_delay`.
//!
//! Bit-identity contract: every method here produces bitwise the value of
//! its [`CircuitModel`] counterpart. The hoists are exact — `drive_current
//! = (k·w)·overdrive^α` factors the `powf` out of the width loop without
//! reassociating anything width-dependent, `off_current = w·leak_per_w`
//! likewise — and per-gate fold orders (fanin order, fanout edge order,
//! gate index order for energy sums) are preserved by construction.
//! `minpower-core` cross-checks the batched sweep against the scalar one
//! gate-for-gate in debug builds.

use minpower_netlist::LevelizedCsr;

use crate::circuit::{CircuitModel, PO_LOAD_WIDTHS};
use crate::design::Design;
use crate::energy::EnergyBreakdown;

/// Sentinel sink index for a primary-output load (the `None` edge target
/// of the model's fanout list).
const PO_SENTINEL: u32 = u32::MAX;

/// Flat, levelized mirror of a [`CircuitModel`]: per-gate constants and
/// fanout edges as parallel arrays. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SoaKernel {
    csr: LevelizedCsr,
    tech: minpower_device::Technology,
    is_input: Vec<bool>,
    fanin_count: Vec<f64>,
    stack: Vec<f64>,
    activity: Vec<f64>,
    /// CSR offsets into the edge arrays; includes the pseudo-edges the
    /// model appends for primary-output loads.
    edge_offsets: Vec<u32>,
    /// Sink gate index per edge, or [`PO_SENTINEL`] for an output load.
    edge_target: Vec<u32>,
    edge_c_int: Vec<f64>,
    edge_r_int: Vec<f64>,
    edge_flight: Vec<f64>,
}

impl SoaKernel {
    /// Flattens `model` into SoA buffers. `O(V + E)`.
    pub fn new(model: &CircuitModel) -> Self {
        let n = model.info.len();
        let mut kernel = SoaKernel {
            csr: LevelizedCsr::new(&model.netlist),
            tech: model.tech.clone(),
            is_input: Vec::with_capacity(n),
            fanin_count: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            activity: Vec::with_capacity(n),
            edge_offsets: Vec::with_capacity(n + 1),
            edge_target: Vec::new(),
            edge_c_int: Vec::new(),
            edge_r_int: Vec::new(),
            edge_flight: Vec::new(),
        };
        kernel.edge_offsets.push(0);
        for g in &model.info {
            kernel.is_input.push(g.is_input);
            kernel.fanin_count.push(g.fanin_count);
            kernel.stack.push(g.stack);
            kernel.activity.push(g.activity);
            for e in &g.fanout {
                kernel.edge_target.push(e.target.unwrap_or(PO_SENTINEL));
                kernel.edge_c_int.push(e.c_int);
                kernel.edge_r_int.push(e.r_int);
                kernel.edge_flight.push(e.flight);
            }
            kernel.edge_offsets.push(kernel.edge_target.len() as u32);
        }
        kernel
    }

    /// The levelized index view the kernel sweeps over.
    pub fn csr(&self) -> &LevelizedCsr {
        &self.csr
    }

    /// Total gate count (primary inputs included).
    pub fn gate_count(&self) -> usize {
        self.is_input.len()
    }

    /// The fanout-edge range of gate `i` in the flat edge arrays.
    #[inline]
    fn edges(&self, i: usize) -> std::ops::Range<usize> {
        self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize
    }

    /// [`CircuitModel::gate_delay`] of logic gate `i` over the flat
    /// arrays, given its `(vdd, vt)` device terms. `k_drive·w·od_pow` and
    /// `w·leak_per_w` multiply in the order of `drive_current` /
    /// `off_current`, so the value is bitwise the scalar one.
    #[inline]
    fn gate_delay(&self, terms: &VtTerms, design: &Design, i: usize, max_fanin_delay: f64) -> f64 {
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
        let mut c_load = w * tech.c_pd;
        let mut t_wire: f64 = 0.0;
        for e in self.edges(i) {
            let t = self.edge_target[e];
            let sink_w = if t == PO_SENTINEL {
                PO_LOAD_WIDTHS
            } else {
                design.width[t as usize]
            };
            let c_sink = sink_w * tech.c_in;
            c_load += c_sink + self.edge_c_int[e];
            t_wire = t_wire.max(
                self.edge_r_int[e] * (c_sink + self.edge_c_int[e] / 2.0) + self.edge_flight[e],
            );
        }
        let t_switch = vdd / 2.0 * c_load / i_drive;

        let t_internal = (self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi * w * vdd / i_full;

        t_slope + t_switch + t_internal + t_wire
    }

    /// [`CircuitModel::delays_into`] as a levelized sweep: bitwise the
    /// same vector, one contiguous pass per level. The `(vdd, vt)` device
    /// terms are recomputed only when a gate's Vt differs from the last
    /// logic gate's.
    pub fn delays_into(&self, design: &Design, delays: &mut Vec<f64>) {
        delays.clear();
        delays.resize(self.gate_count(), 0.0);
        let mut memo = VtMemo::new(&self.tech, design.vdd);
        for &i in self.csr.order() {
            let i = i as usize;
            if self.is_input[i] {
                continue;
            }
            let max_fanin = self
                .csr
                .fanin_of(i)
                .iter()
                .map(|&f| delays[f as usize])
                .fold(0.0, f64::max);
            let terms = memo.get(design.vt[i]);
            delays[i] = self.gate_delay(terms, design, i, max_fanin);
        }
    }

    /// [`CircuitModel::timing_into`]: delays plus the arrival sweep,
    /// returning the critical delay. Bitwise the dense values.
    pub fn timing_into(
        &self,
        design: &Design,
        delays: &mut Vec<f64>,
        arrival: &mut Vec<f64>,
    ) -> f64 {
        self.delays_into(design, delays);
        arrival.clear();
        arrival.resize(self.gate_count(), 0.0);
        for &i in self.csr.order() {
            let i = i as usize;
            let latest = self
                .csr
                .fanin_of(i)
                .iter()
                .map(|&f| arrival[f as usize])
                .fold(0.0, f64::max);
            arrival[i] = latest + delays[i];
        }
        self.csr
            .outputs()
            .iter()
            .map(|&o| arrival[o as usize])
            .fold(0.0, f64::max)
    }

    /// [`CircuitModel::gate_static_energy`] over the flat arrays.
    pub fn gate_static_energy(&self, design: &Design, i: usize, fc: f64) -> f64 {
        if self.is_input[i] {
            return 0.0;
        }
        design.vdd * self.tech.off_current(design.width[i], design.vt[i]) / fc
    }

    /// [`CircuitModel::gate_dynamic_energy`] over the flat arrays.
    pub fn gate_dynamic_energy(&self, design: &Design, i: usize) -> f64 {
        if self.is_input[i] {
            return 0.0;
        }
        let tech = &self.tech;
        let w = design.width[i];
        let mut c_sw = w * tech.c_pd + (self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi * w;
        for e in self.edges(i) {
            let t = self.edge_target[e];
            let sink_w = if t == PO_SENTINEL {
                PO_LOAD_WIDTHS
            } else {
                design.width[t as usize]
            };
            c_sw += sink_w * tech.c_in + self.edge_c_int[e];
        }
        0.5 * self.activity[i] * design.vdd * design.vdd * c_sw
    }

    /// [`CircuitModel::total_energy`]: index-order accumulation, bitwise
    /// the dense breakdown.
    pub fn total_energy(&self, design: &Design, fc: f64) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for i in 0..self.gate_count() {
            total.static_ += self.gate_static_energy(design, i, fc);
            total.dynamic += self.gate_dynamic_energy(design, i);
        }
        total
    }

    /// One fixed-point width-sizing sweep of Procedure 2, batched: for
    /// each level, the per-gate width-independent terms (slope, wire RC,
    /// `overdrive^α`, per-width leakage, load terms from previous-sweep
    /// sink widths) are hoisted into `scratch` lanes once, then each
    /// lane's `steps` bisection iterations probe against the hoisted
    /// constants — a handful of mul/add per probe instead of a full
    /// `gate_delay` with its two `powf`s. The `(vdd, vt)` device terms
    /// come from a one-entry memo on the last lane's Vt, so their
    /// transcendentals are paid once per distinct Vt run, not per gate.
    ///
    /// Semantics are exactly the scalar sweep of the budgeted sizer: each
    /// gate's width is bisected to the smallest value whose delay meets
    /// `budgets[i] * margin`, with the slope-term input
    /// `max(min(budget, 1.05 × last_delay))` over its fanins, the
    /// minimum-width endpoint tried after the bisection, and the maximum
    /// width kept when no probe was feasible. Within one sweep gates are
    /// independent — a gate's probes read only sink widths (strictly later
    /// levels, untouched this sweep) and the fixed `budgets` /
    /// `last_delays` — so the level ordering produces bitwise the widths
    /// of the scalar gate-by-gate loop.
    ///
    /// Returns the sweep's maximum relative width change (the scalar
    /// loop's convergence measure, same fold).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `budgets` / `last_delays` don't cover
    /// every gate.
    pub fn size_sweep(
        &self,
        design: &mut Design,
        budgets: &[f64],
        last_delays: &[f64],
        steps: usize,
        margin: f64,
        scratch: &mut SizeScratch,
    ) -> f64 {
        debug_assert_eq!(budgets.len(), self.gate_count());
        debug_assert_eq!(last_delays.len(), self.gate_count());
        let tech = &self.tech;
        let (w_lo, w_hi) = tech.w_range;
        let vdd = design.vdd;
        let mut memo = VtMemo::new(tech, vdd);
        let mut max_rel_change = 0.0f64;
        for level in 0..self.csr.level_count() {
            // Build lanes: hoist every width-independent term.
            scratch.clear();
            for &gi in self.csr.level(level) {
                let i = gi as usize;
                if self.is_input[i] {
                    continue;
                }
                let terms = *memo.get(design.vt[i]);
                let max_fanin = self
                    .csr
                    .fanin_of(i)
                    .iter()
                    .map(|&f| {
                        let j = f as usize;
                        budgets[j].min(last_delays[j] * 1.05)
                    })
                    .fold(0.0, f64::max);
                let mut t_wire: f64 = 0.0;
                for e in self.edges(i) {
                    let t = self.edge_target[e];
                    let sink_w = if t == PO_SENTINEL {
                        PO_LOAD_WIDTHS
                    } else {
                        design.width[t as usize]
                    };
                    let c_sink = sink_w * tech.c_in;
                    scratch.terms.push(c_sink + self.edge_c_int[e]);
                    t_wire = t_wire.max(
                        self.edge_r_int[e] * (c_sink + self.edge_c_int[e] / 2.0)
                            + self.edge_flight[e],
                    );
                }
                scratch.term_offsets.push(scratch.terms.len() as u32);
                scratch.gate.push(gi);
                scratch.t_slope.push(terms.slope_coeff * max_fanin);
                scratch.t_wire.push(t_wire);
                scratch.od_pow.push(terms.od_pow);
                scratch.leak_per_w.push(terms.leak_per_w);
                scratch
                    .cmi_pre
                    .push((self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi);
                scratch.stack.push(self.stack[i]);
                scratch.fanin_count.push(self.fanin_count[i]);
                scratch.target.push(budgets[i] * margin);
            }
            let lanes = scratch.gate.len();
            // Lane-major bisection: each lane runs its `steps` iterations
            // plus the minimum-width endpoint to completion against its
            // (cache-resident) hoisted constants, then commits. Lanes are
            // independent within a sweep, so this evaluation order gives
            // bitwise the gate-by-gate widths; lane-major beats step-major
            // passes because a level's lane arrays at 10⁵⁺ gates exceed
            // cache and `steps` full passes over them go memory-bound.
            for l in 0..lanes {
                let target = scratch.target[l];
                let mut lo = w_lo;
                let mut hi = w_hi;
                let mut feasible = f64::NAN;
                for _ in 0..steps {
                    let w = 0.5 * (lo + hi);
                    if scratch.probe_delay(tech, vdd, l, w) <= target {
                        feasible = w;
                        hi = w;
                    } else {
                        lo = w;
                    }
                }
                // Minimum-width endpoint the bisection never lands on.
                if scratch.probe_delay(tech, vdd, l, w_lo) <= target {
                    feasible = w_lo;
                }
                let i = scratch.gate[l] as usize;
                let before = design.width[i];
                let w_new = if feasible.is_nan() { w_hi } else { feasible };
                design.width[i] = w_new;
                let rel = (w_new - before).abs() / before.max(w_lo);
                max_rel_change = max_rel_change.max(rel);
            }
        }
        max_rel_change
    }
}

/// The terms of `gate_delay` that depend on `(vdd, vt)` alone: the
/// transcendentals of the slope coefficient, `drive_current` and
/// `off_current`, with the width factored out.
#[derive(Debug, Clone, Copy)]
struct VtTerms {
    /// `max(1/2 − (1 − vt/vdd)/(1 + α), 0)`, the input-slope coefficient.
    slope_coeff: f64,
    /// `overdrive(vdd, vt)^α`: `drive_current(w) = k_drive·w·od_pow`.
    od_pow: f64,
    /// `off_current(w, vt) = w·leak_per_w`.
    leak_per_w: f64,
}

impl VtTerms {
    fn new(tech: &minpower_device::Technology, vdd: f64, vt: f64) -> Self {
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
struct VtMemo<'a> {
    tech: &'a minpower_device::Technology,
    vdd: f64,
    key: u64,
    terms: VtTerms,
}

impl<'a> VtMemo<'a> {
    fn new(tech: &'a minpower_device::Technology, vdd: f64) -> Self {
        VtMemo {
            tech,
            vdd,
            key: 0f64.to_bits(),
            terms: VtTerms::new(tech, vdd, 0.0),
        }
    }

    #[inline]
    fn get(&mut self, vt: f64) -> &VtTerms {
        if vt.to_bits() != self.key {
            self.key = vt.to_bits();
            self.terms = VtTerms::new(self.tech, self.vdd, vt);
        }
        &self.terms
    }
}

/// Reusable lane buffers for [`SoaKernel::size_sweep`]: one lane per
/// logic gate of the level being sized, parallel arrays throughout.
#[derive(Debug, Clone, Default)]
pub struct SizeScratch {
    gate: Vec<u32>,
    target: Vec<f64>,
    t_slope: Vec<f64>,
    t_wire: Vec<f64>,
    /// `overdrive(vdd, vt)^α` — the hoisted `powf` of `drive_current`.
    od_pow: Vec<f64>,
    /// `off_current(w, vt) / w` — the hoisted width-independent leakage.
    leak_per_w: Vec<f64>,
    /// `max(fanin_count − 1, 0) · c_mi` — the internal-node prefactor.
    cmi_pre: Vec<f64>,
    stack: Vec<f64>,
    fanin_count: Vec<f64>,
    /// Per-edge load terms `c_sink + c_int`, flat across the level.
    terms: Vec<f64>,
    /// Lane `l`'s terms are `terms[term_offsets[l]..term_offsets[l + 1]]`.
    term_offsets: Vec<u32>,
}

impl SizeScratch {
    /// A fresh, empty scratch. Buffers grow to the widest level on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        SizeScratch::default()
    }

    fn clear(&mut self) {
        self.gate.clear();
        self.target.clear();
        self.t_slope.clear();
        self.t_wire.clear();
        self.od_pow.clear();
        self.leak_per_w.clear();
        self.cmi_pre.clear();
        self.stack.clear();
        self.fanin_count.clear();
        self.terms.clear();
        self.term_offsets.clear();
        self.term_offsets.push(0);
    }

    /// Candidate-width delay of lane `l` at width `w` from the hoisted
    /// terms: bitwise what `gate_delay` computes for the same state.
    #[inline]
    fn probe_delay(&self, tech: &minpower_device::Technology, vdd: f64, l: usize, w: f64) -> f64 {
        let i_on = tech.k_drive * w * self.od_pow[l] / self.stack[l];
        let i_leak = self.fanin_count[l] * (w * self.leak_per_w[l]);
        let i_drive = i_on - i_leak;
        if i_drive <= 0.0 {
            return f64::INFINITY;
        }
        let mut c_load = w * tech.c_pd;
        for e in self.term_offsets[l] as usize..self.term_offsets[l + 1] as usize {
            c_load += self.terms[e];
        }
        let t_switch = vdd / 2.0 * c_load / i_drive;
        let t_internal = self.cmi_pre[l] * w * vdd / (tech.k_drive * w * self.od_pow[l]);
        self.t_slope[l] + t_switch + t_internal + self.t_wire[l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_device::Technology;
    use minpower_netlist::{GateId, GateKind, Netlist, NetlistBuilder};

    /// Reconvergent network with shared fanout, a multi-input stack, and
    /// two primary outputs — exercises PO pseudo-edges and wire folds.
    fn web() -> Netlist {
        let mut b = NetlistBuilder::new("web");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate("u", GateKind::Nand, &["a", "c"]).unwrap();
        b.gate("v", GateKind::Nor, &["u", "c"]).unwrap();
        b.gate("w", GateKind::Nand, &["u", "v"]).unwrap();
        b.gate("x", GateKind::Or, &["w", "u"]).unwrap();
        b.gate("y", GateKind::Not, &["x"]).unwrap();
        b.gate("z", GateKind::Buf, &["w"]).unwrap();
        b.output("y").unwrap();
        b.output("z").unwrap();
        b.finish().unwrap()
    }

    fn model(netlist: &Netlist) -> CircuitModel {
        CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, 0.4)
    }

    fn varied_design(n: &Netlist, vdd: f64) -> Design {
        let mut d = Design::uniform(n, vdd, 0.35, 2.0);
        for i in 0..n.gate_count() {
            d.width[i] = 1.0 + (i % 7) as f64 * 1.7;
            d.vt[i] = 0.25 + (i % 3) as f64 * 0.07;
        }
        d
    }

    #[test]
    fn kernel_passes_match_model_bitwise() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        for vdd in [0.6, 1.5, 3.3] {
            let d = varied_design(&n, vdd);
            let mut kd = Vec::new();
            let mut ka = Vec::new();
            let crit = k.timing_into(&d, &mut kd, &mut ka);
            let mut md = Vec::new();
            let mut ma = Vec::new();
            let mcrit = m.timing_into(&d, &mut md, &mut ma);
            assert_eq!(crit.to_bits(), mcrit.to_bits());
            for i in 0..n.gate_count() {
                assert_eq!(kd[i].to_bits(), md[i].to_bits(), "delay {i}");
                assert_eq!(ka[i].to_bits(), ma[i].to_bits(), "arrival {i}");
            }
            let ke = k.total_energy(&d, 3e8);
            let me = m.total_energy(&d, 3e8);
            assert_eq!(ke.static_.to_bits(), me.static_.to_bits());
            assert_eq!(ke.dynamic.to_bits(), me.dynamic.to_bits());
            for i in 0..n.gate_count() {
                let id = GateId::new(i);
                assert_eq!(
                    k.gate_static_energy(&d, i, 3e8).to_bits(),
                    m.gate_static_energy(&d, id, 3e8).to_bits()
                );
                assert_eq!(
                    k.gate_dynamic_energy(&d, i).to_bits(),
                    m.gate_dynamic_energy(&d, id).to_bits()
                );
            }
        }
    }

    /// The scalar reference sweep: the budgeted sizer's per-gate loop,
    /// transcribed from `minpower-core` (gate-by-gate bisection against
    /// the derated budget, minimum-width endpoint, convergence fold).
    fn scalar_sweep(
        m: &CircuitModel,
        design: &mut Design,
        budgets: &[f64],
        last_delays: &[f64],
        steps: usize,
        margin: f64,
    ) -> f64 {
        let tech = m.technology();
        let (w_lo, w_hi) = tech.w_range;
        let n = m.netlist();
        let mut max_rel_change = 0.0f64;
        for &id in n.topological_order() {
            let i = id.index();
            if n.gate(id).kind() == GateKind::Input {
                continue;
            }
            let max_fanin = n
                .gate(id)
                .fanin()
                .iter()
                .map(|f| {
                    let j = f.index();
                    budgets[j].min(last_delays[j] * 1.05)
                })
                .fold(0.0, f64::max);
            let before = design.width[i];
            let target = budgets[i] * margin;
            let mut lo = w_lo;
            let mut hi = w_hi;
            let mut feasible_w = None;
            for _ in 0..steps {
                let w = 0.5 * (lo + hi);
                design.width[i] = w;
                let t = m.gate_delay(design, id, max_fanin);
                if t <= target {
                    feasible_w = Some(w);
                    hi = w;
                } else {
                    lo = w;
                }
            }
            design.width[i] = w_lo;
            if m.gate_delay(design, id, max_fanin) <= target {
                feasible_w = Some(w_lo);
            }
            design.width[i] = feasible_w.unwrap_or(w_hi);
            let rel = (design.width[i] - before).abs() / before.max(w_lo);
            max_rel_change = max_rel_change.max(rel);
        }
        max_rel_change
    }

    #[test]
    fn batched_size_sweep_matches_scalar_bitwise() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        let gates = n.gate_count();
        // Budgets spread around realistic stage delays for this process.
        let budgets: Vec<f64> = (0..gates).map(|i| 2e-10 * (1.0 + (i % 4) as f64)).collect();
        let mut scratch = SizeScratch::new();
        for vdd in [0.8, 1.5, 3.3] {
            let mut batched = varied_design(&n, vdd);
            let mut scalar = batched.clone();
            let mut last_delays = budgets.clone();
            // Several coupled sweeps so previous-sweep sink widths and the
            // `last_delays` feedback both get exercised.
            for _sweep in 0..3 {
                let rb = k.size_sweep(&mut batched, &budgets, &last_delays, 14, 0.97, &mut scratch);
                let rs = scalar_sweep(&m, &mut scalar, &budgets, &last_delays, 14, 0.97);
                assert_eq!(rb.to_bits(), rs.to_bits(), "rel-change diverged");
                for i in 0..gates {
                    assert_eq!(
                        batched.width[i].to_bits(),
                        scalar.width[i].to_bits(),
                        "width {i} diverged at vdd {vdd}"
                    );
                }
                k.delays_into(&batched, &mut last_delays);
            }
        }
    }

    #[test]
    fn infeasible_lane_takes_max_width() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        let mut d = varied_design(&n, 1.5);
        // Impossible budgets: every lane's probes all fail, so every
        // logic gate lands on the maximum width (the scalar fallback).
        let budgets = vec![1e-18; n.gate_count()];
        let last_delays = budgets.clone();
        let mut scratch = SizeScratch::new();
        k.size_sweep(&mut d, &budgets, &last_delays, 6, 0.97, &mut scratch);
        let w_hi = m.technology().w_range.1;
        for i in 0..n.gate_count() {
            let id = GateId::new(i);
            if n.gate(id).kind() != GateKind::Input {
                assert_eq!(d.width[i], w_hi, "gate {i}");
            }
        }
    }

    /// A levelized network, `levels` deep and `width` wide: each gate
    /// reads two gates of the previous level and, from level 2 on, one
    /// of the level before that, so levels hold many lanes and sinks span
    /// levels.
    fn layered(levels: usize, width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("layered");
        let kinds = [GateKind::Nand, GateKind::Nor, GateKind::And, GateKind::Or];
        let name = |l: usize, k: usize| format!("g{l}_{k}");
        for k in 0..width {
            b.input(&name(0, k)).unwrap();
        }
        for l in 1..=levels {
            for k in 0..width {
                let mut fanin = vec![name(l - 1, k), name(l - 1, (k + 1) % width)];
                if l >= 2 && k % 3 == 0 {
                    fanin.push(name(l - 2, (k + 2) % width));
                }
                let fanin: Vec<&str> = fanin.iter().map(String::as_str).collect();
                let kind = if k % 5 == 4 {
                    GateKind::Not
                } else {
                    kinds[(l + k) % kinds.len()]
                };
                let fanin = if kind == GateKind::Not {
                    &fanin[..1]
                } else {
                    &fanin[..]
                };
                b.gate(&name(l, k), kind, fanin).unwrap();
            }
        }
        for k in 0..width {
            b.output(&name(levels, k)).unwrap();
        }
        b.output(&name(levels / 2, 1)).unwrap();
        b.finish().unwrap()
    }

    /// Per-gate Vt patterns that change the memo's key in every way a
    /// sized design can: two values alternating gate to gate, one value
    /// per level, every value distinct, and a signed-zero pair.
    fn vt_patterns(n: &Netlist) -> Vec<(&'static str, Vec<f64>)> {
        let gates = 0..n.gate_count();
        vec![
            (
                "alternating",
                gates
                    .clone()
                    .map(|i| if i % 2 == 0 { 0.3 } else { 0.42 })
                    .collect(),
            ),
            (
                "per-level",
                gates
                    .clone()
                    .map(|i| 0.2 + 0.05 * n.level(GateId::new(i)) as f64)
                    .collect(),
            ),
            (
                "distinct",
                gates.clone().map(|i| 0.18 + 0.003 * i as f64).collect(),
            ),
            (
                "signed-zero",
                gates
                    .map(|i| match i % 3 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => 0.35,
                    })
                    .collect(),
            ),
        ]
    }

    #[test]
    fn vt_memo_key_changes_match_scalar_bitwise() {
        let n = layered(7, 9);
        let m = model(&n);
        let k = SoaKernel::new(&m);
        let gates = n.gate_count();
        let budgets: Vec<f64> = (0..gates).map(|i| 2e-10 * (1.0 + (i % 4) as f64)).collect();
        let mut scratch = SizeScratch::new();
        for (pattern, vt) in vt_patterns(&n) {
            for vdd in [0.8, 1.5, 3.3] {
                let mut d = Design::uniform(&n, vdd, 0.3, 2.0);
                d.vt.clone_from(&vt);
                for i in 0..gates {
                    d.width[i] = 1.0 + (i % 7) as f64 * 1.7;
                }

                // `timing_into` runs `delays_into`, then the arrivals.
                let (mut kd, mut ka, mut md, mut ma) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                let crit = k.timing_into(&d, &mut kd, &mut ka);
                let mcrit = m.timing_into(&d, &mut md, &mut ma);
                assert_eq!(
                    crit.to_bits(),
                    mcrit.to_bits(),
                    "{pattern} vdd {vdd}: critical"
                );
                for i in 0..gates {
                    assert_eq!(
                        kd[i].to_bits(),
                        md[i].to_bits(),
                        "{pattern} vdd {vdd}: delay {i}"
                    );
                    assert_eq!(
                        ka[i].to_bits(),
                        ma[i].to_bits(),
                        "{pattern} vdd {vdd}: arrival {i}"
                    );
                }

                let mut batched = d.clone();
                let mut scalar = d;
                let mut last_delays = budgets.clone();
                for sweep in 0..3 {
                    let rb =
                        k.size_sweep(&mut batched, &budgets, &last_delays, 12, 0.97, &mut scratch);
                    let rs = scalar_sweep(&m, &mut scalar, &budgets, &last_delays, 12, 0.97);
                    assert_eq!(
                        rb.to_bits(),
                        rs.to_bits(),
                        "{pattern} vdd {vdd} sweep {sweep}"
                    );
                    for i in 0..gates {
                        assert_eq!(
                            batched.width[i].to_bits(),
                            scalar.width[i].to_bits(),
                            "{pattern} vdd {vdd} sweep {sweep}: width {i}"
                        );
                    }
                    m.delays_into(&scalar, &mut last_delays);
                }
            }
        }
    }
}
