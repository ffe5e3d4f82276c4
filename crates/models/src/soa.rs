//! Batched speculative width probes: the sizing sweep of Procedure 2.
//!
//! [`CircuitModel`] holds its per-gate constants in flat arrays over the
//! netlist's shared [`LevelizedCsr`], so
//! its dense delay/arrival/energy passes are a few tight sweeps over
//! contiguous buffers. This module adds the innermost loop of Procedure
//! 2 on the same layout. The reference sizer
//! ([`CircuitModel::scalar_size_sweep`]) bisects each gate's width with
//! `M` sequential [`CircuitModel::gate_delay`] probes, and every probe
//! re-derives the gate's width-independent terms — two `powf`s, an
//! `exp`/`ln_1p`, the wire RC fold. One sizing sweep is embarrassingly
//! independent across gates (each bisection reads only *previous-sweep*
//! sink widths and the fixed budget vector), so
//! [`CircuitModel::size_sweep`] hoists those invariants once per gate
//! ("lane") and bisects the lanes in 4-lane lockstep blocks against the
//! hoisted constants — a handful of mul/add per probe instead of a full
//! `gate_delay`, four independent probe chains in flight at once.
//!
//! The same independence makes a lane's result a pure function of the
//! inputs its bisection reads. [`SizeScratch`] remembers those inputs per
//! gate across the fixed-point sweeps that share it, and a lane whose
//! inputs are bitwise unchanged takes its remembered width instead of
//! being bisected again ("warm lanes").
//!
//! Bit-identity contract: [`CircuitModel::size_sweep`] commits bitwise
//! the widths of [`CircuitModel::scalar_size_sweep`]. The hoists are
//! exact — `drive_current = (k·w)·overdrive^α` factors the `powf` out of
//! the width loop without reassociating anything width-dependent,
//! `off_current = w·leak_per_w` likewise — and per-gate fold orders
//! (fanin order, fanout order with the output load last) are preserved.
//! `minpower-core` cross-checks the batched sweep against the reference
//! one gate-for-gate in debug builds.

use minpower_netlist::LevelizedCsr;

use crate::circuit::{CircuitModel, VtMemo};
use crate::design::Design;
use crate::energy::EnergyBreakdown;

/// Lanes bisected together, step by step, in [`CircuitModel::size_sweep`].
const BLOCK: usize = 4;

impl CircuitModel {
    /// One fixed-point width-sizing sweep of Procedure 2, batched: each
    /// gate's width-independent terms (slope, wire RC, `overdrive^α`,
    /// per-width leakage, load terms from previous-sweep sink widths) are
    /// hoisted into a lane of `scratch` once, then its `steps` bisection
    /// iterations probe against the hoisted constants — a handful of
    /// mul/add per probe instead of a full `gate_delay` with its two
    /// `powf`s. The `(vdd, vt)` device terms come from a one-entry memo on
    /// the last lane's Vt, so their transcendentals are paid once per
    /// distinct Vt run, not per gate.
    ///
    /// Semantics are exactly [`CircuitModel::scalar_size_sweep`]'s. Within
    /// one sweep gates are independent — a gate's probes read only sink
    /// widths (strictly later levels, untouched until the gate itself is
    /// visited) and the fixed `budgets` / `last_delays` — so any
    /// interleaving of the lanes that hoists each gate before its sinks
    /// commit produces bitwise the widths of the scalar gate-by-gate loop.
    ///
    /// **Warm lanes.** That independence makes each gate's new width a
    /// pure function of what its bisection reads: the folded slope input,
    /// `budgets[i] * margin`, `vt[i]`, its non-output sink widths, and —
    /// fixed for the call — `vdd`, `steps`, `margin` and the model.
    /// `scratch` keeps, per gate, the bits of the first three and the
    /// width they produced, keyed on `(vdd, steps, margin, model)`, where
    /// the model is a process-unique id, not an address; a key change
    /// makes the next sweep cold. A gate whose inputs all match bitwise is
    /// not bisected: it takes the remembered width. Sink widths need no
    /// per-edge copy. Every reader of a sink sits in an earlier level, so
    /// it reads the sink's width before the sink is visited; the scratch
    /// records, per gate, its width when the sweep visits it. A reader
    /// whose sinks all still hold the width recorded at the previous sweep
    /// sees what it saw then, and by induction what it saw when it was
    /// last bisected. Edits to `design.width` between sweeps are therefore
    /// caught like any other change.
    ///
    /// **Lockstep lanes.** The lanes that need bisecting fill blocks of
    /// four in topological order; a full block is bisected step by step,
    /// all four lanes at once, with branchless lo/hi/feasible selects
    /// (padding lanes of the last block get a target of `-inf`). One
    /// lane's probes form a serial chain — three divisions, a load fold
    /// and an unpredictable branch each — bound by latency and
    /// mispredictions; four independent chains overlap it. Each probe is
    /// still the scalar expression tree, so only the interleaving changes.
    ///
    /// Returns the sweep's maximum relative width change (the scalar
    /// loop's convergence measure, same fold), computed against the
    /// width each gate held on entry whether it was bisected or not.
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
        let n = self.gate_count();
        debug_assert_eq!(budgets.len(), n);
        debug_assert_eq!(last_delays.len(), n);
        let csr: &LevelizedCsr = self.csr();
        let tech = &self.tech;
        let w_lo = tech.w_range.0;
        let vdd = design.vdd;
        let key = MemoKey {
            vdd: vdd.to_bits(),
            steps,
            margin: margin.to_bits(),
            model: self.id,
        };
        // Taken, not read: a sweep that unwinds part-way leaves the
        // scratch cold (and its half-filled block is dropped below).
        let warm = scratch.key.take() == Some(key);
        if !warm {
            scratch.block = Block::default();
            scratch.memo.clear();
            scratch.memo.resize(n, LaneMemo::default());
            scratch.seen_width.clear();
            scratch.seen_width.resize(n, 0.0);
        }
        let mut vt_memo = VtMemo::new(tech, vdd);
        let mut max_rel_change = 0.0f64;
        // Topological order, one block at a time: a block is bisected as
        // soon as it fills, even across levels, because a committed width
        // is read only by the gate's drivers, which were visited (and
        // hoisted their loads) before it.
        for &gi in csr.order() {
            let i = gi as usize;
            if self.is_input[i] {
                continue;
            }
            let vt = design.vt[i];
            let max_fanin = csr
                .fanin_of(i)
                .iter()
                .map(|&f| {
                    let j = f as usize;
                    budgets[j].min(last_delays[j] * 1.05)
                })
                .fold(0.0, f64::max);
            let target = budgets[i] * margin;
            let before = design.width[i];
            let inputs = LaneInputs {
                slope_in: max_fanin.to_bits(),
                target: target.to_bits(),
                vt: vt.to_bits(),
            };
            let reuse = warm
                && scratch.memo[i].inputs == inputs
                && csr.fanout_of(i).iter().all(|&t| {
                    design.width[t as usize].to_bits() == scratch.seen_width[t as usize].to_bits()
                });
            scratch.seen_width[i] = before;
            if reuse {
                scratch.lanes_reused += 1;
                let w_new = scratch.memo[i].width;
                design.width[i] = w_new;
                let rel = (w_new - before).abs() / before.max(w_lo);
                max_rel_change = max_rel_change.max(rel);
                continue;
            }
            scratch.memo[i].inputs = inputs;
            scratch.lanes_bisected += 1;

            // Hoist every width-independent term into the next block lane.
            let terms = *vt_memo.get(vt);
            let b = self.branch[i];
            let block = &mut scratch.block;
            let k = block.len;
            let mut t_wire: f64 = 0.0;
            let mut row = 0;
            self.for_each_load(csr, i, &design.width, |sink_w| {
                let c_sink = sink_w * tech.c_in;
                block.push_term(row, c_sink + b.c_int);
                row += 1;
                t_wire = t_wire.max(b.r_int * (c_sink + b.c_int / 2.0) + b.flight);
            });
            block.gate[k] = i;
            block.target[k] = target;
            block.t_slope[k] = terms.slope_coeff * max_fanin;
            block.t_wire[k] = t_wire;
            block.od_pow[k] = terms.od_pow;
            block.leak_per_w[k] = terms.leak_per_w;
            block.cmi_pre[k] = (self.fanin_count[i] - 1.0).max(0.0) * tech.c_mi;
            block.stack[k] = self.stack[i];
            block.fanin_count[k] = self.fanin_count[i];
            block.len += 1;
            if block.len == BLOCK {
                let rel = block.bisect(tech, vdd, steps, design, &mut scratch.memo);
                max_rel_change = max_rel_change.max(rel);
            }
        }
        if scratch.block.len > 0 {
            let rel = scratch
                .block
                .bisect(tech, vdd, steps, design, &mut scratch.memo);
            max_rel_change = max_rel_change.max(rel);
        }
        scratch.key = Some(key);
        max_rel_change
    }

    /// The reference sizing sweep that [`CircuitModel::size_sweep`]
    /// batches: contract-based sizing, gate by gate in topological order.
    ///
    /// Each logic gate's width is bisected (`steps` halvings of the
    /// width range, probing [`CircuitModel::gate_delay`]) to the smallest
    /// value whose delay meets `budgets[i] * margin`, with the slope-term
    /// input `max(min(budget_j, 1.05 × last_delay_j))` over its fanins
    /// `j` — drivers assumed to run at their own budgets unless the
    /// previous sweep found them faster. The minimum width is tried after
    /// the bisection, which never lands on it, and the maximum width is
    /// kept when no probe was feasible. By induction along the
    /// topological order, if every gate meets its contract then every
    /// delay is within its budget, so only the load coupling (sink widths
    /// from the previous sweep) remains for the fixed-point sweeps.
    ///
    /// Returns the largest relative width change,
    /// `|w_new − w_old| / max(w_old, w_lo)`. This is the oracle of the
    /// batched sweep, not a production path.
    pub fn scalar_size_sweep(
        &self,
        design: &mut Design,
        budgets: &[f64],
        last_delays: &[f64],
        steps: usize,
        margin: f64,
    ) -> f64 {
        let (w_lo, w_hi) = self.tech.w_range;
        let netlist = &self.netlist;
        let mut max_rel_change = 0.0f64;
        for &id in netlist.topological_order() {
            let i = id.index();
            if self.is_input[i] {
                continue;
            }
            let max_fanin = netlist
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
                if self.gate_delay(design, id, max_fanin) <= target {
                    feasible_w = Some(w);
                    hi = w;
                } else {
                    lo = w;
                }
            }
            design.width[i] = w_lo;
            if self.gate_delay(design, id, max_fanin) <= target {
                feasible_w = Some(w_lo);
            }
            design.width[i] = feasible_w.unwrap_or(w_hi);
            let rel = (design.width[i] - before).abs() / before.max(w_lo);
            max_rel_change = max_rel_change.max(rel);
        }
        max_rel_change
    }
}

/// A borrowed view of a [`CircuitModel`] under the name of the kernel the
/// model's layout replaced: `new` copies nothing and every method
/// forwards to the model. The repository benchmark's `rent_sizing`
/// workload still calls it; nothing else should.
#[derive(Debug)]
pub struct SoaKernel<'m> {
    model: &'m CircuitModel,
}

impl<'m> SoaKernel<'m> {
    /// A view of `model`. `O(1)`.
    pub fn new(model: &'m CircuitModel) -> Self {
        SoaKernel { model }
    }

    /// [`CircuitModel::size_sweep`].
    pub fn size_sweep(
        &self,
        design: &mut Design,
        budgets: &[f64],
        last_delays: &[f64],
        steps: usize,
        margin: f64,
        scratch: &mut SizeScratch,
    ) -> f64 {
        self.model
            .size_sweep(design, budgets, last_delays, steps, margin, scratch)
    }

    /// [`CircuitModel::delays_into`].
    pub fn delays_into(&self, design: &Design, delays: &mut Vec<f64>) {
        self.model.delays_into(design, delays);
    }

    /// [`CircuitModel::total_energy`].
    pub fn total_energy(&self, design: &Design, fc: f64) -> EnergyBreakdown {
        self.model.total_energy(design, fc)
    }
}

/// What a [`SizeScratch`]'s warm-lane memo is valid for: one model at
/// one `(vdd, steps, margin)`. Floats are compared by bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    vdd: u64,
    steps: usize,
    margin: u64,
    model: u64,
}

/// The bits of the per-gate inputs a lane's bisection reads, sink widths
/// aside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LaneInputs {
    /// The folded slope input `max(min(budget_j, 1.05·last_delay_j))`.
    slope_in: u64,
    /// `budgets[i] * margin`.
    target: u64,
    vt: u64,
}

/// One gate's warm-lane record: what its last bisection read, and the
/// width it produced.
#[derive(Debug, Clone, Copy, Default)]
struct LaneMemo {
    inputs: LaneInputs,
    width: f64,
}

/// Up to [`BLOCK`] lanes awaiting bisection, with every
/// width-independent term of their probes hoisted, one array slot per
/// lane.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Lanes filled; slots `len..` are stale.
    len: usize,
    gate: [usize; BLOCK],
    /// `budgets[i] * margin`.
    target: [f64; BLOCK],
    t_slope: [f64; BLOCK],
    t_wire: [f64; BLOCK],
    /// `overdrive(vdd, vt)^α` — the hoisted `powf` of `drive_current`.
    od_pow: [f64; BLOCK],
    /// `off_current(w, vt) / w` — the hoisted width-independent leakage.
    leak_per_w: [f64; BLOCK],
    /// `max(fanin_count − 1, 0) · c_mi` — the internal-node prefactor.
    cmi_pre: [f64; BLOCK],
    stack: [f64; BLOCK],
    fanin_count: [f64; BLOCK],
    /// Per-edge load terms `c_sink + c_int`, edge-major: lane `k`'s
    /// `e`-th is `terms[e * BLOCK + k]`. Shorter lanes are padded with
    /// `-0.0`, the exact additive identity (`x + -0.0` is `x` bitwise for
    /// every non-NaN `x`, `+0.0` included), so the load folds need no
    /// per-lane bound.
    terms: Vec<f64>,
}

impl Block {
    /// Sets the `row`-th load term of the lane being filled.
    #[inline]
    fn push_term(&mut self, row: usize, term: f64) {
        let at = row * BLOCK + self.len;
        if at >= self.terms.len() {
            self.terms.resize((row + 1) * BLOCK, -0.0);
        }
        self.terms[at] = term;
    }

    /// Candidate-width delays of the block's lanes at widths `w`: per
    /// lane, bitwise what `gate_delay` computes for the same state, with
    /// no per-lane branch.
    #[inline]
    fn probe(
        &self,
        tech: &minpower_device::Technology,
        vdd: f64,
        w: &[f64; BLOCK],
    ) -> [f64; BLOCK] {
        let mut c_load: [f64; BLOCK] = std::array::from_fn(|k| w[k] * tech.c_pd);
        for row in self.terms.chunks_exact(BLOCK) {
            for k in 0..BLOCK {
                c_load[k] += row[k];
            }
        }
        std::array::from_fn(|k| {
            let i_full = tech.k_drive * w[k] * self.od_pow[k];
            let i_on = i_full / self.stack[k];
            let i_leak = self.fanin_count[k] * (w[k] * self.leak_per_w[k]);
            let i_drive = i_on - i_leak;
            let t_switch = vdd / 2.0 * c_load[k] / i_drive;
            let t_internal = self.cmi_pre[k] * w[k] * vdd / i_full;
            let delay = self.t_slope[k] + t_switch + t_internal + self.t_wire[k];
            if i_drive <= 0.0 {
                f64::INFINITY
            } else {
                delay
            }
        })
    }

    /// Bisects the filled lanes in lockstep — `steps` iterations, then
    /// the minimum-width endpoint the bisection never lands on — and
    /// commits each lane's width to `design` and `memo`. Empties the
    /// block and returns the largest relative width change.
    fn bisect(
        &mut self,
        tech: &minpower_device::Technology,
        vdd: f64,
        steps: usize,
        design: &mut Design,
        memo: &mut [LaneMemo],
    ) -> f64 {
        let (w_lo, w_hi) = tech.w_range;
        // Padding lanes probe stale terms against a target no delay
        // meets; their results are never committed.
        self.target[self.len..].fill(f64::NEG_INFINITY);
        let mut lo = [w_lo; BLOCK];
        let mut hi = [w_hi; BLOCK];
        let mut feasible = [f64::NAN; BLOCK];
        for _ in 0..steps {
            let w: [f64; BLOCK] = std::array::from_fn(|k| 0.5 * (lo[k] + hi[k]));
            let delay = self.probe(tech, vdd, &w);
            for k in 0..BLOCK {
                let ok = delay[k] <= self.target[k];
                feasible[k] = if ok { w[k] } else { feasible[k] };
                hi[k] = if ok { w[k] } else { hi[k] };
                lo[k] = if ok { lo[k] } else { w[k] };
            }
        }
        let delay = self.probe(tech, vdd, &[w_lo; BLOCK]);
        let mut max_rel_change = 0.0f64;
        for k in 0..self.len {
            if delay[k] <= self.target[k] {
                feasible[k] = w_lo;
            }
            let i = self.gate[k];
            let before = design.width[i];
            let w_new = if feasible[k].is_nan() {
                w_hi
            } else {
                feasible[k]
            };
            design.width[i] = w_new;
            memo[i].width = w_new;
            let rel = (w_new - before).abs() / before.max(w_lo);
            max_rel_change = max_rel_change.max(rel);
        }
        self.len = 0;
        self.terms.clear();
        max_rel_change
    }
}

/// Reusable buffers for [`CircuitModel::size_sweep`]: the lane block being
/// filled and the warm-lane memo, 40 bytes per gate.
///
/// Reuse one scratch across the fixed-point sweeps of one sizing run:
/// that is what lets unchanged lanes skip their bisection. Any scratch
/// gives bitwise the same widths; a fresh one just bisects every lane.
#[derive(Debug, Clone, Default)]
pub struct SizeScratch {
    block: Block,
    /// Key of the last completed sweep; `None` makes the next one cold.
    key: Option<MemoKey>,
    /// Per gate: the record of its last bisection under `key`.
    memo: Vec<LaneMemo>,
    /// Per gate: its width when the last sweep reached it, which is the
    /// width every reader of it saw in that sweep.
    seen_width: Vec<f64>,
    lanes_bisected: u64,
    lanes_reused: u64,
}

impl SizeScratch {
    /// A fresh, empty scratch. The memo grows to the gate count on first
    /// use and is reused afterwards.
    pub fn new() -> Self {
        SizeScratch::default()
    }

    /// Lanes bisected by the sweeps that used this scratch, cumulative.
    pub fn lanes_bisected(&self) -> u64 {
        self.lanes_bisected
    }

    /// Lanes that took their remembered width instead, cumulative.
    pub fn lanes_reused(&self) -> u64 {
        self.lanes_reused
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

    /// The reference dense timing: a topological-order fold of the
    /// scalar per-gate formula, the oracle of the memoized pass.
    fn scalar_timing(m: &CircuitModel, d: &Design) -> (Vec<f64>, Vec<f64>, f64) {
        let n = m.netlist();
        let mut delays = vec![0.0; n.gate_count()];
        let mut arrival = vec![0.0; n.gate_count()];
        for &id in n.topological_order() {
            let i = id.index();
            delays[i] = m.gate_delay(d, id, m.max_fanin_delay(&delays, i));
            let latest = n
                .gate(id)
                .fanin()
                .iter()
                .map(|f| arrival[f.index()])
                .fold(0.0, f64::max);
            arrival[i] = latest + delays[i];
        }
        let critical = n
            .outputs()
            .iter()
            .map(|o| arrival[o.index()])
            .fold(0.0, f64::max);
        (delays, arrival, critical)
    }

    /// The memoized dense pass against the scalar fold, bit for bit.
    fn assert_timing_matches_scalar(m: &CircuitModel, d: &Design, what: &str) {
        let (mut md, mut ma) = (Vec::new(), Vec::new());
        let crit = m.timing_into(d, &mut md, &mut ma);
        let (sd, sa, scrit) = scalar_timing(m, d);
        assert_eq!(crit.to_bits(), scrit.to_bits(), "{what}: critical");
        for i in 0..sd.len() {
            assert_eq!(md[i].to_bits(), sd[i].to_bits(), "{what}: delay {i}");
            assert_eq!(ma[i].to_bits(), sa[i].to_bits(), "{what}: arrival {i}");
        }
    }

    #[test]
    fn memoized_passes_match_scalar_formulas_bitwise() {
        let n = web();
        let m = model(&n);
        for vdd in [0.6, 1.5, 3.3] {
            let d = varied_design(&n, vdd);
            assert_timing_matches_scalar(&m, &d, &format!("vdd {vdd}"));
            let per_gate: EnergyBreakdown = (0..n.gate_count())
                .map(|i| m.gate_energy(&d, GateId::new(i), 3e8))
                .sum();
            for total in [
                m.total_energy(&d, 3e8),
                m.energy_ledger(&d, 3e8).exact_total(),
            ] {
                assert_eq!(total.static_.to_bits(), per_gate.static_.to_bits());
                assert_eq!(total.dynamic.to_bits(), per_gate.dynamic.to_bits());
            }
        }
    }

    #[test]
    fn batched_size_sweep_matches_scalar_bitwise() {
        let n = web();
        let m = model(&n);
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
                let rb = m.size_sweep(&mut batched, &budgets, &last_delays, 14, 0.97, &mut scratch);
                let rs = m.scalar_size_sweep(&mut scalar, &budgets, &last_delays, 14, 0.97);
                assert_eq!(rb.to_bits(), rs.to_bits(), "rel-change diverged");
                for i in 0..gates {
                    assert_eq!(
                        batched.width[i].to_bits(),
                        scalar.width[i].to_bits(),
                        "width {i} diverged at vdd {vdd}"
                    );
                }
                m.delays_into(&batched, &mut last_delays);
            }
        }
    }

    #[test]
    fn infeasible_lane_takes_max_width() {
        let n = web();
        let m = model(&n);
        let mut d = varied_design(&n, 1.5);
        // Impossible budgets: every lane's probes all fail, so every
        // logic gate lands on the maximum width (the scalar fallback).
        let budgets = vec![1e-18; n.gate_count()];
        let last_delays = budgets.clone();
        let mut scratch = SizeScratch::new();
        m.size_sweep(&mut d, &budgets, &last_delays, 6, 0.97, &mut scratch);
        let w_hi = m.technology().w_range.1;
        for i in 0..n.gate_count() {
            let id = GateId::new(i);
            if n.gate(id).kind() != GateKind::Input {
                assert_eq!(d.width[i], w_hi, "gate {i}");
            }
        }
    }

    #[test]
    fn kernel_view_forwards_to_the_model() {
        let n = web();
        let m = model(&n);
        let k = SoaKernel::new(&m);
        let budgets: Vec<f64> = (0..n.gate_count())
            .map(|i| 2e-10 * (1.0 + (i % 4) as f64))
            .collect();
        let mut via_kernel = varied_design(&n, 1.5);
        let mut via_model = via_kernel.clone();
        let rk = k.size_sweep(
            &mut via_kernel,
            &budgets,
            &budgets,
            12,
            0.97,
            &mut SizeScratch::new(),
        );
        let rm = m.size_sweep(
            &mut via_model,
            &budgets,
            &budgets,
            12,
            0.97,
            &mut SizeScratch::new(),
        );
        assert_eq!(rk.to_bits(), rm.to_bits());
        assert_eq!(via_kernel.width, via_model.width);
        let (mut kd, mut md) = (Vec::new(), Vec::new());
        k.delays_into(&via_kernel, &mut kd);
        m.delays_into(&via_model, &mut md);
        assert_eq!(kd, md);
        assert_eq!(
            k.total_energy(&via_kernel, 3e8),
            m.total_energy(&via_model, 3e8)
        );
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
                assert_timing_matches_scalar(&m, &d, &format!("{pattern} vdd {vdd}"));

                let mut batched = d.clone();
                let mut scalar = d;
                let mut last_delays = budgets.clone();
                for sweep in 0..3 {
                    let rb =
                        m.size_sweep(&mut batched, &budgets, &last_delays, 12, 0.97, &mut scratch);
                    let rs = m.scalar_size_sweep(&mut scalar, &budgets, &last_delays, 12, 0.97);
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

    /// Three ways through the same sweeps: one scratch reused throughout
    /// (warm lanes), a fresh scratch per sweep (every lane bisected), and
    /// the scalar reference sweep. Widths and `rel` must agree bit for
    /// bit.
    struct ThreeWays {
        warm: Design,
        fresh: Design,
        scalar: Design,
        scratch: SizeScratch,
    }

    impl ThreeWays {
        fn new(design: Design) -> Self {
            ThreeWays {
                warm: design.clone(),
                fresh: design.clone(),
                scalar: design,
                scratch: SizeScratch::new(),
            }
        }

        /// Applies `edit` to all three designs.
        fn edit(&mut self, edit: impl Fn(&mut Design)) {
            edit(&mut self.warm);
            edit(&mut self.fresh);
            edit(&mut self.scalar);
        }

        /// One sweep three ways; returns `rel` and the lanes the reused
        /// scratch took from its memo.
        fn sweep(
            &mut self,
            m: &CircuitModel,
            budgets: &[f64],
            last_delays: &[f64],
            steps: usize,
            margin: f64,
            what: &str,
        ) -> (f64, u64) {
            let reused = self.scratch.lanes_reused();
            let rw = m.size_sweep(
                &mut self.warm,
                budgets,
                last_delays,
                steps,
                margin,
                &mut self.scratch,
            );
            let rf = m.size_sweep(
                &mut self.fresh,
                budgets,
                last_delays,
                steps,
                margin,
                &mut SizeScratch::new(),
            );
            let rs = m.scalar_size_sweep(&mut self.scalar, budgets, last_delays, steps, margin);
            assert_eq!(rw.to_bits(), rs.to_bits(), "{what}: warm rel");
            assert_eq!(rf.to_bits(), rs.to_bits(), "{what}: fresh rel");
            for i in 0..self.scalar.width.len() {
                let s = self.scalar.width[i].to_bits();
                assert_eq!(self.warm.width[i].to_bits(), s, "{what}: warm width {i}");
                assert_eq!(self.fresh.width[i].to_bits(), s, "{what}: fresh width {i}");
            }
            (rs, self.scratch.lanes_reused() - reused)
        }

        /// Sweeps with `last_delays` held until the widths stop moving,
        /// then asserts that the final sweep reused every lane — so the
        /// next edit meets a fully warm memo.
        fn settle(
            &mut self,
            m: &CircuitModel,
            budgets: &[f64],
            last_delays: &[f64],
            steps: usize,
            margin: f64,
            what: &str,
        ) {
            let logic = m.is_input.iter().filter(|&&input| !input).count() as u64;
            for _ in 0..m.csr().level_count() + 2 {
                let (rel, reused) = self.sweep(m, budgets, last_delays, steps, margin, what);
                if rel == 0.0 && reused == logic {
                    return;
                }
            }
            panic!("{what}: widths never settled into a fully warm sweep");
        }
    }

    #[test]
    fn warm_lanes_match_fresh_and_scalar_bitwise() {
        let n = layered(7, 9);
        let m = model(&n);
        // A second model over the same gates: weaker drive, other widths.
        let tech2 = Technology::builder()
            .k_drive(Technology::dac97().k_drive * 0.6)
            .build();
        let m2 = CircuitModel::with_uniform_activity(&n, tech2, 0.5, 0.4);
        let gates = n.gate_count();
        let budgets: Vec<f64> = (0..gates).map(|i| 2e-10 * (1.0 + (i % 4) as f64)).collect();
        let mut d = Design::uniform(&n, 1.5, 0.3, 2.0);
        for i in 0..gates {
            d.width[i] = 1.0 + (i % 7) as f64 * 1.7;
        }
        let mut t = ThreeWays::new(d);

        // Coupled sweeps: delays recomputed between sweeps, as `size_at`.
        let mut last_delays = budgets.clone();
        for sweep in 0..6 {
            t.sweep(
                &m,
                &budgets,
                &last_delays,
                12,
                0.97,
                &format!("coupled {sweep}"),
            );
            m.delays_into(&t.scalar, &mut last_delays);
        }
        t.settle(&m, &budgets, &last_delays, 12, 0.97, "settle");

        // Each edit below meets a fully warm memo whose recorded inputs
        // are otherwise all still valid.
        t.edit(|d| d.vdd = 1.1);
        t.sweep(&m, &budgets, &last_delays, 12, 0.97, "vdd change");
        t.settle(&m, &budgets, &last_delays, 12, 0.97, "settle vdd");

        t.sweep(&m2, &budgets, &last_delays, 12, 0.97, "second model");
        t.settle(&m2, &budgets, &last_delays, 12, 0.97, "settle model");
        t.sweep(&m, &budgets, &last_delays, 12, 0.97, "first model again");
        t.settle(&m, &budgets, &last_delays, 12, 0.97, "settle model again");

        let mut budgets2 = budgets.clone();
        for b in budgets2.iter_mut().step_by(3) {
            *b *= 1.3;
        }
        t.sweep(&m, &budgets2, &last_delays, 12, 0.97, "budget change");
        t.settle(&m, &budgets2, &last_delays, 12, 0.97, "settle budgets");

        t.sweep(&m, &budgets2, &last_delays, 10, 0.97, "steps change");
        t.settle(&m, &budgets2, &last_delays, 10, 0.97, "settle steps");
        t.sweep(&m, &budgets2, &last_delays, 10, 0.9, "margin change");
        t.settle(&m, &budgets2, &last_delays, 10, 0.9, "settle margin");

        t.edit(|d| {
            for vt in d.vt.iter_mut().step_by(4) {
                *vt = 0.36;
            }
        });
        t.sweep(&m, &budgets2, &last_delays, 10, 0.9, "vt edit");
        t.settle(&m, &budgets2, &last_delays, 10, 0.9, "settle vt");

        // A caller resizes a few sinks between sweeps: their drivers'
        // loads change though no input the memo keys per gate does.
        t.edit(|d| {
            for i in (gates / 2..gates).step_by(5) {
                d.width[i] = 37.5;
            }
        });
        let (_, reused) = t.sweep(&m, &budgets2, &last_delays, 10, 0.9, "width edit");
        assert!(reused > 0, "the edit left no lane warm");
    }
}
