//! The one warm circuit evaluator: the budgeted sizer's critical-path
//! repair, TILOS, and what-if sessions all run on [`IncrementalEval`].
//!
//! It owns a design and everything the sizing loops keep warm beside it:
//! the self-consistent per-gate delays, the arrival times over the
//! model's shared [`CircuitModel::csr`], and an [`EnergyLedger`] of
//! per-gate energy terms at the caller's energy corner (the leaky
//! thresholds for the budgeted sizer, the design's own thresholds for
//! TILOS and sessions).
//!
//! A single-gate edit is repaired in one levelized worklist pass. Each
//! gate carries two dirty bits, delay-dirty and arrival-dirty, and sits
//! in its level's bucket while either is set. The edited gate and its
//! drivers (whose load moved) start delay-dirty. A popped gate first
//! recomputes its delay with the scalar [`CircuitModel::gate_delay`]; if
//! the delay moved, its fanouts become delay-dirty (the input-slope
//! term) and the gate itself arrival-dirty. It then recomputes its
//! arrival; if that moved, its fanouts become arrival-dirty. Fanout edges
//! strictly increase the level, so every recompute sees final upstream
//! values. Once the arrival recomputations pass
//! [`DEFAULT_FALLBACK_FRACTION`] of the gates, the pass stops arrival
//! work, drains the remaining delay-dirty gates and runs one dense
//! [`CircuitModel::arrivals_into`]. Every overwrite goes into one journal
//! of old delays and arrivals.
//!
//! Every recompute stops propagation on *bitwise* change only, so the
//! state after any sequence of edits is exactly — bit for bit — what a
//! dense recompute would produce. [`IncrementalEval::cross_check`] is
//! that dense recompute, and debug builds run it after construction,
//! after every edit and after every revert. The move-selection walks read
//! only the design, delays and arrivals, so a warm state that matches the
//! dense one at every step makes exactly the decisions a dense loop
//! would.
//!
//! Width probes are a single-slot transaction: [`try_width`] opens a probe
//! (applies the width, runs the repair pass, refreshes the ledger), then
//! exactly one of [`accept`] or [`revert`] closes it. A revert replays the
//! journal in reverse and refreshes the ledger terms, restoring the
//! pre-probe state bit-exactly without a dense recompute.
//!
//! The model is passed per call rather than borrowed, because a session
//! replaces its model on structural and activity edits.
//!
//! [`try_width`]: IncrementalEval::try_width
//! [`accept`]: IncrementalEval::accept
//! [`revert`]: IncrementalEval::revert

use std::sync::Arc;

use minpower_engine::EngineStats;
use minpower_models::{CircuitModel, Design, EnergyBreakdown, EnergyLedger};
use minpower_netlist::{GateId, LevelizedCsr};
use minpower_timing::{sink_critical, virtual_sinks};

/// Fraction of the gate count beyond which an edit's repair stops
/// recomputing arrivals one gate at a time and runs one dense arrival
/// pass (still journaled, still bit-identical).
const DEFAULT_FALLBACK_FRACTION: f64 = 0.25;

/// Worklist bit: the gate's delay must be recomputed.
const DELAY_DIRTY: u8 = 1;
/// Worklist bit: the gate's arrival must be recomputed.
const ARRIVAL_DIRTY: u8 = 2;

/// One overwrite of the last edit, replayed in reverse on revert.
enum Undo {
    Delay(u32, f64),
    Arrival(u32, f64),
}

/// The levelized dirty worklist: a gate sits in its level's bucket while
/// any of its dirty bits is set. Empty between edits.
struct Worklist {
    bits: Vec<u8>,
    buckets: Vec<Vec<u32>>,
}

impl Worklist {
    fn new(csr: &LevelizedCsr) -> Self {
        Worklist {
            bits: vec![0; csr.gate_count()],
            buckets: vec![Vec::new(); csr.level_count()],
        }
    }

    fn mark(&mut self, csr: &LevelizedCsr, gate: usize, bit: u8) {
        if self.bits[gate] == 0 {
            self.buckets[csr.level_of(gate)].push(gate as u32);
        }
        self.bits[gate] |= bit;
    }
}

/// A design + self-consistent delays + arrivals + energy ledger,
/// advanced one edit at a time.
pub(crate) struct IncrementalEval {
    design: Design,
    /// Thresholds the ledger prices energy at; `None` means the design's
    /// own.
    energy_vt: Option<Vec<f64>>,
    fc: f64,
    cycle_time: f64,
    /// The model's shared CSR: levels, adjacency and outputs.
    csr: Arc<LevelizedCsr>,
    /// [`virtual_sinks`] of `csr`.
    sinks: Vec<u32>,
    delays: Vec<f64>,
    arrival: Vec<f64>,
    ledger: EnergyLedger,
    /// Telemetry sink for width probes; `None` counts nothing.
    stats: Option<Arc<EngineStats>>,
    worklist: Worklist,
    /// Overwrites of the last edit, in apply order.
    journal: Vec<Undo>,
    /// `(gate, previous_width)` of the open probe, if any.
    open: Option<(usize, f64)>,
}

/// Runs `f` on `design` with the energy-corner thresholds swapped in.
fn at_energy_corner<R>(
    design: &mut Design,
    energy_vt: &mut Option<Vec<f64>>,
    f: impl FnOnce(&Design) -> R,
) -> R {
    let Some(vt) = energy_vt else {
        return f(design);
    };
    std::mem::swap(&mut design.vt, vt);
    let out = f(design);
    std::mem::swap(&mut design.vt, vt);
    out
}

impl IncrementalEval {
    /// Starts from `design` and its already-self-consistent `delays`
    /// (bitwise what [`CircuitModel::delays`] returns for `design`).
    /// Energy is priced at `energy_vt` (or at the design's thresholds)
    /// and clock target `fc`; feasibility is against `cycle_time`.
    pub fn new(
        model: &CircuitModel,
        mut design: Design,
        delays: Vec<f64>,
        mut energy_vt: Option<Vec<f64>>,
        fc: f64,
        cycle_time: f64,
        stats: Option<Arc<EngineStats>>,
    ) -> Self {
        let csr = Arc::clone(model.csr());
        let mut arrival = Vec::new();
        model.arrivals_into(&delays, &mut arrival);
        let ledger = at_energy_corner(&mut design, &mut energy_vt, |d| model.energy_ledger(d, fc));
        let eval = IncrementalEval {
            design,
            energy_vt,
            fc,
            cycle_time,
            sinks: virtual_sinks(&csr),
            worklist: Worklist::new(&csr),
            csr,
            delays,
            arrival,
            ledger,
            stats,
            journal: Vec::new(),
            open: None,
        };
        #[cfg(debug_assertions)]
        eval.cross_check(model);
        eval
    }

    /// Opens a probe: sets gate `gate`'s width to `w` and brings delays,
    /// arrivals and energy terms up to date. Counted into the engine
    /// telemetry (commit + arrivals recomputed + fallback). Returns how
    /// many delay entries moved.
    ///
    /// # Panics
    ///
    /// Panics if a probe is already open.
    pub fn try_width(&mut self, model: &CircuitModel, gate: usize, w: f64) -> usize {
        assert!(self.open.is_none(), "a width probe is already open");
        self.open = Some((gate, self.design.width[gate]));
        self.design.width[gate] = w;
        self.repair(model, GateId::new(gate))
    }

    /// Keeps the open probe's state.
    ///
    /// # Panics
    ///
    /// Panics if no probe is open.
    pub fn accept(&mut self) {
        self.open.take().expect("no open probe to accept");
    }

    /// Discards the open probe: restores the width, replays the journal
    /// in reverse and refreshes the ledger terms — bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if no probe is open.
    pub fn revert(&mut self, model: &CircuitModel) {
        let (gate, w_old) = self.open.take().expect("no open probe to revert");
        self.design.width[gate] = w_old;
        for undo in self.journal.drain(..).rev() {
            match undo {
                Undo::Delay(i, old) => self.delays[i as usize] = old,
                Undo::Arrival(i, old) => self.arrival[i as usize] = old,
            }
        }
        self.refresh_energy(model, GateId::new(gate));
        #[cfg(debug_assertions)]
        self.cross_check(model);
    }

    /// [`try_width`](Self::try_width) + [`accept`](Self::accept).
    pub fn set_width(&mut self, model: &CircuitModel, gate: usize, w: f64) -> usize {
        let touched = self.try_width(model, gate, w);
        self.accept();
        touched
    }

    /// Sets `gate`'s threshold permanently. Returns how many delay
    /// entries moved.
    ///
    /// # Panics
    ///
    /// Panics if a probe is open or the ledger prices energy at a
    /// separate corner (whose threshold this edit would not move).
    pub fn set_vt(&mut self, model: &CircuitModel, gate: GateId, vt: f64) -> usize {
        assert!(self.open.is_none(), "a width probe is open");
        assert!(
            self.energy_vt.is_none(),
            "threshold edits need the design's own energy corner"
        );
        self.design.vt[gate.index()] = vt;
        // Vt moves the gate's own drive and leakage; its fanins' delays
        // recompute to the same bits, so the width-change repair cone is
        // exactly the vt-change cone.
        self.repair(model, gate)
    }

    /// Applies `edit` to the design and rebuilds delays, arrivals and
    /// ledger densely on the current topology — for edits the cone repair
    /// does not cover (the supply, wholesale design vectors).
    pub fn rebuild(&mut self, model: &CircuitModel, edit: impl FnOnce(&mut Design)) {
        assert!(self.open.is_none(), "a width probe is open");
        edit(&mut self.design);
        model.delays_into(&self.design, &mut self.delays);
        model.arrivals_into(&self.delays, &mut self.arrival);
        self.reprice(model);
    }

    /// [`rebuild`](Self::rebuild) after a structural edit: `model` binds
    /// a new netlist, so the topology, sinks and worklist move onto it.
    pub fn restructure(&mut self, model: &CircuitModel, edit: impl FnOnce(&mut Design)) {
        self.csr = Arc::clone(model.csr());
        self.sinks = virtual_sinks(&self.csr);
        self.worklist = Worklist::new(&self.csr);
        self.rebuild(model, edit);
    }

    /// Moves the clock target: delays and arrivals are untouched; the
    /// cycle time is set in place and the ledger rebuilt for the new
    /// static-energy terms (∝ 1/fc).
    pub fn set_fc(&mut self, model: &CircuitModel, fc: f64, cycle_time: f64) {
        self.fc = fc;
        self.cycle_time = cycle_time;
        self.reprice(model);
    }

    /// Rebuilds the ledger alone — after a model change that moves only
    /// the energy terms (switching activities never enter a delay).
    pub fn reprice(&mut self, model: &CircuitModel) {
        let fc = self.fc;
        self.ledger = at_energy_corner(&mut self.design, &mut self.energy_vt, |d| {
            model.energy_ledger(d, fc)
        });
        #[cfg(debug_assertions)]
        self.cross_check(model);
    }

    /// The one repair pass over `gate`'s cone (see the module docs),
    /// journaling every overwrite, then the ledger refresh. Returns how
    /// many delay entries moved.
    fn repair(&mut self, model: &CircuitModel, gate: GateId) -> usize {
        self.journal.clear();
        let csr = Arc::clone(&self.csr);
        let wl = &mut self.worklist;
        wl.mark(&csr, gate.index(), DELAY_DIRTY);
        for &f in csr.fanin_of(gate.index()) {
            wl.mark(&csr, f as usize, DELAY_DIRTY);
        }
        let n = self.delays.len();
        let threshold = (DEFAULT_FALLBACK_FRACTION * n as f64) as usize;
        let (mut moved, mut touched, mut fallback) = (0usize, 0usize, false);
        for lvl in 0..wl.buckets.len() {
            while let Some(i) = wl.buckets[lvl].pop() {
                let gi = i as usize;
                let mut bits = std::mem::take(&mut wl.bits[gi]);
                if bits & DELAY_DIRTY != 0 {
                    let max_fanin = model.max_fanin_delay(&self.delays, gi);
                    let new = model.gate_delay(&self.design, GateId::new(gi), max_fanin);
                    if new.to_bits() != self.delays[gi].to_bits() {
                        self.journal.push(Undo::Delay(i, self.delays[gi]));
                        self.delays[gi] = new;
                        moved += 1;
                        bits |= ARRIVAL_DIRTY;
                        for &s in csr.fanout_of(gi) {
                            wl.mark(&csr, s as usize, DELAY_DIRTY);
                        }
                    }
                }
                if bits & ARRIVAL_DIRTY == 0 || fallback {
                    continue;
                }
                touched += 1;
                if touched > threshold {
                    fallback = true;
                    continue;
                }
                let latest = csr
                    .fanin_of(gi)
                    .iter()
                    .map(|&f| self.arrival[f as usize])
                    .fold(0.0, f64::max);
                let new = latest + self.delays[gi];
                if new.to_bits() != self.arrival[gi].to_bits() {
                    self.journal.push(Undo::Arrival(i, self.arrival[gi]));
                    self.arrival[gi] = new;
                    for &s in csr.fanout_of(gi) {
                        wl.mark(&csr, s as usize, ARRIVAL_DIRTY);
                    }
                }
            }
        }
        if fallback {
            let old = self.arrival.iter().enumerate();
            self.journal
                .extend(old.map(|(i, &a)| Undo::Arrival(i as u32, a)));
            model.arrivals_into(&self.delays, &mut self.arrival);
            touched = n;
        }
        if let Some(stats) = &self.stats {
            stats.count_incremental(touched as u64);
            if fallback {
                stats.count_fallback();
            }
        }
        self.refresh_energy(model, gate);
        #[cfg(debug_assertions)]
        self.cross_check(model);
        moved
    }

    fn refresh_energy(&mut self, model: &CircuitModel, gate: GateId) {
        let ledger = &mut self.ledger;
        at_energy_corner(&mut self.design, &mut self.energy_vt, |d| {
            ledger.on_width_change(model, d, gate)
        });
    }

    /// The dense oracle: the warm delays, arrivals and critical delay must
    /// be bitwise what [`CircuitModel::timing_into`] computes for the
    /// design, and the ledger's exact total what
    /// [`CircuitModel::total_energy`] computes at the energy corner.
    /// Counts nothing.
    ///
    /// The warm delays come from repairs with the scalar per-gate formula
    /// ([`CircuitModel::gate_delay`], which calls the device functions),
    /// and the dense pass computes each `(Vdd, Vt)` device term once. So
    /// this checks the memoized pass against the scalar formula and the
    /// worklist's arrivals against the dense arrival loop. Both sides walk
    /// the model's shared CSR, and an edit that fell back ran that same
    /// dense loop, so an error in the CSR or in
    /// [`CircuitModel::arrivals_into`] itself is shared by both sides;
    /// the property test compares against [`minpower_timing::Sta`] for
    /// that.
    ///
    /// # Panics
    ///
    /// Panics at the first bit that differs.
    pub fn cross_check(&self, model: &CircuitModel) {
        let (mut dense, mut arrival) = (Vec::new(), Vec::new());
        let critical = model.timing_into(&self.design, &mut dense, &mut arrival);
        assert_eq!(dense.len(), self.delays.len(), "delay vector length drift");
        for (i, (d, w)) in dense.iter().zip(&self.delays).enumerate() {
            assert_eq!(
                d.to_bits(),
                w.to_bits(),
                "delay drift at gate {i}: dense {d:e} vs warm {w:e}"
            );
        }
        for (i, (a, b)) in arrival.iter().zip(&self.arrival).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "arrival drift at gate {i}");
        }
        assert_eq!(
            critical.to_bits(),
            self.critical_delay().to_bits(),
            "critical-delay drift"
        );
        let mut corner = self.design.clone();
        if let Some(vt) = &self.energy_vt {
            corner.vt.clone_from(vt);
        }
        let dense_total = model.total_energy(&corner, self.fc);
        let exact = self.ledger.exact_total();
        assert_eq!(
            dense_total.static_.to_bits(),
            exact.static_.to_bits(),
            "static-energy drift"
        );
        assert_eq!(
            dense_total.dynamic.to_bits(),
            exact.dynamic.to_bits(),
            "dynamic-energy drift"
        );
    }

    /// The current design (post-accept state, or the probe's trial state
    /// while one is open).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Current self-consistent per-gate delays.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Current per-gate arrival times (indexed by [`GateId::index`]).
    pub fn arrivals(&self) -> &[f64] {
        &self.arrival
    }

    /// The latest primary-output arrival, seconds.
    pub fn critical_delay(&self) -> f64 {
        self.csr
            .outputs()
            .iter()
            .map(|&o| self.arrival[o as usize])
            .fold(0.0, f64::max)
    }

    /// The latest arrival over the [`virtual_sinks`] and the first sink
    /// attaining it — the endpoint semantics of the width-sizing loops.
    pub fn critical_sink(&self) -> (f64, Option<GateId>) {
        sink_critical(&self.sinks, &self.arrival)
    }

    /// Whether every output meets the cycle time.
    pub fn meets_constraint(&self) -> bool {
        self.critical_delay() <= self.cycle_time
    }

    /// The clock target the ledger prices static energy at, Hz.
    pub fn fc(&self) -> f64 {
        self.fc
    }

    /// Index-order re-sum of the ledger's terms: bitwise what
    /// [`CircuitModel::total_energy`] computes at the energy corner.
    pub fn energy(&self) -> EnergyBreakdown {
        self.ledger.exact_total()
    }

    /// Splits into the pieces the move-selection walks need: a mutable
    /// design for in-place width probes plus the delay and arrival views.
    pub fn split(&mut self) -> (&mut Design, &[f64], &[f64]) {
        (&mut self.design, &self.delays, &self.arrival)
    }

    /// Consumes the evaluator, returning the final design.
    ///
    /// # Panics
    ///
    /// Panics if a probe is still open.
    pub fn into_design(self) -> Design {
        assert!(self.open.is_none(), "a width probe is still open");
        self.design
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalContext;
    use minpower_device::Technology;
    use minpower_netlist::{GateKind, Netlist, NetlistBuilder};
    use minpower_timing::Sta;

    /// SplitMix64 — deterministic, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }

        /// A width in the technology's range, or (one draw in 16) zero,
        /// which no drive current can switch: a `+inf` delay.
        fn width(&mut self) -> f64 {
            match self.below(16) {
                0 => 0.0,
                _ => 1.0 + (self.next_u64() % 1000) as f64 * 0.02,
            }
        }
    }

    /// A random DAG: a few inputs, then NAND/NOR/NOT gates over earlier
    /// nodes, about a quarter of them declared outputs (the last always).
    fn random_netlist(rng: &mut Rng) -> Netlist {
        let n_inputs = 2 + rng.below(5);
        let n_gates = 5 + rng.below(60);
        let mut b = NetlistBuilder::new("prop");
        let mut names: Vec<String> = Vec::new();
        for i in 0..n_inputs {
            let name = format!("i{i}");
            b.input(&name).unwrap();
            names.push(name);
        }
        for g in 0..n_gates {
            let name = format!("g{g}");
            let fanin_count = 1 + rng.below(3);
            let fanins: Vec<String> = (0..fanin_count)
                .map(|_| names[rng.below(names.len())].clone())
                .collect();
            let refs: Vec<&str> = fanins.iter().map(String::as_str).collect();
            let kind = match rng.below(3) {
                0 => GateKind::Nand,
                1 => GateKind::Nor,
                _ => GateKind::Not,
            };
            let kept = if kind == GateKind::Not {
                &refs[..1]
            } else {
                &refs[..]
            };
            b.gate(&name, kind, kept).unwrap();
            names.push(name);
        }
        for g in 0..n_gates - 1 {
            if rng.below(4) == 0 {
                b.output(&format!("g{g}")).unwrap();
            }
        }
        b.output(&format!("g{}", n_gates - 1)).unwrap();
        b.finish().unwrap()
    }

    /// Arrivals, critical delay, critical sink and the constraint check
    /// against a dense [`Sta::analyze`] over the warm delays: an oracle
    /// that shares neither the CSR nor [`CircuitModel::arrivals_into`]
    /// with the evaluator.
    fn assert_matches_sta(eval: &IncrementalEval, model: &CircuitModel, tc: f64, case: &str) {
        let netlist = model.netlist();
        let sta = Sta::analyze(netlist, eval.delays(), tc);
        let dense: Vec<f64> = (0..netlist.gate_count())
            .map(|i| sta.arrival(GateId::new(i)))
            .collect();
        for (i, (a, b)) in eval.arrivals().iter().zip(&dense).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{case}: arrival {i}");
        }
        assert_eq!(
            eval.critical_delay().to_bits(),
            sta.critical_delay().to_bits(),
            "{case}: critical delay"
        );
        let (crit, gate) = sink_critical(&virtual_sinks(&LevelizedCsr::new(netlist)), &dense);
        assert_eq!(eval.critical_sink().0.to_bits(), crit.to_bits(), "{case}");
        assert_eq!(eval.critical_sink().1, gate, "{case}: sink gate");
        assert_eq!(eval.meets_constraint(), sta.meets_constraint(), "{case}");
    }

    /// A random netlist at a nominal corner with per-gate widths.
    fn random_case(rng: &mut Rng) -> (CircuitModel, Design) {
        let n = random_netlist(rng);
        let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
        let mut design = Design::uniform(&n, 2.5, 0.5, 2.0);
        for w in &mut design.width {
            *w = 1.0 + rng.below(40) as f64 * 0.25;
        }
        (model, design)
    }

    /// Bits of every delay and arrival, for bit-exact state comparisons.
    fn timing_bits(eval: &IncrementalEval) -> Vec<u64> {
        let all = eval.delays().iter().chain(eval.arrivals());
        all.map(|x| x.to_bits()).collect()
    }

    fn setup() -> (CircuitModel, Design) {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        b.input("b").unwrap();
        b.gate("x", GateKind::Nand, &["a", "b"]).unwrap();
        b.gate("y", GateKind::Nor, &["x", "b"]).unwrap();
        b.gate("z", GateKind::Nand, &["x", "y"]).unwrap();
        b.output("z").unwrap();
        let n = b.finish().unwrap();
        let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
        let design = Design::uniform(&n, 2.5, 0.5, 2.0);
        (model, design)
    }

    /// A warm evaluator pricing energy at a leakier corner than the
    /// design's thresholds, as the budgeted sizer does.
    fn leaky_eval(model: &CircuitModel, design: Design, ctx: &EvalContext) -> IncrementalEval {
        let delays = model.delays(&design);
        let leaky = design.vt.iter().map(|v| v * 0.9).collect();
        IncrementalEval::new(
            model,
            design,
            delays,
            Some(leaky),
            3e8,
            1e-9,
            Some(ctx.stats().clone()),
        )
    }

    #[test]
    fn accepted_probes_match_dense_recompute_bitwise() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let mut eval = leaky_eval(&model, design, &ctx);
        for (step, gate) in [(1.4f64, 2usize), (2.2, 3), (1.1, 4), (3.0, 2)] {
            let w = eval.design().width[gate] * step;
            eval.set_width(&model, gate, w);
            eval.cross_check(&model);
        }
        let snap = ctx.snapshot();
        assert_eq!(snap.incremental_commits, 4);
    }

    #[test]
    fn reverted_probes_restore_state_bit_exactly() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let before_widths = design.width.clone();
        let mut eval = leaky_eval(&model, design, &ctx);
        let before_delays = eval.delays().to_vec();
        let before_arrival = eval.arrivals().to_vec();
        let before_energy = eval.energy();
        eval.try_width(&model, 3, 9.0);
        eval.revert(&model);
        eval.cross_check(&model);
        assert_eq!(eval.design().width, before_widths);
        for (a, b) in eval.delays().iter().zip(&before_delays) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in eval.arrivals().iter().zip(&before_arrival) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            eval.energy().total().to_bits(),
            before_energy.total().to_bits()
        );
    }

    #[test]
    fn threshold_and_operating_point_edits_match_dense_recompute() {
        let (model, design) = setup();
        let delays = model.delays(&design);
        let mut eval = IncrementalEval::new(&model, design, delays, None, 3e8, 1e-9, None);
        eval.set_vt(&model, GateId::new(3), 0.3);
        eval.cross_check(&model);
        eval.set_fc(&model, 4e8, 2.5e-9);
        eval.cross_check(&model);
        eval.rebuild(&model, |d| d.vdd = 1.8);
        eval.cross_check(&model);
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn double_open_probe_panics() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let mut eval = leaky_eval(&model, design, &ctx);
        eval.try_width(&model, 2, 3.0);
        eval.try_width(&model, 3, 3.0);
    }

    #[test]
    fn initial_analysis_matches_sta() {
        let mut rng = Rng(7);
        let (model, design) = random_case(&mut rng);
        let delays = model.delays(&design);
        let eval = IncrementalEval::new(&model, design, delays, None, 3e8, 1e-9, None);
        assert_matches_sta(&eval, &model, 1e-9, "initial");
    }

    #[test]
    fn edits_track_sta_bit_exactly() {
        for seed in 1..=4u64 {
            let mut rng = Rng(seed);
            let (model, design) = random_case(&mut rng);
            let n = design.width.len();
            let delays = model.delays(&design);
            let mut eval = IncrementalEval::new(&model, design, delays, None, 3e8, 1e-9, None);
            for step in 0..60 {
                let (g, w) = (rng.below(n), rng.width());
                eval.set_width(&model, g, w);
                eval.cross_check(&model);
                assert_matches_sta(&eval, &model, 1e-9, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn undo_restores_pre_commit_state() {
        let mut rng = Rng(9);
        let (model, design) = random_case(&mut rng);
        let n = design.width.len();
        let delays = model.delays(&design);
        let mut eval = IncrementalEval::new(&model, design, delays, None, 3e8, 1e-9, None);
        let before = timing_bits(&eval);
        let widths = eval.design().width.clone();
        for g in [n - 1, 0, n / 2, n - 1] {
            eval.try_width(&model, g, 0.5 * widths[g] + 7.0);
            eval.revert(&model);
            assert_eq!(timing_bits(&eval), before, "revert of gate {g}");
            assert_eq!(eval.design().width, widths);
        }
        assert_matches_sta(&eval, &model, 1e-9, "after reverts");
    }

    /// Moving the cycle time moves the constraint check only; the
    /// critical delay and sink follow the arrivals.
    #[test]
    fn forward_only_tracks_critical_delay() {
        let (model, design) = setup();
        let delays = model.delays(&design);
        let mut eval = IncrementalEval::new(&model, design, delays, None, 3e8, 1e-9, None);
        eval.set_width(&model, 2, 9.0);
        let crit = eval.critical_delay();
        assert_matches_sta(&eval, &model, 1e-9, "width edit");
        let (sink_crit, sink) = eval.critical_sink();
        assert!(sink_crit >= crit && sink.is_some());
        eval.set_fc(&model, 3e8, crit);
        assert!(eval.meets_constraint());
        eval.set_fc(&model, 3e8, crit * (1.0 - f64::EPSILON));
        assert!(!eval.meets_constraint());
        assert_eq!(eval.critical_delay().to_bits(), crit.to_bits());
        assert_matches_sta(&eval, &model, crit * (1.0 - f64::EPSILON), "cycle time");
    }

    /// An edit whose arrival cone is over a quarter of the gates takes
    /// the dense arrival pass; one on a gate with no fanout does not.
    /// Both land on the dense fixed point and revert exactly.
    #[test]
    fn forced_fallback_stays_bit_identical() {
        // A chain of 8 inverters beside 8 independent NANDs of the inputs.
        let mut b = NetlistBuilder::new("fallback");
        b.input("a").unwrap();
        b.input("b").unwrap();
        let mut prev = "a".to_string();
        for i in 0..8 {
            let name = format!("c{i}");
            b.gate(&name, GateKind::Not, &[&prev]).unwrap();
            prev = name;
        }
        b.output(&prev).unwrap();
        for i in 0..8 {
            let name = format!("s{i}");
            b.gate(&name, GateKind::Nand, &["a", "b"]).unwrap();
            b.output(&name).unwrap();
        }
        let n = b.finish().unwrap();
        let gates = n.gate_count();
        let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
        let design = Design::uniform(&n, 2.5, 0.5, 2.0);
        let delays = model.delays(&design);
        let ctx = EvalContext::new(1, 0);
        let stats = Some(ctx.stats().clone());
        let mut eval = IncrementalEval::new(&model, design, delays, None, 3e8, 1e-9, stats);
        let before = timing_bits(&eval);
        // Every chain arrival downstream of c1 moves: 8 of 18 gates.
        let c1 = n.find("c1").unwrap().index();
        eval.try_width(&model, c1, 9.0);
        let snap = ctx.snapshot();
        assert_eq!(
            (snap.sta_fallbacks, snap.incremental_gates),
            (1, gates as u64)
        );
        eval.cross_check(&model);
        assert_matches_sta(&eval, &model, 1e-9, "fallback");
        eval.revert(&model);
        assert_eq!(timing_bits(&eval), before);
        // The last gate drives no gate and is driven by inputs only.
        eval.set_width(&model, gates - 1, 9.0);
        let snap = ctx.snapshot();
        assert_eq!(snap.incremental_commits, 2);
        assert_eq!(
            (snap.sta_fallbacks, snap.incremental_gates),
            (1, gates as u64 + 1)
        );
        assert_matches_sta(&eval, &model, 1e-9, "one-gate cone");
    }

    /// Delays of `+inf` (drive current no larger than the opposing
    /// leakage) propagate through the repair and revert like any value.
    #[test]
    fn infinite_delays_are_handled() {
        let (model, mut design) = setup();
        // A low-Vdd corner where a high threshold cannot switch a gate.
        design.vdd = 0.3;
        let delays = model.delays(&design);
        assert!(delays.iter().all(|d| d.is_finite()));
        let mut eval = IncrementalEval::new(&model, design, delays, None, 3e8, 1e-6, None);
        eval.set_vt(&model, GateId::new(3), 0.7);
        assert!(eval.delays()[3].is_infinite());
        assert_matches_sta(&eval, &model, 1e-6, "high-vt gate");
        let before = timing_bits(&eval);
        // A zero width drives nothing either: a `+inf` probe upstream.
        for (gate, w) in [(2, 0.0), (4, 6.0), (3, 9.0)] {
            eval.try_width(&model, gate, w);
            eval.cross_check(&model);
            assert_matches_sta(&eval, &model, 1e-6, &format!("probe {gate}"));
            eval.revert(&model);
            assert_eq!(timing_bits(&eval), before, "revert of {gate}");
        }
        assert!(!eval.meets_constraint());
    }

    #[test]
    #[should_panic(expected = "no open probe to revert")]
    fn double_undo_panics() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let mut eval = leaky_eval(&model, design, &ctx);
        eval.try_width(&model, 2, 3.0);
        eval.revert(&model);
        eval.revert(&model);
    }

    #[test]
    #[should_panic(expected = "no open probe to accept")]
    fn accept_without_a_probe_panics() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let mut eval = leaky_eval(&model, design, &ctx);
        eval.set_width(&model, 2, 3.0);
        eval.accept();
    }

    #[test]
    #[should_panic(expected = "delay drift at gate 3")]
    fn cross_check_catches_a_one_ulp_delay_fault() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let mut eval = leaky_eval(&model, design, &ctx);
        eval.delays[3] = f64::from_bits(eval.delays[3].to_bits() + 1);
        eval.cross_check(&model);
    }

    #[test]
    #[should_panic(expected = "energy drift")]
    fn cross_check_catches_a_stale_ledger_term() {
        let (model, design) = setup();
        let ctx = EvalContext::new(1, 0);
        let mut eval = leaky_eval(&model, design, &ctx);
        // Price gate 4's terms at a width the design does not have.
        let mut other = eval.design().clone();
        other.width[4] *= 1.5;
        eval.ledger.on_width_change(&model, &other, GateId::new(4));
        eval.cross_check(&model);
    }

    /// Random edit sequences on random netlists: after every step the
    /// warm state passes [`IncrementalEval::cross_check`] and matches a
    /// dense [`Sta::analyze`] over the warm delays.
    ///
    /// Run with `cargo test -p minpower-core --features proptest --lib
    /// incremental::tests::properties`.
    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;

        #[test]
        fn random_edit_sequences_stay_bit_equal_to_dense() {
            let ctx = EvalContext::new(1, 0);
            for seed in 0..32u64 {
                let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 0x1234);
                let (model, design) = random_case(&mut rng);
                let n = design.width.len();
                let delays = model.delays(&design);
                let tc = 1.05 * model.evaluate(&design, 3e8).critical_delay;
                // Every fourth seed prices energy at a leakier corner, as
                // the budgeted sizer does; threshold edits need the
                // design's own.
                let leaky = (seed % 4 == 0).then(|| vec![0.45; n]);
                let can_set_vt = leaky.is_none();
                let stats = Some(ctx.stats().clone());
                let mut eval = IncrementalEval::new(&model, design, delays, leaky, 3e8, tc, stats);
                for step in 0..80 {
                    let case = format!("seed {seed} step {step}");
                    let g = rng.below(n);
                    match rng.below(4) {
                        0 if can_set_vt => {
                            let vt = 0.1 + rng.below(13) as f64 * 0.05;
                            eval.set_vt(&model, GateId::new(g), vt);
                        }
                        1 => {
                            eval.set_width(&model, g, rng.width());
                        }
                        _ => {
                            let before = timing_bits(&eval);
                            eval.try_width(&model, g, rng.width());
                            eval.cross_check(&model);
                            assert_matches_sta(&eval, &model, tc, &case);
                            if rng.below(2) == 0 {
                                eval.accept();
                            } else {
                                eval.revert(&model);
                                assert_eq!(timing_bits(&eval), before, "{case}: revert");
                            }
                        }
                    }
                    eval.cross_check(&model);
                    assert_matches_sta(&eval, &model, tc, &case);
                }
            }
            let snap = ctx.snapshot();
            assert!(
                snap.sta_fallbacks > 0,
                "no edit fell back to the dense pass"
            );
            assert!(
                snap.incremental_commits > snap.sta_fallbacks,
                "no edit stayed on the worklist"
            );
        }
    }
}
