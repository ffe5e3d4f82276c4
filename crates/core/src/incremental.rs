//! The one warm circuit evaluator: the budgeted sizer's critical-path
//! repair, TILOS, and what-if sessions all run on [`IncrementalEval`].
//!
//! It owns a design and everything the sizing loops keep warm beside it:
//!
//! * the self-consistent per-gate delay vector, repaired by
//!   [`CircuitModel::update_delays_after_width_change_with`] over the
//!   affected cone only (the changed gate, its drivers whose loads moved,
//!   and whatever the input-slope term reaches downstream), journaling
//!   every overwrite;
//! * an [`IncrementalSta`] re-propagating arrival times over the model's
//!   shared [`CircuitModel::csr`] with a levelized dirty worklist, seeded
//!   from the delay journal and falling back to a journaled dense pass
//!   when the dirty set grows past its fallback fraction;
//! * an [`EnergyLedger`] of per-gate energy terms at the caller's energy
//!   corner: the leaky thresholds for the budgeted sizer, the design's own
//!   thresholds for TILOS and sessions.
//!
//! Every layer stops propagation on *bitwise* change only, so the state
//! after any sequence of edits is exactly — bit for bit — what a dense
//! recompute would produce. [`IncrementalEval::cross_check`] is that dense
//! recompute, and debug builds run it after construction, after every
//! edit and after every revert. The move-selection walks read only the
//! design, delays and arrivals, so a warm state that matches the dense one
//! at every step makes exactly the decisions a dense loop would.
//!
//! Width probes are a single-slot transaction: [`try_width`] opens a probe
//! (applies the width, repairs delays, commits the STA, refreshes the
//! ledger), then exactly one of [`accept`] or [`revert`] closes it. A
//! revert replays the delay journal in reverse, undoes the STA commit and
//! refreshes the ledger terms, restoring the pre-probe state bit-exactly
//! without a dense recompute.
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
use minpower_netlist::GateId;
use minpower_timing::IncrementalSta;

/// A design + self-consistent delays + persistent STA + energy ledger,
/// advanced one edit at a time.
pub(crate) struct IncrementalEval {
    design: Design,
    /// Thresholds the ledger prices energy at; `None` means the design's
    /// own.
    energy_vt: Option<Vec<f64>>,
    fc: f64,
    delays: Vec<f64>,
    sta: IncrementalSta,
    ledger: EnergyLedger,
    /// Telemetry sink for width probes; `None` counts nothing.
    stats: Option<Arc<EngineStats>>,
    /// `(gate, previous_delay)` overwrites of the last edit, in apply
    /// order; replayed in reverse on revert.
    journal: Vec<(u32, f64)>,
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
        let sta = IncrementalSta::forward_only(Arc::clone(model.csr()), &delays, cycle_time);
        let ledger = at_energy_corner(&mut design, &mut energy_vt, |d| model.energy_ledger(d, fc));
        let eval = IncrementalEval {
            design,
            energy_vt,
            fc,
            delays,
            sta,
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
    /// telemetry (commit + gates touched + fallback). Returns how many
    /// delay entries moved.
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

    /// Discards the open probe: restores the width, replays the delay
    /// journal in reverse, undoes the STA commit and refreshes the
    /// ledger terms — bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if no probe is open.
    pub fn revert(&mut self, model: &CircuitModel) {
        let (gate, w_old) = self.open.take().expect("no open probe to revert");
        self.design.width[gate] = w_old;
        for &(idx, old) in self.journal.iter().rev() {
            self.delays[idx as usize] = old;
        }
        self.sta.undo();
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
        self.sta.reanalyze(&self.delays);
        self.reprice(model);
    }

    /// [`rebuild`](Self::rebuild) after a structural edit: `model` binds
    /// a new netlist, so the arrival state moves onto its topology.
    pub fn restructure(&mut self, model: &CircuitModel, edit: impl FnOnce(&mut Design)) {
        assert!(self.open.is_none(), "a width probe is open");
        edit(&mut self.design);
        model.delays_into(&self.design, &mut self.delays);
        self.sta = IncrementalSta::forward_only(
            Arc::clone(model.csr()),
            &self.delays,
            self.sta.cycle_time(),
        );
        self.reprice(model);
    }

    /// Moves the clock target: delays and arrivals are untouched; the
    /// cycle time is set in place and the ledger rebuilt for the new
    /// static-energy terms (∝ 1/fc).
    pub fn set_fc(&mut self, model: &CircuitModel, fc: f64, cycle_time: f64) {
        self.fc = fc;
        self.sta.set_cycle_time(cycle_time);
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

    /// Repairs the delays over `gate`'s cone (journaling each
    /// overwrite), commits the arrivals of the journaled gates and
    /// refreshes the ledger.
    fn repair(&mut self, model: &CircuitModel, gate: GateId) -> usize {
        self.journal.clear();
        let journal = &mut self.journal;
        model.update_delays_after_width_change_with(
            &self.design,
            &mut self.delays,
            gate,
            |idx, old| journal.push((idx as u32, old)),
        );
        let moved = self.journal.iter().map(|&(idx, _)| idx);
        let commit = self.sta.commit(&self.delays, moved);
        if let Some(stats) = &self.stats {
            stats.count_incremental(u64::from(commit.gates_touched));
            if commit.fallback {
                stats.count_fallback();
            }
        }
        self.refresh_energy(model, gate);
        #[cfg(debug_assertions)]
        self.cross_check(model);
        self.journal.len()
    }

    fn refresh_energy(&mut self, model: &CircuitModel, gate: GateId) {
        let ledger = &mut self.ledger;
        at_energy_corner(&mut self.design, &mut self.energy_vt, |d| {
            ledger.on_width_change(model, d, gate)
        });
    }

    /// The dense oracle: the warm delays, arrivals and critical delay must
    /// be bitwise what [`CircuitModel::timing_into`] computes for the
    /// design (a dense walk over the model's own topological order, not
    /// the shared CSR), and the ledger's exact total what
    /// [`CircuitModel::total_energy`] computes at the energy corner.
    /// Counts nothing.
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
        for (i, (a, b)) in arrival.iter().zip(self.sta.arrivals()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "arrival drift at gate {i}");
        }
        assert_eq!(
            critical.to_bits(),
            self.sta.critical_delay().to_bits(),
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

    /// The warm arrival state: arrivals, critical delay and sink,
    /// cycle-time constraint.
    pub fn sta(&self) -> &IncrementalSta {
        &self.sta
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
        (&mut self.design, &self.delays, self.sta.arrivals())
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
    use minpower_netlist::{GateKind, NetlistBuilder};

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
        let before_arrival = eval.sta().arrivals().to_vec();
        let before_energy = eval.energy();
        eval.try_width(&model, 3, 9.0);
        eval.revert(&model);
        eval.cross_check(&model);
        assert_eq!(eval.design().width, before_widths);
        for (a, b) in eval.delays().iter().zip(&before_delays) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in eval.sta().arrivals().iter().zip(&before_arrival) {
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
}
