//! Procedure 2: nested binary searches over `V_dd`, `V_ts`, and widths.
//!
//! The paper's key enabling observation (§4.3): *power consumption and
//! delay are monotonic functions of `V_dd`, `V_ts` and `W_i`, individually,
//! other parameters being fixed* — so each variable can be located by
//! bisection instead of grid or random search, giving `O(M³)` full-circuit
//! evaluations for `M`-step searches.
//!
//! Search structure, exactly as the paper's Procedure 2:
//!
//! * outer loop bisects the global supply `V_dd ∈ [0.1, 3.3] V`, moving
//!   **down** whenever the midpoint admits a feasible, improving design
//!   (dynamic energy falls quadratically with `V_dd`);
//! * middle loop bisects the threshold `V_ts ∈ [0.1, 0.7] V`, moving **up**
//!   on improvement (higher threshold kills leakage until the required
//!   width growth makes dynamic energy dominate);
//! * inner loop bisects each gate's width `W ∈ [1, 100]` to the smallest
//!   value meeting that gate's Procedure-1 delay budget.
//!
//! With `n_v > 1` ([`SearchOptions::vt_groups`]), gates are partitioned by
//! budget quantiles (timing-critical gates get the low-`V_t` group) and the
//! middle loop becomes a coordinate descent over group thresholds.

use std::path::PathBuf;
use std::sync::Arc;

use minpower_engine::stats::Phase;
use minpower_models::{CircuitModel, Design, EnergyBreakdown, SizeScratch};
use minpower_netlist::{GateId, GateKind, Netlist};

use crate::checkpoint::{CheckpointSpec, JournalWriter, ProbeJournal};
use crate::context::EvalContext;
use crate::error::OptimizeError;
use crate::incremental::IncrementalEval;
use crate::problem::Problem;
use crate::result::OptimizationResult;
use crate::runctl::{RunControl, TripReason};

/// Tuning knobs for [`Optimizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Binary-search steps `M` per variable (the paper's loop bound).
    pub steps: usize,
    /// Number of distinct threshold voltages `n_v` allowed by the
    /// technology (1 = single global `V_ts`, the paper's practical case).
    pub vt_groups: usize,
    /// Worst-case threshold tolerance as a fraction (e.g. `0.1` = ±10 %):
    /// delays are checked at `V_t(1+tol)`, power is reported at
    /// `V_t(1−tol)` — the margining scheme of the Fig. 2(a) study.
    pub vt_tolerance: f64,
    /// Width-sweep passes per `(V_dd, V_ts)` probe; a second pass lets
    /// each gate see its fanout's final sizes.
    pub width_passes: usize,
    /// How Procedure 1 divides the cycle time among gates (the paper's
    /// fanout-weighted rule by default; `Uniform` for the ablation).
    pub budget_policy: crate::budget::BudgetPolicy,
    /// The inner width-sizing engine: the paper's budget-driven search
    /// (default) or TILOS-style greedy sensitivity sizing, which the
    /// sizing ablation shows extracts substantially lower energy at the
    /// same operating point by leaving non-critical gates at minimum
    /// width.
    pub sizing: SizingMethod,
}

/// Width-sizing engine used inside Procedure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SizingMethod {
    /// The paper's Procedure 1 + 2 pipeline: assign per-gate delay
    /// budgets, then bisect each width to meet its budget.
    #[default]
    Budgeted,
    /// Greedy sensitivity ascent from minimum widths (Fishburn–Dunlop
    /// TILOS; see [`crate::tilos`]).
    Greedy,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            steps: 14,
            vt_groups: 1,
            vt_tolerance: 0.0,
            width_passes: 2,
            budget_policy: crate::budget::BudgetPolicy::FanoutWeighted,
            sizing: SizingMethod::Budgeted,
        }
    }
}

impl SearchOptions {
    fn validate(&self) -> Result<(), OptimizeError> {
        if self.steps == 0 {
            return Err(OptimizeError::BadOption {
                option: "steps",
                message: "must be at least 1".into(),
            });
        }
        if self.vt_groups == 0 {
            return Err(OptimizeError::BadOption {
                option: "vt_groups",
                message: "must be at least 1".into(),
            });
        }
        if !(0.0..1.0).contains(&self.vt_tolerance) {
            return Err(OptimizeError::BadOption {
                option: "vt_tolerance",
                message: "must lie in [0, 1)".into(),
            });
        }
        if self.width_passes == 0 {
            return Err(OptimizeError::BadOption {
                option: "width_passes",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Golden-section minimization of a unimodal function over `[lo, hi]`
/// with a fixed probe budget. The function may return `f64::INFINITY` on
/// an infeasible plateau at one end of the bracket; `prefer_high_on_tie`
/// selects which way the bracket shrinks when the two probes tie (point
/// it *away* from the plateau).
pub(crate) fn golden_section(
    lo: f64,
    hi: f64,
    probes: usize,
    prefer_high_on_tie: bool,
    mut f: impl FnMut(f64) -> f64,
) {
    const PHI: f64 = 0.618_033_988_749_894_8;
    if probes == 0 {
        return;
    }
    if probes == 1 {
        let _ = f(0.5 * (lo + hi));
        return;
    }
    let mut a = lo;
    let mut b = hi;
    let mut x1 = b - PHI * (b - a);
    let mut x2 = a + PHI * (b - a);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    let mut used = 2;
    while used < probes {
        let keep_low = if f1 == f2 {
            !prefer_high_on_tie
        } else {
            f1 < f2
        };
        if keep_low {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - PHI * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + PHI * (b - a);
            f2 = f(x2);
        }
        used += 1;
    }
}

/// Budget derating applied by the width bisection: each gate is sized to
/// meet `budget × MARGIN`, absorbing the load-coupling slack the
/// fixed-point sweeps leave behind.
const MARGIN: f64 = 0.97;

/// Outcome of sizing all widths at one `(V_dd, V_ts)` probe.
#[derive(Debug, Clone)]
pub(crate) struct Sized {
    pub design: Design,
    pub energy: EnergyBreakdown,
    pub critical_delay: f64,
    pub feasible: bool,
}

/// Shared width-sizing engine (the innermost loop), also used by the
/// fixed-`V_t` baseline and the variation study.
#[derive(Debug)]
pub(crate) struct Sizer<'a> {
    problem: &'a Problem,
    pub budgets: Vec<f64>,
    steps: usize,
    width_passes: usize,
    vt_tolerance: f64,
    sizing: SizingMethod,
    ctx: Arc<EvalContext>,
    salt: u64,
}

impl<'a> Sizer<'a> {
    pub fn new(
        problem: &'a Problem,
        steps: usize,
        width_passes: usize,
        vt_tolerance: f64,
        policy: crate::budget::BudgetPolicy,
        sizing: SizingMethod,
    ) -> Self {
        Sizer::with_context(
            EvalContext::global(),
            problem,
            steps,
            width_passes,
            vt_tolerance,
            policy,
            sizing,
        )
    }

    pub fn with_context(
        ctx: Arc<EvalContext>,
        problem: &'a Problem,
        steps: usize,
        width_passes: usize,
        vt_tolerance: f64,
        policy: crate::budget::BudgetPolicy,
        sizing: SizingMethod,
    ) -> Self {
        let budgets = crate::budget::assign_max_delays_with_policy(
            problem.model().netlist(),
            problem.effective_cycle_time(),
            policy,
        );
        let salt =
            crate::context::probe_salt(problem, steps, width_passes, vt_tolerance, policy, sizing);
        Sizer {
            problem,
            budgets,
            steps,
            width_passes,
            vt_tolerance,
            sizing,
            ctx,
            salt,
        }
    }

    /// The telemetry sink of the engine this sizer evaluates through.
    pub fn stats(&self) -> &minpower_engine::EngineStats {
        self.ctx.stats()
    }

    /// Sizes at `(vdd, vt_nominal)`, routing through the evaluation
    /// engine: the probe is counted, memoized when the cache is on, and a
    /// hit is returned only for a bit-identical operating point.
    pub fn size(&self, vdd: f64, vt_nominal: &[f64]) -> Sized {
        self.ctx
            .probe(self.salt, vdd, vt_nominal, &self.budgets, || {
                // Attribute the actual sizing work (cache hits are free).
                self.ctx
                    .stats()
                    .time(Phase::Sizing, || self.size_uncached(vdd, vt_nominal))
            })
    }

    /// Greedy (TILOS) sizing path: size at the slow corner, report
    /// energy at the leaky corner.
    fn size_greedy(&self, vdd: f64, vt_nominal: &[f64]) -> Sized {
        let model = self.problem.model();
        let vt_slow: Vec<f64> = vt_nominal
            .iter()
            .map(|v| v * (1.0 + self.vt_tolerance))
            .collect();
        let vt_leaky: Vec<f64> = vt_nominal
            .iter()
            .map(|v| v * (1.0 - self.vt_tolerance))
            .collect();
        match crate::tilos::size_greedy_with_stats_ctl(
            self.problem,
            vdd,
            &vt_slow,
            crate::tilos::TilosOptions::default(),
            self.ctx.stats().clone(),
            None,
        ) {
            Ok(r) => {
                let energy_design = Design {
                    vdd,
                    vt: vt_leaky,
                    width: r.design.width.clone(),
                };
                let energy = model.total_energy(&energy_design, self.problem.fc());
                let mut design = r.design;
                design.vt = vt_nominal.to_vec();
                Sized {
                    design,
                    energy,
                    critical_delay: r.critical_delay,
                    feasible: r.feasible,
                }
            }
            Err(e) => {
                let n = model.netlist().gate_count();
                let design = Design {
                    vdd,
                    vt: vt_nominal.to_vec(),
                    width: vec![model.technology().w_range.1; n],
                };
                let energy = model.total_energy(&design, self.problem.fc());
                let critical_delay = match e {
                    crate::OptimizeError::Infeasible { best_delay, .. } => best_delay,
                    _ => f64::INFINITY,
                };
                Sized {
                    design,
                    energy,
                    critical_delay,
                    feasible: false,
                }
            }
        }
    }

    /// Sizes every gate's width to the minimum meeting its budget at the
    /// given supply and per-gate nominal thresholds, then evaluates
    /// feasibility (worst-case-slow thresholds) and energy
    /// (worst-case-leaky thresholds).
    fn size_uncached(&self, vdd: f64, vt_nominal: &[f64]) -> Sized {
        if self.sizing == SizingMethod::Greedy {
            return self.size_greedy(vdd, vt_nominal);
        }
        let model = self.problem.model();
        let netlist = model.netlist();
        let tech = model.technology();
        let n = netlist.gate_count();
        debug_assert_eq!(vt_nominal.len(), n);

        let vt_slow: Vec<f64> = vt_nominal
            .iter()
            .map(|v| v * (1.0 + self.vt_tolerance))
            .collect();
        let vt_leaky: Vec<f64> = vt_nominal
            .iter()
            .map(|v| v * (1.0 - self.vt_tolerance))
            .collect();

        // All sizing decisions are made against the slow corner.
        let mut design = Design {
            vdd,
            vt: vt_slow,
            width: vec![tech.w_range.0; n],
        };

        // Fixed-point sweeps over the load coupling: each sweep re-sizes
        // every gate against the sinks' current widths, with the
        // slope-term input taken as the *lesser* of the driver's budget
        // (the compositional contract) and its actual delay from the
        // previous sweep (so drivers that run well inside their budgets
        // don't force pessimistic downstream sizing). Delays are
        // recomputed self-consistently between sweeps (Jacobi style),
        // which keeps the iteration stable; stop when widths settle.
        //
        // The sweep is the model's batched one; debug builds cross-check
        // every sweep against its scalar reference sweep.
        let max_sweeps = self.width_passes.max(2) + 10;
        let mut last_delays = self.budgets.clone();
        let mut sweep_delays = Vec::new();
        let mut scratch = SizeScratch::new();
        for _sweep in 0..max_sweeps {
            #[cfg(debug_assertions)]
            let reference = {
                let mut scalar = design.clone();
                let rel = model.scalar_size_sweep(
                    &mut scalar,
                    &self.budgets,
                    &last_delays,
                    self.steps,
                    MARGIN,
                );
                (scalar, rel)
            };
            let max_rel_change = model.size_sweep(
                &mut design,
                &self.budgets,
                &last_delays,
                self.steps,
                MARGIN,
                &mut scratch,
            );
            #[cfg(debug_assertions)]
            {
                assert_eq!(
                    max_rel_change.to_bits(),
                    reference.1.to_bits(),
                    "batched sweep: relative width change diverged from scalar"
                );
                for (i, (b, s)) in design
                    .width
                    .iter()
                    .zip(reference.0.width.iter())
                    .enumerate()
                {
                    assert_eq!(
                        b.to_bits(),
                        s.to_bits(),
                        "batched sweep diverged from scalar at gate {i}"
                    );
                }
            }
            model.delays_into(&design, &mut sweep_delays);
            std::mem::swap(&mut last_delays, &mut sweep_delays);
            self.ctx.stats().count_sta(1);
            if max_rel_change < 0.005 {
                break;
            }
        }

        // Post-processing (paper §4.2, last paragraph): the
        // fanout-proportional budgets can starve individual gates — most
        // visibly stack-heavy gates fed by loose-budget drivers — leaving
        // the critical path slightly over the cycle time even though
        // overall slack exists. Repair by sensitivity-driven upsizing
        // along the critical path until the cycle time is met (or no move
        // helps), on the warm evaluator: persistent arrival / delay /
        // energy state, touching only the affected cone per move.
        let (mut design, critical, energy) = self.repair_and_eval(design, last_delays, vt_leaky);

        // Feasibility is the problem's real constraint — every path meets
        // the cycle time — not the per-gate budgets, which are only the
        // heuristic's sizing guides (the paper's post-processing likewise
        // relaxes individual assignments that turn out unrealizable).
        let feasible = critical <= self.problem.effective_cycle_time() * (1.0 + 1e-9);

        // Report the nominal-threshold design.
        design.vt = vt_nominal.to_vec();
        Sized {
            design,
            energy,
            critical_delay: critical,
            feasible,
        }
    }

    /// The repair loop + final evaluation on the warm evaluator: per-move
    /// cost is O(cone) — journaled delay repair, dirty-worklist arrival
    /// propagation, delta-maintained leaky-corner energy terms — with
    /// rejected moves reverted from the journals instead of recomputed.
    fn repair_and_eval(
        &self,
        design: Design,
        delays: Vec<f64>,
        vt_leaky: Vec<f64>,
    ) -> (Design, f64, EnergyBreakdown) {
        let model = self.problem.model();
        let netlist = model.netlist();
        let w_hi = model.technology().w_range.1;
        let tc = self.problem.effective_cycle_time();
        let mut eval = IncrementalEval::new(
            model,
            design,
            delays,
            Some(vt_leaky),
            self.problem.fc(),
            tc,
            Some(self.ctx.stats().clone()),
        );
        let mut blocked = vec![false; netlist.gate_count()];
        for _ in 0..200 {
            let (crit, crit_gate) = eval.sta().critical_sink();
            if crit <= tc {
                break;
            }
            let Some(cg) = crit_gate else { break };
            let best = {
                let (design, delays, arrival) = eval.split();
                best_upsize_move(model, netlist, design, delays, arrival, &blocked, cg, w_hi)
            };
            match best {
                Some((i, w_new, _)) => {
                    eval.try_width(model, i, w_new);
                    // Revert moves that backfire through driver loading.
                    if eval.sta().critical_sink().0 < crit {
                        eval.accept();
                    } else {
                        eval.revert(model);
                        blocked[i] = true;
                    }
                }
                None => break,
            }
        }
        let critical = eval.sta().critical_sink().0;
        // Energy at the leaky corner (equals nominal when tolerance = 0).
        let energy = eval.energy();
        (eval.into_design(), critical, energy)
    }
}

/// Walks the critical path from `crit_gate` toward the primary inputs and
/// returns the most effective upsize `(gate, new_width, gain)`: the
/// largest single-gate delay reduction from a 1.3× width step, probing
/// each candidate in place. Reads only the design, delays and arrivals,
/// so a warm state that matches the dense one bit for bit makes the
/// decisions a dense loop would.
#[allow(clippy::too_many_arguments)]
fn best_upsize_move(
    model: &CircuitModel,
    netlist: &Netlist,
    design: &mut Design,
    delays: &[f64],
    arrival: &[f64],
    blocked: &[bool],
    crit_gate: GateId,
    w_hi: f64,
) -> Option<(usize, f64, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (gate, new_w, gain)
    let mut cur = crit_gate;
    loop {
        let i = cur.index();
        let g = netlist.gate(cur);
        if !g.fanin().is_empty() && !blocked[i] && design.width[i] < w_hi {
            let w_old = design.width[i];
            let w_new = (w_old * 1.3).min(w_hi);
            let max_fanin = model.max_fanin_delay(delays, i);
            let t_old = delays[i];
            design.width[i] = w_new;
            let t_new = model.gate_delay(design, cur, max_fanin);
            design.width[i] = w_old;
            let gain = t_old - t_new;
            if gain > 0.0 && best.is_none_or(|(_, _, b)| gain > b) {
                best = Some((i, w_new, gain));
            }
        }
        match g.fanin().iter().max_by(|a, b| {
            arrival[a.index()]
                .partial_cmp(&arrival[b.index()])
                .expect("arrivals are finite")
        }) {
            Some(&f) => cur = f,
            None => break,
        }
    }
    best
}

/// Sizes every gate's width at a **fixed** operating point `(vdd, vt)`,
/// returning the same record as a full optimization.
///
/// This is the innermost stage of Procedure 2 run standalone — useful for
/// design-space exploration (plotting energy/feasibility over a
/// `V_dd × V_ts` grid, as in the paper's §3 discussion) and for ablation
/// studies.
///
/// # Errors
///
/// [`OptimizeError::EmptyNetwork`] or [`OptimizeError::BadOption`] on
/// invalid inputs. An infeasible operating point is **not** an error: the
/// result's `feasible` flag reports it, so grids can include the
/// infeasible region.
pub fn size_at(
    problem: &Problem,
    vdd: f64,
    vt: f64,
    options: &SearchOptions,
) -> Result<OptimizationResult, OptimizeError> {
    size_at_with(EvalContext::global(), problem, vdd, vt, options)
}

/// [`size_at`] on an explicit [`EvalContext`] — how benches and tests pin
/// the thread count or the cache without touching the process-wide
/// context.
///
/// # Errors
///
/// Same failure modes as [`size_at`].
pub fn size_at_with(
    ctx: Arc<EvalContext>,
    problem: &Problem,
    vdd: f64,
    vt: f64,
    options: &SearchOptions,
) -> Result<OptimizationResult, OptimizeError> {
    options.validate()?;
    problem.validate()?;
    if problem.model().netlist().logic_gate_count() == 0 {
        return Err(OptimizeError::EmptyNetwork);
    }
    let sizer = Sizer::with_context(
        ctx,
        problem,
        options.steps,
        options.width_passes,
        options.vt_tolerance,
        options.budget_policy,
        options.sizing,
    );
    let n = problem.model().netlist().gate_count();
    let sized = sizer.size(vdd, &vec![vt; n]);
    Ok(OptimizationResult {
        design: sized.design,
        energy: sized.energy,
        critical_delay: sized.critical_delay,
        feasible: sized.feasible,
        evaluations: 1,
        budgets: sizer.budgets,
    })
}

/// The Procedure 1 + Procedure 2 optimizer.
///
/// See the [module documentation](self) for the search structure and the
/// crate example for usage.
#[derive(Debug)]
pub struct Optimizer<'a> {
    problem: &'a Problem,
    options: SearchOptions,
    engine: Arc<EvalContext>,
    run_control: RunControl,
    checkpoint: Option<CheckpointSpec>,
    resume: Option<PathBuf>,
}

/// Bookkeeping for periodic checkpoint writes during a run.
struct CpState {
    last_write: usize,
    /// The journal's writing end; `None` without a checkpoint spec.
    writer: Option<JournalWriter>,
    error: Option<OptimizeError>,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer with default options, evaluating through the
    /// process-wide [`EvalContext`].
    pub fn new(problem: &'a Problem) -> Self {
        Optimizer {
            problem,
            options: SearchOptions::default(),
            engine: EvalContext::global(),
            run_control: RunControl::new(),
            checkpoint: None,
            resume: None,
        }
    }

    /// Replaces the search options.
    pub fn with_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Routes this run's evaluations through `engine` instead of the
    /// process-wide context — how tests pin the thread count or compare
    /// cache-on against cache-off runs.
    pub fn with_engine(mut self, engine: Arc<EvalContext>) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a run control: the search polls it once per probe and, on
    /// a trip, stops cleanly with [`OptimizeError::Interrupted`] carrying
    /// the best feasible design found so far.
    pub fn with_run_control(mut self, control: RunControl) -> Self {
        self.run_control = control;
        self
    }

    /// Journals the run's probes to `spec.path`: each new probe is
    /// appended once, in batches of one write and one `fdatasync` every
    /// `spec.every` evaluations, plus a final batch on interruption and
    /// on completion. The journal can be fed back through
    /// [`resume_from`](Self::resume_from).
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Resumes from a probe journal written by
    /// [`with_checkpoint`](Self::with_checkpoint): the longest valid
    /// prefix of journaled probes preloads the evaluation cache and the
    /// deterministic search replays to exactly the state it was
    /// interrupted in, then continues — the final result is
    /// bit-identical to an uninterrupted run's. The journal must come
    /// from the same problem and options (validated by fingerprint).
    /// When the run also checkpoints, its journal continues the resumed
    /// one: a torn tail is cut off first, and preloaded probes are not
    /// written again.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Appends the probes journaled since the last write if a write is
    /// due (or `force`d), folding any I/O failure into `cp` for the
    /// caller to surface once.
    fn maybe_checkpoint(
        &self,
        sizer: &Sizer<'_>,
        evaluations: usize,
        cp: &mut CpState,
        force: bool,
    ) {
        let (Some(spec), Some(writer)) = (&self.checkpoint, cp.writer.as_mut()) else {
            return;
        };
        if cp.error.is_some() {
            return;
        }
        let due = evaluations.saturating_sub(cp.last_write) >= spec.every.max(1);
        if !(due || (force && evaluations != cp.last_write)) {
            return;
        }
        cp.last_write = evaluations;
        let probes = self.engine.take_journal();
        if probes.is_empty() {
            return;
        }
        match writer.append(sizer.salt, &sizer.budgets, &probes) {
            Ok(report) => {
                let stats = self.engine.stats();
                stats.count_checkpoint(report.bytes);
                stats.count_store_write(report.retries);
                if let Some(health) = &spec.health {
                    health.report_success();
                }
            }
            Err(e) => {
                if let Some(health) = &spec.health {
                    health.report_failure(&e.to_string());
                }
                if spec.required {
                    cp.error = Some(e);
                }
                // Best-effort policy: the run continues and this batch is
                // dropped from the journal — a resume recomputes those
                // probes, still bit-identically. The next success
                // un-latches `health`.
            }
        }
    }

    /// Runs the full joint optimization.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::EmptyNetwork`] for gate-free networks,
    /// [`OptimizeError::BadOption`] for invalid options, and
    /// [`OptimizeError::Infeasible`] when no probed operating point meets
    /// the cycle time (the error carries the best delay achieved).
    pub fn run(&self) -> Result<OptimizationResult, OptimizeError> {
        let stats = self.engine.stats().clone();
        stats.time(Phase::Search, || self.run_inner())
    }

    fn run_inner(&self) -> Result<OptimizationResult, OptimizeError> {
        self.options.validate()?;
        self.problem.validate()?;
        let model = self.problem.model();
        if model.netlist().logic_gate_count() == 0 {
            return Err(OptimizeError::EmptyNetwork);
        }
        let tech = model.technology().clone();
        let sizer = Sizer::with_context(
            self.engine.clone(),
            self.problem,
            self.options.steps,
            self.options.width_passes,
            self.options.vt_tolerance,
            self.options.budget_policy,
            self.options.sizing,
        );
        let mut writer = self.checkpoint.as_ref().map(|spec| {
            self.engine.enable_probe_journal();
            JournalWriter::new(&spec.path)
        });
        if let Some(path) = &self.resume {
            let journal = ProbeJournal::load(path)?;
            if journal.salt != sizer.salt {
                return Err(OptimizeError::Checkpoint {
                    message: format!(
                        "{} was taken for a different problem or option set \
                         (fingerprint mismatch)",
                        path.display()
                    ),
                });
            }
            if let Some(spec) = &self.checkpoint {
                match JournalWriter::resume(&spec.path, path, journal.valid_len) {
                    Ok(continued) => writer = Some(continued),
                    Err(e) if spec.required => return Err(e),
                    // Best-effort: start a fresh journal instead.
                    Err(e) => {
                        if let Some(health) = &spec.health {
                            health.report_failure(&e.to_string());
                        }
                    }
                }
            }
            self.engine
                .preload_probes(journal.salt, &journal.budgets, &journal.probes);
        }
        let n = model.netlist().gate_count();
        let m = self.options.steps;

        let mut best: Option<Sized> = None;
        let mut best_delay_seen = f64::INFINITY;
        let mut evaluations = 0usize;
        let mut cp = CpState {
            last_write: 0,
            writer,
            error: None,
        };
        let mut tripped: Option<TripReason> = None;

        {
            // Outer search over the global supply. Energy at the
            // per-supply-optimal threshold is unimodal in V_dd (quadratic
            // dynamic gain downward until the feasibility cliff), so a
            // golden-section bracket with the paper's M probes locates the
            // minimum regardless of which side of the first midpoint it
            // falls on (the literal one-sided rule of Procedure 2 can get
            // stuck above interior optima; see DESIGN.md). Ties — notably
            // the infeasible plateau at low supply — resolve upward.
            let (v_lo, v_hi) = tech.vdd_range;
            golden_section(v_lo, v_hi, m, true, |vdd| {
                if tripped.is_some() {
                    return f64::INFINITY;
                }
                let candidate = if self.options.vt_groups <= 1 {
                    self.search_single_vt(
                        &sizer,
                        vdd,
                        &tech,
                        n,
                        &mut evaluations,
                        &mut best_delay_seen,
                        &mut cp,
                        &mut tripped,
                    )
                } else {
                    self.search_grouped_vt(
                        &sizer,
                        vdd,
                        &tech,
                        n,
                        &mut evaluations,
                        &mut best_delay_seen,
                        &mut cp,
                        &mut tripped,
                    )
                };
                // A NaN energy (broken device model, injected fault) must
                // never become the returned optimum: treat it exactly like
                // an infeasible probe.
                let e = match &candidate {
                    Some(c) if c.feasible && c.energy.total().is_finite() => c.energy.total(),
                    _ => f64::INFINITY,
                };
                if let Some(c) = candidate {
                    if c.feasible
                        && c.energy.total().is_finite()
                        && best
                            .as_ref()
                            .is_none_or(|b| c.energy.total() < b.energy.total())
                    {
                        best = Some(c);
                    }
                }
                e
            });
        }

        if let Some(e) = cp.error {
            return Err(e);
        }
        if let Some(reason) = tripped {
            self.engine.stats().count_deadline_trip();
            // Best-effort final snapshot so `--resume` can pick up right
            // here; the partial result matters more than a failed write.
            self.maybe_checkpoint(&sizer, evaluations, &mut cp, true);
            let best_so_far = best.map(|sized| {
                Box::new(OptimizationResult {
                    design: sized.design,
                    energy: sized.energy,
                    critical_delay: sized.critical_delay,
                    feasible: sized.feasible,
                    evaluations,
                    budgets: sizer.budgets.clone(),
                })
            });
            return Err(OptimizeError::Interrupted {
                reason,
                best_so_far,
                progress: self.run_control.progress(evaluations),
            });
        }

        match best {
            Some(sized) => {
                // Final snapshot: resuming a *completed* run replays to the
                // same result from cache alone.
                self.maybe_checkpoint(&sizer, evaluations, &mut cp, true);
                if let Some(e) = cp.error {
                    return Err(e);
                }
                Ok(OptimizationResult {
                    design: sized.design,
                    energy: sized.energy,
                    critical_delay: sized.critical_delay,
                    feasible: sized.feasible,
                    evaluations,
                    budgets: sizer.budgets,
                })
            }
            None => Err(OptimizeError::Infeasible {
                cycle_time: self.problem.effective_cycle_time(),
                best_delay: best_delay_seen,
            }),
        }
    }

    /// Middle loop for a single global threshold (`n_v = 1`):
    /// golden-section search over `V_ts`. The energy is U-shaped in the
    /// threshold (exponential leakage below, width blow-up above, an
    /// infeasible plateau at the very top); ties resolve downward, toward
    /// the always-feasible low-threshold side.
    #[allow(clippy::too_many_arguments)]
    fn search_single_vt(
        &self,
        sizer: &Sizer<'_>,
        vdd: f64,
        tech: &minpower_device::Technology,
        n: usize,
        evaluations: &mut usize,
        best_delay_seen: &mut f64,
        cp: &mut CpState,
        tripped: &mut Option<TripReason>,
    ) -> Option<Sized> {
        let m = self.options.steps;
        let (t_lo, t_hi) = tech.vt_range;
        let mut local_best: Option<Sized> = None;
        golden_section(t_lo, t_hi, m, false, |vt| {
            if tripped.is_none() {
                *tripped = self.run_control.trip();
            }
            if tripped.is_some() {
                return f64::INFINITY;
            }
            let sized = sizer.size(vdd, &vec![vt; n]);
            *evaluations += 1;
            self.maybe_checkpoint(sizer, *evaluations, cp, false);
            if sized.critical_delay.is_finite() {
                *best_delay_seen = best_delay_seen.min(sized.critical_delay);
            }
            let e = if sized.feasible && sized.energy.total().is_finite() {
                sized.energy.total()
            } else {
                f64::INFINITY
            };
            if sized.feasible
                && sized.energy.total().is_finite()
                && local_best
                    .as_ref()
                    .is_none_or(|b| sized.energy.total() < b.energy.total())
            {
                local_best = Some(sized);
            }
            e
        });
        local_best
    }

    /// Middle loop for `n_v > 1`: coordinate descent over group
    /// thresholds, seeded from the single-threshold optimum (so the
    /// multi-`V_t` result can only match or improve on `n_v = 1`), groups
    /// formed by budget quantiles.
    #[allow(clippy::too_many_arguments)]
    fn search_grouped_vt(
        &self,
        sizer: &Sizer<'_>,
        vdd: f64,
        tech: &minpower_device::Technology,
        n: usize,
        evaluations: &mut usize,
        best_delay_seen: &mut f64,
        cp: &mut CpState,
        tripped: &mut Option<TripReason>,
    ) -> Option<Sized> {
        let m = self.options.steps;
        let groups = self.options.vt_groups;
        let netlist = self.problem.model().netlist();

        // Rank logic gates by budget: tightest budgets → group 0 (lowest
        // V_t, fastest), loosest → last group (highest V_t, least leaky).
        let mut logic: Vec<usize> = (0..n)
            .filter(|&i| netlist.gate(minpower_netlist::GateId::new(i)).kind() != GateKind::Input)
            .collect();
        logic.sort_by(|&a, &b| {
            sizer.budgets[a]
                .partial_cmp(&sizer.budgets[b])
                .expect("budgets are finite")
        });
        let mut group_of = vec![0usize; n];
        for (rank, &i) in logic.iter().enumerate() {
            group_of[i] = rank * groups / logic.len().max(1);
        }

        let (t_min, t_max) = tech.vt_range;
        // Seed with the single-threshold optimum at this supply: the
        // coordinate descent then refines per group and can only improve.
        let seed = self.search_single_vt(
            sizer,
            vdd,
            tech,
            n,
            evaluations,
            best_delay_seen,
            cp,
            tripped,
        );
        if tripped.is_some() {
            return seed;
        }
        let seed_vt = seed
            .as_ref()
            .and_then(|s| {
                s.design
                    .vt
                    .iter()
                    .zip(sizer.budgets.iter())
                    .find(|&(_, &b)| b > 0.0)
                    .map(|(&v, _)| v)
            })
            .unwrap_or(0.5 * (t_min + t_max));
        let mut group_vt = vec![seed_vt; groups];
        let mut local_best: Option<Sized> = seed;
        let assemble = |group_vt: &[f64], group_of: &[usize]| -> Vec<f64> {
            (0..n).map(|i| group_vt[group_of[i]]).collect()
        };
        'rounds: for _round in 0..2 {
            for g in 0..groups {
                let mut lo = t_min;
                let mut hi = t_max;
                for _ in 0..m / 2 + 1 {
                    if tripped.is_none() {
                        *tripped = self.run_control.trip();
                    }
                    if tripped.is_some() {
                        break 'rounds;
                    }
                    let vt = 0.5 * (lo + hi);
                    let mut trial_vt = group_vt.clone();
                    trial_vt[g] = vt;
                    let sized = sizer.size(vdd, &assemble(&trial_vt, &group_of));
                    *evaluations += 1;
                    self.maybe_checkpoint(sizer, *evaluations, cp, false);
                    if sized.critical_delay.is_finite() {
                        *best_delay_seen = best_delay_seen.min(sized.critical_delay);
                    }
                    let improved = sized.feasible
                        && sized.energy.total().is_finite()
                        && local_best
                            .as_ref()
                            .is_none_or(|b| sized.energy.total() < b.energy.total());
                    if improved {
                        group_vt[g] = vt;
                        local_best = Some(sized);
                        lo = vt;
                    } else if vt > group_vt[g] {
                        hi = vt;
                    } else {
                        lo = vt;
                    }
                }
            }
        }
        local_best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_device::Technology;
    use minpower_models::CircuitModel;
    use minpower_netlist::{Netlist, NetlistBuilder};

    fn ripple(bits: usize) -> Netlist {
        // A small ripple structure: carries chain through NAND pairs.
        let mut b = NetlistBuilder::new("ripple");
        b.input("c0").unwrap();
        for i in 0..bits {
            b.input(&format!("a{i}")).unwrap();
            b.input(&format!("b{i}")).unwrap();
        }
        let mut carry = "c0".to_string();
        for i in 0..bits {
            let g = format!("g{i}");
            let p = format!("p{i}");
            let c = format!("c{}", i + 1);
            b.gate(&g, GateKind::Nand, &[&format!("a{i}"), &format!("b{i}")])
                .unwrap();
            b.gate(&p, GateKind::Xor, &[&format!("a{i}"), &format!("b{i}")])
                .unwrap();
            let t = format!("t{i}");
            b.gate(&t, GateKind::Nand, &[&p, &carry]).unwrap();
            b.gate(&c, GateKind::Nand, &[&t, &g]).unwrap();
            let s = format!("s{i}");
            b.gate(&s, GateKind::Xor, &[&p, &carry]).unwrap();
            b.output(&s).unwrap();
            carry = c;
        }
        b.output(&carry).unwrap();
        b.finish().unwrap()
    }

    fn problem(netlist: &Netlist, fc: f64) -> Problem {
        let model = CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, 0.3);
        Problem::new(model, fc)
    }

    #[test]
    fn optimizer_finds_feasible_low_energy_design() {
        let n = ripple(4);
        let p = problem(&n, 100.0e6);
        let r = Optimizer::new(&p).run().unwrap();
        assert!(r.feasible);
        assert!(r.critical_delay <= p.cycle_time() * (1.0 + 1e-9));
        // The optimizer should exploit the slack: supply well below 3.3 V.
        assert!(r.design.vdd < 2.0, "vdd = {}", r.design.vdd);
        assert!(r.energy.total() > 0.0);
    }

    #[test]
    fn joint_vt_beats_fixed_vt_energy() {
        let n = ripple(4);
        let p = problem(&n, 100.0e6);
        let joint = Optimizer::new(&p).run().unwrap();
        let fixed = crate::baseline::optimize_fixed_vt(&p, 0.7, SearchOptions::default()).unwrap();
        assert!(
            joint.energy.total() < fixed.energy.total(),
            "joint {:.3e} !< fixed {:.3e}",
            joint.energy.total(),
            fixed.energy.total()
        );
    }

    #[test]
    fn infeasible_cycle_time_is_reported() {
        let n = ripple(4);
        let p = problem(&n, 50.0e9); // 50 GHz: hopeless for this process
        let err = Optimizer::new(&p).run().unwrap_err();
        match err {
            OptimizeError::Infeasible { best_delay, .. } => {
                assert!(best_delay.is_finite());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn result_design_meets_cycle_time_on_recheck() {
        let n = ripple(3);
        let p = problem(&n, 150.0e6);
        let r = Optimizer::new(&p).run().unwrap();
        let eval = p.model().evaluate(&r.design, p.fc());
        assert!(
            eval.critical_delay <= p.effective_cycle_time() * (1.0 + 1e-6),
            "critical delay {} exceeds cycle time {}",
            eval.critical_delay,
            p.effective_cycle_time()
        );
        // The budgets remain a sound certificate: their sum along any
        // path is within the cycle time.
        let worst = crate::budget::longest_budget_path(&n, &r.budgets);
        assert!(worst <= p.effective_cycle_time() * (1.0 + 1e-9));
    }

    #[test]
    fn multi_vt_is_no_worse_than_single_vt() {
        let n = ripple(3);
        let p = problem(&n, 150.0e6);
        let single = Optimizer::new(&p).run().unwrap();
        let multi = Optimizer::new(&p)
            .with_options(SearchOptions {
                vt_groups: 2,
                ..SearchOptions::default()
            })
            .run()
            .unwrap();
        // The grouped search is seeded from the single-Vt optimum, so it
        // can only match or improve it.
        assert!(
            multi.energy.total() <= single.energy.total() * (1.0 + 1e-9),
            "multi {:.3e} vs single {:.3e}",
            multi.energy.total(),
            single.energy.total()
        );
    }

    #[test]
    fn bad_options_rejected() {
        let n = ripple(2);
        let p = problem(&n, 100.0e6);
        let err = Optimizer::new(&p)
            .with_options(SearchOptions {
                steps: 0,
                ..SearchOptions::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            OptimizeError::BadOption {
                option: "steps",
                ..
            }
        ));
        let err = Optimizer::new(&p)
            .with_options(SearchOptions {
                vt_tolerance: 1.0,
                ..SearchOptions::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            OptimizeError::BadOption {
                option: "vt_tolerance",
                ..
            }
        ));
    }

    #[test]
    fn tolerance_costs_energy() {
        let n = ripple(3);
        let p = problem(&n, 150.0e6);
        let nominal = Optimizer::new(&p).run().unwrap();
        let margined = Optimizer::new(&p)
            .with_options(SearchOptions {
                vt_tolerance: 0.2,
                ..SearchOptions::default()
            })
            .run()
            .unwrap();
        assert!(
            margined.energy.total() >= nominal.energy.total(),
            "margined {:.3e} < nominal {:.3e}",
            margined.energy.total(),
            nominal.energy.total()
        );
    }
}
