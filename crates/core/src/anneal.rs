//! Multiple-pass simulated annealing over `(V_dd, V_ts, W_1..W_N)`.
//!
//! The paper implemented an annealing-based optimizer "for evaluation
//! purposes" and found the heuristic performed significantly better: the
//! joint search space (two voltages plus one width per gate) is too large
//! for annealing to converge in practical time (§5). This module
//! reproduces that comparison point: a standard Metropolis annealer with
//! geometric cooling and multiple restart passes, a delay-violation
//! penalty folded into the cost, and a bounded evaluation budget so
//! head-to-head comparisons against Procedure 2 use equal work.

use std::path::Path;

use minpower_engine::{fnv1a_words, SplitMix64};
use minpower_models::Design;
use minpower_netlist::GateKind;

use crate::budget::assign_max_delays;
use crate::checkpoint::{AnnealCheckpoint, AnnealState, CheckpointSpec};
use crate::error::OptimizeError;
use crate::problem::Problem;
use crate::result::OptimizationResult;
use crate::runctl::RunControl;

/// Annealing schedule and budget.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealOptions {
    /// Total design evaluations across all passes.
    pub max_evaluations: usize,
    /// Number of independent cooling passes (restarts keep the best).
    pub passes: usize,
    /// Initial acceptance temperature as a fraction of the initial cost.
    pub initial_temperature: f64,
    /// Geometric cooling rate per step, in `(0, 1)`.
    pub cooling: f64,
    /// PRNG seed for reproducible runs.
    pub seed: u64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            max_evaluations: 20_000,
            passes: 3,
            initial_temperature: 0.3,
            cooling: 0.999,
            seed: 0xDAC9_7001,
        }
    }
}

/// Runs the annealer, returning the best design found.
///
/// The returned result's `feasible` flag reports whether the best design
/// met every delay budget; unlike the heuristic, annealing offers no
/// guarantee of ending feasible.
///
/// # Errors
///
/// [`OptimizeError::EmptyNetwork`] for gate-free networks and
/// [`OptimizeError::BadOption`] for a zero evaluation budget or an invalid
/// cooling rate.
pub fn optimize(
    problem: &Problem,
    options: AnnealOptions,
) -> Result<OptimizationResult, OptimizeError> {
    optimize_ctl(problem, options, &RunControl::new(), None, None)
}

/// Fingerprint binding a checkpoint to one `(problem, options)` pair: a
/// resume against a different circuit, budget, or schedule is rejected
/// instead of silently continuing the wrong run.
fn anneal_salt(problem: &Problem, options: &AnnealOptions) -> u64 {
    fnv1a_words([
        problem.model().fingerprint(),
        problem.fc().to_bits(),
        problem.effective_cycle_time().to_bits(),
        options.max_evaluations as u64,
        options.passes as u64,
        options.initial_temperature.to_bits(),
        options.cooling.to_bits(),
        options.seed,
    ])
}

/// [`optimize`] under a [`RunControl`], with optional checkpointing.
///
/// The annealer polls `control` once per Metropolis step; on a trip it
/// writes a final snapshot (when `checkpoint` is set) and returns
/// [`OptimizeError::Interrupted`] carrying the best design found so far.
/// A snapshot captures the full loop state — pass, step, temperature,
/// PRNG state, current and best designs — so a resumed run continues the
/// exact random sequence and finishes bit-identically to an uninterrupted
/// one.
///
/// # Errors
///
/// The [`optimize`] failure modes, plus [`OptimizeError::Interrupted`] on
/// a control trip and [`OptimizeError::Checkpoint`] for unreadable or
/// mismatched snapshots.
pub fn optimize_ctl(
    problem: &Problem,
    options: AnnealOptions,
    control: &RunControl,
    checkpoint: Option<&CheckpointSpec>,
    resume: Option<&Path>,
) -> Result<OptimizationResult, OptimizeError> {
    if options.max_evaluations == 0 {
        return Err(OptimizeError::BadOption {
            option: "max_evaluations",
            message: "must be at least 1".into(),
        });
    }
    if !(0.0 < options.cooling && options.cooling < 1.0) {
        return Err(OptimizeError::BadOption {
            option: "cooling",
            message: "must lie in (0, 1)".into(),
        });
    }
    problem.validate()?;
    let model = problem.model();
    let netlist = model.netlist();
    if netlist.logic_gate_count() == 0 {
        return Err(OptimizeError::EmptyNetwork);
    }
    let tech = model.technology().clone();
    let budgets = assign_max_delays(netlist, problem.effective_cycle_time());
    let n = netlist.gate_count();
    let logic: Vec<usize> = (0..n)
        .filter(|&i| netlist.gate(minpower_netlist::GateId::new(i)).kind() != GateKind::Input)
        .collect();

    let salt = anneal_salt(problem, &options);
    let fc = problem.fc();
    let stats = crate::context::EvalContext::global().stats().clone();

    // Penalized cost: energy × (1 + relative budget violation). The
    // violation term dominates while infeasible and vanishes at
    // feasibility.
    let cost_of = |design: &Design| -> (f64, bool) {
        stats.count_eval();
        stats.count_sta(1);
        let delays = model.delays(design);
        let mut violation = 0.0f64;
        for &i in &logic {
            let over = delays[i] - budgets[i];
            if over > 0.0 {
                violation += over / problem.effective_cycle_time();
            }
        }
        let energy = model.total_energy(design, fc).total();
        (energy * (1.0 + 100.0 * violation), violation <= 0.0)
    };

    // Start from a safe corner: full supply, nominal threshold, mid width.
    let start = Design {
        vdd: tech.vdd_range.1,
        vt: vec![0.5 * (tech.vt_range.0 + tech.vt_range.1); n],
        width: vec![0.25 * (tech.w_range.0 + tech.w_range.1); n],
    };
    let per_pass = options.max_evaluations / options.passes.max(1);
    let passes = options.passes.max(1);

    // Loop state — either freshly initialized or restored verbatim from a
    // snapshot. Snapshots are taken at the top of the step loop (after the
    // pass initialization), so a restored state always re-enters the step
    // loop directly with `skip_init` set.
    let mut rng;
    let mut pass;
    let mut step;
    let mut evaluations;
    let mut temperature;
    let mut current;
    let mut current_cost;
    let mut best;
    let mut best_cost;
    let mut best_feasible;
    let mut skip_init;
    if let Some(path) = resume {
        let AnnealCheckpoint { salt: s, state } = AnnealCheckpoint::load(path)?;
        if s != salt {
            return Err(OptimizeError::Checkpoint {
                message: format!(
                    "{} was taken for a different problem or option set \
                     (fingerprint mismatch)",
                    path.display()
                ),
            });
        }
        rng = SplitMix64::from_state(state.rng_state);
        pass = state.pass;
        step = state.step;
        evaluations = state.evaluations;
        temperature = state.temperature;
        current = state.current;
        current_cost = state.current_cost;
        best = state.best;
        best_cost = state.best_cost;
        best_feasible = state.best_feasible;
        skip_init = true;
    } else {
        rng = SplitMix64::new(options.seed);
        pass = 0;
        step = 0;
        best = start.clone();
        let (c, f) = cost_of(&best);
        best_cost = c;
        best_feasible = f;
        evaluations = 1;
        temperature = 0.0;
        current = start.clone();
        current_cost = best_cost;
        skip_init = false;
    }

    let mut last_write = evaluations;
    let mut save_state = |pass: usize,
                          step: usize,
                          evaluations: usize,
                          temperature: f64,
                          rng: &SplitMix64,
                          current: &Design,
                          current_cost: f64,
                          best: &Design,
                          best_cost: f64,
                          best_feasible: bool,
                          force: bool|
     -> Result<(), OptimizeError> {
        let Some(spec) = checkpoint else {
            return Ok(());
        };
        let due = evaluations.saturating_sub(last_write) >= spec.every.max(1);
        if !(due || (force && evaluations != last_write)) {
            return Ok(());
        }
        let snapshot = AnnealCheckpoint {
            salt,
            state: AnnealState {
                pass,
                step,
                evaluations,
                temperature,
                rng_state: rng.state(),
                current: current.clone(),
                current_cost,
                best: best.clone(),
                best_cost,
                best_feasible,
            },
        };
        match snapshot.save_report(&spec.path) {
            Ok(report) => {
                stats.count_checkpoint(report.bytes);
                stats.count_store_write(report.retries);
                if let Some(health) = &spec.health {
                    health.report_success();
                }
                last_write = evaluations;
            }
            Err(e) => {
                if let Some(health) = &spec.health {
                    health.report_failure(&e.to_string());
                }
                if spec.required {
                    return Err(e);
                }
                // Best-effort policy: keep annealing uncheckpointed and
                // re-attempt at the normal cadence.
                last_write = evaluations;
            }
        }
        Ok(())
    };

    let mut tripped = None;
    'passes: while pass < passes {
        if !skip_init {
            current = if pass == 0 {
                start.clone()
            } else {
                best.clone()
            };
            let (c, _) = cost_of(&current);
            current_cost = c;
            evaluations += 1;
            temperature = options.initial_temperature * current_cost.max(1e-30);
        }
        skip_init = false;
        while step < per_pass {
            if evaluations >= options.max_evaluations {
                break;
            }
            if tripped.is_none() {
                tripped = control.trip();
            }
            if tripped.is_some() {
                break 'passes;
            }
            save_state(
                pass,
                step,
                evaluations,
                temperature,
                &rng,
                &current,
                current_cost,
                &best,
                best_cost,
                best_feasible,
                false,
            )?;
            let mut trial = current.clone();
            match rng.range_usize(4) {
                0 => {
                    let delta = rng.range_f64(-0.15, 0.15);
                    trial.vdd = (trial.vdd + delta).clamp(tech.vdd_range.0, tech.vdd_range.1);
                }
                1 => {
                    let delta = rng.range_f64(-0.05, 0.05);
                    let vt = (trial.vt[logic[0]] + delta).clamp(tech.vt_range.0, tech.vt_range.1);
                    for &i in &logic {
                        trial.vt[i] = vt;
                    }
                }
                _ => {
                    let i = logic[rng.range_usize(logic.len())];
                    let factor = rng.range_f64(0.7, 1.4);
                    trial.width[i] =
                        (trial.width[i] * factor).clamp(tech.w_range.0, tech.w_range.1);
                }
            }
            let (trial_cost, trial_feasible) = cost_of(&trial);
            evaluations += 1;
            let accept = trial_cost < current_cost || {
                let delta = trial_cost - current_cost;
                rng.next_f64() < (-delta / temperature.max(1e-300)).exp()
            };
            if accept {
                current = trial;
                current_cost = trial_cost;
                if current_cost < best_cost {
                    best = current.clone();
                    best_cost = current_cost;
                    best_feasible = trial_feasible;
                }
            }
            temperature *= options.cooling;
            step += 1;
        }
        pass += 1;
        step = 0;
    }

    if let Some(reason) = tripped {
        stats.count_deadline_trip();
        // Best-effort final snapshot so `--resume` continues from this
        // exact step; the partial result matters more than a failed write.
        let _ = save_state(
            pass,
            step,
            evaluations,
            temperature,
            &rng,
            &current,
            current_cost,
            &best,
            best_cost,
            best_feasible,
            true,
        );
        let result = finish(problem, best, best_feasible, evaluations, budgets);
        return Err(OptimizeError::Interrupted {
            reason,
            best_so_far: Some(Box::new(result)),
            progress: control.progress(evaluations),
        });
    }

    // Final snapshot: resuming a *completed* run replays to the same
    // result immediately.
    save_state(
        pass,
        step,
        evaluations,
        temperature,
        &rng,
        &current,
        current_cost,
        &best,
        best_cost,
        best_feasible,
        true,
    )?;
    Ok(finish(problem, best, best_feasible, evaluations, budgets))
}

/// Final evaluation of the winning design: self-consistent delays, the
/// critical arrival, and the energy breakdown.
fn finish(
    problem: &Problem,
    best: Design,
    best_feasible: bool,
    evaluations: usize,
    budgets: Vec<f64>,
) -> OptimizationResult {
    let model = problem.model();
    let netlist = model.netlist();
    let n = netlist.gate_count();
    let delays = model.delays(&best);
    let mut arrival = vec![0.0f64; n];
    let mut critical = 0.0f64;
    for &id in netlist.topological_order() {
        let i = id.index();
        let latest = netlist
            .gate(id)
            .fanin()
            .iter()
            .map(|f| arrival[f.index()])
            .fold(0.0, f64::max);
        arrival[i] = latest + delays[i];
        critical = critical.max(arrival[i]);
    }
    let energy = model.total_energy(&best, problem.fc());
    OptimizationResult {
        design: best,
        energy,
        critical_delay: critical,
        feasible: best_feasible,
        evaluations,
        budgets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_device::Technology;
    use minpower_models::CircuitModel;
    use minpower_netlist::{Netlist, NetlistBuilder};

    fn netlist() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate("u", GateKind::Nand, &["a", "c"]).unwrap();
        b.gate("v", GateKind::Nor, &["u", "c"]).unwrap();
        b.gate("w", GateKind::Nand, &["u", "v"]).unwrap();
        b.gate("y", GateKind::Not, &["w"]).unwrap();
        b.output("y").unwrap();
        b.finish().unwrap()
    }

    fn problem() -> Problem {
        let n = netlist();
        let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
        Problem::new(model, 200.0e6)
    }

    #[test]
    fn annealing_improves_on_start_and_respects_budget_cap() {
        let p = problem();
        let opts = AnnealOptions {
            max_evaluations: 3_000,
            ..AnnealOptions::default()
        };
        let r = optimize(&p, opts.clone()).unwrap();
        assert!(r.evaluations <= opts.max_evaluations + 2);
        // It should at least find a feasible design on this tiny network.
        assert!(r.feasible);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let p = problem();
        let opts = AnnealOptions {
            max_evaluations: 1_000,
            ..AnnealOptions::default()
        };
        let a = optimize(&p, opts.clone()).unwrap();
        let b = optimize(&p, opts).unwrap();
        assert_eq!(a.design, b.design);
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn zero_budget_rejected() {
        let p = problem();
        let err = optimize(
            &p,
            AnnealOptions {
                max_evaluations: 0,
                ..AnnealOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OptimizeError::BadOption {
                option: "max_evaluations",
                ..
            }
        ));
    }

    #[test]
    fn heuristic_beats_annealing_at_equal_budget() {
        let p = problem();
        let heuristic = crate::Optimizer::new(&p).run().unwrap();
        let annealed = optimize(
            &p,
            AnnealOptions {
                max_evaluations: heuristic.evaluations.max(500),
                ..AnnealOptions::default()
            },
        )
        .unwrap();
        // The paper's §5 claim, at matched evaluation budgets: the
        // heuristic's energy is at least as good (allow a sliver of noise).
        assert!(
            heuristic.energy.total() <= annealed.energy.total() * 1.05,
            "heuristic {:.3e} vs anneal {:.3e}",
            heuristic.energy.total(),
            annealed.energy.total()
        );
    }
}
