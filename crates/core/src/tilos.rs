//! TILOS-style greedy sensitivity sizing — the classical alternative to
//! Procedure 1's budget-driven widths.
//!
//! The paper's width assignment flows *down* from delay budgets: every
//! gate is given a time allowance and sized to the minimum width meeting
//! it. The classical literature (Fishburn & Dunlop's TILOS; the convex
//! formulation of the paper's ref \[10\]) instead flows *up* from minimum
//! widths: start everything at `w = 1` and repeatedly upsize the
//! critical-path gate with the best delay-reduction-per-energy-cost
//! sensitivity until the cycle time is met.
//!
//! Both reach feasible designs; comparing their energies isolates how
//! much the paper's budgeting idea actually contributes (an ablation the
//! experiments report).

use std::sync::Arc;

use minpower_engine::EngineStats;
use minpower_models::{CircuitModel, Design};
use minpower_netlist::{GateId, Netlist};

use crate::error::OptimizeError;
use crate::incremental::IncrementalEval;
use crate::problem::Problem;
use crate::result::OptimizationResult;
use crate::runctl::RunControl;

/// Options for the greedy sizer.
#[derive(Debug, Clone, PartialEq)]
pub struct TilosOptions {
    /// Multiplicative width step per accepted move (classic TILOS uses
    /// small steps; larger is faster, coarser).
    pub step: f64,
    /// Hard cap on accepted moves (safety bound).
    pub max_moves: usize,
}

impl Default for TilosOptions {
    fn default() -> Self {
        TilosOptions {
            step: 1.15,
            max_moves: 20_000,
        }
    }
}

/// Sizes widths at a fixed `(vdd, vt)` by greedy sensitivity ascent from
/// minimum widths until the cycle time is met.
///
/// # Errors
///
/// [`OptimizeError::EmptyNetwork`] for gate-free networks,
/// [`OptimizeError::BadOption`] for a non-positive step, and
/// [`OptimizeError::Infeasible`] when the cycle time cannot be met even
/// after exhausting upsizing moves.
pub fn size_greedy(
    problem: &Problem,
    vdd: f64,
    vt: f64,
    options: TilosOptions,
) -> Result<OptimizationResult, OptimizeError> {
    let n = problem.model().netlist().gate_count();
    let stats = crate::context::EvalContext::global().stats().clone();
    size_greedy_with_stats_ctl(problem, vdd, &vec![vt; n], options, stats, None)
}

/// [`size_greedy`] under a [`RunControl`]: the move loop polls `control`
/// once per accepted move and, on a trip, stops with
/// [`OptimizeError::Interrupted`]. The partially sized design is *not*
/// returned as a best-so-far — an interrupted greedy ascent has not yet
/// reached feasibility, so there is no valid design to hand back.
///
/// # Errors
///
/// The [`size_greedy`] failure modes, plus
/// [`OptimizeError::Interrupted`] on a control trip.
pub fn size_greedy_ctl(
    problem: &Problem,
    vdd: f64,
    vt: f64,
    options: TilosOptions,
    control: &RunControl,
) -> Result<OptimizationResult, OptimizeError> {
    let n = problem.model().netlist().gate_count();
    let stats = crate::context::EvalContext::global().stats().clone();
    size_greedy_with_stats_ctl(problem, vdd, &vec![vt; n], options, stats, Some(control))
}

/// [`size_greedy`] with per-gate thresholds, counting into an explicit
/// [`EngineStats`] and polling an optional [`RunControl`] once per move.
/// The joint optimizer's greedy sizing mode routes through here so
/// telemetry follows the caller's [`crate::context::EvalContext`] rather
/// than the process-wide one. The move loop runs on the warm evaluator:
/// arrival state updated over the dirty cone per move, energy terms
/// delta-maintained in the ledger and re-summed in index order at the
/// end. TILOS never rejects a move, so no probe is reverted.
///
/// # Panics
///
/// Panics if `vt.len()` differs from the gate count.
pub(crate) fn size_greedy_with_stats_ctl(
    problem: &Problem,
    vdd: f64,
    vt: &[f64],
    options: TilosOptions,
    stats: Arc<EngineStats>,
    control: Option<&RunControl>,
) -> Result<OptimizationResult, OptimizeError> {
    if options.step <= 1.0 {
        return Err(OptimizeError::BadOption {
            option: "step",
            message: "must be greater than 1".into(),
        });
    }
    let model = problem.model();
    let netlist = model.netlist();
    if netlist.logic_gate_count() == 0 {
        return Err(OptimizeError::EmptyNetwork);
    }
    let (w_lo, w_hi) = model.technology().w_range;
    let n = netlist.gate_count();
    assert_eq!(vt.len(), n, "one threshold per gate required");

    let design = Design {
        vdd,
        vt: vt.to_vec(),
        width: vec![w_lo; n],
    };
    stats.count_eval();
    stats.count_sta(1);
    let delays = model.delays(&design);
    let tc = problem.effective_cycle_time();
    let fc = problem.fc();
    let mut eval = IncrementalEval::new(model, design, delays, None, fc, tc, Some(stats.clone()));
    let mut evaluations = 1usize;
    let mut best_crit = f64::INFINITY;
    for _move in 0..options.max_moves {
        if let Some(e) = trip_to_error(control, &stats, evaluations) {
            return Err(e);
        }
        let (crit, crit_gate) = eval.critical_sink();
        best_crit = best_crit.min(crit);
        if crit <= tc {
            // Ordered re-sum of the delta-maintained per-gate terms:
            // bitwise what `total_energy` computes over the same design.
            let energy = eval.energy();
            return Ok(OptimizationResult {
                energy,
                critical_delay: crit,
                feasible: true,
                evaluations,
                budgets: crate::budget::assign_max_delays(netlist, tc),
                design: eval.into_design(),
            });
        }
        // Walk the critical path; pick the move with the best
        // Δdelay / Δenergy sensitivity.
        let Some(cg) = crit_gate else { break };
        let best = {
            let (design, delays, arr) = eval.split();
            best_sensitivity_move(
                model,
                netlist,
                design,
                delays,
                arr,
                cg,
                w_hi,
                options.step,
                fc,
            )
        };
        match best {
            Some((i, _)) => {
                let w_new = (eval.design().width[i] * options.step).min(w_hi);
                eval.set_width(model, i, w_new);
                evaluations += 1;
            }
            None => break, // every critical gate saturated
        }
    }
    Err(OptimizeError::Infeasible {
        cycle_time: tc,
        best_delay: best_crit,
    })
}

/// Polls a (possibly absent) control, mapping a trip to the
/// [`OptimizeError::Interrupted`] the greedy loops return. The greedy
/// ascent has no feasible intermediate design, so `best_so_far` is `None`.
fn trip_to_error(
    control: Option<&RunControl>,
    stats: &EngineStats,
    evaluations: usize,
) -> Option<OptimizeError> {
    let control = control?;
    let reason = control.trip()?;
    stats.count_deadline_trip();
    Some(OptimizeError::Interrupted {
        reason,
        best_so_far: None,
        progress: control.progress(evaluations),
    })
}

/// Walks the critical path from `crit_gate` toward the primary inputs and
/// returns the move with the best Δdelay / Δenergy sensitivity
/// `(gate, score)`, probing each candidate in place. Reads only the
/// design, delays and arrivals, so a warm state that matches the dense one
/// bit for bit makes the decisions a dense loop would.
#[allow(clippy::too_many_arguments)]
fn best_sensitivity_move(
    model: &CircuitModel,
    netlist: &Netlist,
    design: &mut Design,
    delays: &[f64],
    arr: &[f64],
    crit_gate: GateId,
    w_hi: f64,
    step: f64,
    fc: f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None; // (gate, score)
    let mut cur = crit_gate;
    loop {
        let i = cur.index();
        let gate = netlist.gate(cur);
        if !gate.fanin().is_empty() && design.width[i] < w_hi {
            let w_old = design.width[i];
            let w_new = (w_old * step).min(w_hi);
            let max_fanin = model.max_fanin_delay(delays, i);
            let t_old = delays[i];
            let e_old = model.gate_energy(design, cur, fc).total();
            design.width[i] = w_new;
            let t_new = model.gate_delay(design, cur, max_fanin);
            let e_new = model.gate_energy(design, cur, fc).total();
            design.width[i] = w_old;
            let gain = t_old - t_new;
            let cost = (e_new - e_old).max(1e-30);
            if gain > 0.0 {
                let score = gain / cost;
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
        }
        match gate.fanin().iter().max_by(|a, b| {
            arr[a.index()]
                .partial_cmp(&arr[b.index()])
                .expect("arrivals are finite")
        }) {
            Some(&f) => cur = f,
            None => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_device::Technology;
    use minpower_models::CircuitModel;
    use minpower_netlist::{GateKind, Netlist, NetlistBuilder};

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

    fn problem(fc: f64) -> Problem {
        let n = netlist();
        let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
        Problem::new(model, fc)
    }

    #[test]
    fn greedy_reaches_feasibility() {
        let p = problem(300.0e6);
        let r = size_greedy(&p, 2.5, 0.5, TilosOptions::default()).unwrap();
        assert!(r.feasible);
        assert!(r.critical_delay <= p.cycle_time() * (1.0 + 1e-9));
        // It should not saturate everything on this easy instance.
        assert!(r.design.total_width() < 100.0, "{}", r.design.total_width());
    }

    #[test]
    fn infeasible_targets_are_detected() {
        let p = problem(50.0e9);
        let err = size_greedy(&p, 2.5, 0.5, TilosOptions::default()).unwrap_err();
        assert!(matches!(err, OptimizeError::Infeasible { .. }));
    }

    #[test]
    fn comparable_to_budget_driven_sizing() {
        // Neither method should dominate by an order of magnitude at the
        // same operating point.
        let p = problem(300.0e6);
        let greedy = size_greedy(&p, 2.5, 0.5, TilosOptions::default()).unwrap();
        let budgeted = crate::search::size_at(&p, 2.5, 0.5, &Default::default()).unwrap();
        assert!(budgeted.feasible);
        let ratio = greedy.energy.total() / budgeted.energy.total();
        assert!(
            (0.2..5.0).contains(&ratio),
            "greedy {:.3e} vs budgeted {:.3e}",
            greedy.energy.total(),
            budgeted.energy.total()
        );
    }

    #[test]
    fn bad_step_rejected() {
        let p = problem(300.0e6);
        assert!(matches!(
            size_greedy(
                &p,
                2.5,
                0.5,
                TilosOptions {
                    step: 0.9,
                    ..TilosOptions::default()
                }
            ),
            Err(OptimizeError::BadOption { .. })
        ));
    }
}
