//! `rent_sizing`: Procedure 2's inner sizing stage on one 10k-gate
//! Rent's-rule netlist at several fixed (Vdd, Vt) corners.
//!
//! The measured call is `search::size_at_with` on a fresh single-thread,
//! cache-off context per corner. The traced run then sizes each corner
//! again and, right after each `size_at`, replays the stage's public
//! sub-calls one by one (Procedure 1 budgeting, the SoA kernel build, the batched
//! sizing sweeps with their delay passes, the energy ledger). What is
//! left of that `size_at` is derived: its own set-up plus the
//! critical-path repair, which have no public entry point.

use std::sync::Arc;
use std::time::Instant;

use minpower_circuits::{synthesize, BenchmarkSpec};
use minpower_core::budget::assign_max_delays_with_policy;
use minpower_core::json::{self, Value};
use minpower_core::search::size_at_with;
use minpower_core::{EvalContext, OptimizationResult, Problem, SearchOptions};
use minpower_device::Technology;
use minpower_engine::stats::StatsSnapshot;
use minpower_models::{CircuitModel, Design, SizeScratch, SoaKernel};

use crate::report::{median, quantile, repeat_setup, time_setup, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Large enough that the working set is several times a core's L2 cache,
/// small enough that a run holds tens of rounds. At 100k gates a run held
/// three rounds, and on a shared host its time swung with the neighbours'
/// load by more than a regression bound.
const GATES: usize = 10_000;
/// Procedure 1 stretches every path to the cycle, so a sized design
/// lands just under it and the repair loop closes the rest. At 10k gates
/// and 300 MHz every corner stayed infeasible; at 150 MHz every seed
/// tried (over 160) was feasible.
const FC: f64 = 150.0e6;
const ACTIVITY: f64 = 0.1;
const SETUP_REPS: usize = 5;
/// Rounds of corners in the traced run's breakdown; layer times are per
/// round.
const TRACED_ROUNDS: usize = 5;
/// The Table-1 corner first; the rest are joint low-Vdd/low-Vt corners.
const CORNERS: [(f64, f64); 3] = [(3.3, 0.7), (2.5, 0.45), (2.0, 0.3)];
/// `core::search`'s budget derating and sweep convergence threshold,
/// needed to replay its sweep loop (both private there). The replay is
/// checked against `size_at`'s sweep count and widths, so a change to
/// either constant fails the traced run instead of going unnoticed.
const MARGIN: f64 = 0.97;
const SWEEP_CONVERGED: f64 = 0.005;

fn gates(tiny: bool) -> usize {
    if tiny {
        1_000
    } else {
        GATES
    }
}

fn build(seed: u64, tiny: bool, tracer: &mut Tracer) -> Problem {
    let mut spec = BenchmarkSpec::rent("rent", gates(tiny));
    spec.seed = seed;
    let (netlist, _) = tracer.time(
        "circuits.synthesize",
        None,
        || spec.name.clone(),
        || synthesize(&spec).expect("rent spec is valid"),
    );
    let (model, _) = tracer.time(
        "models.build",
        None,
        || spec.name.clone(),
        || CircuitModel::with_uniform_activity(&netlist, Technology::dac97(), 0.5, ACTIVITY),
    );
    Problem::new(model, FC)
}

fn corner_key(corner: (f64, f64)) -> String {
    format!("vdd{}/vt{}", corner.0, corner.1)
}

type CornerResult = Result<OptimizationResult, String>;

/// `size_at` at one corner on a fresh single-thread, cache-off context:
/// the result, its wall time and the context's engine counters.
fn size_corner(
    problem: &Problem,
    corner: (f64, f64),
    tracer: &mut Tracer,
) -> (CornerResult, f64, StatsSnapshot) {
    let ctx = Arc::new(EvalContext::new(1, 0));
    let (r, secs) = tracer.time(
        "core.size_at",
        None,
        || corner_key(corner),
        || {
            size_at_with(
                ctx.clone(),
                problem,
                corner.0,
                corner.1,
                &SearchOptions::default(),
            )
        },
    );
    (r.map_err(|e| e.to_string()), secs, ctx.snapshot())
}

/// Replays `size_at`'s public sub-calls at one corner under spans and
/// returns the number of sizing sweeps and the swept widths.
fn breakdown(
    problem: &Problem,
    corner: (f64, f64),
    result: &OptimizationResult,
    tracer: &mut Tracer,
) -> (u64, Vec<f64>) {
    let key = || corner_key(corner);
    let options = SearchOptions::default();
    let model = problem.model();
    let netlist = model.netlist();
    let (budgets, _) = tracer.time("core.budget", None, key, || {
        assign_max_delays_with_policy(
            netlist,
            problem.effective_cycle_time(),
            options.budget_policy,
        )
    });
    let (kernel, _) = tracer.time("models.soa_build", None, key, || SoaKernel::new(model));
    // Sizing runs at the slow threshold corner, energy at the leaky one.
    let w_lo = model.technology().w_range.0;
    let vt_slow = corner.1 * (1.0 + options.vt_tolerance);
    let mut design = Design::uniform(netlist, corner.0, vt_slow, w_lo);
    let mut last_delays = budgets.clone();
    let mut sweep_delays = Vec::new();
    let mut scratch = SizeScratch::new();
    let max_sweeps = options.width_passes.max(2) + 10;
    let mut sweeps = 0;
    for _ in 0..max_sweeps {
        let (rel, _) = tracer.time("models.sweep", None, key, || {
            kernel.size_sweep(
                &mut design,
                &budgets,
                &last_delays,
                options.steps,
                MARGIN,
                &mut scratch,
            )
        });
        tracer.time("models.sta", None, key, || {
            kernel.delays_into(&design, &mut sweep_delays)
        });
        std::mem::swap(&mut last_delays, &mut sweep_delays);
        sweeps += 1;
        if rel < SWEEP_CONVERGED {
            break;
        }
    }
    let leaky = Design {
        vdd: corner.0,
        vt: vec![corner.1 * (1.0 - options.vt_tolerance); netlist.gate_count()],
        width: result.design.width.clone(),
    };
    tracer.time("models.energy", None, key, || {
        model.energy_ledger(&leaky, problem.fc()).exact_total()
    });
    (sweeps, design.width)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Set-up is timed again after every pair of measured rounds.
    let (problem, mut setup) =
        repeat_setup(SETUP_REPS, 0.0, tracer, |t| build(args.seed, args.tiny, t));
    out.count(
        "netlist_gates",
        problem.model().netlist().logic_gate_count(),
    );
    out.count("netlist_depth", problem.model().netlist().depth());
    out.info("fc_hz", Value::Float(FC));

    // Measured phase: the corners in turn, one at a time, in whole pairs
    // of rounds until the time is up, so every corner has the same sample
    // count. The traced run leaves the odd rounds untraced; the difference
    // between even and odd rounds is the tracing overhead.
    let deadline = Instant::now() + args.seconds;
    let mut times: [Vec<f64>; CORNERS.len()] = Default::default();
    let mut last: Vec<Option<OptimizationResult>> = vec![None; CORNERS.len()];
    let mut stats = StatsSnapshot::default();
    let mut round_s = [0.0; 2];
    for k in 0.. {
        let (c, corner) = (k % CORNERS.len(), CORNERS[k % CORNERS.len()]);
        let odd = k / CORNERS.len() % 2;
        let (r, secs, corner_stats) = if odd == 0 {
            size_corner(&problem, corner, tracer)
        } else {
            size_corner(&problem, corner, &mut Tracer::new(false))
        };
        round_s[odd] += secs;
        times[c].push(secs);
        if k < CORNERS.len() {
            stats.merge(&corner_stats);
        }
        out.attempted += 1;
        let feasible = matches!(&r, Ok(r) if r.feasible);
        if !feasible {
            out.failed += 1;
        }
        out.check(feasible, || {
            format!("corner {} is not feasible", corner_key(corner))
        });
        last[c] = r.ok();
        if c == CORNERS.len() - 1 && odd == 1 {
            setup.push(time_setup(|t| build(args.seed, args.tiny, t)));
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    out.e2e.insert("setup_s", median(&setup));
    out.count("setup_reps", setup.len());
    let energies: Vec<f64> = last
        .iter()
        .map(|r| r.as_ref().map_or(f64::NAN, |r| r.energy.total()))
        .collect();

    // Correctness: the SoA kernel and the scalar model agree bit for bit
    // on every corner's final design, and so does the energy `size_at`
    // reported (accumulated by the incremental ledger).
    let kernel = SoaKernel::new(problem.model());
    for (corner, r) in CORNERS.into_iter().zip(&last) {
        let Some(r) = r else { continue };
        let soa = kernel.total_energy(&r.design, problem.fc()).total();
        let scalar = problem
            .model()
            .total_energy(&r.design, problem.fc())
            .total();
        out.check(soa.to_bits() == scalar.to_bits(), || {
            format!(
                "corner {}: SoA energy {soa:e} != scalar {scalar:e}",
                corner_key(corner)
            )
        });
        out.check(r.energy.total().to_bits() == scalar.to_bits(), || {
            format!(
                "corner {}: reported energy differs from a dense pass",
                corner_key(corner)
            )
        });
    }
    drop(kernel);

    // Table-1 corner over the best joint corner.
    let joint = energies[1..].iter().copied().fold(f64::INFINITY, f64::min);
    out.e2e.insert("energy_ratio", energies[0] / joint);
    // Per-corner medians, summed: robust to a slow stretch on a shared
    // host without mixing corners of unequal cost.
    let all: Vec<f64> = times.concat();
    out.e2e
        .insert("solve_s", times.iter().map(|t| median(t)).sum());
    out.e2e.insert("op_p50_ms", 1e3 * median(&all));
    out.e2e.insert("op_p99_ms", 1e3 * quantile(&all, 0.99));
    out.e2e
        .insert("ops_per_s", all.len() as f64 / all.iter().sum::<f64>());
    out.count("corners", CORNERS.len());
    out.count("op_samples", all.len());
    out.info("corner_s", json::f64_array(&all));

    if tracer.enabled() {
        // Each corner is sized again and its sub-calls are replayed right
        // after, so the derived residual subtracts spans taken next to
        // the `size_at` they split, not minutes apart.
        let mut size_at = 0.0;
        let mut sweeps = 0;
        for corner in (0..TRACED_ROUNDS).flat_map(|_| CORNERS) {
            let (r, secs, corner_stats) = size_corner(&problem, corner, tracer);
            let Ok(r) = r else {
                out.check(false, || format!("corner {} failed", corner_key(corner)));
                continue;
            };
            size_at += secs;
            let (replayed, widths) = breakdown(&problem, corner, &r, tracer);
            sweeps += replayed;
            // `size_at` counts one STA call per sweep; the repair loop
            // counts none.
            out.check(replayed == corner_stats.sta_calls, || {
                format!(
                    "corner {}: replay ran {replayed} sweeps, size_at {}",
                    corner_key(corner),
                    corner_stats.sta_calls
                )
            });
            // With no repair commit, size_at's widths are the swept ones.
            if corner_stats.incremental_commits == 0 {
                let same = widths.len() == r.design.width.len()
                    && widths
                        .iter()
                        .zip(&r.design.width)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                out.check(same, || {
                    format!(
                        "corner {}: replayed widths differ from size_at's",
                        corner_key(corner)
                    )
                });
            }
        }
        let rounds = TRACED_ROUNDS as f64;
        let l = &mut out.layers;
        l.insert("core.size_at_s", size_at / rounds);
        l.insert("models.sweeps", sweeps as f64 / rounds);
        let mut accounted = 0.0;
        for (span, metric, share) in [
            ("core.budget", "core.budget_s", "core.budget_share"),
            (
                "models.soa_build",
                "models.soa_build_s",
                "models.soa_build_share",
            ),
            ("models.sweep", "models.sweep_s", "models.sweep_share"),
            ("models.sta", "models.sta_s", "models.sta_share"),
            ("models.energy", "models.energy_s", "models.energy_share"),
        ] {
            let secs = tracer.total(span);
            accounted += secs;
            l.insert(metric, secs / rounds);
            l.insert(share, secs / size_at);
        }
        // Derived, not measured: `size_at`'s own set-up (probe salt,
        // virtual sinks, threshold vectors, the incremental evaluator) and
        // the repair loop have no public entry point of their own.
        l.insert("core.repair_s", (size_at - accounted) / rounds);
        l.insert("core.repair_share", (size_at - accounted) / size_at);
        l.insert("circuits.synthesize_s", tracer.total("circuits.synthesize"));
        l.insert("models.build_s", tracer.total("models.build"));
        crate::engine_layers(l, &stats);
        let pairs = (times[0].len() / 2) as f64;
        l.insert("trace.overhead_s", (round_s[0] - round_s[1]) / pairs);
        out.info(
            "derived_layers",
            Value::Obj(vec![(
                "core.repair_s".into(),
                Value::Str("size_at set-up + repair".into()),
            )]),
        );
    }
    out
}
