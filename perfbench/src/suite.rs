//! `suite_table2`: the paper's Tables 1 and 2 on the benchmark suite.
//!
//! Every suite circuit at both input activities (18 rows), 300 MHz: the
//! fixed-Vt baseline (`baseline::optimize_fixed_vt`, Table 1) and the
//! joint Procedure 1 + 2 search (`Optimizer::run`, Table 2). The circuits
//! are the paper's fixed suite (genuine s27 plus the size-matched
//! synthetic stand-ins); the seed sets the order the rows run in.

use std::sync::Arc;
use std::time::Instant;

use minpower_circuits::{s27, specs, synthesize};
use minpower_core::context::DEFAULT_CACHE_CAPACITY;
use minpower_core::json::{self, Value};
use minpower_core::{baseline, EvalContext, Optimizer, Problem, SearchOptions};
use minpower_device::Technology;
use minpower_engine::stats::StatsSnapshot;
use minpower_engine::SplitMix64;
use minpower_models::CircuitModel;
use minpower_netlist::Netlist;

use crate::report::{median, quantile, repeat_setup, time_setup, Outcome};
use crate::trace::Tracer;
use crate::Args;

const FC: f64 = 300.0e6;
const ACTIVITIES: [f64; 2] = [0.1, 0.5];
/// The Table-1 threshold, volts.
const TABLE1_VT: f64 = 0.7;
/// Set-up repetitions before the measured phase and after each pass.
const SETUP_REPS: usize = 5;

struct Row {
    name: String,
    gates: usize,
    activity: f64,
    problem: Problem,
}

/// Builds the 18 row problems in a seeded order; `tiny` keeps s27 and
/// the smallest stand-in only.
fn build_rows(seed: u64, tiny: bool, tracer: &mut Tracer) -> Vec<Row> {
    let mut netlists: Vec<Netlist> = vec![s27()];
    let take = if tiny { 1 } else { usize::MAX };
    for spec in specs().into_iter().take(take) {
        let (netlist, _) = tracer.time(
            "circuits.synthesize",
            None,
            || spec.name.clone(),
            || synthesize(&spec),
        );
        netlists.push(netlist.expect("suite specs are valid"));
    }
    let mut rows = Vec::new();
    for netlist in &netlists {
        for activity in ACTIVITIES {
            let (model, _) = tracer.time(
                "models.build",
                None,
                || format!("{}@{activity}", netlist.name()),
                || CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, activity),
            );
            rows.push(Row {
                name: netlist.name().to_string(),
                gates: netlist.logic_gate_count(),
                activity,
                problem: Problem::new(model, FC),
            });
        }
    }
    // Fisher-Yates shuffle of the row order.
    let mut rng = SplitMix64::new(seed);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.range_usize(i + 1));
    }
    rows
}

/// One row's answers: Table-1 and Table-2 energies and the joint
/// optimizer's engine counters.
struct RowResult {
    table1: f64,
    table2: f64,
    feasible: bool,
    stats: StatsSnapshot,
}

fn solve_row(row: &Row, tracer: &mut Tracer, parent: Option<u64>) -> RowResult {
    let key = || format!("{}@{}", row.name, row.activity);
    let (base, _) = tracer.time("core.baseline", parent, key, || {
        baseline::optimize_fixed_vt(&row.problem, TABLE1_VT, SearchOptions::default())
    });
    // A fresh context per row: the probe cache must not carry answers
    // from one pass into the next.
    let ctx = Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY));
    let (joint, _) = tracer.time("core.optimize", parent, key, || {
        Optimizer::new(&row.problem).with_engine(ctx.clone()).run()
    });
    match (base, joint) {
        (Ok(b), Ok(j)) => RowResult {
            table1: b.energy.total(),
            table2: j.energy.total(),
            feasible: b.feasible && j.feasible,
            stats: ctx.snapshot(),
        },
        _ => RowResult {
            table1: f64::NAN,
            table2: f64::NAN,
            feasible: false,
            stats: ctx.snapshot(),
        },
    }
}

/// One pass over all rows: per-row wall times and results.
fn pass(rows: &[Row], tracer: &mut Tracer, pass_no: usize) -> (Vec<f64>, Vec<RowResult>) {
    let mut times = Vec::with_capacity(rows.len());
    let mut results = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let open = tracer.begin("suite.row", None, || format!("pass{pass_no}/row{i}"));
        let parent = Some(open.id).filter(|_| tracer.enabled());
        let result = solve_row(row, tracer, parent);
        times.push(tracer.end(open));
        results.push(result);
    }
    (times, results)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: synthesize the stand-ins and build every row's model. It is
    // timed again after every measured pass.
    let (rows, mut setup) = repeat_setup(SETUP_REPS, 0.0, tracer, |t| {
        build_rows(args.seed, args.tiny, t)
    });
    out.count("rows", rows.len());
    out.info(
        "rows_run",
        Value::Arr(
            rows.iter()
                .map(|r| Value::Str(format!("{}({} gates)@{}", r.name, r.gates, r.activity)))
                .collect(),
        ),
    );

    // Measured phase: whole passes until the time is up. The traced run
    // leaves the odd passes untraced and stops after one of them; the
    // tracing overhead is the mean traced pass minus the mean untraced
    // one, over identical inputs.
    let deadline = Instant::now() + args.seconds;
    let mut pass_walls = Vec::new();
    let mut row_times = Vec::new();
    let mut first: Option<Vec<RowResult>> = None;
    // Engine counters of the latest pass; the baseline evaluates through
    // the process-wide context, the joint search through one per row.
    let mut stats;
    loop {
        let global_before = EvalContext::global().snapshot();
        let odd = pass_walls.len() % 2 == 1;
        let mut quiet = Tracer::new(false);
        let t = if odd { &mut quiet } else { &mut *tracer };
        let t0 = Instant::now();
        let (times, results) = pass(&rows, t, pass_walls.len());
        pass_walls.push(t0.elapsed().as_secs_f64());
        row_times.extend(times);
        stats = stats_delta(&EvalContext::global().snapshot(), &global_before);
        for (row, r) in rows.iter().zip(&results) {
            stats.merge(&r.stats);
            out.attempted += 2;
            if !r.feasible {
                out.failed += 2;
            }
            out.check(r.feasible, || {
                format!("{}@{} is not feasible", row.name, row.activity)
            });
        }
        match &first {
            None => first = Some(results),
            Some(reference) => {
                let same = reference.iter().zip(&results).all(|(a, b)| {
                    a.table1.to_bits() == b.table1.to_bits()
                        && a.table2.to_bits() == b.table2.to_bits()
                });
                out.check(same, || "a later pass changed a row's energy".to_string());
            }
        }
        for _ in 0..SETUP_REPS {
            setup.push(time_setup(|t| build_rows(args.seed, args.tiny, t)));
        }
        if Instant::now() >= deadline && (odd || !tracer.enabled()) {
            break;
        }
    }
    let first = first.expect("at least one pass");
    out.e2e.insert("setup_s", median(&setup));
    out.count("setup_reps", setup.len());

    let ratios: Vec<f64> = first.iter().map(|r| r.table1 / r.table2).collect();
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let total_wall: f64 = pass_walls.iter().sum();
    out.e2e.insert("solve_s", median(&pass_walls));
    out.e2e.insert("energy_ratio", geomean);
    out.e2e.insert("op_p50_ms", 1e3 * median(&row_times));
    out.e2e
        .insert("op_p99_ms", 1e3 * quantile(&row_times, 0.99));
    out.e2e
        .insert("ops_per_s", row_times.len() as f64 / total_wall);
    out.count("passes", pass_walls.len());
    out.info("pass_s", json::f64_array(&pass_walls));
    out.count("op_samples", row_times.len());

    // Layer times per traced pass.
    let mean_pass = |parity: usize| {
        let walls: Vec<f64> = pass_walls.iter().skip(parity).step_by(2).copied().collect();
        (
            walls.len() as f64,
            walls.iter().sum::<f64>() / walls.len() as f64,
        )
    };
    let l = &mut out.layers;
    l.insert("circuits.synthesize_s", tracer.total("circuits.synthesize"));
    l.insert("models.build_s", tracer.total("models.build"));
    let (traced, traced_mean) = mean_pass(0);
    l.insert("core.baseline_s", tracer.total("core.baseline") / traced);
    l.insert("core.optimize_s", tracer.total("core.optimize") / traced);
    crate::engine_layers(l, &stats);
    if tracer.enabled() {
        l.insert("trace.overhead_s", traced_mean - mean_pass(1).1);
    }
    out
}

/// Counter-by-counter `after - before` of the counters reported here.
fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        circuit_evals: after.circuit_evals - before.circuit_evals,
        sta_calls: after.sta_calls - before.sta_calls,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        incremental_commits: after.incremental_commits - before.incremental_commits,
        incremental_gates: after.incremental_gates - before.incremental_gates,
        sta_fallbacks: after.sta_fallbacks - before.sta_fallbacks,
        ..StatsSnapshot::default()
    }
}
