//! Engine-neutrality guarantees: routing evaluations through the
//! `minpower-engine` cache or a different thread count must never change
//! an optimization outcome — only its wall time.
//!
//! The cache can honor this because a hit requires an exact bit-pattern
//! fingerprint match on top of the quantized key, and the Monte-Carlo
//! trials can because each draws from its own `(seed, trial)` PRNG
//! stream and reduces in trial order.

mod common;

use std::sync::Arc;

use minpower_core::context::DEFAULT_CACHE_CAPACITY;
use minpower_core::{yield_mc, EvalContext, Optimizer, Problem, SearchOptions, SizingMethod};
use minpower_device::Technology;
use minpower_models::CircuitModel;
use minpower_netlist::{GateKind, Netlist, NetlistBuilder};

/// A two-output network deep and reconvergent enough that Procedure 2
/// probes a few hundred operating points.
fn netlist() -> Netlist {
    let mut b = NetlistBuilder::new("det");
    for name in ["a", "b", "c", "d"] {
        b.input(name).unwrap();
    }
    b.gate("n1", GateKind::Nand, &["a", "b"]).unwrap();
    b.gate("n2", GateKind::Nor, &["b", "c"]).unwrap();
    b.gate("n3", GateKind::Nand, &["c", "d"]).unwrap();
    b.gate("m1", GateKind::Nor, &["n1", "n2"]).unwrap();
    b.gate("m2", GateKind::Nand, &["n2", "n3"]).unwrap();
    b.gate("m3", GateKind::Nand, &["m1", "m2"]).unwrap();
    b.gate("m4", GateKind::Nor, &["m1", "n3"]).unwrap();
    b.gate("y1", GateKind::Not, &["m3"]).unwrap();
    b.gate("y2", GateKind::Nand, &["m3", "m4"]).unwrap();
    b.output("y1").unwrap();
    b.output("y2").unwrap();
    b.finish().unwrap()
}

fn problem() -> Problem {
    let n = netlist();
    let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
    Problem::new(model, 250.0e6)
}

#[test]
fn cache_on_and_off_produce_identical_results() {
    let p = problem();
    let cached_ctx = Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY));
    let cached = Optimizer::new(&p)
        .with_engine(cached_ctx.clone())
        .run()
        .unwrap();
    let uncached = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .run()
        .unwrap();
    assert_eq!(cached, uncached);
    // The lookup count (what `evaluations` reports) must also agree: the
    // cache absorbs recomputation, not probes.
    assert_eq!(cached.evaluations, uncached.evaluations);
    let stats = cached_ctx.cache_stats().expect("cache enabled");
    assert_eq!(stats.hits + stats.misses, cached.evaluations as u64);
}

#[test]
fn rerunning_on_a_warm_cache_is_identical() {
    let p = problem();
    let ctx = Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY));
    let cold = Optimizer::new(&p).with_engine(ctx.clone()).run().unwrap();
    let warm = Optimizer::new(&p).with_engine(ctx.clone()).run().unwrap();
    assert_eq!(cold, warm);
    // The second run must have been served from the cache.
    let stats = ctx.cache_stats().expect("cache enabled");
    assert!(
        stats.hits >= warm.evaluations as u64,
        "only {} hits for {} probes",
        stats.hits,
        warm.evaluations
    );
}

#[test]
fn thread_count_does_not_change_optimization_results() {
    let p = problem();
    let serial = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY)))
        .run()
        .unwrap();
    for threads in [2, 4] {
        let parallel = Optimizer::new(&p)
            .with_engine(Arc::new(EvalContext::new(threads, DEFAULT_CACHE_CAPACITY)))
            .run()
            .unwrap();
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn engine_choices_commute_with_search_options() {
    // The guarantee holds for non-default searches too (multi-Vt,
    // tolerance margins change the probe inputs, not the contract).
    let p = problem();
    let opts = SearchOptions {
        steps: 10,
        vt_groups: 2,
        ..SearchOptions::default()
    };
    let cached = Optimizer::new(&p)
        .with_options(opts.clone())
        .with_engine(Arc::new(EvalContext::new(4, DEFAULT_CACHE_CAPACITY)))
        .run()
        .unwrap();
    let plain = Optimizer::new(&p)
        .with_options(opts)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .run()
        .unwrap();
    assert_eq!(cached, plain);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug dense oracle")]
fn incremental_and_full_paths_produce_identical_results() {
    // The warm evaluator (journaled delay repair, dirty-worklist arrival
    // propagation, delta-maintained energy terms) is checked against a
    // dense recompute after every probe in debug builds, so a run that
    // completes made the decisions the dense loops would. It must also
    // agree across thread counts and cache settings, for both sizing
    // engines, and match a dense re-evaluation of the final design.
    let p = problem();
    for sizing in [SizingMethod::Budgeted, SizingMethod::Greedy] {
        let opts = SearchOptions {
            sizing,
            ..SearchOptions::default()
        };
        let reference = Optimizer::new(&p)
            .with_options(opts.clone())
            .with_engine(Arc::new(EvalContext::new(1, 0)))
            .run()
            .unwrap();
        common::assert_matches_dense(&p, &reference);
        for threads in [1, 4] {
            for capacity in [0, DEFAULT_CACHE_CAPACITY] {
                let ctx = Arc::new(EvalContext::new(threads, capacity));
                let run = Optimizer::new(&p)
                    .with_options(opts.clone())
                    .with_engine(ctx.clone())
                    .run()
                    .unwrap();
                assert_eq!(
                    reference, run,
                    "sizing {sizing:?}, threads {threads}, cache {capacity}"
                );
                // The warm evaluator must actually have run.
                assert!(
                    ctx.snapshot().incremental_commits > 0,
                    "sizing {sizing:?}: no incremental commits recorded"
                );
            }
        }
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug dense oracle")]
fn size_at_incremental_matches_full_at_fixed_operating_points() {
    let p = problem();
    for sizing in [SizingMethod::Budgeted, SizingMethod::Greedy] {
        let opts = SearchOptions {
            sizing,
            ..SearchOptions::default()
        };
        for (vdd, vt) in [(2.5, 0.45), (1.8, 0.35), (3.3, 0.6)] {
            let sized = minpower_core::search::size_at_with(
                Arc::new(EvalContext::new(1, 0)),
                &p,
                vdd,
                vt,
                &opts,
            )
            .unwrap();
            common::assert_matches_dense(&p, &sized);
        }
    }
}

#[test]
fn yield_mc_agrees_across_threads_and_cache_settings() {
    let p = problem();
    let r = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .run()
        .unwrap();
    let reference =
        yield_mc::timing_yield_with(&EvalContext::new(1, 0), &p, &r.design, 0.08, 96, 11);
    for ctx in [
        EvalContext::new(4, 0),
        EvalContext::new(3, DEFAULT_CACHE_CAPACITY),
        EvalContext::new(8, 16),
    ] {
        let other = yield_mc::timing_yield_with(&ctx, &p, &r.design, 0.08, 96, 11);
        assert_eq!(reference, other);
    }
}
