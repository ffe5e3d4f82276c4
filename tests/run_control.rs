//! Resilient-run-control acceptance tests: deadline/cancellation trips
//! return a valid (delay-feasible) best-so-far, checkpoint + resume
//! reproduces an uninterrupted run bit-identically, and every engine
//! entry point honors its [`minpower::RunControl`].

use std::path::PathBuf;
use std::sync::Arc;

use minpower::opt::runctl::TripReason;
use minpower::opt::{anneal, baseline, tilos, yield_mc};
use minpower::{
    CheckpointSpec, CircuitModel, EvalContext, Netlist, OptimizeError, Optimizer, Problem,
    RunControl, SearchOptions, Technology,
};

fn ripple(bits: usize) -> Netlist {
    use minpower::{GateKind, NetlistBuilder};
    let mut b = NetlistBuilder::new("ripple");
    b.input("c0").unwrap();
    let mut carry = "c0".to_string();
    for i in 0..bits {
        b.input(&format!("a{i}")).unwrap();
        b.input(&format!("b{i}")).unwrap();
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

/// A fresh, isolated single-thread engine with the cache on, so tests
/// don't share probe memos through the process-wide context.
fn fresh_engine() -> Arc<EvalContext> {
    Arc::new(EvalContext::new(
        1,
        minpower::opt::context::DEFAULT_CACHE_CAPACITY,
    ))
}

/// A scratch path under the target-adjacent temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("minpower-rc-{}-{name}", std::process::id()));
    p
}

#[test]
fn check_budget_trip_returns_feasible_best_so_far() {
    let n = ripple(4);
    let p = problem(&n, 100.0e6);
    // Enough polls to find feasible probes, far fewer than a full run.
    let control = RunControl::new().with_check_budget(25);
    let err = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .with_run_control(control)
        .run()
        .unwrap_err();
    match err {
        OptimizeError::Interrupted {
            reason,
            best_so_far,
            progress,
        } => {
            assert_eq!(reason, TripReason::Cancelled);
            assert!(progress.evaluations > 0);
            let best = best_so_far.expect("25 probes find a feasible design on this circuit");
            assert!(best.feasible);
            assert!(best.energy.total().is_finite());
            // The partial result is genuinely valid: re-evaluating the
            // design reproduces a delay within the cycle time.
            let eval = p.model().evaluate(&best.design, p.fc());
            assert!(
                eval.critical_delay <= p.effective_cycle_time() * (1.0 + 1e-6),
                "best-so-far design misses timing: {} > {}",
                eval.critical_delay,
                p.effective_cycle_time()
            );
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_run_stops_before_any_probe() {
    let n = ripple(3);
    let p = problem(&n, 150.0e6);
    let control = RunControl::new();
    control.cancel();
    let err = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .with_run_control(control)
        .run()
        .unwrap_err();
    match err {
        OptimizeError::Interrupted {
            reason,
            best_so_far,
            progress,
        } => {
            assert_eq!(reason, TripReason::Cancelled);
            assert!(best_so_far.is_none());
            assert_eq!(progress.evaluations, 0);
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

#[test]
fn cancel_token_shared_across_clones() {
    let control = RunControl::new();
    let token = control.cancel_token();
    let clone = control.clone();
    token.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(clone.is_cancelled());
    assert_eq!(clone.trip(), Some(TripReason::Cancelled));
}

#[test]
fn search_checkpoint_resume_is_bit_identical() {
    let n = ripple(4);
    let p = problem(&n, 100.0e6);
    let path = scratch("search.journal");

    // Reference: one uninterrupted run on its own engine.
    let full = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .run()
        .unwrap();

    // Interrupt an identical run partway through, snapshotting often.
    let err = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .with_run_control(RunControl::new().with_check_budget(40))
        .with_checkpoint(CheckpointSpec::new(&path))
        .run()
        .unwrap_err();
    assert!(matches!(err, OptimizeError::Interrupted { .. }), "{err:?}");
    assert!(path.exists(), "interruption must leave a final snapshot");

    // Resume on a third engine: the journaled probes replay from cache
    // and the deterministic search finishes exactly as the full run did.
    let resumed = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .resume_from(&path)
        .run()
        .unwrap();

    assert_eq!(full.design, resumed.design);
    assert_eq!(full.energy, resumed.energy);
    assert_eq!(
        full.critical_delay.to_bits(),
        resumed.critical_delay.to_bits()
    );
    assert_eq!(full.evaluations, resumed.evaluations);
    let _ = std::fs::remove_file(&path);
}

fn assert_same_result(a: &minpower::OptimizationResult, b: &minpower::OptimizationResult) {
    assert_eq!(a.design, b.design);
    assert_eq!(a.energy.static_.to_bits(), b.energy.static_.to_bits());
    assert_eq!(a.energy.dynamic.to_bits(), b.energy.dynamic.to_bits());
    assert_eq!(a.critical_delay.to_bits(), b.critical_delay.to_bits());
    assert_eq!(a.evaluations, b.evaluations);
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).expect("journal exists").len()
}

/// The probe journal writes each probe once: the bytes a checkpointed
/// run writes stay within 5% of the final file (a whole-journal rewrite
/// per checkpoint would write many times the file), the file holds one
/// record per distinct probe, and resuming the *completed* run appends
/// nothing, since preloaded probes are never written again.
#[test]
fn journal_writes_each_probe_once() {
    let netlist = minpower::circuits::circuit("s298").expect("suite circuit");
    let model = CircuitModel::with_uniform_activity(&netlist, Technology::dac97(), 0.5, 0.1);
    let p = Problem::new(model, 300.0e6);
    let path = scratch("once.journal");
    let _ = std::fs::remove_file(&path);

    let engine = fresh_engine();
    let full = Optimizer::new(&p)
        .with_engine(engine.clone())
        .with_checkpoint(CheckpointSpec::new(&path))
        .run()
        .unwrap();
    let stats = engine.snapshot();
    let len = file_len(&path);
    assert!(stats.checkpoints_written >= 2, "{stats:?}");
    assert!(
        stats.checkpoint_bytes as f64 <= 1.05 * len as f64,
        "wrote {} bytes for a {len}-byte journal",
        stats.checkpoint_bytes
    );
    // One record per distinct probe: no probe is appended twice.
    let journal = minpower::ProbeJournal::load(&path).unwrap();
    assert_eq!(journal.probes.len() as u64, stats.cache_misses);

    let engine = fresh_engine();
    let resumed = Optimizer::new(&p)
        .with_engine(engine.clone())
        .with_checkpoint(CheckpointSpec::new(&path))
        .resume_from(&path)
        .run()
        .unwrap();
    assert_same_result(&full, &resumed);
    assert_eq!(
        file_len(&path),
        len,
        "a completed resume re-appended probes"
    );
    assert_eq!(engine.snapshot().checkpoint_bytes, 0);
    assert_eq!(engine.snapshot().cache_misses, 0, "every probe replays");
    let _ = std::fs::remove_file(&path);
}

/// Damage an interrupted run's journal two ways — cut mid-record, and a
/// flipped bit in a later record — then resume each copy to completion
/// and resume it *again*. Both finish bit-identically to an
/// uninterrupted run, and the second resume replays every probe from
/// the journal without appending: the first resume cut the bad tail
/// before it appended, so nothing it wrote sits behind the damage.
#[test]
fn torn_journal_tail_is_cut_before_resume_appends() {
    let n = ripple(4);
    let p = problem(&n, 100.0e6);
    let full = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .run()
        .unwrap();

    let path = scratch("torn.journal");
    let _ = std::fs::remove_file(&path);
    let mut spec = CheckpointSpec::new(&path);
    spec.every = 4;
    let err = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .with_run_control(RunControl::new().with_check_budget(40))
        .with_checkpoint(spec.clone())
        .run()
        .unwrap_err();
    assert!(matches!(err, OptimizeError::Interrupted { .. }), "{err:?}");
    let pristine = std::fs::read(&path).unwrap();
    let journal = minpower::ProbeJournal::parse(&pristine).unwrap();
    assert!(journal.probes.len() >= 8, "{} probes", journal.probes.len());

    let cut = scratch("torn-cut.journal");
    std::fs::write(&cut, &pristine[..pristine.len() - 100]).unwrap();
    let flipped = scratch("torn-flip.journal");
    let mut bytes = pristine.clone();
    let i = bytes.len() * 3 / 4;
    bytes[i] ^= 0x08;
    std::fs::write(&flipped, &bytes).unwrap();

    for damaged in [&cut, &flipped] {
        let kept = minpower::ProbeJournal::load(damaged).unwrap();
        assert!(kept.probes.len() < journal.probes.len(), "{damaged:?}");
        let mut spec = spec.clone();
        spec.path = damaged.clone();
        for pass in 0..2 {
            let engine = fresh_engine();
            let before = file_len(damaged);
            let resumed = Optimizer::new(&p)
                .with_engine(engine.clone())
                .with_checkpoint(spec.clone())
                .resume_from(damaged)
                .run()
                .unwrap();
            assert_same_result(&full, &resumed);
            if pass == 1 {
                assert_eq!(engine.snapshot().cache_misses, 0, "{damaged:?}");
                assert_eq!(file_len(damaged), before, "{damaged:?}");
            }
        }
        let _ = std::fs::remove_file(damaged);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn search_resume_rejects_mismatched_problem() {
    let n = ripple(3);
    let p = problem(&n, 150.0e6);
    let path = scratch("mismatch.journal");
    let err = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .with_run_control(RunControl::new().with_check_budget(10))
        .with_checkpoint(CheckpointSpec::new(&path))
        .run()
        .unwrap_err();
    assert!(matches!(err, OptimizeError::Interrupted { .. }));

    // Same circuit, different clock: the salt differs, resume must refuse.
    let other = problem(&n, 200.0e6);
    let err = Optimizer::new(&other)
        .with_engine(fresh_engine())
        .resume_from(&path)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, OptimizeError::Checkpoint { .. }),
        "expected Checkpoint error, got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn anneal_checkpoint_resume_is_bit_identical() {
    let n = ripple(2);
    let p = problem(&n, 150.0e6);
    let opts = anneal::AnnealOptions {
        max_evaluations: 600,
        ..anneal::AnnealOptions::default()
    };
    let path = scratch("anneal.ckpt");

    let full = anneal::optimize(&p, opts.clone()).unwrap();

    let spec = CheckpointSpec::new(&path);
    let err = anneal::optimize_ctl(
        &p,
        opts.clone(),
        &RunControl::new().with_check_budget(150),
        Some(&spec),
        None,
    )
    .unwrap_err();
    match &err {
        OptimizeError::Interrupted { best_so_far, .. } => {
            assert!(best_so_far.is_some(), "annealer always has a best design");
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
    assert!(path.exists());

    let resumed = anneal::optimize_ctl(&p, opts, &RunControl::new(), None, Some(&path)).unwrap();
    assert_eq!(full.design, resumed.design);
    assert_eq!(full.energy, resumed.energy);
    assert_eq!(full.evaluations, resumed.evaluations);
    assert_eq!(full.feasible, resumed.feasible);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn baseline_honors_run_control() {
    let n = ripple(3);
    let p = problem(&n, 150.0e6);
    let err = baseline::optimize_fixed_vt_ctl(
        &p,
        0.7,
        SearchOptions::default(),
        &RunControl::new().with_check_budget(3),
    )
    .unwrap_err();
    match err {
        OptimizeError::Interrupted { best_so_far, .. } => {
            if let Some(best) = best_so_far {
                assert!(best.feasible);
            }
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

#[test]
fn tilos_honors_run_control() {
    let n = ripple(3);
    let p = problem(&n, 150.0e6);
    let err = tilos::size_greedy_ctl(
        &p,
        2.5,
        0.5,
        tilos::TilosOptions::default(),
        &RunControl::new().with_check_budget(1),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            OptimizeError::Interrupted {
                best_so_far: None,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn yield_mc_honors_run_control_between_chunks() {
    let n = ripple(2);
    let p = problem(&n, 150.0e6);
    let r = Optimizer::new(&p)
        .with_engine(fresh_engine())
        .run()
        .unwrap();
    let ctx = EvalContext::new(1, 0);
    // Budget of 2 polls: the first chunk (64 trials) completes, the
    // second poll trips — progress reports whole chunks only.
    let err = yield_mc::timing_yield_ctl(
        &ctx,
        &p,
        &r.design,
        0.05,
        200,
        7,
        &RunControl::new().with_check_budget(2),
    )
    .unwrap_err();
    match err {
        OptimizeError::Interrupted { progress, .. } => {
            assert_eq!(progress.evaluations, 64);
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
    // And an untripped control reproduces the plain entry point.
    let plain = yield_mc::timing_yield_with(&ctx, &p, &r.design, 0.05, 200, 7);
    let ctl =
        yield_mc::timing_yield_ctl(&ctx, &p, &r.design, 0.05, 200, 7, &RunControl::new()).unwrap();
    assert_eq!(plain, ctl);
}

#[test]
fn validation_rejects_bad_problems_before_searching() {
    let n = ripple(2);
    for fc in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.3);
        let err = Problem::try_new(model, fc).unwrap_err();
        assert!(
            matches!(
                err,
                OptimizeError::BadOption {
                    option: "cycle_time",
                    ..
                }
            ),
            "fc = {fc}: {err:?}"
        );
    }
}
