//! Fault-injection drills (compiled only with `--features faults`):
//! deterministic injected failures — NaN model outputs, simulated clock
//! jumps, worker panics — must be contained, surfaced as typed errors or
//! discarded observations, and counted in telemetry.

#![cfg(feature = "faults")]

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use minpower_core::runctl::TripReason;
use minpower_core::{
    yield_mc, CheckpointSpec, EvalContext, OptimizeError, Optimizer, ProbeJournal, Problem,
    RunControl,
};
use minpower_device::Technology;
use minpower_engine::faults::{self, Trigger};
use minpower_models::CircuitModel;
use minpower_netlist::{GateKind, Netlist, NetlistBuilder};

/// The fault registry is process-global, so the drills must not overlap:
/// an armed site fires in whichever test happens to hit it.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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
    let model = CircuitModel::with_uniform_activity(&netlist(), Technology::dac97(), 0.5, 0.3);
    Problem::new(model, 200.0e6)
}

#[test]
fn nan_probes_never_become_the_returned_optimum() {
    let _guard = serial();
    faults::disarm_all();
    // Every third probe observation reports NaN energy — as if the device
    // model silently broke mid-run.
    faults::arm("probe.nan", Trigger::EveryNth(3));
    let p = problem();
    let ctx = Arc::new(EvalContext::new(1, 1 << 16));
    let result = Optimizer::new(&p).with_engine(ctx.clone()).run();
    faults::disarm_all();

    let r = result.expect("optimizer survives poisoned observations");
    assert!(r.feasible);
    assert!(
        r.energy.total().is_finite(),
        "a NaN observation leaked into the optimum: {:?}",
        r.energy
    );
    assert!(faults::fired_count("probe.nan") == 0); // disarmed resets counts
    assert!(
        ctx.stats().snapshot().faults_injected > 0,
        "telemetry must count the injected faults"
    );
}

#[test]
fn simulated_clock_jump_trips_the_deadline() {
    let _guard = serial();
    faults::disarm_all();
    // Every deadline check believes time has jumped past the limit.
    faults::arm("runctl.clock_jump", Trigger::EveryNth(1));
    let p = problem();
    let control = RunControl::new().with_deadline(Duration::from_secs(100_000));
    let result = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .with_run_control(control)
        .run();
    faults::disarm_all();

    match result.unwrap_err() {
        OptimizeError::Interrupted { reason, .. } => {
            assert_eq!(reason, TripReason::DeadlineExceeded);
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

#[test]
fn injected_worker_panic_surfaces_as_typed_error_with_siblings_drained() {
    let _guard = serial();
    faults::disarm_all();
    let p = problem();
    let ctx = EvalContext::new(2, 0);
    let design = {
        // Build a feasible design to sample around, before arming.
        let r = Optimizer::new(&p)
            .with_engine(Arc::new(EvalContext::new(1, 0)))
            .run()
            .unwrap();
        r.design
    };
    faults::arm("pool.worker.panic", Trigger::OnIndices(vec![3]));
    let result = yield_mc::timing_yield_ctl(&ctx, &p, &design, 0.05, 50, 7, &RunControl::new());
    faults::disarm_all();

    match result.unwrap_err() {
        OptimizeError::WorkerPanicked { index, message } => {
            assert_eq!(index, 3, "the panicking trial is identified exactly");
            assert!(
                message.contains("injected"),
                "panic payload survives: {message}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(
        ctx.stats().snapshot().panics_recovered > 0,
        "telemetry must count the recovery"
    );
    // The pool is not poisoned: the same context runs clean afterwards.
    let clean = yield_mc::timing_yield_ctl(&ctx, &p, &design, 0.05, 50, 7, &RunControl::new())
        .expect("pool recovers after a contained panic");
    assert_eq!(clean.samples, 50);
}

/// Damages the second probe-journal batch through `site` (the append
/// still reports success, and every later batch lands behind the
/// damage), then resumes the completed run from its journal twice. The
/// first resume cuts the journal back to the records before the damage
/// and appends what it recomputes; the second replays every probe from
/// the journal without appending. Both match an uninterrupted run bit
/// for bit.
fn journal_damage_drill(site: &str) {
    let p = problem();
    let full = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, 1 << 16)))
        .run()
        .unwrap();
    let path = std::env::temp_dir().join(format!(
        "minpower-faults-{}-{}.journal",
        std::process::id(),
        site.replace('.', "-")
    ));
    let _ = std::fs::remove_file(&path);
    let mut spec = CheckpointSpec::new(&path);
    spec.every = 4;

    minpower_core::store::reset_fault_indices();
    faults::arm(site, Trigger::OnIndices(vec![1]));
    let damaged = Optimizer::new(&p)
        .with_engine(Arc::new(EvalContext::new(1, 1 << 16)))
        .with_checkpoint(spec.clone())
        .run();
    let fired = faults::fired_count(site);
    faults::disarm_all();
    assert_eq!(fired, 1, "{site} never fired");
    assert_eq!(damaged.unwrap().design, full.design);
    let written = std::fs::read(&path).unwrap();
    let kept = ProbeJournal::parse(&written).unwrap();
    assert!(
        kept.valid_len < written.len(),
        "{site}: damage went unnoticed"
    );

    for pass in 0..2 {
        let ctx = Arc::new(EvalContext::new(1, 1 << 16));
        let before = std::fs::metadata(&path).unwrap().len();
        let resumed = Optimizer::new(&p)
            .with_engine(ctx.clone())
            .with_checkpoint(spec.clone())
            .resume_from(&path)
            .run()
            .unwrap();
        assert_eq!(resumed.design, full.design, "{site} pass {pass}");
        assert_eq!(resumed.energy, full.energy, "{site} pass {pass}");
        assert_eq!(resumed.evaluations, full.evaluations, "{site} pass {pass}");
        let snap = ctx.snapshot();
        if pass == 0 {
            assert!(
                snap.cache_misses > 0 && snap.checkpoint_bytes > 0,
                "{snap:?}"
            );
        } else {
            assert_eq!((snap.cache_misses, snap.checkpoint_bytes), (0, 0), "{site}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_torn_append_is_cut_on_resume() {
    let _guard = serial();
    faults::disarm_all();
    journal_damage_drill("io.write.torn");
}

#[test]
fn journal_corrupt_append_is_cut_on_resume() {
    let _guard = serial();
    faults::disarm_all();
    journal_damage_drill("checkpoint.corrupt");
}
