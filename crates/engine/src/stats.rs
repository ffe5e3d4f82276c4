//! Lock-free telemetry for the evaluation engine.
//!
//! [`EngineStats`] is a bundle of atomic counters shared (via `Arc`)
//! between the optimizer call sites and whatever prints the report — the
//! CLI, the experiment harness, or a test. Counting is wait-free; reading
//! takes a [`snapshot`](EngineStats::snapshot) that renders itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented phases of an optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Procedure 2 / baseline search probes (sizing + evaluation).
    Search,
    /// Transistor sizing passes (budgeted or TILOS-style greedy).
    Sizing,
    /// Monte-Carlo yield trials.
    MonteCarlo,
    /// Benchmark-suite circuit runs.
    Suite,
}

const PHASES: [(Phase, &str); 4] = [
    (Phase::Search, "search"),
    (Phase::Sizing, "sizing"),
    (Phase::MonteCarlo, "monte-carlo"),
    (Phase::Suite, "suite"),
];

fn phase_index(phase: Phase) -> usize {
    PHASES
        .iter()
        .position(|&(p, _)| p == phase)
        .expect("phase is listed")
}

/// Atomic counters describing everything the engine did.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Full-circuit evaluations (each one sizes and times the netlist).
    pub circuit_evals: AtomicU64,
    /// Static timing passes (critical-path recomputations).
    pub sta_calls: AtomicU64,
    /// Evaluation-cache hits.
    pub cache_hits: AtomicU64,
    /// Evaluation-cache misses.
    pub cache_misses: AtomicU64,
    /// Incremental-STA commits (batched delay edits applied to a
    /// persistent analysis instead of a full pass).
    pub incremental_commits: AtomicU64,
    /// Total gate recomputations across all incremental commits — the
    /// dirty-cone work; divide by `incremental_commits` for the average
    /// cone size.
    pub incremental_gates: AtomicU64,
    /// Incremental commits that fell back to a dense full pass because
    /// the dirty set grew past the fallback fraction.
    pub sta_fallbacks: AtomicU64,
    /// Run-control trips: a soft deadline expired or a cancellation
    /// request (e.g. SIGINT) was observed at an iteration boundary.
    pub deadline_trips: AtomicU64,
    /// Injected faults that were caught and neutralized (non-zero only
    /// under the `faults` feature in fault-injection tests).
    pub faults_injected: AtomicU64,
    /// Checkpoint writes that reached disk (journal batches or
    /// snapshots).
    pub checkpoints_written: AtomicU64,
    /// Bytes those checkpoint writes put on disk.
    pub checkpoint_bytes: AtomicU64,
    /// Worker panics contained by the pool and surfaced as typed errors
    /// instead of aborting the run.
    pub panics_recovered: AtomicU64,
    /// Durable-store writes that reached disk (framed, fsynced,
    /// atomically renamed).
    pub store_writes: AtomicU64,
    /// Transient I/O failures absorbed by the store's bounded
    /// retry-with-backoff before a write ultimately succeeded or failed.
    pub store_retries: AtomicU64,
    /// Corrupt or truncated state files moved into quarantine by the
    /// startup recovery audit.
    pub store_quarantined: AtomicU64,
    /// Whole seconds spent in degraded (read-only) mode because durable
    /// writes were failing persistently.
    pub store_degraded_seconds: AtomicU64,
    /// Jittered exponential-backoff sleeps taken before re-dispatching a
    /// shard after a transient failure (`coord.retry.backoff`).
    pub retry_backoffs: AtomicU64,
    /// Per-worker circuit-breaker transitions into the open state
    /// (`coord.breaker.open`).
    pub breaker_opens: AtomicU64,
    /// Hedged shard dispatches fired against a second worker because the
    /// primary straggled past the hedge delay (`coord.hedge.fired`).
    pub hedges_fired: AtomicU64,
    /// Hedge races whose losing side completed after the shard was
    /// already done — discarded duplicates (`coord.hedge.wasted`).
    pub hedges_wasted: AtomicU64,
    phase_nanos: [AtomicU64; 4],
}

impl EngineStats {
    /// A fresh, zeroed counter bundle.
    pub fn new() -> Self {
        EngineStats::default()
    }

    /// Counts one full-circuit evaluation.
    pub fn count_eval(&self) {
        self.circuit_evals.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` static-timing passes.
    pub fn count_sta(&self, n: u64) {
        self.sta_calls.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one cache hit.
    pub fn count_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cache miss.
    pub fn count_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one incremental-STA commit that touched `gates` gates.
    pub fn count_incremental(&self, gates: u64) {
        self.incremental_commits.fetch_add(1, Ordering::Relaxed);
        self.incremental_gates.fetch_add(gates, Ordering::Relaxed);
    }

    /// Counts one incremental commit that fell back to a dense pass.
    pub fn count_fallback(&self) {
        self.sta_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one run-control trip (deadline expiry or cancellation).
    pub fn count_deadline_trip(&self) {
        self.deadline_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one injected fault that was caught and neutralized.
    pub fn count_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one checkpoint write of `bytes` bytes that reached disk.
    pub fn count_checkpoint(&self, bytes: u64) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts one worker panic contained and surfaced as a typed error.
    pub fn count_panic_recovered(&self) {
        self.panics_recovered.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one completed durable-store write that needed `retries`
    /// transient-failure retries before it landed.
    pub fn count_store_write(&self, retries: u64) {
        self.store_writes.fetch_add(1, Ordering::Relaxed);
        self.store_retries.fetch_add(retries, Ordering::Relaxed);
    }

    /// Counts `n` state files quarantined by a recovery audit.
    pub fn count_store_quarantined(&self, n: u64) {
        self.store_quarantined.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `secs` whole seconds of degraded-mode operation.
    pub fn add_store_degraded_seconds(&self, secs: u64) {
        self.store_degraded_seconds
            .fetch_add(secs, Ordering::Relaxed);
    }

    /// Counts one jittered backoff sleep before a shard re-dispatch.
    pub fn count_retry_backoff(&self) {
        self.retry_backoffs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one circuit-breaker transition into the open state.
    pub fn count_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one hedged dispatch fired against a second worker.
    pub fn count_hedge_fired(&self) {
        self.hedges_fired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one hedge race lost — a duplicate completion discarded.
    pub fn count_hedge_wasted(&self) {
        self.hedges_wasted.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `f`, attributing its wall time to `phase`.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.phase_nanos[phase_index(phase)].fetch_add(nanos, Ordering::Relaxed);
        out
    }

    /// Adds externally measured wall time to a phase.
    pub fn add_phase_nanos(&self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase_index(phase)].fetch_add(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            circuit_evals: self.circuit_evals.load(Ordering::Relaxed),
            sta_calls: self.sta_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            incremental_commits: self.incremental_commits.load(Ordering::Relaxed),
            incremental_gates: self.incremental_gates.load(Ordering::Relaxed),
            sta_fallbacks: self.sta_fallbacks.load(Ordering::Relaxed),
            deadline_trips: self.deadline_trips.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
            store_writes: self.store_writes.load(Ordering::Relaxed),
            store_retries: self.store_retries.load(Ordering::Relaxed),
            store_quarantined: self.store_quarantined.load(Ordering::Relaxed),
            store_degraded_seconds: self.store_degraded_seconds.load(Ordering::Relaxed),
            retry_backoffs: self.retry_backoffs.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            hedges_fired: self.hedges_fired.load(Ordering::Relaxed),
            hedges_wasted: self.hedges_wasted.load(Ordering::Relaxed),
            phase_nanos: [
                self.phase_nanos[0].load(Ordering::Relaxed),
                self.phase_nanos[1].load(Ordering::Relaxed),
                self.phase_nanos[2].load(Ordering::Relaxed),
                self.phase_nanos[3].load(Ordering::Relaxed),
            ],
        }
    }
}

/// A plain-data copy of [`EngineStats`] counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Full-circuit evaluations.
    pub circuit_evals: u64,
    /// Static timing passes.
    pub sta_calls: u64,
    /// Evaluation-cache hits.
    pub cache_hits: u64,
    /// Evaluation-cache misses.
    pub cache_misses: u64,
    /// Incremental-STA commits.
    pub incremental_commits: u64,
    /// Total gate recomputations across all incremental commits.
    pub incremental_gates: u64,
    /// Incremental commits that fell back to a dense full pass.
    pub sta_fallbacks: u64,
    /// Run-control trips (deadline expiry or cancellation) observed.
    pub deadline_trips: u64,
    /// Injected faults caught and neutralized.
    pub faults_injected: u64,
    /// Checkpoint writes that reached disk.
    pub checkpoints_written: u64,
    /// Bytes those checkpoint writes put on disk.
    pub checkpoint_bytes: u64,
    /// Worker panics contained and surfaced as typed errors.
    pub panics_recovered: u64,
    /// Durable-store writes that reached disk.
    pub store_writes: u64,
    /// Transient I/O failures absorbed by the store's bounded retry.
    pub store_retries: u64,
    /// Corrupt state files quarantined by recovery audits.
    pub store_quarantined: u64,
    /// Whole seconds spent in degraded (read-only) mode.
    pub store_degraded_seconds: u64,
    /// Jittered backoff sleeps before shard re-dispatches.
    pub retry_backoffs: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_opens: u64,
    /// Hedged dispatches fired against a second worker.
    pub hedges_fired: u64,
    /// Hedge races lost — duplicate completions discarded.
    pub hedges_wasted: u64,
    /// Wall time per phase, in the order of `Phase`'s variants.
    pub phase_nanos: [u64; 4],
}

impl StatsSnapshot {
    /// Accumulates `other` into `self`, counter by counter — how a
    /// service aggregates per-job engine telemetry (each job runs on its
    /// own [`EngineStats`]) into one fleet-wide snapshot.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.circuit_evals += other.circuit_evals;
        self.sta_calls += other.sta_calls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.incremental_commits += other.incremental_commits;
        self.incremental_gates += other.incremental_gates;
        self.sta_fallbacks += other.sta_fallbacks;
        self.deadline_trips += other.deadline_trips;
        self.faults_injected += other.faults_injected;
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.panics_recovered += other.panics_recovered;
        self.store_writes += other.store_writes;
        self.store_retries += other.store_retries;
        self.store_quarantined += other.store_quarantined;
        self.store_degraded_seconds += other.store_degraded_seconds;
        self.retry_backoffs += other.retry_backoffs;
        self.breaker_opens += other.breaker_opens;
        self.hedges_fired += other.hedges_fired;
        self.hedges_wasted += other.hedges_wasted;
        for (mine, theirs) in self.phase_nanos.iter_mut().zip(other.phase_nanos) {
            *mine += theirs;
        }
    }

    /// Cache hit rate in `[0, 1]`, or 0 when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Wall time attributed to `phase`, in seconds.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.phase_nanos[phase_index(phase)] as f64 * 1e-9
    }

    /// Mean dirty-cone size per incremental commit, or 0 with no commits.
    pub fn gates_per_commit(&self) -> f64 {
        if self.incremental_commits == 0 {
            0.0
        } else {
            self.incremental_gates as f64 / self.incremental_commits as f64
        }
    }

    /// Fraction of incremental commits that fell back to a dense pass, in
    /// `[0, 1]`, or 0 with no commits.
    pub fn fallback_rate(&self) -> f64 {
        if self.incremental_commits == 0 {
            0.0
        } else {
            self.sta_fallbacks as f64 / self.incremental_commits as f64
        }
    }

    /// Multi-line human-readable report for CLI / experiments output.
    pub fn render(&self) -> String {
        let mut out = String::from("engine stats\n");
        out.push_str(&format!(
            "  circuit evaluations : {}\n  STA passes          : {}\n",
            self.circuit_evals, self.sta_calls
        ));
        out.push_str(&format!(
            "  cache               : {} hits / {} misses ({:.1}% hit rate)\n",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.hit_rate()
        ));
        if self.incremental_commits > 0 {
            out.push_str(&format!(
                "  incremental STA     : {} commits, {:.1} gates/commit, {} fallbacks ({:.1}% fallback rate)\n",
                self.incremental_commits,
                self.gates_per_commit(),
                self.sta_fallbacks,
                100.0 * self.fallback_rate()
            ));
        }
        if self.deadline_trips
            + self.faults_injected
            + self.checkpoints_written
            + self.panics_recovered
            > 0
        {
            out.push_str(&format!(
                "  run control         : {} deadline/cancel trips, {} faults caught, {} checkpoints written ({} bytes), {} panics recovered\n",
                self.deadline_trips,
                self.faults_injected,
                self.checkpoints_written,
                self.checkpoint_bytes,
                self.panics_recovered
            ));
        }
        if self.store_writes
            + self.store_retries
            + self.store_quarantined
            + self.store_degraded_seconds
            > 0
        {
            out.push_str(&format!(
                "  durable store       : {} writes, {} retries, {} quarantined, {} s degraded\n",
                self.store_writes,
                self.store_retries,
                self.store_quarantined,
                self.store_degraded_seconds
            ));
        }
        if self.retry_backoffs + self.breaker_opens + self.hedges_fired + self.hedges_wasted > 0 {
            out.push_str(&format!(
                "  rpc resilience      : {} backoffs, {} breaker opens, {} hedges fired, {} hedges wasted\n",
                self.retry_backoffs,
                self.breaker_opens,
                self.hedges_fired,
                self.hedges_wasted
            ));
        }
        for (phase, name) in PHASES {
            let secs = self.phase_seconds(phase);
            if secs > 0.0 {
                out.push_str(&format!("  {name:<20}: {secs:.3} s\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = EngineStats::new();
        for _ in 0..5 {
            stats.count_eval();
        }
        stats.count_sta(12);
        stats.count_hit();
        stats.count_hit();
        stats.count_miss();
        let snap = stats.snapshot();
        assert_eq!(snap.circuit_evals, 5);
        assert_eq!(snap.sta_calls, 12);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn timing_is_attributed_to_the_right_phase() {
        let stats = EngineStats::new();
        let v = stats.time(Phase::MonteCarlo, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            17
        });
        assert_eq!(v, 17);
        let snap = stats.snapshot();
        assert!(snap.phase_seconds(Phase::MonteCarlo) >= 0.004);
        assert_eq!(snap.phase_seconds(Phase::Search), 0.0);
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let stats = EngineStats::new();
        crate::pool::par_map_indices(8, 10_000, |_| stats.count_eval());
        assert_eq!(stats.snapshot().circuit_evals, 10_000);
    }

    #[test]
    fn render_mentions_key_figures() {
        let stats = EngineStats::new();
        stats.count_eval();
        stats.count_hit();
        stats.count_miss();
        let text = stats.snapshot().render();
        assert!(text.contains("circuit evaluations : 1"));
        assert!(text.contains("50.0% hit rate"));
    }

    #[test]
    fn resilience_counters_render_only_when_used() {
        let stats = EngineStats::new();
        assert!(!stats.snapshot().render().contains("run control"));
        stats.count_deadline_trip();
        stats.count_fault_injected();
        stats.count_fault_injected();
        stats.count_checkpoint(4096);
        stats.count_panic_recovered();
        let snap = stats.snapshot();
        assert_eq!(snap.deadline_trips, 1);
        assert_eq!(snap.faults_injected, 2);
        assert_eq!(snap.checkpoints_written, 1);
        assert_eq!(snap.checkpoint_bytes, 4096);
        assert_eq!(snap.panics_recovered, 1);
        let text = snap.render();
        assert!(
            text.contains(
                "run control         : 1 deadline/cancel trips, 2 faults caught, \
                 1 checkpoints written (4096 bytes), 1 panics recovered"
            ),
            "{text}"
        );
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = EngineStats::new();
        a.count_eval();
        a.count_hit();
        a.count_incremental(4);
        a.add_phase_nanos(Phase::Search, 100);
        let b = EngineStats::new();
        b.count_eval();
        b.count_miss();
        b.count_fallback();
        b.count_deadline_trip();
        a.count_checkpoint(100);
        b.count_checkpoint(23);
        b.add_phase_nanos(Phase::Search, 50);
        b.add_phase_nanos(Phase::Suite, 7);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.circuit_evals, 2);
        assert_eq!((total.cache_hits, total.cache_misses), (1, 1));
        assert_eq!(total.incremental_commits, 1);
        assert_eq!(total.incremental_gates, 4);
        assert_eq!(total.sta_fallbacks, 1);
        assert_eq!(total.deadline_trips, 1);
        assert_eq!(
            (total.checkpoints_written, total.checkpoint_bytes),
            (2, 123)
        );
        assert_eq!(total.phase_nanos[phase_index(Phase::Search)], 150);
        assert_eq!(total.phase_nanos[phase_index(Phase::Suite)], 7);
    }

    #[test]
    fn zero_lookup_hit_rate_is_zero() {
        assert_eq!(StatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn store_counters_count_merge_and_render() {
        let a = EngineStats::new();
        assert!(!a.snapshot().render().contains("durable store"));
        a.count_store_write(0);
        a.count_store_write(3);
        a.count_store_quarantined(2);
        a.add_store_degraded_seconds(7);
        let b = EngineStats::new();
        b.count_store_write(1);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.store_writes, 3);
        assert_eq!(total.store_retries, 4);
        assert_eq!(total.store_quarantined, 2);
        assert_eq!(total.store_degraded_seconds, 7);
        let text = total.render();
        assert!(
            text.contains("durable store       : 3 writes, 4 retries, 2 quarantined, 7 s degraded"),
            "{text}"
        );
    }

    #[test]
    fn rpc_counters_count_merge_and_render() {
        let a = EngineStats::new();
        assert!(!a.snapshot().render().contains("rpc resilience"));
        a.count_retry_backoff();
        a.count_retry_backoff();
        a.count_breaker_open();
        a.count_hedge_fired();
        let b = EngineStats::new();
        b.count_hedge_fired();
        b.count_hedge_wasted();
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.retry_backoffs, 2);
        assert_eq!(total.breaker_opens, 1);
        assert_eq!(total.hedges_fired, 2);
        assert_eq!(total.hedges_wasted, 1);
        let text = total.render();
        assert!(
            text.contains(
                "rpc resilience      : 2 backoffs, 1 breaker opens, 2 hedges fired, 1 hedges wasted"
            ),
            "{text}"
        );
    }

    #[test]
    fn incremental_counters_render_only_when_used() {
        let stats = EngineStats::new();
        assert!(!stats.snapshot().render().contains("incremental STA"));
        stats.count_incremental(7);
        stats.count_incremental(3);
        stats.count_fallback();
        let snap = stats.snapshot();
        assert_eq!(snap.incremental_commits, 2);
        assert_eq!(snap.incremental_gates, 10);
        assert_eq!(snap.sta_fallbacks, 1);
        assert!((snap.gates_per_commit() - 5.0).abs() < 1e-12);
        assert!((snap.fallback_rate() - 0.5).abs() < 1e-12);
        let text = snap.render();
        assert!(text.contains("incremental STA     : 2 commits, 5.0 gates/commit, 1 fallbacks"));
        assert!(text.contains("50.0% fallback rate"));
    }
}
