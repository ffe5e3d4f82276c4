//! The evaluation context: where core routes every full-circuit probe.
//!
//! [`EvalContext`] bundles the three `minpower-engine` layers for this
//! crate's call sites:
//!
//! * a `threads` knob consumed by the parallel call sites
//!   ([`crate::yield_mc`] trials, the bench suite runner);
//! * an optional [`EvalCache`] memoizing Procedure-2 probes — a probe is
//!   keyed by `(V_dd, V⃗_ts)` plus a salt folding in the circuit
//!   fingerprint, the cycle time, and every sizing option, and a hit
//!   additionally requires an exact bit-pattern match, so caching never
//!   changes results;
//! * shared [`EngineStats`] telemetry rendered by the CLI and the
//!   experiment harness.
//!
//! A process-wide context is reachable via [`EvalContext::global`]
//! (installable once, before first use, via [`EvalContext::install`]);
//! individual optimizer runs can override it with
//! [`crate::Optimizer::with_engine`] — how the determinism tests compare
//! cache-on against cache-off runs.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use minpower_engine::{fnv1a_words, CacheStats, EngineStats, EvalCache, Quantizer, StatsSnapshot};
use minpower_models::EnergyBreakdown;

use crate::checkpoint::ProbeRecord;
use crate::search::Sized;

/// Default capacity of the probe cache, in entries. A `Sized` for an
/// `N`-gate circuit holds two `N`-element vectors, so this bounds cache
/// memory to a few tens of megabytes even for the largest suite circuit.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Shared evaluation state: thread count, probe cache, telemetry.
pub struct EvalContext {
    threads: usize,
    cache: Option<EvalCache<Sized>>,
    quantizer: Quantizer,
    stats: Arc<EngineStats>,
    /// Probe journal for checkpointing: the distinct probes completed
    /// since [`EvalContext::enable_probe_journal`] and not yet taken by
    /// [`EvalContext::take_journal`], in completion order.
    journal: Mutex<Option<Journal>>,
    /// Monotone probe counter — the call index of the `probe.nan` fault
    /// site.
    probe_seq: AtomicU64,
}

struct Journal {
    /// Exact fingerprints already journaled or preloaded (dedup across
    /// cache replays and resumes).
    seen: HashSet<u64>,
    /// The unflushed tail: probes recorded since the last take.
    pending: Vec<ProbeRecord>,
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("threads", &self.threads)
            .field(
                "cache_capacity",
                &self.cache.as_ref().map(EvalCache::capacity),
            )
            .finish()
    }
}

impl Default for EvalContext {
    fn default() -> Self {
        EvalContext::new(default_threads(), DEFAULT_CACHE_CAPACITY)
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

static GLOBAL: OnceLock<Arc<EvalContext>> = OnceLock::new();

impl EvalContext {
    /// Creates a context with `threads` workers and a probe cache of
    /// `cache_capacity` entries (`0` disables caching entirely).
    pub fn new(threads: usize, cache_capacity: usize) -> Self {
        EvalContext {
            threads: threads.max(1),
            cache: (cache_capacity > 0).then(|| EvalCache::new(cache_capacity)),
            quantizer: Quantizer::default(),
            stats: Arc::new(EngineStats::new()),
            journal: Mutex::new(None),
            probe_seq: AtomicU64::new(0),
        }
    }

    /// The process-wide context. First use materializes the default
    /// (all cores, caching on) unless [`install`](Self::install) ran
    /// earlier.
    pub fn global() -> Arc<EvalContext> {
        GLOBAL
            .get_or_init(|| Arc::new(EvalContext::default()))
            .clone()
    }

    /// Installs `ctx` as the process-wide context. Returns `false` if a
    /// global context was already materialized (install, like a CLI flag
    /// parser, must run before the first optimization).
    pub fn install(ctx: EvalContext) -> bool {
        GLOBAL.set(Arc::new(ctx)).is_ok()
    }

    /// Worker threads available to parallel call sites.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether probe memoization is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The shared telemetry counters.
    pub fn stats(&self) -> &Arc<EngineStats> {
        &self.stats
    }

    /// A snapshot of the telemetry counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Probe-cache counters, if caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(EvalCache::stats)
    }

    /// Starts recording every distinct probe into the journal (clearing
    /// any previous journal). The journal is what a search checkpoint
    /// appends: replaying it through
    /// [`preload_probes`](Self::preload_probes) makes a resumed
    /// deterministic search bit-identical to the uninterrupted run.
    pub fn enable_probe_journal(&self) {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(Journal {
            seen: HashSet::new(),
            pending: Vec::new(),
        });
    }

    /// Drains the probes recorded since the last call, so each is
    /// written once. Empty when journaling is off.
    pub fn take_journal(&self) -> Vec<ProbeRecord> {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        guard
            .as_mut()
            .map(|j| std::mem::take(&mut j.pending))
            .unwrap_or_default()
    }

    /// Preloads checkpointed probes into the evaluation cache and marks
    /// them journaled, so they are never appended again. With caching
    /// disabled the resumed search recomputes each probe — slower, but
    /// still bit-identical, since cache hits never change results.
    pub fn preload_probes(&self, salt: u64, budgets: &[f64], probes: &[ProbeRecord]) {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        for p in probes {
            let (key, fingerprint) = self.quantizer.key(p.vdd, &p.vts, budgets, salt);
            if let Some(journal) = guard.as_mut() {
                journal.seen.insert(fingerprint.0);
            }
            if let Some(cache) = &self.cache {
                let out = Sized {
                    design: p.design.clone(),
                    energy: p.energy,
                    critical_delay: p.critical_delay,
                    feasible: p.feasible,
                };
                cache.insert(key, fingerprint, out);
            }
        }
    }

    fn record_probe(&self, salt: u64, vdd: f64, vts: &[f64], widths: &[f64], out: &Sized) {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let Some(journal) = guard.as_mut() else {
            return;
        };
        let (_, fingerprint) = self.quantizer.key(vdd, vts, widths, salt);
        if !journal.seen.insert(fingerprint.0) {
            return;
        }
        journal.pending.push(ProbeRecord {
            vdd,
            vts: vts.to_vec(),
            design: out.design.clone(),
            energy: out.energy,
            critical_delay: out.critical_delay,
            feasible: out.feasible,
        });
    }

    /// Routes one Procedure-2 probe: counts it, consults the cache, and
    /// falls back to `compute`. `widths` carries the per-gate budget
    /// vector — the width-shaping input of the probe (the concrete widths
    /// are the probe's *output*).
    pub(crate) fn probe(
        &self,
        salt: u64,
        vdd: f64,
        vts: &[f64],
        widths: &[f64],
        compute: impl FnOnce() -> Sized,
    ) -> Sized {
        self.stats.count_eval();
        let out = if let Some(cache) = &self.cache {
            let (key, fingerprint) = self.quantizer.key(vdd, vts, widths, salt);
            if let Some(hit) = cache.get(&key, fingerprint) {
                self.stats.count_hit();
                hit
            } else {
                self.stats.count_miss();
                let out = compute();
                cache.insert(key, fingerprint, out.clone());
                out
            }
        } else {
            compute()
        };
        self.record_probe(salt, vdd, vts, widths, &out);
        // Fault site `probe.nan`: hand the caller a NaN-energy outcome as
        // a broken device model would, *after* journaling/caching the
        // clean value — the injected fault must poison this observation,
        // not the memo the resume path replays. The search loops' finite
        // guards must reject it rather than return it as an optimum.
        let seq = self.probe_seq.fetch_add(1, Ordering::Relaxed);
        if minpower_engine::faults::should_fire("probe.nan", seq) {
            self.stats.count_fault_injected();
            let mut poisoned = out;
            poisoned.energy = EnergyBreakdown::new(f64::NAN, f64::NAN);
            return poisoned;
        }
        out
    }
}

/// Salt for probe-cache keys: everything besides `(V_dd, V⃗_ts)` that
/// determines a probe's outcome. Two probes share a salt only if they run
/// on the same circuit model, at the same cycle time, under the same
/// sizing options.
pub(crate) fn probe_salt(
    problem: &crate::problem::Problem,
    steps: usize,
    width_passes: usize,
    vt_tolerance: f64,
    policy: crate::budget::BudgetPolicy,
    sizing: crate::search::SizingMethod,
) -> u64 {
    let policy_tag = match policy {
        crate::budget::BudgetPolicy::FanoutWeighted => 0u64,
        crate::budget::BudgetPolicy::Uniform => 1,
        crate::budget::BudgetPolicy::SqrtFanout => 2,
    };
    let sizing_tag = match sizing {
        crate::search::SizingMethod::Budgeted => 0u64,
        crate::search::SizingMethod::Greedy => 1,
    };
    fnv1a_words([
        problem.model().fingerprint(),
        problem.fc().to_bits(),
        problem.effective_cycle_time().to_bits(),
        steps as u64,
        width_passes as u64,
        vt_tolerance.to_bits(),
        policy_tag,
        sizing_tag,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_device::Technology;
    use minpower_models::{CircuitModel, Design, EnergyBreakdown};
    use minpower_netlist::{GateKind, NetlistBuilder};

    fn dummy_sized(tag: f64) -> Sized {
        Sized {
            design: Design {
                vdd: tag,
                vt: vec![tag],
                width: vec![tag],
            },
            energy: EnergyBreakdown::default(),
            critical_delay: tag,
            feasible: true,
        }
    }

    #[test]
    fn probe_caches_identical_points() {
        let ctx = EvalContext::new(1, 64);
        let mut computes = 0;
        for _ in 0..3 {
            let s = ctx.probe(1, 1.5, &[0.3, 0.3], &[1.0], || {
                computes += 1;
                dummy_sized(1.5)
            });
            assert_eq!(s.design.vdd, 1.5);
        }
        assert_eq!(computes, 1);
        let snap = ctx.snapshot();
        assert_eq!(snap.circuit_evals, 3);
        assert_eq!((snap.cache_hits, snap.cache_misses), (2, 1));
    }

    #[test]
    fn disabled_cache_always_computes() {
        let ctx = EvalContext::new(1, 0);
        assert!(!ctx.cache_enabled());
        let mut computes = 0;
        for _ in 0..3 {
            let _ = ctx.probe(1, 1.5, &[0.3], &[1.0], || {
                computes += 1;
                dummy_sized(0.0)
            });
        }
        assert_eq!(computes, 3);
        assert_eq!(ctx.cache_stats(), None);
    }

    #[test]
    fn different_salts_do_not_share_entries() {
        let ctx = EvalContext::new(1, 64);
        let a = ctx.probe(1, 1.0, &[0.3], &[], || dummy_sized(1.0));
        let b = ctx.probe(2, 1.0, &[0.3], &[], || dummy_sized(2.0));
        assert_ne!(a.design.vdd, b.design.vdd);
    }

    #[test]
    fn salt_separates_options_and_problems() {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        b.gate("y", GateKind::Not, &["a"]).unwrap();
        b.output("y").unwrap();
        let n = b.finish().unwrap();
        let mk = |fc: f64, density: f64| {
            let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, density);
            crate::problem::Problem::new(model, fc)
        };
        let p1 = mk(200.0e6, 0.3);
        let base = probe_salt(
            &p1,
            14,
            2,
            0.0,
            crate::budget::BudgetPolicy::FanoutWeighted,
            crate::search::SizingMethod::Budgeted,
        );
        // Different frequency, activity, or options must change the salt.
        for other in [
            probe_salt(
                &mk(300.0e6, 0.3),
                14,
                2,
                0.0,
                crate::budget::BudgetPolicy::FanoutWeighted,
                crate::search::SizingMethod::Budgeted,
            ),
            probe_salt(
                &mk(200.0e6, 0.1),
                14,
                2,
                0.0,
                crate::budget::BudgetPolicy::FanoutWeighted,
                crate::search::SizingMethod::Budgeted,
            ),
            probe_salt(
                &p1,
                15,
                2,
                0.0,
                crate::budget::BudgetPolicy::FanoutWeighted,
                crate::search::SizingMethod::Budgeted,
            ),
            probe_salt(
                &p1,
                14,
                2,
                0.0,
                crate::budget::BudgetPolicy::Uniform,
                crate::search::SizingMethod::Budgeted,
            ),
            probe_salt(
                &p1,
                14,
                2,
                0.0,
                crate::budget::BudgetPolicy::FanoutWeighted,
                crate::search::SizingMethod::Greedy,
            ),
        ] {
            assert_ne!(base, other);
        }
    }
}
