//! Metric names, the per-run record, and small statistics helpers.

use std::collections::BTreeMap;

use minpower_core::json::Value;

use crate::trace::Tracer;

/// End-to-end metrics, printed by every untraced run of every workload.
/// Each workload defines its unit operation (a table row, a sizing
/// corner, a local session edit); see the README's workload table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_s", "s"),
    ("energy_ratio", "x"),
    ("ok_frac", "frac"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.synthesize_s", "s"),
    ("models.build_s", "s"),
    ("core.size_at_s", "s"),
    ("core.budget_s", "s"),
    ("models.soa_build_s", "s"),
    ("models.sweep_s", "s"),
    ("models.sweeps", "count"),
    ("models.sta_s", "s"),
    ("models.energy_s", "s"),
    ("core.repair_s", "s"),
    ("core.budget_share", "frac"),
    ("models.soa_build_share", "frac"),
    ("models.sweep_share", "frac"),
    ("models.sta_share", "frac"),
    ("models.energy_share", "frac"),
    ("core.repair_share", "frac"),
    ("core.optimize_s", "s"),
    ("core.baseline_s", "s"),
    ("engine.circuit_evals", "count"),
    ("engine.sta_calls", "count"),
    ("engine.incremental_commits", "count"),
    ("engine.incremental_gates", "count"),
    ("engine.sta_fallbacks", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_hit_ratio", "frac"),
    ("session.apply_local_ms", "ms"),
    ("session.apply_global_ms", "ms"),
    ("session.oplog_append_ms", "ms"),
    ("session.snapshot_ms", "ms"),
    ("session.replay_s", "s"),
    ("service.global_p50_ms", "ms"),
    ("service.read_p50_ms", "ms"),
    ("service.http_overhead_ms", "ms"),
    ("service.job_inprocess_s", "s"),
    ("service.job_overhead_s", "s"),
    ("metrics.connections", "count"),
    ("metrics.requests", "count"),
    ("metrics.checkpoints", "count"),
    ("metrics.replays", "count"),
    ("metrics.evictions", "count"),
    ("metrics.rate_limited", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry fails the run.
    pub check_failures: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Run facts for the record: sizes, counts, sample counts.
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn info(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    pub fn count(&mut self, key: &str, n: usize) {
        self.info(key, Value::Int(n as u64));
    }
}

/// Times one more, untraced run of a set-up step and drops its result.
/// Called between measured passes, so the set-up samples span the run:
/// on a shared host the slow phases last seconds, and samples taken in
/// one burst can all land in one.
pub fn time_setup<T>(step: impl FnOnce(&mut Tracer) -> T) -> f64 {
    let t0 = std::time::Instant::now();
    drop(step(&mut Tracer::new(false)));
    t0.elapsed().as_secs_f64()
}

/// Repeats a set-up step at least `min_reps` times and until
/// `budget_s` seconds have gone by; only the first repetition is
/// traced, so layer totals describe one set-up. The previous result is
/// dropped before the next repetition starts, so peak memory holds one.
/// Returns the last result and each repetition's duration.
pub fn repeat_setup<T>(
    min_reps: usize,
    budget_s: f64,
    tracer: &mut Tracer,
    mut step: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    let start = std::time::Instant::now();
    let mut durations = Vec::new();
    let mut last = None;
    while durations.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        drop(last.take());
        let mut quiet = Tracer::new(false);
        let t = if durations.is_empty() {
            &mut *tracer
        } else {
            &mut quiet
        };
        let t0 = std::time::Instant::now();
        last = Some(step(t));
        durations.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), durations)
}

/// The `p`-quantile (0..=1) of `samples`, interpolating linearly
/// between the two nearest ranks.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout was taken from, when it is a git work tree;
/// `unknown` otherwise.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The metric map of the result line: `{"name": {"value": v, "unit": u}}`.
pub fn metrics_json(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Value {
    Value::Obj(
        names
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}
