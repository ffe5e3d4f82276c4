//! Benchmark runner for the minpower workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite_table2|rent_sizing|service_mix> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The run record (machine, seed, sizes, sample counts)
//! and, for traced runs, every span go to `perfbench/out/`. Exits 1 when
//! a correctness check fails. `--tiny` shrinks every input for the smoke
//! test; its timings mean nothing.

mod http;
mod rent;
mod report;
mod service;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use minpower_core::json::Value;
use minpower_core::EvalContext;
use minpower_engine::stats::StatsSnapshot;

use report::{metrics_json, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

const WORKLOADS: &[&str] = &["suite_table2", "rent_sizing", "service_mix"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub tiny: bool,
    /// This run's output directory under `perfbench/out/`.
    pub dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: Duration::from_secs(10),
            trace: false,
            tiny: false,
            dir: PathBuf::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    args.seconds =
                        Duration::try_from_secs_f64(secs).map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                "--tiny" => args.tiny = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }

        args.dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}-trace{}",
                args.workload,
                args.seed,
                u8::from(args.trace)
            ));
        Ok(args)
    }
}

/// The engine counters of `EvalContext::snapshot()` as layer metrics.
pub fn engine_layers(layers: &mut BTreeMap<&'static str, f64>, s: &StatsSnapshot) {
    layers.insert("engine.circuit_evals", s.circuit_evals as f64);
    layers.insert("engine.sta_calls", s.sta_calls as f64);
    layers.insert("engine.incremental_commits", s.incremental_commits as f64);
    layers.insert("engine.incremental_gates", s.incremental_gates as f64);
    layers.insert("engine.sta_fallbacks", s.sta_fallbacks as f64);
    layers.insert("engine.cache_hits", s.cache_hits as f64);
    layers.insert("engine.cache_misses", s.cache_misses as f64);
    let lookups = s.cache_hits + s.cache_misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        s.cache_hits as f64 / lookups as f64
    };
    layers.insert("engine.cache_hit_ratio", ratio);
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One engine thread, no probe cache on the process-wide context: the
    // host has too few cores to measure parallel speed-up, and a cache
    // shared across passes would answer later passes from memory.
    EvalContext::install(EvalContext::new(1, 0));
    let _ = std::fs::remove_dir_all(&args.dir);
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("perfbench: creating {}: {e}", args.dir.display());
        return ExitCode::from(2);
    }

    let mut tracer = Tracer::new(args.trace);
    let t0 = Instant::now();
    let mut out: Outcome = match args.workload.as_str() {
        "suite_table2" => suite::run(&args, &mut tracer),
        "rent_sizing" => rent::run(&args, &mut tracer),
        "service_mix" => service::run(&args, &mut tracer),
        _ => unreachable!("validated by Args::parse"),
    };
    let wall = t0.elapsed().as_secs_f64();

    out.e2e.insert("peak_rss_mb", report::peak_rss_mb());
    out.e2e.insert(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    for &(name, _) in END_TO_END {
        let value = out.e2e.get(name).copied().unwrap_or(f64::NAN);
        out.check(value.is_finite() && value > 0.0, || {
            format!("metric {name} is {value}")
        });
    }
    out.layers
        .insert("trace.spans", tracer.spans().len() as f64);

    let dir = &args.dir;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::Int(args.seed)),
        (
            "seconds".to_string(),
            Value::Float(args.seconds.as_secs_f64()),
        ),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("tiny".to_string(), Value::Bool(args.tiny)),
        ("cpus".to_string(), Value::Int(cpus as u64)),
        ("engine_threads".to_string(), Value::Int(1)),
        ("commit".to_string(), Value::Str(report::commit())),
        ("wall_s".to_string(), Value::Float(wall)),
        ("attempted".to_string(), Value::Int(out.attempted)),
        ("failed".to_string(), Value::Int(out.failed)),
        (
            "check_failures".to_string(),
            Value::Arr(
                out.check_failures
                    .iter()
                    .map(|s| Value::Str(s.clone()))
                    .collect(),
            ),
        ),
    ];
    record.append(&mut out.info);
    record.push(("end_to_end".to_string(), metrics_json(END_TO_END, &out.e2e)));
    if args.trace {
        record.push((
            "per_layer".to_string(),
            metrics_json(PER_LAYER, &out.layers),
        ));
        let spans = dir.join("spans.json");
        if let Err(e) = std::fs::write(&spans, tracer.to_json().render()) {
            out.check_failures
                .push(format!("writing {}: {e}", spans.display()));
        }
    }
    let record = Value::Obj(record).render();
    eprintln!("{record}");
    if let Err(e) = std::fs::write(dir.join("run.json"), &record) {
        eprintln!("perfbench: writing the run record: {e}");
    }

    for failure in &out.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = out.check_failures.is_empty();
    let (names, values) = if args.trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(out.attempted.max(1))),
        ("failed".to_string(), Value::Int(out.failed)),
        ("metrics".to_string(), metrics_json(names, values)),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
