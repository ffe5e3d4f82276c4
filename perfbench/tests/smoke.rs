//! Smoke test: every workload, untraced and traced, at `--tiny` size
//! prints a correct result line carrying exactly the metrics
//! `BENCHMARK.json` names, each with its declared unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use minpower_core::json::{self, Value};

fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
    let obj = doc.as_obj("BENCHMARK.json").expect("object");
    obj.req(section)
        .and_then(|v| v.as_arr(section))
        .expect("metric list")
        .iter()
        .map(|m| {
            let m = m.as_obj("metric").expect("metric object");
            let text = |k: &str| m.req(k).and_then(|v| v.as_str(k)).expect(k).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .as_obj("BENCHMARK.json")
        .and_then(|o| o.req("workloads"))
        .and_then(|v| v.as_arr("workloads"))
        .expect("workloads")
        .iter()
        .map(|w| {
            w.as_obj("workload")
                .and_then(|o| o.req("name"))
                .and_then(|v| v.as_str("name"))
                .expect("workload name")
                .to_string()
        })
        .collect();
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_minpower-perfbench"))
                .current_dir(&root)
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
            let line = line.as_obj("result").expect("result object");
            assert!(line
                .req("correct")
                .and_then(|v| v.as_bool("correct"))
                .expect("correct"));
            let attempted = line.req("attempted").and_then(|v| v.as_u64("attempted"));
            assert!(attempted.expect("attempted") >= 1);
            let metrics = line
                .req("metrics")
                .and_then(|v| v.as_obj("metrics"))
                .expect("metrics");
            let expected = declared(&spec, section);
            if let Value::Obj(fields) = line.req("metrics").expect("metrics") {
                assert_eq!(
                    fields.len(),
                    expected.len(),
                    "{workload}: extra or missing metrics"
                );
            }
            for (name, unit) in expected {
                let m = metrics.req(&name).and_then(|v| v.as_obj(&name));
                let m = m.unwrap_or_else(|_| panic!("{workload} trace {trace}: no {name}"));
                let value = m
                    .req("value")
                    .and_then(|v| v.as_number("value"))
                    .expect("value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if section == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} must never be 0");
                }
                assert_eq!(
                    m.req("unit").and_then(|v| v.as_str("unit")).expect("unit"),
                    unit
                );
            }
        }
    }
}
