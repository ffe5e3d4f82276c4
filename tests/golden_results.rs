//! Golden results: the optimizer's answers, bit for bit.
//!
//! `tests/golden_results.txt` records, as hex IEEE-754 bits, the Table-1
//! (fixed 700 mV) and Table-2 (joint optimization) results of every
//! paper-suite circuit at both table activities, and `size_at` at the
//! three `rent_sizing` corners on a small seeded Rent's-rule netlist,
//! each row with its model's [`CircuitModel::fingerprint`]. This test
//! recomputes the rows and compares them bit for bit, so a change to the
//! shared oracle (the model, the device functions, Procedure 1 or 2)
//! cannot pass unnoticed.
//!
//! Debug builds recompute the rows of s27, s298 and s713 and the Rent
//! corners (they also run the per-sweep scalar oracle and the warm
//! evaluator's dense cross-checks); release builds recompute every row:
//!
//! ```text
//! cargo test --release -p minpower --test golden_results
//! ```
//!
//! Every run writes what it recomputed to `golden_results.txt` under the
//! test's `CARGO_TARGET_TMPDIR`. A change that means to move results
//! copies a release run's file over the committed one and says why.
//!
//! `powf`, `exp` and `ln_1p` come from the platform's libm, so the bits
//! hold for the target the file records; on another target the rows are
//! recomputed and written but not compared.

use std::fmt::Write as _;
use std::sync::Arc;

use minpower::circuits::{paper_suite, synthesize, BenchmarkSpec};
use minpower::opt::baseline;
use minpower::opt::search::size_at_with;
use minpower::{CircuitModel, EvalContext, OptimizationResult, Optimizer, Problem};
use minpower::{SearchOptions, Technology};

const GOLDEN: &str = include_str!("golden_results.txt");

/// The tables' clock and activities (EXPERIMENTS.md).
const TABLE_FC: f64 = 300.0e6;
const ACTIVITIES: [f64; 2] = [0.1, 0.5];
/// Circuits a debug build recomputes.
const DEBUG_CIRCUITS: [&str; 3] = ["s27", "s298", "s713"];

/// The `rent_sizing` set-up on a smaller netlist: clock, activity and the
/// three corners of that workload.
const RENT_GATES: usize = 1_000;
const RENT_SEED: u64 = 11;
const RENT_FC: f64 = 150.0e6;
const RENT_ACTIVITY: f64 = 0.1;
const RENT_CORNERS: [(f64, f64); 3] = [(3.3, 0.7), (2.5, 0.45), (2.0, 0.3)];

/// One recorded row: a label and its named fields, each a 64-bit word
/// (an f64's bits, or the fingerprint).
struct Row {
    label: String,
    fields: Vec<(String, u64)>,
}

fn target() -> String {
    let env = if cfg!(target_env = "gnu") {
        "gnu"
    } else if cfg!(target_env = "musl") {
        "musl"
    } else if cfg!(target_env = "msvc") {
        "msvc"
    } else {
        "none"
    };
    format!("{}-{}-{env}", std::env::consts::ARCH, std::env::consts::OS)
}

/// Vdd, uniform Vt (NaN if per-gate), static and dynamic energy,
/// critical delay and an FNV-1a checksum over the width bits.
fn result_fields(prefix: &str, r: &OptimizationResult) -> Vec<(String, u64)> {
    let widths = minpower::engine::fnv1a_words(r.design.width.iter().map(|w| w.to_bits()));
    [
        ("vdd", r.design.vdd.to_bits()),
        ("vt", r.uniform_vt().unwrap_or(f64::NAN).to_bits()),
        ("static", r.energy.static_.to_bits()),
        ("dynamic", r.energy.dynamic.to_bits()),
        ("delay", r.critical_delay.to_bits()),
        ("widths", widths),
    ]
    .into_iter()
    .map(|(name, word)| (format!("{prefix}{name}"), word))
    .collect()
}

fn suite_row(netlist: &minpower::Netlist, activity: f64) -> Row {
    let model = CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, activity);
    let problem = Problem::new(model, TABLE_FC);
    let t1 = baseline::optimize_fixed_vt(&problem, 0.7, SearchOptions::default())
        .expect("table-1 corner is feasible for the suite");
    let t2 = Optimizer::new(&problem)
        .run()
        .expect("table-2 optimization is feasible for the suite");
    let mut fields = vec![("fingerprint".to_string(), problem.model().fingerprint())];
    fields.extend(result_fields("t1.", &t1));
    fields.extend(result_fields("t2.", &t2));
    Row {
        label: format!("{} a={activity}", netlist.name()),
        fields,
    }
}

fn rent_rows() -> Vec<Row> {
    let mut spec = BenchmarkSpec::rent("rent", RENT_GATES);
    spec.seed = RENT_SEED;
    let netlist = synthesize(&spec).expect("rent spec is valid");
    let model =
        CircuitModel::with_uniform_activity(&netlist, Technology::dac97(), 0.5, RENT_ACTIVITY);
    let problem = Problem::new(model, RENT_FC);
    RENT_CORNERS
        .iter()
        .map(|&(vdd, vt)| {
            let ctx = Arc::new(EvalContext::new(1, 0));
            let r = size_at_with(ctx, &problem, vdd, vt, &SearchOptions::default())
                .expect("rent corner sizes");
            let mut fields = vec![("fingerprint".to_string(), problem.model().fingerprint())];
            fields.extend(result_fields("", &r));
            Row {
                label: format!("rent{RENT_GATES}/seed{RENT_SEED} corner={vdd}/{vt}"),
                fields,
            }
        })
        .collect()
}

fn recompute() -> Vec<Row> {
    let netlists: Vec<_> = paper_suite()
        .into_iter()
        .filter(|n| !cfg!(debug_assertions) || DEBUG_CIRCUITS.contains(&n.name()))
        .collect();
    let work: Vec<_> = netlists
        .iter()
        .flat_map(|n| ACTIVITIES.map(|a| (n, a)))
        .collect();
    // Two workers: rows are independent and each is single-threaded work.
    let mut rows: Vec<Row> = std::thread::scope(|s| {
        let halves: Vec<_> = [0, 1]
            .map(|k| {
                let work = &work;
                s.spawn(move || {
                    work.iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == k)
                        .map(|(i, &(n, a))| (i, suite_row(n, a)))
                        .collect::<Vec<_>>()
                })
            })
            .into_iter()
            .collect();
        let mut rows: Vec<_> = halves
            .into_iter()
            .flat_map(|h| h.join().expect("row worker"))
            .collect();
        rows.sort_by_key(|(i, _)| *i);
        rows.into_iter().map(|(_, r)| r).collect()
    });
    rows.extend(rent_rows());
    rows
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "# minpower golden results. Every value is a 64-bit word in hex: an f64's\n\
         # IEEE-754 bits, or the model fingerprint. Suite rows: Table 1 (t1., fixed\n\
         # Vt = 700 mV) and Table 2 (t2., joint optimization) at 300 MHz. Rent rows:\n\
         # size_at at one corner, 150 MHz, activity 0.1. widths = FNV-1a over the\n\
         # width bits; vt = NaN when thresholds are not uniform.\n\
         # Recompute: cargo test --release -p minpower --test golden_results\n",
    );
    let _ = writeln!(out, "target {}", target());
    for row in rows {
        let _ = write!(out, "row {}", row.label);
        for (name, word) in &row.fields {
            let _ = write!(out, " | {name}={word:016x}");
        }
        out.push('\n');
    }
    out
}

/// Parses [`render`]'s format: the target and the rows.
fn parse(text: &str) -> (String, Vec<Row>) {
    let mut target = String::new();
    let mut rows = Vec::new();
    for line in text.lines() {
        if let Some(t) = line.strip_prefix("target ") {
            target = t.to_string();
        } else if let Some(rest) = line.strip_prefix("row ") {
            let mut parts = rest.split(" | ");
            let label = parts.next().expect("row label").to_string();
            let fields = parts
                .map(|f| {
                    let (name, hex) = f.split_once('=').expect("field is name=hex");
                    let word = u64::from_str_radix(hex, 16).expect("field value is hex");
                    (name.to_string(), word)
                })
                .collect();
            rows.push(Row { label, fields });
        }
    }
    (target, rows)
}

/// A field's word, shown as the f64 it encodes (fingerprints are hashes).
fn show(name: &str, word: u64) -> String {
    if name == "fingerprint" || name.ends_with("widths") {
        format!("{word:016x}")
    } else {
        format!("{:e} ({word:016x})", f64::from_bits(word))
    }
}

#[test]
fn results_match_the_golden_file_bit_for_bit() {
    let rows = recompute();
    let rendered = render(&rows);
    let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_results.txt");
    std::fs::write(&written, &rendered).expect("write recomputed golden file");

    let (golden_target, golden) = parse(GOLDEN);
    assert!(!golden.is_empty(), "the golden file has no rows");
    if golden_target != target() {
        println!(
            "golden file records target {golden_target}, this is {}: rows recomputed into {} \
             but not compared",
            target(),
            written.display()
        );
        return;
    }
    let hint = format!(
        "recomputed rows written to {}; a change that means to move results copies a \
         release run's file over tests/golden_results.txt",
        written.display()
    );
    for row in &rows {
        let Some(want) = golden.iter().find(|g| g.label == row.label) else {
            panic!("row `{}` is not in the golden file; {hint}", row.label);
        };
        let names = |r: &Row| r.fields.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(want),
            names(row),
            "row `{}`: field list differs; {hint}",
            row.label
        );
        for ((name, got), (_, exp)) in row.fields.iter().zip(&want.fields) {
            assert!(
                got == exp,
                "row `{}` field `{name}`: golden {} vs recomputed {}; {hint}",
                row.label,
                show(name, *exp),
                show(name, *got)
            );
        }
    }
    if !cfg!(debug_assertions) {
        for want in &golden {
            assert!(
                rows.iter().any(|r| r.label == want.label),
                "golden row `{}` was not recomputed; {hint}",
                want.label
            );
        }
    }
}
