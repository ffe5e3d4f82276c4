//! Bit-identity of the batched SoA sizing path with its scalar and dense
//! oracles.
//!
//! Width sweeps run on the levelized SoA kernel and the post-sweep
//! repair on the warm incremental evaluator. With debug assertions (the
//! default `cargo test` profile), every sweep is checked bit for bit
//! against the scalar gate-by-gate sweep, and the warm evaluator against
//! a dense recompute after construction and after every repair probe.
//! These tests drive those oracles across the paper's ISCAS-style suite
//! and seeded Rent's-rule synthetic netlists, end to end through
//! Procedure 2, then re-evaluate each committed result densely. Release
//! builds compile the oracles out, so there the tests report as ignored.

mod common;

use std::sync::Arc;

use minpower_circuits::{paper_suite, synthesize, BenchmarkSpec};
use minpower_core::search::size_at_with;
use minpower_core::{EvalContext, Optimizer, Problem, SearchOptions};
use minpower_device::Technology;
use minpower_models::CircuitModel;
use minpower_netlist::Netlist;

const FC: f64 = 3.0e8;

fn problem_for(netlist: &Netlist) -> Problem {
    let model = CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, 0.3);
    Problem::new(model, FC)
}

/// Runs the standalone width-sizing stage at one `(V_dd, V_ts)` point
/// under the debug oracles and checks the result against a dense
/// re-evaluation.
fn assert_size_at_bit_identical(netlist: &Netlist, vdd: f64, vt: f64) {
    let problem = problem_for(netlist);
    let options = SearchOptions::default();
    let sized = size_at_with(
        Arc::new(EvalContext::new(1, 0)),
        &problem,
        vdd,
        vt,
        &options,
    )
    .expect("soa sizing");
    common::assert_matches_dense(&problem, &sized);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug dense oracle")]
fn soa_sizing_matches_scalar_on_paper_suite() {
    for netlist in paper_suite() {
        assert_size_at_bit_identical(&netlist, 2.5, 0.4);
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug dense oracle")]
fn soa_sizing_matches_scalar_on_rent_netlists() {
    for (gates, vdd, vt) in [(200usize, 3.0, 0.5), (800, 2.2, 0.35), (2000, 1.6, 0.25)] {
        let spec = BenchmarkSpec::rent(&format!("rent{gates}"), gates);
        let netlist = synthesize(&spec).expect("rent spec is valid");
        assert_size_at_bit_identical(&netlist, vdd, vt);
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug dense oracle")]
fn full_optimizer_matches_scalar_end_to_end() {
    let spec = BenchmarkSpec::rent("rent-e2e", 300);
    let netlist = synthesize(&spec).expect("rent spec is valid");
    let problem = problem_for(&netlist);
    let result = Optimizer::new(&problem)
        .with_engine(Arc::new(EvalContext::new(1, 0)))
        .run()
        .expect("optimizer run");
    assert!(result.feasible);
    common::assert_matches_dense(&problem, &result);
}

/// Randomized edit/width sequences: after arbitrary per-gate width and
/// threshold edits, the kernel's dense passes must stay bitwise equal to
/// the scalar model's, and Procedure 2's batched sizing must agree at
/// random operating points. Self-contained generators (see
/// `crates/timing/tests/incremental_properties.rs`); the feature gates
/// the heavier randomized wall time out of the default `cargo test`.
///
/// Run with `cargo test -p minpower-core --features proptest`.
#[cfg(feature = "proptest")]
mod randomized {
    use super::*;
    use minpower_models::{Design, SoaKernel};

    /// SplitMix64 — deterministic, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.next_f64() * (hi - lo)
        }
    }

    fn assert_dense_passes_match(
        model: &CircuitModel,
        kernel: &SoaKernel,
        design: &Design,
        case: u64,
    ) {
        let (mut d_a, mut a_a) = (Vec::new(), Vec::new());
        let (mut d_b, mut a_b) = (Vec::new(), Vec::new());
        let crit_scalar = model.timing_into(design, &mut d_a, &mut a_a);
        let crit_soa = kernel.timing_into(design, &mut d_b, &mut a_b);
        assert_eq!(
            crit_scalar.to_bits(),
            crit_soa.to_bits(),
            "critical delay diverged (case {case})"
        );
        for (i, (x, y)) in d_a.iter().zip(d_b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "delay[{i}] diverged (case {case})"
            );
        }
        for (i, (x, y)) in a_a.iter().zip(a_b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "arrival[{i}] diverged (case {case})"
            );
        }
        let e_scalar = model.total_energy(design, FC);
        let e_soa = kernel.total_energy(design, FC);
        assert_eq!(e_scalar.static_.to_bits(), e_soa.static_.to_bits());
        assert_eq!(e_scalar.dynamic.to_bits(), e_soa.dynamic.to_bits());
    }

    /// Random Rent netlists under random width/threshold edit storms:
    /// the kernel's dense STA + energy passes track the scalar model
    /// bitwise after every committed batch of edits.
    #[test]
    fn dense_passes_match_under_random_edit_sequences() {
        let mut rng = Rng(0x50A_D15E);
        for case in 0..24u64 {
            let gates = 50 + rng.below(350);
            let spec = BenchmarkSpec::rent(&format!("rent-prop{case}-{gates}"), gates);
            let netlist = synthesize(&spec).expect("rent spec is valid");
            let model =
                CircuitModel::with_uniform_activity(&netlist, Technology::dac97(), 0.5, 0.3);
            let kernel = SoaKernel::new(&model);
            let (w_lo, w_hi) = model.technology().w_range;

            let vdd = rng.range(1.0, 3.3);
            let mut design = Design::uniform(&netlist, vdd, rng.range(0.2, 0.6), 4.0);
            let n = design.width.len();
            for _batch in 0..4 {
                for _ in 0..rng.below(64) {
                    let g = rng.below(n);
                    design.width[g] = rng.range(w_lo, w_hi);
                    if rng.below(4) == 0 {
                        design.vt[g] = rng.range(0.2, 0.6);
                    }
                }
                assert_dense_passes_match(&model, &kernel, &design, case);
            }
        }
    }

    /// Random operating points through the full sizing stage: batched
    /// and serial width bisections commit identical bits everywhere in
    /// the `(V_dd, V_ts)` plane, feasible or not.
    #[test]
    fn sizing_matches_at_random_operating_points() {
        let spec = BenchmarkSpec::rent("rent-prop-size", 150);
        let netlist = synthesize(&spec).expect("rent spec is valid");
        let mut rng = Rng(0xB15EC7);
        for _ in 0..12 {
            let vdd = rng.range(1.2, 3.3);
            let vt = rng.range(0.2, 0.55);
            assert_size_at_bit_identical(&netlist, vdd, vt);
        }
    }
}
