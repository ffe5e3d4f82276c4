//! Shared checks for the equivalence suites.

use minpower_core::{OptimizationResult, Problem};
use minpower_timing::{sink_critical, virtual_sinks};

/// Re-evaluates a sized design densely and asserts the reported energy
/// and critical delay match bit for bit. Needs `vt_tolerance == 0`, so
/// the reported (nominal) thresholds are also the timing and energy
/// corners.
pub fn assert_matches_dense(problem: &Problem, r: &OptimizationResult) {
    let model = problem.model();
    let energy = model.total_energy(&r.design, problem.fc());
    assert_eq!(r.energy.static_.to_bits(), energy.static_.to_bits());
    assert_eq!(r.energy.dynamic.to_bits(), energy.dynamic.to_bits());
    // An infeasible greedy ascent reports the best delay it reached, not
    // the delay of the saturated design it hands back.
    if r.feasible {
        let (mut delays, mut arrival) = (Vec::new(), Vec::new());
        model.timing_into(&r.design, &mut delays, &mut arrival);
        let critical = sink_critical(&virtual_sinks(model.csr()), &arrival).0;
        assert_eq!(r.critical_delay.to_bits(), critical.to_bits());
    }
}
