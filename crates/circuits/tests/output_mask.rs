//! `Netlist::is_output` is an `O(1)` mask lookup built at construction.
//! These checks hold it to its definition — membership in `outputs()` —
//! on generated Rent netlists and on parsed `.bench` text, together with
//! the `fanout_count` values derived from it.

use minpower_circuits::{paper_suite, s27, synthesize, BenchmarkSpec};
use minpower_netlist::{bench, GateId, Netlist};

/// `fanout_count` as defined by a linear scan of the primary outputs.
fn fanout_count_by_scan(n: &Netlist, id: GateId) -> usize {
    let loads = n.fanout(id).len();
    if loads == 0 || n.outputs().contains(&id) {
        (loads + 1).max(1)
    } else {
        loads
    }
}

fn assert_mask_matches_outputs(n: &Netlist) {
    for i in 0..n.gate_count() {
        let id = GateId::new(i);
        assert_eq!(
            n.is_output(id),
            n.outputs().contains(&id),
            "{}: gate {i}",
            n.name()
        );
        assert_eq!(
            n.fanout_count(id),
            fanout_count_by_scan(n, id),
            "{}: fanout_count of gate {i}",
            n.name()
        );
    }
}

#[test]
fn mask_matches_outputs_on_seeded_rent_netlists() {
    for seed in [1, 2, 3, 7] {
        let spec = BenchmarkSpec {
            seed,
            ..BenchmarkSpec::rent("rent", 1500)
        };
        let n = synthesize(&spec).unwrap();
        assert!(
            n.outputs().len() > 50,
            "Rent terminals: {}",
            n.outputs().len()
        );
        assert_mask_matches_outputs(&n);
    }
}

#[test]
fn mask_matches_outputs_on_parsed_bench() {
    // The genuine s27 is parsed from its `.bench` text; the largest suite
    // stand-in goes through a write/parse round trip.
    assert_mask_matches_outputs(&s27());
    let s713 = paper_suite().pop().unwrap();
    let parsed = bench::parse("s713", &bench::write(&s713)).unwrap();
    assert_eq!(parsed.outputs().len(), s713.outputs().len());
    assert_mask_matches_outputs(&parsed);
}
