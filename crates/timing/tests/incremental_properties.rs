//! Property-based equivalence: after every commit (and undo) of a random
//! edit sequence on a random netlist, `IncrementalSta`'s arrivals, critical
//! delay, critical sink and constraint check are bit-equal to a fresh
//! `Sta::analyze`.
//!
//! Run with `cargo test -p minpower-timing --features proptest`.
#![cfg(feature = "proptest")]

use std::sync::Arc;

use minpower_netlist::{GateId, GateKind, LevelizedCsr, Netlist, NetlistBuilder};
use minpower_timing::incremental::{sink_critical, virtual_sinks};
use minpower_timing::{IncrementalSta, Sta};

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

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn delay(&mut self) -> f64 {
        // Mix of ordinary magnitudes, zeros, and the occasional infinity —
        // the delay model emits +inf for non-driving widths.
        match self.next_u64() % 16 {
            0 => 0.0,
            1 => f64::INFINITY,
            r => (r as f64) * 1e-10 + (self.next_u64() % 1000) as f64 * 1e-12,
        }
    }
}

fn random_netlist(rng: &mut Rng) -> Netlist {
    let n_inputs = 2 + rng.below(5);
    let n_gates = 5 + rng.below(60);
    let mut b = NetlistBuilder::new("prop");
    let mut names: Vec<String> = Vec::new();
    for i in 0..n_inputs {
        let name = format!("i{i}");
        b.input(&name).unwrap();
        names.push(name);
    }
    for g in 0..n_gates {
        let name = format!("g{g}");
        let fanin_count = 1 + rng.below(3);
        let fanins: Vec<String> = (0..fanin_count)
            .map(|_| names[rng.below(names.len())].clone())
            .collect();
        let refs: Vec<&str> = fanins.iter().map(String::as_str).collect();
        let kind = match rng.below(3) {
            0 => GateKind::Nand,
            1 => GateKind::Nor,
            _ => GateKind::Not,
        };
        let kept = if kind == GateKind::Not {
            &refs[..1]
        } else {
            &refs[..]
        };
        b.gate(&name, kind, kept).unwrap();
        names.push(name);
    }
    for g in 0..n_gates - 1 {
        if rng.below(4) == 0 {
            b.output(&format!("g{g}")).unwrap();
        }
    }
    // At least one declared output is required for a valid netlist.
    b.output(&format!("g{}", n_gates - 1)).unwrap();
    b.finish().unwrap()
}

fn assert_bit_equal(inc: &IncrementalSta, netlist: &Netlist, delays: &[f64], tc: f64, case: &str) {
    let sta = Sta::analyze(netlist, delays, tc);
    let mut dense = Vec::with_capacity(netlist.gate_count());
    for i in 0..netlist.gate_count() {
        let id = GateId::new(i);
        dense.push(sta.arrival(id));
        assert_eq!(
            inc.arrival(id).to_bits(),
            sta.arrival(id).to_bits(),
            "{case}: arrival[{i}]"
        );
    }
    assert_eq!(
        inc.critical_delay().to_bits(),
        sta.critical_delay().to_bits(),
        "{case}: critical"
    );
    let (crit, gate) = sink_critical(&virtual_sinks(&LevelizedCsr::new(netlist)), &dense);
    assert_eq!(
        inc.critical_sink().0.to_bits(),
        crit.to_bits(),
        "{case}: sink"
    );
    assert_eq!(inc.critical_sink().1, gate, "{case}: sink gate");
    assert_eq!(
        inc.meets_constraint(),
        sta.meets_constraint(),
        "{case}: constraint"
    );
}

fn forward_only(netlist: &Netlist, delays: &[f64], tc: f64) -> IncrementalSta {
    IncrementalSta::forward_only(Arc::new(LevelizedCsr::new(netlist)), delays, tc)
}

#[test]
fn random_edit_sequences_stay_bit_equal_to_full_sta() {
    // Commits whose cone passes the fallback fraction take the dense path;
    // both paths must occur across the seeds.
    let (mut worklist, mut fallbacks) = (0usize, 0usize);
    for seed in 0..32u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 0x1234);
        let netlist = random_netlist(&mut rng);
        let n = netlist.gate_count();
        let tc = 1e-9;
        let mut delays: Vec<f64> = (0..n).map(|_| rng.delay()).collect();
        let mut inc = forward_only(&netlist, &delays, tc);
        assert_bit_equal(&inc, &netlist, &delays, tc, &format!("seed {seed} init"));
        for step in 0..80 {
            let batch = 1 + rng.below(3);
            let mut moved = Vec::with_capacity(batch);
            for _ in 0..batch {
                let g = rng.below(n);
                delays[g] = rng.delay();
                moved.push(g as u32);
            }
            let commit = inc.commit(&delays, moved);
            assert!(commit.gates_touched as usize <= n);
            if commit.fallback {
                assert_eq!(commit.gates_touched as usize, n);
                fallbacks += 1;
            } else {
                worklist += 1;
            }
            assert_bit_equal(
                &inc,
                &netlist,
                &delays,
                tc,
                &format!("seed {seed} step {step}"),
            );
        }
    }
    assert!(worklist > 0, "no commit stayed on the worklist");
    assert!(fallbacks > 0, "no commit fell back to the dense pass");
}

#[test]
fn random_undo_round_trips_bit_exactly() {
    for seed in 0..16u64 {
        let mut rng = Rng(seed ^ 0xdead_beef);
        let netlist = random_netlist(&mut rng);
        let n = netlist.gate_count();
        let tc = 5e-10;
        let mut delays: Vec<f64> = (0..n).map(|_| rng.delay()).collect();
        let mut inc = forward_only(&netlist, &delays, tc);
        for step in 0..40 {
            let g = rng.below(n);
            let old = delays[g];
            delays[g] = rng.delay();
            inc.commit(&delays, [g as u32]);
            inc.undo();
            delays[g] = old;
            assert_bit_equal(
                &inc,
                &netlist,
                &delays,
                tc,
                &format!("seed {seed} step {step}"),
            );
        }
    }
}
