//! Property-based algebra of [`StatsSnapshot::merge`]: the coordinator
//! merges per-shard snapshots in shard-index order, a restarted
//! coordinator merges recovered snapshots in whatever order recovery
//! finds them, and `/metrics` folds per-job snapshots incrementally —
//! all three agree only if merge is a commutative monoid (associative,
//! commutative, with the default snapshot as identity).
//!
//! Run with `cargo test -p minpower-engine --features proptest`.
#![cfg(feature = "proptest")]

use minpower_engine::StatsSnapshot;

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

    /// A counter value: usually moderate, sometimes zero, sometimes huge
    /// (but bounded so summing hundreds of them cannot overflow u64).
    fn counter(&mut self) -> u64 {
        match self.next_u64() % 8 {
            0 => 0,
            1 => self.next_u64() % (1 << 50),
            _ => self.next_u64() % 10_000,
        }
    }
}

fn random_snapshot(rng: &mut Rng) -> StatsSnapshot {
    StatsSnapshot {
        circuit_evals: rng.counter(),
        sta_calls: rng.counter(),
        cache_hits: rng.counter(),
        cache_misses: rng.counter(),
        incremental_commits: rng.counter(),
        incremental_gates: rng.counter(),
        sta_fallbacks: rng.counter(),
        deadline_trips: rng.counter(),
        faults_injected: rng.counter(),
        checkpoints_written: rng.counter(),
        checkpoint_bytes: rng.counter(),
        panics_recovered: rng.counter(),
        store_writes: rng.counter(),
        store_retries: rng.counter(),
        store_quarantined: rng.counter(),
        store_degraded_seconds: rng.counter(),
        retry_backoffs: rng.counter(),
        breaker_opens: rng.counter(),
        hedges_fired: rng.counter(),
        hedges_wasted: rng.counter(),
        phase_nanos: [rng.counter(), rng.counter(), rng.counter(), rng.counter()],
    }
}

fn merged(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    let mut out = *a;
    out.merge(b);
    out
}

#[test]
fn merge_is_associative() {
    for seed in 0..256u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xa5a5);
        let a = random_snapshot(&mut rng);
        let b = random_snapshot(&mut rng);
        let c = random_snapshot(&mut rng);
        assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c)),
            "seed {seed}: (a+b)+c != a+(b+c)"
        );
    }
}

#[test]
fn merge_is_commutative() {
    for seed in 0..256u64 {
        let mut rng = Rng(seed ^ 0xdead_beef);
        let a = random_snapshot(&mut rng);
        let b = random_snapshot(&mut rng);
        assert_eq!(merged(&a, &b), merged(&b, &a), "seed {seed}: a+b != b+a");
    }
}

#[test]
fn default_is_the_identity() {
    for seed in 0..64u64 {
        let mut rng = Rng(seed.wrapping_add(0x1111_2222_3333_4444));
        let a = random_snapshot(&mut rng);
        let zero = StatsSnapshot::default();
        assert_eq!(merged(&a, &zero), a, "seed {seed}: a+0 != a");
        assert_eq!(merged(&zero, &a), a, "seed {seed}: 0+a != a");
    }
}

#[test]
fn any_merge_order_folds_to_the_same_total() {
    // The fleet-level property the coordinator actually relies on: N
    // per-shard snapshots folded in any order — left fold, right fold, a
    // shuffled fold, pairwise tree reduction — give one total.
    for seed in 0..32u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9) | 1);
        let n = 2 + (rng.next_u64() % 30) as usize;
        let parts: Vec<StatsSnapshot> = (0..n).map(|_| random_snapshot(&mut rng)).collect();

        let left = parts
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| merged(&acc, s));
        let right = parts
            .iter()
            .rev()
            .fold(StatsSnapshot::default(), |acc, s| merged(&acc, s));

        // Deterministic shuffle.
        let mut shuffled = parts.clone();
        for i in (1..shuffled.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let any = shuffled
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| merged(&acc, s));

        // Pairwise tree reduction.
        let mut layer = parts.clone();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        merged(&pair[0], &pair[1])
                    } else {
                        pair[0]
                    }
                })
                .collect();
        }

        assert_eq!(left, right, "seed {seed}: left fold != right fold");
        assert_eq!(left, any, "seed {seed}: shuffled fold diverged");
        assert_eq!(left, layer[0], "seed {seed}: tree reduction diverged");
    }
}
