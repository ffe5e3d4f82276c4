//! Incremental arrival-time analysis over dirty fanout cones.
//!
//! The paper's sizing procedures ask one timing question per probe: does
//! the latest output arrival still meet the cycle time? [`Sta`](crate::Sta)
//! answers it from scratch. The width-sizing inner loops change one gate
//! at a time, which perturbs only the changed gate's delay, its fanins'
//! delays (their output loads changed) and the downstream arrival cone —
//! usually a tiny slice of the netlist. [`IncrementalSta`] keeps the
//! arrival vector warm over a shared [`LevelizedCsr`]. The caller owns the
//! delay vector; after editing it, the caller names the gates whose delay
//! moved, and [`commit`](IncrementalSta::commit) repairs exactly the
//! affected arrival cone with a worklist bucketed by logic level.
//!
//! Two properties make the repair *bit-identical* to a full
//! [`Sta::analyze`](crate::Sta::analyze) pass rather than merely close:
//!
//! * every arrival is a pure function of its neighbours' values
//!   (`arrival[i] = max(fanin arrivals) + delay[i]`, folded in the
//!   netlist's fanin order), so re-evaluating a complete dirty cone
//!   converges to exactly the full-pass fixed point;
//! * propagation stops on **bitwise** equality (`f64::to_bits`), never on an
//!   epsilon, so the dirty frontier cannot silently absorb a real change.
//!
//! Every commit journals the arrivals it overwrites, so a rejected probe
//! can [`undo`](IncrementalSta::undo) in O(cone) without recomputation.
//! When the dirty set exceeds [`DEFAULT_FALLBACK_FRACTION`] of the
//! netlist, the commit falls back to a (journaled) dense pass — the
//! worklist's bookkeeping would otherwise cost more than the dense loop.

use std::sync::Arc;

use minpower_netlist::{GateId, LevelizedCsr};

/// Fraction of the gate count beyond which a commit abandons the dirty
/// worklist and re-runs one dense pass (still journaled, still
/// bit-identical).
pub const DEFAULT_FALLBACK_FRACTION: f64 = 0.25;

/// Outcome of one [`IncrementalSta::commit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commit {
    /// Latest primary-output arrival after the commit, seconds.
    pub critical_delay: f64,
    /// Arrival recomputations the commit performed — the dirty-cone
    /// size, or the gate count after a fallback.
    pub gates_touched: u32,
    /// Whether the commit abandoned the worklist for a dense pass.
    pub fallback: bool,
}

/// Gates whose arrivals the sizers treat as timing endpoints: declared
/// primary outputs plus gates with no fanout (dangling cones still have to
/// settle within the cycle). Returned in ascending gate index, which fixes
/// the tie-breaking of [`sink_critical`].
pub fn virtual_sinks(csr: &LevelizedCsr) -> Vec<u32> {
    let mut sink: Vec<bool> = (0..csr.gate_count())
        .map(|i| csr.fanout_of(i).is_empty())
        .collect();
    for &o in csr.outputs() {
        sink[o as usize] = true;
    }
    (0..csr.gate_count() as u32)
        .filter(|&i| sink[i as usize])
        .collect()
}

/// The latest sink arrival and the first sink attaining it (strictly-greater
/// scan from zero — the tie-breaking every sizing loop in `minpower-core`
/// relies on). `sinks` must be in ascending index order, as produced by
/// [`virtual_sinks`].
pub fn sink_critical(sinks: &[u32], arrival: &[f64]) -> (f64, Option<GateId>) {
    let mut crit = 0.0f64;
    let mut crit_gate = None;
    for &s in sinks {
        let a = arrival[s as usize];
        if a > crit {
            crit = a;
            crit_gate = Some(GateId::new(s as usize));
        }
    }
    (crit, crit_gate)
}

/// Forward-only incremental arrival analysis with transactional commits.
///
/// Construct with [`forward_only`](Self::forward_only) over a shared
/// [`LevelizedCsr`] and the current delays. After changing delays, call
/// [`commit`](Self::commit) with the new delay vector and the gates whose
/// delay moved; roll the *most recent* commit back with
/// [`undo`](Self::undo) once the caller has restored its delays.
///
/// In builds with debug assertions every commit cross-checks itself against
/// a dense recomputation and panics on any bitwise divergence.
#[derive(Debug, Clone)]
pub struct IncrementalSta {
    csr: Arc<LevelizedCsr>,
    cycle_time: f64,
    /// [`virtual_sinks`] of the topology.
    sinks: Vec<u32>,
    arrival: Vec<f64>,
    // The levelized worklist: one bucket per level.
    queued: Vec<bool>,
    buckets: Vec<Vec<u32>>,
    /// `(gate, previous arrival)` overwrites of the most recent commit.
    journal: Vec<(u32, f64)>,
    has_commit: bool,
}

impl IncrementalSta {
    /// Builds the analyzer over `csr` and runs an initial dense pass.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the gate count.
    pub fn forward_only(csr: Arc<LevelizedCsr>, delays: &[f64], cycle_time: f64) -> Self {
        let n = csr.gate_count();
        let mut sta = IncrementalSta {
            sinks: virtual_sinks(&csr),
            cycle_time,
            arrival: vec![0.0; n],
            queued: vec![false; n],
            buckets: vec![Vec::new(); csr.level_count()],
            journal: Vec::new(),
            has_commit: false,
            csr,
        };
        sta.reanalyze(delays);
        sta
    }

    /// Recomputes every arrival densely from `delays` — for wholesale
    /// delay changes on the same topology. Leaves nothing to undo.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the gate count.
    pub fn reanalyze(&mut self, delays: &[f64]) {
        assert_eq!(
            delays.len(),
            self.arrival.len(),
            "one delay per gate required"
        );
        self.full_forward(delays);
        self.journal.clear();
        self.has_commit = false;
    }

    /// Moves the cycle-time constraint. Arrivals do not depend on it.
    pub fn set_cycle_time(&mut self, cycle_time: f64) {
        self.cycle_time = cycle_time;
    }

    /// Repairs the arrival cone of the gates in `moved` against the
    /// caller's updated `delays`, and returns the commit summary. `moved`
    /// must name every gate whose delay changed since the arrivals were
    /// last brought up to date; naming an unchanged gate costs one
    /// recomputation and changes nothing. The overwritten arrivals are
    /// journaled so [`undo`](Self::undo) can restore them exactly.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the gate count.
    pub fn commit(&mut self, delays: &[f64], moved: impl IntoIterator<Item = u32>) -> Commit {
        assert_eq!(
            delays.len(),
            self.arrival.len(),
            "one delay per gate required"
        );
        self.journal.clear();
        self.has_commit = true;
        let csr = Arc::clone(&self.csr);
        for g in moved {
            self.enqueue(g);
        }

        let n = self.arrival.len();
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let threshold = (DEFAULT_FALLBACK_FRACTION * n as f64) as usize;
        let mut touched = 0usize;
        let mut fallback = false;

        // Repair arrivals level by level. Fanout edges strictly increase
        // the level, so once a level's bucket drains it stays drained.
        'levels: for lvl in 0..self.buckets.len() {
            while let Some(i) = self.buckets[lvl].pop() {
                let gi = i as usize;
                self.queued[gi] = false;
                touched += 1;
                if touched > threshold {
                    fallback = true;
                    break 'levels;
                }
                let new = self.recompute_arrival(delays, gi);
                if new.to_bits() != self.arrival[gi].to_bits() {
                    self.journal.push((i, self.arrival[gi]));
                    self.arrival[gi] = new;
                    for &s in csr.fanout_of(gi) {
                        self.enqueue(s);
                    }
                }
            }
        }

        if fallback {
            self.clear_worklist();
            self.full_forward(delays);
            touched = n;
        }

        #[cfg(debug_assertions)]
        self.assert_consistent(delays);

        Commit {
            critical_delay: self.critical_delay(),
            gates_touched: u32::try_from(touched).unwrap_or(u32::MAX),
            fallback,
        }
    }

    /// Rolls back the most recent [`commit`](Self::commit), restoring every
    /// overwritten arrival bit-exactly. The caller restores its own delays.
    ///
    /// # Panics
    ///
    /// Panics if there is no commit to undo (none yet, or already undone).
    pub fn undo(&mut self) {
        assert!(self.has_commit, "no commit to undo");
        self.has_commit = false;
        for (i, old) in self.journal.drain(..).rev() {
            self.arrival[i as usize] = old;
        }
    }

    fn enqueue(&mut self, gate: u32) {
        let gi = gate as usize;
        if !self.queued[gi] {
            self.queued[gi] = true;
            self.buckets[self.csr.level_of(gi)].push(gate);
        }
    }

    fn clear_worklist(&mut self) {
        for bucket in &mut self.buckets {
            for &i in bucket.iter() {
                self.queued[i as usize] = false;
            }
            bucket.clear();
        }
    }

    fn recompute_arrival(&self, delays: &[f64], i: usize) -> f64 {
        let latest = self
            .csr
            .fanin_of(i)
            .iter()
            .map(|&f| self.arrival[f as usize])
            .fold(0.0, f64::max);
        latest + delays[i]
    }

    /// The dense pass, in level order, journaling every arrival it moves.
    fn full_forward(&mut self, delays: &[f64]) {
        let csr = Arc::clone(&self.csr);
        for &i in csr.order() {
            let new = self.recompute_arrival(delays, i as usize);
            if new.to_bits() != self.arrival[i as usize].to_bits() {
                self.journal.push((i, self.arrival[i as usize]));
                self.arrival[i as usize] = new;
            }
        }
    }

    /// Current per-gate arrival times (indexed by [`GateId::index`]).
    pub fn arrivals(&self) -> &[f64] {
        &self.arrival
    }

    /// Arrival time at gate `id`'s output, seconds.
    pub fn arrival(&self, id: GateId) -> f64 {
        self.arrival[id.index()]
    }

    /// The latest primary-output arrival, seconds.
    pub fn critical_delay(&self) -> f64 {
        self.csr
            .outputs()
            .iter()
            .map(|&o| self.arrival[o as usize])
            .fold(0.0, f64::max)
    }

    /// The latest arrival over the [`virtual_sinks`] and the first sink
    /// attaining it — the endpoint semantics of the width-sizing loops.
    pub fn critical_sink(&self) -> (f64, Option<GateId>) {
        sink_critical(&self.sinks, &self.arrival)
    }

    /// The cycle-time constraint, seconds.
    pub fn cycle_time(&self) -> f64 {
        self.cycle_time
    }

    /// Whether every output meets the cycle time.
    pub fn meets_constraint(&self) -> bool {
        self.critical_delay() <= self.cycle_time
    }

    /// Recomputes the arrivals densely from `delays` and panics if any
    /// stored arrival differs bitwise — the incremental repair must land
    /// on exactly the full-pass fixed point. Runs automatically after
    /// every commit in builds with debug assertions.
    pub fn assert_consistent(&self, delays: &[f64]) {
        let dense = IncrementalSta::forward_only(Arc::clone(&self.csr), delays, self.cycle_time);
        for (i, (full, inc)) in dense.arrival.iter().zip(&self.arrival).enumerate() {
            assert!(
                full.to_bits() == inc.to_bits(),
                "arrival[{i}] diverged: incremental {inc:e} vs full {full:e}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sta;
    use minpower_netlist::{GateKind, Netlist, NetlistBuilder};

    fn diamond() -> Netlist {
        let mut b = NetlistBuilder::new("d");
        b.input("a").unwrap();
        b.gate("u", GateKind::Not, &["a"]).unwrap();
        b.gate("v", GateKind::Buf, &["a"]).unwrap();
        b.gate("y", GateKind::Nand, &["u", "v"]).unwrap();
        b.gate("dangle", GateKind::Not, &["u"]).unwrap();
        b.output("y").unwrap();
        b.finish().unwrap()
    }

    /// Deterministic pseudo-random DAG: `n_inputs` inputs then `n_gates`
    /// two-input gates with fanins drawn from earlier gates.
    fn random_netlist(n_inputs: usize, n_gates: usize, seed: u64) -> Netlist {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut b = NetlistBuilder::new("rand");
        let mut names: Vec<String> = Vec::new();
        for i in 0..n_inputs {
            let name = format!("i{i}");
            b.input(&name).unwrap();
            names.push(name);
        }
        for g in 0..n_gates {
            let name = format!("g{g}");
            let a = names[next(names.len())].clone();
            let c = names[next(names.len())].clone();
            b.gate(&name, GateKind::Nand, &[&a, &c]).unwrap();
            names.push(name);
        }
        // Declare a few gates as outputs; dangling ones stay virtual sinks.
        for g in (0..n_gates).step_by(3) {
            b.output(&format!("g{g}")).unwrap();
        }
        b.finish().unwrap()
    }

    fn sta(netlist: &Netlist, delays: &[f64], tc: f64) -> IncrementalSta {
        IncrementalSta::forward_only(Arc::new(LevelizedCsr::new(netlist)), delays, tc)
    }

    /// Arrivals, critical delay, critical sink and the constraint check
    /// against a fresh dense [`Sta::analyze`].
    fn assert_matches_sta(inc: &IncrementalSta, netlist: &Netlist, delays: &[f64], tc: f64) {
        let sta = Sta::analyze(netlist, delays, tc);
        let mut dense = Vec::with_capacity(netlist.gate_count());
        for i in 0..netlist.gate_count() {
            let id = GateId::new(i);
            dense.push(sta.arrival(id));
            assert_eq!(
                inc.arrival(id).to_bits(),
                sta.arrival(id).to_bits(),
                "arrival {i}"
            );
        }
        assert_eq!(
            inc.critical_delay().to_bits(),
            sta.critical_delay().to_bits()
        );
        let sinks = virtual_sinks(&LevelizedCsr::new(netlist));
        let (crit, gate) = sink_critical(&sinks, &dense);
        assert_eq!(inc.critical_sink().0.to_bits(), crit.to_bits());
        assert_eq!(inc.critical_sink().1, gate);
        assert_eq!(inc.meets_constraint(), sta.meets_constraint());
    }

    #[test]
    fn initial_analysis_matches_sta() {
        let n = diamond();
        let delays: Vec<f64> = (0..n.gate_count()).map(|i| i as f64 * 0.25).collect();
        let inc = sta(&n, &delays, 10.0);
        assert_matches_sta(&inc, &n, &delays, 10.0);
    }

    #[test]
    fn edits_track_sta_bit_exactly() {
        for seed in 1..=4u64 {
            let n = random_netlist(4, 40, seed);
            let mut delays: Vec<f64> = (0..n.gate_count())
                .map(|i| ((i * 37 + 11) % 17) as f64 * 0.1)
                .collect();
            let mut inc = sta(&n, &delays, 7.5);
            let mut state = seed | 1;
            for step in 0..60 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let g = (state >> 33) as usize % n.gate_count();
                let d = ((state >> 11) % 1000) as f64 * 0.01;
                delays[g] = d;
                let c = inc.commit(&delays, [g as u32]);
                assert!(c.critical_delay >= 0.0, "step {step}");
                assert_matches_sta(&inc, &n, &delays, 7.5);
            }
        }
    }

    #[test]
    fn batched_edits_commit_together() {
        let n = diamond();
        let mut delays = vec![0.0; n.gate_count()];
        let mut inc = sta(&n, &delays, 5.0);
        for (i, d) in [(1usize, 2.0), (2, 0.5), (3, 1.25)] {
            delays[i] = d;
        }
        let c = inc.commit(&delays, [1, 2, 3]);
        assert!(!c.fallback || c.gates_touched as usize == n.gate_count());
        assert_matches_sta(&inc, &n, &delays, 5.0);
    }

    #[test]
    fn undo_restores_pre_commit_state() {
        let n = random_netlist(3, 30, 9);
        let mut delays: Vec<f64> = (0..n.gate_count()).map(|i| (i % 7) as f64 * 0.3).collect();
        let original = delays.clone();
        let mut inc = sta(&n, &delays, 9.0);
        let before = inc.clone();
        let last = n.gate_count() - 1;
        delays[last] = 42.0;
        delays[4] = 1.5;
        inc.commit(&delays, [last as u32, 4]);
        inc.undo();
        for i in 0..n.gate_count() {
            let id = GateId::new(i);
            assert_eq!(inc.arrival(id).to_bits(), before.arrival(id).to_bits());
        }
        assert_matches_sta(&inc, &n, &original, 9.0);
    }

    #[test]
    #[should_panic(expected = "no commit to undo")]
    fn double_undo_panics() {
        let n = diamond();
        let mut delays = vec![0.0; n.gate_count()];
        let mut inc = sta(&n, &delays, 1.0);
        delays[1] = 1.0;
        inc.commit(&delays, [1]);
        inc.undo();
        inc.undo();
    }

    /// A cone past [`DEFAULT_FALLBACK_FRACTION`] of the gates takes the
    /// dense path; a small one does not. Both land on the dense fixed
    /// point and undo exactly.
    #[test]
    fn forced_fallback_stays_bit_identical() {
        let n = random_netlist(4, 25, 3);
        let mut delays: Vec<f64> = vec![0.1; n.gate_count()];
        let mut inc = sta(&n, &delays, 4.0);
        // Gate 6 feeds most of the netlist: its slowdown moves every
        // downstream arrival.
        delays[6] = 2.0;
        let c = inc.commit(&delays, [6]);
        assert!(c.fallback);
        assert_eq!(c.gates_touched as usize, n.gate_count());
        assert_matches_sta(&inc, &n, &delays, 4.0);
        inc.undo();
        delays[6] = 0.1;
        assert_matches_sta(&inc, &n, &delays, 4.0);
        // The last gate has no fanout: a one-gate cone.
        let last = n.gate_count() - 1;
        delays[last] = 2.0;
        let c = inc.commit(&delays, [last as u32]);
        assert!(!c.fallback);
        assert_eq!(c.gates_touched, 1);
        assert_matches_sta(&inc, &n, &delays, 4.0);
    }

    #[test]
    fn infinite_delays_are_handled() {
        // An infinite delay makes downstream arrivals infinite; both paths
        // must agree regardless.
        let n = random_netlist(3, 20, 5);
        let mut delays: Vec<f64> = vec![0.2; n.gate_count()];
        let mut inc = sta(&n, &delays, 3.0);
        for (g, d) in [
            (5usize, f64::INFINITY),
            (9, 0.7),
            (5, 0.3),
            (12, f64::INFINITY),
        ] {
            delays[g] = d;
            inc.commit(&delays, [g as u32]);
            assert_matches_sta(&inc, &n, &delays, 3.0);
        }
    }

    #[test]
    fn forward_only_tracks_critical_delay() {
        let n = diamond();
        let mut delays = vec![0.0; n.gate_count()];
        let mut inc = sta(&n, &delays, 5.0);
        delays[1] = 3.0;
        delays[3] = 2.0;
        let c = inc.commit(&delays, [1, 3]);
        let sta = Sta::analyze(&n, &delays, 5.0);
        assert_eq!(c.critical_delay.to_bits(), sta.critical_delay().to_bits());
        let (crit, gate) = inc.critical_sink();
        assert!(crit >= sta.critical_delay());
        assert!(gate.is_some());
        inc.set_cycle_time(4.0);
        assert!(!inc.meets_constraint());
        assert_matches_sta(&inc, &n, &delays, 4.0);
    }

    #[test]
    fn virtual_sinks_include_dangling_gates() {
        let n = diamond();
        let sinks = virtual_sinks(&LevelizedCsr::new(&n));
        let y = n.find("y").unwrap().index() as u32;
        let dangle = n.find("dangle").unwrap().index() as u32;
        assert!(sinks.contains(&y));
        assert!(sinks.contains(&dangle));
    }
}
