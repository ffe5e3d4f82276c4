//! Arrival / required / slack analysis, and the timing endpoints of the
//! width-sizing loops.

use minpower_netlist::{GateId, LevelizedCsr, Netlist};

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

/// Result of a static timing analysis pass: per-gate arrival and required
/// times and slacks against a cycle-time constraint.
///
/// Arrival times accumulate gate delays along the worst path from the
/// inputs; required times propagate the cycle time backwards from the
/// outputs. A negative slack anywhere means the delay assignment violates
/// the constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Sta {
    arrival: Vec<f64>,
    required: Vec<f64>,
    critical_delay: f64,
    cycle_time: f64,
}

impl Sta {
    /// Analyzes `netlist` under per-gate `delays` (indexed by
    /// [`GateId::index`], primary inputs expected at zero delay) against
    /// `cycle_time` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the gate count.
    pub fn analyze(netlist: &Netlist, delays: &[f64], cycle_time: f64) -> Self {
        let mut sta = Sta {
            arrival: Vec::new(),
            required: Vec::new(),
            critical_delay: 0.0,
            cycle_time,
        };
        sta.analyze_into(netlist, delays, cycle_time);
        sta
    }

    /// Re-runs the analysis in place, reusing this instance's arrival and
    /// required buffers — the allocation-free variant for callers that
    /// analyze in a loop. Produces exactly the state [`Sta::analyze`]
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the gate count.
    pub fn analyze_into(&mut self, netlist: &Netlist, delays: &[f64], cycle_time: f64) {
        assert_eq!(
            delays.len(),
            netlist.gate_count(),
            "one delay per gate required"
        );
        let n = netlist.gate_count();
        self.cycle_time = cycle_time;
        let arrival = &mut self.arrival;
        arrival.clear();
        arrival.resize(n, 0.0);
        for &id in netlist.topological_order() {
            let i = id.index();
            let latest = netlist
                .gate(id)
                .fanin()
                .iter()
                .map(|f| arrival[f.index()])
                .fold(0.0, f64::max);
            arrival[i] = latest + delays[i];
        }
        self.critical_delay = netlist
            .outputs()
            .iter()
            .map(|&o| arrival[o.index()])
            .fold(0.0, f64::max);

        let required = &mut self.required;
        required.clear();
        required.resize(n, f64::INFINITY);
        for &o in netlist.outputs() {
            required[o.index()] = cycle_time;
        }
        for &id in netlist.topological_order().iter().rev() {
            let i = id.index();
            for &f in netlist.gate(id).fanin() {
                let need = required[i] - delays[i];
                if need < required[f.index()] {
                    required[f.index()] = need;
                }
            }
        }
        // Gates that reach no output keep infinite required time; clamp to
        // the cycle time so their slack is finite and non-binding.
        for r in required.iter_mut() {
            if !r.is_finite() {
                *r = cycle_time;
            }
        }
    }

    /// Arrival time at gate `id`'s output, seconds.
    pub fn arrival(&self, id: GateId) -> f64 {
        self.arrival[id.index()]
    }

    /// Required time at gate `id`'s output, seconds.
    pub fn required(&self, id: GateId) -> f64 {
        self.required[id.index()]
    }

    /// Slack of gate `id`: `required − arrival`, seconds.
    pub fn slack(&self, id: GateId) -> f64 {
        self.required[id.index()] - self.arrival[id.index()]
    }

    /// The latest output arrival (the critical path delay), seconds.
    pub fn critical_delay(&self) -> f64 {
        self.critical_delay
    }

    /// The cycle-time constraint this analysis was run against, seconds.
    pub fn cycle_time(&self) -> f64 {
        self.cycle_time
    }

    /// Whether every output meets the cycle time.
    pub fn meets_constraint(&self) -> bool {
        self.critical_delay <= self.cycle_time
    }

    /// The smallest slack over all gates, seconds.
    pub fn worst_slack(&self) -> f64 {
        self.arrival
            .iter()
            .zip(self.required.iter())
            .map(|(a, r)| r - a)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpower_netlist::{GateKind, NetlistBuilder};

    fn diamond() -> Netlist {
        let mut b = NetlistBuilder::new("d");
        b.input("a").unwrap();
        b.gate("u", GateKind::Not, &["a"]).unwrap();
        b.gate("v", GateKind::Buf, &["a"]).unwrap();
        b.gate("y", GateKind::Nand, &["u", "v"]).unwrap();
        b.output("y").unwrap();
        b.finish().unwrap()
    }

    fn delays_of(n: &Netlist, pairs: &[(&str, f64)]) -> Vec<f64> {
        let mut d = vec![0.0; n.gate_count()];
        for (name, t) in pairs {
            d[n.find(name).unwrap().index()] = *t;
        }
        d
    }

    #[test]
    fn arrival_takes_worst_branch() {
        let n = diamond();
        let d = delays_of(&n, &[("u", 3.0), ("v", 1.0), ("y", 2.0)]);
        let sta = Sta::analyze(&n, &d, 10.0);
        assert_eq!(sta.arrival(n.find("y").unwrap()), 5.0);
        assert_eq!(sta.critical_delay(), 5.0);
        assert!(sta.meets_constraint());
    }

    #[test]
    fn slack_on_critical_path_is_uniform() {
        let n = diamond();
        let d = delays_of(&n, &[("u", 3.0), ("v", 1.0), ("y", 2.0)]);
        let sta = Sta::analyze(&n, &d, 6.0);
        // Critical path a→u→y: slack 1 everywhere on it.
        assert!((sta.slack(n.find("u").unwrap()) - 1.0).abs() < 1e-12);
        assert!((sta.slack(n.find("y").unwrap()) - 1.0).abs() < 1e-12);
        assert!((sta.worst_slack() - 1.0).abs() < 1e-12);
        // Off-critical branch has more slack.
        assert!(sta.slack(n.find("v").unwrap()) > 1.0);
    }

    #[test]
    fn violation_detected() {
        let n = diamond();
        let d = delays_of(&n, &[("u", 3.0), ("v", 1.0), ("y", 2.0)]);
        let sta = Sta::analyze(&n, &d, 4.0);
        assert!(!sta.meets_constraint());
        assert!(sta.worst_slack() < 0.0);
    }

    #[test]
    fn required_time_backpropagates() {
        let n = diamond();
        let d = delays_of(&n, &[("u", 3.0), ("v", 1.0), ("y", 2.0)]);
        let sta = Sta::analyze(&n, &d, 10.0);
        let y = n.find("y").unwrap();
        let u = n.find("u").unwrap();
        assert_eq!(sta.required(y), 10.0);
        assert_eq!(sta.required(u), 8.0);
        assert_eq!(sta.required(n.find("a").unwrap()), 5.0);
    }

    #[test]
    fn virtual_sinks_include_dangling_gates() {
        let mut b = NetlistBuilder::new("d");
        b.input("a").unwrap();
        b.gate("u", GateKind::Not, &["a"]).unwrap();
        b.gate("v", GateKind::Buf, &["a"]).unwrap();
        b.gate("y", GateKind::Nand, &["u", "v"]).unwrap();
        b.gate("dangle", GateKind::Not, &["u"]).unwrap();
        b.output("y").unwrap();
        let n = b.finish().unwrap();
        let sinks = virtual_sinks(&LevelizedCsr::new(&n));
        let y = n.find("y").unwrap().index() as u32;
        let dangle = n.find("dangle").unwrap().index() as u32;
        assert!(sinks.contains(&y));
        assert!(sinks.contains(&dangle));
    }

    #[test]
    #[should_panic(expected = "one delay per gate")]
    fn wrong_delay_length_panics() {
        let n = diamond();
        let _ = Sta::analyze(&n, &[0.0], 1.0);
    }
}
