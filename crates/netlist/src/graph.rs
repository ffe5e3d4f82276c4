//! The immutable, validated netlist DAG.

use std::collections::HashMap;

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};
use crate::stats::NetlistStats;

/// A validated combinational logic network.
///
/// Invariants established at construction and relied on by every downstream
/// crate:
///
/// * the gate set forms a DAG (no combinational cycles);
/// * every fanin reference resolves to a gate in the list;
/// * [`Netlist::topological_order`] lists every gate after all of its
///   fanins;
/// * fanout adjacency is the exact transpose of fanin adjacency.
///
/// Construct via [`NetlistBuilder`](crate::NetlistBuilder) or
/// [`bench::parse`](crate::bench::parse).
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    by_name: HashMap<String, GateId>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    /// `is_output_mask[i]` iff gate `i` is in `outputs`.
    is_output_mask: Vec<bool>,
    fanout: Vec<Vec<GateId>>,
    topo: Vec<GateId>,
    level: Vec<usize>,
    flip_flop_count: usize,
}

impl Netlist {
    pub(crate) fn from_parts(
        name: String,
        gates: Vec<Gate>,
        outputs: Vec<GateId>,
        flip_flop_count: usize,
    ) -> Result<Self, NetlistError> {
        let n = gates.len();
        let mut fanout: Vec<Vec<GateId>> = vec![Vec::new(); n];
        let mut indegree: Vec<usize> = vec![0; n];
        for (i, g) in gates.iter().enumerate() {
            indegree[i] = g.fanin.len();
            for &f in &g.fanin {
                fanout[f.index()].push(GateId::new(i));
            }
        }

        // Kahn's algorithm: topological order + cycle detection + levels.
        let mut topo = Vec::with_capacity(n);
        let mut level = vec![0usize; n];
        let mut ready: Vec<GateId> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(GateId::new)
            .collect();
        let mut remaining = indegree.clone();
        while let Some(id) = ready.pop() {
            topo.push(id);
            for &succ in &fanout[id.index()] {
                let s = succ.index();
                level[s] = level[s].max(level[id.index()] + 1);
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    ready.push(succ);
                }
            }
        }
        if topo.len() != n {
            let culprit = (0..n)
                .find(|&i| remaining[i] > 0)
                .map(|i| gates[i].name.clone())
                .unwrap_or_default();
            return Err(NetlistError::Cycle { gate: culprit });
        }

        let inputs: Vec<GateId> = gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind == GateKind::Input)
            .map(|(i, _)| GateId::new(i))
            .collect();
        let by_name = gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.name.clone(), GateId::new(i)))
            .collect();
        let mut is_output_mask = vec![false; n];
        for &o in &outputs {
            is_output_mask[o.index()] = true;
        }

        Ok(Netlist {
            name,
            gates,
            by_name,
            inputs,
            outputs,
            is_output_mask,
            fanout,
            topo,
            level,
            flip_flop_count,
        })
    }

    /// The netlist's name (typically the benchmark circuit name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of gates, including primary-input markers.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of logic gates (excludes primary-input markers). This is the
    /// `N` of the paper's problem statement.
    pub fn logic_gate_count(&self) -> usize {
        self.gates.len() - self.inputs.len()
    }

    /// Number of D flip-flops that were cut when deriving this
    /// combinational core from a sequential source (zero for natively
    /// combinational netlists).
    pub fn flip_flop_count(&self) -> usize {
        self.flip_flop_count
    }

    /// The gate record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// All gates, indexable by [`GateId::index`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary-input gate ids.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary-output gate ids.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Whether `id` is a declared primary output. `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist, as
    /// [`Netlist::gate`] does.
    pub fn is_output(&self, id: GateId) -> bool {
        self.is_output_mask[id.index()]
    }

    /// Gates driven by `id` (the transpose adjacency).
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        &self.fanout[id.index()]
    }

    /// Electrical fanout count used by the paper's criticality measure:
    /// the number of gate loads, with primary outputs counting as one load
    /// (they drive a pad or register).
    pub fn fanout_count(&self, id: GateId) -> usize {
        let loads = self.fanout[id.index()].len();
        if loads == 0 || self.is_output(id) {
            (loads + 1).max(1)
        } else {
            loads
        }
    }

    /// Looks up a gate id by net name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Gate ids in an order where every gate appears after all its fanins.
    pub fn topological_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Logic level (longest distance from a primary input) of each gate.
    pub fn level(&self, id: GateId) -> usize {
        self.level[id.index()]
    }

    /// Logic depth of the network: the maximum level over all gates.
    pub fn depth(&self) -> usize {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Evaluates the network on an input assignment, returning one value
    /// per gate (indexed by [`GateId::index`]).
    ///
    /// `assignment` maps each primary input (in [`Netlist::inputs`] order)
    /// to a logic value.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.inputs().len()`.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "assignment length must equal the number of primary inputs"
        );
        let mut value = vec![false; self.gates.len()];
        for (idx, &input) in self.inputs.iter().enumerate() {
            value[input.index()] = assignment[idx];
        }
        let mut buf = Vec::new();
        for &id in &self.topo {
            let g = &self.gates[id.index()];
            if g.kind == GateKind::Input {
                continue;
            }
            buf.clear();
            buf.extend(g.fanin.iter().map(|f| value[f.index()]));
            value[id.index()] = g.kind.eval(&buf);
        }
        value
    }

    /// Computes structural statistics for this netlist.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn mux() -> Netlist {
        let mut b = NetlistBuilder::new("mux");
        b.input("a").unwrap();
        b.input("b").unwrap();
        b.input("s").unwrap();
        b.gate("ns", GateKind::Not, &["s"]).unwrap();
        b.gate("t0", GateKind::Nand, &["a", "s"]).unwrap();
        b.gate("t1", GateKind::Nand, &["b", "ns"]).unwrap();
        b.gate("y", GateKind::Nand, &["t0", "t1"]).unwrap();
        b.output("y").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn topological_order_respects_fanin() {
        let n = mux();
        let mut pos = vec![0usize; n.gate_count()];
        for (p, &id) in n.topological_order().iter().enumerate() {
            pos[id.index()] = p;
        }
        for g in 0..n.gate_count() {
            for &f in n.gate(GateId::new(g)).fanin() {
                assert!(pos[f.index()] < pos[g]);
            }
        }
    }

    #[test]
    fn fanout_is_transpose_of_fanin() {
        let n = mux();
        for g in 0..n.gate_count() {
            let id = GateId::new(g);
            for &f in n.gate(id).fanin() {
                assert!(n.fanout(f).contains(&id));
            }
            for &succ in n.fanout(id) {
                assert!(n.gate(succ).fanin().contains(&id));
            }
        }
    }

    #[test]
    fn levels_and_depth() {
        let n = mux();
        let y = n.find("y").unwrap();
        assert_eq!(n.level(y), 3);
        assert_eq!(n.depth(), 3);
        for &input in n.inputs() {
            assert_eq!(n.level(input), 0);
        }
    }

    #[test]
    fn detects_cycles() {
        // Build a cycle by hand through from_parts.
        let gates = vec![
            Gate {
                name: "a".into(),
                kind: GateKind::Not,
                fanin: vec![GateId::new(1)],
            },
            Gate {
                name: "b".into(),
                kind: GateKind::Not,
                fanin: vec![GateId::new(0)],
            },
        ];
        let err = Netlist::from_parts("cyc".into(), gates, vec![GateId::new(0)], 0).unwrap_err();
        assert!(matches!(err, NetlistError::Cycle { .. }));
    }

    #[test]
    fn evaluate_mux_truth_table() {
        let n = mux();
        let y = n.find("y").unwrap().index();
        // inputs in declaration order: a, b, s. y = s ? a : b.
        for (a, b, s) in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (true, true, true),
            (false, true, true),
        ] {
            let v = n.evaluate(&[a, b, s]);
            let expect = if s { a } else { b };
            assert_eq!(v[y], expect, "a={a} b={b} s={s}");
        }
    }

    #[test]
    fn fanout_count_counts_po_load() {
        let n = mux();
        let y = n.find("y").unwrap();
        assert_eq!(n.fanout_count(y), 1); // pure PO load
        let s = n.find("s").unwrap();
        assert_eq!(n.fanout_count(s), 2); // drives t0 and ns
    }
}
