//! Incremental netlist construction.

use std::collections::{HashMap, HashSet};

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};
use crate::graph::Netlist;

/// Incremental builder for a [`Netlist`].
///
/// Gates are added by name; fanins may reference any previously added net.
/// Forward references are rejected immediately (use [`crate::bench::parse`]
/// for formats that permit them — it performs a two-pass build).
/// [`NetlistBuilder::finish`] validates the structure (fanin arities,
/// acyclicity, presence of outputs) and produces the immutable netlist.
///
/// # Example
///
/// ```
/// use minpower_netlist::{GateKind, NetlistBuilder};
/// # fn main() -> Result<(), minpower_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("inv_chain");
/// b.input("a")?;
/// b.gate("x", GateKind::Not, &["a"])?;
/// b.gate("y", GateKind::Not, &["x"])?;
/// b.output("y")?;
/// let n = b.finish()?;
/// assert_eq!(n.gate_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    by_name: HashMap<String, GateId>,
    /// Declared outputs in first-declaration order; `output_set` holds
    /// the same ids for `O(1)` deduplication.
    outputs: Vec<GateId>,
    output_set: HashSet<GateId>,
    flip_flop_count: usize,
}

impl NetlistBuilder {
    /// Creates an empty builder for a netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            gates: Vec::new(),
            by_name: HashMap::new(),
            outputs: Vec::new(),
            output_set: HashSet::new(),
            flip_flop_count: 0,
        }
    }

    /// Adds a primary input net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name already exists.
    pub fn input(&mut self, name: &str) -> Result<GateId, NetlistError> {
        self.push(name, GateKind::Input, Vec::new())
    }

    /// Adds a logic gate driven by the named fanin nets.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] for a redefined output net,
    /// [`NetlistError::UndefinedNet`] for a fanin that does not exist yet,
    /// and [`NetlistError::BadFaninCount`] if the arity is illegal for the
    /// kind (unary kinds need exactly one fanin, all other logic kinds at
    /// least one).
    pub fn gate(
        &mut self,
        name: &str,
        kind: GateKind,
        fanin: &[&str],
    ) -> Result<GateId, NetlistError> {
        let mut ids = Vec::with_capacity(fanin.len());
        for net in fanin {
            let id = self
                .by_name
                .get(*net)
                .copied()
                .ok_or_else(|| NetlistError::UndefinedNet {
                    gate: name.to_string(),
                    net: (*net).to_string(),
                })?;
            ids.push(id);
        }
        self.gate_by_id(name, kind, ids)
    }

    /// Adds a logic gate with fanins given as already-resolved [`GateId`]s.
    ///
    /// # Errors
    ///
    /// Same as [`NetlistBuilder::gate`], except fanin existence is
    /// guaranteed by construction of the ids.
    pub fn gate_by_id(
        &mut self,
        name: &str,
        kind: GateKind,
        fanin: Vec<GateId>,
    ) -> Result<GateId, NetlistError> {
        check_arity(name, kind, fanin.len())?;
        self.push(name, kind, fanin)
    }

    /// Declares an existing net as a primary output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownOutput`] if no net with that name
    /// exists.
    pub fn output(&mut self, name: &str) -> Result<(), NetlistError> {
        let id = self
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UnknownOutput(name.to_string()))?;
        if self.output_set.insert(id) {
            self.outputs.push(id);
        }
        Ok(())
    }

    /// Records that `count` D flip-flops were cut out of the sequential
    /// source (used by the `.bench` parser so statistics can report them).
    pub fn record_flip_flops(&mut self, count: usize) {
        self.flip_flop_count += count;
    }

    /// Looks up a net id by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether no gates have been added.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoOutputs`] if no primary output was declared
    /// and [`NetlistError::Cycle`] if the gates do not form a DAG.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        Netlist::from_parts(self.name, self.gates, self.outputs, self.flip_flop_count)
    }

    fn push(
        &mut self,
        name: &str,
        kind: GateKind,
        fanin: Vec<GateId>,
    ) -> Result<GateId, NetlistError> {
        if self.by_name.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_string()));
        }
        let id = GateId::new(self.gates.len());
        self.gates.push(Gate {
            name: name.to_string(),
            kind,
            fanin,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }
}

fn check_arity(name: &str, kind: GateKind, got: usize) -> Result<(), NetlistError> {
    let bad = match kind {
        GateKind::Input => got != 0,
        GateKind::Not | GateKind::Buf => got != 1,
        _ => got == 0,
    };
    if bad {
        Err(NetlistError::BadFaninCount {
            gate: name.to_string(),
            kind: kind.to_string(),
            got,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_names() {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        assert_eq!(
            b.input("a"),
            Err(NetlistError::DuplicateName("a".to_string()))
        );
    }

    #[test]
    fn rejects_undefined_fanin() {
        let mut b = NetlistBuilder::new("t");
        let err = b.gate("g", GateKind::Not, &["missing"]).unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedNet { .. }));
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        b.input("b").unwrap();
        let err = b.gate("g", GateKind::Not, &["a", "b"]).unwrap_err();
        assert!(matches!(err, NetlistError::BadFaninCount { got: 2, .. }));
        let err = b.gate("h", GateKind::Nand, &[]).unwrap_err();
        assert!(matches!(err, NetlistError::BadFaninCount { got: 0, .. }));
    }

    #[test]
    fn rejects_missing_outputs() {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        assert_eq!(b.finish().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn output_of_unknown_net_fails() {
        let mut b = NetlistBuilder::new("t");
        assert_eq!(
            b.output("nope"),
            Err(NetlistError::UnknownOutput("nope".to_string()))
        );
    }

    #[test]
    fn duplicate_output_declaration_is_idempotent() {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        b.gate("x", GateKind::Not, &["a"]).unwrap();
        b.gate("y", GateKind::Not, &["x"]).unwrap();
        b.gate("z", GateKind::Not, &["y"]).unwrap();
        for name in ["y", "x", "y", "z", "x", "z", "y"] {
            b.output(name).unwrap();
        }
        let n = b.finish().unwrap();
        // One entry per net, in first-declaration order.
        let names: Vec<&str> = n.outputs().iter().map(|&o| n.gate(o).name()).collect();
        assert_eq!(names, ["y", "x", "z"]);
        for (i, g) in n.gates().iter().enumerate() {
            assert_eq!(
                n.is_output(GateId::new(i)),
                ["x", "y", "z"].contains(&g.name())
            );
        }
    }

    #[test]
    fn builds_simple_netlist() {
        let mut b = NetlistBuilder::new("t");
        b.input("a").unwrap();
        b.input("b").unwrap();
        b.gate("y", GateKind::Nand, &["a", "b"]).unwrap();
        b.output("y").unwrap();
        let n = b.finish().unwrap();
        assert_eq!(n.gate_count(), 3);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.logic_gate_count(), 1);
    }
}
