//! Structure-of-arrays view of a netlist: levelized order and CSR
//! adjacency in flat, contiguous buffers.
//!
//! [`Netlist`] stores per-gate `Vec`s (fanin, fanout) behind a `Vec` of
//! [`Gate`](crate::Gate)s — convenient for construction and queries, but a
//! pointer chase per gate in the evaluation hot loops. [`LevelizedCsr`]
//! flattens the same structure once into index arrays:
//!
//! * `order` — every gate index, grouped by logic level (ascending), and
//!   in ascending gate index within a level;
//! * `level_offsets` — `order[level_offsets[l]..level_offsets[l + 1]]` is
//!   level `l`, and `level` maps each gate back to its level;
//! * fanin and fanout adjacency in CSR form (offsets + one flat index
//!   array each), preserving the netlist's per-gate edge order exactly —
//!   the order-preservation is what lets sweeps over this view reproduce
//!   the reference traversals bit for bit.
//!
//! A sweep over `order` visits every gate after all of its fanins (a
//! gate's fanins sit at strictly lower levels), so it is a valid
//! topological traversal; a reverse sweep is a valid reverse-topological
//! traversal. Unlike [`Netlist::topological_order`], the grouping exposes
//! per-level slices whose gates are mutually independent. The circuit
//! model in `minpower-models` sweeps them; the warm evaluator in
//! `minpower-core` buckets its dirty worklist by the same levels.

use crate::gate::GateId;
use crate::graph::Netlist;

/// Flat levelized index arrays over a [`Netlist`]. See the [module
/// docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelizedCsr {
    order: Vec<u32>,
    level_offsets: Vec<u32>,
    level: Vec<u32>,
    fanin_offsets: Vec<u32>,
    fanin: Vec<u32>,
    fanout_offsets: Vec<u32>,
    fanout: Vec<u32>,
    outputs: Vec<u32>,
}

impl LevelizedCsr {
    /// Flattens `netlist` into levelized CSR buffers. `O(V + E)`.
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.gate_count();
        let depth = netlist.depth();

        // Counting sort by level keeps gates in ascending index order
        // within each level.
        let level: Vec<u32> = (0..n)
            .map(|i| netlist.level(GateId::new(i)) as u32)
            .collect();
        let mut level_counts = vec![0u32; depth + 1];
        for &l in &level {
            level_counts[l as usize] += 1;
        }
        let mut level_offsets = Vec::with_capacity(depth + 2);
        let mut running = 0u32;
        level_offsets.push(0);
        for c in &level_counts {
            running += c;
            level_offsets.push(running);
        }
        let mut cursor: Vec<u32> = level_offsets[..=depth].to_vec();
        let mut order = vec![0u32; n];
        for (i, &l) in level.iter().enumerate() {
            order[cursor[l as usize] as usize] = i as u32;
            cursor[l as usize] += 1;
        }

        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        let mut fanout_offsets = Vec::with_capacity(n + 1);
        let mut fanout = Vec::new();
        fanin_offsets.push(0);
        fanout_offsets.push(0);
        for i in 0..n {
            let id = GateId::new(i);
            fanin.extend(netlist.gate(id).fanin().iter().map(|f| f.index() as u32));
            fanin_offsets.push(fanin.len() as u32);
            fanout.extend(netlist.fanout(id).iter().map(|s| s.index() as u32));
            fanout_offsets.push(fanout.len() as u32);
        }

        LevelizedCsr {
            order,
            level_offsets,
            level,
            fanin_offsets,
            fanin,
            fanout_offsets,
            fanout,
            outputs: netlist.outputs().iter().map(|o| o.index() as u32).collect(),
        }
    }

    /// Total gate count (primary inputs included).
    pub fn gate_count(&self) -> usize {
        self.order.len()
    }

    /// Number of levels (logic depth + 1; level 0 holds the primary
    /// inputs).
    pub fn level_count(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Every gate index, grouped by ascending level.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The gates of level `l`, ascending by gate index.
    pub fn level(&self, l: usize) -> &[u32] {
        let lo = self.level_offsets[l] as usize;
        let hi = self.level_offsets[l + 1] as usize;
        &self.order[lo..hi]
    }

    /// The level of gate `i` (0 for primary inputs).
    #[inline]
    pub fn level_of(&self, i: usize) -> usize {
        self.level[i] as usize
    }

    /// Iterator over per-level gate slices, level 0 first.
    pub fn levels(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.level_count()).map(move |l| self.level(l))
    }

    /// Fanin gate indices of gate `i`, in the netlist's fanin order.
    #[inline]
    pub fn fanin_of(&self, i: usize) -> &[u32] {
        let lo = self.fanin_offsets[i] as usize;
        let hi = self.fanin_offsets[i + 1] as usize;
        &self.fanin[lo..hi]
    }

    /// Fanout gate indices of gate `i`, in the netlist's fanout order.
    #[inline]
    pub fn fanout_of(&self, i: usize) -> &[u32] {
        let lo = self.fanout_offsets[i] as usize;
        let hi = self.fanout_offsets[i + 1] as usize;
        &self.fanout[lo..hi]
    }

    /// Primary-output gate indices, in the netlist's output order
    /// (duplicates preserved, exactly as [`Netlist::outputs`]).
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::gate::GateKind;

    fn diamond() -> Netlist {
        let mut b = NetlistBuilder::new("d");
        b.input("a").unwrap();
        b.gate("u", GateKind::Not, &["a"]).unwrap();
        b.gate("v", GateKind::Buf, &["a"]).unwrap();
        b.gate("y", GateKind::Nand, &["u", "v"]).unwrap();
        b.output("y").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn order_is_topological_and_levelized() {
        let n = diamond();
        let csr = LevelizedCsr::new(&n);
        assert_eq!(csr.gate_count(), 4);
        assert_eq!(csr.level_count(), 3);
        // Position of each gate in `order`.
        let mut pos = vec![0usize; csr.gate_count()];
        for (p, &i) in csr.order().iter().enumerate() {
            pos[i as usize] = p;
        }
        for i in 0..csr.gate_count() {
            for &f in csr.fanin_of(i) {
                assert!(pos[f as usize] < pos[i], "fanin after gate");
            }
        }
        // Levels match the netlist's.
        for (l, slice) in csr.levels().enumerate() {
            for &i in slice {
                assert_eq!(n.level(GateId::new(i as usize)), l);
                assert_eq!(csr.level_of(i as usize), l);
            }
        }
    }

    #[test]
    fn adjacency_matches_netlist_order() {
        let n = diamond();
        let csr = LevelizedCsr::new(&n);
        for i in 0..n.gate_count() {
            let id = GateId::new(i);
            let fanin: Vec<u32> = n
                .gate(id)
                .fanin()
                .iter()
                .map(|f| f.index() as u32)
                .collect();
            assert_eq!(csr.fanin_of(i), &fanin[..]);
            let fanout: Vec<u32> = n.fanout(id).iter().map(|s| s.index() as u32).collect();
            assert_eq!(csr.fanout_of(i), &fanout[..]);
        }
        assert_eq!(csr.outputs().len(), n.outputs().len());
    }

    #[test]
    fn level_slices_partition_the_gates() {
        let n = diamond();
        let csr = LevelizedCsr::new(&n);
        let total: usize = csr.levels().map(<[u32]>::len).sum();
        assert_eq!(total, csr.gate_count());
        assert_eq!(csr.level(1), &[1, 2]); // u and v share level 1
        let mut seen: Vec<u32> = csr.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..csr.gate_count() as u32).collect::<Vec<_>>());
    }
}
