//! Per-node tables that hold rows only for a contiguous range of node ids.

use crate::NodeId;
use std::ops::{Index, IndexMut, Range};

/// A per-node table holding one row per node id in `base..base + len`.
///
/// The sharded executor partitions node ids into contiguous ranges (whole
/// LANs, and `lan_of = id / lan_size`), and every handler at node `x`
/// touches only `x`'s own rows. So a shard stores rows for its own ids and
/// nothing else; a single-shard run simply owns `0..max_nodes`.
///
/// Indexing with a foreign id is a bug: it fails a `debug_assert!` naming
/// the node and the owning range, and panics on the bounds check in
/// release builds too.
#[derive(Clone, Debug, Default)]
pub struct NodeRows<T> {
    base: usize,
    rows: Vec<T>,
}

impl<T: Clone> NodeRows<T> {
    /// Rows for `ids`, each a copy of `row`.
    pub fn new(ids: Range<usize>, row: T) -> Self {
        NodeRows {
            base: ids.start,
            rows: vec![row; ids.len()],
        }
    }
}

impl<T> NodeRows<T> {
    /// Rows for `ids`, row `i` built by `f(i)` (global id order).
    pub fn from_fn(ids: Range<usize>, f: impl FnMut(usize) -> T) -> Self {
        NodeRows {
            base: ids.start,
            rows: ids.map(f).collect(),
        }
    }

    /// The owned id range.
    pub fn ids(&self) -> Range<usize> {
        self.base..self.base + self.rows.len()
    }

    /// Does this table hold `node`'s row?
    #[inline]
    pub fn owns(&self, node: NodeId) -> bool {
        self.ids().contains(&node.idx())
    }

    /// Position of `node`'s row in owned-id order (for callers that keep
    /// a parallel flat layout, such as fixed-stride finger slots).
    #[inline]
    pub fn slot(&self, node: NodeId) -> usize {
        debug_assert!(
            self.owns(node),
            "row of node {} accessed outside the shard that owns ids {:?}",
            node.0,
            self.ids()
        );
        // A foreign id below `base` wraps to a huge slot, so release builds
        // still fail the bounds check instead of reading a neighbour's row.
        node.idx().wrapping_sub(self.base)
    }

    /// Owned rows in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.rows.iter()
    }

    /// Owned rows in id order, mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.rows.iter_mut()
    }
}

impl<T> Index<NodeId> for NodeRows<T> {
    type Output = T;
    #[inline]
    fn index(&self, node: NodeId) -> &T {
        &self.rows[self.slot(node)]
    }
}

impl<T> IndexMut<NodeId> for NodeRows<T> {
    #[inline]
    fn index_mut(&mut self, node: NodeId) -> &mut T {
        let i = self.slot(node);
        &mut self.rows[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_indexed_by_global_id() {
        let mut r = NodeRows::from_fn(10..14, |i| i * 100);
        assert_eq!(r.ids(), 10..14);
        assert_eq!(r[NodeId(10)], 1000);
        assert_eq!(r[NodeId(13)], 1300);
        r[NodeId(12)] += 1;
        assert_eq!(
            r.iter().copied().collect::<Vec<_>>(),
            [1000, 1100, 1201, 1300]
        );
        assert_eq!(r.slot(NodeId(12)), 2);
    }

    #[test]
    fn owns_exactly_the_range() {
        let r = NodeRows::new(5..8, 0u8);
        assert!(!r.owns(NodeId(4)));
        assert!(r.owns(NodeId(5)));
        assert!(r.owns(NodeId(7)));
        assert!(!r.owns(NodeId(8)));
        let empty = NodeRows::new(3..3, 0u8);
        assert!(!empty.owns(NodeId(3)));
    }

    #[test]
    #[should_panic]
    fn foreign_id_below_the_range_panics() {
        let r = NodeRows::new(5..8, 0u8);
        let _ = r[NodeId(4)];
    }

    #[test]
    #[should_panic]
    fn foreign_id_above_the_range_panics() {
        let mut r = NodeRows::new(5..8, 0u8);
        r[NodeId(8)] = 1;
    }
}
