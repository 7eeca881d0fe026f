//! Per-node index tables: sampled nodes at `2^k` hop distances.

use rand::{Rng, RngExt};
use soc_can::CanOverlay;
use soc_types::{NodeId, NodeRows};
use std::ops::Range;

/// The paper's `k` bound: `⌊log2 n^{1/d}⌋` (so the largest finger spans
/// roughly half the nodes along one dimension).
pub fn kmax_for(n: usize, dim: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let r = (n as f64).powf(1.0 / dim as f64);
    r.log2().floor().max(0.0) as usize
}

/// Slot value of an empty finger.
const NONE: u32 = u32::MAX;

/// Message accounting for one refresh sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Probe hops walked (each is one maintenance message).
    pub probe_msgs: u64,
}

/// One node's index table, borrowed from [`IndexTables`]: for each
/// dimension and direction, the sampled node at `2^k` hops, `k = 0..=kmax`.
///
/// Entries may be empty near the edge of the (non-toroidal) key space.
#[derive(Clone, Copy, Debug)]
pub struct IndexRow<'a> {
    /// `2·dim` sides of `kmax + 1` slots: side `2·d` is positive along
    /// `d`, side `2·d + 1` negative.
    slots: &'a [u32],
    kmax: usize,
}

impl<'a> IndexRow<'a> {
    /// The `kmax + 1` finger slots along `dim` in one direction; `None`
    /// past the last dimension.
    fn side(&self, dim: usize, positive: bool) -> Option<&'a [u32]> {
        let w = self.kmax + 1;
        let start = (2 * dim + usize::from(!positive)) * w;
        self.slots.get(start..start + w)
    }

    /// Largest finger exponent.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    /// Index node at `2^k` hops along `dim` in the given direction.
    pub fn get(&self, dim: usize, positive: bool, k: usize) -> Option<NodeId> {
        let v = *self.side(dim, positive)?.get(k)?;
        (v != NONE).then_some(NodeId(v))
    }

    /// All known index nodes along `dim` in the given direction
    /// (deduplicated, ascending `k`).
    pub fn along(&self, dim: usize, positive: bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &v in self.side(dim, positive).unwrap_or(&[]) {
            if v != NONE && !out.contains(&NodeId(v)) {
                out.push(NodeId(v));
            }
        }
        out
    }

    /// Pick a random negative index node along `dim` (the paper's "randomly
    /// select an NINode along dimension NO. j"): a uniformly random `k`
    /// among the populated entries.
    pub fn random_ninode<R: Rng>(&self, dim: usize, rng: &mut R) -> Option<NodeId> {
        self.random_along(dim, false, rng)
    }

    /// Pick a random positive index node along `dim`.
    pub fn random_positive<R: Rng>(&self, dim: usize, rng: &mut R) -> Option<NodeId> {
        self.random_along(dim, true, rng)
    }

    /// Uniform pick among the populated slots of one side: count them,
    /// draw an index, take that match. One draw, and none when the side
    /// is empty, the same sequence as collecting the matches first.
    fn random_along<R: Rng>(&self, dim: usize, positive: bool, rng: &mut R) -> Option<NodeId> {
        let side = self.side(dim, positive)?;
        let filled = || side.iter().filter(|&&v| v != NONE);
        let count = filled().count();
        if count == 0 {
            return None;
        }
        filled().nth(rng.random_range(0..count)).map(|&v| NodeId(v))
    }
}

/// One walk step: a random adjacent neighbor of `from` along `dim` with the
/// requested orientation, or `None` at the edge of the space.
///
/// Counts the candidates, draws an index and takes that match, so the step
/// allocates nothing and consumes the same draws as indexing a collected
/// candidate list.
pub fn walk_step<R: Rng>(
    ov: &CanOverlay,
    from: NodeId,
    dim: usize,
    positive: bool,
    rng: &mut R,
) -> Option<NodeId> {
    let cands = || {
        ov.neighbors(from)
            .iter()
            .filter(move |e| e.dim == dim && e.positive == positive)
    };
    let count = cands().count();
    if count == 0 {
        return None;
    }
    cands().nth(rng.random_range(0..count)).map(|e| e.node)
}

/// The index tables of a contiguous range of node ids (every node, or one
/// shard's own nodes), plus shared bookkeeping.
///
/// All rows live in one flat slot array with a fixed stride of
/// `2·dim·(kmax + 1)` slots per node, so a refresh rewrites its row in
/// place and the tables cost no allocation after construction.
#[derive(Clone, Debug)]
pub struct IndexTables {
    slots: Vec<u32>,
    /// Per-node refresh epochs: bumped whenever a node's table content
    /// changes (refresh, clear, eviction). Routing caches compare these to
    /// decide whether a memoized next hop computed from the table is stale.
    /// It also fixes the held id range: `node`'s finger row is row
    /// `epochs.slot(node)` of `slots`.
    epochs: NodeRows<u64>,
    dim: usize,
    kmax: usize,
}

impl IndexTables {
    /// Empty tables for `max_nodes` ids in a `dim`-dimensional overlay of
    /// expected size `n`.
    pub fn new(dim: usize, n: usize, max_nodes: usize) -> Self {
        Self::for_ids(dim, n, 0..max_nodes)
    }

    /// Empty tables holding rows only for `ids` (one shard's nodes) in a
    /// `dim`-dimensional overlay of expected size `n`.
    pub fn for_ids(dim: usize, n: usize, ids: Range<usize>) -> Self {
        assert!(dim >= 1, "index tables need at least one dimension");
        let kmax = kmax_for(n, dim);
        IndexTables {
            slots: vec![NONE; ids.len() * 2 * dim * (kmax + 1)],
            epochs: NodeRows::new(ids, 0),
            dim,
            kmax,
        }
    }

    /// Finger exponent bound.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    fn stride(&self) -> usize {
        2 * self.dim * (self.kmax + 1)
    }

    /// Slot range of `node`'s row.
    fn row_range(&self, node: NodeId) -> Range<usize> {
        let stride = self.stride();
        let start = self.epochs.slot(node) * stride;
        start..start + stride
    }

    /// Table of `node`.
    pub fn get(&self, node: NodeId) -> IndexRow<'_> {
        IndexRow {
            slots: &self.slots[self.row_range(node)],
            kmax: self.kmax,
        }
    }

    /// Refresh epoch of `node`'s table (changes exactly when the table's
    /// content may have changed).
    #[inline]
    pub fn epoch_of(&self, node: NodeId) -> u64 {
        self.epochs[node]
    }

    /// Rebuild `node`'s table in place by probe walks along every
    /// dimension ("flooding the querying messages to its neighbors along
    /// the d dimensions until reaching the edge of the CAN space",
    /// §III-A); returns probe accounting.
    ///
    /// Each walk step picks a random neighbor with the right orientation,
    /// recording the nodes reached at power-of-two hop counts.
    pub fn refresh_node<R: Rng>(
        &mut self,
        node: NodeId,
        ov: &CanOverlay,
        rng: &mut R,
    ) -> WalkStats {
        debug_assert_eq!(ov.dim(), self.dim, "tables built for another overlay");
        let (w, kmax) = (self.kmax + 1, self.kmax);
        let range = self.row_range(node);
        let row = &mut self.slots[range];
        row.fill(NONE);
        let mut stats = WalkStats::default();
        let max_steps = 1usize << kmax;
        for (side, fingers) in row.chunks_exact_mut(w).enumerate() {
            let (d, positive) = (side / 2, side % 2 == 0);
            let mut cur = node;
            let mut next_k = 0usize;
            for step in 1..=max_steps {
                match walk_step(ov, cur, d, positive, rng) {
                    Some(next) => {
                        stats.probe_msgs += 1;
                        cur = next;
                        if step == (1usize << next_k) {
                            fingers[next_k] = cur.0;
                            next_k += 1;
                            if next_k > kmax {
                                break;
                            }
                        }
                    }
                    None => break, // reached the edge of the space
                }
            }
        }
        self.epochs[node] += 1;
        stats
    }

    /// Refresh every live node (bootstrap); returns total probe accounting.
    pub fn refresh_all<R: Rng>(&mut self, ov: &CanOverlay, rng: &mut R) -> WalkStats {
        let mut total = WalkStats::default();
        for n in ov.live_nodes() {
            let s = self.refresh_node(n, ov, rng);
            total.probe_msgs += s.probe_msgs;
        }
        total
    }

    /// Evict a churned-away node from every held table; returns entries
    /// dropped.
    pub fn evict_everywhere(&mut self, node: NodeId) -> usize {
        let stride = self.stride();
        let mut total = 0;
        for (row, epoch) in self
            .slots
            .chunks_exact_mut(stride)
            .zip(self.epochs.iter_mut())
        {
            let mut n = 0;
            for v in row.iter_mut().filter(|v| **v == node.0) {
                *v = NONE;
                n += 1;
            }
            if n > 0 {
                *epoch += 1;
            }
            total += n;
        }
        total
    }

    /// Clear one node's own table (it departed).
    pub fn clear_node(&mut self, node: NodeId) {
        let range = self.row_range(node);
        self.slots[range].fill(NONE);
        self.epochs[node] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::is_negative_direction;

    #[test]
    fn kmax_matches_paper_formula() {
        // n = 2000, d = 5 ⇒ r ≈ 4.57 ⇒ kmax = 2.
        assert_eq!(kmax_for(2000, 5), 2);
        // n = 2000, d = 2 ⇒ r ≈ 44.7 ⇒ kmax = 5.
        assert_eq!(kmax_for(2000, 2), 5);
        assert_eq!(kmax_for(1, 3), 0);
    }

    #[test]
    fn refresh_populates_plausible_entries() {
        let mut rng = SmallRng::seed_from_u64(51);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        let node = NodeId(5);
        let mut tables = IndexTables::new(2, 64, 64);
        let stats = tables.refresh_node(node, &ov, &mut rng);
        let t = tables.get(node);
        assert!(stats.probe_msgs > 0);
        // At least the k=0 entries (adjacent neighbors) exist in some
        // direction for an interior node.
        let any = (0..2).any(|d| t.get(d, true, 0).is_some() || t.get(d, false, 0).is_some());
        assert!(any, "no index entries at all");
        // Negative entries must be negative-direction nodes of the owner…
        let my_zone = ov.zone(node).unwrap();
        for d in 0..2 {
            for id in t.along(d, false) {
                let z = ov.zone(id).unwrap();
                // …at least along the walked dimension.
                assert!(
                    z.lo()[d] <= my_zone.lo()[d],
                    "negative walk went the wrong way: {z:?} vs {my_zone:?}"
                );
            }
        }
    }

    #[test]
    fn negative_walks_from_top_corner_reach_negative_direction_nodes() {
        let mut rng = SmallRng::seed_from_u64(52);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        // Find the node owning the top corner: every negative index node of
        // it is a negative-direction node.
        let corner = ov.owner_of(&soc_types::ResVec::from_slice(&[1.0, 1.0]));
        let mut tables = IndexTables::new(2, 64, 64);
        tables.refresh_node(corner, &ov, &mut rng);
        let t = tables.get(corner);
        let cz = ov.zone(corner).unwrap();
        for d in 0..2 {
            for id in t.along(d, false) {
                let z = ov.zone(id).unwrap();
                assert!(
                    is_negative_direction(z, cz) || z.ranges_overlap(cz, 1 - d),
                    "walk along {d} from the corner must stay weakly negative"
                );
            }
        }
    }

    #[test]
    fn evict_removes_all_references() {
        let mut rng = SmallRng::seed_from_u64(53);
        let ov = CanOverlay::bootstrap(2, 32, 32, &mut rng);
        let mut tables = IndexTables::new(2, 32, 32);
        tables.refresh_all(&ov, &mut rng);
        let victim = NodeId(7);
        tables.evict_everywhere(victim);
        for n in ov.live_nodes() {
            let t = tables.get(n);
            for d in 0..2 {
                for dir in [true, false] {
                    assert!(!t.along(d, dir).contains(&victim));
                }
            }
        }
    }

    #[test]
    fn shard_tables_hold_only_their_ids_and_match_full_rows() {
        let mut rng = SmallRng::seed_from_u64(56);
        let ov = CanOverlay::bootstrap(2, 32, 32, &mut rng);
        let mut full = IndexTables::new(2, 32, 32);
        let mut shard = IndexTables::for_ids(2, 32, 8..16);
        for id in 8..16 {
            let node = NodeId(id);
            let (mut a, mut b) = (rng.clone(), rng.clone());
            assert_eq!(
                full.refresh_node(node, &ov, &mut a),
                shard.refresh_node(node, &ov, &mut b)
            );
            for d in 0..2 {
                for dir in [true, false] {
                    assert_eq!(full.get(node).along(d, dir), shard.get(node).along(d, dir));
                }
            }
            assert_eq!(full.epoch_of(node), shard.epoch_of(node));
            rng = a;
        }
    }

    #[test]
    fn random_ninode_draws_from_negative_side() {
        let mut rng = SmallRng::seed_from_u64(54);
        let ov = CanOverlay::bootstrap(2, 64, 64, &mut rng);
        let corner = ov.owner_of(&soc_types::ResVec::from_slice(&[1.0, 1.0]));
        let mut tables = IndexTables::new(2, 64, 64);
        tables.refresh_node(corner, &ov, &mut rng);
        let t = tables.get(corner);
        let negs = t.along(0, false);
        if !negs.is_empty() {
            for _ in 0..20 {
                let pick = t.random_ninode(0, &mut rng).unwrap();
                assert!(negs.contains(&pick));
            }
        }
    }

    #[test]
    fn walk_step_respects_orientation() {
        let mut rng = SmallRng::seed_from_u64(55);
        let ov = CanOverlay::bootstrap(2, 32, 32, &mut rng);
        for node in ov.live_nodes() {
            if let Some(next) = walk_step(&ov, node, 0, true, &mut rng) {
                let me = ov.zone(node).unwrap();
                let nz = ov.zone(next).unwrap();
                assert_eq!(nz.lo()[0], me.hi()[0], "positive step must abut above");
            }
        }
    }
}
