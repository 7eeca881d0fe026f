//! Lockstep oracle for the flat finger tables.
//!
//! `IndexTables` stores every node's fingers in one fixed-stride slot
//! array and picks random entries by counting matches and taking the i-th.
//! The reference below is the nested-`Vec` table it replaced, with its
//! collect-then-index picks. Both run side by side on 2-D and 5-D
//! overlays, freshly bootstrapped and then through join/leave churn, and
//! must agree on every row, every epoch, every eviction count, every
//! random pick and walk step, and on the RNG state after every call (the
//! flat table must consume exactly the draws the reference does). A
//! shard-owned `IndexTables::for_ids` view over a random id range follows
//! the same operations on its own nodes and must match the reference rows.
//!
//! The nightly CI job runs this file at `PROPTEST_CASES=4096`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::CanOverlay;
use soc_inscan::table::walk_step;
use soc_inscan::{kmax_for, IndexTables};
use soc_types::NodeId;

/// The nested-`Vec` index table: `positive[dim][k]`, `negative[dim][k]`.
#[derive(Clone, Debug)]
struct RefTable {
    positive: Vec<Vec<Option<NodeId>>>,
    negative: Vec<Vec<Option<NodeId>>>,
}

impl RefTable {
    fn new(dim: usize, kmax: usize) -> Self {
        RefTable {
            positive: vec![vec![None; kmax + 1]; dim],
            negative: vec![vec![None; kmax + 1]; dim],
        }
    }

    fn kmax(&self) -> usize {
        self.positive.first().map(|v| v.len() - 1).unwrap_or(0)
    }

    fn side(&self, positive: bool) -> &Vec<Vec<Option<NodeId>>> {
        if positive {
            &self.positive
        } else {
            &self.negative
        }
    }

    fn get(&self, dim: usize, positive: bool, k: usize) -> Option<NodeId> {
        self.side(positive)
            .get(dim)
            .and_then(|v| v.get(k).copied().flatten())
    }

    fn along(&self, dim: usize, positive: bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        if let Some(v) = self.side(positive).get(dim) {
            for id in v.iter().flatten() {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
        }
        out
    }

    fn random_along<R: Rng>(&self, dim: usize, positive: bool, rng: &mut R) -> Option<NodeId> {
        let v = self.side(positive).get(dim)?;
        let filled: Vec<NodeId> = v.iter().flatten().copied().collect();
        if filled.is_empty() {
            None
        } else {
            Some(filled[rng.random_range(0..filled.len())])
        }
    }

    fn evict(&mut self, node: NodeId) -> usize {
        let mut n = 0;
        for side in [&mut self.positive, &mut self.negative] {
            for v in side.iter_mut() {
                for e in v.iter_mut() {
                    if *e == Some(node) {
                        *e = None;
                        n += 1;
                    }
                }
            }
        }
        n
    }

    fn refresh<R: Rng>(node: NodeId, ov: &CanOverlay, kmax: usize, rng: &mut R) -> (Self, u64) {
        let dim = ov.dim();
        let mut table = RefTable::new(dim, kmax);
        let mut probes = 0;
        let max_steps = 1usize << kmax;
        for d in 0..dim {
            for positive in [true, false] {
                let mut cur = node;
                let mut next_k = 0usize;
                for step in 1..=max_steps {
                    match ref_walk_step(ov, cur, d, positive, rng) {
                        Some(next) => {
                            probes += 1;
                            cur = next;
                            if step == (1usize << next_k) {
                                let side = if positive {
                                    &mut table.positive
                                } else {
                                    &mut table.negative
                                };
                                side[d][next_k] = Some(cur);
                                next_k += 1;
                                if next_k > kmax {
                                    break;
                                }
                            }
                        }
                        None => break,
                    }
                }
            }
        }
        (table, probes)
    }
}

/// The collect-then-index walk step.
fn ref_walk_step<R: Rng>(
    ov: &CanOverlay,
    from: NodeId,
    dim: usize,
    positive: bool,
    rng: &mut R,
) -> Option<NodeId> {
    let cands: Vec<NodeId> = ov
        .neighbors(from)
        .iter()
        .filter(|e| e.dim == dim && e.positive == positive)
        .map(|e| e.node)
        .collect();
    if cands.is_empty() {
        None
    } else {
        Some(cands[rng.random_range(0..cands.len())])
    }
}

/// The reference `IndexTables`: one `RefTable` per id plus epochs.
struct RefTables {
    tables: Vec<RefTable>,
    epochs: Vec<u64>,
    kmax: usize,
}

impl RefTables {
    fn new(dim: usize, n: usize, max_nodes: usize) -> Self {
        let kmax = kmax_for(n, dim);
        RefTables {
            tables: vec![RefTable::new(dim, kmax); max_nodes],
            epochs: vec![0; max_nodes],
            kmax,
        }
    }

    fn refresh_node<R: Rng>(&mut self, node: NodeId, ov: &CanOverlay, rng: &mut R) -> u64 {
        let (t, probes) = RefTable::refresh(node, ov, self.kmax, rng);
        self.tables[node.idx()] = t;
        self.epochs[node.idx()] += 1;
        probes
    }

    fn evict_everywhere(&mut self, node: NodeId) -> usize {
        let mut total = 0;
        for (i, t) in self.tables.iter_mut().enumerate() {
            let n = t.evict(node);
            if n > 0 {
                self.epochs[i] += 1;
            }
            total += n;
        }
        total
    }

    fn clear_node(&mut self, node: NodeId) {
        let dim = self.tables[node.idx()].positive.len();
        self.tables[node.idx()] = RefTable::new(dim, self.kmax);
        self.epochs[node.idx()] += 1;
    }
}

fn rng_state(rng: &SmallRng) -> String {
    format!("{rng:?}")
}

/// The flat tables, a shard-owned view and the reference, driven in
/// lockstep: each operation runs on every copy from the same RNG state.
struct Lockstep {
    dim: usize,
    flat: IndexTables,
    shard: IndexTables,
    lo: usize,
    hi: usize,
    oracle: RefTables,
}

impl Lockstep {
    fn owned(&self, node: NodeId) -> bool {
        (self.lo..self.hi).contains(&node.idx())
    }

    fn refresh(&mut self, node: NodeId, ov: &CanOverlay, rng: &mut SmallRng) -> Result<(), String> {
        let (mut r_ref, mut r_shard) = (rng.clone(), rng.clone());
        let probes = self.flat.refresh_node(node, ov, rng).probe_msgs;
        let want = self.oracle.refresh_node(node, ov, &mut r_ref);
        prop_assert_eq!(probes, want, "refresh_node({}) probe count", node);
        prop_assert_eq!(
            rng_state(rng),
            rng_state(&r_ref),
            "RNG after refresh_node({})",
            node
        );
        if self.owned(node) {
            let p = self.shard.refresh_node(node, ov, &mut r_shard).probe_msgs;
            prop_assert_eq!(p, want, "shard refresh_node({}) probe count", node);
            prop_assert_eq!(
                rng_state(&r_shard),
                rng_state(&r_ref),
                "shard RNG after refresh"
            );
        }
        Ok(())
    }

    fn depart(&mut self, victim: NodeId) -> Result<(), String> {
        self.flat.clear_node(victim);
        self.oracle.clear_node(victim);
        if self.owned(victim) {
            self.shard.clear_node(victim);
        }
        let owned_want: usize = self.oracle.tables[self.lo..self.hi]
            .iter()
            .map(|t| t.clone().evict(victim))
            .sum();
        let got = self.flat.evict_everywhere(victim);
        let want = self.oracle.evict_everywhere(victim);
        prop_assert_eq!(got, want, "evict_everywhere({}) count", victim);
        let shard_got = self.shard.evict_everywhere(victim);
        prop_assert_eq!(
            shard_got,
            owned_want,
            "shard evict_everywhere({}) count",
            victim
        );
        Ok(())
    }

    /// Every row, epoch and `kmax` agrees with the reference.
    fn rows_agree(&self) -> Result<(), String> {
        prop_assert_eq!(self.flat.kmax(), self.oracle.kmax);
        prop_assert_eq!(self.shard.kmax(), self.oracle.kmax);
        for (i, want) in self.oracle.tables.iter().enumerate() {
            let node = NodeId(i as u32);
            let mut views = vec![(&self.flat, "flat")];
            if self.owned(node) {
                views.push((&self.shard, "shard"));
            }
            for (tables, which) in views {
                prop_assert_eq!(
                    tables.epoch_of(node),
                    self.oracle.epochs[i],
                    "{} epoch_of({})",
                    which,
                    node
                );
                let row = tables.get(node);
                prop_assert_eq!(row.kmax(), want.kmax(), "{} kmax of {}", which, node);
                for d in 0..=self.dim {
                    for dir in [true, false] {
                        prop_assert_eq!(row.along(d, dir), want.along(d, dir), "{} along", which);
                        for k in 0..=self.oracle.kmax + 1 {
                            prop_assert_eq!(
                                row.get(d, dir, k),
                                want.get(d, dir, k),
                                "{} get({}, {}, {}, {})",
                                which,
                                node,
                                d,
                                dir,
                                k
                            );
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Random picks and walk steps from every live node draw the same
    /// results and leave the RNG in the same state.
    fn picks_agree(&self, ov: &CanOverlay, rng: &mut SmallRng) -> Result<(), String> {
        for node in ov.live_nodes() {
            let row = self.flat.get(node);
            let want = &self.oracle.tables[node.idx()];
            for d in 0..=self.dim {
                let mut r_ref = rng.clone();
                prop_assert_eq!(
                    row.random_ninode(d, rng),
                    want.random_along(d, false, &mut r_ref),
                    "random_ninode({}, {})",
                    node,
                    d
                );
                prop_assert_eq!(rng_state(rng), rng_state(&r_ref), "RNG after random_ninode");
                prop_assert_eq!(
                    row.random_positive(d, rng),
                    want.random_along(d, true, &mut r_ref),
                    "random_positive({}, {})",
                    node,
                    d
                );
                prop_assert_eq!(
                    rng_state(rng),
                    rng_state(&r_ref),
                    "RNG after random_positive"
                );
                for dir in [true, false] {
                    prop_assert_eq!(
                        walk_step(ov, node, d, dir, rng),
                        ref_walk_step(ov, node, d, dir, &mut r_ref),
                        "walk_step({}, {}, {})",
                        node,
                        d,
                        dir
                    );
                    prop_assert_eq!(rng_state(rng), rng_state(&r_ref), "RNG after walk_step");
                }
            }
        }
        Ok(())
    }
}

fn random_live(ov: &CanOverlay, rng: &mut SmallRng) -> NodeId {
    ov.live_nodes().nth(rng.random_range(0..ov.len())).unwrap()
}

fn check_lockstep(dim: usize, n: usize, churn: usize, seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let max = n + churn;
    let mut ov = CanOverlay::bootstrap(dim, n, max, &mut rng);
    let lo = rng.random_range(0..max);
    let hi = rng.random_range(lo..=max);
    let mut ls = Lockstep {
        dim,
        flat: IndexTables::new(dim, n, max),
        shard: IndexTables::for_ids(dim, n, lo..hi),
        lo,
        hi,
        oracle: RefTables::new(dim, n, max),
    };
    let live: Vec<NodeId> = ov.live_nodes().collect();
    for node in live {
        ls.refresh(node, &ov, &mut rng)?;
    }
    ls.rows_agree()?;
    ls.picks_agree(&ov, &mut rng)?;
    for i in 0..churn {
        let id = NodeId((n + i) as u32);
        ov.join(id, &random_point(dim, &mut rng));
        ls.refresh(id, &ov, &mut rng)?;
        let victim = random_live(&ov, &mut rng);
        let reassigned = ov.leave(victim);
        ls.depart(victim)?;
        // Refresh one survivor whose zone changed, as `on_zones_reassigned`
        // does; the others keep stale fingers, as between refresh cycles.
        if let Some(&(heir, _)) = reassigned.first() {
            ls.refresh(heir, &ov, &mut rng)?;
        }
        ls.rows_agree()?;
    }
    ls.picks_agree(&ov, &mut rng)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn flat_tables_match_nested_reference_2d(seed in 0u64..1_000_000, n in 1usize..256, churn in 0usize..24) {
        if let Err(e) = check_lockstep(2, n, churn, seed) {
            prop_assert!(false, "2-D n={n} churn={churn}: {e}");
        }
    }

    #[test]
    fn flat_tables_match_nested_reference_5d(seed in 0u64..1_000_000, n in 1usize..256, churn in 0usize..24) {
        if let Err(e) = check_lockstep(5, n, churn, seed) {
            prop_assert!(false, "5-D n={n} churn={churn}: {e}");
        }
    }
}
