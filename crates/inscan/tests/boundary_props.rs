//! Property tests: CAN and INSCAN routing terminate on zone boundaries.
//!
//! Zones split at midpoints, so every zone face is a binary fraction, and
//! so are most normalised Table I capacities: an idle node publishes its
//! capacity as its availability point, which is where its state update is
//! routed. A target on an interior face is at closed-box distance 0 from
//! every zone that touches it, but only one of them owns it, because zones
//! are half-open. These properties pin that greedy `route_path` (KHDN-CAN's
//! router), `inscan_route` and the cached `Router` (PID-CAN's) all reach
//! `owner_of(p)` within PID-CAN's hop budget (4·⌈log₂ n⌉ + 16), and that a
//! walk starting at distance 0 takes at most `d` hops. At distance 0 no
//! finger makes strict progress, so those last hops are the greedy step's.
//!
//! Targets come from the binary-fraction grid {0.125, 0.25, …, 1.0}^d, zone
//! corners (where up to 2^d zones meet) and normalised Table I capacity
//! vectors, on 2-D and 5-D overlays, freshly bootstrapped or after
//! join/leave churn. The nightly CI job runs this file at
//! `PROPTEST_CASES=4096`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::{route_path, CanOverlay, Point, RouteOutcome};
use soc_inscan::{inscan_route, IndexTables, RouteBackend, Router};
use soc_types::{NodeId, ResVec};
use soc_workload::{cmax, NodeCapacitySampler};

/// PID-CAN's routing TTL for `n` nodes.
fn hop_budget(n: usize) -> usize {
    4 * (n.max(2) as f64).log2().ceil() as usize + 16
}

/// Bootstrap `n` nodes with finger tables, then run `churn` rounds of one
/// join and one leave. Only the departed node's table is cleared, so
/// survivors may keep stale fingers, as between refresh cycles in a run.
fn world(dim: usize, n: usize, churn: usize, rng: &mut SmallRng) -> (CanOverlay, IndexTables) {
    let max = n + churn;
    let mut ov = CanOverlay::bootstrap(dim, n, max, rng);
    let mut tables = IndexTables::new(dim, n, max);
    tables.refresh_all(&ov, rng);
    for i in 0..churn {
        let id = NodeId((n + i) as u32);
        ov.join(id, &random_point(dim, rng));
        tables.refresh_node(id, &ov, rng);
        let victim = random_live(&ov, rng);
        ov.leave(victim);
        tables.clear_node(victim);
    }
    (ov, tables)
}

fn random_live(ov: &CanOverlay, rng: &mut SmallRng) -> NodeId {
    ov.live_nodes().nth(rng.random_range(0..ov.len())).unwrap()
}

/// Boundary targets of all three families.
fn boundary_targets(ov: &CanOverlay, rng: &mut SmallRng) -> Vec<Point> {
    let dim = ov.dim();
    let mut out = Vec::new();
    for _ in 0..4 {
        let mut p = ResVec::zeros(dim);
        for d in 0..dim {
            p[d] = rng.random_range(1..=8u32) as f64 / 8.0;
        }
        out.push(p);
    }
    for _ in 0..4 {
        let z = *ov.zone(random_live(ov, rng)).unwrap();
        out.push(*z.lo());
        out.push(*z.hi());
    }
    for _ in 0..4 {
        let p = NodeCapacitySampler.sample(rng).normalize(&cmax());
        out.push(ResVec::from_slice(&p.as_slice()[..dim]));
    }
    out
}

/// Walk `router` hop by hop, as PID-CAN forwards a state update; the node
/// that consumes the message, or `None` if the budget ran out first.
fn router_walk(
    router: &mut Router,
    ov: &CanOverlay,
    tables: &IndexTables,
    from: NodeId,
    p: &Point,
    budget: usize,
) -> Option<NodeId> {
    let mut cur = from;
    for _ in 0..budget {
        cur = match router.next_hop(ov, tables, cur, p) {
            None => return Some(cur),
            Some(next) => next,
        };
    }
    router.next_hop(ov, tables, cur, p).is_none().then_some(cur)
}

fn check_routes(dim: usize, n: usize, churn: usize, seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (ov, tables) = world(dim, n, churn, &mut rng);
    let budget = hop_budget(n);
    let mut router = Router::with_backend(RouteBackend::Cached);
    let case = format!("{dim}-D n={n} churn={churn}");
    let expect = |what: &str, from: NodeId, p: &Point, out: &RouteOutcome, owner: NodeId| {
        if out.owner == Some(owner) {
            Ok(())
        } else {
            Err(format!(
                "{case}: {what} {from} -> {p:?} ended at {:?} after {} hops, owner {owner}",
                out.owner,
                out.hops()
            ))
        }
    };
    for p in boundary_targets(&ov, &mut rng) {
        let owner = ov.owner_of(&p);
        for _ in 0..4 {
            let from = random_live(&ov, &mut rng);
            let out = route_path(&ov, from, &p, budget);
            expect("greedy", from, &p, &out, owner)?;
            let out = inscan_route(&ov, &tables, from, &p, budget);
            expect("inscan", from, &p, &out, owner)?;
            let cached = router_walk(&mut router, &ov, &tables, from, &p, budget);
            if cached != Some(owner) {
                return Err(format!(
                    "{case}: cached router {from} -> {p:?} ended at {cached:?}, owner {owner}"
                ));
            }
        }
        // Every zone whose closed box touches the target is at most `d`
        // hops from its owner.
        for from in ov.live_nodes() {
            if ov.zone(from).unwrap().dist_to_point(&p) > 0.0 {
                continue;
            }
            let out = route_path(&ov, from, &p, dim);
            expect("distance-0 greedy", from, &p, &out, owner)?;
            let out = inscan_route(&ov, &tables, from, &p, dim);
            expect("distance-0 inscan", from, &p, &out, owner)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn routes_reach_boundary_owner_2d(seed in 0u64..1_000_000, n in 16usize..256, churn in 0usize..40) {
        if let Err(e) = check_routes(2, n, churn, seed) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn routes_reach_boundary_owner_5d(seed in 0u64..1_000_000, n in 16usize..256, churn in 0usize..40) {
        if let Err(e) = check_routes(5, n, churn, seed) {
            prop_assert!(false, "{e}");
        }
    }
}
