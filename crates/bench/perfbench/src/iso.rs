//! Isolated layer kernels: each calls one layer's public API on inputs
//! shaped like the workload, so its ns/op can be set beside the profiler's
//! in-situ figure for the same layer.
//!
//! Every kernel takes its input shape from the workload's HID-CAN cell and
//! its traced run: node count, overlay dims, LAN size, seed, protocol
//! cycles, the event queue's pending population and mix, and the rates of
//! state updates, table refreshes and churn swaps per routed hop. The
//! kernels draw their targets, demands and capacities from the workload's
//! own `SyntheticSource`. Each kernel prints the shape it replayed.

use pidcan::PidCanConfig;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::{CanOverlay, Point};
use soc_inscan::{IndexTables, Router};
use soc_net::{LanTopology, LatencyConfig};
use soc_overlay::{RecordCache, StateRecord};
use soc_psm::{NodeExec, PsmConfig, RunningTask};
use soc_sim::{build_source, Scenario};
use soc_simcore::EventQueue;
use soc_types::{NodeId, ResVec, SimMillis, TaskId, PERF_DIMS};
use soc_workload::{SyntheticSource, WorkloadSource};
use std::hint::black_box;
use std::time::Instant;

/// What the traced run of the workload's HID-CAN cell measured; the
/// kernels derive their input shape from it.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The HID-CAN scenario (n, LAN size, seed, duration, workload).
    pub scenario: Scenario,
    /// Events dispatched.
    pub events: u64,
    /// Events scheduled.
    pub pushes: u64,
    /// Message deliveries dispatched.
    pub delivers: u64,
    /// Next-hop decisions (`route` spans).
    pub routes: u64,
    /// Churn swaps.
    pub swaps: u64,
    /// Tasks generated.
    pub generated: u64,
}

impl Shape {
    /// Events still queued at the end of the run (pushes − events): the
    /// pending population the queue holds in steady state.
    fn pending(&self) -> usize {
        self.pushes.saturating_sub(self.events).max(1) as usize
    }

    fn per_hop(&self, count: f64) -> f64 {
        count / self.routes.max(1) as f64
    }

    /// State updates the run routed: one per live node per update cycle.
    fn updates(&self) -> f64 {
        let sc = &self.scenario;
        sc.n_nodes as f64 * sc.duration_ms as f64 / hid_config(sc).state_update_ms as f64
    }
}

/// Isolated ns/op figures for one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Iso {
    pub queue_op_ns: f64,
    pub next_hop_ns: f64,
    pub route_hit_ratio: f64,
    pub qualified_ns: f64,
    pub next_completion_ns: f64,
    pub latency_ns: f64,
    pub join_leave_us: f64,
    pub bootstrap_s: f64,
}

/// Spare node ids beyond `n` for churn joins (the runner's headroom rule).
fn max_nodes(n: usize) -> usize {
    n + (n / 4).max(16)
}

/// HID-CAN's overlay dimensionality.
fn dim() -> usize {
    PidCanConfig::hid().overlay_dim()
}

/// HID-CAN's configuration with its cycles scaled to the scenario's task
/// durations, as the runner scales them.
fn hid_config(sc: &Scenario) -> PidCanConfig {
    PidCanConfig::hid().scale_cycles((sc.mean_duration_s / 3000.0).min(1.0))
}

/// A task demand drawn from the workload.
fn demand(src: &mut SyntheticSource, rng: &mut SmallRng) -> ResVec {
    src.next_task(NodeId(0), 0, rng).expect
}

fn key_point(v: &ResVec) -> Point {
    v.normalize(&soc_workload::cmax())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Run every kernel on `shape`.
pub fn run(shape: &Shape) -> Iso {
    let sc = &shape.scenario;
    let seed = sc.seed;
    let (queue_op_ns, mean_delay) = queue_op(shape, seed);
    println!(
        "iso simcore.queue: EventQueue schedule_in+pop, pending={} mean_delay_ms={mean_delay:.0} msg_share={:.3}",
        shape.pending(),
        shape.delivers as f64 / shape.events.max(1) as f64
    );
    let (next_hop_ns, route_hit_ratio, hops) = route(shape, seed);
    println!(
        "iso inscan.route: Router::next_hop over n={} dim={} hops={hops} update_share={:.3} refreshes_per_hop={:.2e} swaps_per_hop={:.2e}",
        sc.n_nodes,
        dim(),
        update_share(shape),
        refreshes_per_hop(shape),
        shape.per_hop(shape.swaps as f64)
    );
    let (qualified_ns, cache_len) = qualified(sc, seed);
    println!(
        "iso overlay.qualified: RecordCache::qualified_into at owners of points in demands' qualified regions, n={} mean_cache_records={cache_len:.2}",
        sc.n_nodes
    );
    let (next_completion_ns, tasks_per_node) = next_completion(sc, seed);
    println!(
        "iso psm.next_completion: NodeExec::next_completion after each admission, mean_tasks_per_node={tasks_per_node:.2}"
    );
    let latency_ns = latency(sc, seed);
    println!(
        "iso net.latency: LanTopology::latency, n={} lan_size={}",
        max_nodes(sc.n_nodes),
        sc.lan_size
    );
    let join_leave_us = if sc.churn_degree > 0.0 {
        join_leave(sc, seed)
    } else {
        0.0
    };
    let bootstrap_s = bootstrap(sc, seed);
    println!(
        "iso can: bootstrap+refresh_all n={} dim={}, join/leave {}",
        sc.n_nodes,
        dim(),
        if sc.churn_degree > 0.0 {
            "timed"
        } else {
            "idle (no churn)"
        }
    );
    Iso {
        queue_op_ns,
        next_hop_ns,
        route_hit_ratio,
        qualified_ns,
        next_completion_ns,
        latency_ns,
        join_leave_us,
        bootstrap_s,
    }
}

/// `EventQueue::schedule_in` + `pop` pairs at the workload's pending
/// population. Message deliveries take sampled LAN/WAN latencies; the
/// other events take exponential delays whose mean makes the overall mean
/// residence equal pending / event rate (Little's law), so the population
/// holds steady. Returns (ns per pair, mean delay in ms).
fn queue_op(shape: &Shape, seed: u64) -> (f64, f64) {
    const OPS: usize = 2_000_000;
    let sc = &shape.scenario;
    let pending = shape.pending();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51);
    let n = max_nodes(sc.n_nodes);
    let topo = LanTopology::new(n, sc.lan_size, LatencyConfig::default(), &mut rng);
    let pair = |rng: &mut SmallRng| {
        (
            NodeId(rng.random_range(0..sc.n_nodes) as u32),
            NodeId(rng.random_range(0..sc.n_nodes) as u32),
        )
    };
    let mean_msg = (0..4096)
        .map(|_| {
            let (a, b) = pair(&mut rng);
            topo.latency(a, b, &mut rng) as f64
        })
        .sum::<f64>()
        / 4096.0;
    let events_per_ms = shape.events as f64 / sc.duration_ms.max(1) as f64;
    let mean_total = pending as f64 / events_per_ms.max(1e-9);
    let share = (shape.delivers as f64 / shape.events.max(1) as f64).clamp(0.0, 0.99);
    let mean_other = ((mean_total - share * mean_msg) / (1.0 - share)).max(1.0);
    let delays: Vec<SimMillis> = (0..1 << 16)
        .map(|_| {
            if rng.random::<f64>() < share {
                let (a, b) = pair(&mut rng);
                topo.latency(a, b, &mut rng).max(1)
            } else {
                let u: f64 = rng.random::<f64>();
                ((-(1.0 - u).ln() * mean_other) as SimMillis).max(1)
            }
        })
        .collect();
    let mean_delay = delays.iter().sum::<SimMillis>() as f64 / delays.len() as f64;
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..pending {
        q.schedule_in(delays[i % delays.len()], i as u32);
    }
    let t = Instant::now();
    for i in 0..OPS {
        let (_, ev) = q.pop().expect("the population never drains");
        q.schedule_in(delays[i % delays.len()], black_box(ev));
    }
    (t.elapsed().as_nanos() as f64 / OPS as f64, mean_delay)
}

/// One churn swap: a spare id joins at a random point, a random live node
/// leaves, and the index tables follow as the protocol's churn hooks do.
/// Returns the seconds spent in `join` + `leave`.
fn swap(
    ov: &mut CanOverlay,
    tables: &mut IndexTables,
    live: &mut [NodeId],
    spare: &mut NodeId,
    rng: &mut SmallRng,
) -> f64 {
    let p = random_point(ov.dim(), rng);
    let victim_i = rng.random_range(0..live.len());
    let victim = live[victim_i];
    let t = Instant::now();
    ov.join(*spare, &p);
    ov.leave(victim);
    let s = t.elapsed().as_secs_f64();
    tables.refresh_node(*spare, ov, rng);
    tables.clear_node(victim);
    live[victim_i] = *spare;
    *spare = victim;
    s
}

/// Share of routes that are state updates (the rest are duty queries).
fn update_share(shape: &Shape) -> f64 {
    let u = shape.updates();
    u / (u + shape.generated as f64).max(1.0)
}

/// Finger-table refreshes per routed hop: one per live node per refresh
/// cycle.
fn refreshes_per_hop(shape: &Shape) -> f64 {
    let sc = &shape.scenario;
    let refreshes =
        sc.n_nodes as f64 * sc.duration_ms as f64 / hid_config(sc).table_refresh_ms as f64;
    shape.per_hop(refreshes)
}

/// Whole routes (`Router::next_hop` until the target's owner) in the
/// workload's mix: state updates from a live node to its own availability
/// point (which recur, so the route cache can hit) and duty queries from
/// a random live node to a workload demand point, each cut at the
/// protocol's hop budget. Finger-table refreshes and churn swaps are
/// interleaved at the workload's rates per hop.
/// Returns (ns per hop, route-cache hit ratio, hops).
fn route(shape: &Shape, seed: u64) -> (f64, f64, u64) {
    const ROUTES: usize = 40_000;
    let sc = &shape.scenario;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x52);
    let (mut ov, mut tables) = overlay(sc.n_nodes, &mut rng);
    let mut src = build_source(sc);
    let mut avail: Vec<Point> = (0..max_nodes(sc.n_nodes))
        .map(|_| key_point(&src.node_capacity(&mut rng)))
        .collect();
    let mut live: Vec<NodeId> = ov.live_nodes().collect();
    let mut spare = NodeId(sc.n_nodes as u32);
    let mut router = Router::from_env();
    let (share, refresh_rate, swap_rate) = (
        update_share(shape),
        refreshes_per_hop(shape),
        shape.per_hop(shape.swaps as f64),
    );
    // PID-CAN's per-message hop budget: a message that has used it up is
    // dropped. Routes to a point on a zone boundary can cycle until then.
    let budget = 4 * (sc.n_nodes.max(2) as f64).log2().ceil() as u64 + 16;
    let (mut ns, mut hops, mut truncated) = (0u128, 0u64, 0u64);
    let (mut refresh_due, mut swap_due) = (0.0, 0.0);
    for _ in 0..ROUTES {
        let from = live[rng.random_range(0..live.len())];
        let target = if rng.random::<f64>() < share {
            avail[from.idx()]
        } else {
            key_point(&demand(&mut src, &mut rng))
        };
        let mut cur = from;
        let mut walked = 0u64;
        let t = Instant::now();
        while let Some(next) = router.next_hop(&ov, &tables, cur, &target) {
            cur = next;
            walked += 1;
            if walked == budget {
                truncated += 1;
                break;
            }
        }
        ns += t.elapsed().as_nanos();
        // The call that finds the target's owner is a decision too.
        hops += walked + 1;
        refresh_due += (walked + 1) as f64 * refresh_rate;
        while refresh_due >= 1.0 {
            let node = live[rng.random_range(0..live.len())];
            tables.refresh_node(node, &ov, &mut rng);
            refresh_due -= 1.0;
        }
        swap_due += (walked + 1) as f64 * swap_rate;
        while swap_due >= 1.0 {
            avail[spare.idx()] = key_point(&src.node_capacity(&mut rng));
            swap(&mut ov, &mut tables, &mut live, &mut spare, &mut rng);
            swap_due -= 1.0;
        }
    }
    let st = router.cache_stats();
    let lookups = (st.hits + st.misses).max(1);
    println!("iso inscan.route: {truncated} of {ROUTES} routes ran out of the {budget}-hop budget");
    (
        ns as f64 / hops as f64,
        st.hits as f64 / lookups as f64,
        hops,
    )
}

/// Bootstrap a HID-CAN overlay and its finger tables at `n` nodes.
fn overlay(n: usize, rng: &mut SmallRng) -> (CanOverlay, IndexTables) {
    let ov = CanOverlay::bootstrap(dim(), n, max_nodes(n), rng);
    let mut tables = IndexTables::new(dim(), n, max_nodes(n));
    tables.refresh_all(&ov, rng);
    (ov, tables)
}

/// `RecordCache::qualified_into` for workload demands, at the owner of a
/// random point in the demand's qualified region (where index jumps look
/// for records). Each node's state record (its idle availability, stored
/// within the last TTL) sits at the owner of its availability point, as a
/// state update places it. Returns (ns per probe, mean records in a
/// probed cache).
fn qualified(sc: &Scenario, seed: u64) -> (f64, f64) {
    const PROBES: usize = 200_000;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x53);
    let n = sc.n_nodes;
    let ov = CanOverlay::bootstrap(dim(), n, max_nodes(n), &mut rng);
    let mut src = build_source(sc);
    let ttl = hid_config(sc).record_ttl_ms;
    let now: SimMillis = 10 * ttl;
    let mut caches = vec![RecordCache::new(ttl); max_nodes(n)];
    for i in 0..n {
        let avail = src.node_capacity(&mut rng);
        let owner = ov.owner_of(&key_point(&avail));
        caches[owner.idx()].insert(StateRecord {
            subject: NodeId(i as u32),
            avail,
            stored_at: now - rng.random_range(0..ttl),
        });
    }
    let probes: Vec<(ResVec, NodeId)> = (0..PROBES)
        .map(|_| {
            let d = demand(&mut src, &mut rng);
            let mut p = key_point(&d);
            for k in 0..p.dim() {
                p[k] += rng.random::<f64>() * (1.0 - p[k]);
            }
            (d, ov.owner_of(&p))
        })
        .collect();
    let cache_len = probes
        .iter()
        .map(|(_, duty)| caches[duty.idx()].len())
        .sum::<usize>() as f64
        / PROBES as f64;
    let mut buf = Vec::new();
    let t = Instant::now();
    for (d, duty) in &probes {
        caches[duty.idx()].qualified_into(d, now, &mut buf);
        black_box(buf.len());
    }
    (t.elapsed().as_nanos() as f64 / PROBES as f64, cache_len)
}

/// `NodeExec::next_completion` right after each admission: each of 64
/// workload tasks is admitted on a workload-capacity node when Inequality
/// (2) holds, and each admission bumps the epoch, as in the runner. Returns (ns per
/// prediction, mean resident tasks per node).
fn next_completion(sc: &Scenario, seed: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x54);
    let mut src = build_source(sc);
    let nodes = sc.n_nodes.min(2000);
    let (mut ns, mut calls, mut tid) = (0u128, 0u64, 0u64);
    for _ in 0..nodes {
        let mut node = NodeExec::new(src.node_capacity(&mut rng), PsmConfig::default());
        for _ in 0..64 {
            let task = src.next_task(NodeId(0), 0, &mut rng);
            if !node.qualifies(&task.expect) {
                continue;
            }
            let rt = RunningTask::with_duration(
                TaskId(tid),
                task.expect,
                task.duration_s,
                PERF_DIMS,
                0,
                0,
            );
            tid += 1;
            node.add_task(0, rt);
            let t = Instant::now();
            black_box(node.next_completion(0));
            ns += t.elapsed().as_nanos();
            calls += 1;
        }
    }
    (ns as f64 / calls.max(1) as f64, calls as f64 / nodes as f64)
}

/// `LanTopology::latency` for random live sender/receiver pairs.
fn latency(sc: &Scenario, seed: u64) -> f64 {
    const CALLS: usize = 2_000_000;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x55);
    let topo = LanTopology::new(
        max_nodes(sc.n_nodes),
        sc.lan_size,
        LatencyConfig::default(),
        &mut rng,
    );
    let pairs: Vec<(NodeId, NodeId)> = (0..1 << 16)
        .map(|_| {
            (
                NodeId(rng.random_range(0..sc.n_nodes) as u32),
                NodeId(rng.random_range(0..sc.n_nodes) as u32),
            )
        })
        .collect();
    let mut acc: SimMillis = 0;
    let t = Instant::now();
    for i in 0..CALLS {
        let (a, b) = pairs[i % pairs.len()];
        acc = acc.wrapping_add(topo.latency(a, b, &mut rng));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

/// `CanOverlay::join` + `leave` per churn swap at the workload's n, µs.
fn join_leave(sc: &Scenario, seed: u64) -> f64 {
    const SWAPS: usize = 1000;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x56);
    let (mut ov, mut tables) = overlay(sc.n_nodes, &mut rng);
    let mut live: Vec<NodeId> = ov.live_nodes().collect();
    let mut spare = NodeId(sc.n_nodes as u32);
    let s: f64 = (0..SWAPS)
        .map(|_| swap(&mut ov, &mut tables, &mut live, &mut spare, &mut rng))
        .sum();
    s / SWAPS as f64 * 1e6
}

/// `CanOverlay::bootstrap` + `IndexTables::refresh_all` at the workload's
/// n: median seconds of three.
fn bootstrap(sc: &Scenario, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57);
    median(
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(overlay(sc.n_nodes, &mut rng));
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}
