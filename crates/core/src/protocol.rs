//! The PID-CAN protocol: state publication, proactive index diffusion
//! (Algorithms 1–2) and the contention-minimized best-fit query
//! (Algorithms 3–5), with optional SoS and VD.

use crate::config::{DiffusionMethod, PidCanConfig};
use crate::messages::PidMsg;
use crate::pilist::PiList;
use rand::{Rng, RngExt};
use soc_can::greedy_next_hop_filtered;
use soc_inscan::{IndexTables, Router};
use soc_net::MsgKind;
use soc_overlay::{
    Candidate, Ctx, DiscoveryOverlay, Phase, QueryRequest, QueryVerdict, RecordCache, StateRecord,
};
use soc_types::{NodeId, NodeRows, QueryId, ResVec};
use std::collections::HashMap;
use std::ops::Range;

/// Timer discriminants.
const T_STATE: u32 = 0;
const T_DIFFUSE: u32 = 1;
const T_REFRESH: u32 = 2;

/// Requester-side query bookkeeping (SoS phase tracking).
#[derive(Clone, Debug)]
struct QueryState {
    requester: NodeId,
    original: ResVec,
    slacked: bool,
    found: usize,
    wanted: usize,
}

/// Query-path diagnostics (calibration/ablation visibility; not part of
/// the protocol).
#[derive(Clone, Copy, Debug, Default)]
pub struct PidDiag {
    /// Queries whose duty node had no positive neighbors to act as agents.
    pub duty_no_agents: u64,
    /// Index-agent messages handled.
    pub agent_visits: u64,
    /// Agent visits whose PIList sample came up empty.
    pub agent_pil_empty: u64,
    /// Index-jump visits.
    pub jump_visits: u64,
    /// Jump visits that found at least one qualified record.
    pub jump_hits: u64,
    /// State updates dropped because their routing budget ran out before
    /// they reached their duty node (this layer's failed operations; zero
    /// when routing terminates, as it must on a consistent overlay).
    pub updates_exhausted: u64,
}

/// PID-CAN (SID/HID ± SoS ± VD) as a pluggable discovery overlay.
///
/// Per-node state (finger tables, record caches, PILists) covers a range
/// of node ids: every id for [`PidCan::new`], one shard's own ids for a
/// [`DiscoveryOverlay::fork_shard`] fork.
pub struct PidCan {
    cfg: PidCanConfig,
    /// Expected overlay size (sizes the fingers and the routing budget).
    n: usize,
    tables: IndexTables,
    /// Routed-message facade: every next-hop decision (forward, re-route
    /// around a dead hop) goes through here so the `SOC_ROUTE` cache can
    /// memoize the hot (node, target) pairs of a duty-routing burst.
    router: Router,
    caches: NodeRows<RecordCache>,
    pilists: NodeRows<PiList>,
    queries: HashMap<QueryId, QueryState>,
    overlay_dim: usize,
    route_budget: u32,
    diag: PidDiag,
    /// Recycled `FoundList` buffer: `qualified_into` fills it on every
    /// duty/jump cache probe instead of allocating a fresh Vec per visit.
    found_buf: Vec<StateRecord>,
}

impl PidCan {
    /// Build an instance for a CAN overlay of `overlay_dim` dimensions
    /// holding `n` expected nodes with id capacity `max_nodes`.
    ///
    /// For the paper's SOC, `overlay_dim` is
    /// [`PidCanConfig::overlay_dim`] (5, or 6 with VD); unit tests may use
    /// smaller spaces. With VD enabled, `overlay_dim` must be one more than
    /// the resource-vector dimensionality.
    pub fn new(cfg: PidCanConfig, overlay_dim: usize, n: usize, max_nodes: usize) -> Self {
        Self::for_ids(cfg, overlay_dim, n, 0..max_nodes, Router::from_env())
    }

    /// An instance whose per-node state holds rows for `ids` only.
    fn for_ids(
        cfg: PidCanConfig,
        overlay_dim: usize,
        n: usize,
        ids: Range<usize>,
        router: Router,
    ) -> Self {
        // Generous routing TTL: 4·log2(n) + 16 covers INSCAN detours under
        // churn while bounding worst-case wandering.
        let route_budget = 4 * (n.max(2) as f64).log2().ceil() as u32 + 16;
        PidCan {
            cfg,
            n,
            tables: IndexTables::for_ids(overlay_dim, n, ids.clone()),
            router,
            caches: NodeRows::new(ids.clone(), RecordCache::new(cfg.record_ttl_ms)),
            pilists: NodeRows::new(ids, PiList::new()),
            queries: HashMap::new(),
            overlay_dim,
            route_budget,
            diag: PidDiag::default(),
            found_buf: Vec::new(),
        }
    }

    /// Query-path diagnostics accumulated so far.
    pub fn diag(&self) -> PidDiag {
        self.diag
    }

    /// Configuration in use.
    pub fn config(&self) -> &PidCanConfig {
        &self.cfg
    }

    /// Read access to the finger tables (benches/diagnostics).
    pub fn tables(&self) -> &IndexTables {
        &self.tables
    }

    /// Route-cache hit/miss accounting (diagnostics; zeros under
    /// `SOC_ROUTE=scan`).
    pub fn route_cache_stats(&self) -> soc_inscan::RouteCacheStats {
        self.router.cache_stats()
    }

    /// Read access to a node's record cache (tests/diagnostics).
    pub fn cache(&self, node: NodeId) -> &RecordCache {
        &self.caches[node]
    }

    /// Read access to a node's PIList (tests/diagnostics).
    pub fn pilist(&self, node: NodeId) -> &PiList {
        &self.pilists[node]
    }

    /// Map a raw resource vector to a CAN key-space point, appending the
    /// random virtual coordinate under VD. `jitter` opts a *duty query*
    /// into corner diversification; record placement (StateUpdate) must
    /// always pass `false` so cached records stay at the node's true
    /// availability point.
    fn key_point<R: Rng>(
        &self,
        ctx_cmax: &ResVec,
        v: &ResVec,
        rng: &mut R,
        jitter: bool,
    ) -> ResVec {
        let mut p = v.normalize(ctx_cmax);
        if jitter && self.cfg.corner_jitter > 0.0 {
            // Diversify the search corner: an upward nudge keeps the duty
            // zone on the qualified side (records there satisfy a demand at
            // or below the jittered point) while spreading concurrent
            // same-demand queries over adjacent zones. RNG draws are gated
            // on the knob so jitter-off runs are bitwise unchanged.
            for d in 0..p.dim() {
                p[d] = (p[d] + rng.random::<f64>() * self.cfg.corner_jitter).min(1.0);
            }
        }
        if self.cfg.virtual_dim {
            p.push_dim(rng.random::<f64>())
        } else {
            p
        }
    }

    fn arm_node_timers(&self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId) {
        // Stagger periodic timers with random phase so 2000 nodes do not
        // fire in lockstep.
        let s = ctx.rng.random_range(0..self.cfg.state_update_ms.max(1));
        let d = ctx.rng.random_range(0..self.cfg.diffusion_ms.max(1));
        let r = ctx.rng.random_range(0..self.cfg.table_refresh_ms.max(1));
        ctx.timer(node, T_STATE, s);
        ctx.timer(node, T_DIFFUSE, d);
        ctx.timer(node, T_REFRESH, r);
    }

    /// Route-or-consume for messages targeting a key-space point. Returns
    /// `true` when `node` owns the point (message consumed by caller).
    fn forward_toward(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        node: NodeId,
        target: &ResVec,
        kind: MsgKind,
        msg: PidMsg,
    ) -> bool {
        let t = ctx.prof.start();
        let hop = self.router.next_hop(ctx.can, &self.tables, node, target);
        ctx.prof.stop(Phase::Route, t);
        match hop {
            None => true,
            Some(next) => {
                if ctx.host.is_suspect(node, next, ctx.now) {
                    // Defence layer: the computed next hop is on `node`'s
                    // blacklist. Detour greedily around every suspect (and
                    // the dead); an isolated sender consumes the message.
                    let detour = greedy_next_hop_filtered(ctx.can, node, target, |n| {
                        ctx.host.is_alive(n) && !ctx.host.is_suspect(node, n, ctx.now)
                    });
                    return match detour {
                        Some(next) => {
                            ctx.send(node, next, kind, msg);
                            false
                        }
                        None => true,
                    };
                }
                ctx.send(node, next, kind, msg);
                false
            }
        }
    }

    /// Retransmission path after a delivery failure: like
    /// [`Self::forward_toward`] but never picks `avoid` or a node the host
    /// layer knows to be dead (the failure detector just told us). Falls
    /// back to the closest *live* adjacent neighbor; when the sender is the
    /// closest live zone to the target it consumes the message itself
    /// (returns `true`).
    fn forward_avoiding(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        node: NodeId,
        target: &ResVec,
        kind: MsgKind,
        msg: PidMsg,
        avoid: NodeId,
    ) -> bool {
        if ctx.can.zone(node).is_some_and(|z| z.contains(target)) {
            return true;
        }
        let t = ctx.prof.start();
        let hop = self.router.next_hop(ctx.can, &self.tables, node, target);
        ctx.prof.stop(Phase::Route, t);
        if let Some(next) = hop {
            if next != avoid && ctx.host.is_alive(next) && !ctx.host.is_suspect(node, next, ctx.now)
            {
                ctx.send(node, next, kind, msg);
                return false;
            }
        }
        // Greedy over live, unsuspected neighbors, excluding the dead hop.
        let next = greedy_next_hop_filtered(ctx.can, node, target, |n| {
            n != avoid && ctx.host.is_alive(n) && !ctx.host.is_suspect(node, n, ctx.now)
        });
        match next {
            Some(next) => {
                ctx.send(node, next, kind, msg);
                false
            }
            // Isolated sender: treat the message as arrived (best effort).
            None => true,
        }
    }

    /// Algorithm 1 (index-sender): diffuse `node`'s identifier because its
    /// cache is non-empty.
    fn diffuse_index(&mut self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId) {
        let table = self.tables.get(node);
        match self.cfg.diffusion {
            DiffusionMethod::Hopping => {
                // One message along dimension 0 with TTL = L; relays fan out
                // the remaining dimensions (Algorithm 2).
                if let Some(t) = table.random_ninode(0, ctx.rng) {
                    ctx.send(
                        node,
                        t,
                        MsgKind::IndexDiffusion,
                        PidMsg::Index {
                            id: node,
                            dim_no: 0,
                            dim_ttl: self.cfg.fanout_l,
                        },
                    );
                }
            }
            DiffusionMethod::Spreading => {
                // The initiator picks all L same-dimension targets itself.
                for _ in 0..self.cfg.fanout_l {
                    if let Some(t) = table.random_ninode(0, ctx.rng) {
                        ctx.send(
                            node,
                            t,
                            MsgKind::IndexDiffusion,
                            PidMsg::Index {
                                id: node,
                                dim_no: 0,
                                dim_ttl: 0,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Algorithm 2 (index-relay) at `node` for `{id, dim_no, dim_ttl}`.
    fn relay_index(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        node: NodeId,
        id: NodeId,
        dim_no: usize,
        dim_ttl: usize,
    ) {
        self.pilists[node].insert(id, ctx.now);
        let table = self.tables.get(node);
        match self.cfg.diffusion {
            DiffusionMethod::Hopping => {
                if dim_ttl > 1 {
                    if let Some(t) = table.random_ninode(dim_no, ctx.rng) {
                        ctx.send(
                            node,
                            t,
                            MsgKind::IndexDiffusion,
                            PidMsg::Index {
                                id,
                                dim_no,
                                dim_ttl: dim_ttl - 1,
                            },
                        );
                    }
                }
                if dim_no + 1 < self.overlay_dim {
                    if let Some(t) = table.random_ninode(dim_no + 1, ctx.rng) {
                        ctx.send(
                            node,
                            t,
                            MsgKind::IndexDiffusion,
                            PidMsg::Index {
                                id,
                                dim_no: dim_no + 1,
                                dim_ttl: self.cfg.fanout_l,
                            },
                        );
                    }
                }
            }
            DiffusionMethod::Spreading => {
                if dim_no + 1 < self.overlay_dim {
                    for _ in 0..self.cfg.fanout_l {
                        if let Some(t) = table.random_ninode(dim_no + 1, ctx.rng) {
                            ctx.send(
                                node,
                                t,
                                MsgKind::IndexDiffusion,
                                PidMsg::Index {
                                    id,
                                    dim_no: dim_no + 1,
                                    dim_ttl: 0,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Deliver found candidates to the requester (locally when the finder
    /// *is* the requester).
    fn notify_found(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
        candidates: Vec<Candidate>,
    ) {
        if candidates.is_empty() {
            return;
        }
        if at == requester {
            self.note_found(qid, candidates.len());
            ctx.query_results(qid, candidates);
        } else {
            ctx.send(
                at,
                requester,
                MsgKind::FoundNotify,
                PidMsg::Found { qid, candidates },
            );
        }
    }

    fn note_found(&mut self, qid: QueryId, n: usize) {
        if let Some(q) = self.queries.get_mut(&qid) {
            q.found += n;
        }
    }

    /// Algorithm 3, duty-node half: build the agent list `ι` and dispatch
    /// the first index-agent message.
    fn handle_duty(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        duty: NodeId,
        qid: QueryId,
        requester: NodeId,
        demand: ResVec,
        mut delta: usize,
    ) {
        // Optionally search the duty node's own cache first (best-fit
        // records live in the zone enclosing the demand vector).
        if self.cfg.check_duty_cache {
            let mut found = std::mem::take(&mut self.found_buf);
            let t = ctx.prof.start();
            self.caches[duty].qualified_into(&demand, ctx.now, &mut found);
            ctx.prof.stop(Phase::CacheProbe, t);
            if !found.is_empty() {
                delta = delta.saturating_sub(found.len());
                let cands = found
                    .iter()
                    .map(|r| Candidate {
                        node: r.subject,
                        avail: r.avail,
                    })
                    .collect();
                self.notify_found(ctx, duty, qid, requester, cands);
            }
            self.found_buf = found;
        }
        if delta == 0 {
            self.finish_query(ctx, duty, qid, requester);
            return;
        }
        // ι: one random positive adjacent neighbor per dimension.
        let mut agents: Vec<NodeId> = Vec::new();
        for d in 0..self.overlay_dim {
            let ups: Vec<NodeId> = ctx
                .can
                .neighbors(duty)
                .iter()
                .filter(|e| e.dim == d && e.positive)
                .map(|e| e.node)
                .collect();
            if !ups.is_empty() {
                let pick = ups[ctx.rng.random_range(0..ups.len())];
                if !agents.contains(&pick) {
                    agents.push(pick);
                }
            }
        }
        if agents.is_empty() {
            self.diag.duty_no_agents += 1;
        }
        self.continue_with_agents(ctx, duty, qid, requester, demand, delta, agents);
    }

    /// "Randomly select an index agent α from ι; send the index-agent
    /// message {v, ι − α} to α" — shared by Algorithms 3–5 fallback paths.
    #[allow(clippy::too_many_arguments)]
    fn continue_with_agents(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
        demand: ResVec,
        delta: usize,
        mut agents: Vec<NodeId>,
    ) {
        if agents.is_empty() {
            self.finish_query(ctx, at, qid, requester);
            return;
        }
        let i = ctx.rng.random_range(0..agents.len());
        let alpha = agents.swap_remove(i);
        ctx.send(
            at,
            alpha,
            MsgKind::IndexAgent,
            PidMsg::IndexAgent {
                qid,
                requester,
                demand,
                delta,
                agents,
            },
        );
    }

    /// "Randomly choose next index node β from list j; send index-jump
    /// message {v, δ, j − β} to β" — shared continuation.
    #[allow(clippy::too_many_arguments)]
    fn continue_jump(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
        demand: ResVec,
        delta: usize,
        mut jumps: Vec<NodeId>,
        agents: Vec<NodeId>,
        budget: usize,
    ) {
        if jumps.is_empty() || budget == 0 {
            self.continue_with_agents(ctx, at, qid, requester, demand, delta, agents);
            return;
        }
        let i = ctx.rng.random_range(0..jumps.len());
        let beta = jumps.swap_remove(i);
        ctx.send(
            at,
            beta,
            MsgKind::IndexJump,
            PidMsg::IndexJump {
                qid,
                requester,
                demand,
                delta,
                jumps,
                agents,
                budget: budget - 1,
            },
        );
    }

    /// The search path died out; tell the requester (who owns the SoS
    /// retry decision).
    fn finish_query(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
    ) {
        if at == requester {
            self.handle_exhausted(ctx, requester, qid);
        } else {
            ctx.send(
                at,
                requester,
                MsgKind::FoundNotify,
                PidMsg::Exhausted { qid },
            );
        }
    }

    /// Requester-side exhaustion: retry under SoS (restore the original
    /// vector), else report done.
    fn handle_exhausted(&mut self, ctx: &mut Ctx<'_, PidMsg>, requester: NodeId, qid: QueryId) {
        let Some(q) = self.queries.get(&qid) else {
            return; // stale notice for an already-settled query
        };
        if self.cfg.sos && q.slacked && q.found == 0 {
            // Restore e(t) and search again (Formula (3) fallback).
            let (original, wanted) = (q.original, q.wanted);
            if let Some(qm) = self.queries.get_mut(&qid) {
                qm.slacked = false;
            }
            self.issue_query(ctx, requester, qid, original, original, wanted);
        } else {
            self.queries.remove(&qid);
            ctx.query_done(qid, QueryVerdict::Exhausted);
        }
    }

    /// Inject a duty-query at the requester and route it toward the zone
    /// enclosing `effective` (the possibly-slacked vector).
    fn issue_query(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        requester: NodeId,
        qid: QueryId,
        effective: ResVec,
        _original: ResVec,
        wanted: usize,
    ) {
        let target = {
            let cmax = *ctx.host.cmax();
            self.key_point(&cmax, &effective, ctx.rng, true)
        };
        let msg = PidMsg::DutyQuery {
            qid,
            requester,
            demand: effective,
            target,
            delta: wanted,
            hops_left: self.route_budget,
        };
        if self.forward_toward(ctx, requester, &target, MsgKind::DutyQuery, msg) {
            // Requester itself is the duty node.
            self.handle_duty(ctx, requester, qid, requester, effective, wanted);
        }
    }

    /// Componentwise uniform slack `e ⪯ e' ⪯ cmax` (Formula (3)).
    fn slack_vector<R: Rng>(demand: &ResVec, cmax: &ResVec, rng: &mut R) -> ResVec {
        let mut e = *demand;
        for d in 0..e.dim() {
            let hi = cmax[d].max(e[d]);
            e[d] += rng.random::<f64>() * (hi - e[d]);
        }
        e
    }
}

impl DiscoveryOverlay for PidCan {
    type Msg = PidMsg;

    fn name(&self) -> &'static str {
        self.cfg.label()
    }

    fn diag_string(&self) -> String {
        // Route-cache hit/miss counters are deliberately NOT in here: diag
        // feeds `RunReport::fingerprint`, which must be bitwise identical
        // across `SOC_ROUTE` backends. Read them via
        // [`PidCan::route_cache_stats`] instead.
        format!("{:?}", self.diag)
    }

    fn diag_record_match(&self, demand: &ResVec, now: soc_types::SimMillis) -> Option<bool> {
        Some(self.caches.iter().any(|c| c.has_qualified(demand, now)))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, PidMsg>) {
        // Build initial finger tables (charged as maintenance) and arm
        // per-node timers.
        let nodes: Vec<NodeId> = ctx.can.live_nodes().collect();
        self.on_start_nodes(ctx, &nodes);
    }

    fn on_start_nodes(&mut self, ctx: &mut Ctx<'_, PidMsg>, nodes: &[NodeId]) {
        for &node in nodes {
            let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
            ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
            self.arm_node_timers(ctx, node);
        }
    }

    fn shardable(&self) -> bool {
        // Every handler at node `x` touches only `caches[x]`, `pilists[x]`
        // and `x`'s finger-table row; query bookkeeping lives at the
        // requester and `Found`/`Exhausted` are delivered there. That is
        // exactly the partition-by-node property the executor needs.
        true
    }

    fn fork_shard(&self, ids: Range<usize>) -> Option<Self> {
        let router = Router::with_backend(self.router.backend());
        Some(Self::for_ids(
            self.cfg,
            self.overlay_dim,
            self.n,
            ids,
            router,
        ))
    }

    fn absorb_diag(&mut self, other: &Self) {
        self.diag.duty_no_agents += other.diag.duty_no_agents;
        self.diag.agent_visits += other.diag.agent_visits;
        self.diag.agent_pil_empty += other.diag.agent_pil_empty;
        self.diag.jump_visits += other.diag.jump_visits;
        self.diag.jump_hits += other.diag.jump_hits;
        self.diag.updates_exhausted += other.diag.updates_exhausted;
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId, msg: PidMsg) {
        match msg {
            PidMsg::StateUpdate {
                subject,
                avail,
                target,
                hops_left,
            } => {
                let consumed = {
                    let zone = ctx.can.zone(node).expect("message at dead node");
                    zone.contains(&target)
                };
                if consumed {
                    self.caches[node].insert(StateRecord {
                        subject,
                        avail,
                        stored_at: ctx.now,
                    });
                } else if hops_left > 0 {
                    let m = PidMsg::StateUpdate {
                        subject,
                        avail,
                        target,
                        hops_left: hops_left - 1,
                    };
                    if self.forward_toward(ctx, node, &target, MsgKind::StateUpdate, m) {
                        self.caches[node].insert(StateRecord {
                            subject,
                            avail,
                            stored_at: ctx.now,
                        });
                    }
                } else {
                    // Budget exhausted: drop; the next cycle re-publishes.
                    self.diag.updates_exhausted += 1;
                }
            }
            PidMsg::Index {
                id,
                dim_no,
                dim_ttl,
            } => self.relay_index(ctx, node, id, dim_no, dim_ttl),
            PidMsg::DutyQuery {
                qid,
                requester,
                demand,
                target,
                delta,
                hops_left,
            } => {
                let here = ctx.can.zone(node).is_some_and(|z| z.contains(&target));
                if here {
                    self.handle_duty(ctx, node, qid, requester, demand, delta);
                } else if hops_left == 0 {
                    // Routing budget exhausted: settle at the closest node
                    // reached (best effort) rather than wandering.
                    self.handle_duty(ctx, node, qid, requester, demand, delta);
                } else {
                    let m = PidMsg::DutyQuery {
                        qid,
                        requester,
                        demand,
                        target,
                        delta,
                        hops_left: hops_left - 1,
                    };
                    if self.forward_toward(ctx, node, &target, MsgKind::DutyQuery, m) {
                        self.handle_duty(ctx, node, qid, requester, demand, delta);
                    }
                }
            }
            PidMsg::IndexAgent {
                qid,
                requester,
                demand,
                delta,
                agents,
            } => {
                // Algorithm 4: sample a jump list from the local PIList.
                let jumps = self.pilists[node].sample(
                    self.cfg.jump_sample,
                    ctx.now,
                    self.cfg.pilist_ttl_ms,
                    ctx.rng,
                );
                self.diag.agent_visits += 1;
                if jumps.is_empty() {
                    self.diag.agent_pil_empty += 1;
                }
                let budget = self.cfg.jump_budget;
                self.continue_jump(
                    ctx, node, qid, requester, demand, delta, jumps, agents, budget,
                );
            }
            PidMsg::IndexJump {
                qid,
                requester,
                demand,
                mut delta,
                mut jumps,
                agents,
                budget,
            } => {
                // Algorithm 5: search the local cache.
                let mut found = std::mem::take(&mut self.found_buf);
                let t = ctx.prof.start();
                self.caches[node].qualified_into(&demand, ctx.now, &mut found);
                ctx.prof.stop(Phase::CacheProbe, t);
                self.diag.jump_visits += 1;
                let cands: Vec<Candidate> = found
                    .iter()
                    .map(|r| Candidate {
                        node: r.subject,
                        avail: r.avail,
                    })
                    .collect();
                self.found_buf = found;
                if !cands.is_empty() {
                    self.diag.jump_hits += 1;
                    delta = delta.saturating_sub(cands.len());
                    self.notify_found(ctx, node, qid, requester, cands);
                } else if budget > 0 {
                    // §III-B1 relay: extend the chain with this index
                    // node's own positive-index knowledge.
                    for extra in self.pilists[node].sample(
                        self.cfg.jump_refill,
                        ctx.now,
                        self.cfg.pilist_ttl_ms,
                        ctx.rng,
                    ) {
                        if extra != node && !jumps.contains(&extra) {
                            jumps.push(extra);
                        }
                    }
                }
                if delta > 0 {
                    self.continue_jump(
                        ctx, node, qid, requester, demand, delta, jumps, agents, budget,
                    );
                }
            }
            PidMsg::Found { qid, candidates } => {
                self.note_found(qid, candidates.len());
                ctx.query_results(qid, candidates);
            }
            PidMsg::Exhausted { qid } => self.handle_exhausted(ctx, node, qid),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId, kind: u32) {
        match kind {
            T_STATE => {
                let avail = ctx.host.availability(node);
                let target = {
                    let cmax = *ctx.host.cmax();
                    self.key_point(&cmax, &avail, ctx.rng, false)
                };
                let msg = PidMsg::StateUpdate {
                    subject: node,
                    avail,
                    target,
                    hops_left: self.route_budget,
                };
                if self.forward_toward(ctx, node, &target, MsgKind::StateUpdate, msg) {
                    self.caches[node].insert(StateRecord {
                        subject: node,
                        avail,
                        stored_at: ctx.now,
                    });
                }
                ctx.timer(node, T_STATE, self.cfg.state_update_ms);
            }
            T_DIFFUSE => {
                self.caches[node].purge_expired(ctx.now);
                self.pilists[node].purge(ctx.now, self.cfg.pilist_ttl_ms);
                if !self.caches[node].is_empty_at(ctx.now) {
                    self.diffuse_index(ctx, node);
                }
                ctx.timer(node, T_DIFFUSE, self.cfg.diffusion_ms);
            }
            T_REFRESH => {
                let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
                ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
                ctx.timer(node, T_REFRESH, self.cfg.table_refresh_ms);
            }
            _ => unreachable!("unknown PID-CAN timer {kind}"),
        }
    }

    fn start_query(&mut self, ctx: &mut Ctx<'_, PidMsg>, req: QueryRequest) {
        let slacked = self.cfg.sos;
        let effective = if slacked {
            let cmax = *ctx.host.cmax();
            Self::slack_vector(&req.demand, &cmax, ctx.rng)
        } else {
            req.demand
        };
        self.queries.insert(
            req.qid,
            QueryState {
                requester: req.requester,
                original: req.demand,
                slacked,
                found: 0,
                wanted: req.wanted,
            },
        );
        self.issue_query(
            ctx,
            req.requester,
            req.qid,
            effective,
            req.demand,
            req.wanted,
        );
    }

    fn on_node_joined(&mut self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId) {
        self.caches[node] = RecordCache::new(self.cfg.record_ttl_ms);
        self.pilists[node] = PiList::new();
        let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
        ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
        self.arm_node_timers(ctx, node);
    }

    fn on_node_left(&mut self, _ctx: &mut Ctx<'_, PidMsg>, node: NodeId) {
        // Delivered only to the departed node's own shard: its rows and the
        // queries it requested all live there.
        self.caches[node] = RecordCache::new(self.cfg.record_ttl_ms);
        self.pilists[node] = PiList::new();
        self.tables.clear_node(node);
        // Abandon queries the departed requester owned. Fingers elsewhere
        // that still point at the dead node are skipped by routing and
        // fixed by the periodic refresh / `on_zones_reassigned`.
        // soc-lint: allow(no-unordered-iter) -- per-entry removal with no cross-entry effects; visit order cannot leak
        self.queries.retain(|_, q| q.requester != node);
    }

    fn on_zones_reassigned(&mut self, ctx: &mut Ctx<'_, PidMsg>, affected: &[NodeId]) {
        // §IV-B departure maintenance: nodes whose zones changed rebuild
        // their fingers immediately (charged as maintenance traffic).
        for &node in affected {
            if ctx.host.is_alive(node) {
                let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
                ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
            }
        }
    }

    fn on_message_dropped(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        from: NodeId,
        to: NodeId,
        msg: PidMsg,
    ) {
        if !ctx.host.is_alive(from) {
            return;
        }
        match msg {
            // Re-route around the observed-dead hop. The overlay normally
            // reassigns the dead node's zone before the retry; the explicit
            // `avoid` + liveness filter also covers windows where routing
            // state still references it.
            PidMsg::StateUpdate {
                subject,
                avail,
                target,
                hops_left,
            } => {
                if hops_left == 0 {
                    return;
                }
                let m = PidMsg::StateUpdate {
                    subject,
                    avail,
                    target,
                    hops_left: hops_left - 1,
                };
                if self.forward_avoiding(ctx, from, &target, MsgKind::StateUpdate, m, to) {
                    self.caches[from].insert(StateRecord {
                        subject,
                        avail,
                        stored_at: ctx.now,
                    });
                }
            }
            PidMsg::DutyQuery {
                qid,
                requester,
                demand,
                target,
                delta,
                hops_left,
            } => {
                if hops_left == 0 {
                    self.handle_duty(ctx, from, qid, requester, demand, delta);
                    return;
                }
                let m = PidMsg::DutyQuery {
                    qid,
                    requester,
                    demand,
                    target,
                    delta,
                    hops_left: hops_left - 1,
                };
                if self.forward_avoiding(ctx, from, &target, MsgKind::DutyQuery, m, to) {
                    self.handle_duty(ctx, from, qid, requester, demand, delta);
                }
            }
            // Diffusion is best-effort.
            PidMsg::Index { .. } => {}
            // Continue the search from the sender, skipping the dead hop.
            PidMsg::IndexAgent {
                qid,
                requester,
                demand,
                delta,
                agents,
            } => self.continue_with_agents(ctx, from, qid, requester, demand, delta, agents),
            PidMsg::IndexJump {
                qid,
                requester,
                demand,
                delta,
                jumps,
                agents,
                budget,
            } => self.continue_jump(
                ctx, from, qid, requester, demand, delta, jumps, agents, budget,
            ),
            // The requester died; nothing to deliver to.
            PidMsg::Found { .. } | PidMsg::Exhausted { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::CanOverlay;
    use soc_overlay::testkit::TestHost;
    use soc_overlay::Effect;

    const N: usize = 16;

    /// ISSUE 5 satellite: `forward_avoiding`'s greedy-over-live fallback
    /// was previously exercised only indirectly through churn runs; these
    /// tests drive the private method straight.
    fn world(seed: u64) -> (PidCan, CanOverlay, TestHost, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let can = CanOverlay::bootstrap(2, N, N, &mut rng);
        let cmax = ResVec::from_slice(&[10.0, 10.0]);
        let host = TestHost::uniform(N, ResVec::from_slice(&[5.0, 5.0]), cmax);
        // Tables stay empty (no refresh), so the router's finger step
        // degenerates to the plain greedy hop — deterministic without RNG.
        let proto = PidCan::new(PidCanConfig::hid(), 2, N, N);
        (proto, can, host, rng)
    }

    fn dummy_msg() -> PidMsg {
        PidMsg::StateUpdate {
            subject: NodeId(0),
            avail: ResVec::from_slice(&[5.0, 5.0]),
            target: ResVec::from_slice(&[0.9, 0.9]),
            hops_left: 4,
        }
    }

    /// The greedy choice over `node`'s neighbors restricted by `ok`,
    /// replicating the pre-facade inline loop (distance, then id).
    fn manual_greedy(
        can: &CanOverlay,
        host: &TestHost,
        node: NodeId,
        target: &ResVec,
        avoid: NodeId,
    ) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for e in can.neighbors(node) {
            if e.node == avoid || !host.alive[e.node.idx()] {
                continue;
            }
            let d = can.zone(e.node).unwrap().dist_to_point(target);
            if best.is_none_or(|(bd, bn)| d < bd || (d == bd && e.node < bn)) {
                best = Some((d, e.node));
            }
        }
        best.map(|(_, n)| n)
    }

    /// A sender far from the target, its unfiltered greedy next hop, and
    /// the target point.
    fn pick_route(can: &CanOverlay) -> (NodeId, NodeId, ResVec) {
        let target = ResVec::from_slice(&[0.97, 0.97]);
        let sender = can.owner_of(&ResVec::from_slice(&[0.02, 0.02]));
        let hop = soc_can::greedy_next_hop(can, sender, &target).expect("sender is far away");
        (sender, hop, target)
    }

    #[test]
    fn avoided_hop_is_never_chosen() {
        let (mut proto, can, host, mut rng) = world(71);
        let (sender, hop, target) = pick_route(&can);
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed = proto.forward_avoiding(
            &mut ctx,
            sender,
            &target,
            MsgKind::StateUpdate,
            dummy_msg(),
            hop,
        );
        assert!(!consumed, "other live neighbors exist");
        let (fx, _) = ctx.finish();
        let expect = manual_greedy(&can, &host, sender, &target, hop).unwrap();
        assert_ne!(expect, hop);
        match &fx[..] {
            [Effect::Send { from, to, .. }] => {
                assert_eq!(*from, sender);
                assert_eq!(
                    *to, expect,
                    "fallback must pick the nearest non-avoided live neighbor"
                );
            }
            other => panic!("expected exactly one send, got {other:?}"),
        }
    }

    #[test]
    fn dead_neighbors_are_skipped() {
        let (mut proto, can, mut host, mut rng) = world(72);
        let (sender, hop, target) = pick_route(&can);
        // Kill everything the plain greedy would prefer except one
        // survivor; the fallback must find that survivor.
        let survivor = can.neighbors(sender).iter().map(|e| e.node).max().unwrap();
        for e in can.neighbors(sender) {
            host.alive[e.node.idx()] = e.node == survivor;
        }
        let avoid = if hop == survivor {
            NodeId(u32::MAX)
        } else {
            hop
        };
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed = proto.forward_avoiding(
            &mut ctx,
            sender,
            &target,
            MsgKind::StateUpdate,
            dummy_msg(),
            avoid,
        );
        assert!(!consumed);
        let (fx, _) = ctx.finish();
        match &fx[..] {
            [Effect::Send { to, .. }] => assert_eq!(*to, survivor),
            other => panic!("expected exactly one send, got {other:?}"),
        }
    }

    #[test]
    fn isolated_sender_self_consumes() {
        let (mut proto, can, mut host, mut rng) = world(73);
        let (sender, hop, target) = pick_route(&can);
        for e in can.neighbors(sender) {
            host.alive[e.node.idx()] = false;
        }
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed = proto.forward_avoiding(
            &mut ctx,
            sender,
            &target,
            MsgKind::StateUpdate,
            dummy_msg(),
            hop,
        );
        assert!(consumed, "an isolated sender must consume the message");
        let (fx, sent) = ctx.finish();
        assert!(fx.is_empty(), "nothing to send: {fx:?}");
        assert!(sent.is_zero());
    }

    #[test]
    fn suspected_next_hop_is_detoured_by_its_observer_only() {
        // Blacklist the sender's natural next hop: `forward_toward` must
        // detour to the nearest live unsuspected neighbor. The suspicion
        // is per-observer, so routing *from the suspect itself* (or any
        // other node) is unaffected.
        let (mut proto, can, mut host, mut rng) = world(75);
        let (sender, hop, target) = pick_route(&can);
        host.suspects.push((sender, hop));
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed =
            proto.forward_toward(&mut ctx, sender, &target, MsgKind::StateUpdate, dummy_msg());
        assert!(!consumed, "other unsuspected neighbors exist");
        let (fx, _) = ctx.finish();
        let expect = manual_greedy(&can, &host, sender, &target, hop).unwrap();
        match &fx[..] {
            [Effect::Send { from, to, .. }] => {
                assert_eq!(*from, sender);
                assert_ne!(*to, hop, "must not route through the blacklisted hop");
                assert_eq!(*to, expect, "detour is the greedy choice minus the suspect");
            }
            other => panic!("expected exactly one send, got {other:?}"),
        }
        // Another observer with an empty blacklist keeps the plain route.
        host.suspects.clear();
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed =
            proto.forward_toward(&mut ctx, sender, &target, MsgKind::StateUpdate, dummy_msg());
        assert!(!consumed);
        let (fx, _) = ctx.finish();
        match &fx[..] {
            [Effect::Send { to, .. }] => assert_eq!(*to, hop, "no suspicion, no detour"),
            other => panic!("expected exactly one send, got {other:?}"),
        }
    }

    #[test]
    fn fully_suspected_neighborhood_consumes_instead_of_looping() {
        let (mut proto, can, mut host, mut rng) = world(76);
        let (sender, _, target) = pick_route(&can);
        for e in can.neighbors(sender) {
            host.suspects.push((sender, e.node));
        }
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed =
            proto.forward_toward(&mut ctx, sender, &target, MsgKind::StateUpdate, dummy_msg());
        assert!(
            consumed,
            "a sender that suspects every neighbor must consume, not loop"
        );
        let (fx, _) = ctx.finish();
        assert!(fx.is_empty());
    }

    #[test]
    fn forward_avoiding_also_respects_suspicion() {
        let (mut proto, can, mut host, mut rng) = world(77);
        let (sender, hop, target) = pick_route(&can);
        // `avoid` one node, blacklist the natural fallback: the chosen hop
        // must dodge both.
        let fallback = manual_greedy(&can, &host, sender, &target, hop).unwrap();
        host.suspects.push((sender, fallback));
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed = proto.forward_avoiding(
            &mut ctx,
            sender,
            &target,
            MsgKind::StateUpdate,
            dummy_msg(),
            hop,
        );
        let (fx, _) = ctx.finish();
        if consumed {
            assert!(fx.is_empty());
        } else {
            match &fx[..] {
                [Effect::Send { to, .. }] => {
                    assert_ne!(*to, hop, "avoided hop chosen");
                    assert_ne!(*to, fallback, "suspected fallback chosen");
                }
                other => panic!("expected exactly one send, got {other:?}"),
            }
        }
    }

    #[test]
    fn owner_consumes_without_forwarding() {
        let (mut proto, can, host, mut rng) = world(74);
        let target = ResVec::from_slice(&[0.97, 0.97]);
        let owner = can.owner_of(&target);
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let consumed = proto.forward_avoiding(
            &mut ctx,
            owner,
            &target,
            MsgKind::StateUpdate,
            dummy_msg(),
            NodeId(u32::MAX),
        );
        assert!(consumed, "the zone owner consumes directly");
        let (fx, _) = ctx.finish();
        assert!(fx.is_empty());
    }
}
