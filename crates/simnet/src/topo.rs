//! madnet — switched topologies with shared-bandwidth contention.
//!
//! The seed simulator connects NICs by private point-to-point pipes: a
//! packet's transit time depends only on its own size, never on what the
//! rest of the cluster is doing. That cannot express the phenomena the
//! optimizer most needs to survive — incast at a receiver's downlink,
//! elephants starving mice across a shared core, path diversity in a
//! Clos fabric. This module adds an opt-in *topology* per network:
//!
//! * a directed graph of host ports and switches ([`Topology`]) with
//!   [`Topology::dumbbell`] and [`Topology::fat_tree`] constructors;
//! * deterministic ECMP — among equal-cost shortest paths the next hop
//!   is chosen by a pure hash of the flow identity ([`flow_hash`]), so
//!   the same seed always routes the same way;
//! * per-link **max-min fair sharing** ([`max_min_rates`]): every packet
//!   in transit is a fluid transfer whose serialization rate is
//!   recomputed on each join/leave, in the style of dslab-network's
//!   shared-bandwidth throughput model. The per-packet path allocates
//!   nothing: one [`WaterFill`] scratch and a memoised route table live
//!   in [`FabricState`], and each reallocation posts one completion
//!   event (the earliest), not one per live transfer;
//! * bounded switch queues: a packet whose wire bytes would overflow a
//!   link's queue is dropped, and occupancy past an ECN threshold marks
//!   the packet so the receiver can echo congestion back to the sender.
//!
//! Everything here is integer arithmetic over ordered containers: same
//! seed → same routes, same rates, same marks, byte-identical traces.

// madlint: file: hot-path
// madlint: file: deterministic-output

use std::collections::{BTreeMap, VecDeque};

use crate::engine::NicId;
use crate::packet::WirePacket;
use crate::time::{SimDuration, SimTime};

/// A vertex in the fabric graph: a host attachment port or a switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Vertex {
    /// Host port `n` (one NIC attaches per port, in attachment order).
    Host(u32),
    /// Switch `n`.
    Switch(u32),
}

impl Vertex {
    /// Short label used in reports: `h3`, `s12`.
    pub fn label(self) -> String {
        match self {
            Vertex::Host(h) => format!("h{h}"),
            Vertex::Switch(s) => format!("s{s}"),
        }
    }

    fn index(self, hosts: u32) -> usize {
        match self {
            Vertex::Host(h) => h as usize,
            Vertex::Switch(s) => (hosts + s) as usize,
        }
    }
}

/// Capacity and queue parameters of one directed link.
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// Serialization bandwidth in bytes/s.
    pub bandwidth: u64,
    /// Per-hop propagation + switching latency.
    pub latency: SimDuration,
    /// Bound on queued wire bytes; a packet that would overflow is dropped.
    pub queue_capacity: u64,
    /// Occupancy (wire bytes) above which packets are ECN-marked.
    pub ecn_threshold: u64,
}

impl LinkProfile {
    /// Round-number profile for unit tests: 1 GB/s, 500 ns per hop,
    /// 256 KiB queues marking at 64 KiB.
    pub fn synthetic() -> Self {
        LinkProfile {
            bandwidth: 1_000_000_000,
            latency: SimDuration::from_nanos(500),
            queue_capacity: 1 << 18,
            ecn_threshold: 1 << 16,
        }
    }
}

/// One directed link in the fabric.
#[derive(Clone, Debug)]
pub struct Link {
    /// Transmitting vertex.
    pub from: Vertex,
    /// Receiving vertex.
    pub to: Vertex,
    /// Capacity and queue parameters.
    pub profile: LinkProfile,
}

/// An immutable switched-fabric graph with precomputed shortest-path
/// distances for ECMP routing.
#[derive(Clone, Debug)]
pub struct Topology {
    name: &'static str,
    hosts: u32,
    switches: u32,
    links: Vec<Link>,
    /// Flat vertex index → outgoing link indices, in insertion order.
    adj: Vec<Vec<usize>>,
    /// `dist[dst_host][vertex]` = hop count from vertex to that host
    /// (`u32::MAX` when unreachable).
    dist: Vec<Vec<u32>>,
    oversub_milli: u64,
}

impl Topology {
    fn build(
        name: &'static str,
        hosts: u32,
        switches: u32,
        links: Vec<Link>,
        oversub_milli: u64,
    ) -> Self {
        let n = (hosts + switches) as usize;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, l) in links.iter().enumerate() {
            adj[l.from.index(hosts)].push(i);
            radj[l.to.index(hosts)].push(i);
        }
        // BFS from each host over reversed edges: dist[h][v] is the hop
        // count of the shortest v → h path in the forward graph.
        let mut dist = vec![vec![u32::MAX; n]; hosts as usize];
        for h in 0..hosts as usize {
            let d = &mut dist[h];
            d[h] = 0;
            let mut frontier = VecDeque::from([h]);
            while let Some(v) = frontier.pop_front() {
                let dv = d[v];
                // All edges have weight 1, so a vertex is finalized the
                // first time it is labelled.
                for &li in &radj[v] {
                    let u = links[li].from.index(hosts);
                    if d[u] == u32::MAX {
                        d[u] = dv + 1;
                        frontier.push_back(u);
                    }
                }
            }
        }
        Topology {
            name,
            hosts,
            switches,
            links,
            adj,
            dist,
            oversub_milli,
        }
    }

    /// Dumbbell: `left` hosts on switch 0, `right` hosts on switch 1, and
    /// a single shared core link between the switches — the canonical
    /// shared-bottleneck topology. Host links use `edge`, the core uses
    /// `core`. Host ports `0..left` sit left, `left..left+right` right.
    ///
    /// # Panics
    /// Panics when either side is empty.
    pub fn dumbbell(left: u32, right: u32, edge: LinkProfile, core: LinkProfile) -> Self {
        assert!(left > 0 && right > 0, "dumbbell needs hosts on both sides");
        let mut links = Vec::new();
        let mut duplex = |a: Vertex, b: Vertex, p: LinkProfile| {
            links.push(Link {
                from: a,
                to: b,
                profile: p,
            });
            links.push(Link {
                from: b,
                to: a,
                profile: p,
            });
        };
        for h in 0..left {
            duplex(Vertex::Host(h), Vertex::Switch(0), edge);
        }
        for h in left..left + right {
            duplex(Vertex::Host(h), Vertex::Switch(1), edge);
        }
        duplex(Vertex::Switch(0), Vertex::Switch(1), core);
        // Worst-case offered load into the core over its capacity: the
        // larger side can source `side × edge` bytes/s against one core
        // link.
        let oversub = (u128::from(left.max(right)) * u128::from(edge.bandwidth) * 1000
            / u128::from(core.bandwidth.max(1))) as u64;
        Topology::build("dumbbell", left + right, 2, links, oversub)
    }

    /// Three-tier fat-tree with `k` ports per switch (`k` even): `k` pods
    /// of `k/2` edge and `k/2` aggregation switches, `(k/2)²` core
    /// switches, `k³/4` hosts. Built full-bisection (every link uses
    /// `link`), so the oversubscription ratio is 1.000. `k = 4` gives the
    /// classic 16-host, 20-switch fabric with 4-way ECMP between pods.
    ///
    /// # Panics
    /// Panics when `k` is odd or less than 2.
    pub fn fat_tree(k: u32, link: LinkProfile) -> Self {
        assert!(k >= 2 && k % 2 == 0, "fat-tree arity must be even, got {k}");
        let half = k / 2;
        let hosts = k * half * half;
        let edge_of = |pod: u32, i: u32| Vertex::Switch(pod * half + i);
        let agg_of = |pod: u32, j: u32| Vertex::Switch(k * half + pod * half + j);
        let core_of = |j: u32, m: u32| Vertex::Switch(2 * k * half + j * half + m);
        let mut links = Vec::new();
        let mut duplex = |a: Vertex, b: Vertex| {
            links.push(Link {
                from: a,
                to: b,
                profile: link,
            });
            links.push(Link {
                from: b,
                to: a,
                profile: link,
            });
        };
        for pod in 0..k {
            for i in 0..half {
                for m in 0..half {
                    let host = pod * half * half + i * half + m;
                    duplex(Vertex::Host(host), edge_of(pod, i));
                }
                for j in 0..half {
                    duplex(edge_of(pod, i), agg_of(pod, j));
                }
            }
            for j in 0..half {
                for m in 0..half {
                    duplex(agg_of(pod, j), core_of(j, m));
                }
            }
        }
        let switches = 2 * k * half + half * half;
        Topology::build("fat-tree", hosts, switches, links, 1000)
    }

    /// Topology family name (`dumbbell`, `fat-tree`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of host attachment ports.
    pub fn hosts(&self) -> u32 {
        self.hosts
    }

    /// Number of switches.
    pub fn switches(&self) -> u32 {
        self.switches
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Worst-case oversubscription ratio ×1000 (1000 = full bisection).
    pub fn oversubscription_milli(&self) -> u64 {
        self.oversub_milli
    }

    /// Resolve the ECMP route from host `src` to host `dst` as a list of
    /// link indices. Among the outgoing links that stay on a shortest
    /// path, hop `i` picks deterministically by `hash`: equal hashes take
    /// equal paths, different flows spread across the fabric. Returns an
    /// empty path when `src == dst` and `None` when unreachable.
    pub fn route(&self, src: u32, dst: u32, hash: u64) -> Option<Vec<usize>> {
        if src >= self.hosts || dst >= self.hosts {
            return None;
        }
        let d = &self.dist[dst as usize];
        let target = Vertex::Host(dst).index(self.hosts);
        let mut v = Vertex::Host(src).index(self.hosts);
        if d[v] == u32::MAX {
            return None;
        }
        let mut path = Vec::with_capacity(d[v] as usize);
        let mut hop = 0u64;
        while v != target {
            let need = d[v] - 1;
            let mut chosen = None;
            let mut count = 0u64;
            // Count the equal-cost candidates, then pick by hash without
            // allocating: two passes over a handful of adjacent links.
            for &li in &self.adj[v] {
                if d[self.links[li].to.index(self.hosts)] == need {
                    count += 1;
                }
            }
            debug_assert!(count > 0, "distance field inconsistent");
            let pick = mix64(hash.wrapping_add(hop.wrapping_mul(0x9E37_79B9_7F4A_7C15))) % count;
            let mut seen = 0u64;
            for &li in &self.adj[v] {
                if d[self.links[li].to.index(self.hosts)] == need {
                    if seen == pick {
                        chosen = Some(li);
                        break;
                    }
                    seen += 1;
                }
            }
            let li = chosen?;
            path.push(li);
            v = self.links[li].to.index(self.hosts);
            hop += 1;
        }
        Some(path)
    }

    /// Sum of per-hop latencies along a route.
    pub fn path_latency(&self, path: &[usize]) -> SimDuration {
        path.iter().fold(SimDuration::ZERO, |acc, &li| {
            acc + self.links[li].profile.latency
        })
    }
}

/// `splitmix64` finalizer: a well-mixed pure hash for ECMP decisions.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic flow identity hash for ECMP: every packet of the same
/// (src port, dst port, virtual channel) triple takes the same path.
pub fn flow_hash(src: u32, dst: u32, vchan: u16) -> u64 {
    mix64((u64::from(src) << 32) | (u64::from(dst) << 16) | u64::from(vchan))
}

/// Per-link state of one water-filling run.
#[derive(Clone, Copy, Debug, Default)]
struct FillLink {
    /// Capacity not yet handed to a frozen flow.
    remaining: u64,
    /// Path entries of open (not yet frozen) flows on the link. Zero
    /// between runs: every run freezes every flow it counted.
    open: u32,
    /// Path entries of open flows that named this link their bottleneck
    /// in the current round. Zero between rounds.
    votes: u32,
    /// `remaining / open`, valid unless `dirty`.
    share: u64,
    /// A freeze changed `remaining` or `open` since `share` was divided.
    dirty: bool,
}

/// A flow not yet frozen, and what the current round found out about it.
#[derive(Clone, Copy, Debug)]
struct OpenFlow {
    flow: usize,
    /// The tightest link on the flow's path.
    bottleneck: usize,
    /// Every open flow on `bottleneck` named it: freeze this round.
    ready: bool,
}

/// Reusable scratch for progressive-filling max-min fair allocation: the
/// one water-filling routine of the workspace. [`FabricState`] keeps one
/// for its lifetime, so a join/leave allocates nothing; [`max_min_rates`]
/// runs the same routine on a throw-away one.
///
/// Textbook progressive filling takes the tightest link (smallest
/// `remaining / open`, ties to the lowest link index), freezes its open
/// flows at that share, debits every link they cross, and repeats. This
/// routine computes exactly those rates, but freezes every *locally*
/// tightest link in one round: a link that is the tightest on the path
/// of each of its open flows. No earlier freeze of the sequential order
/// can touch such a link (a flow shared with a tighter link would
/// contradict the local minimum, and shares only grow as capacity is
/// debited at no more than the link's own share), so its flows and its
/// share are the same when its turn comes, and debits commute. The
/// globally tightest link is always among them, so every round makes
/// progress. Only links on an open flow's path are visited, a link's
/// share is re-divided only after a freeze touched it (and not at all
/// while a single flow is open on it), and each round walks only the
/// flows still open. Rates are clamped to ≥ 1 B/s so every admitted
/// transfer makes progress; a flow crossing no links is unconstrained
/// and gets `u64::MAX`.
#[derive(Clone, Debug, Default)]
pub struct WaterFill {
    links: Vec<FillLink>,
    /// Flows not yet frozen, ascending.
    open: Vec<OpenFlow>,
    rates: Vec<u64>,
}

impl WaterFill {
    /// Empty scratch; it grows to the largest problem it is given.
    pub fn new() -> Self {
        WaterFill::default()
    }

    /// Allocate rates for `flows` over links of the given `capacities`
    /// (see [`max_min_rates`]). The result stays valid until the next
    /// call and depends on nothing but this call's arguments.
    pub fn allocate(&mut self, capacities: &[u64], flows: &[Vec<usize>]) -> &[u64] {
        self.fill(capacities, flows.len(), |f| &flows[f])
    }

    fn fill<'p>(
        &mut self,
        capacities: &[u64],
        nflows: usize,
        path_of: impl Fn(usize) -> &'p [usize],
    ) -> &[u64] {
        let WaterFill { links, open, rates } = self;
        if links.len() < capacities.len() {
            links.resize(capacities.len(), FillLink::default());
        }
        open.clear();
        open.reserve(nflows);
        rates.clear();
        rates.resize(nflows, u64::MAX);
        for flow in 0..nflows {
            let path = path_of(flow);
            if path.is_empty() {
                continue;
            }
            open.push(OpenFlow {
                flow,
                bottleneck: path[0],
                ready: false,
            });
            for &l in path {
                let link = &mut links[l];
                if link.open == 0 {
                    link.remaining = capacities[l];
                }
                link.open += 1;
                link.dirty = true;
            }
        }
        while !open.is_empty() {
            // Each open flow names the tightest link on its path: the
            // smallest share, ties to the lowest link index. A link that
            // occurs twice on a path counts (and votes) twice.
            for o in open.iter_mut() {
                let mut best = (u64::MAX, usize::MAX);
                let mut hits = 0;
                for &l in path_of(o.flow) {
                    let link = &mut links[l];
                    if link.dirty {
                        link.share = match link.open {
                            1 => link.remaining,
                            n => link.remaining / u64::from(n),
                        };
                        link.dirty = false;
                    }
                    let key = (link.share, l);
                    if key < best {
                        best = key;
                        hits = 1;
                    } else if key == best {
                        hits += 1;
                    }
                }
                o.bottleneck = best.1;
                links[o.bottleneck].votes += hits;
            }
            // A link named by every open flow that crosses it is locally
            // tightest. Decide for all flows before any count changes.
            for o in open.iter_mut() {
                let link = &links[o.bottleneck];
                o.ready = link.votes == link.open;
            }
            let mut kept = 0;
            for i in 0..open.len() {
                let o = open[i];
                links[o.bottleneck].votes = 0;
                if !o.ready {
                    open[kept] = o;
                    kept += 1;
                    continue;
                }
                // `share` is the round's: freezes mark links dirty, the
                // next round re-divides.
                let share = links[o.bottleneck].share;
                rates[o.flow] = share.max(1);
                for &l in path_of(o.flow) {
                    let link = &mut links[l];
                    link.remaining = link.remaining.saturating_sub(share);
                    link.open -= 1;
                    link.dirty = true;
                }
            }
            debug_assert!(kept < open.len(), "the tightest link of all is ready");
            open.truncate(kept);
        }
        rates
    }
}

/// Progressive-filling max-min fair allocation. `capacities[l]` is link
/// `l`'s bandwidth in bytes/s; `flows[f]` lists the links flow `f`
/// crosses. Returns each flow's rate, computed by [`WaterFill`] — the
/// routine the fabric itself runs — on a fresh scratch.
///
/// Deterministic and order-independent: permuting the flow list permutes
/// the result the same way (ties freeze at identical shares).
pub fn max_min_rates(capacities: &[u64], flows: &[Vec<usize>]) -> Vec<u64> {
    let mut fill = WaterFill::new();
    fill.allocate(capacities, flows);
    fill.rates
}

/// `a × b / d`, rounded down and truncated to 64 bits; the 128-bit
/// product is formed only when the 64-bit one overflows.
fn mul_div(a: u64, b: u64, d: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / d,
        None => (u128::from(a) * u128::from(b) / u128::from(d)) as u64,
    }
}

/// [`mul_div`] rounded up.
fn mul_div_ceil(a: u64, b: u64, d: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p.div_ceil(d),
        None => (u128::from(a) * u128::from(b)).div_ceil(u128::from(d)) as u64,
    }
}

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Outcome of offering a packet to the fabric.
#[derive(Debug)]
pub(crate) enum AdmitOutcome {
    /// Source and destination share a host port: no fabric links crossed,
    /// deliver directly like a private pipe.
    Local {
        packet: Box<WirePacket>,
        dup_packet: Option<Box<WirePacket>>,
    },
    /// No route between the ports, or a sender/receiver without a port:
    /// the packet is gone (a topology misconfiguration, surfaced as a
    /// fabric drop).
    NoRoute,
    /// A link's queue would overflow: the packet is gone (the offending
    /// link's `queue_drops` counter records which).
    Dropped,
    /// Admitted as a fluid transfer.
    Queued {
        /// Whether any crossed link was past its ECN threshold.
        marked: bool,
        /// The completion to schedule under the new allocation.
        next: Resched,
    },
}

/// The one completion event a reallocation posts: transfer `id` is the
/// earliest to finish under allocation `generation` (ties to the lowest
/// id), at `done_at`. Stale once the fabric's generation has moved on —
/// any join/leave reallocates and posts its own.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Resched {
    pub id: u64,
    pub generation: u64,
    pub done_at: SimTime,
}

/// The packet and metadata released when a fabric transfer completes.
pub(crate) struct FabricDelivery {
    pub packet: Box<WirePacket>,
    pub dup_packet: Option<Box<WirePacket>>,
    pub dst_nic: NicId,
    /// Propagation latency along the route (sum of hop latencies).
    pub path_latency: SimDuration,
    /// Fault-plan delay drawn at injection time.
    pub extra_delay: SimDuration,
    /// The next completion under the allocation this leave produced;
    /// `None` when the fabric drained.
    pub resched: Option<Resched>,
}

/// A memoised ECMP route: a pure function of (src port, dst port, vchan)
/// on an immutable graph, resolved once.
#[derive(Debug)]
struct Route {
    links: Vec<usize>,
    latency: SimDuration,
}

/// One in-flight fluid transfer.
#[derive(Debug)]
struct Transfer {
    id: u64,
    /// Index into `FabricState::routes`.
    route: usize,
    remaining: u64,
    rate: u64,
    wire_bytes: u64,
    packet: Box<WirePacket>,
    dup_packet: Option<Box<WirePacket>>,
    dst_nic: NicId,
    extra_delay: SimDuration,
}

/// Cumulative per-link counters, exposed to experiments and metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets ECN-marked while crossing this link.
    pub ecn_marks: u64,
    /// Packets dropped because this link's queue was full.
    pub queue_drops: u64,
    /// High-water mark of queued wire bytes.
    pub peak_queue_bytes: u64,
    /// Wire bytes fully serialized across this link.
    pub bytes_carried: u64,
    /// Integral of utilization over virtual time: nanoseconds of
    /// equivalent 100 %-busy wire.
    pub busy_ns: u64,
}

/// Runtime fabric state of one network: the topology plus every packet
/// currently in flight as a max-min-shared fluid transfer.
#[derive(Debug)]
pub struct FabricState {
    topo: Topology,
    /// Link bandwidths, indexed like [`Topology::links`].
    caps: Vec<u64>,
    ports: BTreeMap<NicId, u32>,
    /// (src port, dst port, vchan) → index into `routes`; `None` when
    /// unreachable.
    route_of: BTreeMap<(u32, u32, u16), Option<usize>>,
    routes: Vec<Route>,
    /// Live transfers in id order (ids only grow, so admission appends).
    transfers: Vec<Transfer>,
    next_transfer: u64,
    /// Bumped by every join/leave; the completion event posted under an
    /// older value is dead.
    generation: u64,
    last_advance: SimTime,
    occupancy: Vec<u64>,
    link_rate: Vec<u64>,
    /// Links whose `link_rate` is set: the ones a live transfer crosses.
    busy: Vec<usize>,
    stats: Vec<LinkStats>,
    fill: WaterFill,
}

impl FabricState {
    pub(crate) fn new(topo: Topology) -> Self {
        let caps: Vec<u64> = topo.links().iter().map(|l| l.profile.bandwidth).collect();
        let n = caps.len();
        FabricState {
            topo,
            caps,
            ports: BTreeMap::new(),
            route_of: BTreeMap::new(),
            routes: Vec::new(),
            transfers: Vec::new(),
            next_transfer: 0,
            generation: 0,
            last_advance: SimTime::ZERO,
            occupancy: vec![0; n],
            link_rate: vec![0; n],
            busy: Vec::new(),
            stats: vec![LinkStats::default(); n],
            fill: WaterFill::new(),
        }
    }

    /// The static graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Cumulative per-link counters (indexed like [`Topology::links`]).
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.stats
    }

    /// Currently queued wire bytes per link.
    pub fn queue_bytes(&self) -> &[u64] {
        &self.occupancy
    }

    /// Packets currently in flight through the fabric.
    pub fn active_transfers(&self) -> usize {
        self.transfers.len()
    }

    /// Attach the next free host port to `nic` (ports fill in attachment
    /// order). Returns `None` when the topology is out of ports.
    pub(crate) fn assign_port(&mut self, nic: NicId) -> Option<u32> {
        let port = self.ports.len() as u32;
        if port >= self.topo.hosts() {
            return None;
        }
        self.ports.insert(nic, port);
        Some(port)
    }

    /// Whether a completion event posted under `generation` is dead: a
    /// later join/leave reallocated and posted its own.
    pub(crate) fn is_stale(&self, generation: u64) -> bool {
        generation != self.generation
    }

    /// The memoised route of a flow identity, resolved on first use.
    fn route_index(&mut self, src: u32, dst: u32, vchan: u16) -> Option<usize> {
        if let Some(&known) = self.route_of.get(&(src, dst, vchan)) {
            return known;
        }
        let resolved = self
            .topo
            .route(src, dst, flow_hash(src, dst, vchan))
            .map(|links| {
                let latency = self.topo.path_latency(&links);
                self.routes.push(Route { links, latency });
                self.routes.len() - 1
            });
        self.route_of.insert((src, dst, vchan), resolved);
        resolved
    }

    /// Advance every transfer's progress to `now` and accrue per-link
    /// utilization integrals. Each step rounds the bytes sent down on its
    /// own — summing elapsed time across steps instead would round
    /// differently and move completion instants.
    fn advance(&mut self, now: SimTime) {
        let elapsed = now.since(self.last_advance).as_nanos();
        self.last_advance = now;
        if elapsed == 0 {
            return;
        }
        for &l in &self.busy {
            let (rate, cap) = (self.link_rate[l], self.caps[l]);
            if rate > 0 && cap > 0 {
                self.stats[l].busy_ns += mul_div(elapsed, rate.min(cap), cap);
            }
        }
        for t in &mut self.transfers {
            let sent = mul_div(t.rate, elapsed, NANOS_PER_SEC).min(t.remaining);
            t.remaining -= sent;
            for &l in &self.routes[t.route].links {
                self.stats[l].bytes_carried += sent;
            }
        }
    }

    /// Offer a packet to the fabric: route it, enforce bounded queues,
    /// apply ECN marking, and register it as a fluid transfer. On
    /// `Queued` the caller must schedule the completion it carries.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit(
        &mut self,
        now: SimTime,
        mut packet: Box<WirePacket>,
        mut dup_packet: Option<Box<WirePacket>>,
        dst_nic: NicId,
        wire_bytes: u64,
        extra_delay: SimDuration,
    ) -> AdmitOutcome {
        self.advance(now);
        let (Some(src), Some(dst)) = (
            self.ports.get(&packet.src_nic).copied(),
            self.ports.get(&dst_nic).copied(),
        ) else {
            return AdmitOutcome::NoRoute;
        };
        if src == dst {
            return AdmitOutcome::Local { packet, dup_packet };
        }
        let Some(route) = self.route_index(src, dst, packet.vchan.into()) else {
            return AdmitOutcome::NoRoute;
        };
        let path = &self.routes[route].links;
        let wire = wire_bytes.max(1);
        for &l in path {
            if self.occupancy[l] + wire > self.topo.links()[l].profile.queue_capacity {
                self.stats[l].queue_drops += 1;
                return AdmitOutcome::Dropped;
            }
        }
        let mut marked = false;
        for &l in path {
            self.occupancy[l] += wire;
            if self.occupancy[l] > self.stats[l].peak_queue_bytes {
                self.stats[l].peak_queue_bytes = self.occupancy[l];
            }
            if self.occupancy[l] > self.topo.links()[l].profile.ecn_threshold {
                self.stats[l].ecn_marks += 1;
                marked = true;
            }
        }
        packet.ecn = packet.ecn || marked;
        if let Some(d) = dup_packet.as_mut() {
            d.ecn = d.ecn || marked;
        }
        let id = self.next_transfer;
        self.next_transfer += 1;
        self.transfers.push(Transfer {
            id,
            route,
            remaining: wire,
            rate: 0,
            wire_bytes: wire,
            packet,
            dup_packet,
            dst_nic,
            extra_delay,
        });
        let next = self
            .recompute(now)
            .expect("the transfer just admitted is live");
        AdmitOutcome::Queued { marked, next }
    }

    /// Handle a completion event. Returns `None` when the tag is stale
    /// (a join/leave reallocated after the event was posted) and the
    /// delivery payload otherwise.
    pub(crate) fn complete(
        &mut self,
        now: SimTime,
        id: u64,
        generation: u64,
    ) -> Option<FabricDelivery> {
        if self.is_stale(generation) {
            return None;
        }
        let at = self.transfers.binary_search_by_key(&id, |t| t.id).ok()?;
        self.advance(now);
        let t = self.transfers.remove(at);
        let route = &self.routes[t.route];
        for &l in &route.links {
            // Fluid progress rounds down; credit the residual so
            // carried-bytes accounting telescopes to the packet size.
            self.stats[l].bytes_carried += t.remaining;
            self.occupancy[l] = self.occupancy[l].saturating_sub(t.wire_bytes);
        }
        Some(FabricDelivery {
            packet: t.packet,
            dup_packet: t.dup_packet,
            dst_nic: t.dst_nic,
            path_latency: route.latency,
            extra_delay: t.extra_delay,
            resched: self.recompute(now),
        })
    }

    /// Recompute the max-min fair allocation after a join/leave under a
    /// fresh generation, and name the one completion worth scheduling:
    /// the earliest, ties to the lowest id. Every other transfer's
    /// completion would be posted behind it and die at the reallocation
    /// it triggers.
    fn recompute(&mut self, now: SimTime) -> Option<Resched> {
        self.generation += 1;
        for &l in &self.busy {
            self.link_rate[l] = 0;
        }
        self.busy.clear();
        let FabricState {
            fill,
            transfers,
            routes,
            caps,
            link_rate,
            busy,
            ..
        } = self;
        let rates = fill.fill(caps, transfers.len(), |f| &routes[transfers[f].route].links);
        let mut next: Option<(SimTime, u64)> = None;
        for (t, &rate) in transfers.iter_mut().zip(rates) {
            t.rate = rate;
            for &l in &routes[t.route].links {
                if link_rate[l] == 0 {
                    busy.push(l);
                }
                link_rate[l] = link_rate[l].saturating_add(rate.min(caps[l]));
            }
            let ns = mul_div_ceil(t.remaining, NANOS_PER_SEC, rate.max(1));
            let done_at = now + SimDuration::from_nanos(ns);
            if next.is_none_or(|(at, _)| done_at < at) {
                next = Some((done_at, t.id));
            }
        }
        next.map(|(done_at, id)| Resched {
            id,
            generation: self.generation,
            done_at,
        })
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> LinkProfile {
        LinkProfile::synthetic()
    }

    #[test]
    fn dumbbell_routes_cross_the_core() {
        let t = Topology::dumbbell(2, 2, p(), p());
        assert_eq!(t.hosts(), 4);
        assert_eq!(t.switches(), 2);
        let path = t.route(0, 2, flow_hash(0, 2, 0)).expect("route");
        assert_eq!(path.len(), 3, "host→sw0→sw1→host");
        // Same-side traffic stays off the core.
        let local = t.route(0, 1, flow_hash(0, 1, 0)).expect("route");
        assert_eq!(local.len(), 2);
        assert!(t.route(0, 0, 7).expect("self route").is_empty());
        assert_eq!(t.oversubscription_milli(), 2000);
    }

    #[test]
    fn fat_tree_k4_shape_and_ecmp() {
        let t = Topology::fat_tree(4, p());
        assert_eq!(t.hosts(), 16);
        assert_eq!(t.switches(), 20);
        // 16 host links + 16 edge↔agg + 16 agg↔core, each duplex.
        assert_eq!(t.links().len(), (16 + 16 + 16) * 2);
        assert_eq!(t.oversubscription_milli(), 1000);
        // Inter-pod routes are 4 hops (edge, agg, core, agg, edge = 5
        // switches → 6 links host-to-host).
        let path = t.route(0, 15, flow_hash(0, 15, 0)).expect("route");
        assert_eq!(path.len(), 6);
        // ECMP actually spreads: different flow identities must not all
        // take one path between pods.
        let mut distinct = std::collections::BTreeSet::new();
        for vc in 0..8u16 {
            distinct.insert(t.route(0, 15, flow_hash(0, 15, vc)).unwrap());
        }
        assert!(distinct.len() > 1, "ECMP collapsed to a single path");
        // Same hash, same path: routing is a pure function.
        assert_eq!(
            t.route(3, 12, flow_hash(3, 12, 1)),
            t.route(3, 12, flow_hash(3, 12, 1))
        );
    }

    #[test]
    fn max_min_single_bottleneck_splits_evenly() {
        // Three flows across one 999-byte/s link: 333 each.
        let rates = max_min_rates(&[999], &[vec![0], vec![0], vec![0]]);
        assert_eq!(rates, vec![333, 333, 333]);
    }

    #[test]
    fn max_min_waterfills_across_links() {
        // Link 0: 100 B/s shared by flows A and B; link 1: 1000 B/s
        // shared by B and C. A and B freeze at 50; C then gets the rest
        // of link 1.
        let rates = max_min_rates(&[100, 1000], &[vec![0], vec![0, 1], vec![1]]);
        assert_eq!(rates, vec![50, 50, 950]);
    }

    #[test]
    fn max_min_conserves_capacity_and_clamps() {
        let rates = max_min_rates(&[10], &(0..40).map(|_| vec![0]).collect::<Vec<_>>());
        assert!(rates.iter().all(|&r| r == 1), "min-rate clamp");
        let rates = max_min_rates(&[1_000], &[vec![], vec![0]]);
        assert_eq!(rates[0], u64::MAX, "linkless flow is unconstrained");
        assert_eq!(rates[1], 1_000);
    }

    #[test]
    fn max_min_is_order_independent() {
        let caps = [997, 1003, 499];
        let flows = vec![vec![0], vec![0, 1], vec![1, 2], vec![2], vec![0, 2]];
        let base = max_min_rates(&caps, &flows);
        let perm = [4usize, 2, 0, 3, 1];
        let shuffled: Vec<Vec<usize>> = perm.iter().map(|&i| flows[i].clone()).collect();
        let got = max_min_rates(&caps, &shuffled);
        for (slot, &orig) in perm.iter().enumerate() {
            assert_eq!(got[slot], base[orig], "permutation changed flow {orig}");
        }
    }
}
