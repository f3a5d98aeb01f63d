//! Model tests: [`FabricState`] against the parent implementation as an
//! oracle — owned paths cloned per recomputation, textbook
//! one-bottleneck-per-round water-filling from scratch, a generation per
//! transfer, and a completion event for *every* live transfer after every
//! join/leave, popped from a `(time, seq)` heap like the simulator's. Both
//! are driven through the same seeded join/leave scripts and must produce
//! the same history: every outcome, every `(transfer id, completion
//! instant)`, and after every step the rates, `queue_bytes()` and every
//! `LinkStats` field of every link.

use super::*;
use crate::rng::SplitMix64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The water-filling the repository ran before [`WaterFill`], verbatim.
fn max_min_rates(capacities: &[u64], flows: &[Vec<usize>]) -> Vec<u64> {
    let mut rates = vec![0u64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut remaining: Vec<u64> = capacities.to_vec();
    let mut unfrozen_on: Vec<u64> = vec![0; capacities.len()];
    let mut left = 0usize;
    for (f, path) in flows.iter().enumerate() {
        if path.is_empty() {
            rates[f] = u64::MAX;
            frozen[f] = true;
        } else {
            left += 1;
            for &l in path {
                unfrozen_on[l] += 1;
            }
        }
    }
    while left > 0 {
        let mut best: Option<(u64, usize)> = None;
        for (l, &n) in unfrozen_on.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let share = remaining[l] / n;
            if best.is_none_or(|(s, _)| share < s) {
                best = Some((share, l));
            }
        }
        let Some((share, bottleneck)) = best else {
            break;
        };
        let rate = share.max(1);
        for f in 0..flows.len() {
            if frozen[f] || !flows[f].contains(&bottleneck) {
                continue;
            }
            rates[f] = rate;
            frozen[f] = true;
            left -= 1;
            for &l in &flows[f] {
                remaining[l] = remaining[l].saturating_sub(share);
                unfrozen_on[l] -= 1;
            }
        }
    }
    rates
}

/// One scripted packet: offered at `at` from host port `src` to host
/// port `dst` (ports and NIC ids coincide in these tests).
#[derive(Clone, Copy, Debug)]
struct Offer {
    at: u64,
    src: u32,
    dst: u32,
    vchan: u8,
    wire: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum What {
    Local,
    Dropped,
    Queued {
        id: u64,
        marked: bool,
    },
    /// Transfer `id` (offer number `offer`) left; `ecn` and `latency`
    /// are what the delivery carries.
    Done {
        id: u64,
        offer: u64,
        ecn: bool,
        latency: SimDuration,
    },
}

/// The observable state after one live step.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Step {
    at: SimTime,
    what: What,
    /// `(transfer id, rate)` of every live transfer.
    rates: Vec<(u64, u64)>,
    queue_bytes: Vec<u64>,
    stats: Vec<LinkStats>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Offer(usize),
    Done { id: u64, generation: u64 },
}

/// A `(time, seq)` heap like the simulator's, seeded with the script.
struct Agenda {
    heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    seq: u64,
}

impl Agenda {
    fn new(script: &[Offer]) -> Self {
        let mut a = Agenda {
            heap: BinaryHeap::new(),
            seq: 0,
        };
        for (i, o) in script.iter().enumerate() {
            a.push(SimTime::from_nanos(o.at), Ev::Offer(i));
        }
        a
    }
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
    }
}

fn packet(offer: usize, o: &Offer) -> Box<WirePacket> {
    Box::new(WirePacket {
        src: crate::engine::NodeId(o.src),
        dst: crate::engine::NodeId(o.dst),
        src_nic: NicId(o.src),
        dst_nic: NicId(o.dst),
        vchan: o.vchan,
        kind: 0,
        cookie: offer as u64,
        seq: offer as u64,
        ecn: false,
        payload: Vec::new(),
    })
}

/// Drive the production fabric through `script`.
fn run_fabric(topo: &Topology, script: &[Offer]) -> Vec<Step> {
    let mut fab = FabricState::new(topo.clone());
    for h in 0..topo.hosts() {
        assert_eq!(fab.assign_port(NicId(h)), Some(h));
    }
    let mut agenda = Agenda::new(script);
    let mut log = Vec::new();
    while let Some((at, ev)) = agenda.pop() {
        let what = match ev {
            Ev::Offer(i) => {
                let o = &script[i];
                let id = fab.next_transfer;
                match fab.admit(
                    at,
                    packet(i, o),
                    None,
                    NicId(o.dst),
                    o.wire,
                    SimDuration::ZERO,
                ) {
                    AdmitOutcome::Local { .. } => What::Local,
                    AdmitOutcome::NoRoute => panic!("scripts stay inside a connected fabric"),
                    AdmitOutcome::Dropped => What::Dropped,
                    AdmitOutcome::Queued { marked, next } => {
                        agenda.push(
                            next.done_at,
                            Ev::Done {
                                id: next.id,
                                generation: next.generation,
                            },
                        );
                        What::Queued { id, marked }
                    }
                }
            }
            Ev::Done { id, generation } => {
                let Some(d) = fab.complete(at, id, generation) else {
                    continue;
                };
                if let Some(r) = d.resched {
                    agenda.push(
                        r.done_at,
                        Ev::Done {
                            id: r.id,
                            generation: r.generation,
                        },
                    );
                }
                What::Done {
                    id,
                    offer: d.packet.cookie,
                    ecn: d.packet.ecn,
                    latency: d.path_latency,
                }
            }
        };
        log.push(Step {
            at,
            what,
            rates: fab.transfers.iter().map(|t| (t.id, t.rate)).collect(),
            queue_bytes: fab.queue_bytes().to_vec(),
            stats: fab.link_stats().to_vec(),
        });
    }
    assert_eq!(fab.active_transfers(), 0, "script drained");
    log
}

struct Transfer {
    path: Vec<usize>,
    remaining: u64,
    rate: u64,
    generation: u64,
    wire_bytes: u64,
    offer: u64,
    ecn: bool,
}

/// The parent's `FabricState`, minus the packets it carried.
struct Fabric<'t> {
    topo: &'t Topology,
    transfers: BTreeMap<u64, Transfer>,
    next_transfer: u64,
    generation: u64,
    last_advance: SimTime,
    occupancy: Vec<u64>,
    link_rate: Vec<u64>,
    stats: Vec<LinkStats>,
}

impl Fabric<'_> {
    fn advance(&mut self, now: SimTime) {
        let elapsed = now.since(self.last_advance).as_nanos();
        self.last_advance = now;
        if elapsed == 0 {
            return;
        }
        for (l, &rate) in self.link_rate.iter().enumerate() {
            let cap = self.topo.links()[l].profile.bandwidth;
            if rate > 0 && cap > 0 {
                self.stats[l].busy_ns +=
                    (u128::from(elapsed) * u128::from(rate.min(cap)) / u128::from(cap)) as u64;
            }
        }
        for t in self.transfers.values_mut() {
            let sent_fluid = u128::from(t.rate) * u128::from(elapsed) / 1_000_000_000u128;
            let sent = (sent_fluid as u64).min(t.remaining);
            t.remaining -= sent;
            for &l in &t.path {
                self.stats[l].bytes_carried += sent;
            }
        }
    }

    fn admit(&mut self, now: SimTime, offer: usize, o: &Offer) -> What {
        self.advance(now);
        if o.src == o.dst {
            return What::Local;
        }
        let hash = flow_hash(o.src, o.dst, o.vchan.into());
        let path = self
            .topo
            .route(o.src, o.dst, hash)
            .expect("scripts stay inside a connected fabric");
        let wire = o.wire.max(1);
        for &l in &path {
            if self.occupancy[l] + wire > self.topo.links()[l].profile.queue_capacity {
                self.stats[l].queue_drops += 1;
                return What::Dropped;
            }
        }
        let mut marked = false;
        for &l in &path {
            self.occupancy[l] += wire;
            if self.occupancy[l] > self.stats[l].peak_queue_bytes {
                self.stats[l].peak_queue_bytes = self.occupancy[l];
            }
            if self.occupancy[l] > self.topo.links()[l].profile.ecn_threshold {
                self.stats[l].ecn_marks += 1;
                marked = true;
            }
        }
        let id = self.next_transfer;
        self.next_transfer += 1;
        self.transfers.insert(
            id,
            Transfer {
                path,
                remaining: wire,
                rate: 0,
                generation: 0,
                wire_bytes: wire,
                offer: offer as u64,
                ecn: marked,
            },
        );
        self.recompute();
        What::Queued { id, marked }
    }

    fn reschedules(&self, now: SimTime) -> Vec<Resched> {
        self.transfers
            .iter()
            .map(|(&id, t)| {
                let ns = (u128::from(t.remaining) * 1_000_000_000u128)
                    .div_ceil(u128::from(t.rate.max(1)));
                Resched {
                    id,
                    generation: t.generation,
                    done_at: now + SimDuration::from_nanos(ns as u64),
                }
            })
            .collect()
    }

    fn complete(&mut self, now: SimTime, id: u64, generation: u64) -> Option<What> {
        if self
            .transfers
            .get(&id)
            .is_none_or(|t| t.generation != generation)
        {
            return None;
        }
        self.advance(now);
        let t = self.transfers.remove(&id).expect("checked above");
        for &l in &t.path {
            self.stats[l].bytes_carried += t.remaining;
            self.occupancy[l] = self.occupancy[l].saturating_sub(t.wire_bytes);
        }
        self.recompute();
        Some(What::Done {
            id,
            offer: t.offer,
            ecn: t.ecn,
            latency: self.topo.path_latency(&t.path),
        })
    }

    fn recompute(&mut self) {
        self.generation += 1;
        let caps: Vec<u64> = self
            .topo
            .links()
            .iter()
            .map(|l| l.profile.bandwidth)
            .collect();
        let flows: Vec<Vec<usize>> = self.transfers.values().map(|t| t.path.clone()).collect();
        let rates = max_min_rates(&caps, &flows);
        self.link_rate = vec![0; caps.len()];
        for (t, &rate) in self.transfers.values_mut().zip(rates.iter()) {
            t.rate = rate;
            t.generation = self.generation;
            for &l in &t.path {
                self.link_rate[l] = self.link_rate[l].saturating_add(rate.min(caps[l]));
            }
        }
    }
}

/// Drive the oracle through `script`.
fn run_oracle(topo: &Topology, script: &[Offer]) -> Vec<Step> {
    let n = topo.links().len();
    let mut fab = Fabric {
        topo,
        transfers: BTreeMap::new(),
        next_transfer: 0,
        generation: 0,
        last_advance: SimTime::ZERO,
        occupancy: vec![0; n],
        link_rate: vec![0; n],
        stats: vec![LinkStats::default(); n],
    };
    let mut agenda = Agenda::new(script);
    let mut log = Vec::new();
    while let Some((at, ev)) = agenda.pop() {
        let what = match ev {
            Ev::Offer(i) => fab.admit(at, i, &script[i]),
            Ev::Done { id, generation } => match fab.complete(at, id, generation) {
                Some(done) => done,
                None => continue,
            },
        };
        if !matches!(what, What::Local | What::Dropped) {
            for r in fab.reschedules(at) {
                agenda.push(
                    r.done_at,
                    Ev::Done {
                        id: r.id,
                        generation: r.generation,
                    },
                );
            }
        }
        log.push(Step {
            at,
            what,
            rates: fab.transfers.iter().map(|(&id, t)| (id, t.rate)).collect(),
            queue_bytes: fab.occupancy.clone(),
            stats: fab.stats.clone(),
        });
    }
    log
}

/// A seeded join/leave script: bursts of equal-size packets offered at
/// one instant (ties on the completion instant), the occasional
/// same-port packet, and sizes from one byte to most of a queue (marks
/// and overflow drops).
fn script(seed: u64, hosts: u32, offers: usize) -> Vec<Offer> {
    const SIZES: [u64; 6] = [1, 1_500, 1_500, 4_096, 9_000, 60_000];
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(offers + 8);
    let mut at = 0;
    while out.len() < offers {
        at += rng.next_below(4_000);
        let burst = if rng.next_below(4) == 0 {
            2 + rng.next_below(7)
        } else {
            1
        };
        let wire = SIZES[rng.next_below(SIZES.len() as u64) as usize];
        for _ in 0..burst {
            let src = rng.next_below(u64::from(hosts)) as u32;
            let dst = if rng.next_below(12) == 0 {
                src
            } else {
                rng.next_below(u64::from(hosts)) as u32
            };
            out.push(Offer {
                at,
                src,
                dst,
                vchan: rng.next_below(3) as u8,
                wire,
            });
        }
    }
    out
}

/// Odd bandwidths so that equal shares leave remainders, queues that two
/// large packets overflow.
fn profile(bandwidth: u64) -> LinkProfile {
    LinkProfile {
        bandwidth,
        latency: SimDuration::from_nanos(500),
        queue_capacity: 96 << 10,
        ecn_threshold: 12 << 10,
    }
}

/// What a batch of scripts exercised, so a test cannot pass by not
/// reaching the cases it is there for.
#[derive(Debug, Default)]
struct Coverage {
    locals: usize,
    drops: usize,
    marks: usize,
    /// Completions at the instant of the previous completion.
    tied_completions: usize,
    peak_transfers: usize,
}

fn check_scripts(topo: &Topology, seeds: std::ops::Range<u64>, offers: usize) -> Coverage {
    let mut cov = Coverage::default();
    for seed in seeds {
        let script = script(seed, topo.hosts(), offers);
        let got = run_fabric(topo, &script);
        let want = run_oracle(topo, &script);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "seed {seed}: histories part at step {i}");
        }
        assert_eq!(got.len(), want.len(), "seed {seed}: one history is longer");
        let mut last_done = None;
        for step in &got {
            cov.peak_transfers = cov.peak_transfers.max(step.rates.len());
            match step.what {
                What::Local => cov.locals += 1,
                What::Dropped => cov.drops += 1,
                What::Queued { marked, .. } => cov.marks += usize::from(marked),
                What::Done { .. } => {
                    cov.tied_completions += usize::from(last_done == Some(step.at));
                    last_done = Some(step.at);
                }
            }
        }
    }
    cov
}

#[test]
#[cfg_attr(miri, ignore)]
fn dumbbell_history_matches_the_parent_algorithm() {
    let topo = Topology::dumbbell(4, 4, profile(1_000_000_007), profile(2_500_000_001));
    let cov = check_scripts(&topo, 0..24, 300);
    assert!(
        cov.locals > 0 && cov.drops > 0 && cov.marks > 0 && cov.tied_completions > 0,
        "{cov:?}"
    );
    assert!(cov.peak_transfers >= 8, "{cov:?}");
}

#[test]
#[cfg_attr(miri, ignore)]
fn fat_tree_history_matches_the_parent_algorithm() {
    let topo = Topology::fat_tree(4, profile(999_999_937));
    let cov = check_scripts(&topo, 100..124, 300);
    assert!(
        cov.locals > 0 && cov.drops > 0 && cov.marks > 0 && cov.tied_completions > 0,
        "{cov:?}"
    );
    assert!(cov.peak_transfers >= 8, "{cov:?}");
}

#[test]
fn short_history_matches_the_parent_algorithm() {
    // Small enough for miri; the two tests above are the real sweep.
    let topo = Topology::dumbbell(2, 2, profile(1_000_000_007), profile(1_500_000_001));
    check_scripts(&topo, 7..8, 24);
}

#[test]
fn equal_completion_instants_go_to_the_lowest_id() {
    // Four equal packets on disjoint host pairs of a wide core, offered
    // at one instant: equal rates, equal completion instants. Each
    // reallocation posts one completion and it must be the lowest id's —
    // the one the parent's per-transfer events would have fired first.
    let topo = Topology::dumbbell(4, 4, profile(1_000_000_007), profile(8_000_000_000));
    let script: Vec<Offer> = (0..4)
        .map(|h| Offer {
            at: 100,
            src: h,
            dst: 4 + h,
            vchan: 0,
            wire: 1_500,
        })
        .collect();
    let got = run_fabric(&topo, &script);
    assert_eq!(got, run_oracle(&topo, &script));
    let done: Vec<(u64, SimTime)> = got
        .iter()
        .filter_map(|s| match s.what {
            What::Done { id, .. } => Some((id, s.at)),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 4);
    assert!(done.iter().all(|&(_, at)| at == done[0].1), "{done:?}");
    assert_eq!(
        done.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
        [0, 1, 2, 3]
    );
}

#[test]
fn equal_link_shares_go_to_the_lowest_link_index() {
    // Links 0 and 1 both split 1 GB/s seven ways (142 857 142 B/s each,
    // 6 B/s over); flow 6 crosses both, and link 1 is touched first. The
    // link frozen first pins flow 6; the other hands the leftover to its
    // six remaining flows, one byte per second more. Lowest index first.
    let caps = [1_000_000_000, 1_000_000_000];
    let mut flows = vec![vec![1]; 6];
    flows.push(vec![0, 1]);
    flows.extend(vec![vec![0]; 6]);
    let rates = super::max_min_rates(&caps, &flows);
    assert_eq!(rates, max_min_rates(&caps, &flows));
    assert_eq!(rates[..6], [142_857_143; 6]);
    assert_eq!(rates[6..], [142_857_142; 7]);
}

#[test]
#[cfg_attr(miri, ignore)]
fn water_filling_matches_textbook_order_on_adversarial_graphs() {
    // Not fabrics: random link subsets (so every kind of overlap),
    // capacities over six orders of magnitude, 1 B/s links, linkless
    // flows, and now and then a link listed twice on one path. One scratch
    // serves every problem, as `FabricState`'s does.
    let mut fill = WaterFill::new();
    for seed in 0..2_000 {
        let mut rng = SplitMix64::new(seed);
        let links = 1 + rng.next_below(12) as usize;
        let caps: Vec<u64> = (0..links)
            .map(|_| 10u64.pow(rng.next_below(7) as u32) * (1 + rng.next_below(9)))
            .collect();
        let flows: Vec<Vec<usize>> = (0..1 + rng.next_below(24))
            .map(|_| {
                let mut path: Vec<usize> = (0..links).filter(|_| rng.next_below(3) == 0).collect();
                if rng.next_below(8) == 0 {
                    path.extend(path.first().copied());
                }
                path
            })
            .collect();
        assert_eq!(
            fill.allocate(&caps, &flows),
            max_min_rates(&caps, &flows),
            "seed {seed}: {caps:?} {flows:?}"
        );
    }
}
