//! Model-based property test of the collect layer's positional lookup.
//!
//! `CollectLayer` resolves `(flow, seq)` by position in a per-flow queue
//! that stays ascending in `seq` while shedding and out-of-order
//! completion (two rails finishing message N+1 before N) punch holes in
//! it. The reference below is the obvious thing — a `Vec` per flow, every
//! lookup a front-to-back walk, every removal a `retain` — and random
//! interleavings of submit / commit / complete / shed / rendezvous must
//! leave both in the same state, answer for answer — the index of
//! *offerable* flows (the only ones a window walk looks at) included: it
//! must name exactly the flows whose queues, recounted, hold bytes a
//! window can take or a rendezvous request still to send.
//!
//! The queues name slots of one node-wide slab of pending messages; the
//! same interleavings check its accounting: one live slot per pending
//! message, no growth while a freed slot waits, and no page beyond the
//! first kept once the backlog is empty.

use madeleine::collect::{CollectLayer, RndvState};
use madeleine::ids::{ChannelId, FlowId, FragIndex, MsgId, MsgSeq, TrafficClass};
use madeleine::message::{MessageBuilder, PackMode};
use madeleine::plan::{PlannedChunk, MAX_REQS_PER_DST};
use madeleine::slab::FIRST_PAGE;
use proptest::prelude::*;
use simnet::{NodeId, SimTime};

const RNDV_THRESHOLD: u64 = 1024;

#[derive(Clone, Debug, PartialEq)]
struct RefFrag {
    len: u32,
    sent: u32,
    inflight: u32,
    rndv: RndvState,
}

impl RefFrag {
    fn committed(&self) -> u32 {
        self.sent + self.inflight
    }
    fn remaining(&self) -> u32 {
        self.len - self.committed()
    }
    fn blocked(&self) -> bool {
        matches!(self.rndv, RndvState::NeedRequest | RndvState::Requested)
    }
    /// Has bytes a data packet can take.
    fn ready(&self) -> bool {
        self.remaining() > 0 && !self.blocked()
    }
    /// Has its rendezvous request still to send.
    fn asking(&self) -> bool {
        self.remaining() > 0 && self.rndv == RndvState::NeedRequest
    }
}

#[derive(Clone, Debug)]
struct RefMsg {
    seq: u32,
    at: SimTime,
    frags: Vec<RefFrag>,
}

impl RefMsg {
    fn backlog(&self) -> u64 {
        self.frags.iter().map(|f| u64::from(f.remaining())).sum()
    }
}

#[derive(Clone, Debug)]
struct RefFlow {
    class: TrafficClass,
    next_seq: u32,
    queue: Vec<RefMsg>,
}

/// The naive reference: linear scans only.
#[derive(Clone, Debug, Default)]
struct Model {
    flows: Vec<RefFlow>,
}

impl Model {
    fn find(&self, flow: usize, seq: u32) -> Option<&RefMsg> {
        self.flows[flow].queue.iter().find(|m| m.seq == seq)
    }

    fn find_mut(&mut self, flow: usize, seq: u32) -> Option<&mut RefMsg> {
        self.flows[flow].queue.iter_mut().find(|m| m.seq == seq)
    }

    fn submit(&mut self, flow: usize, sizes: &[u32], at: SimTime) -> u32 {
        let fs = &mut self.flows[flow];
        let seq = fs.next_seq;
        fs.next_seq += 1;
        fs.queue.push(RefMsg {
            seq,
            at,
            frags: sizes
                .iter()
                .map(|&len| RefFrag {
                    len,
                    sent: 0,
                    inflight: 0,
                    rndv: if u64::from(len) >= RNDV_THRESHOLD {
                        RndvState::NeedRequest
                    } else {
                        RndvState::Eager
                    },
                })
                .collect(),
        });
        seq
    }

    fn commit(&mut self, c: &PlannedChunk) {
        let msg = self.find_mut(c.flow.0 as usize, c.seq).expect("live");
        msg.frags[c.frag as usize].inflight += c.len;
    }

    fn complete(&mut self, c: &PlannedChunk) -> bool {
        let flow = c.flow.0 as usize;
        let msg = self.find_mut(flow, c.seq).expect("live");
        let f = &mut msg.frags[c.frag as usize];
        f.inflight -= c.len;
        f.sent += c.len;
        let done = msg.frags.iter().all(|f| f.sent == f.len);
        if done {
            self.flows[flow].queue.retain(|m| m.seq != c.seq);
        }
        done
    }

    fn shed_oldest(&mut self, class: TrafficClass, need: u64) -> Vec<(MsgId, u64)> {
        let mut sheddable = Vec::new();
        for (id, fs) in self.flows.iter().enumerate() {
            if fs.class != class {
                continue;
            }
            for m in &fs.queue {
                if m.frags.iter().all(|f| f.committed() == 0) {
                    sheddable.push((m.at, id as u32, m.seq, m.backlog()));
                }
            }
        }
        sheddable.sort_unstable();
        let mut freed = 0;
        let mut out = Vec::new();
        for (_, flow, seq, bytes) in sheddable {
            if freed >= need {
                break;
            }
            self.flows[flow as usize].queue.retain(|m| m.seq != seq);
            freed += bytes;
            out.push((
                MsgId {
                    flow: FlowId(flow),
                    seq: MsgSeq(seq),
                },
                bytes,
            ));
        }
        out
    }

    fn grant(&mut self, flow: usize, seq: u32, frag: FragIndex) -> bool {
        match self.find_mut(flow, seq) {
            Some(m) if m.frags[frag as usize].rndv == RndvState::Requested => {
                m.frags[frag as usize].rndv = RndvState::Granted;
                true
            }
            _ => false,
        }
    }

    /// Every `(flow, seq, frag)` whose fragment satisfies `pred`.
    fn frags_where(&self, pred: impl Fn(&RefFrag) -> bool) -> Vec<(usize, u32, FragIndex)> {
        let mut out = Vec::new();
        for (id, fs) in self.flows.iter().enumerate() {
            for m in &fs.queue {
                for (j, f) in m.frags.iter().enumerate() {
                    if pred(f) {
                        out.push((id, m.seq, j as FragIndex));
                    }
                }
            }
        }
        out
    }
}

/// The slab after one operation, given its (live, capacity) before it.
fn assert_slab(real: &CollectLayer, (live, capacity): (usize, usize)) {
    let slab = real.slab();
    assert_eq!(
        slab.len() as u64,
        real.pending_msgs(),
        "a live slot per message"
    );
    if slab.capacity() > capacity {
        assert_eq!(live, capacity, "the slab grew while a slot was free");
    }
    if slab.is_empty() {
        assert!(
            slab.capacity() <= FIRST_PAGE,
            "an empty backlog keeps pages"
        );
    }
}

/// The layer and the model must be indistinguishable from outside.
fn assert_agree(real: &CollectLayer, model: &Model) {
    let mut backlog = 0u64;
    let mut pending = 0u64;
    let mut by_class = [0u64; TrafficClass::COUNT];
    let mut active = Vec::new();
    let (mut ready, mut asking) = (Vec::new(), Vec::new());
    for (id, fs) in model.flows.iter().enumerate() {
        let flow = FlowId(id as u32);
        let real_seqs: Vec<u32> = real.queue(flow).map(|(seq, _)| seq).collect();
        let model_seqs: Vec<u32> = fs.queue.iter().map(|m| m.seq).collect();
        assert_eq!(real_seqs, model_seqs, "{flow}: queue order");
        // Live, removed (holes on either side of a live one) and
        // never-issued sequences.
        for seq in 0..fs.next_seq + 2 {
            match (real.find_msg(flow, seq), model.find(id, seq)) {
                (None, None) => {}
                (Some(r), Some(m)) => {
                    assert_eq!(r.submitted_at, m.at);
                    let frags: Vec<RefFrag> = r
                        .frags
                        .iter()
                        .map(|f| RefFrag {
                            len: f.len(),
                            sent: f.sent,
                            inflight: f.inflight,
                            rndv: f.rndv,
                        })
                        .collect();
                    assert_eq!(frags, m.frags, "{flow}/{seq}: fragment accounting");
                }
                (r, m) => panic!(
                    "{flow}/{seq}: find_msg says {:?}, the reference says {:?}",
                    r.map(|m| m.submitted_at),
                    m.map(|m| m.seq)
                ),
            }
        }
        let flow_backlog: u64 = fs.queue.iter().map(RefMsg::backlog).sum();
        backlog += flow_backlog;
        by_class[fs.class.0 as usize] += flow_backlog;
        pending += fs.queue.len() as u64;
        if !fs.queue.is_empty() {
            active.push(flow);
        }
        let frags = || fs.queue.iter().flat_map(|m| &m.frags);
        if frags().any(RefFrag::ready) {
            ready.push(flow.0);
        }
        if frags().any(RefFrag::asking) {
            asking.push((real.flows()[id].dst, flow.0));
        }
    }
    asking.sort_unstable();
    let index = real.index();
    assert_eq!(index.ready_ids().collect::<Vec<_>>(), ready, "ready flows");
    assert_eq!(
        index.asking_ids().collect::<Vec<_>>(),
        asking,
        "asking flows"
    );
    assert!(real.find_msg(FlowId(model.flows.len() as u32), 0).is_none());
    assert_eq!(real.backlog_bytes(), backlog);
    assert_eq!(real.pending_msgs(), pending);
    assert_eq!(real.active_flow_ids().collect::<Vec<_>>(), active);
    for (slot, &bytes) in by_class.iter().enumerate() {
        assert_eq!(
            real.class_backlog_bytes(TrafficClass(slot as u8)),
            bytes,
            "class {slot} backlog"
        );
    }
}

type Op = (u8, prop::sample::Index, prop::sample::Index, u32);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0u8..10,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<u32>(),
        ),
        1..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn positional_lookup_matches_linear_scan_reference(ops in ops()) {
        let classes = [TrafficClass::DEFAULT, TrafficClass::DEFAULT, TrafficClass::BULK];
        let mut real = CollectLayer::new();
        let mut model = Model::default();
        for (i, &class) in classes.iter().enumerate() {
            real.open_flow(NodeId(1 + i as u32), class);
            model.flows.push(RefFlow { class, next_seq: 0, queue: Vec::new() });
        }
        // Chunks handed to a "NIC" and not yet completed, any order.
        let mut outstanding: Vec<PlannedChunk> = Vec::new();

        for (step, &(op, a, b, val)) in ops.iter().enumerate() {
            // Coarse clock: several messages share a submission time, so
            // shedding's (time, flow, seq) tie-break is exercised.
            let now = SimTime::from_nanos(step as u64 / 4);
            let slab = (real.slab().len(), real.slab().capacity());
            match op {
                0..=2 => {
                    let flow = a.index(classes.len());
                    let sizes: Vec<u32> = (0..1 + val % 3)
                        .map(|j| 1 + (val >> (8 * j)) % if (val >> j) & 8 == 0 { 200 } else { 3000 })
                        .collect();
                    let mut builder = MessageBuilder::new();
                    for (j, &n) in sizes.iter().enumerate() {
                        let mode = if j == 0 { PackMode::Express } else { PackMode::Cheaper };
                        builder = builder.pack(&vec![j as u8; n as usize], mode);
                    }
                    let id = real.submit(FlowId(flow as u32), builder.build_parts(), now, RNDV_THRESHOLD);
                    prop_assert_eq!(id.seq.0, model.submit(flow, &sizes, now));
                }
                3 | 4 => {
                    // Any queued message, not just the oldest.
                    let ready = model.frags_where(|f| f.remaining() > 0 && !f.blocked());
                    if ready.is_empty() {
                        continue;
                    }
                    let (flow, seq, frag) = ready[a.index(ready.len())];
                    let f = &model.find(flow, seq).expect("listed").frags[frag as usize];
                    let len = if val & 1 == 0 { f.remaining() } else { f.remaining().div_ceil(2) };
                    let chunk = PlannedChunk {
                        flow: FlowId(flow as u32),
                        seq,
                        frag,
                        offset: f.committed(),
                        len,
                    };
                    real.commit_chunk(&chunk, ChannelId((val >> 1) as u16 % 2));
                    model.commit(&chunk);
                    outstanding.push(chunk);
                }
                5 | 6 => {
                    if outstanding.is_empty() {
                        continue;
                    }
                    let chunk = outstanding.swap_remove(b.index(outstanding.len()));
                    prop_assert_eq!(real.complete_chunk(&chunk), model.complete(&chunk));
                }
                7 => {
                    let class = classes[a.index(classes.len())];
                    let need = u64::from(val % 6000);
                    prop_assert_eq!(real.shed_oldest(class, need), model.shed_oldest(class, need));
                }
                8 => {
                    let waiting = model.frags_where(|f| f.rndv == RndvState::NeedRequest);
                    if waiting.is_empty() {
                        continue;
                    }
                    let (flow, seq, frag) = waiting[a.index(waiting.len())];
                    real.mark_rndv_requested(FlowId(flow as u32), seq, frag);
                    model.find_mut(flow, seq).expect("listed").frags[frag as usize].rndv =
                        RndvState::Requested;
                }
                _ => {
                    // Grants for fragments in every state, and for a
                    // sequence that is gone or was never issued.
                    let any = model.frags_where(|_| true);
                    let (flow, seq, frag) = if any.is_empty() || val % 5 == 0 {
                        let flow = a.index(classes.len());
                        (flow, b.index(model.flows[flow].next_seq as usize + 2) as u32, 0)
                    } else {
                        any[a.index(any.len())]
                    };
                    prop_assert_eq!(
                        real.grant_rndv(FlowId(flow as u32), seq, frag),
                        model.grant(flow, seq, frag)
                    );
                }
            }
            assert_agree(&real, &model);
            assert_slab(&real, slab);
            // A window of any width: its width in data at most, the
            // quota in requests per destination at most, no group empty.
            let window = 1 + val as usize % 80;
            let groups = real.collect_candidates(ChannelId(val as u16 % 2), window, |_, _| true);
            let data: usize = groups.iter().map(|g| g.candidates.len()).sum();
            prop_assert!(data <= window);
            for g in &groups {
                prop_assert!(g.rndv.len() <= MAX_REQS_PER_DST);
                prop_assert!(!g.candidates.is_empty() || !g.rndv.is_empty());
            }
        }
    }
}
