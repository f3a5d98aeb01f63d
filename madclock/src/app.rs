//! The application every benchmark node runs: it walks its share of the
//! schedule (open or closed loop) and checks every message it receives
//! against the schedule and the payload pool.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use crate::gen::{decode_header, encode_header, Send};
use crate::surface::{
    AppDriver, CommApi, DeliveredMessage, FlowId, MessageBuilder, NodeId, PackMode, SimDuration,
};
use crate::workload::{Loop, Plan};

/// Timer tag of the open-loop schedule walker; the think time before
/// closed-loop request `i` runs on tag `REQUEST_TAG + i`.
const SCHEDULE_TAG: u64 = 0;
const REQUEST_TAG: u64 = 1;

/// State shared by the apps of one cluster and the harness around it.
pub struct Shared {
    /// The schedule.
    pub plan: Plan,
    /// `flow_ids[node][i]` is the engine's id for the node's `i`-th flow;
    /// filled by the harness after the cluster is built.
    pub flow_ids: RefCell<Vec<Vec<FlowId>>>,
    /// What each node received.
    pub rx: Vec<RefCell<RxLog>>,
    /// Largest lateness of an open-loop submission against its due time.
    pub late_max_ns: Cell<u64>,
    /// When set, host time spent inside callbacks accumulates in
    /// `callback_ns` (the traced run only; the clock reads cost time).
    pub time_callbacks: bool,
    /// Host nanoseconds spent inside app callbacks, not counting the time
    /// `send` spent inside the engine: a submission that finds the NIC
    /// idle runs the optimizer before it returns.
    pub callback_ns: Cell<u64>,
    /// Host nanoseconds the current callback has spent inside `send`.
    send_ns: Cell<u64>,
}

impl Shared {
    /// Shared state for `plan`.
    pub fn new(plan: Plan, time_callbacks: bool) -> Rc<Shared> {
        let rx = plan
            .nodes
            .iter()
            .enumerate()
            .map(|(node, _)| RefCell::new(RxLog::new(&plan, node)))
            .collect();
        Rc::new(Shared {
            flow_ids: RefCell::new(Vec::new()),
            rx,
            late_max_ns: Cell::new(0),
            time_callbacks,
            callback_ns: Cell::new(0),
            send_ns: Cell::new(0),
            plan,
        })
    }
}

/// What one node received, as the oracle needs it.
pub struct RxLog {
    /// `seen[src]` has bit `i` set once `src`'s message `i` arrived intact.
    seen: Vec<Vec<u64>>,
    /// `next_ordinal[src][flow]`: the smallest ordinal the flow may deliver next.
    next_ordinal: Vec<Vec<u32>>,
    /// Messages that arrived intact, in flow order, for the first time.
    pub intact: u64,
    /// Messages whose header or payload did not match the schedule.
    pub corrupt: u64,
    /// Intact messages that had already been delivered once.
    pub duplicate: u64,
    /// Intact messages that arrived out of their flow's order.
    pub misordered: u64,
    /// Latency samples in nanoseconds, timed from the due instant.
    pub latencies_ns: Vec<u64>,
    /// Virtual time of the last intact delivery.
    pub last_intact_ns: u64,
}

impl RxLog {
    fn new(plan: &Plan, node: usize) -> RxLog {
        // Sized up front: a vector that grows by doubling moves, and where
        // the allocator puts it then makes peak memory depend on the seed.
        let expected = match plan.looping {
            Loop::Open => plan
                .nodes
                .iter()
                .flat_map(|n| n.sends.iter().map(|s| n.flows[s.flow as usize].dst))
                .filter(|&dst| dst == node)
                .count(),
            Loop::Closed { .. } if node == 0 => plan.nodes[0].sends.len(),
            Loop::Closed { .. } => 0,
        };
        RxLog {
            seen: plan
                .nodes
                .iter()
                .map(|n| vec![0; n.sends.len().div_ceil(64)])
                .collect(),
            next_ordinal: plan.nodes.iter().map(|n| vec![0; n.flows.len()]).collect(),
            intact: 0,
            corrupt: 0,
            duplicate: 0,
            misordered: 0,
            latencies_ns: Vec::with_capacity(expected),
            last_intact_ns: 0,
        }
    }
}

/// The benchmark application of one node.
pub struct NodeApp {
    node: usize,
    shared: Rc<Shared>,
    /// Next entry of the open-loop schedule.
    cursor: usize,
    /// Closed loop, node 0: when each outstanding request was due.
    request_due_ns: Vec<u64>,
}

impl NodeApp {
    /// The app for node `node`.
    pub fn new(node: usize, shared: Rc<Shared>) -> NodeApp {
        NodeApp {
            node,
            shared,
            cursor: 0,
            request_due_ns: Vec::new(),
        }
    }

    fn sends(&self) -> &[Send] {
        &self.shared.plan.nodes[self.node].sends
    }

    fn submit(&self, api: &mut dyn CommApi, index: usize) {
        let s = self.sends()[index];
        let body = self
            .shared
            .plan
            .pool
            .slice(s.off as usize..(s.off + s.body) as usize);
        let parts = MessageBuilder::new()
            .pack_express(&encode_header(index as u32, &s))
            .pack_bytes(body, PackMode::Cheaper)
            .build_parts();
        let flow = self.shared.flow_ids.borrow()[self.node][s.flow as usize];
        if !self.shared.time_callbacks {
            api.send(flow, parts);
            return;
        }
        let t0 = Instant::now();
        api.send(flow, parts);
        let spent = t0.elapsed().as_nanos() as u64;
        self.shared.send_ns.set(self.shared.send_ns.get() + spent);
    }

    /// Submit every open-loop message that is due and arm the next timer.
    fn walk_schedule(&mut self, api: &mut dyn CommApi) {
        let now = api.now().as_nanos();
        while let Some(s) = self.sends().get(self.cursor) {
            if s.due_ns > now {
                api.set_timer(SimDuration::from_nanos(s.due_ns - now), SCHEDULE_TAG);
                return;
            }
            let late = now - s.due_ns;
            if late > self.shared.late_max_ns.get() {
                self.shared.late_max_ns.set(late);
            }
            self.submit(api, self.cursor);
            self.cursor += 1;
        }
    }

    /// Check one delivery against the schedule; returns the sender's
    /// schedule index when the message is intact, new and in order.
    fn check(&self, msg: &DeliveredMessage) -> Option<usize> {
        let shared = &self.shared;
        let mut rx = shared.rx[self.node].borrow_mut();
        let src = msg.src.0 as usize;
        let verdict = (|| {
            let [(PackMode::Express, header), (PackMode::Cheaper, body)] = &msg.fragments[..]
            else {
                return None;
            };
            let (index, ordinal, off, len) = decode_header(header)?;
            let s = shared.plan.nodes.get(src)?.sends.get(index as usize)?;
            let addressed_here = shared.plan.nodes[src].flows[s.flow as usize].dst == self.node;
            let flow_matches = shared.flow_ids.borrow()[src][s.flow as usize] == msg.flow;
            let header_matches = (s.ordinal, s.off, s.body) == (ordinal, off, len);
            let payload_matches =
                body[..] == shared.plan.pool[s.off as usize..(s.off + s.body) as usize];
            (addressed_here && flow_matches && header_matches && payload_matches)
                .then_some((index as usize, *s))
        })();
        let Some((index, s)) = verdict else {
            rx.corrupt += 1;
            return None;
        };
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if rx.seen[src][word] & bit != 0 {
            rx.duplicate += 1;
            return None;
        }
        rx.seen[src][word] |= bit;
        // Strictly increasing: a gap is a missing message (counted as
        // undelivered), a step back is a reordering.
        let next = &mut rx.next_ordinal[src][s.flow as usize];
        if s.ordinal < *next {
            rx.misordered += 1;
            return None;
        }
        *next = s.ordinal + 1;
        rx.intact += 1;
        rx.last_intact_ns = msg.delivered_at.as_nanos();
        Some(index)
    }

    fn on_delivery(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let Some(index) = self.check(msg) else {
            return;
        };
        let now = msg.delivered_at.as_nanos();
        match self.shared.plan.looping {
            Loop::Open => {
                let due = self.shared.plan.nodes[msg.src.0 as usize].sends[index].due_ns;
                let mut rx = self.shared.rx[self.node].borrow_mut();
                rx.latencies_ns.push(now - due);
            }
            Loop::Closed { .. } if self.node == 1 => self.submit(api, index),
            Loop::Closed { rounds } => {
                let client = index / rounds;
                let rtt = now - self.request_due_ns[client];
                self.shared.rx[0].borrow_mut().latencies_ns.push(rtt);
                if (index + 1) % rounds != 0 {
                    self.think(api, index + 1);
                }
            }
        }
    }

    /// Closed loop: wait out request `index`'s think time, then send it.
    fn think(&mut self, api: &mut dyn CommApi, index: usize) {
        let Loop::Closed { rounds } = self.shared.plan.looping else {
            unreachable!("think() is only called in a closed loop");
        };
        let client = index / rounds;
        let think = self.sends()[index].due_ns;
        self.request_due_ns[client] = api.now().as_nanos() + think;
        if think == 0 {
            self.submit(api, index);
        } else {
            api.set_timer(SimDuration::from_nanos(think), REQUEST_TAG + index as u64);
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut Self)) {
        if !self.shared.time_callbacks {
            return f(self);
        }
        self.shared.send_ns.set(0);
        let t0 = Instant::now();
        f(self);
        let own = (t0.elapsed().as_nanos() as u64).saturating_sub(self.shared.send_ns.get());
        self.shared
            .callback_ns
            .set(self.shared.callback_ns.get() + own);
    }
}

impl AppDriver for NodeApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        debug_assert_eq!(api.node(), NodeId(self.node as u32));
        self.timed(|app| match app.shared.plan.looping {
            Loop::Open => app.walk_schedule(api),
            Loop::Closed { rounds } if app.node == 0 => {
                let clients = app.sends().len() / rounds;
                app.request_due_ns = vec![0; clients];
                for c in 0..clients {
                    app.think(api, c * rounds);
                }
            }
            Loop::Closed { .. } => {}
        });
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        self.timed(|app| {
            if tag == SCHEDULE_TAG {
                app.walk_schedule(api);
            } else {
                app.submit(api, (tag - REQUEST_TAG) as usize);
            }
        });
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        self.timed(|app| app.on_delivery(api, msg));
    }
}
