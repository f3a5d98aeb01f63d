//! The application/middleware-facing API, shared by the optimizing engine
//! and the legacy baseline so workloads run unmodified on both.

use simnet::{NodeId, SimDuration, SimTime};

use crate::flowmgr::SendOutcome;
use crate::ids::{FlowId, MsgId, TrafficClass};
use crate::message::{DeliveredMessage, Fragment};
use crate::trace::EngineEvent;

/// Timer tags at or above this value are reserved for library internals
/// (Nagle flushes, adaptive-policy epochs).
pub const INTERNAL_TAG_BASE: u64 = 1 << 62;
/// Internal timer tag: Nagle flush (armed by the optimizer).
pub(crate) const NAGLE_TAG: u64 = INTERNAL_TAG_BASE;
/// Internal timer tag: adaptive-policy epoch (armed by the optimizer).
pub(crate) const ADAPTIVE_TAG: u64 = INTERNAL_TAG_BASE + 1;
/// Internal timer tag: retransmit-deadline sweep (armed by madrel).
pub(crate) const RETX_TAG: u64 = INTERNAL_TAG_BASE + 2;
/// Internal timer tag: madscope sampler tick (armed by the observer).
pub(crate) const SAMPLER_TAG: u64 = INTERNAL_TAG_BASE + 3;
/// Internal timer tag: the end of an ack's hold (armed by the transfer
/// layer).
pub(crate) const ACK_HOLD_TAG: u64 = INTERNAL_TAG_BASE + 4;

/// What an application/middleware may do from inside its callbacks.
///
/// Mirrors the Madeleine API shape: open logical flows (channels), pack
/// messages ([`crate::message::MessageBuilder`]) and submit them. Submission
/// enqueues into the collect layer and returns immediately (§3).
pub trait CommApi {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// The local node.
    fn node(&self) -> NodeId;
    /// Open a flow toward `dst` with a traffic class.
    fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId;
    /// Submit a packed message on a flow; returns its id. Never blocks.
    ///
    /// # Panics
    /// With madflow admission control enabled
    /// ([`crate::flowmgr::AdmissionConfig`]), panics when the submission
    /// is refused (`WouldBlock`/`Rejected`) — budget-aware applications
    /// must use [`CommApi::try_send`] instead.
    fn send(&mut self, flow: FlowId, parts: Vec<Fragment>) -> MsgId;
    /// Submit a packed message, reporting the madflow admission outcome
    /// instead of panicking under backpressure. Engines without admission
    /// control always return [`SendOutcome::Admitted`].
    fn try_send(&mut self, flow: FlowId, parts: Vec<Fragment>) -> SendOutcome {
        SendOutcome::Admitted(self.send(flow, parts))
    }
    /// Arm a one-shot timer; `tag` (< [`INTERNAL_TAG_BASE`]) is echoed to
    /// [`AppDriver::on_timer`].
    fn set_timer(&mut self, delay: SimDuration, tag: u64);
    /// Force the engine to push pending traffic now, bypassing any pending
    /// Nagle delay (the optimizer runs on every idle rail; the legacy
    /// engine pumps its software queues).
    fn flush(&mut self);
    /// Record an application-level decision event on the node's madtrace
    /// ring (madcoll algorithm selection uses this for
    /// [`EngineEvent::CollProposed`]/[`EngineEvent::CollWon`]). Engines
    /// without a trace ring (the legacy baseline) drop it.
    fn note_event(&mut self, event: EngineEvent) {
        let _ = event;
    }
}

/// The application/middleware stack driving one node.
///
/// Implementations are installed into an engine at construction and driven
/// entirely by callbacks — exactly the paper's model where the application
/// "simply enqueues packets ... and immediately returns to computing".
#[allow(unused_variables)]
pub trait AppDriver {
    /// Called once at simulation start.
    fn on_start(&mut self, api: &mut dyn CommApi) {}
    /// A timer armed via [`CommApi::set_timer`] fired.
    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {}
    /// A message was delivered to this node.
    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {}
    /// A locally submitted message finished transmission (its last chunk
    /// completed injection). Local completion, not a delivery receipt.
    fn on_sent(&mut self, api: &mut dyn CommApi, msg: MsgId) {}
    /// A traffic class that previously returned
    /// [`SendOutcome::WouldBlock`] regained backlog headroom — the
    /// application may retry its deferred submissions.
    fn on_unblocked(&mut self, api: &mut dyn CommApi, class: TrafficClass) {}
}

/// A no-op application (receive-only nodes).
#[derive(Debug, Default)]
pub struct NullApp;

impl AppDriver for NullApp {}
