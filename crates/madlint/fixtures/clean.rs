//! Fixture: compliant code under every marker at once. Must be silent.
// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: scoring
// madlint: file: trace-covered
// madlint: file: lock-order: registry before per-flow state

use std::collections::BTreeMap;

pub struct EngineEvent;

pub struct Trace {
    events: Vec<EngineEvent>,
}

impl Trace {
    pub fn push(&mut self, e: EngineEvent) {
        self.events.push(e);
    }
}

pub struct Backlog;

impl Backlog {
    pub fn shed_oldest(&mut self) {}
}

/// Ordered iteration: BTreeMap is deterministic.
pub fn export_counters(counters: &BTreeMap<u32, u64>) -> Vec<(u32, u64)> {
    counters.iter().map(|(k, v)| (*k, *v)).collect()
}

/// Named invariant instead of an anonymous panic.
pub fn pick_rail(best: Option<usize>) -> usize {
    best.expect("policy guarantees at least one live rail")
}

/// Total order on scores.
pub fn better(a: f64, b: f64) -> bool {
    a.total_cmp(&b) == std::cmp::Ordering::Greater
}

/// Lifecycle mutation with the matching trace emission.
pub fn relieve_pressure(b: &mut Backlog, trace: &mut Trace) {
    b.shed_oldest();
    trace.push(EngineEvent);
}

pub struct Observer;

impl Observer {
    pub fn delivered(&mut self) {}
}

/// Lifecycle mutation reported through the observer seam only.
pub fn relieve_through_seam(b: &mut Backlog, obs: &mut Observer) {
    b.shed_oldest();
    obs.delivered();
}

/// A documented lock (see the file-level lock-order directive).
pub static REGISTRY: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());
