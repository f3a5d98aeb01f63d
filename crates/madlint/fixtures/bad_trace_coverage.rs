//! Fixture: a lifecycle mutation invisible to madtrace. Must trip
//! `trace-coverage` and nothing else.
// madlint: file: trace-covered

pub struct Backlog;

impl Backlog {
    pub fn shed_oldest(&mut self) {}
}

/// Sheds backlog without pushing an EngineEvent — the flight recorder
/// goes blind for this transition.
pub fn relieve_pressure(b: &mut Backlog) {
    b.shed_oldest();
}

pub struct Observer;

impl Observer {
    pub fn metrics_mut(&mut self) {}
}

/// Reaches for the observer but not through its event seam: a counter
/// moves, the ring stays empty.
pub fn relieve_and_count(b: &mut Backlog, obs: &mut Observer) {
    b.shed_oldest();
    obs.metrics_mut();
}
