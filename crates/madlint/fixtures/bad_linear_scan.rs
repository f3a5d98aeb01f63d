//! Fixture: per-call element searches in a hot-path scope. Must trip
//! `linear-scan` and nothing else.
// madlint: file: hot-path

pub struct Msg {
    pub seq: u32,
}

/// A front-to-back walk per lookup: quadratic once a backlog builds.
pub fn find_msg(queue: &[Msg], seq: u32) -> Option<&Msg> {
    queue.iter().find(|m| m.seq == seq)
}

/// Same walk, mutable.
pub fn find_msg_mut(queue: &mut [Msg], seq: u32) -> Option<&mut Msg> {
    queue.iter_mut().find(|m| m.seq == seq)
}

/// Removing one finished message by filtering the whole queue.
pub fn remove_msg(queue: &mut Vec<Msg>, seq: u32) {
    queue.retain(|m| m.seq != seq);
}

/// Where in the queue is it? Still a walk.
pub fn index_of(queue: &[Msg], seq: u32) -> Option<usize> {
    queue.iter().position(|m| m.seq == seq)
}
