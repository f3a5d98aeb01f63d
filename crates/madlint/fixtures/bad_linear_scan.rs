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

pub struct Cand {
    pub flow: u32,
    pub seq: u32,
    pub frag: u16,
    pub remaining: u32,
    pub submitted_at: u64,
}

pub struct Group {
    pub candidates: Vec<Cand>,
}

/// "Is it there?" asked of the whole group for every member of the group:
/// the walk `.any(` hides is the inner loop of a quadratic one.
pub fn biggest_first_of_message(g: &Group) -> Option<&Cand> {
    g.candidates
        .iter()
        .filter(|c| {
            !g.candidates
                .iter()
                .any(|o| o.flow == c.flow && o.seq == c.seq && o.frag < c.frag)
        })
        .max_by_key(|c| {
            (
                c.remaining,
                std::cmp::Reverse(c.submitted_at),
                c.flow,
                c.seq,
            )
        })
}

/// Same question, mutable iterator.
pub fn any_empty(g: &mut Group) -> bool {
    g.candidates.iter_mut().any(|c| c.remaining == 0)
}
