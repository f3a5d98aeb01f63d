//! Fixture: the same idioms as `bad_linear_scan.rs`, each either replaced
//! by positional access or allowed with the bound that keeps it small.
//! Must be silent.
// madlint: file: hot-path

pub struct Msg {
    pub seq: u32,
}

pub struct Group {
    pub dst: u32,
}

/// Positional: the queue is ascending in `seq`.
pub fn find_msg(queue: &[Msg], seq: u32) -> Option<&Msg> {
    let at = queue.binary_search_by_key(&seq, |m| m.seq).ok()?;
    queue.get(at)
}

/// Item-level allow: the whole function scans something bounded.
// madlint: allow(linear-scan) — one group per destination in a window
pub fn group_for(groups: &mut [Group], dst: u32) -> Option<&mut Group> {
    groups.iter_mut().find(|g| g.dst == dst)
}

/// Line-level allow: only the annotated scan is sanctioned.
pub fn first_open(frags: &[bool]) -> Option<usize> {
    frags.iter().position(|open| *open) // madlint: allow(linear-scan) — fragments of one message
}

/// Searching an iterator adaptor's output is not the flagged idiom.
pub fn first_even(xs: &[u32]) -> Option<u32> {
    xs.iter().copied().find(|x| x % 2 == 0)
}

pub struct Cand {
    pub msg: (u32, u32),
    pub remaining: u32,
}

/// One walk: a message's candidates are adjacent, so its first one is the
/// one whose predecessor belongs to another message.
pub fn biggest_first_of_message(candidates: &[Cand]) -> Option<&Cand> {
    let mut prev = None;
    candidates
        .iter()
        .filter(|c| prev.replace(c.msg) != Some(c.msg))
        .max_by_key(|c| c.remaining)
}

/// Allowed: the collection is an array of fixed, small size.
pub fn any_finite(budgets: &[u64; 4]) -> bool {
    budgets.iter().any(|&b| b != u64::MAX) // madlint: allow(linear-scan) — one budget per class slot
}
