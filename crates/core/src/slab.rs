//! A paged slab: values in numbered slots that never move, with a free
//! list, so a table of pending things costs memory in proportion to what
//! is pending.
//!
//! Pages double from [`FIRST_PAGE`] slots up to [`LAST_PAGE`], and every
//! page after that has [`LAST_PAGE`] slots: the slab grows without copying
//! a slot, and holds at most one page of slots it has not used. A slot
//! starts a 128-byte pair of cache lines. A freed slot is handed out again
//! before the slab grows. When the last value leaves, every page but the
//! first is given back: a node whose backlog comes and goes keeps one small
//! page and allocates nothing per value.

// madlint: file: hot-path

use std::mem;

/// Slots in the first page (a power of two).
pub const FIRST_PAGE: usize = 16;

/// Slots in the largest page (a power of two), which every page after the
/// doubling ones has.
pub const LAST_PAGE: usize = 512;

/// Pages that double: `FIRST_PAGE`, `2 × FIRST_PAGE`, …, `LAST_PAGE`.
const DOUBLING: usize = (LAST_PAGE.ilog2() - FIRST_PAGE.ilog2() + 1) as usize;

/// Slots in the pages that double.
const DOUBLED: usize = 2 * LAST_PAGE - FIRST_PAGE;

/// End of the free list.
const NO_SLOT: u32 = u32::MAX;

/// One slot: a value, or the next free slot.
#[derive(Clone, Debug)]
enum Slot<T> {
    Full(T),
    Free(u32),
}

/// A slot placed at the start of a 128-byte pair of cache lines, the unit
/// a CPU fetches together: a value that fits is read with one wait for
/// memory, not split across three lines.
#[derive(Clone, Debug)]
#[repr(align(128))]
struct Line<T>(Slot<T>);

/// Values in stable numbered slots; see the module docs.
#[derive(Clone, Debug)]
pub struct Slab<T> {
    /// Page `k` has capacity `page_slots(k)` and holds the slots used
    /// since the last release, in order.
    pages: Vec<Vec<Line<T>>>,
    /// Head of the free list threaded through the freed slots.
    free: u32,
    /// Slots holding a value.
    live: usize,
    /// Slots used since the last release (the pages' summed lengths).
    used: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            pages: Vec::new(),
            free: NO_SLOT,
            live: 0,
            used: 0,
        }
    }
}

/// Page and offset of slot `at`.
fn locate(at: u32) -> (usize, usize) {
    let at = at as usize;
    if at < DOUBLED {
        let j = at + FIRST_PAGE;
        let page = (j.ilog2() - FIRST_PAGE.ilog2()) as usize;
        (page, j - (FIRST_PAGE << page))
    } else {
        let past = at - DOUBLED;
        (DOUBLING + past / LAST_PAGE, past % LAST_PAGE)
    }
}

/// Slots of page `page`.
fn page_slots(page: usize) -> usize {
    FIRST_PAGE << page.min(DOUBLING - 1)
}

impl<T> Slab<T> {
    /// Bytes a slot takes: a multiple of 128.
    pub const SLOT_BYTES: usize = mem::size_of::<Line<T>>();

    /// Store `value`; returns its slot.
    pub fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        if self.free != NO_SLOT {
            let at = self.free;
            let (page, off) = locate(at);
            let slot = &mut self.pages[page][off].0;
            let Slot::Free(next) = *slot else {
                panic!("slab: free list names occupied slot {at}");
            };
            self.free = next;
            *slot = Slot::Full(value);
            return at;
        }
        let at = u32::try_from(self.used).expect("slab exceeds the u32 slot space");
        let (page, _) = locate(at);
        if page == self.pages.len() {
            self.pages.push(Vec::with_capacity(page_slots(page)));
        }
        self.pages[page].push(Line(Slot::Full(value)));
        self.used += 1;
        at
    }

    /// The value in slot `at`.
    ///
    /// # Panics
    /// Panics when the slot holds no value.
    #[inline]
    pub fn get(&self, at: u32) -> &T {
        let (page, off) = locate(at);
        match &self.pages[page][off].0 {
            Slot::Full(value) => value,
            Slot::Free(_) => panic!("slab: slot {at} is free"),
        }
    }

    /// The value in slot `at`, mutably.
    ///
    /// # Panics
    /// Panics when the slot holds no value.
    #[inline]
    pub fn get_mut(&mut self, at: u32) -> &mut T {
        let (page, off) = locate(at);
        match &mut self.pages[page][off].0 {
            Slot::Full(value) => value,
            Slot::Free(_) => panic!("slab: slot {at} is free"),
        }
    }

    /// Take the value out of slot `at`, freeing the slot; the last value
    /// out releases every page but the first.
    ///
    /// # Panics
    /// Panics when the slot holds no value.
    pub fn remove(&mut self, at: u32) -> T {
        let (page, off) = locate(at);
        let Slot::Full(value) = mem::replace(&mut self.pages[page][off].0, Slot::Free(self.free))
        else {
            panic!("slab: slot {at} is already free");
        };
        self.free = at;
        self.live -= 1;
        if self.live == 0 && self.pages.len() > 1 {
            self.pages.truncate(1);
            self.pages[0].clear();
            self.free = NO_SLOT;
            self.used = 0;
        }
        value
    }

    /// Slots holding a value.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no slot holds a value.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots the allocated pages can hold.
    pub fn capacity(&self) -> usize {
        self.pages.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_is_a_pair_of_cache_lines() {
        assert_eq!(Slab::<u64>::SLOT_BYTES, 128);
        assert_eq!(Slab::<[u64; 16]>::SLOT_BYTES, 256);
    }

    #[test]
    fn slots_map_onto_pages_that_double_and_then_stay() {
        // Every slot, in order, is the next place of one page or the first
        // of the next, and a page holds what `page_slots` says.
        let mut expect = (0, 0);
        for at in 0..(DOUBLED + 3 * LAST_PAGE) as u32 {
            if expect.1 == page_slots(expect.0) {
                expect = (expect.0 + 1, 0);
            }
            assert_eq!(locate(at), expect, "slot {at}");
            expect.1 += 1;
        }
        assert_eq!(expect.0, DOUBLING + 2);
        assert_eq!(page_slots(0), FIRST_PAGE);
        assert_eq!(page_slots(DOUBLING - 1), LAST_PAGE);
        assert_eq!(page_slots(DOUBLING + 100), LAST_PAGE);
        let last = (u32::MAX as usize - DOUBLED) / LAST_PAGE;
        assert_eq!(locate(u32::MAX).0, DOUBLING + last);
    }

    #[test]
    fn a_freed_slot_is_reused_and_the_last_one_out_releases_the_pages() {
        let mut s = Slab::default();
        let slots: Vec<u32> = (0..100u32).map(|v| s.insert(v)).collect();
        assert_eq!(slots, (0..100).collect::<Vec<_>>());
        let grown = s.capacity();
        assert!((100..2 * 100 + FIRST_PAGE).contains(&grown), "{grown}");
        let mut big = Slab::default();
        for v in 0..10 * LAST_PAGE {
            big.insert(v);
        }
        assert!(
            big.capacity() < 10 * LAST_PAGE + LAST_PAGE,
            "one page ahead at most"
        );
        assert_eq!(s.remove(40), 40);
        assert_eq!(s.remove(7), 7);
        assert_eq!(
            (s.insert(1000), s.insert(1001)),
            (7, 40),
            "last freed first"
        );
        assert_eq!(s.insert(1002), 100);
        assert_eq!((*s.get(7), *s.get(40), s.len()), (1000, 1001, 101));
        *s.get_mut(100) += 1;
        assert_eq!(*s.get(100), 1003);
        for at in (0..=100).rev() {
            s.remove(at);
        }
        assert!(s.is_empty());
        assert_eq!(s.capacity(), FIRST_PAGE, "the first page stays");
        assert_eq!(s.insert(5), 0, "and is used from its start");
        // A slab that never left its first page keeps its free list.
        assert_eq!((s.insert(6), s.remove(0), s.remove(1)), (1, 5, 6));
        assert_eq!((s.insert(7), s.len()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn a_slot_is_freed_once() {
        let mut s = Slab::default();
        let a = s.insert(1);
        s.insert(2);
        s.remove(a);
        s.remove(a);
    }
}
