//! Rows by an id the engine hands out from a counter — a flow, a
//! sequence number, a cookie, an activation, a rail, a NIC — for the
//! post-hoc readers (madprof, madtrace's export) that fold a trace into
//! one row per id and then walk the rows in id order.
//!
//! A counter's ids form a run, so the rows sit in a vector from the first
//! id seen and are reached by subtraction, not searched for. Ids read
//! from an arbitrary document need not form a run (a cookie near
//! `u64::MAX` among small ones): an id the run would have to grow past
//! four times its rows to reach is kept in a sorted map instead, so what
//! the table holds stays proportional to its rows, never to its largest
//! id. Four times, not once: a counter shared by two kinds of record (a
//! cookie names data and control packets alike) leaves gaps in the ids
//! one table sees.

// madlint: file: deterministic-output

use std::collections::{btree_map, BTreeMap};

/// How far past four times its rows the run may grow to reach an id.
const SLACK: u64 = 64;

/// Rows by id, walked in id order. Every id is in exactly one place:
/// the run `base..base + run.len()`, or `far`.
#[derive(Clone, Debug)]
pub(crate) struct IdTable<V> {
    /// Id of `run[0]`: the first id the table was given.
    base: u64,
    /// The rows of ids `base..base + run.len()`.
    run: Vec<Option<V>>,
    /// Rows of the ids outside the run.
    far: BTreeMap<u64, V>,
    /// Rows held, in `run` and in `far`.
    rows: u64,
}

impl<V> Default for IdTable<V> {
    fn default() -> Self {
        IdTable {
            base: 0,
            run: Vec::new(),
            far: BTreeMap::new(),
            rows: 0,
        }
    }
}

impl<V> IdTable<V> {
    /// Where `id` sits in the run, if it does.
    fn slot(&self, id: u64) -> Option<usize> {
        let at = id.checked_sub(self.base)?;
        (at < self.run.len() as u64).then_some(at as usize)
    }

    /// The row of `id`, if it has one.
    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        match self.slot(id) {
            Some(at) => self.run[at].as_ref(),
            None if self.far.is_empty() => None,
            None => self.far.get(&id),
        }
    }

    /// The row of `id`, made by `make` if it has none yet.
    pub(crate) fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> V) -> &mut V {
        if self.rows == 0 {
            self.base = id;
        }
        let slot = self.slot(id).or_else(|| {
            self.grow_to(id);
            self.slot(id)
        });
        match slot {
            Some(at) => {
                let row = &mut self.run[at];
                if row.is_none() {
                    self.rows += 1;
                }
                row.get_or_insert_with(make)
            }
            None => {
                let rows = &mut self.rows;
                self.far.entry(id).or_insert_with(|| {
                    *rows += 1;
                    make()
                })
            }
        }
    }

    /// Extend the run up to `id` if that keeps it within four times its
    /// rows (plus [`SLACK`]), moving the far rows it comes to cover into it.
    fn grow_to(&mut self, id: u64) {
        let Some(at) = id.checked_sub(self.base) else {
            return;
        };
        if at >= 4 * self.rows + SLACK {
            return;
        }
        let from = self.base + self.run.len() as u64;
        self.run.resize_with(at as usize + 1, || None);
        if self.far.is_empty() {
            return;
        }
        let covered: Vec<u64> = self.far.range(from..=id).map(|(&k, _)| k).collect();
        for k in covered {
            self.run[(k - self.base) as usize] = self.far.remove(&k);
        }
    }

    /// Every row with its id, in id order.
    pub(crate) fn iter(&self) -> Iter<'_, V> {
        // Ids below the run, then the run, then ids past it.
        let end = self.base.saturating_add(self.run.len() as u64);
        let far = !self.far.is_empty();
        Iter {
            below: far.then(|| self.far.range(..self.base)),
            base: self.base,
            run: self.run.iter().enumerate(),
            above: far.then(|| self.far.range(end..)),
        }
    }

    /// Slots this table has allocated: what it costs, whatever its ids.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.run.capacity() + self.far.len()
    }
}

/// [`IdTable::iter`]: the rows with their ids, in id order.
pub(crate) struct Iter<'a, V> {
    below: Option<btree_map::Range<'a, u64, V>>,
    base: u64,
    run: std::iter::Enumerate<std::slice::Iter<'a, Option<V>>>,
    above: Option<btree_map::Range<'a, u64, V>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<(u64, &'a V)> {
        if let Some((&id, row)) = self.below.as_mut().and_then(Iterator::next) {
            return Some((id, row));
        }
        for (at, row) in &mut self.run {
            if let Some(row) = row {
                return Some((self.base + at as u64, row));
            }
        }
        let (&id, row) = self.above.as_mut()?.next()?;
        Some((id, row))
    }
}

impl<V: Default> IdTable<V> {
    /// The row of `id`, empty if it has none yet.
    pub(crate) fn row(&mut self, id: u64) -> &mut V {
        self.get_or_insert_with(id, V::default)
    }
}

impl<V> IdTable<IdTable<V>> {
    /// The row of `(outer, inner)` — a node's packet by cookie, say.
    pub(crate) fn get_in(&self, outer: u64, inner: u64) -> Option<&V> {
        self.get(outer)?.get(inner)
    }

    /// [`IdTable::slots`] of this table and the tables it holds.
    #[cfg(test)]
    pub(crate) fn nested_slots(&self) -> usize {
        self.slots() + self.iter().map(|(_, t)| t.slots()).sum::<usize>()
    }
}

/// A row named by `(node, id)` in a test.
#[cfg(test)]
impl<V> std::ops::Index<&(u32, u64)> for IdTable<IdTable<V>> {
    type Output = V;

    fn index(&self, &(node, id): &(u32, u64)) -> &V {
        self.get_in(u64::from(node), id)
            .expect("no row at (node, id)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserting `ids` in order gives the rows a sorted map would hold,
    /// walked in the same order, and lookups that agree with it.
    fn agrees_with_a_map(ids: &[u64]) -> IdTable<u64> {
        let mut table = IdTable::default();
        let mut map = BTreeMap::new();
        for (n, &id) in ids.iter().enumerate() {
            *table.get_or_insert_with(id, || 0) += n as u64;
            *map.entry(id).or_insert(0) += n as u64;
        }
        let walked: Vec<(u64, u64)> = table.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(walked, want, "{ids:?}");
        for &id in ids.iter().chain(&[0, 1, 63, 64, u64::MAX - 1, u64::MAX]) {
            assert_eq!(table.get(id), map.get(&id), "{id} of {ids:?}");
        }
        table
    }

    #[test]
    fn rows_walk_in_id_order_whatever_order_they_came_in() {
        agrees_with_a_map(&[]);
        agrees_with_a_map(&[0, 1, 2, 3, 2, 1]);
        agrees_with_a_map(&[5, 3, 9, 4, 200, 6, 7, 1000, 8]);
        agrees_with_a_map(&[u64::MAX, 0, u64::MAX - 1, 7, u64::MAX - 70]);
        agrees_with_a_map(&[u64::MAX - 2, u64::MAX - 1, u64::MAX, 3]);
        // Far rows that the run later grows over move into it.
        let ids: Vec<u64> = [0, 100, 90, 80].into_iter().chain(1..120).collect();
        let table = agrees_with_a_map(&ids);
        assert!(table.far.is_empty(), "the run covers them all");
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200 {
            let ids: Vec<u64> = (0..40)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    match rng % 4 {
                        0 => rng,
                        1 => u64::MAX - rng % 100,
                        _ => rng % 150,
                    }
                })
                .collect();
            agrees_with_a_map(&ids);
        }
    }

    #[test]
    fn a_foreign_id_does_not_size_the_table() {
        let table = agrees_with_a_map(&[0, u64::MAX, 1 << 40, u32::MAX as u64, 2]);
        assert!(
            table.slots() <= 2 * (5 + SLACK as usize),
            "{}",
            table.slots()
        );
        // A counter's run stays a run, gaps of up to three ids too: no
        // row goes far.
        let table = agrees_with_a_map(&(1..10_000).collect::<Vec<_>>());
        assert!(table.far.is_empty());
        assert!(table.slots() < 2 * 10_000);
        let table = agrees_with_a_map(&(0..10_000).map(|i| 7 + 4 * i).collect::<Vec<_>>());
        assert!(table.far.is_empty());
    }
}
