//! The ordered eviction index behind the session's bounded tables (the
//! result cache and the affinity tracker).
//!
//! A bounded table evicts its lowest-ranked resident when it is full.
//! Finding that resident by scanning every entry costs O(n) per insert;
//! this index keeps the residents sorted by `(rank, seq)` instead, so the
//! victim is the first element and every insert, removal and re-rank is
//! O(log n). `seq` is the table's insertion counter, unique per resident,
//! so equal ranks fall back to the oldest insertion.

use std::collections::BTreeMap;

/// Residents of one bounded table ordered by `(rank, seq)`, lowest
/// first. Each position maps to the handle the table finds the resident
/// by; tables store a shared handle (an `Arc` of the key) so a re-rank
/// moves it instead of cloning the key.
///
/// The table owns the ranks: it records each resident's current rank
/// next to the resident and passes it back on every re-rank or removal.
#[derive(Debug)]
pub(crate) struct EvictionIndex<R, K> {
    order: BTreeMap<(R, u64), K>,
}

impl<R, K> Default for EvictionIndex<R, K> {
    fn default() -> Self {
        Self { order: BTreeMap::new() }
    }
}

impl<R: Ord + Copy, K> EvictionIndex<R, K> {
    /// Ranks a new resident.
    pub(crate) fn insert(&mut self, rank: R, seq: u64, key: K) {
        let displaced = self.order.insert((rank, seq), key);
        debug_assert!(displaced.is_none(), "seq {seq} ranked twice");
    }

    /// Moves resident `seq` from rank `from` to rank `to`.
    pub(crate) fn rerank(&mut self, seq: u64, from: R, to: R) {
        if from == to {
            return;
        }
        let key = self.order.remove(&(from, seq)).expect("re-ranked resident is indexed");
        self.order.insert((to, seq), key);
    }

    /// The lowest-ranked resident: the next eviction victim.
    pub(crate) fn first(&self) -> Option<&K> {
        self.order.first_key_value().map(|(_, k)| k)
    }

    /// Removes and returns the lowest-ranked resident.
    pub(crate) fn pop_first(&mut self) -> Option<K> {
        self.order.pop_first().map(|(_, k)| k)
    }

    /// Replaces the whole order, for when every rank changed at once.
    pub(crate) fn rebuild(&mut self, residents: impl IntoIterator<Item = (R, u64, K)>) {
        self.order = residents.into_iter().map(|(rank, seq, key)| ((rank, seq), key)).collect();
    }

    pub(crate) fn clear(&mut self) {
        self.order.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_rank_then_oldest_seq_comes_first() {
        let mut index = EvictionIndex::default();
        index.insert(5u64, 0, "a");
        index.insert(3, 1, "b");
        index.insert(3, 2, "c");
        assert_eq!(index.first(), Some(&"b"), "rank 3 ties: seq 1 is older");
        index.rerank(1, 3, 9);
        assert_eq!(index.first(), Some(&"c"));
        index.rerank(2, 3, 3);
        assert_eq!(index.pop_first(), Some("c"));
        assert_eq!(index.pop_first(), Some("a"));
        assert_eq!(index.pop_first(), Some("b"));
        assert_eq!(index.pop_first(), None);
        index.rebuild([(2, 7, "x"), (1, 8, "y")]);
        assert_eq!((index.len(), index.first()), (2, Some(&"y")));
        index.clear();
        assert_eq!(index.len(), 0);
    }
}
