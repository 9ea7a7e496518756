//! Recursive relations with set semantics (no aggregate in the head).
//!
//! `tc`, `sg` and `attend` from the paper's query suite are stored here,
//! each row exactly once: an append-only row arena, a whole-row
//! [`RowTable`] of arena row ids (the exact duplicate check — the set
//! difference of semi-naive evaluation), and one posting list of row ids
//! per probed column. Probes hand out row ids to resolve against
//! [`SetRelation::rows`], the same shape as
//! [`SealedRelation::probe_ids`](crate::sealed::SealedRelation::probe_ids).
//!
//! A membership check is one hashed table lookup, so no existence cache
//! sits in front of it. [`SetRelation::insert_batch`] hides that lookup's
//! cache misses: it hashes a group of rows, prefetches their table slots,
//! then the arena rows those slots name, and only then inserts.

use crate::table::{key_hash, next_row_id, prefetch, Postings, RowTable};
use dcd_common::Tuple;
use std::borrow::Borrow;

/// Rows hashed and prefetched together by [`SetRelation::insert_batch`]:
/// enough misses in flight to cover memory latency, few enough that the
/// prefetched lines are still cached when the inserts reach them.
const BATCH: usize = 32;

/// Hashes a row consistently with `Tuple`'s equality: values that compare
/// equal (`Int(3)` and `Float(3.0)`) share their key bits.
#[inline]
pub(crate) fn row_hash(t: &Tuple) -> u64 {
    key_hash(t.values())
}

/// A deduplicated, indexed recursive relation.
pub struct SetRelation {
    /// Every distinct row, in insertion order; a row's id is its index.
    rows: Vec<Tuple>,
    /// Membership: whole row → row id.
    table: RowTable,
    /// One row-id posting list per probed column.
    postings: Postings,
}

impl SetRelation {
    /// Creates an empty relation with a probe index on `key_col`.
    pub fn new(key_col: usize) -> Self {
        Self::with_index_cols(&[key_col])
    }

    /// Creates an empty relation with a probe index on each of `cols`
    /// (none at all for a relation that is only scanned).
    pub fn with_index_cols(cols: &[usize]) -> Self {
        SetRelation {
            rows: Vec::new(),
            table: RowTable::whole_rows(),
            postings: Postings::new(cols),
        }
    }

    /// Number of distinct tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every row, indexed by row id (insertion order).
    #[inline]
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Whether `t` is already present.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find(row_hash(t), t).is_ok()
    }

    /// Inserts `t`; returns `true` iff it was new (and therefore belongs in
    /// the next delta).
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.table.reserve(1);
        let h = row_hash(&t);
        match self.find(h, &t) {
            Ok(_) => false,
            Err(slot) => {
                self.append(slot, h, t);
                true
            }
        }
    }

    /// Inserts every row of `batch` in order, exactly as repeated
    /// [`SetRelation::insert`] calls would, and returns how many were new.
    /// New rows are appended, so they are the last `n` of
    /// [`SetRelation::rows`].
    ///
    /// Each group of [`BATCH`] rows is hashed first, with every row's
    /// table slot prefetched; then the arena row each slot's tag points at
    /// is prefetched; then the rows are inserted one by one. The misses
    /// of a group overlap instead of queueing behind each other.
    pub fn insert_batch<T: Borrow<Tuple>>(&mut self, batch: &[T]) -> usize {
        let before = self.rows.len();
        let mut hashes = [0u64; BATCH];
        for group in batch.chunks(BATCH) {
            // Grow first: the slots prefetched below are the slots used.
            self.table.reserve(group.len());
            for (h, row) in hashes.iter_mut().zip(group) {
                *h = row_hash(row.borrow());
                self.table.prefetch_home(*h);
            }
            for &h in &hashes[..group.len()] {
                if let Some(id) = self.table.first_tag_match(h) {
                    prefetch(&self.rows[id as usize]);
                }
            }
            for (&h, row) in hashes.iter().zip(group) {
                let row = row.borrow();
                if let Err(slot) = self.find(h, row) {
                    self.append(slot, h, row.clone());
                }
            }
        }
        self.rows.len() - before
    }

    /// Ids of the rows whose `col` has key bits `key` (empty when none).
    /// Panics if no index covers `col` (a planner bug, not a user error).
    #[inline]
    pub fn probe_ids(&self, col: usize, key: u64) -> &[u32] {
        self.postings.ids(col, key)
    }

    /// Streams every row once, in insertion order. The iterator type is
    /// nameable, so callers can hold it in their own enums (the
    /// evaluator's in-place IDB scans).
    pub fn scan(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Moves the rows out (used when collecting final results from
    /// workers); no row is copied.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    /// `Ok(slot)` when `t` (with hash `h`) is present, else `Err(the
    /// empty slot where it belongs)`.
    #[inline]
    fn find(&self, h: u64, t: &Tuple) -> Result<usize, usize> {
        self.table
            .find(h, t.values(), |id| self.rows[id as usize].values())
    }

    /// Stores new row `t` (hash `h`) in the empty `slot` `find` returned.
    fn append(&mut self, slot: usize, h: u64, t: Tuple) {
        let id = next_row_id(self.rows.len());
        self.table.insert(slot, h, id);
        self.postings.add(id, t.values());
        self.rows.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedups() {
        let mut r = SetRelation::new(0);
        assert!(r.insert(Tuple::from_ints(&[1, 2])));
        assert!(!r.insert(Tuple::from_ints(&[1, 2])));
        assert!(r.insert(Tuple::from_ints(&[1, 3])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn probe_by_key_column() {
        let mut r = SetRelation::new(1);
        r.insert(Tuple::from_ints(&[1, 5]));
        r.insert(Tuple::from_ints(&[2, 5]));
        r.insert(Tuple::from_ints(&[3, 6]));
        let key5 = Tuple::from_ints(&[0, 5]).key(1);
        let hits: Vec<&Tuple> = r
            .probe_ids(1, key5)
            .iter()
            .map(|&i| &r.rows()[i as usize])
            .collect();
        assert_eq!(
            hits,
            [&Tuple::from_ints(&[1, 5]), &Tuple::from_ints(&[2, 5])]
        );
        assert!(r.probe_ids(1, Tuple::from_ints(&[0, 7]).key(1)).is_empty());
    }

    #[test]
    fn contains_matches_insert_result() {
        let mut r = SetRelation::new(0);
        let t = Tuple::from_ints(&[9, 9]);
        assert!(!r.contains(&t));
        r.insert(t.clone());
        assert!(r.contains(&t));
    }

    #[test]
    fn into_rows_returns_all() {
        let mut r = SetRelation::new(0);
        r.insert(Tuple::from_ints(&[1, 2]));
        r.insert(Tuple::from_ints(&[3, 4]));
        let mut rows = r.into_rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[3, 4])]
        );
    }
}
