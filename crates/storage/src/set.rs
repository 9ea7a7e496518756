//! Recursive relations with set semantics (no aggregate in the head).
//!
//! `tc`, `sg` and `attend` from the paper's query suite are stored here,
//! each row exactly once: an append-only row arena, an open-addressed
//! membership table of arena row ids (the exact duplicate check — the set
//! difference of semi-naive evaluation), and one posting list of row ids
//! per probed column. Probes hand out row ids to resolve against
//! [`SetRelation::rows`], the same shape as
//! [`SealedRelation::probe_ids`](crate::sealed::SealedRelation::probe_ids).
//!
//! A membership check is one hashed table lookup, so no existence cache
//! sits in front of it. [`SetRelation::insert_batch`] hides that lookup's
//! cache misses: it hashes a group of rows, prefetches their table slots,
//! then the arena rows those slots name, and only then inserts.

use dcd_common::hash::{mix64, FastMap};
use dcd_common::Tuple;
use std::borrow::Borrow;

/// Rows hashed and prefetched together by [`SetRelation::insert_batch`]:
/// enough misses in flight to cover memory latency, few enough that the
/// prefetched lines are still cached when the inserts reach them.
const BATCH: usize = 32;

/// The high half of a slot: the upper 32 bits of its row's hash.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// Hashes a row consistently with `Tuple`'s equality: values that compare
/// equal (`Int(3)` and `Float(3.0)`) share their key bits.
#[inline]
pub(crate) fn row_hash(t: &Tuple) -> u64 {
    let mut h = t.arity() as u64;
    for v in t.values() {
        h = (h.rotate_left(5) ^ v.key_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    mix64(h)
}

/// Hints the CPU to pull `*r` into L1 ahead of its use: both cache lines
/// when the value can straddle a line boundary.
#[inline(always)]
fn prefetch<T: ?Sized>(r: &T) {
    let p = (r as *const T).cast::<i8>();
    hint(p);
    let size = std::mem::size_of_val(r);
    if size > std::mem::align_of_val(r) {
        hint(p.wrapping_add(size - 1));
    }
}

#[inline(always)]
fn hint(p: *const i8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 CPU has. It is
    // a hint with no architectural effect: it reads no memory a program
    // can observe and never faults, whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A deduplicated, indexed recursive relation.
pub struct SetRelation {
    /// Every distinct row, in insertion order; a row's id is its index.
    rows: Vec<Tuple>,
    /// Linear-probing membership table, at most half full. A slot holds
    /// its row's hash tag in the high half and `row id + 1` in the low
    /// half; 0 is empty. A row's home slot is its hash's top `bits` bits,
    /// which the tag contains, so growing never rehashes a row.
    slots: Vec<u64>,
    bits: u32,
    /// `(column, key bits → row ids)` for every probed column.
    postings: Vec<(usize, FastMap<u64, Vec<u32>>)>,
}

impl SetRelation {
    /// Creates an empty relation with a probe index on `key_col`.
    pub fn new(key_col: usize) -> Self {
        Self::with_index_cols(&[key_col])
    }

    /// Creates an empty relation with a probe index on each of `cols`
    /// (none at all for a relation that is only scanned).
    pub fn with_index_cols(cols: &[usize]) -> Self {
        let mut postings: Vec<(usize, FastMap<u64, Vec<u32>>)> = Vec::new();
        for &c in cols {
            if postings.iter().all(|(pc, _)| *pc != c) {
                postings.push((c, FastMap::default()));
            }
        }
        const INITIAL_BITS: u32 = 4;
        SetRelation {
            rows: Vec::new(),
            slots: vec![0; 1 << INITIAL_BITS],
            bits: INITIAL_BITS,
            postings,
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
        self.reserve(1);
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
            self.reserve(group.len());
            for (h, row) in hashes.iter_mut().zip(group) {
                *h = row_hash(row.borrow());
                prefetch(&self.slots[self.home(*h)]);
            }
            for &h in &hashes[..group.len()] {
                if let Some(id) = self.first_tag_match(h) {
                    prefetch(&self.rows[id]);
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
        self.postings
            .iter()
            .find(|(c, _)| *c == col)
            .expect("probe on unindexed column")
            .1
            .get(&key)
            .map_or(&[], Vec::as_slice)
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

    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.bits)) as usize
    }

    /// The row id in the first slot of `h`'s probe run whose tag matches
    /// `h` — the likely duplicate, if there is one.
    #[inline]
    fn first_tag_match(&self, h: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return None;
            }
            if s & TAG == h & TAG {
                return Some((s as u32 - 1) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// `Ok(row id)` when `t` (with hash `h`) is present, else `Err(the
    /// empty slot where it belongs)`.
    #[inline]
    fn find(&self, h: u64, t: &Tuple) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return Err(i);
            }
            let id = (s as u32 - 1) as usize;
            if s & TAG == h & TAG && self.rows[id].values() == t.values() {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores new row `t` (hash `h`) in the empty `slot` `find` returned.
    fn append(&mut self, slot: usize, h: u64, t: Tuple) {
        let id = u32::try_from(self.rows.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("set relation exceeds u32 row ids");
        self.slots[slot] = (h & TAG) | (id as u64 + 1);
        for (col, map) in &mut self.postings {
            map.entry(t.key(*col)).or_default().push(id);
        }
        self.rows.push(t);
    }

    /// Keeps the table at most half full after `additional` more rows.
    fn reserve(&mut self, additional: usize) {
        let need = (self.rows.len() + additional) * 2;
        if need <= self.slots.len() {
            return;
        }
        let bits = need.next_power_of_two().trailing_zeros();
        assert!(bits <= 32, "set relation exceeds 2^31 rows");
        let mut slots = vec![0u64; 1 << bits];
        let mask = slots.len() - 1;
        for &s in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = (s >> (64 - bits)) as usize;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = s;
        }
        self.slots = slots;
        self.bits = bits;
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
