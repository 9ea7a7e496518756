//! The existence-check cache (§6.2.2).
//!
//! Every semi-naive iteration performs set union/difference against the
//! recursive table, each requiring an index probe (logarithmic in the
//! paper's B+-tree). The paper puts a constant-time cache in front: "when
//! checking the tuples, we first look up the cache in constant time. If
//! the key is already there, we ignore the tuple; otherwise, we proceed to
//! check the index."
//!
//! No store here needs one: a set relation's membership check and an
//! aggregate relation's group lookup are each one hashed
//! [`RowTable`](crate::table::RowTable) probe already. The same idea serves
//! the exchange instead — [`TupleCache`] is Distribute's sent-filter.
//!
//! The cache is a direct-mapped array of exact entries, so a hit is
//! always *sound* (it proves the tuple was seen); a miss falls through.
//! Collisions simply evict.

use crate::set::row_hash;
use dcd_common::{Tuple, Value};
use std::borrow::Borrow;

/// Default number of slots (tuned so the cache stays L2-resident).
pub const DEFAULT_SLOTS: usize = 1 << 15;

/// Exact filter over recently seen tuples: a hit proves the tuple was
/// recorded before. It serves rows of one arity (one relation's), learned
/// from the first row recorded; rows of another arity always miss.
pub struct TupleCache {
    /// Slot `i`'s row, stored flat at `vals[i * arity..][..arity]` when
    /// `full[i]`: 32 bytes per slot for a binary row, where a `Tuple`
    /// takes 72.
    vals: Vec<Value>,
    full: Vec<bool>,
    arity: Option<usize>,
    mask: usize,
    hits: u64,
    misses: u64,
}

impl TupleCache {
    /// Creates a cache with `slots` entries (rounded up to a power of two).
    pub fn new(slots: usize) -> Self {
        let n = slots.next_power_of_two().max(2);
        TupleCache {
            vals: Vec::new(),
            full: vec![false; n],
            arity: None,
            mask: n - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether `t` was definitely seen before (a sound duplicate check).
    pub fn check(&mut self, t: &Tuple) -> bool {
        let slot = self.slot_of(t);
        if self.holds(slot, t) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Records `t` as seen.
    pub fn record(&mut self, t: &Tuple) {
        let slot = self.slot_of(t);
        self.store(slot, t);
    }

    /// Moves the rows of `rows` the cache cannot prove were seen before to
    /// its front, in order, records them, and returns their count: the
    /// same outcome as [`TupleCache::check`] then [`TupleCache::record`]
    /// on each row in turn, including a row repeated within `rows`.
    pub fn retain_unseen<T: Borrow<Tuple>>(&mut self, rows: &mut [T]) -> usize {
        let mut kept = 0;
        for i in 0..rows.len() {
            let row = rows[i].borrow();
            let slot = self.slot_of(row);
            if self.holds(slot, row) {
                self.hits += 1;
                continue;
            }
            self.misses += 1;
            self.store(slot, row);
            // Every row before `i` is decided, so this keeps order.
            rows.swap(kept, i);
            kept += 1;
        }
        kept
    }

    #[inline]
    fn slot_of(&self, t: &Tuple) -> usize {
        (row_hash(t) as usize) & self.mask
    }

    #[inline]
    fn holds(&self, slot: usize, t: &Tuple) -> bool {
        match self.arity {
            Some(a) if a == t.arity() && self.full[slot] => {
                self.vals[slot * a..][..a] == *t.values()
            }
            _ => false,
        }
    }

    #[inline]
    fn store(&mut self, slot: usize, t: &Tuple) {
        let a = match self.arity {
            Some(a) => a,
            None => {
                self.vals = vec![Value::Int(0); self.full.len() * t.arity()];
                *self.arity.insert(t.arity())
            }
        };
        if a == t.arity() {
            self.vals[slot * a..][..a].copy_from_slice(t.values());
            self.full[slot] = true;
        }
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hits since construction.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_cache_hit_after_record() {
        let mut c = TupleCache::new(64);
        let t = Tuple::from_ints(&[1, 2]);
        assert!(!c.check(&t));
        c.record(&t);
        assert!(c.check(&t));
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn tuple_cache_never_false_positive() {
        let mut c = TupleCache::new(4); // tiny, lots of collisions
        for i in 0..1000 {
            let t = Tuple::from_ints(&[i]);
            // A hit must mean the exact tuple was recorded and not evicted —
            // and we only record AFTER checking, so first sight is a miss.
            assert!(!c.check(&t), "false positive for {i}");
            c.record(&t);
        }
    }

    #[test]
    fn retain_unseen_matches_check_then_record() {
        let rows: Vec<Tuple> = (0..100).map(|i| Tuple::from_ints(&[i % 37])).collect();
        let mut one = TupleCache::new(16);
        let want: Vec<&Tuple> = rows
            .iter()
            .filter(|t| {
                let seen = one.check(t);
                if !seen {
                    one.record(t);
                }
                !seen
            })
            .collect();
        let mut batched = TupleCache::new(16);
        let mut got: Vec<&Tuple> = rows.iter().collect();
        let kept = batched.retain_unseen(&mut got);
        assert_eq!(got[..kept], want);
        assert_eq!(batched.stats(), one.stats());
    }

    #[test]
    fn tuple_cache_serves_one_arity() {
        let mut c = TupleCache::new(64);
        let pair = Tuple::from_ints(&[1, 2]);
        c.record(&pair);
        let triple = Tuple::from_ints(&[1, 2, 3]);
        c.record(&triple);
        assert!(c.check(&pair));
        assert!(!c.check(&triple), "rows of another arity always miss");
        let mut unit = TupleCache::new(4);
        assert!(!unit.check(&Tuple::unit()));
        unit.record(&Tuple::unit());
        assert!(unit.check(&Tuple::unit()));
    }

    #[test]
    fn tuple_cache_eviction_is_harmless() {
        let mut c = TupleCache::new(2);
        let a = Tuple::from_ints(&[1]);
        c.record(&a);
        for i in 2..100 {
            c.record(&Tuple::from_ints(&[i]));
        }
        // `a` may or may not still be cached; check() just returns a bool.
        let _ = c.check(&a);
    }

    #[test]
    fn hit_miss_accessors_match_stats() {
        let mut t = TupleCache::new(16);
        let x = Tuple::from_ints(&[3]);
        t.check(&x);
        t.record(&x);
        t.check(&x);
        assert_eq!((t.hits(), t.misses()), t.stats());
        assert_eq!((t.hits(), t.misses()), (1, 1));
    }

    #[test]
    fn sizes_round_to_power_of_two() {
        let c = TupleCache::new(100);
        assert_eq!(c.full.len(), 128);
        let c = TupleCache::new(1);
        assert_eq!(c.full.len(), 2);
    }
}
