//! The hashed row-id table and the row-id postings every derived
//! relation is built from.
//!
//! A [`RowTable`] maps the *key* of a row — its first `k` values — to the
//! id of the one row that holds that key. The rows themselves live in the
//! caller's arena; the table stores only ids and resolves them through a
//! closure, so one table type serves four users:
//!
//! * set membership ([`SetRelation`](crate::set::SetRelation)): the key is
//!   the whole row ([`RowTable::whole_rows`]);
//! * aggregate groups ([`AggRelation`](crate::aggregate::AggRelation)):
//!   the key is the group-by columns;
//! * the worker's pre-Distribute partial aggregation: the group columns,
//!   plus the contributor for `sum`/`count`;
//! * the worker's delta coalescing: the group columns.

use dcd_common::hash::{mix64, FastMap};
use dcd_common::Value;

/// The high half of a slot: the upper 32 bits of its row's key hash.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// `log2` of a fresh table's slot count.
const INITIAL_BITS: u32 = 4;

/// Hashes a key consistently with `Value`'s equality: values that compare
/// equal (`Int(3)` and `Float(3.0)`) share their key bits.
#[inline]
pub(crate) fn key_hash(key: &[Value]) -> u64 {
    let mut h = key.len() as u64;
    for v in key {
        h = (h.rotate_left(5) ^ v.key_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    mix64(h)
}

/// The id the next row of an arena holding `len` rows gets. Panics past
/// `u32::MAX - 1` rows: a slot stores `id + 1` in 32 bits.
#[inline]
pub fn next_row_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id < u32::MAX)
        .expect("relation exceeds u32 row ids")
}

/// Hints the CPU to pull `*r` into L1 ahead of its use: both cache lines
/// when the value can straddle a line boundary.
#[inline(always)]
pub(crate) fn prefetch<T: ?Sized>(r: &T) {
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

/// An open-addressed, linear-probing table from row keys to row ids, at
/// most half full. A slot holds its key's hash tag in the high half and
/// `row id + 1` in the low half; 0 is empty. A key's home slot is its
/// hash's top `bits` bits, which the tag contains, so growing never
/// re-reads or rehashes a row.
pub struct RowTable {
    slots: Vec<u64>,
    bits: u32,
    len: usize,
    /// Leading values that form the key (`usize::MAX`: the whole row).
    key_len: usize,
}

impl RowTable {
    /// An empty table keyed on the first `key_len` values of each row.
    pub fn new(key_len: usize) -> Self {
        RowTable {
            slots: vec![0; 1 << INITIAL_BITS],
            bits: INITIAL_BITS,
            len: 0,
            key_len,
        }
    }

    /// An empty table keyed on whole rows (a set).
    pub fn whole_rows() -> Self {
        Self::new(usize::MAX)
    }

    /// The key of `row`: its first `key_len` values (all of them when the
    /// row is shorter).
    #[inline]
    pub fn key<'a>(&self, row: &'a [Value]) -> &'a [Value] {
        &row[..row.len().min(self.key_len)]
    }

    /// The hash of `row`'s key, as [`RowTable::find`] and
    /// [`RowTable::insert`] take it.
    #[inline]
    pub fn hash(&self, row: &[Value]) -> u64 {
        key_hash(self.key(row))
    }

    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.bits)) as usize
    }

    /// `Ok(slot)` of the row whose key equals `row`'s key (`h` is that
    /// key's hash), else `Err(the empty slot where it belongs)`. `rows`
    /// resolves a row id to the row's values.
    #[inline]
    pub fn find<'r>(
        &self,
        h: u64,
        row: &[Value],
        rows: impl Fn(u32) -> &'r [Value],
    ) -> Result<usize, usize> {
        let key = self.key(row);
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return Err(i);
            }
            if s & TAG == h & TAG && self.key(rows(s as u32 - 1)) == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The row id in occupied `slot`.
    #[inline]
    pub fn id(&self, slot: usize) -> u32 {
        self.slots[slot] as u32 - 1
    }

    /// Stores row `id`, whose key hashes to `h`, in the empty `slot`
    /// [`RowTable::find`] returned. Call [`RowTable::reserve`] before that
    /// `find`, not between it and this call.
    #[inline]
    pub fn insert(&mut self, slot: usize, h: u64, id: u32) {
        debug_assert_eq!(self.slots[slot], 0, "insert into an occupied slot");
        self.slots[slot] = (h & TAG) | (id as u64 + 1);
        self.len += 1;
    }

    /// Points occupied `slot` at row `id`, which has the same key.
    #[inline]
    pub fn set_id(&mut self, slot: usize, id: u32) {
        self.slots[slot] = (self.slots[slot] & TAG) | (id as u64 + 1);
    }

    /// Keeps the table at most half full after `additional` more keys.
    pub fn reserve(&mut self, additional: usize) {
        let need = (self.len + additional) * 2;
        if need > self.slots.len() {
            self.rebuild(need.next_power_of_two());
        }
    }

    /// Removes every key. A table much larger than its last contents
    /// shrinks, so clearing costs about what filling it did.
    pub fn clear(&mut self) {
        let fit = (self.len * 2).next_power_of_two().max(1 << INITIAL_BITS);
        if self.slots.len() > 4 * fit {
            self.slots = vec![0; fit];
            self.bits = fit.trailing_zeros();
        } else {
            self.slots.fill(0);
        }
        self.len = 0;
    }

    /// Moves every slot into a table of `size` slots.
    fn rebuild(&mut self, size: usize) {
        let bits = size.trailing_zeros();
        assert!(bits <= 32, "row table exceeds 2^31 keys");
        let mut slots = vec![0u64; size];
        let mask = size - 1;
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

    /// Prefetches `h`'s home slot (the first step of a batched lookup).
    #[inline]
    pub(crate) fn prefetch_home(&self, h: u64) {
        prefetch(&self.slots[self.home(h)]);
    }

    /// The row id in the first slot of `h`'s probe run whose tag matches
    /// `h` — the likely match, if there is one.
    #[inline]
    pub(crate) fn first_tag_match(&self, h: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return None;
            }
            if s & TAG == h & TAG {
                return Some(s as u32 - 1);
            }
            i = (i + 1) & mask;
        }
    }
}

/// One row-id posting list per probed column: column → key bits → ids of
/// the rows holding that key.
pub(crate) struct Postings {
    lists: Vec<(usize, FastMap<u64, Vec<u32>>)>,
}

impl Postings {
    /// Postings on each of `cols` (repeats ignored).
    pub(crate) fn new(cols: &[usize]) -> Self {
        let mut lists: Vec<(usize, FastMap<u64, Vec<u32>>)> = Vec::new();
        for &c in cols {
            if lists.iter().all(|(pc, _)| *pc != c) {
                lists.push((c, FastMap::default()));
            }
        }
        Postings { lists }
    }

    /// Files new row `id` under each indexed column's key.
    #[inline]
    pub(crate) fn add(&mut self, id: u32, row: &[Value]) {
        for (col, map) in &mut self.lists {
            map.entry(row[*col].key_bits()).or_default().push(id);
        }
    }

    /// Refiles row `id`, which held `old` and now holds `new`, under every
    /// indexed column whose key changed.
    pub(crate) fn refile(&mut self, id: u32, old: &[Value], new: &[Value]) {
        for (col, map) in &mut self.lists {
            let (from, to) = (old[*col].key_bits(), new[*col].key_bits());
            if from == to {
                continue;
            }
            if let Some(list) = map.get_mut(&from) {
                if let Some(at) = list.iter().position(|&i| i == id) {
                    list.swap_remove(at);
                }
            }
            map.entry(to).or_default().push(id);
        }
    }

    /// Ids of the rows whose `col` has key bits `key` (empty when none).
    /// Panics if no list covers `col` (a planner bug, not a user error).
    #[inline]
    pub(crate) fn ids(&self, col: usize, key: u64) -> &[u32] {
        self.lists
            .iter()
            .find(|(c, _)| *c == col)
            .expect("probe on unindexed column")
            .1
            .get(&key)
            .map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_common::Tuple;

    /// Inserts `row` into `rows` unless its key is present; returns the
    /// id of the row holding the key.
    fn upsert(t: &mut RowTable, rows: &mut Vec<Tuple>, row: Tuple) -> u32 {
        t.reserve(1);
        let h = t.hash(row.values());
        match t.find(h, row.values(), |id| rows[id as usize].values()) {
            Ok(slot) => t.id(slot),
            Err(slot) => {
                let id = next_row_id(rows.len());
                t.insert(slot, h, id);
                rows.push(row);
                id
            }
        }
    }

    #[test]
    fn prefix_keys_collapse_rows_that_share_them() {
        let mut t = RowTable::new(1);
        let mut rows = Vec::new();
        assert_eq!(upsert(&mut t, &mut rows, Tuple::from_ints(&[1, 5])), 0);
        assert_eq!(upsert(&mut t, &mut rows, Tuple::from_ints(&[1, 9])), 0);
        assert_eq!(upsert(&mut t, &mut rows, Tuple::from_ints(&[2, 5])), 1);
        // `Float(1.0)` equals `Int(1)`, so it finds the same key.
        let f = Tuple::new(&[Value::Float(1.0), Value::Int(0)]);
        assert_eq!(upsert(&mut t, &mut rows, f), 0);
        assert_eq!(t.len, 2);
    }

    #[test]
    fn whole_row_keys_survive_growth_and_clear() {
        let mut t = RowTable::whole_rows();
        let mut rows = Vec::new();
        for i in 0..1000i64 {
            upsert(&mut t, &mut rows, Tuple::from_ints(&[i % 300, i % 7]));
        }
        assert_eq!(t.len, rows.len());
        for (id, row) in rows.iter().enumerate() {
            let h = t.hash(row.values());
            let slot = t.find(h, row.values(), |i| rows[i as usize].values());
            assert_eq!(slot.map(|s| t.id(s)), Ok(id as u32));
        }
        t.clear();
        assert_eq!(t.len, 0);
        let row = &rows[0];
        let h = t.hash(row.values());
        assert!(t
            .find(h, row.values(), |i| rows[i as usize].values())
            .is_err());
    }

    #[test]
    fn set_id_keeps_the_key_and_refile_moves_postings() {
        let mut t = RowTable::new(1);
        let rows = [Tuple::from_ints(&[4, 1]), Tuple::from_ints(&[4, 2])];
        let h = t.hash(rows[0].values());
        let slot = t.find(h, rows[0].values(), |i| rows[i as usize].values());
        t.insert(slot.unwrap_err(), h, 0);
        let slot = t.find(h, rows[1].values(), |i| rows[i as usize].values());
        t.set_id(slot.unwrap(), 1);
        let again = t.find(h, rows[0].values(), |i| rows[i as usize].values());
        assert_eq!(again.map(|s| t.id(s)), Ok(1));

        let mut p = Postings::new(&[0, 1, 1]);
        assert_eq!(p.lists.len(), 2);
        p.add(7, rows[0].values());
        p.refile(7, rows[0].values(), rows[1].values());
        assert_eq!(p.ids(0, 4), [7]);
        assert!(p.ids(1, 1).is_empty());
        assert_eq!(p.ids(1, 2), [7]);
    }
}
