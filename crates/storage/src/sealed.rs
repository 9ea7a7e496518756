//! Immutable, index-complete base (EDB) relations.
//!
//! Algorithm 1 line 3: "Construct Index for each partition of B on the
//! partition key". Base relations never change during evaluation, so all
//! their rows *and* all their hash indexes are built exactly once, up
//! front, by [`SealedRelation::build`] — after which the relation is
//! immutable and freely shareable across worker threads (`&SealedRelation`
//! / `Arc<SealedRelation>` are `Sync`). Replicated relations are built once
//! for the whole engine and shared; partitioned relations are built once
//! per worker from that worker's slice. Probes return row ids
//! ([`SealedRelation::probe_ids`]) to resolve against the rows, the same
//! shape as a set relation's probes.

use dcd_common::hash::FastMap;
use dcd_common::{Partitioner, Tuple};

/// An immutable EDB relation (or partition slice) with its hash indexes.
#[derive(Default)]
pub struct SealedRelation {
    rows: Vec<Tuple>,
    /// `indexes[col]` maps key bits of column `col` to row ids.
    indexes: FastMap<usize, FastMap<u64, Vec<u32>>>,
}

impl SealedRelation {
    /// Builds the relation and every requested hash index in one pass per
    /// column. This is the only constructor: a sealed relation is never
    /// observable in a partially-indexed state.
    pub fn build(rows: Vec<Tuple>, index_cols: &[usize]) -> Self {
        let mut indexes: FastMap<usize, FastMap<u64, Vec<u32>>> = FastMap::default();
        for &col in index_cols {
            if indexes.contains_key(&col) {
                continue;
            }
            let mut idx: FastMap<u64, Vec<u32>> = FastMap::default();
            for (i, row) in rows.iter().enumerate() {
                idx.entry(row.key(col)).or_default().push(i as u32);
            }
            indexes.insert(col, idx);
        }
        SealedRelation { rows, indexes }
    }

    /// All rows, indexed by row id.
    #[inline]
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether an index exists on `col`.
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.contains_key(&col)
    }

    /// The ids of the rows whose `col` has key bits `key` (empty when the
    /// key is absent), to resolve against [`SealedRelation::rows`]. Callers
    /// probing a run of equal keys can hold the bucket across rows,
    /// skipping the repeated index lookup. Panics if no index covers
    /// `col` (a planner bug, not a user error).
    #[inline]
    pub fn probe_ids(&self, col: usize, key: u64) -> &[u32] {
        self.indexes
            .get(&col)
            .expect("probe on unindexed column")
            .get(&key)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Approximate resident heap size in bytes: the row storage (including
    /// spilled values) plus every index's buckets. Used by the
    /// observability layer to show that replicated relations are resident
    /// once, not once per worker.
    pub fn resident_bytes(&self) -> u64 {
        let tuple_sz = std::mem::size_of::<Tuple>() as u64;
        let value_sz = std::mem::size_of::<dcd_common::Value>() as u64;
        let mut bytes = self.rows.capacity() as u64 * tuple_sz;
        for row in &self.rows {
            if row.arity() > dcd_common::tuple::INLINE_ARITY {
                bytes += row.arity() as u64 * value_sz;
            }
        }
        for idx in self.indexes.values() {
            // Key + bucket header per entry, plus the row-id payloads.
            bytes += idx.len() as u64
                * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>()) as u64;
            for bucket in idx.values() {
                bytes += bucket.capacity() as u64 * std::mem::size_of::<u32>() as u64;
            }
        }
        bytes
    }

    /// Splits `rows` into per-worker row slices by `H(row[col])`
    /// (Algorithm 1, line 2).
    pub fn partition_rows(rows: &[Tuple], part: &Partitioner, col: usize) -> Vec<Vec<Tuple>> {
        let n = part.partitions();
        let mut out: Vec<Vec<Tuple>> = (0..n).map(|_| Vec::new()).collect();
        for row in rows {
            out[part.of_key(row.key(col))].push(row.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(r: &SealedRelation, col: usize, key: u64) -> Vec<&Tuple> {
        r.probe_ids(col, key)
            .iter()
            .map(|&i| &r.rows()[i as usize])
            .collect()
    }

    fn edges() -> Vec<Tuple> {
        vec![
            Tuple::from_ints(&[1, 2]),
            Tuple::from_ints(&[1, 3]),
            Tuple::from_ints(&[2, 3]),
            Tuple::from_ints(&[3, 1]),
        ]
    }

    #[test]
    fn probe_finds_all_matches() {
        let r = SealedRelation::build(edges(), &[0]);
        let hits = probe(&r, 0, Tuple::from_ints(&[1]).key(0));
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t[0].expect_int() == 1));
    }

    #[test]
    fn probe_missing_key_is_empty() {
        let r = SealedRelation::build(edges(), &[1]);
        assert_eq!(probe(&r, 1, 99).len(), 0);
    }

    #[test]
    fn duplicate_index_cols_build_once() {
        let r = SealedRelation::build(edges(), &[0, 0]);
        assert!(r.has_index(0));
        assert_eq!(probe(&r, 0, Tuple::from_ints(&[2]).key(0)).len(), 1);
    }

    #[test]
    fn multiple_indexes_coexist() {
        let r = SealedRelation::build(edges(), &[0, 1]);
        assert_eq!(probe(&r, 1, Tuple::from_ints(&[0, 3]).key(1)).len(), 2);
        assert_eq!(probe(&r, 0, Tuple::from_ints(&[3]).key(0)).len(), 1);
    }

    #[test]
    fn probe_ids_resolve_to_matching_rows() {
        let r = SealedRelation::build(edges(), &[0]);
        let key = Tuple::from_ints(&[1]).key(0);
        let want: Vec<&Tuple> = r.rows().iter().filter(|t| t.key(0) == key).collect();
        assert_eq!(probe(&r, 0, key), want);
        assert!(r.probe_ids(0, 999).is_empty());
    }

    #[test]
    fn partition_rows_is_exhaustive_and_disjoint() {
        let rows = edges();
        let part = Partitioner::new(3);
        let parts = SealedRelation::partition_rows(&rows, &part, 0);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, rows.len());
        for (w, p) in parts.iter().enumerate() {
            for row in p {
                assert_eq!(part.of_key(row.key(0)), w);
            }
        }
    }

    #[test]
    fn empty_relation() {
        let r = SealedRelation::build(vec![], &[0]);
        assert!(r.is_empty());
        assert_eq!(probe(&r, 0, 0).len(), 0);
    }

    #[test]
    fn resident_bytes_grows_with_rows_and_indexes() {
        let bare = SealedRelation::build(edges(), &[]);
        let indexed = SealedRelation::build(edges(), &[0, 1]);
        assert!(bare.resident_bytes() > 0);
        assert!(indexed.resident_bytes() > bare.resident_bytes());
    }
}
