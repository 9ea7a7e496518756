//! Worker-local storage: shared/sliced base relations and
//! recursive-relation stores.
//!
//! Each worker owns one [`WorkerStore`]: an `Arc` handle per base relation
//! taken from the shared [`EdbCatalog`](crate::catalog::EdbCatalog)
//! (replicated relations point at the *same* sealed allocation on every
//! worker; partitioned relations at this worker's slice) and a [`RecStore`]
//! per derived relation. Both kinds of derived relation are row arenas
//! with a hashed row-id table and row-id postings: a [`SetRelation`]
//! merges, probes and scans by itself, and an [`AggRelation`] holds the
//! Gather merge logic (§5.2.2) with the aggregate state inside its group
//! index (§6.2.1). Every probe therefore answers with row ids.

use crate::catalog::EdbCatalog;
use dcd_common::{Tuple, Value, WorkerId};
use dcd_frontend::ast::AggFunc;
use dcd_frontend::physical::{PhysicalPlan, RelId, StorageKind, Target};
use dcd_storage::aggregate::MergeOutcome;
use dcd_storage::{AggFunc as StAggFunc, AggRelation, SealedRelation, SetRelation};
use std::sync::Arc;

/// Outcome of merging one incoming row.
#[derive(Debug, PartialEq)]
pub enum Merged {
    /// The logical row is new/improved: feed it to the next delta.
    New(Tuple),
    /// Duplicate / non-improving.
    Old,
}

/// The rows one index probe matched: ids into a relation's row arena.
#[derive(Clone, Copy, Debug)]
pub struct Bucket<'a> {
    /// The relation's rows, indexed by row id.
    pub rows: &'a [Tuple],
    /// Ids of the matching rows.
    pub ids: &'a [u32],
}

/// An aggregate relation and its merge options.
pub struct AggStore {
    rel: AggRelation,
    /// §6.2 optimizations enabled? When off, merges first locate their
    /// group by a linear scan (the pre-optimization behaviour of §6.2.1).
    optimized: bool,
}

impl AggStore {
    fn merge(&mut self, row: &Tuple) -> Merged {
        if !self.optimized {
            // Pre-§6.2.1 behaviour: locate the group with a linear scan of
            // the relation before merging.
            let g = self.rel.group_cols();
            let group = &row.values()[..g];
            let found = self.rel.emitted().iter().any(|r| &r.values()[..g] == group);
            std::hint::black_box(found);
        }
        match self.rel.merge(row) {
            MergeOutcome::Updated(logical) => Merged::New(logical),
            MergeOutcome::Unchanged => Merged::Old,
        }
    }
}

/// Store for one derived relation on one worker.
pub enum RecStore {
    /// A set relation: the arena merges, probes and scans by itself.
    Set(SetRelation),
    /// An aggregate relation.
    Agg(AggStore),
}

impl RecStore {
    /// Creates the store for `rel` as declared in `plan`.
    pub fn new(plan: &PhysicalPlan, rel: RelId, optimized: bool) -> Self {
        let decl = plan.idb[rel].as_ref().expect("IDB relation");
        match &decl.kind {
            // Postings only on the columns rules probe: a relation that is
            // only ever a delta (TC's `tc`) keeps no index at all.
            StorageKind::Set => RecStore::Set(SetRelation::with_index_cols(&decl.index_cols)),
            StorageKind::Agg {
                func,
                group_cols,
                epsilon,
            } => RecStore::Agg(AggStore {
                rel: AggRelation::with_index_cols(
                    to_storage_func(*func),
                    *group_cols,
                    *epsilon,
                    &decl.index_cols,
                ),
                optimized,
            }),
        }
    }

    /// Number of logical rows / groups.
    pub fn len(&self) -> usize {
        match self {
            RecStore::Set(s) => s.len(),
            RecStore::Agg(a) => a.rel.len(),
        }
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges one incoming merge-layout row (the Gather operator).
    pub fn merge(&mut self, row: &Tuple) -> Merged {
        match self {
            RecStore::Set(s) => {
                if s.insert(row.clone()) {
                    Merged::New(row.clone())
                } else {
                    Merged::Old
                }
            }
            RecStore::Agg(a) => a.merge(row),
        }
    }

    /// Probes the relation on `col == key` (index join).
    pub fn probe(&self, col: usize, key: u64) -> Bucket<'_> {
        match self {
            RecStore::Set(s) => Bucket {
                rows: s.rows(),
                ids: s.probe_ids(col, key),
            },
            RecStore::Agg(a) => Bucket {
                rows: a.rel.emitted(),
                ids: a.rel.probe_ids(col, key),
            },
        }
    }

    /// All current logical rows (scan).
    pub fn rows(&self) -> Vec<Tuple> {
        match self {
            RecStore::Set(s) => s.rows().to_vec(),
            RecStore::Agg(a) => a.rel.rows(),
        }
    }

    /// Consumes the store, yielding its logical rows; a set relation's
    /// rows move out without a copy.
    pub fn into_rows(self) -> Vec<Tuple> {
        match self {
            RecStore::Set(s) => s.into_rows(),
            RecStore::Agg(a) => a.rel.rows(),
        }
    }

    /// Streams the current logical rows without materializing a `Vec` —
    /// the evaluator's in-place IDB scan. Rows are borrowed straight from
    /// the arena, except a `sum` row, assembled with its running total.
    pub fn scan(&self) -> RecScan<'_> {
        match self {
            RecStore::Set(s) => RecScan::Set(s.scan()),
            RecStore::Agg(a) => RecScan::Agg(a.rel.scan()),
        }
    }
}

/// Streaming scan over a [`RecStore`]'s logical rows. `Cow` items let the
/// arenas lend their rows while a `sum` relation yields the rows it
/// assembles on the fly.
pub enum RecScan<'a> {
    /// Borrowed rows from a set relation.
    Set(std::slice::Iter<'a, Tuple>),
    /// Assembled rows from an aggregate relation.
    Agg(dcd_storage::AggScan<'a>),
}

impl<'a> Iterator for RecScan<'a> {
    type Item = std::borrow::Cow<'a, Tuple>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RecScan::Set(s) => s.next().map(std::borrow::Cow::Borrowed),
            RecScan::Agg(a) => a.next(),
        }
    }
}

fn to_storage_func(f: AggFunc) -> StAggFunc {
    match f {
        AggFunc::Min => StAggFunc::Min,
        AggFunc::Max => StAggFunc::Max,
        AggFunc::Sum => StAggFunc::Sum,
        AggFunc::Count => StAggFunc::Count,
    }
}

/// All per-worker storage.
pub struct WorkerStore {
    /// `edb[p]`: this worker's handle on base relation `p` — shared for
    /// replicated relations, a private slice for partitioned ones.
    pub edb: Vec<Option<Arc<SealedRelation>>>,
    /// `idb[p]`: this worker's store for derived relation `p`.
    pub idb: Vec<Option<RecStore>>,
}

impl WorkerStore {
    /// Builds the store for worker `me`: takes base-relation handles from
    /// the shared catalog and creates empty recursive stores. No EDB rows
    /// are copied and no indexes are built here — the catalog did both,
    /// exactly once.
    pub fn build(plan: &PhysicalPlan, catalog: &EdbCatalog, me: WorkerId, optimized: bool) -> Self {
        let edb = (0..plan.edb.len())
            .map(|id| catalog.for_worker(id, me))
            .collect();
        let idb = plan
            .idb
            .iter()
            .map(|d| d.as_ref().map(|d| RecStore::new(plan, d.id, optimized)))
            .collect();
        WorkerStore { edb, idb }
    }

    /// The base relation `rel` (panics if not EDB — planner bug).
    pub fn base(&self, rel: RelId) -> &SealedRelation {
        self.edb[rel].as_ref().expect("EDB relation present")
    }

    /// The derived store `rel`.
    pub fn rec(&self, rel: RelId) -> &RecStore {
        self.idb[rel].as_ref().expect("IDB relation present")
    }

    /// Mutable derived store `rel`.
    pub fn rec_mut(&mut self, rel: RelId) -> &mut RecStore {
        self.idb[rel].as_mut().expect("IDB relation present")
    }

    /// Probes `target` on `col == key`: the ids of the matching rows of a
    /// base or derived relation.
    #[inline]
    pub fn probe(&self, target: Target, col: usize, key: u64) -> Bucket<'_> {
        match target {
            Target::Edb(rel) => {
                let base = self.base(rel);
                Bucket {
                    rows: base.rows(),
                    ids: base.probe_ids(col, key),
                }
            }
            Target::Idb { rel, .. } => self.rec(rel).probe(col, key),
        }
    }
}

/// Convenience for tests: the canonical group value of a logical row.
pub fn row_group(row: &Tuple, group_cols: usize) -> &[Value] {
    &row.values()[..group_cols]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn tc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).").unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    fn cc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program(
                "cc2(Y, min<Y>) <- arc(Y, _).
                 cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).
                 cc(Y, min<Z>) <- cc2(Y, Z).",
            )
            .unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    #[test]
    fn set_store_merges_and_probes() {
        // Non-linear TC probes `tc` itself, so its store keeps postings.
        let a = analyze(
            parse_program("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), tc(Z, Y).").unwrap(),
        )
        .unwrap();
        let p = plan(&a, &PlannerConfig::default()).unwrap();
        let tc = p.rel_by_name("tc").unwrap();
        let col = p.idb[tc].as_ref().unwrap().index_cols[0];
        let mut s = RecStore::new(&p, tc, true);
        assert_eq!(
            s.merge(&Tuple::from_ints(&[1, 2])),
            Merged::New(Tuple::from_ints(&[1, 2]))
        );
        assert_eq!(s.merge(&Tuple::from_ints(&[1, 2])), Merged::Old);
        let hits = s.probe(col, Tuple::from_ints(&[1, 2]).key(col));
        assert_eq!(hits.ids, [0], "{hits:?}");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unprobed_set_store_keeps_merge_order() {
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut s = RecStore::new(&p, tc, true);
        let rows: Vec<Tuple> = (0..20i64).map(|i| Tuple::from_ints(&[i % 5, 0])).collect();
        let new = rows.iter().filter(|r| s.merge(r) != Merged::Old).count();
        assert_eq!(new, 5);
        assert_eq!(s.rows(), rows[..5]);
        assert_eq!(s.into_rows(), rows[..5]);
    }

    #[test]
    fn agg_store_improves_and_prunes() {
        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut s = RecStore::new(&p, cc2, true);
        assert!(matches!(
            s.merge(&Tuple::from_ints(&[5, 9])),
            Merged::New(_)
        ));
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 9])), Merged::Old);
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 10])), Merged::Old);
        match s.merge(&Tuple::from_ints(&[5, 3])) {
            Merged::New(row) => assert_eq!(row, Tuple::from_ints(&[5, 3])),
            other => panic!("expected improvement, got {other:?}"),
        }
        assert_eq!(s.rows(), vec![Tuple::from_ints(&[5, 3])]);
    }

    #[test]
    fn unoptimized_store_agrees_with_optimized() {
        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut fast = RecStore::new(&p, cc2, true);
        let mut slow = RecStore::new(&p, cc2, false);
        let rows = [[1i64, 7], [2, 5], [1, 3], [1, 9], [2, 2], [3, 3]];
        for r in rows {
            let t = Tuple::from_ints(&r);
            let a = fast.merge(&t);
            let b = slow.merge(&t);
            assert_eq!(
                matches!(a, Merged::New(_)),
                matches!(b, Merged::New(_)),
                "divergence on {t:?}"
            );
        }
        let mut fr = fast.rows();
        let mut sr = slow.rows();
        fr.sort();
        sr.sort();
        assert_eq!(fr, sr);
    }

    #[test]
    fn scan_streams_the_same_rows_as_rows() {
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut s = RecStore::new(&p, tc, true);
        for i in 0..50i64 {
            s.merge(&Tuple::from_ints(&[i % 7, i]));
        }
        let a = s.rows();
        let b: Vec<Tuple> = s.scan().map(|c| c.into_owned()).collect();
        assert_eq!(a, b);

        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut s = RecStore::new(&p, cc2, true);
        for i in 0..50i64 {
            s.merge(&Tuple::from_ints(&[i % 7, i]));
        }
        let a = s.rows();
        let b: Vec<Tuple> = s.scan().map(|c| c.into_owned()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_store_partitions_edb() {
        use dcd_common::Partitioner;
        let p = tc_plan();
        let arc = p.rel_by_name("arc").unwrap();
        let rows: Vec<Tuple> = (0..100).map(|i| Tuple::from_ints(&[i, i + 1])).collect();
        let mut edb_data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        edb_data[arc] = Some(rows.clone());
        let part = Partitioner::new(4);
        let catalog = EdbCatalog::build(&p, &edb_data, &part);
        let mut total = 0;
        for w in 0..4 {
            let ws = WorkerStore::build(&p, &catalog, w, true);
            total += ws.base(arc).len();
            // Index on column 0 was built (tc's rule probes arc on col 0).
            assert!(ws.base(arc).has_index(0));
            for r in ws.base(arc).rows() {
                assert_eq!(part.of_key(r.key(0)), w);
            }
        }
        assert_eq!(total, 100);
    }
}
