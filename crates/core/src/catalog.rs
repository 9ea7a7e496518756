//! The shared, immutable EDB catalog: base data built exactly once.
//!
//! Before workers spawn, the engine turns the loaded EDB into an
//! [`EdbCatalog`]: for every replicated relation one
//! `Arc<SealedRelation>` — rows *and* hash indexes — shared by every
//! worker, and for every partitioned relation one sealed slice per worker.
//! This replaces the seed design where each worker copied every replicated
//! relation (`rows.to_vec()`) and rebuilt its indexes privately, which made
//! replicated-EDB residency O(workers); with the catalog it is O(1), and
//! catalog construction happens off the evaluation clock.

use dcd_common::{Partitioner, Tuple, WorkerId};
use dcd_frontend::physical::{PhysicalPlan, Placement, RelId};
use dcd_storage::SealedRelation;
use std::sync::Arc;

/// How one base relation is materialized.
enum CatalogEntry {
    /// One shared copy (rows + indexes) for all workers.
    Replicated(Arc<SealedRelation>),
    /// One sealed slice per worker, by `H(row[col])`.
    Partitioned(Vec<Arc<SealedRelation>>),
}

/// All base relations of one evaluation, sealed and placement-resolved.
pub struct EdbCatalog {
    rels: Vec<Option<CatalogEntry>>,
    workers: usize,
}

impl EdbCatalog {
    /// Seals every loaded base relation per the plan's placement.
    pub fn build(plan: &PhysicalPlan, edb_data: &[Option<Vec<Tuple>>], part: &Partitioner) -> Self {
        let rels = plan
            .edb
            .iter()
            .map(|decl| {
                let d = decl.as_ref()?;
                let rows = edb_data[d.id].as_deref().unwrap_or(&[]);
                Some(match d.placement {
                    Placement::Replicated => CatalogEntry::Replicated(Arc::new(
                        SealedRelation::build(rows.to_vec(), &d.index_cols),
                    )),
                    Placement::Partitioned(c) => CatalogEntry::Partitioned(
                        SealedRelation::partition_rows(rows, part, c)
                            .into_iter()
                            .map(|slice| Arc::new(SealedRelation::build(slice, &d.index_cols)))
                            .collect(),
                    ),
                })
            })
            .collect();
        EdbCatalog {
            rels,
            workers: part.partitions(),
        }
    }

    /// Number of worker slots the catalog was partitioned for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The sealed relation worker `me` reads for `rel` (`None` for IDB
    /// slots). Replicated relations hand out clones of the same `Arc`.
    pub fn for_worker(&self, rel: RelId, me: WorkerId) -> Option<Arc<SealedRelation>> {
        match self.rels.get(rel)?.as_ref()? {
            CatalogEntry::Replicated(shared) => Some(Arc::clone(shared)),
            CatalogEntry::Partitioned(slices) => Some(Arc::clone(&slices[me])),
        }
    }

    /// Resident bytes of all replicated relations — counted once, because
    /// they exist once regardless of worker count.
    pub fn replicated_bytes(&self) -> u64 {
        self.rels
            .iter()
            .flatten()
            .map(|e| match e {
                CatalogEntry::Replicated(r) => r.resident_bytes(),
                CatalogEntry::Partitioned(_) => 0,
            })
            .sum()
    }

    /// Resident bytes of the partitioned slices held for worker `me` —
    /// the EDB storage unique to that worker.
    pub fn partitioned_bytes(&self, me: WorkerId) -> u64 {
        self.rels
            .iter()
            .flatten()
            .map(|e| match e {
                CatalogEntry::Replicated(_) => 0,
                CatalogEntry::Partitioned(slices) => slices[me].resident_bytes(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn plan_for(src: &str) -> PhysicalPlan {
        plan(
            &analyze(parse_program(src).unwrap()).unwrap(),
            &PlannerConfig::default(),
        )
        .unwrap()
    }

    /// TC partitions `arc` on column 0; SG replicates it (two probe keys).
    const TC: &str = "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).";
    const SG: &str = "sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.
                      sg(X, Y) <- arc(A, X), sg(A, B), arc(B, Y).";

    fn arcs(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::from_ints(&[i, i + 1])).collect()
    }

    fn catalog_for(src: &str, workers: usize, rows: Vec<Tuple>) -> (PhysicalPlan, EdbCatalog) {
        let p = plan_for(src);
        let arc = p.rel_by_name("arc").unwrap();
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        data[arc] = Some(rows);
        let cat = EdbCatalog::build(&p, &data, &Partitioner::new(workers));
        (p, cat)
    }

    #[test]
    fn replicated_relations_share_one_allocation() {
        let (p, cat) = catalog_for(SG, 4, arcs(50));
        let arc = p.rel_by_name("arc").unwrap();
        let a = cat.for_worker(arc, 0).unwrap();
        let b = cat.for_worker(arc, 3).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same Arc handed to every worker");
        assert_eq!(a.len(), 50);
        assert!(cat.replicated_bytes() > 0);
        assert_eq!(cat.partitioned_bytes(0), 0);
    }

    #[test]
    fn replicated_bytes_do_not_scale_with_workers() {
        let (_, cat1) = catalog_for(SG, 1, arcs(50));
        let (_, cat4) = catalog_for(SG, 4, arcs(50));
        assert_eq!(cat1.replicated_bytes(), cat4.replicated_bytes());
    }

    #[test]
    fn partitioned_relations_split_rows_exhaustively() {
        let (p, cat) = catalog_for(TC, 4, arcs(100));
        let arc = p.rel_by_name("arc").unwrap();
        let part = Partitioner::new(4);
        let mut total = 0;
        for w in 0..4 {
            let slice = cat.for_worker(arc, w).unwrap();
            total += slice.len();
            for row in slice.rows() {
                assert_eq!(part.of_key(row.key(0)), w);
            }
            assert!(cat.partitioned_bytes(w) > 0 || slice.is_empty());
        }
        assert_eq!(total, 100);
        assert_eq!(cat.replicated_bytes(), 0);
    }

    #[test]
    fn idb_slots_are_absent() {
        let (p, cat) = catalog_for(TC, 2, arcs(10));
        let tc = p.rel_by_name("tc").unwrap();
        assert!(cat.for_worker(tc, 0).is_none());
    }
}
