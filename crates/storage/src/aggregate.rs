//! Aggregates-in-recursion storage (§6.2.1).
//!
//! The paper stores aggregate information *inside the index* so the Gather
//! operator merges partial aggregates by index lookup instead of a linear
//! scan. Here the index is a [`RowTable`] keyed on the group-by columns
//! over an append-only arena of logical rows `(group…, value)`: a merge
//! finds its group with one hashed lookup and updates the group's row in
//! place, and a group's row id never changes.
//!
//! * `min`/`max` — the row holds the current extremum; a merge emits a
//!   delta only when the extremum improves. This is DeALS-style monotonic
//!   aggregation, so the fixpoint is exact.
//! * `sum`/`count` — the paper's second index ("on the attribute value
//!   that is incrementally computed") is one contributor map keyed by
//!   `(row id, contributor)`: a re-contribution from the same source
//!   *replaces* its previous value rather than double-counting. A side
//!   vector indexed by row id holds each `sum` group's running total.
//!   `sum` deltas fire when the total moves by more than a caller-chosen ε
//!   from the last emitted value (PageRank's convergence test); `count`
//!   deltas fire whenever the number of distinct contributors grows.
//!
//! Visibility: a group's arena row is its last *emitted* row, and that is
//! what index probes see ([`AggRelation::probe_ids`] resolved against
//! [`AggRelation::emitted`]). Scans, [`AggRelation::get`] and
//! [`AggRelation::rows`] see the current aggregate, which for `sum` can
//! differ from the emitted one by up to ε.

use crate::table::{next_row_id, Postings, RowTable};
use dcd_common::hash::FastMap;
use dcd_common::{Tuple, Value};
use std::borrow::Cow;

/// The four aggregate functions supported in recursive rule heads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Monotonically decreasing extremum.
    Min,
    /// Monotonically increasing extremum.
    Max,
    /// Monotonic sum over distinct contributors (contributions may be
    /// revised; the total converges under damping).
    Sum,
    /// Count of distinct contributors.
    Count,
}

/// A recursive relation whose head carries an aggregate.
///
/// Tuples entering [`AggRelation::merge`] are laid out by the planner as
/// `(group columns…, [contributor,] aggregated value)`; the relation's
/// logical rows are `(group columns…, aggregate value)`.
pub struct AggRelation {
    func: AggFunc,
    /// Number of leading group-by columns.
    group_cols: usize,
    /// ε for `sum` delta emission (0 ⇒ emit on any change).
    epsilon: f64,
    /// Each group's last emitted logical row; a group's id is its index.
    rows: Vec<Tuple>,
    /// Group columns → row id.
    groups: RowTable,
    /// `sum`/`count`: `(row id, contributor key) → latest contribution`.
    contribs: FastMap<(u32, u64), f64>,
    /// `sum` only: each group's running total, indexed by row id.
    totals: Vec<f64>,
    /// One row-id posting list per probed column.
    postings: Postings,
    /// Whether a posting list covers the aggregate value column, so an
    /// update must move the row between lists.
    value_indexed: bool,
}

/// Outcome of merging one partial-aggregate tuple.
#[derive(Debug, PartialEq)]
pub enum MergeOutcome {
    /// The group's aggregate changed; the new logical row should enter the
    /// delta relation.
    Updated(Tuple),
    /// No improvement/change — tuple absorbed silently.
    Unchanged,
}

impl AggRelation {
    /// Creates an aggregate relation with no probe index.
    ///
    /// * `group_cols` — number of leading group-by columns of incoming
    ///   tuples.
    /// * `epsilon` — minimum total movement for a `sum` delta (ignored for
    ///   other functions).
    pub fn new(func: AggFunc, group_cols: usize, epsilon: f64) -> Self {
        Self::with_index_cols(func, group_cols, epsilon, &[])
    }

    /// Creates an aggregate relation with a row-id posting list on each of
    /// `cols` (columns of the logical rows; `group_cols` is the value).
    pub fn with_index_cols(func: AggFunc, group_cols: usize, epsilon: f64, cols: &[usize]) -> Self {
        AggRelation {
            func,
            group_cols,
            epsilon,
            rows: Vec::new(),
            groups: RowTable::new(group_cols),
            contribs: FastMap::default(),
            totals: Vec::new(),
            postings: Postings::new(cols),
            value_indexed: cols.iter().any(|&c| c >= group_cols),
        }
    }

    /// The aggregate function.
    #[inline]
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of leading group-by columns.
    #[inline]
    pub fn group_cols(&self) -> usize {
        self.group_cols
    }

    /// Number of groups materialized so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no group exists yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Each group's last emitted logical row, indexed by row id: what
    /// index probes see.
    #[inline]
    pub fn emitted(&self) -> &[Tuple] {
        &self.rows
    }

    /// Ids of the groups whose emitted row has key bits `key` in `col`
    /// (empty when none). Panics if no posting list covers `col`.
    #[inline]
    pub fn probe_ids(&self, col: usize, key: u64) -> &[u32] {
        self.postings.ids(col, key)
    }

    /// Current aggregate value for the group-by prefix of `probe`
    /// (`probe` needs only `group_cols` leading columns).
    pub fn get(&self, probe: &Tuple) -> Option<Value> {
        let key = probe.values();
        let h = self.groups.hash(key);
        let rows = &self.rows;
        let slot = self
            .groups
            .find(h, key, |id| rows[id as usize].values())
            .ok()?;
        let id = self.groups.id(slot) as usize;
        Some(match self.totals.get(id) {
            Some(&total) => Value::Float(total),
            None => rows[id].values()[self.group_cols],
        })
    }

    /// Merges one incoming partial tuple
    /// (`(group…, value)` for min/max; `(group…, contributor, value)` for
    /// sum/count).
    pub fn merge(&mut self, t: &Tuple) -> MergeOutcome {
        let g = self.group_cols;
        let vals = t.values();
        self.groups.reserve(1);
        let h = self.groups.hash(vals);
        let rows = &self.rows;
        match self.groups.find(h, vals, |id| rows[id as usize].values()) {
            Err(slot) => {
                let id = next_row_id(self.rows.len());
                let value = match self.func {
                    AggFunc::Min | AggFunc::Max => vals[g],
                    AggFunc::Count => {
                        self.contribs.insert((id, vals[g].key_bits()), 1.0);
                        Value::Int(1)
                    }
                    AggFunc::Sum => {
                        let v = vals[g + 1].as_f64();
                        self.contribs.insert((id, vals[g].key_bits()), v);
                        self.totals.push(v);
                        Value::Float(v)
                    }
                };
                let row = Tuple::from_exact_iter(g + 1, vals[..g].iter().copied().chain([value]));
                self.groups.insert(slot, h, id);
                self.postings.add(id, row.values());
                self.rows.push(row.clone());
                MergeOutcome::Updated(row)
            }
            Ok(slot) => {
                let id = self.groups.id(slot);
                let cur = rows[id as usize].values()[g];
                let new = match self.func {
                    AggFunc::Min => Some(vals[g]).filter(|&v| v < cur),
                    AggFunc::Max => Some(vals[g]).filter(|&v| v > cur),
                    AggFunc::Count => {
                        let fresh = self.contribs.insert((id, vals[g].key_bits()), 1.0);
                        fresh.is_none().then(|| Value::Int(cur.expect_int() + 1))
                    }
                    AggFunc::Sum => {
                        let v = vals[g + 1].as_f64();
                        let old = self.contribs.insert((id, vals[g].key_bits()), v);
                        let total = &mut self.totals[id as usize];
                        *total += v - old.unwrap_or(0.0);
                        ((*total - cur.as_f64()).abs() > self.epsilon)
                            .then_some(Value::Float(*total))
                    }
                };
                match new {
                    Some(v) => MergeOutcome::Updated(self.set_value(id, v)),
                    None => MergeOutcome::Unchanged,
                }
            }
        }
    }

    /// Makes `v` group `id`'s emitted value; returns the updated row.
    fn set_value(&mut self, id: u32, v: Value) -> Tuple {
        let g = self.group_cols;
        let row = &mut self.rows[id as usize];
        if self.value_indexed {
            let old = row.clone();
            row.values_mut()[g] = v;
            self.postings.refile(id, old.values(), row.values());
        } else {
            row.values_mut()[g] = v;
        }
        row.clone()
    }

    /// Streams the logical rows `(group…, current aggregate value)` in
    /// group-creation order. The iterator type is nameable, so callers can
    /// hold it in their own enums (the evaluator's in-place IDB scans).
    pub fn scan(&self) -> AggScan<'_> {
        AggScan {
            rows: self.rows.iter(),
            totals: self.totals.iter(),
            group_cols: self.group_cols,
        }
    }

    /// Collects all logical rows.
    pub fn rows(&self) -> Vec<Tuple> {
        self.scan().map(Cow::into_owned).collect()
    }
}

/// Scan over an [`AggRelation`]'s logical rows. A row whose emitted value
/// is current is lent from the arena; a `sum` row is assembled with its
/// running total.
pub struct AggScan<'a> {
    rows: std::slice::Iter<'a, Tuple>,
    /// Running totals beside `rows` (`sum` only; empty otherwise).
    totals: std::slice::Iter<'a, f64>,
    group_cols: usize,
}

impl<'a> Iterator for AggScan<'a> {
    type Item = Cow<'a, Tuple>;

    #[inline]
    fn next(&mut self) -> Option<Cow<'a, Tuple>> {
        let row = self.rows.next()?;
        Some(match self.totals.next() {
            Some(&total) => {
                let mut row = row.clone();
                row.values_mut()[self.group_cols] = Value::Float(total);
                Cow::Owned(row)
            }
            None => Cow::Borrowed(row),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_keeps_smallest_and_reports_updates() {
        let mut r = AggRelation::new(AggFunc::Min, 1, 0.0);
        assert_eq!(
            r.merge(&Tuple::from_ints(&[1, 10])),
            MergeOutcome::Updated(Tuple::from_ints(&[1, 10]))
        );
        assert_eq!(
            r.merge(&Tuple::from_ints(&[1, 12])),
            MergeOutcome::Unchanged
        );
        assert_eq!(
            r.merge(&Tuple::from_ints(&[1, 7])),
            MergeOutcome::Updated(Tuple::from_ints(&[1, 7]))
        );
        assert_eq!(r.get(&Tuple::from_ints(&[1])), Some(Value::Int(7)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn max_mirror_of_min() {
        let mut r = AggRelation::new(AggFunc::Max, 1, 0.0);
        r.merge(&Tuple::from_ints(&[5, 1]));
        assert_eq!(r.merge(&Tuple::from_ints(&[5, 0])), MergeOutcome::Unchanged);
        assert!(matches!(
            r.merge(&Tuple::from_ints(&[5, 9])),
            MergeOutcome::Updated(_)
        ));
        assert_eq!(r.get(&Tuple::from_ints(&[5])), Some(Value::Int(9)));
    }

    #[test]
    fn multi_column_groups() {
        // APSP: group = (A, B), min distance.
        let mut r = AggRelation::new(AggFunc::Min, 2, 0.0);
        r.merge(&Tuple::from_ints(&[1, 2, 30]));
        r.merge(&Tuple::from_ints(&[1, 3, 40]));
        r.merge(&Tuple::from_ints(&[1, 2, 25]));
        assert_eq!(r.get(&Tuple::from_ints(&[1, 2])), Some(Value::Int(25)));
        assert_eq!(r.get(&Tuple::from_ints(&[1, 3])), Some(Value::Int(40)));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn count_counts_distinct_contributors() {
        // Attend: cnt(Y, count<X>).
        let mut r = AggRelation::new(AggFunc::Count, 1, 0.0);
        assert_eq!(
            r.merge(&Tuple::from_ints(&[1, 100])),
            MergeOutcome::Updated(Tuple::from_ints(&[1, 1]))
        );
        // Same contributor again: no change.
        assert_eq!(
            r.merge(&Tuple::from_ints(&[1, 100])),
            MergeOutcome::Unchanged
        );
        assert_eq!(
            r.merge(&Tuple::from_ints(&[1, 101])),
            MergeOutcome::Updated(Tuple::from_ints(&[1, 2]))
        );
        assert_eq!(r.get(&Tuple::from_ints(&[1])), Some(Value::Int(2)));
    }

    #[test]
    fn sum_replaces_contributions() {
        // PageRank-style: rank(X, sum<(Y, K)>).
        let mut r = AggRelation::new(AggFunc::Sum, 1, 0.0);
        r.merge(&Tuple::new(&[
            Value::Int(1),
            Value::Int(7),
            Value::Float(0.5),
        ]));
        r.merge(&Tuple::new(&[
            Value::Int(1),
            Value::Int(8),
            Value::Float(0.25),
        ]));
        assert_eq!(r.get(&Tuple::from_ints(&[1])), Some(Value::Float(0.75)));
        // Contributor 7 revises its contribution: replaced, not added.
        let out = r.merge(&Tuple::new(&[
            Value::Int(1),
            Value::Int(7),
            Value::Float(0.1),
        ]));
        assert!(matches!(out, MergeOutcome::Updated(_)));
        let v = r.get(&Tuple::from_ints(&[1])).unwrap().as_f64();
        assert!((v - 0.35).abs() < 1e-12);
    }

    #[test]
    fn sum_epsilon_suppresses_tiny_deltas() {
        let mut r = AggRelation::new(AggFunc::Sum, 1, 0.1);
        let first = r.merge(&Tuple::new(&[
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.0),
        ]));
        assert!(matches!(first, MergeOutcome::Updated(_)));
        // Moves the total by 0.05 < ε: suppressed.
        let tiny = r.merge(&Tuple::new(&[
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.05),
        ]));
        assert_eq!(tiny, MergeOutcome::Unchanged);
        // Moves it by 0.95 > ε from last emission: fires.
        let big = r.merge(&Tuple::new(&[
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.95),
        ]));
        assert!(matches!(big, MergeOutcome::Updated(_)));
    }

    #[test]
    fn rows_reflect_current_aggregates() {
        let mut r = AggRelation::new(AggFunc::Min, 1, 0.0);
        r.merge(&Tuple::from_ints(&[1, 10]));
        r.merge(&Tuple::from_ints(&[2, 20]));
        r.merge(&Tuple::from_ints(&[1, 5]));
        let mut rows = r.rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![Tuple::from_ints(&[1, 5]), Tuple::from_ints(&[2, 20])]
        );
    }

    #[test]
    fn scan_agrees_with_rows() {
        let mut r = AggRelation::new(AggFunc::Min, 1, 0.0);
        for i in 0..100i64 {
            r.merge(&Tuple::from_ints(&[i % 13, i]));
        }
        let a = r.rows();
        let b: Vec<Tuple> = r.scan().map(Cow::into_owned).collect();
        assert_eq!(a, b);
        assert_eq!(a, r.emitted());
        assert!(AggRelation::new(AggFunc::Min, 1, 0.0)
            .scan()
            .next()
            .is_none());
    }

    #[test]
    fn probes_see_the_emitted_sum_and_scans_the_total() {
        let mut r = AggRelation::with_index_cols(AggFunc::Sum, 1, 0.5, &[0]);
        let row = |c: i64, v: f64| Tuple::new(&[Value::Int(1), Value::Int(c), Value::Float(v)]);
        assert!(matches!(r.merge(&row(7, 1.0)), MergeOutcome::Updated(_)));
        // +0.25 is within ε: absorbed, so probes keep seeing 1.0.
        assert_eq!(r.merge(&row(8, 0.25)), MergeOutcome::Unchanged);
        let ids = r.probe_ids(0, Value::Int(1).key_bits());
        assert_eq!(ids, [0]);
        assert_eq!(r.emitted()[0].values()[1], Value::Float(1.0));
        assert_eq!(r.get(&Tuple::from_ints(&[1])), Some(Value::Float(1.25)));
        assert_eq!(r.rows()[0].values()[1], Value::Float(1.25));
    }

    #[test]
    fn value_postings_follow_updates() {
        let mut r = AggRelation::with_index_cols(AggFunc::Min, 1, 0.0, &[1]);
        r.merge(&Tuple::from_ints(&[1, 9]));
        r.merge(&Tuple::from_ints(&[2, 9]));
        r.merge(&Tuple::from_ints(&[1, 4]));
        let ids = |r: &AggRelation, v: i64| {
            let mut ids = r.probe_ids(1, Value::Int(v).key_bits()).to_vec();
            ids.sort();
            ids
        };
        assert_eq!(ids(&r, 9), [1]);
        assert_eq!(ids(&r, 4), [0]);
        r.merge(&Tuple::from_ints(&[2, 4]));
        assert!(ids(&r, 9).is_empty());
        assert_eq!(ids(&r, 4), [0, 1]);
    }

    #[test]
    fn get_on_missing_group() {
        let r = AggRelation::new(AggFunc::Min, 1, 0.0);
        assert_eq!(r.get(&Tuple::from_ints(&[42])), None);
    }
}
