//! Property tests: [`AggRelation`] — the group arena behind a hashed
//! row-id table, with row-id postings — must behave exactly like a
//! `BTreeMap` model of its groups for `min`, `max`, `sum` and `count`.
//!
//! Logical rows have arity 1–6 (0–5 group columns plus the value), across
//! the `INLINE_ARITY` (= 4) boundary where tuples switch from inline to
//! spilled storage. Group values come from a small domain in both `Int`
//! and `Float` form, so one group receives rows such as `(3, …)` and
//! `(3.0, …)` that compare equal. Each stream starts from an empty
//! relation, so the group table grows in the middle of it. `sum`
//! contributions are multiples of 0.25, which `f64` adds exactly, and the
//! totals are compared within a tolerance all the same.
//!
//! The model keeps, per group, the last *emitted* value (what probes see)
//! and the current aggregate (what scans and `get` see); they differ for
//! a `sum` whose last moves stayed within ε.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Tuple, Value};
use dcd_storage::aggregate::MergeOutcome;
use dcd_storage::{AggFunc, AggRelation};
use std::collections::{BTreeMap, BTreeSet};

const FUNCS: [AggFunc; 4] = [AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Count];

/// A value from `0..n`, as an `Int` or as the `Float` equal to it.
fn small(n: i64) -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0..n).prop_map(Value::Int),
        1 => (0..n).prop_map(|v| Value::Float(v as f64)),
    ]
}

/// An aggregated value: integral (as `Int` or `Float`) or a multiple of
/// 0.25, possibly negative.
fn amount() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => small(30),
        1 => (-8i64..40).prop_map(|k| Value::Float(k as f64 * 0.25)),
    ]
}

/// One incoming partial row: `(group, contributor, value)`.
type Op = (Vec<Value>, Value, Value);

/// `(function, group columns, ε, rows)`.
fn input() -> impl Strategy<Value = (usize, usize, f64, Vec<Op>)> {
    (0usize..4, 0usize..=5, 0usize..2).prop_flat_map(|(f, g, e)| {
        proptest::collection::vec(
            (
                proptest::collection::vec(small(4), g..=g),
                small(6),
                amount(),
            ),
            0..300,
        )
        .prop_map(move |ops| (f, g, [0.0, 0.3][e], ops))
    })
}

/// The merge-layout row the planner would produce for `op`.
fn merge_row(func: AggFunc, (group, contributor, value): &Op) -> Tuple {
    let mut vals = group.clone();
    match func {
        AggFunc::Min | AggFunc::Max => vals.push(*value),
        AggFunc::Count => vals.push(*contributor),
        AggFunc::Sum => vals.extend([*contributor, *value]),
    }
    Tuple::new(&vals)
}

fn row(group: &[Value], value: Value) -> Tuple {
    let mut vals = group.to_vec();
    vals.push(value);
    Tuple::new(&vals)
}

struct Group {
    /// The last value `merge` reported.
    emitted: Value,
    /// Contributor → its latest contribution (`sum`/`count`).
    contribs: BTreeMap<Value, f64>,
    total: f64,
}

struct Model {
    func: AggFunc,
    eps: f64,
    groups: BTreeMap<Vec<Value>, Group>,
}

impl Model {
    /// Merges `op`; returns the new emitted value, if any.
    fn merge(&mut self, (group, contributor, value): &Op) -> Option<Value> {
        let (func, eps) = (self.func, self.eps);
        let v = value.as_f64();
        let Some(g) = self.groups.get_mut(group) else {
            let (emitted, total) = match func {
                AggFunc::Min | AggFunc::Max => (*value, 0.0),
                AggFunc::Count => (Value::Int(1), 1.0),
                AggFunc::Sum => (Value::Float(v), v),
            };
            let contribs = BTreeMap::from([(*contributor, v)]);
            let g = Group {
                emitted,
                contribs,
                total,
            };
            self.groups.insert(group.clone(), g);
            return Some(emitted);
        };
        let new = match func {
            AggFunc::Min => (*value < g.emitted).then_some(*value),
            AggFunc::Max => (*value > g.emitted).then_some(*value),
            AggFunc::Count => g
                .contribs
                .insert(*contributor, 1.0)
                .is_none()
                .then_some(Value::Int(g.contribs.len() as i64)),
            AggFunc::Sum => {
                let old = g.contribs.insert(*contributor, v).unwrap_or(0.0);
                g.total += v - old;
                ((g.total - g.emitted.as_f64()).abs() > eps).then_some(Value::Float(g.total))
            }
        };
        if let Some(n) = new {
            g.emitted = n;
        }
        new
    }

    /// Every group's current row (what scans see), sorted.
    fn current(&self) -> Vec<Tuple> {
        self.groups
            .iter()
            .map(|(k, g)| match self.func {
                AggFunc::Sum => row(k, Value::Float(g.total)),
                _ => row(k, g.emitted),
            })
            .collect()
    }

    /// Every group's emitted row (what probes see), sorted.
    fn emitted(&self) -> Vec<Tuple> {
        self.groups.iter().map(|(k, g)| row(k, g.emitted)).collect()
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Equal group columns and aggregate values within `1e-9`.
fn close(a: &[Tuple], b: &[Tuple]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let (x, y) = (x.values(), y.values());
            let n = x.len() - 1;
            x.len() == y.len() && x[..n] == y[..n] && (x[n].as_f64() - y[n].as_f64()).abs() < 1e-9
        })
}

/// Checks every read path of `rel` against `model`.
fn check(rel: &AggRelation, model: &Model, g: usize) {
    prop_assert_eq!(rel.len(), model.groups.len());
    let scanned: Vec<Tuple> = rel.scan().map(|r| r.into_owned()).collect();
    prop_assert_eq!(&scanned, &rel.rows());
    let want = model.current();
    prop_assert!(close(&sorted(scanned), &want), "scan vs model");
    for t in &want {
        let got = rel.get(&Tuple::new(&t.values()[..g]));
        let v = t.values()[g].as_f64();
        prop_assert!(
            got.is_some_and(|got| (got.as_f64() - v).abs() < 1e-9),
            "get {:?}: {:?}",
            t,
            got
        );
    }
    let emitted = model.emitted();
    prop_assert_eq!(sorted(rel.emitted().to_vec()), emitted.clone());

    // A posting list holds exactly the ids of the emitted rows with its
    // key, each once, on every column including the value.
    for col in 0..=g {
        let keys: BTreeSet<u64> = emitted
            .iter()
            .map(|t| t.key(col))
            .chain([Value::Int(99).key_bits()])
            .collect();
        for key in keys {
            let ids = rel.probe_ids(col, key);
            let mut unique = ids.to_vec();
            unique.sort();
            unique.dedup();
            prop_assert_eq!(unique.len(), ids.len(), "repeated id, col {}", col);
            let got: Vec<Tuple> = ids
                .iter()
                .map(|&id| rel.emitted()[id as usize].clone())
                .collect();
            let expect: Vec<Tuple> = emitted
                .iter()
                .filter(|t| t.key(col) == key)
                .cloned()
                .collect();
            prop_assert_eq!(sorted(got), expect, "col {} key {}", col, key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merges_agree_with_the_model((f, g, eps, ops) in input()) {
        let func = FUNCS[f];
        let cols: Vec<usize> = (0..=g).collect();
        let mut rel = AggRelation::with_index_cols(func, g, eps, &cols);
        let mut model = Model { func, eps, groups: BTreeMap::new() };
        for (i, op) in ops.iter().enumerate() {
            let want = model.merge(op).map(|v| row(&op.0, v));
            let got = match rel.merge(&merge_row(func, op)) {
                MergeOutcome::Updated(t) => Some(t),
                MergeOutcome::Unchanged => None,
            };
            prop_assert_eq!(got, want, "merge {} of {:?}", i, op);
            if i % 64 == 63 {
                check(&rel, &model, g);
            }
        }
        check(&rel, &model, g);
        if g > 0 {
            let absent = vec![Value::Int(7); g];
            prop_assert_eq!(rel.get(&Tuple::new(&absent)), None);
        }
    }
}

#[test]
fn sum_probes_see_the_emitted_row_and_scans_the_total() {
    let mut rel = AggRelation::with_index_cols(AggFunc::Sum, 1, 0.3, &[0, 1]);
    let sum = |c: i64, v: f64| Tuple::new(&[Value::Int(1), Value::Int(c), Value::Float(v)]);
    rel.merge(&sum(7, 1.0));
    assert_eq!(rel.merge(&sum(8, 0.25)), MergeOutcome::Unchanged);
    let probed: Vec<&Tuple> = rel
        .probe_ids(0, Value::Int(1).key_bits())
        .iter()
        .map(|&id| &rel.emitted()[id as usize])
        .collect();
    assert_eq!(probed, [&Tuple::new(&[Value::Int(1), Value::Float(1.0)])]);
    assert_eq!(rel.probe_ids(1, Value::Float(1.0).key_bits()), [0]);
    let total = Tuple::new(&[Value::Int(1), Value::Float(1.25)]);
    assert_eq!(rel.rows(), std::slice::from_ref(&total));
    assert_eq!(rel.scan().next().unwrap().into_owned(), total);
    assert_eq!(rel.get(&Tuple::from_ints(&[1])), Some(Value::Float(1.25)));
    // The next move past ε is emitted, and the value posting follows it.
    assert!(matches!(rel.merge(&sum(9, 0.25)), MergeOutcome::Updated(_)));
    assert!(rel.probe_ids(1, Value::Float(1.0).key_bits()).is_empty());
    assert_eq!(rel.probe_ids(1, Value::Float(1.5).key_bits()), [0]);
}
