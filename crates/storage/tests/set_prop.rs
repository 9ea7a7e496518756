//! Property tests: [`SetRelation`] — the append-only row arena with a
//! hashed row-id membership table and row-id postings — must behave
//! exactly like a `BTreeSet<Tuple>` model, whether rows arrive one at a
//! time through `insert` or in groups through `insert_batch`.
//!
//! Rows have arity 0–6, across the `INLINE_ARITY` (= 4) boundary where
//! tuples switch from inline to spilled storage. Values come from a
//! small domain in both `Int` and `Float` form, so the streams are full
//! of repeats, including repeats within one batch and rows such as
//! `(3, 1)` and `(3.0, 1)` that compare equal. Batches of up to 100 rows
//! start from an empty relation, so the membership table grows in the
//! middle of a batch.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Tuple, Value};
use dcd_storage::SetRelation;
use std::collections::BTreeSet;

/// A value from `0..6`, as an `Int` or as the `Float` equal to it.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..6).prop_map(Value::Int),
        1 => (0i64..6).prop_map(|v| Value::Float(v as f64)),
    ]
}

/// `(arity, rows, batch sizes)`: the rows are split into consecutive
/// batches of the given sizes, cycling through the list.
fn input() -> impl Strategy<Value = (usize, Vec<Tuple>, Vec<usize>)> {
    (0usize..=6).prop_flat_map(|arity| {
        (
            proptest::collection::vec(
                proptest::collection::vec(value_strategy(), arity..=arity),
                0..300,
            ),
            proptest::collection::vec(1usize..100, 1..6),
        )
            .prop_map(move |(rows, sizes)| {
                let rows = rows.iter().map(|r| Tuple::new(r)).collect();
                (arity, rows, sizes)
            })
    })
}

/// A relation with a posting list on every column.
fn indexed(arity: usize) -> SetRelation {
    SetRelation::with_index_cols(&(0..arity).collect::<Vec<_>>())
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn insert_and_insert_batch_agree_with_the_model((arity, rows, sizes) in input()) {
        let mut model = BTreeSet::new();
        let mut one = indexed(arity);
        let mut new_one = Vec::new();
        for row in &rows {
            prop_assert_eq!(one.contains(row), model.contains(row), "contains {:?}", row);
            let new = one.insert(row.clone());
            prop_assert_eq!(new, model.insert(row.clone()), "insert vs model on {:?}", row);
            if new {
                new_one.push(row.clone());
            }
            prop_assert!(one.contains(row));
        }

        let mut batched = indexed(arity);
        let mut new_batched = Vec::new();
        let mut start = 0;
        for &size in sizes.iter().cycle() {
            if start >= rows.len() {
                break;
            }
            let end = rows.len().min(start + size);
            let n = batched.insert_batch(&rows[start..end]);
            new_batched.extend_from_slice(&batched.rows()[batched.len() - n..]);
            start = end;
        }
        // The same rows are new, in the same order, and the arenas match.
        prop_assert_eq!(&new_batched, &new_one);
        prop_assert_eq!(batched.rows(), one.rows());
        prop_assert_eq!(batched.len(), model.len());

        // Every row exactly once: as many rows as the model, and equal to
        // it once sorted.
        let want: Vec<Tuple> = model.iter().cloned().collect();
        let scanned: Vec<Tuple> = batched.scan().cloned().collect();
        prop_assert_eq!(scanned.len(), want.len());
        prop_assert_eq!(sorted(scanned), want.clone());

        // A probe returns exactly the model's rows with that key.
        for col in 0..arity {
            for key in (0i64..7).map(|k| Value::Int(k).key_bits()) {
                let got: Vec<Tuple> = batched
                    .probe_ids(col, key)
                    .iter()
                    .map(|&id| batched.rows()[id as usize].clone())
                    .collect();
                let expect: Vec<Tuple> =
                    want.iter().filter(|t| t.key(col) == key).cloned().collect();
                prop_assert_eq!(sorted(got), expect, "col {} key {}", col, key);
            }
        }

        prop_assert_eq!(sorted(batched.into_rows()), want);
    }

    #[test]
    fn borrowed_batches_match_owned_ones((arity, rows, _sizes) in input()) {
        let mut owned = SetRelation::with_index_cols(&[]);
        let mut borrowed = SetRelation::with_index_cols(&[]);
        let refs: Vec<&Tuple> = rows.iter().collect();
        prop_assert_eq!(owned.insert_batch(&rows), borrowed.insert_batch(&refs));
        prop_assert_eq!(owned.rows(), borrowed.rows());
        // A second pass finds nothing new.
        prop_assert_eq!(borrowed.insert_batch(&refs), 0);
        prop_assert!(arity > 0 || owned.len() <= 1);
    }
}
