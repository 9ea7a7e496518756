//! Microbenchmark: the set-relation merge and its probe index.
//!
//! Workload: the duplicate-heavy merge stream of semi-naive transitive
//! closure on an RMAT-512 graph (the size of the benchmark's `tc-rmat` inputs) — every head row the delta rule derives,
//! iteration by iteration, in derivation order (most are duplicates of
//! rows already merged). Cases:
//!
//! * `insert` / `insert_batch` — the stream through
//!   [`SetRelation::insert`] one row at a time, and through
//!   [`SetRelation::insert_batch`] in the engine's flush-sized groups;
//! * `tuple_cache_then_batch` — the same batches behind a §6.2.2
//!   existence cache ([`TupleCache`]), the design the arena replaced;
//! * `hash_postings_*` — building the row-id posting lists of one probed
//!   column, and probing every key.
//!
//! Every case's result is asserted equal to the others' before anything
//! is timed.
//!
//! Run with `cargo bench -p dcd-bench --bench set_merge`; pass
//! `--json PATH` for machine-readable results.

use dcd_bench::microbench::Harness;
use dcd_common::hash::{FastMap, FastSet};
use dcd_common::Tuple;
use dcd_storage::{SetRelation, TupleCache};
use std::hint::black_box;

const VERTICES: usize = 512;
/// Rows per `insert_batch` call: the engine's Distribute flush size.
const FLUSH_ROWS: usize = 1 << 15;

/// Semi-naive TC's head rows, in derivation order.
fn tc_merge_stream() -> Vec<Tuple> {
    let arcs = dcd_datagen::rmat(VERTICES, 7);
    let mut out: FastMap<i64, Vec<i64>> = FastMap::default();
    for &(a, b) in &arcs {
        out.entry(a).or_default().push(b);
    }
    let mut seen: FastSet<(i64, i64)> = FastSet::default();
    let mut stream = Vec::new();
    let mut delta: Vec<(i64, i64)> = arcs.iter().copied().filter(|&e| seen.insert(e)).collect();
    stream.extend(arcs.iter().map(|&(a, b)| Tuple::from_ints(&[a, b])));
    while !delta.is_empty() {
        let mut next = Vec::new();
        for &(x, z) in &delta {
            for &y in out.get(&z).map_or(&[][..], Vec::as_slice) {
                stream.push(Tuple::from_ints(&[x, y]));
                if seen.insert((x, y)) {
                    next.push((x, y));
                }
            }
        }
        delta = next;
    }
    stream
}

fn by_insert(stream: &[Tuple]) -> SetRelation {
    let mut rel = SetRelation::with_index_cols(&[]);
    for row in stream {
        rel.insert(row.clone());
    }
    rel
}

fn by_batch(stream: &[Tuple], cols: &[usize]) -> SetRelation {
    let mut rel = SetRelation::with_index_cols(cols);
    for group in stream.chunks(FLUSH_ROWS) {
        rel.insert_batch(group);
    }
    rel
}

fn by_cache_then_batch(stream: &[Tuple]) -> SetRelation {
    let mut cache = TupleCache::new(dcd_storage::cache::DEFAULT_SLOTS);
    let mut rel = SetRelation::with_index_cols(&[]);
    let mut unseen: Vec<&Tuple> = Vec::with_capacity(FLUSH_ROWS);
    for group in stream.chunks(FLUSH_ROWS) {
        unseen.clear();
        unseen.extend(group);
        let n = cache.retain_unseen(&mut unseen);
        rel.insert_batch(&unseen[..n]);
    }
    rel
}

fn main() {
    let mut h = Harness::from_args();
    let stream = tc_merge_stream();
    let keys: Vec<u64> = (0..VERTICES as i64)
        .map(|v| Tuple::from_ints(&[v]).key(0))
        .collect();

    // Every path must merge to the same arena, and every probe must
    // return exactly the rows with its key, before anything is timed.
    let reference = by_insert(&stream);
    assert!(
        reference.len() * 4 < stream.len(),
        "the stream must be duplicate-heavy ({} distinct of {})",
        reference.len(),
        stream.len()
    );
    let hashed = by_batch(&stream, &[0]);
    for rel in [
        &hashed,
        &by_batch(&stream, &[]),
        &by_cache_then_batch(&stream),
    ] {
        assert_eq!(rel.rows(), reference.rows(), "merge paths disagree");
    }
    for &k in &keys {
        let want: Vec<u32> = (0..reference.len() as u32)
            .filter(|&id| reference.rows()[id as usize].key(0) == k)
            .collect();
        assert_eq!(hashed.probe_ids(0, k), want, "postings wrong on key {k}");
    }
    println!(
        "tc merge stream: {} head rows, {} distinct",
        stream.len(),
        reference.len()
    );

    h.bench("set_merge", "insert", || {
        black_box(by_insert(black_box(&stream)));
    });
    h.bench("set_merge", "insert_batch", || {
        black_box(by_batch(black_box(&stream), &[]));
    });
    h.bench("set_merge", "tuple_cache_then_batch", || {
        black_box(by_cache_then_batch(black_box(&stream)));
    });
    h.bench("set_merge", "hash_postings_build", || {
        black_box(by_batch(black_box(&stream), &[0]));
    });
    h.bench("set_merge", "hash_postings_probe", || {
        let mut n = 0;
        for &k in black_box(&keys) {
            n += hashed.probe_ids(0, k).len();
        }
        black_box(n);
    });

    h.finish();
}
