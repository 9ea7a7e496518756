#![warn(missing_docs)]
//! Storage layer for DCDatalog (paper §3 "Storage Layer", §6.2).
//!
//! Provides the per-worker stores used during parallel semi-naive
//! evaluation:
//!
//! * [`sealed::SealedRelation`] — immutable, index-complete EDB relations
//!   built exactly once (Algorithm 1, line 3) and shared across workers,
//!   probed by row id.
//! * [`set::SetRelation`] — recursive relations without aggregates
//!   (`tc`, `sg`, `attend`): an append-only row arena with a hashed
//!   row-id membership table for exact-duplicate elimination and one
//!   row-id posting list per probed column. Its batched merge
//!   ([`SetRelation::insert_batch`]) prefetches table slots and candidate
//!   rows for a group of rows before inserting any of them.
//! * [`aggregate`] — recursive relations with `min`/`max`/`sum`/`count`
//!   heads, storing the aggregate state inside the index (§6.2.1) with the
//!   per-contributor second index for `sum`/`count`.
//! * [`bptree::BPlusTree`] — the from-scratch B+-tree behind the aggregate
//!   relations, the paper's index on the partition/join key (§3).
//! * [`cache`] — the constant-time existence-check cache of §6.2.2. It
//!   fronts aggregate relations only ([`AggCache`]): there an index check
//!   is a logarithmic B+-tree descent, while a set relation's membership
//!   check is already one hashed lookup, and a cache in front of it cost
//!   one more random access per row (about 10% of the merge, measured).
//!   [`TupleCache`] is the same direct-mapped design applied to the
//!   exchange: Distribute's sent-filter drops head rows a worker already
//!   sent to a peer.

pub mod aggregate;
pub mod bptree;
pub mod cache;
pub mod sealed;
pub mod set;

pub use aggregate::{AggFunc, AggRelation, AggScan, AggState};
pub use bptree::BPlusTree;
pub use cache::{AggCache, TupleCache};
pub use sealed::SealedRelation;
pub use set::SetRelation;
