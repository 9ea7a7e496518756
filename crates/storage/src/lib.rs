#![warn(missing_docs)]
//! Storage layer for DCDatalog (paper §3 "Storage Layer", §6.2).
//!
//! Provides the per-worker stores used during parallel semi-naive
//! evaluation:
//!
//! * [`sealed::SealedRelation`] — immutable, index-complete EDB relations
//!   built exactly once (Algorithm 1, line 3) and shared across workers,
//!   probed by row id.
//! * [`table::RowTable`] — the one hashed table of the derived-relation
//!   stores: an open-addressed table of arena row ids keyed on a row's
//!   first `k` values. It holds set membership (`k` = the whole row),
//!   aggregate groups (`k` = the group-by columns), and the worker's
//!   partial aggregation and delta coalescing.
//! * [`set::SetRelation`] — recursive relations without aggregates
//!   (`tc`, `sg`, `attend`): an append-only row arena with a whole-row
//!   [`RowTable`] for exact-duplicate elimination and one row-id posting
//!   list per probed column. Its batched merge
//!   ([`SetRelation::insert_batch`]) prefetches table slots and candidate
//!   rows for a group of rows before inserting any of them.
//! * [`aggregate::AggRelation`] — recursive relations with
//!   `min`/`max`/`sum`/`count` heads: an arena of one logical row per
//!   group, updated in place, found through a [`RowTable`] on the group
//!   columns (the aggregate state inside the index of §6.2.1), with
//!   row-id postings like a set relation's and the per-contributor state
//!   of `sum`/`count` beside it.
//! * [`cache::TupleCache`] — the direct-mapped existence-check cache of
//!   §6.2.2, applied to the exchange: Distribute's sent-filter drops head
//!   rows a worker already sent to a peer. No store sits behind a cache:
//!   every membership and group check is already one hashed lookup.

pub mod aggregate;
pub mod cache;
pub mod sealed;
pub mod set;
pub mod table;

pub use aggregate::{AggFunc, AggRelation, AggScan};
pub use cache::TupleCache;
pub use sealed::SealedRelation;
pub use set::SetRelation;
pub use table::RowTable;
