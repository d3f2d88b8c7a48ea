//! # hedgex-store — persistent documents, structural indexes, pruned queries
//!
//! The evaluators in `hedgex-core` are linear per document — but a corpus
//! served repeatedly re-parses and re-traverses every document on every
//! query. This crate is the "pre-compute structure once, answer by range
//! scan" layer on top:
//!
//! * [`DocumentStore`] — an on-disk corpus of [`FlatHedge`]s plus their
//!   shared [`Alphabet`]. The dense preorder arena is already
//!   serialization-shaped: one `(label, parent)` record per node is the
//!   whole document, and `FlatHedge::from_parts` validates and relinks it
//!   at load. The file format is versioned and checksummed; loading
//!   truncated or corrupted bytes returns a typed [`StoreError`] with a
//!   byte-accurate position — never a panic.
//! * [`StructIndex`] — per stored document: per-symbol postings
//!   (`SymId` → sorted preorder node ids) and the preorder subtree
//!   extents (`subtree_end[n]` is one past `n`'s last descendant). The
//!   index is never stored: it is rebuilt from the validated document in
//!   O(n) at build and at load (a counting sort and one reverse sweep).
//! * [`StoreQuery`] — index-pruned evaluation of any compiled
//!   [`Query`]: a path expression's `CompiledPath` (Section 8's top-down
//!   DFA) or a PHR's `Plan`. The query's required symbols are checked
//!   against postings emptiness (O(1) per document instead of a label
//!   scan), the candidate set is the union of the postings of its
//!   [`Query::match_syms`], and the query's traversal visits only the
//!   ancestors-closure of candidate ranges ([`Query::eval_pruned_into`]).
//!   Documents whose candidate set is empty skip evaluation — including a
//!   plan's bottom-up automaton run — entirely.
//!
//! Observability: `store.{docs_pruned,ranges_skipped,postings_hits}`
//! counters and `store.{save,load,query.doc}` spans.
//!
//! [`FlatHedge`]: hedgex_hedge::FlatHedge
//! [`Alphabet`]: hedgex_hedge::Alphabet
//! [`Query`]: hedgex_core::Query
//! [`Query::match_syms`]: hedgex_core::Query::match_syms
//! [`Query::eval_pruned_into`]: hedgex_core::Query::eval_pruned_into

#![forbid(unsafe_code)]

pub mod query;
pub mod store;

pub use query::StoreQuery;
pub use store::{DocumentStore, StoreError, StoredDoc, StructIndex};
