//! # Positional Delta Tree (PDT)
//!
//! From-scratch implementation of the data structure and algorithms of
//! *"Positional Update Handling in Column Stores"* (Héman, Zukowski, Nes,
//! Sidirourgos, Boncz — SIGMOD 2010).
//!
//! A PDT buffers differential updates (inserts, deletes, modifies) against
//! an ordered, read-optimised columnar table **by position** rather than by
//! sort-key value. Read queries merge the differences in by *counting down*
//! to the next update position ([`merge::PdtMerger`], Algorithm 2), which —
//! unlike value-based merging — requires neither sort-key comparisons nor
//! sort-key I/O.
//!
//! The crate provides:
//!
//! * [`Pdt`] — the counted-tree structure with the update algorithms
//!   (Algorithms 1, 3–6),
//! * [`ValueSpace`] — the columnar insert/delete/modify value tables
//!   (eq. (6)–(7)),
//! * [`merge`] — the positional MergeScan,
//! * [`propagate`] — Algorithm 7, folding a consecutive PDT into the one
//!   below it (Write-PDT → Read-PDT migration),
//! * [`serialize`] — Algorithm 8, transposing an aligned transaction PDT
//!   over a committed one, detecting write-write conflicts (the heart of
//!   the paper's optimistic concurrency control),
//! * [`builder`] — bottom-up bulk construction from an ordered entry
//!   stream (used by `serialize` and checkpointing),
//! * [`checkpoint`] — applying a PDT to a stable image to produce the next
//!   stable image,
//! * [`naive`] — an executable specification (a plain row vector) used by
//!   the property-based test suite to cross-validate every operation.

pub mod builder;
pub mod checkpoint;
pub mod merge;
pub mod naive;
pub mod node;
pub mod propagate;
pub mod serialize;
pub mod tree;
pub mod upd;
pub mod value_space;

#[cfg(test)]
mod paper_example;

pub use merge::PdtMerger;
pub use serialize::SerializeError;
pub use tree::{Cursor, DeleteOutcome, Pdt, RidLookup, DEFAULT_FANOUT};
pub use upd::{EntryView, Upd, DEL, INS};
pub use value_space::ValueSpace;
