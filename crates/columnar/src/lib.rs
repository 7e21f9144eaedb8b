//! Ordered, compressed columnar read-store substrate.
//!
//! This crate implements the "stable table" storage layer the PDT paper
//! assumes underneath its differential structures:
//!
//! * dynamically typed [`Value`]s and [`Schema`]s with total-order sort-key
//!   comparisons ([`value`], [`schema`]),
//! * typed column vectors ([`column::ColumnVec`]) used both for stable
//!   storage decoding and for PDT/VDT value spaces,
//! * block-wise column storage with lightweight compression (RLE,
//!   dictionary, delta+varint, plain) chosen per block ([`block`],
//!   [`compress`]),
//! * an immutable, sort-key-ordered [`table::StableTable`] with a bulk
//!   loader,
//! * a sparse min/max index over sort-key prefixes ([`sparse`]) that is kept
//!   *stale-tolerant*: thanks to the paper's ghost-respecting SID semantics
//!   it never needs maintenance under differential updates,
//! * an I/O accounting layer ([`io`]) that measures exactly the quantity the
//!   paper plots as "I/O volume" (bytes of compressed blocks touched),
//! * persisted compressed images ([`image`]): checkpoint output written to
//!   disk as encoded blocks with an atomically-swapped manifest, so recovery
//!   loads images instead of replaying folded WAL history; every block
//!   carries the [`checksum`] taken where it was encoded.
//!
//! The *scan-path* storage is RAM-resident and no device is modelled. All
//! byte counts are real: they are the sizes of the encoded block payloads
//! that a disk-resident deployment would transfer — and exactly the bytes
//! [`image`] writes to disk.

#![warn(missing_docs)]

pub mod block;
pub mod checksum;
pub mod column;
pub mod compress;
pub mod dict;
pub mod error;
pub mod image;
pub mod io;
pub mod kernel;
pub mod schema;
pub mod sparse;
pub mod table;
pub mod value;

pub use block::{Block, Encoding};
pub use column::ColumnVec;
pub use dict::StrDict;
pub use error::{ColumnarError, Result};
pub use image::{BlockProvenance, ImageEntry, ImageManifest, ImageStore};
pub use io::{BlockHeatSink, IoStats, IoTracker};
pub use kernel::{MergeStep, PreparedKey};
pub use schema::{Field, Schema, SortKeyDef};
pub use sparse::SparseIndex;
pub use table::{ScanRange, StableTable, TableBuilder, TableMeta};
pub use value::{format_date, parse_date, KeyOp, SkKey, Tuple, Value, ValueType};
