//! Error types for the columnar substrate.

use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// A tuple did not match the table schema, or the table's layout
    /// cannot hold rows (zero `block_rows`).
    SchemaMismatch(String),
    /// Rows were appended to a bulk loader out of sort-key order.
    UnsortedInput {
        /// Zero-based index of the first offending row.
        row: u64,
    },
    /// A block payload failed to decode (corruption or codec bug).
    Corrupt(String),
    /// An out-of-range row or block reference.
    OutOfRange {
        /// What kind of reference was out of range ("row", "block", ...).
        what: &'static str,
        /// The offending index.
        index: u64,
        /// The valid length it was checked against.
        len: u64,
    },
    /// A filesystem error while reading or writing persisted images. Carries
    /// the rendered `std::io::Error` (this enum is `Clone + Eq`).
    Io(String),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            ColumnarError::UnsortedInput { row } => {
                write!(f, "bulk load input not in sort-key order at row {row}")
            }
            ColumnarError::Corrupt(m) => write!(f, "corrupt block: {m}"),
            ColumnarError::OutOfRange { what, index, len } => {
                write!(f, "{what} index {index} out of range (len {len})")
            }
            ColumnarError::Io(m) => write!(f, "image I/O: {m}"),
        }
    }
}

impl std::error::Error for ColumnarError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ColumnarError>;
