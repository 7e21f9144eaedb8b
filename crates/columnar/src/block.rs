//! Encoded column blocks.
//!
//! A [`Block`] is the unit of storage and of (accounted) I/O: one column ×
//! one row range, encoded with the cheapest applicable codec. Dense
//! block-wise storage with a separate sparse index is one of the two
//! physical layouts the paper names for positional column storage (§2).

use crate::column::ColumnVec;
use crate::compress;
pub use crate::compress::Encoding;
use crate::dict::StrDict;
use crate::error::Result;
use crate::value::ValueType;
use bytes::Bytes;
use std::sync::Arc;

/// One encoded column segment.
#[derive(Debug, Clone)]
pub struct Block {
    /// Number of values in the block.
    pub len: usize,
    /// Element type.
    pub vtype: ValueType,
    /// Codec of `payload`.
    pub encoding: Encoding,
    /// Encoded bytes. `Bytes` so cloned tables share payloads.
    pub payload: Bytes,
}

impl Block {
    /// Encode `col`, choosing the smallest applicable codec (a tie goes to
    /// the earlier candidate). When `compressed` is false only
    /// [`Encoding::Plain`] is considered, mirroring the paper's
    /// non-compressed SF-10 workstation setup.
    pub fn encode(col: &ColumnVec, compressed: bool) -> Block {
        let mut best: Option<(Encoding, Vec<u8>)> = None;
        for &enc in Encoding::candidates(col.vtype(), compressed) {
            let limit = best.as_ref().map_or(usize::MAX, |(_, b)| b.len());
            if let Some(bytes) = compress::encode_below(col, enc, limit) {
                best = Some((enc, bytes));
            }
        }
        let (encoding, bytes) = best.expect("Plain always applies");
        Block {
            len: col.len(),
            vtype: col.vtype(),
            encoding,
            payload: Bytes::from(bytes),
        }
    }

    /// Encode an already dictionary-coded string column as
    /// [`Encoding::GlobalCode`] (the table builder routes dictionary
    /// columns here; code blocks decode to [`ColumnVec::Coded`]).
    pub fn encode_coded(col: &ColumnVec) -> Block {
        let bytes = compress::encode(col, Encoding::GlobalCode)
            .expect("encode_coded requires a ColumnVec::Coded column");
        Block {
            len: col.len(),
            vtype: ValueType::Str,
            encoding: Encoding::GlobalCode,
            payload: Bytes::from(bytes),
        }
    }

    /// Decode the full block.
    pub fn decode(&self) -> Result<ColumnVec> {
        compress::decode(&self.payload, self.encoding, self.vtype, self.len)
    }

    /// Decode the full block into a caller-held column, reusing its
    /// allocation when the representation matches (see
    /// [`compress::decode_into`]). `dict` is the column's global
    /// dictionary — required for [`Encoding::GlobalCode`] blocks, which
    /// decode to [`ColumnVec::Coded`] over it.
    pub fn decode_into(&self, dict: Option<&Arc<StrDict>>, out: &mut ColumnVec) -> Result<()> {
        compress::decode_into(
            &self.payload,
            self.encoding,
            self.vtype,
            self.len,
            dict,
            out,
        )
    }

    /// Size in bytes that a disk read of this block would transfer.
    pub fn stored_bytes(&self) -> u64 {
        self.payload.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_picks_smallest() {
        // constant column: RLE should beat delta & plain
        let col = ColumnVec::Int(vec![42; 4096]);
        let b = Block::encode(&col, true);
        assert_eq!(b.encoding, Encoding::Rle);
        assert_eq!(b.decode().unwrap(), col);

        // sorted distinct: delta-varint wins
        let col = ColumnVec::Int((0..4096).collect());
        let b = Block::encode(&col, true);
        assert_eq!(b.encoding, Encoding::DeltaVarint);
        assert_eq!(b.decode().unwrap(), col);

        // random 44-bit values: 5.5 B/value packed beats ~7 B/value of
        // zig-zag varint deltas
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let col = ColumnVec::Int(
            (0..4096)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 20) as i64
                })
                .collect(),
        );
        let b = Block::encode(&col, true);
        assert_eq!(b.encoding, Encoding::BitPacked);
        assert_eq!(b.stored_bytes(), 9 + 4096 * 44 / 8);
        assert_eq!(b.decode().unwrap(), col);

        // a tie goes to the earlier candidate: eleven one-byte deltas
        // against a 9-byte header plus eleven 1-bit offsets
        let col = ColumnVec::Int(vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]);
        let b = Block::encode(&col, true);
        assert_eq!(
            compress::encode(&col, Encoding::BitPacked).unwrap().len(),
            11
        );
        assert_eq!((b.encoding, b.stored_bytes()), (Encoding::DeltaVarint, 11));
    }

    #[test]
    fn uncompressed_mode_forces_plain() {
        let col = ColumnVec::Int(vec![42; 4096]);
        let b = Block::encode(&col, false);
        assert_eq!(b.encoding, Encoding::Plain);
        assert_eq!(b.stored_bytes(), 4096 * 8);
    }

    #[test]
    fn strings_pick_dict_when_low_cardinality() {
        let col = ColumnVec::Str((0..1000).map(|i| format!("m{}", i % 3)).collect());
        let b = Block::encode(&col, true);
        assert_eq!(b.encoding, Encoding::Dict);
        assert_eq!(b.decode().unwrap(), col);
    }

    #[test]
    fn doubles_roundtrip() {
        let col = ColumnVec::Double((0..100).map(|i| i as f64 * 0.5).collect());
        let b = Block::encode(&col, true);
        assert_eq!(b.decode().unwrap(), col);
    }
}
