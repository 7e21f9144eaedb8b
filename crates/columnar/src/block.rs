//! Encoded column blocks.
//!
//! A [`Block`] is the unit of storage and of (accounted) I/O: one column ×
//! one row range, encoded with the cheapest applicable codec. Dense
//! block-wise storage with a separate sparse index is one of the two
//! physical layouts the paper names for positional column storage (§2).

use crate::checksum::checksum;
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
    /// Encoded bytes. `Bytes` so cloned tables share payloads. Never
    /// replaced: [`Block::checksum`] is taken over them once.
    pub payload: Bytes,
    /// [`checksum`] of `payload`, taken where the payload was produced;
    /// it travels with the payload through every clone and splice.
    checksum: u64,
}

impl Block {
    /// A block over `payload`, its checksum taken here — the one way a
    /// block comes to be, so none carries a stale sum.
    pub(crate) fn new(len: usize, vtype: ValueType, encoding: Encoding, payload: Bytes) -> Block {
        Block {
            len,
            vtype,
            encoding,
            checksum: checksum(&payload),
            payload,
        }
    }

    /// Encode `col`, choosing the smallest applicable codec (a tie goes to
    /// the earlier candidate). Every candidate reports its exact payload
    /// size first and only the winner is written. Varint deltas are a
    /// candidate only when every delta after the first is one byte (see
    /// `int_sizes`), so every block this writes decodes without a varint
    /// length chain.
    pub fn encode(col: &ColumnVec) -> Block {
        let encoding = smallest(col, Encoding::candidates(col.vtype()));
        let bytes = compress::encode(col, encoding).expect("the chosen codec applies");
        Block::new(col.len(), col.vtype(), encoding, Bytes::from(bytes))
    }

    /// Encode an already dictionary-coded string column as
    /// [`Encoding::GlobalCode`] (the table builder routes dictionary
    /// columns here; code blocks decode to [`ColumnVec::Coded`]).
    pub fn encode_coded(col: &ColumnVec) -> Block {
        let bytes = compress::encode(col, Encoding::GlobalCode)
            .expect("encode_coded requires a ColumnVec::Coded column");
        Block::new(
            col.len(),
            ValueType::Str,
            Encoding::GlobalCode,
            Bytes::from(bytes),
        )
    }

    /// The [`checksum`] of [`Block::payload`], taken when the block was
    /// encoded or read back.
    pub fn checksum(&self) -> u64 {
        self.checksum
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

    /// The values at `positions` (ascending, each below [`Block::len`])
    /// into a caller-held column, with [`Block::decode_into`]'s verdicts;
    /// returns how many values were decoded to find them (see
    /// [`compress::decode_at`]).
    pub fn decode_at(
        &self,
        dict: Option<&Arc<StrDict>>,
        positions: &[usize],
        out: &mut ColumnVec,
    ) -> Result<usize> {
        compress::decode_at(
            &self.payload,
            self.encoding,
            self.vtype,
            self.len,
            dict,
            positions,
            out,
        )
    }

    /// Size in bytes that a disk read of this block would transfer.
    pub fn stored_bytes(&self) -> u64 {
        self.payload.len() as u64
    }
}

/// The candidate whose payload for `col` is smallest, a tie going to the
/// earlier one — chosen from exact sizes, without writing a byte, so the
/// block encoder writes only the winner.
fn smallest(col: &ColumnVec, candidates: &[Encoding]) -> Encoding {
    let sizes = payload_sizes(col);
    candidates
        .iter()
        .filter_map(|&enc| Some((enc, sizes[enc as usize]?)))
        .min_by_key(|&(_, size)| size)
        .map_or(Encoding::Plain, |(enc, _)| enc)
}

/// Bytes of `v` as an unsigned varint.
fn uvarint_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Exact payload size of `col` under each codec, indexed by on-disk tag:
/// the length of what [`compress::encode`] returns, `None` where the codec does not
/// apply or, for [`Encoding::DeltaVarint`], where a delta after the first
/// takes more than one byte. [`Encoding::GlobalCode`] is never a
/// block-chooser candidate and is not sized.
fn payload_sizes(col: &ColumnVec) -> [Option<usize>; Encoding::ALL.len()] {
    let mut sizes = [None; Encoding::ALL.len()];
    let mut set = |enc: Encoding, size: Option<usize>| sizes[enc as usize] = size;
    let n = col.len();
    match col {
        ColumnVec::Int(v) => int_sizes(v, 8, &mut set),
        ColumnVec::Date(v) => int_sizes(v, 4, &mut set),
        ColumnVec::Double(v) => {
            set(Encoding::Plain, Some(8 * n));
            set(
                Encoding::Rle,
                Some(runs_size(n, |i, j| v[i].to_bits() == v[j].to_bits(), |_| 8)),
            );
        }
        ColumnVec::Bool(v) => {
            set(Encoding::Plain, Some(n));
            set(
                Encoding::Rle,
                Some(runs_size(n, |i, j| v[i] == v[j], |_| 1)),
            );
        }
        ColumnVec::Str(_) | ColumnVec::Coded(..) => {
            let str_size = |i: usize| {
                let len = col.str_at(i).len();
                uvarint_len(len as u64) + len
            };
            set(Encoding::Plain, Some((0..n).map(str_size).sum()));
            set(
                Encoding::Rle,
                Some(runs_size(
                    n,
                    |i, j| col.str_at(i) == col.str_at(j),
                    str_size,
                )),
            );
            let mut distinct = std::collections::HashMap::new();
            for i in 0..n {
                distinct.entry(col.str_at(i)).or_insert(i);
            }
            let card = distinct.len();
            // the same refusal as `encode_dict`
            if !(card == n && n > 16) {
                let entries: usize = distinct.values().map(|&i| str_size(i)).sum();
                set(
                    Encoding::Dict,
                    Some(
                        uvarint_len(card as u64)
                            + entries
                            + 1
                            + n * compress::index_width(card) as usize,
                    ),
                );
            }
        }
    }
    sizes
}

/// Run-length size of `n` values: one varint run length plus one value
/// (`value_size` of the run's first index) per maximal run of `eq` values.
fn runs_size(
    n: usize,
    eq: impl Fn(usize, usize) -> bool,
    value_size: impl Fn(usize) -> usize,
) -> usize {
    let (mut size, mut i) = (0, 0);
    while i < n {
        let mut j = i + 1;
        while j < n && eq(i, j) {
            j += 1;
        }
        size += uvarint_len((j - i) as u64) + value_size(i);
        i = j;
    }
    size
}

/// Every int/date codec's size from one pass over `v`: the runs, the
/// min/max that fixes the bit-packed frame, and whether every zig-zag
/// delta after the first fits one varint byte; plain is `width` bytes a
/// value.
///
/// [`Encoding::DeltaVarint`] is sized only for blocks whose deltas after
/// the first (the absolute value) are all one byte: those decode eight to
/// a word in [`compress`]'s delta kernel. A block with one multi-byte
/// delta decodes through a varint length chain, several times slower than
/// bit-packing's independent loads, so it leaves varint deltas out even
/// where they would be a few bytes smaller.
fn int_sizes<T: Copy + Into<i64>>(
    v: &[T],
    width: usize,
    set: &mut impl FnMut(Encoding, Option<usize>),
) {
    let n = v.len();
    set(Encoding::Plain, Some(width * n));
    let Some(&first) = v.first() else {
        set(Encoding::DeltaVarint, Some(0));
        set(Encoding::Rle, Some(0));
        return;
    };
    let first: i64 = first.into();
    let (mut prev, mut lo, mut hi) = (first, first, first);
    let (mut one_byte_deltas, mut rle, mut run) = (true, 0usize, 0u64);
    for &x in v {
        let x: i64 = x.into();
        one_byte_deltas &= compress::zigzag(x.wrapping_sub(prev)) < 0x80;
        if run > 0 && x != prev {
            rle += uvarint_len(run) + width;
            run = 0;
        }
        run += 1;
        prev = x;
        lo = lo.min(x);
        hi = hi.max(x);
    }
    rle += uvarint_len(run) + width;
    set(
        Encoding::DeltaVarint,
        one_byte_deltas.then(|| uvarint_len(compress::zigzag(first)) + n - 1),
    );
    set(Encoding::Rle, Some(rle));
    set(
        Encoding::BitPacked,
        compress::packed_size(n, lo, hi).map(|(size, _)| size),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_picks_smallest() {
        // constant column: RLE should beat delta & plain
        let col = ColumnVec::Int(vec![42; 4096]);
        let b = Block::encode(&col);
        assert_eq!(b.encoding, Encoding::Rle);
        assert_eq!(b.decode().unwrap(), col);

        // sorted distinct: delta-varint wins
        let col = ColumnVec::Int((0..4096).collect());
        let b = Block::encode(&col);
        assert_eq!(b.encoding, Encoding::DeltaVarint);
        assert_eq!(b.decode().unwrap(), col);

        // the same keys with one gap of 100: one two-byte delta takes
        // varint deltas out, though at 4 097 bytes they are smaller than
        // thirteen bits a value packed
        let col = ColumnVec::Int(
            (0..4096)
                .map(|i| i + if i < 2048 { 0 } else { 99 })
                .collect(),
        );
        let b = Block::encode(&col);
        assert_eq!(
            compress::encode(&col, Encoding::DeltaVarint).unwrap().len(),
            4097
        );
        assert_eq!(
            (b.encoding, b.stored_bytes()),
            (Encoding::BitPacked, 9 + 4096 * 13 / 8)
        );
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
        let b = Block::encode(&col);
        assert_eq!(b.encoding, Encoding::BitPacked);
        assert_eq!(b.stored_bytes(), 9 + 4096 * 44 / 8);
        assert_eq!(b.decode().unwrap(), col);

        // a tie goes to the earlier candidate: eleven one-byte deltas
        // against a 9-byte header plus eleven 1-bit offsets
        let col = ColumnVec::Int(vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]);
        let b = Block::encode(&col);
        assert_eq!(
            compress::encode(&col, Encoding::BitPacked).unwrap().len(),
            11
        );
        assert_eq!((b.encoding, b.stored_bytes()), (Encoding::DeltaVarint, 11));
    }

    /// Whether a [`Encoding::DeltaVarint`] payload's varints after the
    /// first are one byte each: no continuation bit past the first
    /// varint's last byte.
    fn deltas_fit_a_byte(bytes: &[u8]) -> bool {
        let first_end = bytes.iter().position(|&b| b < 0x80).map_or(0, |i| i + 1);
        bytes[first_end..].iter().all(|&b| b < 0x80)
    }

    /// The chooser `Block::encode` replaced: encode every candidate and
    /// keep the first strictly smaller payload, passing over varint deltas
    /// that do not fit a byte each.
    fn trial_encode(col: &ColumnVec) -> (Encoding, Vec<u8>) {
        let mut best: Option<(Encoding, Vec<u8>)> = None;
        for &enc in Encoding::candidates(col.vtype()) {
            if let Some(bytes) = compress::encode(col, enc) {
                if enc == Encoding::DeltaVarint && !deltas_fit_a_byte(&bytes) {
                    continue;
                }
                if best.as_ref().is_none_or(|(_, b)| bytes.len() < b.len()) {
                    best = Some((enc, bytes));
                }
            }
        }
        best.unwrap()
    }

    /// Families of generated columns that exercise the chooser.
    const FAMILIES: usize = 10;
    /// The clustered-dates family: lineitem's ship / commit / receipt
    /// dates, a random order date per order plus 1–121 days per line.
    const CLUSTERED_DATES: usize = 8;

    /// Sample `case`'s values: its family is `(case / 5) % FAMILIES`, its
    /// length set by `case % 5` (0, 1, under 20, or up to 4 200).
    fn sample(case: usize, next: &mut impl FnMut() -> u64) -> Vec<i64> {
        let n = match case % 5 {
            0 => 0,
            1 => 1,
            2 => next() as usize % 20,
            _ => next() as usize % 4200,
        };
        let mut vals: Vec<i64> = match (case / 5) % FAMILIES {
            // constant
            0 => vec![next() as i64; n],
            // 44-bit random (bit-packed's case), then sorted
            1 | 2 => (0..n).map(|_| (next() >> 20) as i64).collect(),
            // spreads of 57 bits and more: no frame of reference
            3 => (0..n).map(|_| (next() >> (next() % 8)) as i64).collect(),
            // wrap-around deltas between the extremes
            4 => (0..n)
                .map(|_| [i64::MIN, i64::MAX, 0, -1, 1][next() as usize % 5])
                .collect(),
            // long runs
            5 => {
                let mut v = Vec::new();
                while v.len() < n {
                    let run = 1 + next() as usize % 400;
                    v.extend(std::iter::repeat_n(next() as i64 % 9, run.min(n - v.len())));
                }
                v
            }
            // ascending keys with gaps of 0–63 from any start (delta's case)
            6 => {
                let mut k = next() as i64;
                (0..n)
                    .map(|_| {
                        k = k.wrapping_add((next() % 64) as i64);
                        k
                    })
                    .collect()
            }
            CLUSTERED_DATES => {
                let mut v = Vec::new();
                while v.len() < n {
                    let order = 8035 + (next() % 2406) as i64;
                    let lines = (1 + next() as usize % 7).min(n - v.len());
                    v.extend((0..lines).map(|_| order + 1 + (next() % 121) as i64));
                }
                v
            }
            // any width, any offset
            _ => {
                let (w, base) = (1 + next() % 63, next() as i64);
                (0..n)
                    .map(|_| base.wrapping_add((next() >> (64 - w)) as i64))
                    .collect()
            }
        };
        if (case / 5) % FAMILIES == 2 {
            vals.sort_unstable();
        }
        vals
    }

    /// Every column type over `vals`.
    fn columns_of(case: usize, vals: Vec<i64>) -> [ColumnVec; 5] {
        [
            ColumnVec::Date(vals.iter().map(|&v| v as i32).collect()),
            // few distinct strings, or (odd cases) as many as values
            ColumnVec::Str(
                vals.iter()
                    .map(|&v| format!("{}", if case.is_multiple_of(2) { v % 7 } else { v }))
                    .collect(),
            ),
            // signed zeros among the small doubles
            ColumnVec::Double(
                vals.iter()
                    .map(|&v| {
                        if v % 5 == 0 && v < 0 {
                            -0.0
                        } else {
                            (v % 5) as f64
                        }
                    })
                    .collect(),
            ),
            ColumnVec::Bool(vals.iter().map(|&v| v % 3 == 0).collect()),
            ColumnVec::Int(vals),
        ]
    }

    fn xorshift() -> impl FnMut() -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn encode_matches_the_trial_chooser() {
        let mut next = xorshift();
        for case in 0..1000 {
            for col in &columns_of(case, sample(case, &mut next)) {
                let b = Block::encode(col);
                let (enc, bytes) = trial_encode(col);
                assert_eq!(
                    (b.encoding, &b.payload[..]),
                    (enc, &bytes[..]),
                    "case {case}, {:?}×{}",
                    col.vtype(),
                    col.len()
                );
            }
        }
    }

    /// What `Block::encode` writes as varint deltas is what the delta
    /// kernel reads eight values to a word; lineitem-shaped dates, whose
    /// deltas span two bytes, are bit-packed.
    #[test]
    fn varint_delta_blocks_have_one_byte_deltas() {
        let mut next = xorshift();
        let mut deltas = 0;
        for case in 0..1000 {
            let family = (case / 5) % FAMILIES;
            for col in &columns_of(case, sample(case, &mut next)) {
                let b = Block::encode(col);
                if b.encoding == Encoding::DeltaVarint {
                    deltas += 1;
                    assert!(deltas_fit_a_byte(&b.payload), "case {case}, {col:?}");
                }
                if family == CLUSTERED_DATES
                    && col.len() >= 64
                    && matches!(col.vtype(), ValueType::Int | ValueType::Date)
                {
                    assert_eq!(b.encoding, Encoding::BitPacked, "case {case}, {col:?}");
                }
            }
        }
        assert!(deltas > 100, "only {deltas} varint-delta blocks");
    }

    #[test]
    fn rle_keeps_the_bits_of_every_double() {
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        let bits = |col: &ColumnVec| match col {
            ColumnVec::Double(v) => v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            other => panic!("not doubles: {other:?}"),
        };
        let cols = [
            std::iter::once(-0.0).chain([0.0; 4095]).collect(),
            std::iter::once(0.0).chain([-0.0; 9]).collect(),
            vec![
                nan(1),
                nan(1),
                nan(2),
                f64::NAN,
                -f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                -0.0,
            ],
        ]
        .map(ColumnVec::Double);
        assert_eq!(Block::encode(&cols[0]).encoding, Encoding::Rle);
        for col in &cols {
            let rle = compress::encode(col, Encoding::Rle).unwrap();
            let decoded = compress::decode(&rle, Encoding::Rle, ValueType::Double, col.len());
            assert_eq!(bits(&decoded.unwrap()), bits(col));
            assert_eq!(bits(&Block::encode(col).decode().unwrap()), bits(col));
        }
    }

    #[test]
    fn payload_sizes_are_the_encoded_lengths() {
        let col = ColumnVec::Int((0..64).map(|i| (i * 7919) % 1000).collect());
        assert_eq!(
            payload_sizes(&col)[Encoding::BitPacked as usize],
            Some(9 + 64 * 10 / 8)
        );
        let d = StrDict::build(["a", "bb", "ccc"]);
        let cols = [
            col,
            ColumnVec::Int(vec![]),
            ColumnVec::Int(vec![i64::MIN, i64::MAX, 0, 0, 0, -1, i64::MAX]),
            ColumnVec::Int((0..50).map(|i| i64::MIN + 3 * i).collect()),
            ColumnVec::Date(vec![7, 7, 7, -3, 1 << 30, i32::MIN]),
            ColumnVec::Date((0..100).map(|i| 9000 - i / 3).collect()),
            ColumnVec::Double(vec![1.5, 1.5, f64::NAN, f64::NAN, -0.0, 0.0]),
            ColumnVec::Bool(vec![true, true, false]),
            ColumnVec::Str((0..40).map(|i| format!("s{}", i % 5)).collect()),
            ColumnVec::Str((0..17).map(|i| format!("distinct{i}")).collect()),
            ColumnVec::Str((0..300).map(|i| "é".repeat(i % 200)).collect()),
            ColumnVec::Coded(vec![2, 2, 0, 1, 1], d),
        ];
        for col in &cols {
            let sizes = payload_sizes(col);
            for enc in Encoding::ALL {
                if enc != Encoding::GlobalCode {
                    let want = compress::encode(col, enc)
                        .filter(|b| enc != Encoding::DeltaVarint || deltas_fit_a_byte(b))
                        .map(|b| b.len());
                    assert_eq!(sizes[enc as usize], want, "{enc:?} of {col:?}");
                }
            }
        }
    }

    #[test]
    fn incompressible_ints_fall_back_to_plain() {
        let mut next = xorshift();
        let col = ColumnVec::Int((0..4096).map(|_| next() as i64).collect());
        let b = Block::encode(&col);
        assert_eq!(b.encoding, Encoding::Plain);
        assert_eq!(b.stored_bytes(), 4096 * 8);
        assert_eq!(b.decode().unwrap(), col);
    }

    #[test]
    fn strings_pick_dict_when_low_cardinality() {
        let col = ColumnVec::Str((0..1000).map(|i| format!("m{}", i % 3)).collect());
        let b = Block::encode(&col);
        assert_eq!(b.encoding, Encoding::Dict);
        assert_eq!(b.decode().unwrap(), col);
    }

    #[test]
    fn doubles_roundtrip() {
        let col = ColumnVec::Double((0..100).map(|i| i as f64 * 0.5).collect());
        let b = Block::encode(&col);
        assert_eq!(b.decode().unwrap(), col);
    }
}
