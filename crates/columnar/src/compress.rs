//! Lightweight columnar compression codecs.
//!
//! The paper relies on compression to shrink the I/O of (especially) sorted
//! sort-key columns — Plot 2's small VDT/PDT I/O gap on the server is
//! attributed to "good compression ratios for the (sorted) key columns".
//! We implement the classic lightweight family used by such systems:
//!
//! * [`Encoding::Plain`] — fixed-width raw values (strings length-prefixed),
//! * [`Encoding::Rle`] — run-length encoding for low-cardinality runs,
//! * [`Encoding::Dict`] — dictionary coding with narrow indices (strings),
//! * [`Encoding::DeltaVarint`] — zig-zag varint deltas for sorted
//!   integer/date columns whose steps fit one byte,
//! * [`Encoding::BitPacked`] — frame of reference: the block minimum plus
//!   fixed-width bit-packed offsets, for the other integer/date columns
//!   (X100's PFOR without the exceptions), decoded by a kernel compiled
//!   for the block's width instead of along a varint length chain.
//!
//! An int or date block's deltas are varints only when every delta after
//! the first fits one byte: then the delta kernel checks the payload once
//! and sums it in one pass. One multi-byte delta puts the block on the varint length chain,
//! several times slower to decode than a bit-packed block, so such a
//! block is bit-packed even where its varint deltas would be a few bytes
//! smaller ([`crate::block`] applies the rule; every decoder still reads
//! any payload). ARCHITECTURE.md § "Decode → merge → scan" has the
//! measurements.
//!
//! A sixth codec, [`Encoding::GlobalCode`], stores `u32` codes into a
//! table-global per-column [`StrDict`] (zig-zag delta varints); unlike the
//! per-block [`Encoding::Dict`] it decodes to [`ColumnVec::Coded`] so merge
//! kernels compare and patch codes instead of strings.
//!
//! Encoders are pure functions `&ColumnVec -> Vec<u8>`; decoders are the
//! inverse. Block-level auto-choice lives in [`crate::block`].

use std::sync::Arc;

use crate::column::ColumnVec;
use crate::dict::StrDict;
use crate::error::{ColumnarError, Result};
use crate::value::ValueType;

/// Identifies the codec used for a block payload. Variants are declared in
/// [`Encoding::ALL`] order, so `enc as u8` is the codec's on-disk tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Fixed-width raw values (strings length-prefixed).
    Plain,
    /// Run-length encoding: (run length, plain value) pairs.
    Rle,
    /// Per-block dictionary coding with narrow indices (strings only).
    Dict,
    /// Zig-zag varint deltas for integer/date columns. The block chooser
    /// writes it only when every delta after the first is one byte, which
    /// the decoder checks once and sums in one pass; the wire form allows
    /// multi-byte deltas, and the decoder reads them on the path
    /// `GlobalCode` codes into a large dictionary take.
    DeltaVarint,
    /// `u32` codes into a table-global per-column string dictionary,
    /// stored as zig-zag varint deltas. Decodes to [`ColumnVec::Coded`].
    GlobalCode,
    /// Frame of reference for ints/dates: the block minimum, a bit width
    /// `w` in `1..=56`, then each value's offset from the minimum in `w`
    /// bits, packed little-endian.
    BitPacked,
}

impl Encoding {
    /// Every codec, in on-disk tag order: a block's image tag is its
    /// codec's index here. The order is load-bearing — images store these
    /// indices, so a codec is only ever appended, never moved — and the
    /// oracle sweeps and the decode fuzzer iterate this list, so a new
    /// codec is covered by them the moment it is added.
    pub const ALL: [Encoding; 6] = [
        Encoding::Plain,
        Encoding::Rle,
        Encoding::Dict,
        Encoding::DeltaVarint,
        Encoding::GlobalCode,
        Encoding::BitPacked,
    ];

    /// Codecs applicable to a value type, in preference order (a tie in
    /// payload size goes to the earlier one). An int/date block's
    /// [`Encoding::DeltaVarint`] competes only when its deltas after the
    /// first are one byte each; otherwise the smallest of the other three
    /// wins.
    pub fn candidates(vtype: ValueType) -> &'static [Encoding] {
        match vtype {
            ValueType::Int | ValueType::Date => &[
                Encoding::DeltaVarint,
                Encoding::BitPacked,
                Encoding::Rle,
                Encoding::Plain,
            ],
            ValueType::Str => &[Encoding::Dict, Encoding::Rle, Encoding::Plain],
            ValueType::Double => &[Encoding::Rle, Encoding::Plain],
            ValueType::Bool => &[Encoding::Rle, Encoding::Plain],
        }
    }
}

// ---------------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------------

/// LEB128-style unsigned varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Read an unsigned varint; advances `pos`.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| ColumnarError::Corrupt("varint ran off buffer".into()))?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(ColumnarError::Corrupt("varint too long".into()));
        }
    }
}

/// Zig-zag signed→unsigned mapping.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zig-zag inverse.
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

/// Encode `col` with the given codec. Returns `None` if the codec does not
/// apply (e.g. dictionary on doubles).
pub fn encode(col: &ColumnVec, enc: Encoding) -> Option<Vec<u8>> {
    if enc == Encoding::GlobalCode {
        return encode_codes(col);
    }
    if matches!(col, ColumnVec::Coded(..)) {
        // legacy codecs see strings, not codes
        let mut m = col.clone();
        m.materialize_in_place();
        return encode(&m, enc);
    }
    match enc {
        Encoding::Plain => Some(encode_plain(col)),
        Encoding::Rle => Some(encode_rle(col)),
        Encoding::Dict => encode_dict(col),
        Encoding::DeltaVarint => encode_delta(col),
        Encoding::BitPacked => match col {
            ColumnVec::Int(v) => encode_packed(v),
            ColumnVec::Date(v) => encode_packed(v),
            _ => None,
        },
        Encoding::GlobalCode => unreachable!("handled above"),
    }
}

/// Size of an [`Encoding::BitPacked`] payload of `n` values in
/// `[min, max]`; `None` when the frame is constant (`w == 0`, run-length's
/// case) or too wide (`w > 56`).
pub(crate) fn packed_size(n: usize, min: i64, max: i64) -> Option<(usize, u32)> {
    let w = u64::BITS - (max.wrapping_sub(min) as u64).leading_zeros();
    (1..=MAX_PACK_BITS)
        .contains(&w)
        .then(|| (PACK_HEADER + (n * w as usize).div_ceil(8), w))
}

/// Zig-zag delta varints over the `u32` codes of a [`ColumnVec::Coded`]
/// column. `None` for any other representation.
fn encode_codes(col: &ColumnVec) -> Option<Vec<u8>> {
    let ColumnVec::Coded(codes, _) = col else {
        return None;
    };
    let mut out = Vec::new();
    let mut prev = 0i64;
    for &c in codes {
        put_uvarint(&mut out, zigzag((c as i64).wrapping_sub(prev)));
        prev = c as i64;
    }
    Some(out)
}

fn encode_plain(col: &ColumnVec) -> Vec<u8> {
    let mut out = Vec::new();
    match col {
        ColumnVec::Bool(v) => out.extend(v.iter().map(|&b| b as u8)),
        ColumnVec::Int(v) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnVec::Double(v) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnVec::Date(v) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnVec::Str(v) => {
            for s in v {
                put_uvarint(&mut out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
        }
        ColumnVec::Coded(..) => unreachable!("coded columns are materialized before legacy codecs"),
    }
    out
}

/// RLE: sequence of (run-length varint, plain value).
fn encode_rle(col: &ColumnVec) -> Vec<u8> {
    let mut out = Vec::new();
    // `$key` is what a run compares: doubles by bits, so `-0.0` and `0.0`
    // (equal under `==`) stay apart and equal NaNs share a run
    macro_rules! rle {
        ($v:expr, $emit:expr) => {
            rle!($v, |x| x, $emit)
        };
        ($v:expr, $key:expr, $emit:expr) => {{
            let v = $v;
            let mut i = 0;
            while i < v.len() {
                let mut j = i + 1;
                #[allow(clippy::redundant_closure_call)]
                while j < v.len() && $key(&v[j]) == $key(&v[i]) {
                    j += 1;
                }
                put_uvarint(&mut out, (j - i) as u64);
                #[allow(clippy::redundant_closure_call)]
                $emit(&mut out, &v[i]);
                i = j;
            }
        }};
    }
    match col {
        ColumnVec::Bool(v) => rle!(v, |o: &mut Vec<u8>, x: &bool| o.push(*x as u8)),
        ColumnVec::Int(v) => rle!(v, |o: &mut Vec<u8>, x: &i64| o
            .extend_from_slice(&x.to_le_bytes())),
        ColumnVec::Double(v) => rle!(v, |x: &f64| x.to_bits(), |o: &mut Vec<u8>, x: &f64| o
            .extend_from_slice(&x.to_le_bytes())),
        ColumnVec::Date(v) => rle!(v, |o: &mut Vec<u8>, x: &i32| o
            .extend_from_slice(&x.to_le_bytes())),
        ColumnVec::Str(v) => rle!(v, |o: &mut Vec<u8>, x: &String| {
            put_uvarint(o, x.len() as u64);
            o.extend_from_slice(x.as_bytes());
        }),
        ColumnVec::Coded(..) => unreachable!("coded columns are materialized before legacy codecs"),
    }
    out
}

/// Dictionary coding for strings: dict size, dict entries, then per-value
/// indices of width 1/2/4 bytes depending on cardinality.
fn encode_dict(col: &ColumnVec) -> Option<Vec<u8>> {
    let ColumnVec::Str(v) = col else { return None };
    let mut dict: Vec<&String> = Vec::new();
    let mut map = std::collections::HashMap::new();
    for s in v {
        if !map.contains_key(s) {
            map.insert(s, dict.len() as u32);
            dict.push(s);
        }
    }
    // A dictionary bigger than the column never pays off.
    if dict.len() == v.len() && v.len() > 16 {
        return None;
    }
    let mut out = Vec::new();
    put_uvarint(&mut out, dict.len() as u64);
    for s in &dict {
        put_uvarint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    let width = index_width(dict.len());
    out.push(width);
    for s in v {
        let idx = map[s];
        match width {
            1 => out.push(idx as u8),
            2 => out.extend_from_slice(&(idx as u16).to_le_bytes()),
            _ => out.extend_from_slice(&idx.to_le_bytes()),
        }
    }
    Some(out)
}

pub(crate) fn index_width(card: usize) -> u8 {
    if card <= u8::MAX as usize + 1 {
        1
    } else if card <= u16::MAX as usize + 1 {
        2
    } else {
        4
    }
}

/// Delta + zig-zag varint for ints/dates (sorted keys compress superbly).
fn encode_delta(col: &ColumnVec) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    match col {
        ColumnVec::Int(v) => {
            let mut prev = 0i64;
            for &x in v {
                put_uvarint(&mut out, zigzag(x.wrapping_sub(prev)));
                prev = x;
            }
        }
        ColumnVec::Date(v) => {
            let mut prev = 0i64;
            for &x in v {
                put_uvarint(&mut out, zigzag((x as i64).wrapping_sub(prev)));
                prev = x as i64;
            }
        }
        _ => return None,
    }
    Some(out)
}

/// Widest legal [`Encoding::BitPacked`] offset: below 57 bits a value plus
/// its shift inside its first byte fits one 8-byte little-endian load.
const MAX_PACK_BITS: u32 = 56;

/// Header of an [`Encoding::BitPacked`] payload: `min: i64 LE`, `w: u8`.
const PACK_HEADER: usize = 9;

/// Frame of reference, bit-packed: the minimum, the bit width `w` of
/// `max − min`, then every offset `x − min` in `w` bits, little-endian.
/// The frame is sized from one min/max pass first, so a block that is
/// constant or too wide is refused before a byte is written.
fn encode_packed<T: Copy + Into<i64>>(v: &[T]) -> Option<Vec<u8>> {
    let (&first, _) = v.split_first()?;
    let (min, max) = v.iter().fold((first.into(), first.into()), |(lo, hi), &x| {
        let x: i64 = x.into();
        (lo.min(x), hi.max(x))
    });
    let (size, w) = packed_size(v.len(), min, max)?;
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&min.to_le_bytes());
    out.push(w as u8);
    // fewer than 64 bits are pending when an offset joins them, so at most
    // 63 + 56 are ever live; whole words leave eight bytes at a time
    let (mut acc, mut bits) = (0u128, 0u32);
    for &x in v {
        acc |= ((x.into().wrapping_sub(min) as u64) as u128) << bits;
        bits += w;
        if bits >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            bits -= 64;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
    Some(out)
}

// ---------------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------------
//
// Every decoder is a bulk kernel over the payload: the declared length is
// tied to the payload size up front (so the output can be sized exactly,
// once, without trusting a corrupt `len`), fixed-width values are read a
// whole chunk at a time, one-byte delta varints in one pass and others
// eight bytes at a time, bit-packed offsets by a kernel of the block's
// width, and runs are filled, not pushed. A
// payload must decode to exactly `len` values *and* be consumed to its
// last byte.

/// Decode a payload of `len` values of type `vtype` encoded with `enc`.
/// [`Encoding::GlobalCode`] payloads need their dictionary — use
/// [`decode_with`]; here they report corruption.
pub fn decode(buf: &[u8], enc: Encoding, vtype: ValueType, len: usize) -> Result<ColumnVec> {
    decode_with(buf, enc, vtype, len, None)
}

/// [`decode`] with the table-global dictionary of the column, required to
/// decode [`Encoding::GlobalCode`] payloads (every code is validated
/// against the dictionary before a coded vector is built).
pub fn decode_with(
    buf: &[u8],
    enc: Encoding,
    vtype: ValueType,
    len: usize,
    dict: Option<&Arc<StrDict>>,
) -> Result<ColumnVec> {
    let mut out = ColumnVec::new(vtype);
    decode_into(buf, enc, vtype, len, dict, &mut out)?;
    Ok(out)
}

/// [`decode_with`] into a caller-held column: when `out` already has the
/// representation the payload decodes to, its allocation is reused (a scan
/// decodes block after block into the same buffers); otherwise it is
/// replaced. On error the contents of `out` are unspecified.
pub fn decode_into(
    buf: &[u8],
    enc: Encoding,
    vtype: ValueType,
    len: usize,
    dict: Option<&Arc<StrDict>>,
    out: &mut ColumnVec,
) -> Result<()> {
    // Run `$kernel(buf, len, &mut vals, $arg)` over `out`'s own vector when
    // it is of the wanted variant (a fresh one otherwise), emptied, and
    // wrap the vector back up whatever the verdict.
    macro_rules! into {
        ($variant:ident, $kernel:ident $(, $arg:expr)?) => {
            into!(ColumnVec::$variant(v) => v, |v| ColumnVec::$variant(v), $kernel $(, $arg)?)
        };
        ($pat:pat => $take:expr, |$w:ident| $wrap:expr, $kernel:ident $(, $arg:expr)?) => {{
            let mut vals = match std::mem::replace(out, ColumnVec::Bool(Vec::new())) {
                $pat => $take,
                _ => Vec::new(),
            };
            vals.clear();
            let verdict = $kernel(buf, len, &mut vals $(, $arg)?);
            let $w = vals;
            *out = $wrap;
            verdict
        }};
    }
    let corrupt = |what: &str| Err(ColumnarError::Corrupt(what.into()));
    let bool_of = |[b]: [u8; 1]| b != 0;
    // a decoded date outside `i32` is corruption, never a wrapped date
    let date_of = |x: i64| {
        i32::try_from(x).map_err(|_| ColumnarError::Corrupt(format!("date {x} out of range")))
    };
    match (enc, vtype) {
        (Encoding::Plain, ValueType::Bool) => into!(Bool, plain_fixed, bool_of),
        (Encoding::Plain, ValueType::Int) => into!(Int, plain_fixed, i64::from_le_bytes),
        (Encoding::Plain, ValueType::Double) => into!(Double, plain_fixed, f64::from_le_bytes),
        (Encoding::Plain, ValueType::Date) => into!(Date, plain_fixed, i32::from_le_bytes),
        (Encoding::Plain, ValueType::Str) => into!(Str, plain_strs),
        (Encoding::Rle, ValueType::Bool) => into!(Bool, rle_runs, fixed(bool_of)),
        (Encoding::Rle, ValueType::Int) => into!(Int, rle_runs, fixed(i64::from_le_bytes)),
        (Encoding::Rle, ValueType::Double) => into!(Double, rle_runs, fixed(f64::from_le_bytes)),
        (Encoding::Rle, ValueType::Date) => into!(Date, rle_runs, fixed(i32::from_le_bytes)),
        (Encoding::Rle, ValueType::Str) => into!(Str, rle_runs, read_str),
        (Encoding::Dict, ValueType::Str) => into!(Str, dict_strs),
        (Encoding::Dict, _) => corrupt("dict codec only for strings"),
        (Encoding::DeltaVarint, ValueType::Int) => into!(Int, delta_varints, Ok),
        (Encoding::DeltaVarint, ValueType::Date) => into!(Date, delta_varints, date_of),
        (Encoding::DeltaVarint, _) => corrupt("delta codec only for ints/dates"),
        (Encoding::BitPacked, ValueType::Int) => into!(Int, bit_packed, Ok),
        // a frame inside `i32` holds only valid dates: its values narrow
        // unchecked, and only a frame leaving `i32` is checked per value
        (Encoding::BitPacked, ValueType::Date) => match PackedFrame::parse(buf, len)?.fits_i32() {
            true => into!(Date, bit_packed, |x| Ok(x as i32)),
            false => into!(Date, bit_packed, date_of),
        },
        (Encoding::BitPacked, _) => corrupt("bit-packed codec only for ints/dates"),
        (Encoding::GlobalCode, ValueType::Str) => {
            let Some(dict) = dict else {
                return corrupt("global-code payload without a dictionary");
            };
            let card = dict.len() as i64;
            let in_dict = |code: i64| {
                if (0..card).contains(&code) {
                    Ok(code as u32)
                } else {
                    Err(ColumnarError::Corrupt(format!(
                        "dictionary code {code} out of range (dict of {card})"
                    )))
                }
            };
            into!(
                ColumnVec::Coded(v, _) => v,
                |v| ColumnVec::Coded(v, dict.clone()),
                delta_varints,
                in_dict
            )
        }
        (Encoding::GlobalCode, _) => corrupt("global-code codec only for strings"),
    }
}

fn need(buf: &[u8], pos: usize, n: usize) -> Result<()> {
    // checked_add: a corrupt varint length can be near usize::MAX, and the
    // unchecked sum would wrap in release builds, defeat this bounds check,
    // and panic on the subsequent slice instead of reporting corruption.
    match pos.checked_add(n) {
        Some(end) if end <= buf.len() => Ok(()),
        _ => Err(ColumnarError::Corrupt(format!(
            "payload truncated: need {n} bytes at {pos}, have {}",
            buf.len()
        ))),
    }
}

/// The payload must end where its last value ended: encoders never leave a
/// tail, so one is corruption (a wrong `len`, or bytes from elsewhere).
fn expect_end(buf: &[u8], pos: usize) -> Result<()> {
    if pos == buf.len() {
        Ok(())
    } else {
        Err(ColumnarError::Corrupt(format!(
            "trailing bytes: payload ends at {pos} of {}",
            buf.len()
        )))
    }
}

/// `len` values of `width` bytes each must be the whole payload.
fn expect_exact(buf: &[u8], len: usize, width: usize) -> Result<()> {
    match len.checked_mul(width) {
        Some(n) if n <= buf.len() => expect_end(buf, n),
        _ => Err(ColumnarError::Corrupt(format!(
            "payload truncated: {len} values of {width} bytes, have {}",
            buf.len()
        ))),
    }
}

/// Every varint-coded value (and every length-prefixed string) takes at
/// least one byte, so a `len` beyond the payload size is corrupt — checked
/// before the output is sized from it.
fn expect_one_byte_each(buf: &[u8], len: usize) -> Result<()> {
    if len <= buf.len() {
        Ok(())
    } else {
        Err(ColumnarError::Corrupt(format!(
            "payload truncated: {len} values in {} bytes",
            buf.len()
        )))
    }
}

/// The next `N` bytes, advancing `pos`.
fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    need(buf, *pos, N)?;
    let mut bytes = [0u8; N];
    bytes.copy_from_slice(&buf[*pos..*pos + N]);
    *pos += N;
    Ok(bytes)
}

/// A reader of one fixed-width value (the value of an RLE run).
fn fixed<T, const N: usize>(
    from_le: impl Fn([u8; N]) -> T,
) -> impl Fn(&[u8], &mut usize) -> Result<T> {
    move |buf, pos| Ok(from_le(take(buf, pos)?))
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let n = get_uvarint(buf, pos)? as usize;
    need(buf, *pos, n)?;
    let s = std::str::from_utf8(&buf[*pos..*pos + n])
        .map_err(|e| ColumnarError::Corrupt(format!("invalid utf8: {e}")))?
        .to_string();
    *pos += n;
    Ok(s)
}

fn plain_fixed<T, const N: usize>(
    buf: &[u8],
    len: usize,
    out: &mut Vec<T>,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<()> {
    expect_exact(buf, len, N)?;
    out.extend(buf.as_chunks::<N>().0.iter().map(|c| from_le(*c)));
    Ok(())
}

fn plain_strs(buf: &[u8], len: usize, out: &mut Vec<String>) -> Result<()> {
    expect_one_byte_each(buf, len)?;
    out.reserve_exact(len);
    let mut pos = 0usize;
    for _ in 0..len {
        out.push(read_str(buf, &mut pos)?);
    }
    expect_end(buf, pos)
}

/// Most values an RLE output is sized for up front. A run-length payload
/// may decode to far more values than it has bytes, so `len` cannot be
/// checked against the payload before decoding; blocks up to this size are
/// still sized exactly once, a corrupt `len` reserves no more than this.
const RLE_PRESIZE: usize = 1 << 16;

fn rle_runs<T: Clone>(
    buf: &[u8],
    len: usize,
    out: &mut Vec<T>,
    read: impl Fn(&[u8], &mut usize) -> Result<T>,
) -> Result<()> {
    out.reserve_exact(len.min(RLE_PRESIZE));
    let mut pos = 0usize;
    while out.len() < len {
        let run = get_uvarint(buf, &mut pos)? as usize;
        // Reject the run *before* materializing it: a corrupt run length
        // (up to u64::MAX) must not drive a multi-GB fill just to fail the
        // length check afterwards.
        if run > len - out.len() {
            return Err(ColumnarError::Corrupt("RLE length mismatch".into()));
        }
        let x = read(buf, &mut pos)?;
        out.resize(out.len() + run, x);
    }
    expect_end(buf, pos)
}

fn dict_strs(buf: &[u8], len: usize, out: &mut Vec<String>) -> Result<()> {
    let mut pos = 0usize;
    let card = get_uvarint(buf, &mut pos)? as usize;
    expect_one_byte_each(&buf[pos..], card)?;
    let mut dict = Vec::with_capacity(card);
    for _ in 0..card {
        dict.push(read_str(buf, &mut pos)?);
    }
    let [width] = take::<1>(buf, &mut pos)?;
    let idx = &buf[pos..];
    if len == 0 {
        return expect_end(idx, 0);
    }
    let width = match width {
        1 | 2 | 4 => width as usize,
        w => return Err(ColumnarError::Corrupt(format!("bad dict width {w}"))),
    };
    expect_exact(idx, len, width)?;
    out.reserve_exact(len);
    let mut gather = |i: usize| match dict.get(i) {
        Some(s) => {
            out.push(s.clone());
            Ok(())
        }
        None => Err(ColumnarError::Corrupt(format!(
            "dict index {i} out of range"
        ))),
    };
    // one width dispatch per block; each arm is a straight gather
    match width {
        1 => idx.iter().try_for_each(|&b| gather(b as usize)),
        2 => {
            let (idx, _) = idx.as_chunks::<2>();
            idx.iter()
                .try_for_each(|c| gather(u16::from_le_bytes(*c) as usize))
        }
        _ => {
            let (idx, _) = idx.as_chunks::<4>();
            idx.iter()
                .try_for_each(|c| gather(u32::from_le_bytes(*c) as usize))
        }
    }
}

/// The continuation bit of each byte of a little-endian word.
const CONT: u64 = 0x8080_8080_8080_8080;

/// Read an unsigned varint; advances `pos`. While eight bytes remain the
/// varint is cut out of one little-endian word — its length read off the
/// continuation bits, its 7-bit groups compacted by three shift-and-mask
/// folds — with no per-byte loop or bounds check; 9- and 10-byte varints
/// and the last bytes of a payload take the checked [`get_uvarint`].
#[inline(always)]
fn get_uvarint_word(buf: &[u8], pos: &mut usize) -> Result<u64> {
    if let Some(w) = buf.get(*pos..).and_then(|rest| rest.first_chunk::<8>()) {
        if w[0] < 0x80 {
            *pos += 1;
            return Ok(w[0] as u64);
        }
        let word = u64::from_le_bytes(*w);
        let stops = !word & CONT;
        if stops != 0 {
            // `stops ^ (stops - 1)`: every bit up to the first stop bit
            let mut x = word & (stops ^ (stops - 1)) & !CONT;
            x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
            x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
            x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
            *pos += (stops.trailing_zeros() as usize >> 3) + 1;
            return Ok(x);
        }
    }
    get_uvarint(buf, pos)
}

/// Zig-zag delta varints (`DeltaVarint` and `GlobalCode` share the wire
/// form): the running sum of the decoded deltas, each passed through `put`
/// (narrowing, or the dictionary range check). The block chooser writes
/// `DeltaVarint` only when every delta after the first is one byte, and
/// codes into a dictionary of at most 64 strings step by one byte too:
/// such a payload is summed
/// in one loop with no test per byte ([`one_byte_steps`] checks it once).
/// Any other payload — codes into a large dictionary, a corrupt one —
/// takes [`delta_varints_chained`], which reaches the same
/// values and verdicts.
fn delta_varints<T: Copy + Default>(
    buf: &[u8],
    len: usize,
    out: &mut Vec<T>,
    mut put: impl FnMut(i64) -> Result<T>,
) -> Result<()> {
    let Some((first, steps)) = one_byte_steps(buf, len) else {
        return delta_varints_chained(buf, len, out, put);
    };
    out.resize(len, T::default());
    let Some((head, tail)) = out.split_first_mut() else {
        return Ok(());
    };
    let mut prev = unzigzag(first);
    *head = put(prev)?;
    let (eights, rest) = steps.as_chunks::<8>();
    let mut slots = tail.chunks_exact_mut(8);
    for (slot8, eight) in (&mut slots).zip(eights) {
        // eight one-byte zig-zag deltas at once, as signed bytes
        let w = u64::from_le_bytes(*eight);
        let d = ((w >> 1) & 0x7f7f_7f7f_7f7f_7f7f) ^ ((w & 0x0101_0101_0101_0101) * 0xff);
        for (j, slot) in slot8.iter_mut().enumerate() {
            prev = prev.wrapping_add((d >> (8 * j)) as u8 as i8 as i64);
            *slot = put(prev)?;
        }
    }
    for (slot, &b) in slots.into_remainder().iter_mut().zip(rest) {
        prev = prev.wrapping_add(unzigzag(b as u64));
        *slot = put(prev)?;
    }
    Ok(())
}

/// The first varint and the `len − 1` bytes after it, when they are the
/// whole payload and none carries a continuation bit: then every delta
/// after the first is one byte, and the payload is exactly `len` deltas.
fn one_byte_steps(buf: &[u8], len: usize) -> Option<(u64, &[u8])> {
    let mut pos = 0usize;
    let first = get_uvarint(buf, &mut pos).ok()?;
    let steps = &buf[pos..];
    let flags = steps.iter().fold(0u8, |acc, &b| acc | b);
    (steps.len().checked_add(1) == Some(len) && flags & 0x80 == 0).then_some((first, steps))
}

/// [`delta_varints`] over any payload, eight outputs at a time: when the
/// next eight payload bytes carry no continuation bit they are eight
/// single-byte deltas and are summed straight out of the word; otherwise
/// each varint is cut out of a word by [`get_uvarint_word`].
fn delta_varints_chained<T: Copy + Default>(
    buf: &[u8],
    len: usize,
    out: &mut Vec<T>,
    mut put: impl FnMut(i64) -> Result<T>,
) -> Result<()> {
    expect_one_byte_each(buf, len)?;
    out.resize(len, T::default());
    let mut pos = 0usize;
    let mut prev = 0i64;
    let mut eights = out.chunks_exact_mut(8);
    for chunk in &mut eights {
        if let Some(w) = buf.get(pos..).and_then(|rest| rest.first_chunk::<8>()) {
            if u64::from_le_bytes(*w) & CONT == 0 {
                for (slot, &b) in chunk.iter_mut().zip(w) {
                    prev = prev.wrapping_add(unzigzag(b as u64));
                    *slot = put(prev)?;
                }
                pos += 8;
                continue;
            }
        }
        for slot in chunk {
            prev = prev.wrapping_add(unzigzag(get_uvarint_word(buf, &mut pos)?));
            *slot = put(prev)?;
        }
    }
    for slot in eights.into_remainder() {
        prev = prev.wrapping_add(unzigzag(get_uvarint_word(buf, &mut pos)?));
        *slot = put(prev)?;
    }
    expect_end(buf, pos)
}

/// A checked [`Encoding::BitPacked`] frame: the minimum, the width `w` and
/// the packed offsets. [`PackedFrame::parse`] ties the payload to exactly
/// `⌈len·w/8⌉` bytes after its header before anything is read or sized.
/// Value `i` is then one 8-byte little-endian load at byte `i·w/8`,
/// shifted by `(i·w) & 7` and masked: nothing carries from one value to
/// the next, so no value waits on another's length, and any one value is
/// read alone.
struct PackedFrame<'a> {
    min: i64,
    w: usize,
    mask: u64,
    packed: &'a [u8],
}

impl<'a> PackedFrame<'a> {
    fn parse(buf: &'a [u8], len: usize) -> Result<Self> {
        let mut pos = 0usize;
        let min = i64::from_le_bytes(take(buf, &mut pos)?);
        let [w] = take::<1>(buf, &mut pos)?;
        let w = w as u32;
        if !(1..=MAX_PACK_BITS).contains(&w) {
            return Err(ColumnarError::Corrupt(format!("bad bit width {w}")));
        }
        let packed = &buf[pos..];
        match len.checked_mul(w as usize) {
            Some(bits) if bits.div_ceil(8) <= packed.len() => {
                expect_end(buf, pos + bits.div_ceil(8))?
            }
            _ => {
                return Err(ColumnarError::Corrupt(format!(
                    "payload truncated: {len} values of {w} bits, have {} bytes",
                    packed.len()
                )))
            }
        }
        Ok(PackedFrame {
            min,
            w: w as usize,
            mask: u64::MAX >> (u64::BITS - w),
            packed,
        })
    }

    /// Whether every value the frame can hold — `min` up to `min + mask` —
    /// is a valid date, so that its dates narrow without a check per value.
    fn fits_i32(&self) -> bool {
        let top = self.min as i128 + self.mask as i128;
        i32::try_from(self.min).is_ok() && top <= i32::MAX as i128
    }

    /// Value `i` (below the parsed `len`), its window zero-padded where it
    /// would cross the payload's end.
    fn at(&self, i: usize) -> i64 {
        let bit = i * self.w;
        let at = bit >> 3;
        let window = match self.packed.get(at..).and_then(<[u8]>::first_chunk) {
            Some(window) => *window,
            None => std::array::from_fn(|j| self.packed.get(at + j).copied().unwrap_or(0)),
        };
        let off = (u64::from_le_bytes(window) >> (bit & 7)) & self.mask;
        self.min.wrapping_add(off as i64)
    }
}

/// Frame-of-reference offsets ([`Encoding::BitPacked`]): the minimum plus
/// each `w`-bit offset, passed through `put` (narrowing). One match per
/// block picks the [`unpack`] kernel compiled for the frame's width.
fn bit_packed<T: Copy + Default>(
    buf: &[u8],
    len: usize,
    out: &mut Vec<T>,
    put: impl Fn(i64) -> Result<T>,
) -> Result<()> {
    let frame = PackedFrame::parse(buf, len)?;
    out.resize(len, T::default());
    let (min, packed) = (frame.min, frame.packed);
    macro_rules! by_width {
        ($($w:literal)*) => {
            match frame.w {
                $($w => unpack::<$w, T>(min, packed, out, put),)*
                // the parse refused every width outside `1..=56`
                _ => unpack::<56, T>(min, packed, out, put),
            }
        };
    }
    by_width!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28
        29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55
    )
}

/// The kernel of one width `W`: eight values take exactly `W` bytes, so
/// each group of eight is one `[u8; W]` and [`offsets`] reads it at
/// constant byte offsets, shifts and mask. `packed` holds exactly
/// `⌈out.len()·W/8⌉` bytes ([`PackedFrame::parse`] checked it); the last
/// group, cut short, is read through a zero-padded copy.
fn unpack<const W: usize, T>(
    min: i64,
    packed: &[u8],
    out: &mut [T],
    put: impl Fn(i64) -> Result<T>,
) -> Result<()> {
    let whole = out.len() / 8;
    let (groups, _) = packed.as_chunks::<W>();
    let mut eights = out.chunks_exact_mut(8);
    for (eight, group) in (&mut eights).zip(groups) {
        for (slot, off) in eight.iter_mut().zip(offsets::<W>(group)) {
            *slot = put(min.wrapping_add(off as i64))?;
        }
    }
    let rest = eights.into_remainder();
    if !rest.is_empty() {
        let tail = &packed[whole * W..];
        let mut group = [0u8; W];
        group[..tail.len()].copy_from_slice(tail);
        for (slot, off) in rest.iter_mut().zip(offsets::<W>(&group)) {
            *slot = put(min.wrapping_add(off as i64))?;
        }
    }
    Ok(())
}

/// The eight `W`-bit offsets of one group. Offset `j` starts at bit `j·W`
/// and ends inside the group, and its shift plus `W` bits fit one word:
/// the bytes from `j·W/8` to the group's end, at most eight, hold it.
#[inline(always)]
fn offsets<const W: usize>(group: &[u8; W]) -> [u64; 8] {
    let mask = u64::MAX >> (u64::BITS as usize - W);
    let mut offs = [0u64; 8];
    for (j, off) in offs.iter_mut().enumerate() {
        let (at, shift) = (j * W / 8, j * W % 8);
        let n = (W - at).min(8);
        let mut word = [0u8; 8];
        word[..n].copy_from_slice(&group[at..at + n]);
        *off = (u64::from_le_bytes(word) >> shift) & mask;
    }
    offs
}

/// [`decode_with`]'s values at `positions` — ascending, each below `len` —
/// into a caller-held column (its allocation reused as by
/// [`decode_into`]). [`Encoding::Plain`] fixed-width values and
/// [`Encoding::BitPacked`] offsets are read where they lie; every other
/// codec decodes the payload, then keeps the positions. Either way the
/// payload is checked as a full decode checks it, so the verdict is the
/// full decode's: a payload that one rejects as corrupt, this rejects.
/// Returns how many values were decoded to find them — `positions.len()`
/// when they were read in place, `len` otherwise. A position out of order
/// or out of range is [`ColumnarError::OutOfRange`]; on any error the
/// contents of `out` are unspecified.
pub fn decode_at(
    buf: &[u8],
    enc: Encoding,
    vtype: ValueType,
    len: usize,
    dict: Option<&Arc<StrDict>>,
    positions: &[usize],
    out: &mut ColumnVec,
) -> Result<usize> {
    let ascending = positions.windows(2).all(|w| w[0] < w[1]);
    if let Some(&p) = positions.last().filter(|&&p| !ascending || p >= len) {
        return Err(ColumnarError::OutOfRange {
            what: "ascending position",
            index: p as u64,
            len: len as u64,
        });
    }
    // Read `positions` through `read` into `out`'s own vector when it is
    // of the wanted variant (a fresh one otherwise).
    macro_rules! at {
        ($variant:ident, $read:expr) => {{
            let read = $read;
            let mut vals = match std::mem::replace(out, ColumnVec::Bool(Vec::new())) {
                ColumnVec::$variant(v) => v,
                _ => Vec::new(),
            };
            vals.clear();
            vals.extend(positions.iter().map(|&p| read(p)));
            *out = ColumnVec::$variant(vals);
            return Ok(positions.len());
        }};
    }
    match (enc, vtype) {
        (Encoding::Plain, ValueType::Bool) => at!(Bool, plain_at(buf, len, |[b]: [u8; 1]| b != 0)?),
        (Encoding::Plain, ValueType::Int) => at!(Int, plain_at(buf, len, i64::from_le_bytes)?),
        (Encoding::Plain, ValueType::Double) => {
            at!(Double, plain_at(buf, len, f64::from_le_bytes)?)
        }
        (Encoding::Plain, ValueType::Date) => at!(Date, plain_at(buf, len, i32::from_le_bytes)?),
        (Encoding::BitPacked, ValueType::Int) => {
            let frame = PackedFrame::parse(buf, len)?;
            at!(Int, |p| frame.at(p))
        }
        (Encoding::BitPacked, ValueType::Date) => {
            let frame = PackedFrame::parse(buf, len)?;
            // a frame leaving `i32` is judged value by value, below
            if frame.fits_i32() {
                at!(Date, |p| frame.at(p) as i32)
            }
        }
        _ => {}
    }
    decode_into(buf, enc, vtype, len, dict, out)?;
    out.keep_positions(positions);
    Ok(len)
}

/// A reader of value `i` of a payload of `len` fixed-width values, once
/// the payload is checked to be exactly that.
fn plain_at<'a, T, const N: usize>(
    buf: &'a [u8],
    len: usize,
    from_le: impl Fn([u8; N]) -> T + 'a,
) -> Result<impl Fn(usize) -> T + 'a> {
    expect_exact(buf, len, N)?;
    let values = buf.as_chunks::<N>().0;
    Ok(move |i: usize| from_le(values[i]))
}

/// Yesterday's decoders — one byte, one bounds check and one `push` per
/// value — kept as the oracle the bulk kernels are held equal to, values
/// and verdicts alike.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The old `decode_with`, plus the one rule the rewrite added: the
    /// payload must be consumed to its last byte (each decoder reports where
    /// it stopped through `end`).
    pub fn decode_with(
        buf: &[u8],
        enc: Encoding,
        vtype: ValueType,
        len: usize,
        dict: Option<&Arc<StrDict>>,
    ) -> Result<ColumnVec> {
        let mut end = 0usize;
        let end = &mut end;
        let col = match enc {
            Encoding::Plain => decode_plain(buf, vtype, len, end),
            Encoding::Rle => decode_rle(buf, vtype, len, end),
            Encoding::Dict => decode_dict(buf, vtype, len, end),
            Encoding::DeltaVarint => decode_delta(buf, vtype, len, end),
            Encoding::BitPacked => decode_packed(buf, vtype, len, end),
            Encoding::GlobalCode => {
                if vtype != ValueType::Str {
                    return Err(ColumnarError::Corrupt(
                        "global-code codec only for strings".into(),
                    ));
                }
                let dict = dict.ok_or_else(|| {
                    ColumnarError::Corrupt("global-code payload without a dictionary".into())
                })?;
                decode_codes(buf, len, dict, end)
            }
        }?;
        if *end != buf.len() {
            return Err(ColumnarError::Corrupt("trailing bytes".into()));
        }
        Ok(col)
    }

    fn decode_codes(
        buf: &[u8],
        len: usize,
        dict: &Arc<StrDict>,
        end: &mut usize,
    ) -> Result<ColumnVec> {
        let mut pos = 0usize;
        let mut v: Vec<u32> = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 1));
        let mut prev = 0i64;
        let card = dict.len() as i64;
        for _ in 0..len {
            prev = prev.wrapping_add(unzigzag(get_uvarint(buf, &mut pos)?));
            if prev < 0 || prev >= card {
                return Err(ColumnarError::Corrupt(format!(
                    "dictionary code {prev} out of range (dict of {card})"
                )));
            }
            v.push(prev as u32);
        }
        *end = pos;
        Ok(ColumnVec::Coded(v, dict.clone()))
    }

    /// Clamp an untrusted element count before `Vec::with_capacity`: never
    /// pre-reserve more elements than the remaining payload bytes could encode
    /// (`min_bytes` = smallest possible encoded size of one element). Run-length
    /// payloads may legitimately decode to more values than this; the vector
    /// then grows normally — only the up-front allocation is bounded.
    fn alloc_cap(len: usize, buf_len: usize, pos: usize, min_bytes: usize) -> usize {
        len.min(buf_len.saturating_sub(pos) / min_bytes.max(1) + 1)
    }

    fn read_i64(buf: &[u8], pos: &mut usize) -> Result<i64> {
        need(buf, *pos, 8)?;
        let v = i64::from_le_bytes(buf[*pos..*pos + 8].try_into().unwrap());
        *pos += 8;
        Ok(v)
    }

    fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
        need(buf, *pos, 8)?;
        let v = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().unwrap());
        *pos += 8;
        Ok(v)
    }

    fn read_i32(buf: &[u8], pos: &mut usize) -> Result<i32> {
        need(buf, *pos, 4)?;
        let v = i32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap());
        *pos += 4;
        Ok(v)
    }

    fn decode_plain(
        buf: &[u8],
        vtype: ValueType,
        len: usize,
        end: &mut usize,
    ) -> Result<ColumnVec> {
        let mut pos = 0usize;
        let col = match vtype {
            ValueType::Bool => {
                need(buf, 0, len)?;
                pos = len;
                ColumnVec::Bool(buf[..len].iter().map(|&b| b != 0).collect())
            }
            ValueType::Int => {
                let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 8));
                for _ in 0..len {
                    v.push(read_i64(buf, &mut pos)?);
                }
                ColumnVec::Int(v)
            }
            ValueType::Double => {
                let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 8));
                for _ in 0..len {
                    v.push(read_f64(buf, &mut pos)?);
                }
                ColumnVec::Double(v)
            }
            ValueType::Date => {
                let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 4));
                for _ in 0..len {
                    v.push(read_i32(buf, &mut pos)?);
                }
                ColumnVec::Date(v)
            }
            ValueType::Str => {
                let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 1));
                for _ in 0..len {
                    v.push(read_str(buf, &mut pos)?);
                }
                ColumnVec::Str(v)
            }
        };
        *end = pos;
        Ok(col)
    }

    fn decode_rle(buf: &[u8], vtype: ValueType, len: usize, end: &mut usize) -> Result<ColumnVec> {
        let mut pos = 0usize;
        macro_rules! runs {
            ($make:expr, $read:expr) => {{
                let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 2));
                while v.len() < len {
                    let run = get_uvarint(buf, &mut pos)? as usize;
                    // Reject the run *before* materializing it: a corrupt run
                    // length (up to u64::MAX) must not drive a multi-GB push
                    // loop just to fail the length check afterwards.
                    if run > len - v.len() {
                        return Err(ColumnarError::Corrupt("RLE length mismatch".into()));
                    }
                    #[allow(clippy::redundant_closure_call)]
                    let x = $read(buf, &mut pos)?;
                    for _ in 0..run {
                        v.push(x.clone());
                    }
                }
                #[allow(clippy::redundant_closure_call)]
                $make(v)
            }};
        }
        let col = match vtype {
            ValueType::Bool => runs!(ColumnVec::Bool, |b: &[u8], p: &mut usize| -> Result<bool> {
                need(b, *p, 1)?;
                let x = b[*p] != 0;
                *p += 1;
                Ok(x)
            }),
            ValueType::Int => runs!(ColumnVec::Int, read_i64),
            ValueType::Double => runs!(ColumnVec::Double, read_f64),
            ValueType::Date => runs!(ColumnVec::Date, read_i32),
            ValueType::Str => runs!(ColumnVec::Str, read_str),
        };
        *end = pos;
        Ok(col)
    }

    fn decode_dict(buf: &[u8], vtype: ValueType, len: usize, end: &mut usize) -> Result<ColumnVec> {
        if vtype != ValueType::Str {
            return Err(ColumnarError::Corrupt("dict codec only for strings".into()));
        }
        let mut pos = 0usize;
        let card = get_uvarint(buf, &mut pos)? as usize;
        let mut dict = Vec::with_capacity(alloc_cap(card, buf.len(), pos, 1));
        for _ in 0..card {
            dict.push(read_str(buf, &mut pos)?);
        }
        need(buf, pos, 1)?;
        let width = buf[pos];
        pos += 1;
        let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 1));
        for _ in 0..len {
            let idx = match width {
                1 => {
                    need(buf, pos, 1)?;
                    let x = buf[pos] as usize;
                    pos += 1;
                    x
                }
                2 => {
                    need(buf, pos, 2)?;
                    let x = u16::from_le_bytes(buf[pos..pos + 2].try_into().unwrap()) as usize;
                    pos += 2;
                    x
                }
                4 => {
                    need(buf, pos, 4)?;
                    let x = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
                    pos += 4;
                    x
                }
                w => return Err(ColumnarError::Corrupt(format!("bad dict width {w}"))),
            };
            let s = dict
                .get(idx)
                .ok_or_else(|| ColumnarError::Corrupt(format!("dict index {idx} out of range")))?;
            v.push(s.clone());
        }
        *end = pos;
        Ok(ColumnVec::Str(v))
    }

    fn decode_delta(
        buf: &[u8],
        vtype: ValueType,
        len: usize,
        end: &mut usize,
    ) -> Result<ColumnVec> {
        let mut pos = 0usize;
        match vtype {
            ValueType::Int => {
                let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 1));
                let mut prev = 0i64;
                for _ in 0..len {
                    prev = prev.wrapping_add(unzigzag(get_uvarint(buf, &mut pos)?));
                    v.push(prev);
                }
                *end = pos;
                Ok(ColumnVec::Int(v))
            }
            ValueType::Date => {
                let mut v = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 1));
                let mut prev = 0i64;
                for _ in 0..len {
                    prev = prev.wrapping_add(unzigzag(get_uvarint(buf, &mut pos)?));
                    v.push(narrow_date(prev)?);
                }
                *end = pos;
                Ok(ColumnVec::Date(v))
            }
            _ => Err(ColumnarError::Corrupt(
                "delta codec only for ints/dates".into(),
            )),
        }
    }

    fn narrow_date(x: i64) -> Result<i32> {
        i32::try_from(x).map_err(|_| ColumnarError::Corrupt(format!("date {x} out of range")))
    }

    /// A byte-at-a-time bit reader: whole bytes join an accumulator until
    /// it holds `w` bits, the low `w` bits are the offset.
    fn decode_packed(
        buf: &[u8],
        vtype: ValueType,
        len: usize,
        end: &mut usize,
    ) -> Result<ColumnVec> {
        if !matches!(vtype, ValueType::Int | ValueType::Date) {
            return Err(ColumnarError::Corrupt(
                "bit-packed codec only for ints/dates".into(),
            ));
        }
        let mut pos = 0usize;
        let min = read_i64(buf, &mut pos)?;
        need(buf, pos, 1)?;
        let w = buf[pos] as u32;
        pos += 1;
        if w == 0 || w > 56 {
            return Err(ColumnarError::Corrupt(format!("bad bit width {w}")));
        }
        let mut vals = Vec::with_capacity(alloc_cap(len, buf.len(), pos, 1));
        let (mut acc, mut have) = (0u64, 0u32);
        for _ in 0..len {
            while have < w {
                need(buf, pos, 1)?;
                acc |= (buf[pos] as u64) << have;
                pos += 1;
                have += 8;
            }
            vals.push(min.wrapping_add((acc & ((1u64 << w) - 1)) as i64));
            acc >>= w;
            have -= w;
        }
        *end = pos;
        Ok(match vtype {
            ValueType::Int => ColumnVec::Int(vals),
            _ => ColumnVec::Date(vals.into_iter().map(narrow_date).collect::<Result<_>>()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(col: &ColumnVec, enc: Encoding) {
        let bytes = encode(col, enc).expect("codec applies");
        let back = decode(&bytes, enc, col.vtype(), col.len()).expect("decodes");
        assert_eq!(&back, col, "roundtrip failed for {enc:?}");
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn uvarint_roundtrip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn plain_roundtrips_all_types() {
        roundtrip(&ColumnVec::Int(vec![1, -2, 3]), Encoding::Plain);
        roundtrip(&ColumnVec::Double(vec![1.5, -2.25]), Encoding::Plain);
        roundtrip(&ColumnVec::Bool(vec![true, false, true]), Encoding::Plain);
        roundtrip(&ColumnVec::Date(vec![0, 10_000, -3]), Encoding::Plain);
        roundtrip(
            &ColumnVec::Str(vec!["".into(), "abc".into(), "ü".into()]),
            Encoding::Plain,
        );
    }

    #[test]
    fn rle_roundtrips_and_compresses_runs() {
        let col = ColumnVec::Int(vec![7; 1000]);
        roundtrip(&col, Encoding::Rle);
        let rle = encode(&col, Encoding::Rle).unwrap();
        let plain = encode(&col, Encoding::Plain).unwrap();
        assert!(rle.len() < plain.len() / 100);
    }

    #[test]
    fn rle_strings() {
        let col = ColumnVec::Str(vec!["x".into(), "x".into(), "y".into()]);
        roundtrip(&col, Encoding::Rle);
    }

    #[test]
    fn dict_roundtrips_and_compresses_low_cardinality() {
        let vals: Vec<String> = (0..500).map(|i| format!("tag{}", i % 4)).collect();
        let col = ColumnVec::Str(vals);
        roundtrip(&col, Encoding::Dict);
        let d = encode(&col, Encoding::Dict).unwrap();
        let p = encode(&col, Encoding::Plain).unwrap();
        assert!(d.len() < p.len() / 2);
    }

    #[test]
    fn dict_declines_high_cardinality() {
        let vals: Vec<String> = (0..100).map(|i| format!("unique-{i}")).collect();
        assert!(encode(&ColumnVec::Str(vals), Encoding::Dict).is_none());
    }

    #[test]
    fn delta_roundtrips_and_compresses_sorted() {
        let col = ColumnVec::Int((0..4096).collect());
        roundtrip(&col, Encoding::DeltaVarint);
        let d = encode(&col, Encoding::DeltaVarint).unwrap();
        assert!(d.len() < 2 * 4096); // ~1 byte/value for deltas of 1
        roundtrip(
            &ColumnVec::Date(vec![10, 10, 11, 300]),
            Encoding::DeltaVarint,
        );
    }

    #[test]
    fn delta_handles_negatives_and_extremes() {
        roundtrip(
            &ColumnVec::Int(vec![i64::MIN, 0, i64::MAX, -1, 1]),
            Encoding::DeltaVarint,
        );
    }

    #[test]
    fn delta_date_leaving_i32_is_corrupt_not_wrapped() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, zigzag(1 << 40));
        assert_same(&buf, Encoding::DeltaVarint, ValueType::Date, 1);
        assert!(matches!(
            decode(&buf, Encoding::DeltaVarint, ValueType::Date, 1),
            Err(ColumnarError::Corrupt(_))
        ));
        // the same payload is a fine int
        assert_eq!(
            decode(&buf, Encoding::DeltaVarint, ValueType::Int, 1),
            Ok(ColumnVec::Int(vec![1 << 40]))
        );
    }

    /// A hand-built `BitPacked` payload: `min`, `w`, then the packed bytes.
    fn packed(min: i64, w: u8, bytes: &[u8]) -> Vec<u8> {
        let mut buf = min.to_le_bytes().to_vec();
        buf.push(w);
        buf.extend_from_slice(bytes);
        buf
    }

    #[test]
    fn bit_packed_dates_are_checked_where_the_frame_leaves_i32() {
        let date = |buf: &[u8], len| decode(buf, Encoding::BitPacked, ValueType::Date, len);
        let max = i32::MAX as i64;
        // frame [max − 1, max + 2]: checked per value, so a block whose
        // values stay inside `i32` still decodes, and one past it does not
        let edge = packed(max - 1, 2, &[0b1101]);
        assert_eq!(date(&edge[..], 1), Ok(ColumnVec::Date(vec![i32::MAX])));
        assert!(matches!(date(&edge[..], 2), Err(ColumnarError::Corrupt(_))));
        // a minimum below `i32::MIN` with a value at it is corrupt
        let low = packed(i32::MIN as i64 - 1, 1, &[0b10]);
        assert!(matches!(date(&low[..], 2), Err(ColumnarError::Corrupt(_))));
        assert_eq!(
            decode(&low, Encoding::BitPacked, ValueType::Int, 2).map(|c| c.len()),
            Ok(2)
        );
        for (buf, len) in [(&edge, 1), (&edge, 2), (&low, 1), (&low, 2)] {
            assert_same(buf, Encoding::BitPacked, ValueType::Date, len);
        }
    }

    #[test]
    fn bit_packed_roundtrips_at_every_width_and_offset() {
        for w in 1..=56u32 {
            // every width, from a negative base, both extremes present
            let span = (1i64 << w) - 1;
            for n in [1usize, 2, 7, 8, 9, 63, 4096] {
                let vals: Vec<i64> = (0..n as i64)
                    .map(|i| match i % 3 {
                        0 => -5,
                        1 => -5 + span,
                        _ => -5 + (i * 0x9E37_79B9) % (span + 1),
                    })
                    .collect();
                let col = ColumnVec::Int(vals);
                let bytes = encode(&col, Encoding::BitPacked);
                if n == 1 {
                    // one value is a constant block: run-length's case
                    assert_eq!(bytes, None);
                    continue;
                }
                let bytes = bytes.expect("spans up to 56 bits pack");
                assert_eq!(
                    bytes.len(),
                    9 + (n * w as usize).div_ceil(8),
                    "w {w}, {n} values"
                );
                assert_eq!(bytes[8] as u32, w);
                roundtrip(&col, Encoding::BitPacked);
                assert_same(&bytes, Encoding::BitPacked, ValueType::Int, n);
            }
        }
        roundtrip(
            &ColumnVec::Date(vec![i32::MIN, 0, i32::MAX, 7]),
            Encoding::BitPacked,
        );
    }

    #[test]
    fn bit_packed_declines_constant_and_over_wide_blocks() {
        assert_eq!(
            encode(&ColumnVec::Int(vec![9; 100]), Encoding::BitPacked),
            None
        );
        assert_eq!(encode(&ColumnVec::Int(vec![]), Encoding::BitPacked), None);
        assert_eq!(
            encode(&ColumnVec::Int(vec![0, 1 << 56]), Encoding::BitPacked),
            None,
            "57 bits"
        );
        assert_eq!(
            encode(
                &ColumnVec::Int(vec![i64::MIN, i64::MAX]),
                Encoding::BitPacked
            ),
            None
        );
        assert!(encode(&ColumnVec::Int(vec![0, (1 << 56) - 1]), Encoding::BitPacked).is_some());
        assert_eq!(
            encode(&ColumnVec::Double(vec![1.0, 2.0]), Encoding::BitPacked),
            None
        );
    }

    #[test]
    fn bit_packed_corrupt_headers_and_lengths_are_refused() {
        let bad_width = |msg: &str| Err(ColumnarError::Corrupt(msg.into()));
        for (w, msg) in [
            (0u8, "bad bit width 0"),
            (57, "bad bit width 57"),
            (255, "bad bit width 255"),
        ] {
            let buf = packed(0, w, &[0xff; 64]);
            for vt in [ValueType::Int, ValueType::Date] {
                assert_eq!(decode(&buf, Encoding::BitPacked, vt, 8), bad_width(msg));
                assert_same(&buf, Encoding::BitPacked, vt, 8);
            }
        }
        // a huge declared length is refused before the output is sized
        let buf = packed(0, 3, &[0; 3]);
        assert!(decode(&buf, Encoding::BitPacked, ValueType::Int, usize::MAX).is_err());
        assert_eq!(
            decode(&buf, Encoding::BitPacked, ValueType::Int, 8),
            Ok(ColumnVec::Int(vec![0; 8]))
        );
        // a short header
        for cut in 0..9 {
            assert!(decode(&buf[..cut], Encoding::BitPacked, ValueType::Int, 0).is_err());
        }
        // only ints and dates
        assert!(decode(&buf, Encoding::BitPacked, ValueType::Double, 8).is_err());
        // a date past i32 is corrupt, not wrapped
        let buf = packed(i32::MAX as i64, 1, &[0b10]);
        assert_same(&buf, Encoding::BitPacked, ValueType::Date, 2);
        assert!(decode(&buf, Encoding::BitPacked, ValueType::Date, 2).is_err());
        assert_eq!(
            decode(&buf, Encoding::BitPacked, ValueType::Int, 2),
            Ok(ColumnVec::Int(vec![i32::MAX as i64, i32::MAX as i64 + 1]))
        );
    }

    #[test]
    fn decode_rejects_truncated() {
        let col = ColumnVec::Int(vec![1, 2, 3]);
        let bytes = encode(&col, Encoding::Plain).unwrap();
        assert!(decode(&bytes[..5], Encoding::Plain, ValueType::Int, 3).is_err());
    }

    #[test]
    fn corrupt_varint_length_is_error_not_panic() {
        // String length claims u64::MAX bytes: `pos + n` must not wrap.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        assert!(decode(&buf, Encoding::Plain, ValueType::Str, 1).is_err());
        assert!(decode(&buf, Encoding::Rle, ValueType::Str, 1).is_err());
    }

    #[test]
    fn corrupt_rle_run_rejected_before_materializing() {
        // One run claiming u64::MAX values of 7 must fail fast, not OOM.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        buf.extend_from_slice(&7i64.to_le_bytes());
        assert_eq!(
            decode(&buf, Encoding::Rle, ValueType::Int, 3),
            Err(ColumnarError::Corrupt("RLE length mismatch".into()))
        );
    }

    #[test]
    fn corrupt_dict_cardinality_does_not_overallocate() {
        // Dictionary claims u64::MAX entries in a 10-byte payload.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        assert!(decode(&buf, Encoding::Dict, ValueType::Str, 4).is_err());
    }

    #[test]
    fn corrupt_declared_len_does_not_overallocate() {
        // Caller-declared block length is untrusted too: decoding 3 real
        // values with a huge declared len must error, not reserve GBs.
        let col = ColumnVec::Int(vec![1, 2, 3]);
        let bytes = encode(&col, Encoding::Plain).unwrap();
        assert!(decode(&bytes, Encoding::Plain, ValueType::Int, usize::MAX).is_err());
        let bytes = encode(&col, Encoding::DeltaVarint).unwrap();
        assert!(decode(&bytes, Encoding::DeltaVarint, ValueType::Int, usize::MAX).is_err());
    }

    #[test]
    fn global_code_roundtrips_with_dictionary() {
        let dict = StrDict::build(["", "a", "zz", "ü"]);
        let col = ColumnVec::Coded(vec![3, 0, 1, 1, 2], dict.clone());
        let bytes = encode(&col, Encoding::GlobalCode).unwrap();
        let back = decode_with(&bytes, Encoding::GlobalCode, ValueType::Str, 5, Some(&dict))
            .expect("decodes");
        assert_eq!(back, col);
        // without the dictionary: corruption, not a panic
        assert!(decode(&bytes, Encoding::GlobalCode, ValueType::Str, 5).is_err());
    }

    #[test]
    fn global_code_rejects_out_of_range_codes() {
        let dict = StrDict::build(["a"]);
        let mut buf = Vec::new();
        put_uvarint(&mut buf, zigzag(7)); // code 7 >= dict len 1
        assert!(decode_with(&buf, Encoding::GlobalCode, ValueType::Str, 1, Some(&dict)).is_err());
    }

    #[test]
    fn coded_columns_materialize_for_legacy_codecs() {
        let dict = StrDict::build(["a", "b"]);
        let col = ColumnVec::Coded(vec![0, 1, 1], dict);
        let bytes = encode(&col, Encoding::Plain).unwrap();
        let back = decode(&bytes, Encoding::Plain, ValueType::Str, 3).unwrap();
        assert_eq!(back, col); // value equality across representations
    }

    #[test]
    fn every_type_falls_back_to_plain() {
        for vtype in VTYPES {
            assert_eq!(Encoding::candidates(vtype).last(), Some(&Encoding::Plain));
        }
        assert!(Encoding::candidates(ValueType::Int).contains(&Encoding::DeltaVarint));
    }

    // -----------------------------------------------------------------
    // bulk kernels ≡ the byte-at-a-time oracle
    // -----------------------------------------------------------------

    const VTYPES: [ValueType; 5] = [
        ValueType::Bool,
        ValueType::Int,
        ValueType::Double,
        ValueType::Str,
        ValueType::Date,
    ];

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn test_dict() -> Arc<StrDict> {
        StrDict::build(["", "a", "dup", "é✓", "zz"])
    }

    /// Same verdict, and on `Ok` the same values in the same
    /// representation. Doubles compare by bits (arbitrary bytes decode to
    /// NaNs, which `==` would call unequal).
    fn assert_same(buf: &[u8], enc: Encoding, vt: ValueType, len: usize) {
        let dict = test_dict();
        let got = decode_with(buf, enc, vt, len, Some(&dict));
        let want = oracle::decode_with(buf, enc, vt, len, Some(&dict));
        let what = format!("{enc:?} × {vt:?}, len {len}, payload {buf:?}");
        // the positional read: the oracle's verdict, and its values gathered
        let positions: Vec<usize> = (0..len.min(10_000)).step_by(3).collect();
        let mut at = ColumnVec::new(vt);
        let got_at = decode_at(buf, enc, vt, len, Some(&dict), &positions, &mut at);
        match (&got_at, &want) {
            (Ok(_), Ok(w)) => {
                let mut gathered = w.empty_like();
                gathered.extend_gather(w, &positions);
                assert_eq!(
                    format!("{at:?}"),
                    format!("{gathered:?}"),
                    "positions: {what}"
                );
            }
            (Err(_), Err(_)) => {}
            (g, w) => panic!("verdicts differ: at {g:?}, oracle {w:?}: {what}"),
        }
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.len(), len, "length: {what}");
                assert_eq!(g.as_codes().is_some(), w.as_codes().is_some(), "{what}");
                match (&g, &w) {
                    (ColumnVec::Double(a), ColumnVec::Double(b)) => assert!(
                        a.iter()
                            .map(|x| x.to_bits())
                            .eq(b.iter().map(|x| x.to_bits())),
                        "values: {what}"
                    ),
                    _ => assert_eq!(g, w, "values: {what}"),
                }
            }
            (Err(_), Err(_)) => {}
            (g, w) => panic!("verdicts differ: kernel {g:?}, oracle {w:?}: {what}"),
        }
    }

    /// Columns of `n` values, one per value type (plus a coded one), with
    /// varints of every width in their delta encodings.
    fn sample_columns(n: usize) -> Vec<ColumnVec> {
        let mut st = 0x9E37_79B9_7F4A_7C15u64;
        let ints: Vec<i64> = (0..n)
            .map(|i| match i % 4 {
                0 => i as i64,
                1 => (xorshift(&mut st) % 300) as i64,
                2 => xorshift(&mut st) as i64 >> (xorshift(&mut st) % 64),
                _ => 7,
            })
            .collect();
        let dict = test_dict();
        vec![
            ColumnVec::Bool(ints.iter().map(|v| v % 3 == 0).collect()),
            ColumnVec::Int(ints.clone()),
            // a span narrow enough to bit-pack
            ColumnVec::Int(
                ints.iter()
                    .map(|v| v.rem_euclid(1 << 44) - (1 << 43))
                    .collect(),
            ),
            ColumnVec::Double(ints.iter().map(|&v| v as f64 * 0.25).collect()),
            ColumnVec::Date(ints.iter().map(|&v| v as i32).collect()),
            ColumnVec::Str(ints.iter().map(|v| format!("s{}", v % 300)).collect()),
            ColumnVec::Str(ints.iter().map(|v| format!("t{}", v % 70_000)).collect()),
            ColumnVec::Coded(ints.iter().map(|v| v.rem_euclid(5) as u32).collect(), dict),
        ]
    }

    #[test]
    fn kernels_match_oracle_on_short_arbitrary_payloads() {
        let mut st = 0xD1B5_4A32_D192_ED03u64;
        for plen in 0..=24usize {
            for round in 0..48 {
                let buf: Vec<u8> = (0..plen)
                    .map(|_| {
                        let b = xorshift(&mut st);
                        // bias towards small bytes so run lengths, string
                        // lengths and dictionary sizes are often satisfiable
                        match round % 3 {
                            0 => (b % 4) as u8,
                            1 => (b % 130) as u8,
                            _ => b as u8,
                        }
                    })
                    .collect();
                for enc in Encoding::ALL {
                    for vt in VTYPES {
                        for len in [0usize, 1, 2, 3, 7, 8, 9, 24, 25, usize::MAX] {
                            // a run length may legitimately be as large as
                            // the declared length: no codec can refuse it
                            // before filling, so RLE takes honest lengths
                            if enc == Encoding::Rle && len == usize::MAX {
                                continue;
                            }
                            assert_same(&buf, enc, vt, len);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernels_match_oracle_around_the_block_size_and_at_every_prefix() {
        for n in [4095usize, 4096, 4097] {
            for col in sample_columns(n) {
                for enc in Encoding::ALL {
                    let Some(bytes) = encode(&col, enc) else {
                        continue;
                    };
                    let dict = col.dict().cloned();
                    let back = decode_with(&bytes, enc, col.vtype(), n, dict.as_ref())
                        .expect("valid payload decodes");
                    assert_eq!(back, col, "{enc:?} × {:?}, {n} values", col.vtype());
                    assert_same(&bytes, enc, col.vtype(), n);
                    // a wrong declared length is the oracle's call too
                    assert_same(&bytes, enc, col.vtype(), n - 1);
                    assert_same(&bytes, enc, col.vtype(), n + 1);
                }
            }
        }
        // truncation at every prefix (shorter columns keep this quadratic
        // sweep quick; 70 values still cross several eight-value words)
        for col in sample_columns(70) {
            for enc in Encoding::ALL {
                let Some(bytes) = encode(&col, enc) else {
                    continue;
                };
                for cut in 0..bytes.len() {
                    assert_same(&bytes[..cut], enc, col.vtype(), col.len());
                }
            }
        }
    }

    /// `bytes` continuation bytes then a final byte: a varint of
    /// `bytes + 1` bytes.
    fn long_varint(bytes: usize) -> Vec<u8> {
        let mut v = vec![0x81u8; bytes];
        v.push(0x01);
        v
    }

    #[test]
    fn nine_and_ten_byte_varints_decode_the_eleventh_byte_is_corrupt() {
        let too_long = Err(ColumnarError::Corrupt("varint too long".into()));
        for width in [9usize, 10, 11] {
            // alone, and after enough single-byte values that the varint
            // starts inside, at the edge of and past an eight-byte word
            for lead in [0usize, 1, 7, 8, 9, 15] {
                for tail in [0usize, 1, 8, 12] {
                    let mut buf = vec![0x02u8; lead];
                    buf.extend(long_varint(width - 1));
                    buf.extend(vec![0x02u8; tail]);
                    let len = lead + 1 + tail;
                    for (enc, vt) in [
                        (Encoding::DeltaVarint, ValueType::Int),
                        (Encoding::DeltaVarint, ValueType::Date),
                    ] {
                        assert_same(&buf, enc, vt, len);
                        let got = decode(&buf, enc, vt, len);
                        if width == 11 {
                            assert_eq!(got, too_long, "{enc:?} lead {lead} tail {tail}");
                        } else if vt == ValueType::Int {
                            assert!(got.is_ok(), "{width}-byte varint: {got:?}");
                        } else {
                            // the varint decodes; its running sum leaves i32
                            assert!(
                                matches!(&got, Err(ColumnarError::Corrupt(m)) if m.contains("out of range")),
                                "{width}-byte date delta: {got:?}"
                            );
                        }
                    }
                }
            }
            // the other places a varint is read first: run lengths, string
            // lengths, dictionary sizes, global codes
            let v = long_varint(width - 1);
            let dict = test_dict();
            for enc in Encoding::ALL {
                for vt in VTYPES {
                    assert_same(&v, enc, vt, 1);
                }
            }
            if width == 11 {
                for (enc, vt) in [
                    (Encoding::Plain, ValueType::Str),
                    (Encoding::Rle, ValueType::Int),
                    (Encoding::Rle, ValueType::Str),
                    (Encoding::Dict, ValueType::Str),
                    (Encoding::GlobalCode, ValueType::Str),
                ] {
                    let got = decode_with(&v, enc, vt, 1, Some(&dict));
                    assert_eq!(got, too_long, "{enc:?} × {vt:?}");
                }
            }
        }
    }

    /// One test per codec: a valid payload with a byte left over is
    /// corrupt, whatever the byte.
    fn assert_trailing_rejected(col: &ColumnVec, enc: Encoding) {
        let mut bytes = encode(col, enc).expect("codec applies");
        let dict = col.dict().cloned();
        assert!(decode_with(&bytes, enc, col.vtype(), col.len(), dict.as_ref()).is_ok());
        for extra in [0u8, 1, 0x80, 0xff] {
            bytes.push(extra);
            match decode_with(&bytes, enc, col.vtype(), col.len(), dict.as_ref()) {
                Err(ColumnarError::Corrupt(msg)) => {
                    assert!(msg.starts_with("trailing bytes"), "{enc:?}: {msg}")
                }
                other => panic!("{enc:?} × {:?}: tail accepted: {other:?}", col.vtype()),
            }
            bytes.pop();
        }
    }

    #[test]
    fn plain_rejects_trailing_bytes() {
        for col in sample_columns(9) {
            assert_trailing_rejected(&col, Encoding::Plain);
        }
        // an empty block has no bytes at all
        assert!(decode(&[0], Encoding::Plain, ValueType::Int, 0).is_err());
    }

    #[test]
    fn rle_rejects_trailing_bytes() {
        for col in sample_columns(9) {
            assert_trailing_rejected(&col, Encoding::Rle);
        }
        // a zero-length run after the last value is a tail too
        let mut bytes = encode(&ColumnVec::Int(vec![5; 3]), Encoding::Rle).unwrap();
        bytes.push(0);
        bytes.extend_from_slice(&9i64.to_le_bytes());
        assert!(decode(&bytes, Encoding::Rle, ValueType::Int, 3).is_err());
    }

    #[test]
    fn dict_rejects_trailing_bytes() {
        assert_trailing_rejected(
            &ColumnVec::Str(vec!["x".into(), "y".into(), "x".into()]),
            Encoding::Dict,
        );
        // wide indices: 300 distinct strings among 700 values
        let wide = ColumnVec::Str((0..700).map(|i| format!("w{}", i % 300)).collect());
        assert_trailing_rejected(&wide, Encoding::Dict);
    }

    #[test]
    fn delta_rejects_trailing_bytes() {
        assert_trailing_rejected(&ColumnVec::Int((0..20).collect()), Encoding::DeltaVarint);
        assert_trailing_rejected(
            &ColumnVec::Int(vec![i64::MIN, 0, i64::MAX]),
            Encoding::DeltaVarint,
        );
        assert_trailing_rejected(&ColumnVec::Date(vec![3, 1, 4, 1, 5]), Encoding::DeltaVarint);
    }

    #[test]
    fn bit_packed_rejects_trailing_bytes() {
        assert_trailing_rejected(
            &ColumnVec::Int((0..20).map(|i| i * i).collect()),
            Encoding::BitPacked,
        );
        // 8 × 7 bits end on a byte boundary; 5 × 3 bits do not
        assert_trailing_rejected(
            &ColumnVec::Int((0..8).map(|i| i * 18).collect()),
            Encoding::BitPacked,
        );
        assert_trailing_rejected(&ColumnVec::Date(vec![3, 1, 4, 1, 5]), Encoding::BitPacked);
    }

    /// `offsets` packed `w` bits each after a `BitPacked` header: the
    /// frame the encoder would write, built bit by bit.
    fn pack_bits(min: i64, w: u32, offsets: &[u64]) -> Vec<u8> {
        let mut bytes = vec![0u8; (offsets.len() * w as usize).div_ceil(8)];
        for (i, &off) in offsets.iter().enumerate() {
            for bit in 0..w as usize {
                let at = i * w as usize + bit;
                bytes[at / 8] |= (((off >> bit) & 1) as u8) << (at % 8);
            }
        }
        packed(min, w as u8, &bytes)
    }

    #[test]
    fn bit_packed_kernels_match_oracle_at_every_width_and_length() {
        let mut st = 0x2545_F491_4F6C_DD1Du64;
        for w in 1..=56u32 {
            let mask = u64::MAX >> (64 - w);
            for len in [0usize, 1, 7, 8, 9, 4095, 4096] {
                let offsets: Vec<u64> = (0..len).map(|_| xorshift(&mut st) & mask).collect();
                // Int: any frame
                let buf = pack_bits(-5, w, &offsets);
                assert_same(&buf, Encoding::BitPacked, ValueType::Int, len);
                // Date, a frame inside `i32`: narrowed unchecked
                if w <= 31 {
                    let buf = pack_bits(-1000, w, &offsets);
                    assert_same(&buf, Encoding::BitPacked, ValueType::Date, len);
                    assert_same(&buf, Encoding::BitPacked, ValueType::Int, len);
                }
                // Date, a frame leaving `i32`: checked value by value, so
                // values inside `i32` decode and one past it is corrupt
                let min = (i32::MAX as i64 - (mask / 2) as i64).max(i64::MIN / 2);
                let lo = (i32::MIN as i64).max(min);
                let span = (i32::MAX as i64 - lo) as u64 + 1;
                let mut inside: Vec<u64> = (0..len)
                    .map(|_| (lo - min) as u64 + xorshift(&mut st) % span)
                    .collect();
                let buf = pack_bits(min, w, &inside);
                assert_same(&buf, Encoding::BitPacked, ValueType::Date, len);
                if let Some(last) = inside.last_mut() {
                    *last = mask;
                    let buf = pack_bits(min, w, &inside);
                    assert_same(&buf, Encoding::BitPacked, ValueType::Date, len);
                    assert!(decode(&buf, Encoding::BitPacked, ValueType::Date, len).is_err());
                }
            }
        }
    }

    /// A `DeltaVarint` / `GlobalCode` payload as the encoders write it
    /// when every delta after the first is one byte: the first value's
    /// varint, then one zig-zag byte per step.
    fn one_byte_block(first: i64, steps: &[i64]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, zigzag(first));
        for &d in steps {
            assert!((-64..64).contains(&d), "one-byte step {d}");
            buf.push(zigzag(d) as u8);
        }
        buf
    }

    #[test]
    fn one_byte_delta_blocks_match_oracle_and_planted_continuations_fall_back() {
        let mut st = 0x9FB2_1C65_1E98_DF25u64;
        let steps: Vec<i64> = (0..69)
            .map(|_| (xorshift(&mut st) % 128) as i64 - 64)
            .collect();
        let codes: Vec<i64> = (0..69).map(|i| [1, -1, 3, -3, 0][i % 5]).collect();
        use Encoding::{DeltaVarint, GlobalCode};
        let cases = [
            (one_byte_block(1 << 40, &steps), DeltaVarint, ValueType::Int),
            (one_byte_block(-7, &steps), DeltaVarint, ValueType::Int),
            (one_byte_block(20_000, &steps), DeltaVarint, ValueType::Date),
            (one_byte_block(1, &codes), GlobalCode, ValueType::Str),
        ];
        let dict = test_dict();
        for (buf, enc, vt) in cases {
            let len = 70;
            let full = decode_with(&buf, enc, vt, len, Some(&dict));
            assert!(full.is_ok(), "{enc:?} × {vt:?}: {full:?}");
            for n in [len - 1, len, len + 1] {
                assert_same(&buf, enc, vt, n);
            }
            // a payload one byte long or one byte short
            let mut long = buf.clone();
            long.push(2);
            assert_same(&long, enc, vt, len);
            assert!(decode_with(&long, enc, vt, len, Some(&dict)).is_err());
            assert_same(&buf[..buf.len() - 1], enc, vt, len);
            assert!(decode_with(&buf[..buf.len() - 1], enc, vt, len, Some(&dict)).is_err());
            // a continuation bit at every offset: no longer one byte per
            // step, so the general path decides, as the oracle does
            for at in 0..buf.len() {
                let mut planted = buf.clone();
                planted[at] |= 0x80;
                for n in [len - 1, len] {
                    assert_same(&planted, enc, vt, n);
                }
            }
        }
    }

    #[test]
    fn one_byte_delta_blocks_check_every_value() {
        let dict = test_dict();
        // a date that leaves `i32` part way through the block
        let buf = one_byte_block(i32::MAX as i64 - 3, &[1; 9]);
        assert_same(&buf, Encoding::DeltaVarint, ValueType::Date, 10);
        assert_eq!(
            decode(&buf, Encoding::DeltaVarint, ValueType::Date, 10),
            Err(ColumnarError::Corrupt(format!(
                "date {} out of range",
                i32::MAX as i64 + 1
            )))
        );
        // and one below `i32::MIN`
        let buf = one_byte_block(i32::MIN as i64 + 1, &[-1; 9]);
        assert_same(&buf, Encoding::DeltaVarint, ValueType::Date, 10);
        assert!(decode(&buf, Encoding::DeltaVarint, ValueType::Date, 10).is_err());
        // a code past the dictionary's five strings, and one below zero
        for steps in [&[1i64; 9][..], &[-1; 9][..]] {
            let buf = one_byte_block(2, steps);
            assert_same(&buf, Encoding::GlobalCode, ValueType::Str, 10);
            assert!(
                decode_with(&buf, Encoding::GlobalCode, ValueType::Str, 10, Some(&dict)).is_err()
            );
        }
    }

    #[test]
    fn encodings_are_listed_in_tag_order() {
        for (tag, &enc) in Encoding::ALL.iter().enumerate() {
            assert_eq!(enc as usize, tag, "{enc:?}");
        }
    }

    #[test]
    fn global_code_rejects_trailing_bytes() {
        let col = ColumnVec::Coded(vec![4, 0, 0, 3, 1, 2, 2, 2, 4, 0, 1], test_dict());
        assert_trailing_rejected(&col, Encoding::GlobalCode);
    }

    #[test]
    fn decode_into_reuses_a_matching_buffer_and_replaces_a_mismatched_one() {
        let a = ColumnVec::Int((0..4096).collect());
        let b = ColumnVec::Int((0..1000).map(|i| i * 3).collect());
        let (pa, pb) = (
            encode(&a, Encoding::DeltaVarint).unwrap(),
            encode(&b, Encoding::Plain).unwrap(),
        );
        let mut buf = ColumnVec::new(ValueType::Int);
        decode_into(
            &pa,
            Encoding::DeltaVarint,
            ValueType::Int,
            4096,
            None,
            &mut buf,
        )
        .unwrap();
        assert_eq!(buf, a);
        let held = buf.as_int().as_ptr();
        decode_into(&pb, Encoding::Plain, ValueType::Int, 1000, None, &mut buf).unwrap();
        assert_eq!(buf, b);
        assert_eq!(buf.as_int().as_ptr(), held, "same allocation, refilled");
        // another representation: replaced, whichever way round
        let dict = test_dict();
        let c = ColumnVec::Coded(vec![1, 1, 4], dict.clone());
        let pc = encode(&c, Encoding::GlobalCode).unwrap();
        decode_into(
            &pc,
            Encoding::GlobalCode,
            ValueType::Str,
            3,
            Some(&dict),
            &mut buf,
        )
        .unwrap();
        assert_eq!(buf.as_codes(), Some(&[1u32, 1, 4][..]));
        let d = ColumnVec::Str(vec!["p".into(), "q".into()]);
        let pd = encode(&d, Encoding::Plain).unwrap();
        decode_into(
            &pd,
            Encoding::Plain,
            ValueType::Str,
            2,
            Some(&dict),
            &mut buf,
        )
        .unwrap();
        assert_eq!(buf.as_str(), &["p".to_string(), "q".to_string()]);
        // a failed decode is an error, not a half-filled success
        assert!(decode_into(
            &pa[..100],
            Encoding::DeltaVarint,
            ValueType::Int,
            4096,
            None,
            &mut buf
        )
        .is_err());
    }
}
