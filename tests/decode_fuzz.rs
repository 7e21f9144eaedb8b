//! Decode paths must never panic on arbitrary input.
//!
//! With checkpoint images persisted to disk, every byte reaching
//! `columnar::compress::decode` and `columnar::image::decode_image` is
//! untrusted: a corrupt or truncated file must surface as
//! `ColumnarError::Corrupt`, never as a panic, a wrapped bounds check, or a
//! multi-GB allocation. The fixed-seed proptest shim makes every CI run
//! exercise identical inputs.

use columnar::compress::{decode, decode_with, encode};
use columnar::image::{decode_image, encode_image};
use columnar::{
    ColumnVec, Encoding, IoTracker, Schema, StableTable, StrDict, TableMeta, TableOptions, Value,
    ValueType,
};
use proptest::prelude::*;

const VTYPES: [ValueType; 5] = [
    ValueType::Bool,
    ValueType::Int,
    ValueType::Double,
    ValueType::Str,
    ValueType::Date,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes through every (encoding, value type) decode path:
    /// the result may be Ok or Err but the call must return.
    #[test]
    fn decode_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        len in 0usize..1025,
    ) {
        for enc in Encoding::ALL {
            for vt in VTYPES {
                let _ = decode(&bytes, enc, vt, len);
            }
        }
        prop_assert!(true);
    }

    /// Valid encodings with one byte flipped (and every truncation of the
    /// flipped buffer's length class) must decode to Ok or Err, not panic.
    /// Where decoding succeeds the output length must still be honest.
    #[test]
    fn corrupt_one_byte_roundtrips_never_panic(
        ints in prop::collection::vec(any::<i64>(), 1..64),
        flip in any::<u8>(),
        pos_sel in any::<u64>(),
    ) {
        let cols = [
            ColumnVec::Int(ints.clone()),
            ColumnVec::Date(ints.iter().map(|&v| v as i32).collect()),
            ColumnVec::Double(ints.iter().map(|&v| v as f64 * 0.5).collect()),
            ColumnVec::Bool(ints.iter().map(|&v| v % 2 == 0).collect()),
            ColumnVec::Str(ints.iter().map(|&v| format!("s{}", v % 5)).collect()),
        ];
        for col in &cols {
            for enc in Encoding::ALL {
                let Some(mut bytes) = encode(col, enc) else { continue };
                if bytes.is_empty() {
                    continue;
                }
                let pos = (pos_sel % bytes.len() as u64) as usize;
                bytes[pos] ^= flip | 1; // always change at least one bit
                if let Ok(back) = decode(&bytes, enc, col.vtype(), col.len()) {
                    prop_assert_eq!(back.len(), col.len());
                }
                let _ = decode(&bytes[..pos], enc, col.vtype(), col.len());
            }
        }
    }

    /// Every proper prefix of a valid payload — under its true length — is
    /// `Corrupt`: the bulk decoders tie the declared length to the payload
    /// size before they size their output and check the payload's end
    /// after, so no truncation point may slip through either check (or
    /// panic in a word-wide read near the cut). One byte *more* than the
    /// payload is corrupt too.
    #[test]
    fn every_truncated_prefix_is_corrupt(
        ints in prop::collection::vec(any::<i64>(), 1..48),
        shift in 0u32..64,
    ) {
        // `>> shift` mixes varint widths from one byte to ten
        let ints: Vec<i64> = ints.iter().map(|&v| v >> shift).collect();
        let dict = StrDict::build(["", "a", "dup", "é✓", "zz"]);
        let cols = [
            ColumnVec::Int(ints.clone()),
            ColumnVec::Date(ints.iter().map(|&v| v as i32).collect()),
            ColumnVec::Double(ints.iter().map(|&v| v as f64 * 0.5).collect()),
            ColumnVec::Bool(ints.iter().map(|&v| v % 2 == 0).collect()),
            ColumnVec::Str(ints.iter().map(|&v| format!("s{}", v % 5)).collect()),
            ColumnVec::Coded(ints.iter().map(|&v| v.rem_euclid(5) as u32).collect(), dict.clone()),
        ];
        for col in &cols {
            for enc in Encoding::ALL {
                let Some(mut bytes) = encode(col, enc) else { continue };
                let dict = col.dict();
                let full = decode_with(&bytes, enc, col.vtype(), col.len(), dict);
                prop_assert_eq!(full.as_ref(), Ok(col), "{:?} roundtrip", enc);
                for cut in 0..bytes.len() {
                    let got = decode_with(&bytes[..cut], enc, col.vtype(), col.len(), dict);
                    prop_assert!(
                        got.is_err(),
                        "{:?} × {:?}: prefix {} of {} decoded",
                        enc, col.vtype(), cut, bytes.len()
                    );
                }
                bytes.push(0);
                let got = decode_with(&bytes, enc, col.vtype(), col.len(), dict);
                prop_assert!(got.is_err(), "{:?} × {:?}: trailing byte accepted", enc, col.vtype());
            }
        }
    }

    /// [`Encoding::BitPacked`] at every width it takes: a valid payload
    /// round-trips; every proper prefix, a declared length of
    /// `usize::MAX` and a width byte of 0, 57 or 255 are `Corrupt` — the
    /// payload size is tied to `len · w` before the output is sized, so
    /// none of them allocates or reads past the payload.
    #[test]
    fn bit_packed_payloads_are_checked_before_they_are_read(
        vals in prop::collection::vec(any::<i64>(), 2..80),
        width in 1u32..57,
        base in any::<i64>(),
    ) {
        let mask = u64::MAX >> (64 - width);
        let ints: Vec<i64> = vals.iter().map(|&v| base.wrapping_add((v as u64 & mask) as i64)).collect();
        let col = ColumnVec::Int(ints);
        let Some(bytes) = encode(&col, Encoding::BitPacked) else {
            // every value landed on one offset: a constant block
            return Ok(());
        };
        prop_assert!(bytes[8] as u32 <= width);
        prop_assert_eq!(decode(&bytes, Encoding::BitPacked, ValueType::Int, col.len()), Ok(col.clone()));
        for cut in 0..bytes.len() {
            let got = decode(&bytes[..cut], Encoding::BitPacked, ValueType::Int, col.len());
            prop_assert!(got.is_err(), "prefix {} of {} decoded", cut, bytes.len());
        }
        for vt in [ValueType::Int, ValueType::Date] {
            prop_assert!(decode(&bytes, Encoding::BitPacked, vt, usize::MAX).is_err());
        }
        for w in [0u8, 57, 255] {
            let mut bad = bytes.clone();
            bad[8] = w;
            for vt in [ValueType::Int, ValueType::Date] {
                prop_assert!(decode(&bad, Encoding::BitPacked, vt, col.len()).is_err(), "width {}", w);
            }
        }
    }

    /// Arbitrary bytes (raw, and spliced behind a valid image header) must
    /// never panic the image loader.
    #[test]
    fn image_decode_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        flip in any::<u8>(),
        pos_sel in any::<u64>(),
    ) {
        let io = IoTracker::new();
        let _ = decode_image(&bytes, &io);

        let meta = TableMeta::new(
            "fz",
            Schema::from_pairs(&[("k", ValueType::Int), ("s", ValueType::Str)]),
            vec![0],
        );
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Str(format!("v{}", i % 3))])
            .collect();
        let table = StableTable::bulk_load(
            meta,
            TableOptions {
                block_rows: 32,
                compressed: true,
            },
            &rows,
        )
        .unwrap();
        let mut img = encode_image(&table, 1);
        let pos = (pos_sel % img.len() as u64) as usize;
        img[pos] ^= flip | 1;
        let _ = decode_image(&img, &io);
        let _ = decode_image(&img[..pos], &io);
    }

    /// The dictionary code path ([`Encoding::GlobalCode`]) under the same
    /// contract: arbitrary bytes and bit-flipped valid payloads through
    /// `decode_with` — with the right dictionary, a too-small one, and none
    /// at all — must return Ok or Err, never panic. Codes out of range of
    /// the supplied dictionary must be rejected, not built into a coded
    /// vector that would index past its end later.
    #[test]
    fn global_code_decode_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        flip in any::<u8>(),
        pos_sel in any::<u64>(),
    ) {
        let dict = StrDict::build(["", "a", "dup", "é✓", "zz"]);
        let small = StrDict::build(["only"]);
        for len in [0usize, 1, 64, 1024] {
            let _ = decode_with(&bytes, Encoding::GlobalCode, ValueType::Str, len, Some(&dict));
            let _ = decode_with(&bytes, Encoding::GlobalCode, ValueType::Str, len, None);
        }
        // a valid coded column, then corrupted
        let mut col = ColumnVec::new_coded(dict.clone());
        for s in ["dup", "dup", "", "zz", "é✓", "a", "dup"] {
            col.push(&Value::Str(s.to_string()));
        }
        let Some(mut enc) = encode(&col, Encoding::GlobalCode) else {
            return Err("GlobalCode refused a coded column".to_string());
        };
        let back = decode_with(&enc, Encoding::GlobalCode, ValueType::Str, col.len(), Some(&dict));
        prop_assert!(back.is_ok(), "clean roundtrip failed: {:?}", back.err());
        // decoding against a dictionary that cannot hold the codes must
        // error (never panic, never hand out dangling codes)
        let wrong = decode_with(&enc, Encoding::GlobalCode, ValueType::Str, col.len(), Some(&small));
        prop_assert!(wrong.is_err(), "codes past the dictionary end were accepted");
        if !enc.is_empty() {
            let pos = (pos_sel % enc.len() as u64) as usize;
            enc[pos] ^= flip | 1;
            if let Ok(col2) = decode_with(&enc, Encoding::GlobalCode, ValueType::Str, col.len(), Some(&dict)) {
                prop_assert_eq!(col2.len(), col.len());
            }
            let _ = decode_with(&enc[..pos], Encoding::GlobalCode, ValueType::Str, col.len(), Some(&dict));
        }
    }

    /// Dictionary-encoded string columns must survive the full persistence
    /// cycle losslessly: encode → image bytes → load → decode must be the
    /// identity on the logical rows — including empty strings, heavy
    /// duplication, and non-ASCII — and the loaded table must still carry
    /// a dictionary for the string column.
    #[test]
    fn dict_image_roundtrip_is_identity(
        strs in prop::collection::vec(
            prop_oneof![
                2 => Just(String::new()),
                3 => (0u64..4).prop_map(|i| format!("dup{i}")),
                3 => (0u64..1000).prop_map(|i| format!("s{i}")),
                2 => (0u64..5).prop_map(|i| format!("é✓{i}日本語")),
            ],
            1..200,
        ),
        block_rows in 1usize..70,
    ) {
        let io = IoTracker::new();
        let meta = TableMeta::new(
            "ident",
            Schema::from_pairs(&[("k", ValueType::Int), ("s", ValueType::Str)]),
            vec![0],
        );
        let rows: Vec<Vec<Value>> = strs
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Int(i as i64), Value::Str(s.clone())])
            .collect();
        let table = StableTable::bulk_load(
            meta,
            TableOptions { block_rows, compressed: true },
            &rows,
        )
        .map_err(|e| format!("bulk_load: {e}"))?;
        prop_assert!(
            table.column_dict(1).is_some(),
            "compressed string column lost its dictionary before persisting"
        );
        let img = encode_image(&table, 7);
        let (loaded, seq) = decode_image(&img, &io).map_err(|e| format!("decode_image: {e}"))?;
        prop_assert_eq!(seq, 7);
        prop_assert!(
            loaded.column_dict(1).is_some(),
            "loaded image lost the string dictionary"
        );
        let got = loaded.scan_all(&io).map_err(|e| format!("scan_all: {e}"))?;
        prop_assert_eq!(got, rows);
    }
}
