//! Which codec lineitem's date columns get. Ship, commit and receipt dates
//! are an order date plus 1–121 days, so their zig-zag deltas mix one- and
//! two-byte varints. Such a block decodes through a varint length chain,
//! several times slower than bit-packed offsets, so the block chooser
//! bit-packs it even though varint deltas would be a few percent smaller. The
//! rule must hold after a bulk load and after refreshes are checkpointed,
//! because both go through `Block::encode`.

use columnar::{Encoding, StableTable};
use engine::{Database, TableOptions};
use tpch::{apply_rf1, apply_rf2, RefreshStreams, TPCH_TABLES};

const SF: f64 = 0.002;
const DATES: [&str; 3] = ["l_shipdate", "l_commitdate", "l_receiptdate"];

/// Whether a varint-delta payload's varints after the first are one byte
/// each: no continuation bit past the first varint's last byte.
fn deltas_fit_a_byte(bytes: &[u8]) -> bool {
    let first_end = bytes.iter().position(|&b| b < 0x80).map_or(0, |i| i + 1);
    bytes[first_end..].iter().all(|&b| b < 0x80)
}

fn stables(db: &Database, table: &str) -> Vec<std::sync::Arc<StableTable>> {
    let t = db.table(table).unwrap();
    t.partitions().iter().map(|p| p.stable()).collect()
}

fn assert_codecs(db: &Database, when: &str) {
    for table in TPCH_TABLES {
        for (p, stable) in stables(db, table).iter().enumerate() {
            for c in 0..stable.num_columns() {
                let name = &stable.schema().field(c).name;
                for (b, blk) in stable.column_blocks(c).iter().enumerate() {
                    let at = format!("{when}: {table}.{name} partition {p} block {b}");
                    if blk.encoding == Encoding::DeltaVarint {
                        assert!(deltas_fit_a_byte(&blk.payload), "{at}: multi-byte delta");
                    }
                    if table == "lineitem" && DATES.contains(&name.as_str()) {
                        assert_eq!(blk.encoding, Encoding::BitPacked, "{at}");
                    }
                }
            }
        }
    }
}

#[test]
fn lineitem_dates_are_bit_packed_after_load_and_checkpoint() {
    let data = tpch::generate(SF);
    let db = tpch::load_database_partitioned(&data, TableOptions::default(), 2);
    assert_codecs(&db, "bulk load");

    let streams = RefreshStreams::build(&data, 1.0);
    apply_rf1(&db, &streams, 16).unwrap();
    apply_rf2(&db, &streams, 16).unwrap();
    for table in ["orders", "lineitem"] {
        assert!(
            db.checkpoint(table).unwrap(),
            "{table}: nothing to checkpoint"
        );
    }
    assert_codecs(&db, "RF1 + RF2 + checkpoint");
}
