//! # TPC-H substrate
//!
//! Everything the paper's §4 TPC-H experiments need, built from scratch:
//!
//! * [`schema`] — the 8 TPC-H tables with the paper's physical sort orders
//!   (`lineitem` on (l_orderkey, l_linenumber), `orders` on
//!   (o_orderdate, o_orderkey) — which makes refresh-stream inserts
//!   scatter),
//! * [`gen`] — a deterministic dbgen-style generator for any scale factor,
//!   using dbgen's *sparse order keys* (8 of every 32 key slots) so that
//!   refresh inserts land scattered through `lineitem` too,
//! * [`refresh`] — the RF1 (new orders) / RF2 (old orders) update streams,
//!   each touching ~0.1 % of `orders`/`lineitem` per stream, written once
//!   against the engine's unified transactional API (the table's update
//!   policy — PDT or VDT — is chosen at load time),
//! * [`queries`] — all 22 TPC-H queries hand-planned against the
//!   block-oriented executor, with the spec's default substitution
//!   parameters.
//!
//! The experiments run at laptop scale factors (0.01–0.1); the paper's
//! effects depend on update *fractions* and column shapes, not absolute SF.

pub mod gen;
pub mod queries;
pub mod refresh;
pub mod schema;

pub use gen::{generate, TpchData};
pub use refresh::{apply_rf1, apply_rf2, stage_rf1_chunk, stage_rf2_chunk, RefreshStreams};
pub use schema::{table_meta, TPCH_TABLES};

use engine::{Database, PartitionSpec, TableOptions};

/// Load generated TPC-H data into a fresh engine database. The update
/// policy in `opts` decides which differential structure maintains every
/// table (the paper's PDT-vs-VDT axis). The rows are lent to
/// [`Database::create_table`], which reads them where they lie: `data` is
/// never copied whole, not even to sort the tables that arrive out of
/// sort-key order (`orders`).
pub fn load_database(data: &TpchData, opts: TableOptions) -> Database {
    let db = Database::new();
    for (name, rows) in data.tables() {
        db.create_table(schema::table_meta(name), opts.clone(), rows)
            .expect("bulk load");
    }
    db
}

/// [`load_database`] with the two refresh-heavy tables (`lineitem` and
/// `orders`) range-partitioned into `parts` equi-depth slices — how
/// VectorWise deploys PDTs at scale. The RF1/RF2 streams route through
/// the partition layer unchanged; the small dimension tables stay
/// single-partition. Like [`load_database`], it lends `data`'s rows to
/// the load rather than copying them.
pub fn load_database_partitioned(data: &TpchData, opts: TableOptions, parts: usize) -> Database {
    let db = Database::new();
    for (name, rows) in data.tables() {
        let table_opts = if matches!(name, "lineitem" | "orders") {
            opts.clone().with_partitions(PartitionSpec::Count(parts))
        } else {
            opts.clone()
        };
        db.create_table(schema::table_meta(name), table_opts, rows)
            .expect("bulk load");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_small_database() {
        let data = generate(0.002);
        let db = load_database(&data, TableOptions::default().with_block_rows(1024));
        assert_eq!(db.row_count("region").unwrap(), 5);
        assert_eq!(db.row_count("nation").unwrap(), 25);
        assert!(db.row_count("lineitem").unwrap() > 0);
    }
}
