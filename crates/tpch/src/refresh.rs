//! The TPC-H refresh streams (RF1 / RF2).
//!
//! The paper runs "the official 2 TPC-H update streams which update
//! (insert and delete) roughly 0.1% of two main tables: lineitem and
//! orders" before measuring queries. Per the spec, each stream touches
//! `SF × 1500` orders:
//!
//! * **RF1** inserts new orders (with 1–7 lineitems each) whose keys fall
//!   in the *unused* slots of dbgen's sparse key space — so the inserts
//!   scatter through `lineitem`'s key-ordered storage — and whose dates are
//!   uniform over the whole populated range — so they also scatter through
//!   `orders`' date-ordered storage. This is exactly the "non-trivial
//!   update task" the paper points out.
//! * **RF2** deletes existing orders (and their lineitems) chosen uniformly
//!   from the populated key space.
//!
//! Both streams are written **once** against the engine's unified
//! transactional API ([`apply_rf1`]/[`apply_rf2`]): whether a table is
//! maintained by PDTs or by the value-based VDT is a property of the table
//! (chosen at load time via [`engine::TableOptions::policy`]), not of the
//! refresh code — so the paper's three Figure-19 scenarios share *exactly*
//! the same logical updates and the same transaction/WAL overhead.

use crate::gen::{
    make_order, pick_custkey, refresh_order_key, sparse_order_key, Rng, Sizes, TpchData,
};
use columnar::{Tuple, Value};
use engine::{Database, DbError, DbTxn, ScanSpec};
use exec::expr::{col, lit};
use exec::{Batch, Operator, ScanBounds};
use std::collections::HashSet;

/// Materialised refresh streams.
#[derive(Debug, Clone)]
pub struct RefreshStreams {
    /// RF1: new orders with their lineitems.
    pub inserts: Vec<(Tuple, Vec<Tuple>)>,
    /// RF2: order keys to delete.
    pub delete_keys: Vec<i64>,
}

impl RefreshStreams {
    /// Build both streams for a generated population. `fraction` scales the
    /// spec's 0.1 % (pass 1.0 for the paper's setting).
    pub fn build(data: &TpchData, fraction: f64) -> RefreshStreams {
        let mut rng = Rng::new(0xEF01_u64 ^ data.orders.len() as u64);
        let sizes = Sizes::at(data.sf);
        let count = ((data.orders.len() as f64) * 0.001 * fraction).ceil() as u64;
        let clerks = (sizes.orders / 1500).max(10);

        let mut inserts = Vec::with_capacity(count as usize);
        for _ in 0..count {
            // spread refresh keys uniformly over the populated key range
            let slot = rng.below(data.orders.len() as u64);
            let key = refresh_order_key(slot * 997 % data.orders.len() as u64);
            let custkey = pick_custkey(&mut rng, sizes.customers);
            inserts.push(make_order(&mut rng, key, custkey, &sizes, clerks));
        }
        // de-duplicate keys (rare collisions from the modular spreading)
        inserts.sort_by_key(|(o, _)| o[0].as_int());
        inserts.dedup_by(|a, b| a.0[0].as_int() == b.0[0].as_int());

        let mut delete_keys: Vec<i64> = (0..count)
            .map(|_| sparse_order_key(rng.below(data.orders.len() as u64)))
            .collect();
        delete_keys.sort_unstable();
        delete_keys.dedup();

        RefreshStreams {
            inserts,
            delete_keys,
        }
    }
}

/// Stage one RF1 chunk into an open transaction: **one** batched `append`
/// per table, whatever the chunk size. Factored out of [`apply_rf1`] so a
/// serving layer can run the same logical refresh through its own
/// transaction handles (admission control, metrics).
pub fn stage_rf1_chunk(txn: &mut DbTxn<'_>, chunk: &[(Tuple, Vec<Tuple>)]) -> Result<(), DbError> {
    let order_types = crate::schema::table_meta("orders").schema.types();
    let line_types = crate::schema::table_meta("lineitem").schema.types();
    let mut orders = Batch::with_capacity(&order_types, chunk.len());
    let mut lines = Batch::with_capacity(&line_types, chunk.len() * 4);
    for (order, order_lines) in chunk {
        orders.push_row(order);
        for l in order_lines {
            lines.push_row(l);
        }
    }
    txn.append("orders", orders)?;
    txn.append("lineitem", lines)?;
    Ok(())
}

/// Stage one RF2 chunk (order keys to delete) into an open transaction:
/// ranged predicate deletes on `lineitem`, one key-column scan + one
/// positional `delete_rids` on `orders`. Factored out of [`apply_rf2`]
/// for the same reason as [`stage_rf1_chunk`].
pub fn stage_rf2_chunk(txn: &mut DbTxn<'_>, chunk: &[i64]) -> Result<(), DbError> {
    for &key in chunk {
        txn.delete_where_ranged(
            "lineitem",
            col(0).eq(lit(key)),
            ScanBounds {
                lo: Some(vec![Value::Int(key)]),
                hi: Some(vec![Value::Int(key)]),
            },
        )?;
    }
    let keys: HashSet<i64> = chunk.iter().copied().collect();
    let mut rids = Vec::with_capacity(chunk.len());
    {
        let mut scan = txn.scan_with("orders", ScanSpec::cols(vec![0]))?;
        while let Some(b) = scan.next_batch() {
            for (i, k) in b.cols[0].as_int().iter().enumerate() {
                if keys.contains(k) {
                    rids.push(b.rid_start + i as u64);
                }
            }
        }
    }
    txn.delete_rids("orders", &rids)?;
    Ok(())
}

/// RF1: insert new orders and their lineitems through the batch-first
/// surface — per transaction **one** `append` per table, whatever the
/// chunk size, so position resolution, op-log and WAL cost amortize over
/// the whole refresh chunk. Works unchanged for any update policy.
pub fn apply_rf1(db: &Database, streams: &RefreshStreams, batch: usize) -> Result<(), DbError> {
    for chunk in streams.inserts.chunks(batch.max(1)) {
        let mut txn = db.begin();
        stage_rf1_chunk(&mut txn, chunk)?;
        txn.commit()?;
    }
    Ok(())
}

/// RF2: delete orders and their lineitems by key, one transaction per
/// batch of orders — positional write-batches throughout. Works unchanged
/// for any update policy.
///
/// `lineitem` is keyed on (l_orderkey, l_linenumber), so each key's
/// victims come from a cheap sparse-index-ranged predicate delete (itself
/// batch-staged). `orders` is date-ordered — the key is *not* a sort-key
/// prefix — so victims are located with **one** key-column scan per chunk
/// against the whole key set and deleted positionally via `delete_rids`:
/// two sequential passes per chunk instead of the one full victim scan
/// *per key* the row-at-a-time path paid.
pub fn apply_rf2(db: &Database, streams: &RefreshStreams, batch: usize) -> Result<(), DbError> {
    for chunk in streams.delete_keys.chunks(batch.max(1)) {
        let mut txn = db.begin();
        stage_rf2_chunk(&mut txn, chunk)?;
        txn.commit()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, load_database};
    use engine::{TableOptions, UpdatePolicy};
    use exec::run_to_rows;

    fn opts(policy: UpdatePolicy) -> TableOptions {
        TableOptions {
            block_rows: 512,
            policy,
            ..TableOptions::default()
        }
    }

    fn image(db: &Database, table: &str) -> Vec<Tuple> {
        let view = db.read_view();
        let ncols = view.table(table).unwrap().schema().len();
        let mut scan = view
            .scan_with(table, ScanSpec::cols((0..ncols).collect()))
            .unwrap();
        run_to_rows(&mut scan)
    }

    #[test]
    fn streams_touch_a_small_fraction() {
        let data = generate(0.002);
        let s = RefreshStreams::build(&data, 1.0);
        assert!(!s.inserts.is_empty());
        assert!(!s.delete_keys.is_empty());
        let frac = s.inserts.len() as f64 / data.orders.len() as f64;
        assert!(frac < 0.01, "RF1 fraction {frac}");
        // RF1 keys must be absent from the base population
        let base: std::collections::HashSet<i64> =
            data.orders.iter().map(|o| o[0].as_int()).collect();
        for (o, _) in &s.inserts {
            assert!(!base.contains(&o[0].as_int()));
        }
        // RF2 keys must be present
        for k in &s.delete_keys {
            assert!(base.contains(k));
        }
    }

    /// The same refresh code, run against a PDT-maintained and a
    /// VDT-maintained database, must yield identical visible images after
    /// each refresh pair — the consistency guarantee the unified
    /// `DeltaStore` path gives the paper's comparison.
    #[test]
    fn pdt_and_vdt_databases_agree_after_refresh() {
        let data = generate(0.002);
        let streams = RefreshStreams::build(&data, 1.0);

        let pdt_db = load_database(&data, opts(UpdatePolicy::Pdt));
        let vdt_db = load_database(&data, opts(UpdatePolicy::Vdt));

        apply_rf1(&pdt_db, &streams, 64).unwrap();
        apply_rf1(&vdt_db, &streams, 64).unwrap();
        for table in ["orders", "lineitem"] {
            assert_eq!(
                image(&pdt_db, table),
                image(&vdt_db, table),
                "{table} diverged after RF1"
            );
        }

        apply_rf2(&pdt_db, &streams, 64).unwrap();
        apply_rf2(&vdt_db, &streams, 64).unwrap();
        for table in ["orders", "lineitem"] {
            let p = image(&pdt_db, table);
            let v = image(&vdt_db, table);
            assert_eq!(p.len(), v.len(), "{table} row count after RF2");
            assert_eq!(p, v, "{table} contents after RF2");
        }
    }

    /// The refresh streams route through the partition layer unchanged:
    /// a database with `lineitem`/`orders` range-partitioned must end
    /// every refresh pair bit-identical to the single-partition one —
    /// RF1's scattered inserts land in their key ranges, RF2's positional
    /// deletes split across partitions.
    #[test]
    fn partitioned_refresh_matches_single_partition() {
        let data = generate(0.002);
        let streams = RefreshStreams::build(&data, 1.0);
        for policy in engine::ALL_POLICIES {
            let single = load_database(&data, opts(policy));
            let parted = crate::load_database_partitioned(&data, opts(policy), 4);
            assert_eq!(parted.partition_count("lineitem").unwrap(), 4);
            assert_eq!(parted.partition_count("orders").unwrap(), 4);
            assert_eq!(parted.partition_count("region").unwrap(), 1);
            for db in [&single, &parted] {
                apply_rf1(db, &streams, 64).unwrap();
                apply_rf2(db, &streams, 64).unwrap();
            }
            for table in ["orders", "lineitem"] {
                assert_eq!(
                    image(&single, table),
                    image(&parted, table),
                    "{policy:?}: {table} diverged under partitioning"
                );
            }
            // per-partition maintenance leaves the image intact
            parted.checkpoint("lineitem").unwrap();
            parted.checkpoint("orders").unwrap();
            for table in ["orders", "lineitem"] {
                assert_eq!(
                    image(&single, table),
                    image(&parted, table),
                    "{policy:?}: {table} diverged after checkpoints"
                );
            }
        }
    }

    #[test]
    fn updated_fraction_matches_spec() {
        let data = generate(0.002);
        let streams = RefreshStreams::build(&data, 1.0);
        let db = load_database(&data, opts(UpdatePolicy::Pdt));
        let before = db.row_count("lineitem").unwrap();
        apply_rf1(&db, &streams, 128).unwrap();
        apply_rf2(&db, &streams, 128).unwrap();
        let after = db.row_count("lineitem").unwrap();
        // inserts ≈ deletes ≈ 0.1 %, so the count moves by < 1 %
        let drift = (after as f64 - before as f64).abs() / before as f64;
        assert!(drift < 0.01, "drift {drift}");
    }
}
