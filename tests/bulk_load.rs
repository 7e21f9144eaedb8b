//! The bulk load, held to the builder's one append form.
//!
//! `Database::create_table` checks its rows and finds the order that
//! sorts them, cuts them into the partitions' contiguous runs and streams
//! each run into a stable image a block at a time — rows given (a
//! `Vec<Tuple>`) moved out, rows lent (`&[Tuple]`) read where they lie.
//! Over random schemas (int, double with NaN and −0.0, date and string
//! columns), row counts around the block size, sorted, shuffled and
//! equal-key inputs and 1–4 partitions by count or by split points, every
//! partition's image from either input form must equal — block for
//! block, with its dictionaries, sparse keys and block maxima — the image
//! `TableBuilder::append_cols` builds from the same rows, sorted stably
//! and cut at the split points this test derives on its own. The error
//! cases keep their variants and row indices for both input forms.

use columnar::{
    ColumnVec, ColumnarError, Schema, StableTable, TableBuilder, TableMeta, Tuple, Value, ValueType,
};
use engine::{Database, DbError, PartitionSpec, TableOptions, ALL_POLICIES};
use std::cmp::Ordering;

struct Rng(u64);

impl Rng {
    fn below(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }
}

const TYPES: [ValueType; 4] = [
    ValueType::Int,
    ValueType::Double,
    ValueType::Date,
    ValueType::Str,
];

/// 1–4 columns of random types, a sort key of one or two of them.
fn random_meta(rng: &mut Rng) -> TableMeta {
    let ncols = 1 + rng.below(4) as usize;
    let names = ["a", "b", "c", "d"];
    let pairs: Vec<(&str, ValueType)> = (0..ncols)
        .map(|c| (names[c], TYPES[rng.below(4) as usize]))
        .collect();
    let first = rng.below(ncols as u64) as usize;
    let mut sk = vec![first];
    if ncols > 1 && rng.below(2) == 0 {
        sk.push((first + 1 + rng.below(ncols as u64 - 1) as usize) % ncols);
    }
    TableMeta::new("t", Schema::from_pairs(&pairs), sk)
}

/// A value from a small domain, so equal keys are common.
fn random_value(rng: &mut Rng, vtype: ValueType, span: u64) -> Value {
    let i = rng.below(span) as i64 - span as i64 / 2;
    match vtype {
        ValueType::Int => Value::Int(i),
        ValueType::Date => Value::Date(i as i32 * 7),
        ValueType::Double => match rng.below(6) {
            0 => Value::Double(f64::NAN),
            1 => Value::Double(-0.0),
            2 => Value::Double(0.0),
            _ => Value::Double(i as f64 / 4.0),
        },
        ValueType::Str => Value::Str(format!("s{}", i + span as i64)),
        ValueType::Bool => Value::Bool(i % 2 == 0),
    }
}

fn cmp_keys(meta: &TableMeta, a: &Tuple, b: &Tuple) -> Ordering {
    let cols = meta.sort_key.cols();
    cols.iter()
        .map(|&c| a[c].cmp(&b[c]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

fn key_of(meta: &TableMeta, row: &Tuple) -> Vec<Value> {
    meta.sort_key
        .cols()
        .iter()
        .map(|&c| row[c].clone())
        .collect()
}

/// Equi-depth split points over the distinct keys, as `Count(n)` promises.
fn count_splits(meta: &TableMeta, rows: &[Tuple], n: usize) -> Vec<Vec<Value>> {
    let mut keys: Vec<Vec<Value>> = rows.iter().map(|r| key_of(meta, r)).collect();
    keys.sort();
    keys.dedup();
    let mut splits: Vec<Vec<Value>> = Vec::new();
    for i in 1..n {
        let idx = i * keys.len() / n;
        if idx > 0 && splits.last() != Some(&keys[idx]) {
            splits.push(keys[idx].clone());
        }
    }
    splits
}

/// 1–3 strictly ascending points: keys of some rows, or their first
/// column alone.
fn random_points(meta: &TableMeta, rows: &[Tuple], rng: &mut Rng) -> Vec<Vec<Value>> {
    let mut points: Vec<Vec<Value>> = (0..1 + rng.below(3))
        .map(|_| {
            let mut key = match rows.len() {
                0 => vec![random_value(
                    rng,
                    meta.schema.vtype(meta.sort_key.cols()[0]),
                    8,
                )],
                n => key_of(meta, &rows[rng.below(n as u64) as usize]),
            };
            if rng.below(2) == 0 {
                key.truncate(1);
            }
            key
        })
        .collect();
    points.sort();
    points.dedup();
    points
}

/// The image `append_cols` builds from `rows` (sorted), fed in chunks of
/// random sizes.
fn built(meta: &TableMeta, block_rows: usize, rows: &[Tuple], rng: &mut Rng) -> StableTable {
    let mut b = TableBuilder::new(meta.clone(), block_rows).unwrap();
    let mut at = 0;
    while at < rows.len() {
        let end = (at + 1 + rng.below(2 * block_rows as u64) as usize).min(rows.len());
        let cols = (meta.schema.fields().iter().enumerate())
            .map(|(c, f)| {
                let mut col = ColumnVec::new(f.vtype);
                rows[at..end].iter().for_each(|r| col.push(&r[c]));
                col
            })
            .collect();
        b.append_cols(cols).unwrap();
        at = end;
    }
    b.finish().unwrap()
}

fn assert_same_image(got: &StableTable, want: &StableTable, what: &str) {
    assert_eq!(got.row_count(), want.row_count(), "{what}: rows");
    assert_eq!(got.block_starts(), want.block_starts(), "{what}: blocks");
    assert_eq!(
        got.sparse_index().first_keys(),
        want.sparse_index().first_keys(),
        "{what}: sparse keys"
    );
    assert_eq!(
        got.block_max_keys(),
        want.block_max_keys(),
        "{what}: max keys"
    );
    for c in 0..want.num_columns() {
        let dict = |t: &StableTable| {
            t.column_dict(c)
                .map(|d| d.iter().map(str::to_string).collect::<Vec<_>>())
        };
        assert_eq!(dict(got), dict(want), "{what}: column {c} dictionary");
        let blocks = |t: &StableTable| {
            (t.column_blocks(c).iter())
                .map(|b| (b.encoding, b.len, b.checksum(), b.payload.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(blocks(got), blocks(want), "{what}: column {c} blocks");
    }
}

#[test]
fn create_table_writes_the_images_append_cols_builds() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for case in 0..90 {
        let meta = random_meta(&mut rng);
        let block_rows = 2 + rng.below(6) as usize;
        let n = [
            0,
            1,
            block_rows - 1,
            block_rows,
            block_rows + 1,
            3 * block_rows + 1 + rng.below(2 * block_rows as u64) as usize,
        ][case % 6];
        let span = [3, 40][rng.below(2) as usize];
        let mut rows: Vec<Tuple> = (0..n)
            .map(|_| {
                (meta.schema.fields().iter())
                    .map(|f| random_value(&mut rng, f.vtype, span))
                    .collect()
            })
            .collect();
        let mut sorted = rows.clone();
        sorted.sort_by(|a, b| cmp_keys(&meta, a, b));
        match (case / 6) % 3 {
            0 => rows = sorted.clone(),
            1 => {}
            _ => {
                // every row one key, in input order
                for r in rows.iter_mut() {
                    for &c in meta.sort_key.cols() {
                        r[c] = sorted.first().map_or(Value::Null, |s| s[c].clone());
                    }
                }
                sorted = rows.clone();
            }
        }
        let parts = 1 + rng.below(4) as usize;
        let (spec, splits) = if rng.below(2) == 0 {
            let splits = count_splits(&meta, &sorted, parts);
            (PartitionSpec::Count(parts), splits)
        } else {
            let points = random_points(&meta, &sorted, &mut rng);
            (PartitionSpec::SplitPoints(points.clone()), points)
        };
        let mut groups: Vec<Vec<Tuple>> = vec![Vec::new(); splits.len() + 1];
        for r in &sorted {
            let key = key_of(&meta, r);
            groups[splits.partition_point(|s| s.as_slice() <= key.as_slice())].push(r.clone());
        }
        for (policy, lent) in ALL_POLICIES
            .into_iter()
            .flat_map(|p| [(p, false), (p, true)])
        {
            let what = format!(
                "case {case} {policy:?} {}: {n} rows, block_rows {block_rows}, {spec:?}",
                if lent { "lent" } else { "given" }
            );
            let db = Database::new();
            let opts = TableOptions {
                block_rows,
                ..TableOptions::default()
            }
            .with_policy(policy)
            .with_partitions(spec.clone());
            let created = match lent {
                true => db.create_table(meta.clone(), opts, &rows),
                false => db.create_table(meta.clone(), opts, rows.clone()),
            };
            created.unwrap_or_else(|e| panic!("{what}: {e}"));
            let table = db.table("t").unwrap();
            assert_eq!(table.splits(), splits.as_slice(), "{what}");
            let got = table.partitions();
            assert_eq!(got.len(), groups.len(), "{what}");
            for (p, group) in groups.iter().enumerate() {
                let want = built(&meta, block_rows, group, &mut rng);
                assert_same_image(&got[p].stable(), &want, &format!("{what}, partition {p}"));
            }
        }
    }
}

#[test]
fn load_errors_keep_their_variants_and_rows() {
    let meta = TableMeta::new(
        "t",
        Schema::from_pairs(&[("k", ValueType::Int), ("s", ValueType::Str)]),
        vec![0],
    );
    let rows: Vec<Tuple> = (0..20)
        .map(|i| vec![Value::Int(i), Value::Str(format!("r{i}"))])
        .collect();
    let schema_err = |e: DbError| match e {
        DbError::Storage(ColumnarError::SchemaMismatch(m)) => m,
        other => panic!("expected a schema mismatch, got {other}"),
    };
    for (policy, lent) in ALL_POLICIES
        .into_iter()
        .flat_map(|p| [(p, false), (p, true)])
    {
        let opts = |block_rows: usize| {
            TableOptions {
                block_rows,
                ..TableOptions::default()
            }
            .with_policy(policy)
            .with_partitions(PartitionSpec::Count(2))
        };
        let create_in = |db: &Database, name: &str, rows: Vec<Tuple>, block_rows: usize| {
            let meta = TableMeta::new(name, meta.schema.clone(), vec![0]);
            match lent {
                true => db.create_table(meta, opts(block_rows), &rows),
                false => db.create_table(meta, opts(block_rows), rows),
            }
        };
        let create = |rows: Vec<Tuple>, block_rows: usize| {
            create_in(&Database::new(), "t", rows, block_rows)
        };
        let form = if lent { "lent" } else { "given" };
        // a short row and a mistyped one, named by their input index —
        // the short one in unsorted rows, past the first pair out of order
        let mut short = rows.clone();
        short.reverse();
        short[13].pop();
        let m = schema_err(create(short.clone(), 4).unwrap_err());
        assert!(m.starts_with("row 13 "), "{policy:?} {form}: {m}");
        let mut mistyped = rows.clone();
        mistyped[6][1] = Value::Int(6);
        let m = schema_err(create(mistyped, 4).unwrap_err());
        assert!(m.starts_with("row 6 "), "{policy:?} {form}: {m}");
        let m = schema_err(create(rows.clone(), 0).unwrap_err());
        assert!(m.contains("block_rows = 0"), "{policy:?} {form}: {m}");
        // the name checks come before any row is read
        let db = Database::new();
        create_in(&db, "t", rows.clone(), 4).unwrap();
        let taken = create_in(&db, "t", short.clone(), 4).unwrap_err();
        assert!(
            matches!(taken, DbError::TableExists(_)),
            "{policy:?} {form}: {taken}"
        );
        let bad_name = create_in(&db, "a/b", short.clone(), 4).unwrap_err();
        assert!(
            matches!(bad_name, DbError::Partition { .. }),
            "{policy:?} {form}: {bad_name}"
        );
        // unsorted rows are sorted, not refused
        let mut shuffled = rows.clone();
        shuffled.swap(2, 17);
        create(shuffled, 4).unwrap();
    }
    // the stable loaders take sorted rows only, and name the first row
    // out of order — inside a block and at a block boundary
    for at in [3, 4, 9, 19] {
        let mut unsorted = rows.clone();
        unsorted[at][0] = Value::Int(-1);
        let want = Err(ColumnarError::UnsortedInput { row: at as u64 });
        let got = StableTable::load(meta.clone(), 4, &unsorted).map(|_| ());
        assert_eq!(got, want, "lent, row {at}");
        let got = StableTable::load(meta.clone(), 4, unsorted).map(|_| ());
        assert_eq!(got, want, "given, row {at}");
    }
    let mut short = rows.clone();
    short[9].pop();
    for got in [
        StableTable::load(meta.clone(), 4, &short).map(|_| ()),
        StableTable::load(meta.clone(), 4, short).map(|_| ()),
    ] {
        assert!(
            matches!(&got, Err(ColumnarError::SchemaMismatch(m)) if m.starts_with("row 9 ")),
            "{got:?}"
        );
    }
}
