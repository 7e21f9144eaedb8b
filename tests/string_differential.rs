//! String-column differential suite with dictionary encoding enabled.
//!
//! The harness creates every table with `compressed: true`, so stable
//! string columns are dictionary-coded ([`columnar::StrDict`] +
//! code-point blocks) and MergeScan reconciles them through `u32` codes,
//! which it emits undecoded. Every workload here runs
//! against all three update policies plus the `NaiveImage` model —
//! partitioned and unpartitioned, through flushes, checkpoints and
//! WAL/image crash recovery — and the merged images must stay
//! bit-identical. The string pools lean on the hard cases: empty
//! strings, heavy duplication (the dictionary's reason to exist) and
//! non-ASCII code points.

use columnar::{Schema, Tuple, Value, ValueType};
use engine::testkit::DiffHarness;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn storage_harness(
    test: &str,
    schema: Schema,
    sk_cols: Vec<usize>,
    rows: Vec<Tuple>,
    partitions: usize,
) -> DiffHarness {
    let dir = std::env::temp_dir().join(format!(
        "pdt_strdiff_{test}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let h = DiffHarness::with_storage(dir, "t", schema, sk_cols, rows, 8);
    if partitions > 1 {
        h.with_partitions(partitions)
    } else {
        h
    }
}

/// int sort key, dictionary-coded string payload + int payload
fn payload_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("v", ValueType::Int),
        ("s", ValueType::Str),
    ])
}

/// Low-cardinality payload pool: duplicates, the empty string, non-ASCII.
fn pool(i: u64) -> String {
    match i % 6 {
        0 => String::new(),
        1 => "dup".to_string(),
        2 => "é✓".to_string(),
        3 => "日本語".to_string(),
        4 => format!("p{}", i % 3),
        _ => format!("u{i}"),
    }
}

fn payload_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i * 10),
                Value::Int(i),
                Value::Str(pool(i as u64)),
            ]
        })
        .collect()
}

/// *String* sort key: partition routing, duplicate rejection and the
/// VDT/row-store key comparisons all run on strings (coded in the
/// stable image, compared as codes by the merge kernels).
fn strkey_schema() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Str), ("v", ValueType::Int)])
}

fn strkey_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| vec![Value::Str(format!("k{i:04}")), Value::Int(i)])
        .collect()
}

/// After a checkpoint the persisted-and-installed stable image must carry
/// a dictionary on the string column — proof the suite exercises the
/// coded path, not plain string blocks.
fn assert_string_col_coded(h: &DiffHarness, col: usize, context: &str) {
    for (policy, db) in h.dbs() {
        for (p, part) in db.table("t").unwrap().partitions().iter().enumerate() {
            let stable = part.stable();
            if stable.row_count() == 0 {
                continue;
            }
            assert!(
                stable.column_dict(col).is_some(),
                "{context}: {policy:?} partition {p} string column lost its dictionary"
            );
        }
    }
}

fn scripted_payload_workload(partitions: usize) {
    let mut h = storage_harness(
        "payload",
        payload_schema(),
        vec![0],
        payload_rows(48),
        partitions,
    );
    let ctx = format!("payload/p{partitions}");
    h.assert_agree(&format!("{ctx}: after load"));
    assert_string_col_coded(&h, 2, &format!("{ctx}: bulk load"));

    // inserts reusing pool strings (duplicates across rows) and a
    // duplicate *key* every database must reject identically
    assert!(h.insert(vec![
        Value::Int(5),
        Value::Int(100),
        Value::Str("dup".into())
    ]));
    assert!(!h.insert(vec![
        Value::Int(5),
        Value::Int(101),
        Value::Str("other".into())
    ]));
    h.append(
        (0..6)
            .map(|i| {
                vec![
                    Value::Int(1001 + i * 2),
                    Value::Int(i),
                    Value::Str(pool(i as u64)),
                ]
            })
            .collect(),
    );
    // patch the string column positionally: empty and non-ASCII values
    h.update_col(
        &[3, 9, 17],
        2,
        &[
            Value::Str(String::new()),
            Value::Str("é✓".into()),
            Value::Str("dup".into()),
        ],
    );
    h.modify(7, 2, Value::Str("日本語".into()));
    h.delete_rids(&[1, 12]);
    h.assert_agree(&format!("{ctx}: pre-checkpoint"));

    h.flush();
    h.checkpoint(); // folds coded strings into a fresh persisted image
    h.assert_agree(&format!("{ctx}: post-checkpoint"));
    h.assert_clean_agree(&format!("{ctx}: clean post-checkpoint"));
    assert_string_col_coded(&h, 2, &format!("{ctx}: post-checkpoint"));

    h.crash_recover(); // image + WAL tail
    h.assert_agree(&format!("{ctx}: post-recovery"));

    // keep writing over the recovered image, then crash mid-delta
    h.modify(4, 2, Value::Str("dup".into()));
    h.delete(2);
    h.crash_recover();
    h.assert_agree(&format!("{ctx}: post-second-recovery"));
}

fn scripted_strkey_workload(partitions: usize) {
    let mut h = storage_harness(
        "strkey",
        strkey_schema(),
        vec![0],
        strkey_rows(40),
        partitions,
    );
    let ctx = format!("strkey/p{partitions}");
    h.assert_agree(&format!("{ctx}: after load"));
    assert_string_col_coded(&h, 0, &format!("{ctx}: bulk load"));

    // inserts landing between coded stable keys, plus an exact-duplicate
    // key (rejected by every backend)
    assert!(h.insert(vec![Value::Str("k0005+".into()), Value::Int(100)]));
    assert!(!h.insert(vec![Value::Str("k0007".into()), Value::Int(101)]));
    h.append(vec![
        vec![Value::Str(String::new()), Value::Int(200)], // sorts first
        vec![Value::Str("zz日本語".into()), Value::Int(201)], // sorts last
    ]);
    h.delete_rids(&[5, 20]);
    h.update_col(&[8, 9], 1, &[Value::Int(-8), Value::Int(-9)]);
    // sort-key rewrite on a string key: delete + re-insert, possibly
    // routed into a different partition
    h.modify(12, 0, Value::Str("k9999".into()));
    h.assert_agree(&format!("{ctx}: pre-checkpoint"));

    h.checkpoint();
    h.assert_clean_agree(&format!("{ctx}: clean post-checkpoint"));
    assert_string_col_coded(&h, 0, &format!("{ctx}: post-checkpoint"));
    h.crash_recover();
    h.assert_agree(&format!("{ctx}: post-recovery"));
}

#[test]
fn string_payload_scripted_unpartitioned() {
    scripted_payload_workload(1);
}

#[test]
fn string_payload_scripted_partitioned() {
    scripted_payload_workload(3);
}

#[test]
fn string_key_scripted_unpartitioned() {
    scripted_strkey_workload(1);
}

#[test]
fn string_key_scripted_partitioned() {
    scripted_strkey_workload(3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized op streams over the dictionary-coded payload column:
    /// all three policies + model must agree after every step, survive a
    /// checkpoint, and come back identical from crash recovery —
    /// partitioned and not, from one op script.
    #[test]
    fn random_string_workloads_agree(
        ops in prop::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..24),
        partitioned in any::<bool>(),
    ) {
        let partitions = if partitioned { 3 } else { 1 };
        let mut h = storage_harness(
            "prop",
            payload_schema(),
            vec![0],
            payload_rows(32),
            partitions,
        );
        let mut next_key = 1_000i64;
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let len = h.model().len();
            match op {
                0 => {
                    // fresh or colliding key (a % 4 == 0 retries a stable
                    // key: every backend must reject identically)
                    let key = if a % 4 == 0 {
                        (a % 32) as i64 * 10
                    } else {
                        next_key += 3;
                        next_key
                    };
                    h.insert(vec![Value::Int(key), Value::Int(a as i64), Value::Str(pool(b))]);
                }
                1 => {
                    let rows = (0..3)
                        .map(|i| {
                            next_key += 3;
                            vec![Value::Int(next_key), Value::Int(i), Value::Str(pool(b + i as u64))]
                        })
                        .collect();
                    h.append(rows);
                }
                2 if len > 0 => h.delete((a % len as u64) as usize),
                3 if len > 0 => {
                    h.modify((a % len as u64) as usize, 2, Value::Str(pool(b)));
                }
                4 if len > 1 => {
                    let r1 = (a % len as u64) as u64;
                    let r2 = (b % len as u64) as u64;
                    if r1 != r2 {
                        let (lo, hi) = (r1.min(r2), r1.max(r2));
                        h.update_col(&[lo, hi], 2, &[
                            Value::Str(pool(a)),
                            Value::Str(pool(b)),
                        ]);
                    }
                }
                5 => h.flush(),
                6 => h.checkpoint(),
                7 => h.crash_recover(),
                _ => {}
            }
            h.assert_agree(&format!("prop step {step} (op {op}, partitions {partitions})"));
        }
        h.checkpoint();
        assert_string_col_coded(&h, 2, "prop: final checkpoint");
        h.crash_recover();
        h.assert_agree("prop: final recovery");
    }
}
