//! The PDT's offset-addressed write steps against their specifications.
//!
//! * [`Pdt::lift_rank`] — one layer of a sort-key rank — lifted through a
//!   random stack of layers must give every probe key the model's rank
//!   (the number of visible rows sorting before it) and the model's
//!   verdict on whether the key is visible. Probes hit stable rows,
//!   inserts of every layer, ghosts, ghost keys re-inserted above their
//!   ghost, and the gaps between them.
//! * Offset [`propagate`] must give the rows `merge_rows` gives layer by
//!   layer, and — entry for entry, byte for byte of value space — the PDT
//!   the `Value`-at-a-time Algorithm 7 builds: delete-of-insert and
//!   modify-of-insert across the two layers, string columns inserted
//!   plain and dictionary-coded, and a table with an empty sort key (no
//!   delete-table columns at all).

use columnar::{ColumnVec, Schema, StrDict, Tuple, Value, ValueType};
use pdt::checkpoint::merge_rows;
use pdt::naive::NaiveImage;
use pdt::propagate::propagate;
use pdt::Pdt;
use proptest::prelude::*;
use std::cmp::Ordering;

/// `(k, s)` is the sort key when the table has one.
fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("s", ValueType::Str),
        ("v", ValueType::Int),
    ])
}

/// Sort keys come from a small domain so that inserts, ghosts and
/// re-inserts collide often.
fn key(k: i64) -> (i64, String) {
    (k / 2, if k % 2 == 0 { "a" } else { "b" }.to_string())
}

fn row(k: i64, v: i64) -> Tuple {
    let (a, s) = key(k);
    vec![Value::Int(a), Value::Str(s), Value::Int(v)]
}

fn sk_of(r: &Tuple, sk_cols: &[usize]) -> Vec<Value> {
    sk_cols.iter().map(|&c| r[c].clone()).collect()
}

/// Stable rows: every third key of the domain.
fn base(n: usize) -> Vec<Tuple> {
    (0..n as i64).map(|i| row(i * 3 + 1, i)).collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert key `k` (by key; at position `at` when there is no sort key).
    Insert {
        k: i64,
        v: i64,
        at: usize,
    },
    /// Insert a key this stack deleted before, if it is not visible again.
    Reinsert {
        pick: usize,
        v: i64,
    },
    Delete {
        pick: usize,
    },
    Modify {
        pick: usize,
        v: i64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..64, any::<i64>(), any::<usize>()).prop_map(|(k, v, at)| Op::Insert { k, v, at }),
        2 => (any::<usize>(), any::<i64>()).prop_map(|(pick, v)| Op::Reinsert { pick, v }),
        3 => any::<usize>().prop_map(|pick| Op::Delete { pick }),
        2 => (any::<usize>(), any::<i64>()).prop_map(|(pick, v)| Op::Modify { pick, v }),
    ]
}

/// The non-key column modify ops write: the value column, and the string
/// column too when it is not part of the key.
fn modify_cols(sk_cols: &[usize]) -> Vec<usize> {
    [1, 2]
        .into_iter()
        .filter(|c| !sk_cols.contains(c))
        .collect()
}

/// One layer's writer: a PDT over `model`'s image, fed the paper's flow
/// (RID by key, SID by Algorithm 6). `coded` inserts arrive as a one-row
/// batch whose string column is dictionary-coded.
struct Layer<'m> {
    pdt: Pdt,
    model: &'m mut NaiveImage,
    sk_cols: Vec<usize>,
    deleted: &'m mut Vec<Tuple>,
}

impl Layer<'_> {
    fn insert(&mut self, t: Tuple, at: usize, coded: bool) {
        let visible = |t: &Tuple, r: &Tuple| sk_of(r, &self.sk_cols) == sk_of(t, &self.sk_cols);
        if !self.sk_cols.is_empty() && self.model.rows().iter().any(|r| visible(&t, r)) {
            return;
        }
        let rid = if self.sk_cols.is_empty() {
            at % (self.model.len() + 1)
        } else {
            let sk = sk_of(&t, &self.sk_cols);
            let rows = self.model.rows();
            rows.iter()
                .position(|r| sk_of(r, &self.sk_cols) > sk)
                .unwrap_or(rows.len())
        };
        if coded {
            let s = t[1].as_str().to_string();
            let cols = [
                ColumnVec::Int(vec![t[0].as_int()]),
                ColumnVec::Coded(vec![1], StrDict::build(["", s.as_str(), "zz"])),
                ColumnVec::Int(vec![t[2].as_int()]),
            ];
            let off = self.pdt.add_insert_batch(&cols);
            self.pdt.add_insert_off(rid as u64, off);
        } else {
            let sid = self
                .pdt
                .sk_rid_to_sid(&sk_of(&t, &self.sk_cols), rid as u64);
            self.pdt.add_insert(sid, rid as u64, &t);
        }
        self.model.insert(rid, t);
    }

    fn apply(&mut self, op: &Op, step: usize) {
        let n = self.model.len();
        match *op {
            Op::Insert { k, v, at } => self.insert(row(k, v), at, step.is_multiple_of(3)),
            Op::Reinsert { pick, v } if !self.deleted.is_empty() => {
                let mut t = self.deleted[pick % self.deleted.len()].clone();
                t[2] = Value::Int(v);
                self.insert(t, pick, step.is_multiple_of(2));
            }
            Op::Delete { pick } if n > 0 => {
                let rid = pick % n;
                self.deleted.push(self.model.rows()[rid].clone());
                let sk = self.model.delete(rid);
                self.pdt.add_delete(rid as u64, &sk);
            }
            Op::Modify { pick, v } if n > 0 => {
                let rid = pick % n;
                for c in modify_cols(&self.sk_cols) {
                    let val = if c == 1 {
                        Value::Str(format!("m{}", v.rem_euclid(5)))
                    } else {
                        Value::Int(v)
                    };
                    self.model.modify(rid, c, val.clone());
                    self.pdt.add_modify(rid as u64, c, &val);
                }
            }
            _ => {}
        }
    }
}

/// Build a stack of layers, one per op list, each over the image of the
/// ones below; returns the layers (bottom first) and the top image.
fn build_stack(
    stable: &[Tuple],
    sk_cols: &[usize],
    layers: &[Vec<Op>],
    fanout: usize,
) -> (Vec<Pdt>, Vec<Tuple>) {
    let mut image = stable.to_vec();
    let mut deleted = Vec::new();
    let mut out = Vec::new();
    for ops in layers {
        let mut model = NaiveImage::new(&image, sk_cols.to_vec());
        let mut layer = Layer {
            pdt: Pdt::with_fanout(schema(), sk_cols.to_vec(), fanout),
            model: &mut model,
            sk_cols: sk_cols.to_vec(),
            deleted: &mut deleted,
        };
        for (i, op) in ops.iter().enumerate() {
            layer.apply(op, i);
        }
        let pdt = layer.pdt;
        pdt.check_invariants();
        assert_eq!(merge_rows(&image, &pdt), model.rows());
        image = model.rows().to_vec();
        out.push(pdt);
    }
    (out, image)
}

/// Algorithm 7 as it was written before values moved by offset: every
/// entry re-read as `Value`s and re-added. The oracle for the shape of the
/// PDT offset propagate builds.
fn propagate_by_value(lower: &mut Pdt, upper: &Pdt) {
    for e in upper.iter() {
        if e.upd.is_ins() {
            let tuple = upper.vals().get_insert(e.upd.val);
            let sid = lower.sk_rid_to_sid(&sk_of(&tuple, lower.sk_cols()), e.rid);
            lower.add_insert(sid, e.rid, &tuple);
        } else if e.upd.is_del() {
            lower.add_delete(e.rid, &upper.vals().get_delete(e.upd.val));
        } else {
            let col = e.upd.col_no() as usize;
            lower.add_modify(e.rid, col, &upper.vals().get_modify(col, e.upd.val));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lifting a stable lower bound through every layer gives the model's
    /// rank and equality verdict, for every probe key of the domain.
    #[test]
    fn lift_rank_matches_the_model(
        layers in prop::collection::vec(prop::collection::vec(op(), 0..24), 1..4),
        n in 0usize..20,
        fanout in 4usize..9,
    ) {
        let sk_cols = vec![0, 1];
        let stable = base(n);
        let (pdts, image) = build_stack(&stable, &sk_cols, &layers, fanout);
        for k in -1i64..66 {
            let probe = sk_of(&row(k, 0), &sk_cols);
            // the stable step: lower bound and equality in the stable image
            let p = stable.partition_point(|r| sk_of(r, &sk_cols) < probe);
            let mut eq = stable.get(p).is_some_and(|r| sk_of(r, &sk_cols) == probe);
            let mut rid = p as u64;
            for pdt in &pdts {
                (rid, eq) = pdt.lift_rank(rid, eq, &probe);
            }
            let want = image.iter().filter(|r| sk_of(r, &sk_cols) < probe).count() as u64;
            let want_eq = image.iter().any(|r| sk_of(r, &sk_cols) == probe);
            prop_assert_eq!((rid, eq), (want, want_eq), "probe {:?}", probe);
        }
    }

    /// Offset propagate ≡ merging the two layers one after the other, and
    /// builds exactly the PDT the by-value Algorithm 7 builds.
    #[test]
    fn offset_propagate_matches_layerwise_merge(
        lower_ops in prop::collection::vec(op(), 0..40),
        upper_ops in prop::collection::vec(op(), 0..40),
        n in 0usize..20,
        keyed in any::<bool>(),
    ) {
        let sk_cols = if keyed { vec![0, 1] } else { vec![] };
        let stable = base(n);
        let (pdts, image) = build_stack(&stable, &sk_cols, &[lower_ops, upper_ops], 4);
        let (lower, upper) = (&pdts[0], &pdts[1]);
        let mut by_offset = lower.clone();
        propagate(&mut by_offset, upper);
        by_offset.check_invariants();
        prop_assert_eq!(&merge_rows(&stable, &by_offset), &image);
        let mut by_value = lower.clone();
        propagate_by_value(&mut by_value, upper);
        prop_assert_eq!(by_offset.iter().collect::<Vec<_>>(), by_value.iter().collect::<Vec<_>>());
        prop_assert_eq!(by_offset.heap_bytes(), by_value.heap_bytes());
    }
}

/// The shapes the sweep may reach only rarely, pinned: a ghost key
/// re-inserted in the layer above its ghost, probes equal to the ghost,
/// to an insert and to a stable row, and a probe past every row.
#[test]
fn lift_rank_pinned_shapes() {
    let sk_cols = vec![0, 1];
    let stable = base(6); // keys 1, 4, 7, 10, 13, 16
    let lower = vec![
        Op::Delete { pick: 2 },           // ghost of key 7
        Op::Insert { k: 8, v: 0, at: 0 }, // just after the ghost
        Op::Insert { k: 6, v: 0, at: 0 }, // just before it
    ];
    let upper = vec![
        Op::Reinsert { pick: 0, v: 9 }, // key 7 over its ghost
        Op::Delete { pick: 0 },         // stable key 1
    ];
    let (pdts, image) = build_stack(&stable, &sk_cols, &[lower, upper], 4);
    let lift = |k: i64| {
        let probe = sk_of(&row(k, 0), &sk_cols);
        let p = stable.partition_point(|r| sk_of(r, &sk_cols) < probe);
        let eq = stable.get(p).is_some_and(|r| sk_of(r, &sk_cols) == probe);
        pdts.iter().fold((p as u64, eq), |(rid, eq), pdt| {
            pdt.lift_rank(rid, eq, &probe)
        })
    };
    let rank = |k: i64| {
        let probe = sk_of(&row(k, 0), &sk_cols);
        let below = image
            .iter()
            .filter(|r| sk_of(r, &sk_cols).cmp(&probe) == Ordering::Less);
        below.count() as u64
    };
    assert_eq!(lift(7), (rank(7), true), "re-inserted ghost key");
    assert_eq!(lift(1), (rank(1), false), "deleted stable key");
    assert_eq!(lift(6), (rank(6), true), "lower insert");
    assert_eq!(lift(4), (rank(4), true), "stable row");
    assert_eq!(lift(5), (rank(5), false), "gap");
    assert_eq!(lift(40), (image.len() as u64, false), "past every row");
}
