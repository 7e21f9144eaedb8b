//! Typed, monomorphized merge kernels.
//!
//! The merge-scan reconciliation of the paper is a tight positional patch
//! loop, but a naive implementation dispatches on a dynamic `Value` enum for
//! every cell it touches. This module provides the batch-at-a-time,
//! type-specialized kernels that remove that per-value branching:
//!
//! * **merge-step plans** ([`MergeStep`], [`apply_steps`]) — a positional
//!   merge is planned once per block (runs, inserts, patches) and then
//!   executed per column with a single type dispatch followed by
//!   `extend_from_slice`/`push` loops over native slices;
//! * **prepared keys** ([`PreparedKey`]) — a probe sort key is translated
//!   once into native comparands (including dictionary ranks for coded
//!   string columns, see [`crate::dict::StrDict`]) and then compared against
//!   block rows without materializing a `Value` per row.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::ColumnVec;
use crate::value::Value;

// ---------------------------------------------------------------------------
// merge-step plans
// ---------------------------------------------------------------------------

/// One step of a positional block merge, planned once per block and executed
/// per column by [`apply_steps`]. Inserted and patched values are gathered
/// into dense per-column vectors *in step order* before execution, so the
/// executor never chases offsets through a value space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStep {
    /// Stable rows `[from, to)` of the block pass through unchanged.
    Run {
        /// First stable row of the run (block-relative).
        from: u32,
        /// One past the last stable row of the run.
        to: u32,
    },
    /// Emit the next pre-gathered inserted row.
    Insert,
    /// Emit stable row `row`, overridden per column where the column's
    /// patch mask says so.
    Patch {
        /// The stable row being patched (block-relative).
        row: u32,
    },
}

/// Execute a merge plan for one column.
///
/// * `ins_vals` — one value per [`MergeStep::Insert`], in step order;
/// * `patch_vals` — one value per *hit* patch, in step order;
/// * `patch_hit` — one flag per [`MergeStep::Patch`], in step order: `true`
///   consumes the next `patch_vals` entry, `false` copies the stable cell.
///
/// The column type is dispatched once; each arm then runs monomorphic
/// `extend_from_slice`/`push` loops over native slices. Dictionary-coded
/// string columns stay on the pure `u32` path when every operand shares the
/// same dictionary; mixed representations fall back to a per-value loop
/// that materializes as needed (still correct, just slower).
pub fn apply_steps(
    steps: &[MergeStep],
    out: &mut ColumnVec,
    stable: &ColumnVec,
    ins_vals: &ColumnVec,
    patch_vals: &ColumnVec,
    patch_hit: &[bool],
) {
    fn run_typed<T: Clone>(
        steps: &[MergeStep],
        out: &mut Vec<T>,
        stable: &[T],
        ins: &[T],
        patch: &[T],
        hit: &[bool],
    ) {
        let (mut i, mut p, mut h) = (0usize, 0usize, 0usize);
        for st in steps {
            match *st {
                MergeStep::Run { from, to } => {
                    out.extend_from_slice(&stable[from as usize..to as usize])
                }
                MergeStep::Insert => {
                    out.push(ins[i].clone());
                    i += 1;
                }
                MergeStep::Patch { row } => {
                    if hit[h] {
                        out.push(patch[p].clone());
                        p += 1;
                    } else {
                        out.push(stable[row as usize].clone());
                    }
                    h += 1;
                }
            }
        }
    }

    use ColumnVec::*;
    match (&mut *out, stable, ins_vals, patch_vals) {
        (Bool(o), Bool(s), Bool(iv), Bool(pv)) => run_typed(steps, o, s, iv, pv, patch_hit),
        (Int(o), Int(s), Int(iv), Int(pv)) => run_typed(steps, o, s, iv, pv, patch_hit),
        (Double(o), Double(s), Double(iv), Double(pv)) => run_typed(steps, o, s, iv, pv, patch_hit),
        (Date(o), Date(s), Date(iv), Date(pv)) => run_typed(steps, o, s, iv, pv, patch_hit),
        (Str(o), Str(s), Str(iv), Str(pv)) => run_typed(steps, o, s, iv, pv, patch_hit),
        (Coded(o, od), Coded(s, sd), Coded(iv, ivd), Coded(pv, pvd))
            if Arc::ptr_eq(od, sd) && Arc::ptr_eq(od, ivd) && Arc::ptr_eq(od, pvd) =>
        {
            run_typed(steps, o, s, iv, pv, patch_hit)
        }
        _ => {
            // mixed representations (e.g. a fresh string absent from the
            // dictionary forced an operand to materialize): per-value path
            let (mut i, mut p, mut h) = (0usize, 0usize, 0usize);
            for st in steps {
                match *st {
                    MergeStep::Run { from, to } => {
                        out.extend_range(stable, from as usize, to as usize)
                    }
                    MergeStep::Insert => {
                        out.push_owned(ins_vals.get(i));
                        i += 1;
                    }
                    MergeStep::Patch { row } => {
                        if patch_hit[h] {
                            out.push_owned(patch_vals.get(p));
                            p += 1;
                        } else {
                            out.extend_range(stable, row as usize, row as usize + 1);
                        }
                        h += 1;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// prepared sort-key comparisons
// ---------------------------------------------------------------------------

/// One sort-key component translated to a native comparand.
#[derive(Debug, Clone)]
enum PreparedComp<'a> {
    Bool(bool),
    Int(i64),
    Double(f64),
    Date(i32),
    Str(&'a str),
    /// Probe against a dictionary-coded column: `rank` is the number of
    /// dictionary strings strictly below the probe, `exact` whether the
    /// probe itself is in the dictionary (then `rank` is its code). An
    /// absent probe still orders totally against every code.
    Code {
        rank: u32,
        exact: bool,
    },
    /// Fallback (e.g. a `Null` probe component): `cmp_row` compares the raw
    /// `Value` held in [`PreparedKey::raw`] instead.
    Val,
}

/// A probe sort key prepared against the column representation of a block,
/// comparable against block rows without materializing `Value`s.
///
/// Prepare once per probe (binary-searching coded dictionaries once), then
/// call [`PreparedKey::cmp_row`] per row — the per-row work is a native
/// compare per key component.
#[derive(Debug, Clone)]
pub struct PreparedKey<'a> {
    comps: Vec<PreparedComp<'a>>,
    key: &'a [Value],
}

impl<'a> PreparedKey<'a> {
    /// Translate `key` against the representation of `cols` (the block's
    /// sort-key columns, in key order). `cols` may be shorter than `key`
    /// only if callers never compare the missing suffix.
    pub fn prepare(key: &'a [Value], cols: &[ColumnVec]) -> PreparedKey<'a> {
        let comps = key
            .iter()
            .enumerate()
            .map(|(c, v)| match (v, cols.get(c)) {
                (Value::Str(s), Some(ColumnVec::Coded(_, dict))) => {
                    let (rank, exact) = dict.rank_of(s);
                    PreparedComp::Code { rank, exact }
                }
                (Value::Str(s), _) => PreparedComp::Str(s),
                (Value::Int(x), _) => PreparedComp::Int(*x),
                (Value::Double(x), _) => PreparedComp::Double(*x),
                (Value::Date(x), _) => PreparedComp::Date(*x),
                (Value::Bool(x), _) => PreparedComp::Bool(*x),
                _ => PreparedComp::Val,
            })
            .collect();
        PreparedKey { comps, key }
    }

    /// The raw probe key this was prepared from.
    pub fn raw(&self) -> &'a [Value] {
        self.key
    }

    /// Compare the probe key against row `i` of `cols` (same column order
    /// as at preparation). Returns `probe.cmp(row)`.
    pub fn cmp_row(&self, cols: &[ColumnVec], i: usize) -> Ordering {
        for (c, comp) in self.comps.iter().enumerate() {
            let ord = match (comp, &cols[c]) {
                (PreparedComp::Int(x), ColumnVec::Int(v)) => x.cmp(&v[i]),
                (PreparedComp::Code { rank, exact }, ColumnVec::Coded(codes, _)) => {
                    let code = codes[i];
                    if *exact {
                        rank.cmp(&code)
                    } else if code >= *rank {
                        // probe sorts just before dictionary entry `rank`
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    }
                }
                (PreparedComp::Str(x), ColumnVec::Str(v)) => (*x).cmp(v[i].as_str()),
                (PreparedComp::Str(x), ColumnVec::Coded(codes, dict)) => {
                    (*x).cmp(dict.get(codes[i]))
                }
                (PreparedComp::Date(x), ColumnVec::Date(v)) => x.cmp(&v[i]),
                (PreparedComp::Double(x), ColumnVec::Double(v)) => x.total_cmp(&v[i]),
                (PreparedComp::Bool(x), ColumnVec::Bool(v)) => x.cmp(&v[i]),
                _ => self.key[c].cmp(&cols[c].get(i)),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::StrDict;
    use crate::value::ValueType;

    #[test]
    fn apply_steps_int_plan() {
        let stable = ColumnVec::Int(vec![10, 20, 30, 40]);
        let ins = ColumnVec::Int(vec![15, 35]);
        let patch = ColumnVec::Int(vec![99]);
        let steps = [
            MergeStep::Run { from: 0, to: 1 },
            MergeStep::Insert,
            MergeStep::Patch { row: 1 },
            MergeStep::Patch { row: 2 },
            MergeStep::Insert,
            MergeStep::Run { from: 3, to: 4 },
        ];
        let mut out = ColumnVec::new(ValueType::Int);
        apply_steps(&steps, &mut out, &stable, &ins, &patch, &[true, false]);
        assert_eq!(out.as_int(), &[10, 15, 99, 30, 35, 40]);
    }

    #[test]
    fn apply_steps_coded_stays_coded() {
        let dict = StrDict::build(["a", "b", "c"]);
        let stable = ColumnVec::Coded(vec![0, 1, 2], dict.clone());
        let ins = ColumnVec::Coded(vec![2], dict.clone());
        let patch = ColumnVec::Coded(vec![0], dict.clone());
        let steps = [
            MergeStep::Insert,
            MergeStep::Patch { row: 0 },
            MergeStep::Run { from: 1, to: 3 },
        ];
        let mut out = ColumnVec::new_coded(dict.clone());
        apply_steps(&steps, &mut out, &stable, &ins, &patch, &[true]);
        match &out {
            ColumnVec::Coded(codes, d) => {
                assert!(Arc::ptr_eq(d, &dict));
                assert_eq!(codes, &vec![2, 0, 1, 2]);
            }
            other => panic!("expected coded output, got {:?}", other.vtype()),
        }
    }

    #[test]
    fn apply_steps_mixed_representations_fall_back() {
        let dict = StrDict::build(["a", "b"]);
        let stable = ColumnVec::Coded(vec![0, 1], dict.clone());
        // a fresh string outside the dictionary: operand is materialized
        let ins = ColumnVec::Str(vec!["zz".into()]);
        let patch = ColumnVec::Str(vec![]);
        let steps = [
            MergeStep::Run { from: 0, to: 2 },
            MergeStep::Insert,
            MergeStep::Patch { row: 1 },
        ];
        let mut out = ColumnVec::new_coded(dict);
        apply_steps(&steps, &mut out, &stable, &ins, &patch, &[false]);
        assert_eq!(
            out.iter_values().collect::<Vec<_>>(),
            vec![
                Value::Str("a".into()),
                Value::Str("b".into()),
                Value::Str("zz".into()),
                Value::Str("b".into())
            ]
        );
    }

    #[test]
    fn prepared_key_compares_codes_and_ranks() {
        let dict = StrDict::build(["b", "d", "f"]);
        let col = ColumnVec::Coded(vec![0, 1, 2], dict); // b, d, f
        let key = [Value::Str("d".into())];
        let pk = PreparedKey::prepare(&key, std::slice::from_ref(&col));
        assert_eq!(pk.cmp_row(std::slice::from_ref(&col), 0), Ordering::Greater);
        assert_eq!(pk.cmp_row(std::slice::from_ref(&col), 1), Ordering::Equal);
        assert_eq!(pk.cmp_row(std::slice::from_ref(&col), 2), Ordering::Less);
        // absent probe: "c" sorts between codes 0 and 1, never Equal
        let key = [Value::Str("c".into())];
        let pk = PreparedKey::prepare(&key, std::slice::from_ref(&col));
        assert_eq!(pk.cmp_row(std::slice::from_ref(&col), 0), Ordering::Greater);
        assert_eq!(pk.cmp_row(std::slice::from_ref(&col), 1), Ordering::Less);
    }

    #[test]
    fn prepared_key_multi_component() {
        let cols = [
            ColumnVec::Int(vec![1, 1, 2]),
            ColumnVec::Str(vec!["a".into(), "b".into(), "a".into()]),
        ];
        let key = [Value::Int(1), Value::Str("b".into())];
        let pk = PreparedKey::prepare(&key, &cols);
        assert_eq!(pk.cmp_row(&cols, 0), Ordering::Greater);
        assert_eq!(pk.cmp_row(&cols, 1), Ordering::Equal);
        assert_eq!(pk.cmp_row(&cols, 2), Ordering::Less);
    }
}
