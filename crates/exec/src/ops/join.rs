//! Hash joins: inner, left-outer, semi and anti.

use crate::batch::{keys_eq, Batch, KeyIndex};
use crate::ops::Operator;
use columnar::{ColumnVec, Value, ValueType};

/// Join flavours. The *probe* side streams; the *build* side is
/// materialised into the hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit probe ++ build columns for every key match.
    Inner,
    /// Emit every probe row; build columns are type defaults when
    /// unmatched, and a trailing `matched: Bool` column reports whether a
    /// match existed (our typed columns have no null representation).
    LeftOuter,
    /// Emit probe rows that have at least one match (no build columns).
    Semi,
    /// Emit probe rows that have no match (no build columns).
    Anti,
}

/// Hash join operator. The build side is concatenated into one batch (a
/// string column coded over several partitions' dictionaries stays coded,
/// over their union) and indexed by the hash of its key columns; each
/// probe batch yields its output as two gathers, probe rows and build rows.
pub struct HashJoin<'a> {
    probe: Box<dyn Operator + 'a>,
    build: Option<Box<dyn Operator + 'a>>,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    kind: JoinKind,
    /// Every build row, then (left-outer only) one row of type defaults
    /// that unmatched probe rows point at.
    built: Batch,
    index: KeyIndex,
    types: Vec<ValueType>,
}

impl<'a> HashJoin<'a> {
    /// Hash-join `probe` against `build` on the given key columns; output
    /// is the probe row followed by the matched build row (inner/outer).
    /// Key columns match under the rule of the hash operators: equal
    /// types, strings by content, doubles by bit pattern.
    pub fn new(
        probe: Box<dyn Operator + 'a>,
        build: Box<dyn Operator + 'a>,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        kind: JoinKind,
    ) -> Self {
        let mut types = probe.out_types();
        let build_types = build.out_types();
        let built = Batch::empty(&build_types);
        if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
            types.extend(build_types);
        }
        if kind == JoinKind::LeftOuter {
            types.push(ValueType::Bool); // `matched` indicator
        }
        HashJoin {
            probe,
            build: Some(build),
            probe_keys,
            build_keys,
            kind,
            built,
            index: KeyIndex::default(),
            types,
        }
    }

    fn build_table(&mut self) {
        let Some(mut build) = self.build.take() else {
            return;
        };
        while let Some(b) = build.next_batch() {
            if self.built.is_empty() {
                self.built = b;
            } else {
                for (all, c) in self.built.cols.iter_mut().zip(&b.cols) {
                    all.extend_range(c, 0, c.len());
                }
            }
        }
        let (keys, n) = (self.built.cols_at(&self.build_keys), self.built.num_rows());
        self.index.reserve(n);
        for h in self.index.hash_rows(&keys, n) {
            self.index.insert(h);
        }
        if self.kind == JoinKind::LeftOuter {
            self.built
                .push_row(&vec![Value::Null; self.built.num_cols()]);
        }
    }
}

impl Operator for HashJoin<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        self.build_table();
        let build_keys = self.built.cols_at(&self.build_keys);
        let defaults = self.index.len();
        loop {
            let batch = self.probe.next_batch()?;
            let probe_keys = batch.cols_at(&self.probe_keys);
            let hashes = self.index.hash_rows(&probe_keys, batch.num_rows());
            // output row k is probe row `probe_at[k]` ++ build row `build_at[k]`
            let (mut probe_at, mut build_at, mut matched) = (Vec::new(), Vec::new(), Vec::new());
            for (i, &h) in hashes.iter().enumerate() {
                let mut hits = self
                    .index
                    .candidates(h)
                    .filter(|&j| keys_eq(&probe_keys, i, &build_keys, j as usize));
                match self.kind {
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        let before = build_at.len();
                        build_at.extend(hits.map(|j| j as usize));
                        let hit = build_at.len() > before;
                        if self.kind == JoinKind::LeftOuter {
                            if !hit {
                                build_at.push(defaults);
                            }
                            matched.resize(build_at.len(), hit);
                        }
                        probe_at.resize(build_at.len(), i);
                    }
                    JoinKind::Semi if hits.next().is_some() => probe_at.push(i),
                    JoinKind::Anti if hits.next().is_none() => probe_at.push(i),
                    JoinKind::Semi | JoinKind::Anti => {}
                }
            }
            if probe_at.is_empty() {
                continue; // fully unmatched batch for Inner/Semi: pull more input
            }
            let mut out = batch.gather(&probe_at);
            if matches!(self.kind, JoinKind::Inner | JoinKind::LeftOuter) {
                out = out.zip(self.built.gather(&build_at));
            }
            if self.kind == JoinKind::LeftOuter {
                out.cols.push(ColumnVec::Bool(matched));
            }
            return Some(out);
        }
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{run_to_rows, ValuesOp};
    use columnar::Tuple;

    fn left() -> Box<dyn Operator> {
        let rows: Vec<Tuple> = [(1i64, "x"), (2, "y"), (3, "z")]
            .iter()
            .map(|(k, s)| vec![Value::Int(*k), Value::Str(s.to_string())])
            .collect();
        Box::new(ValuesOp::new(&[ValueType::Int, ValueType::Str], &rows))
    }

    fn right() -> Box<dyn Operator> {
        let rows: Vec<Tuple> = [(1i64, 100i64), (1, 101), (3, 300)]
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect();
        Box::new(ValuesOp::new(&[ValueType::Int, ValueType::Int], &rows))
    }

    #[test]
    fn inner_join_duplicates_matches() {
        let mut j = HashJoin::new(left(), right(), vec![0], vec![0], JoinKind::Inner);
        let got = run_to_rows(&mut j);
        assert_eq!(got.len(), 3); // key 1 matches twice, key 3 once
        assert_eq!(j.out_types().len(), 4);
    }

    #[test]
    fn left_outer_marks_matches() {
        let mut j = HashJoin::new(left(), right(), vec![0], vec![0], JoinKind::LeftOuter);
        assert_eq!(j.out_types().len(), 5, "probe + build + matched flag");
        let got = run_to_rows(&mut j);
        assert_eq!(got.len(), 4);
        let unmatched: Vec<_> = got.iter().filter(|r| r[4] == Value::Bool(false)).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][0], Value::Int(2));
    }

    #[test]
    fn semi_and_anti() {
        let mut j = HashJoin::new(left(), right(), vec![0], vec![0], JoinKind::Semi);
        let got = run_to_rows(&mut j);
        assert_eq!(got.len(), 2); // keys 1 and 3, no duplication
        assert_eq!(j.out_types().len(), 2);

        let mut j = HashJoin::new(left(), right(), vec![0], vec![0], JoinKind::Anti);
        let got = run_to_rows(&mut j);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0], Value::Int(2));
    }
}
