//! Pull-based physical operators.
//!
//! Every operator yields columnar [`Batch`]es via [`Operator::next_batch`]
//! until exhaustion. Plans are trees of boxed operators built by hand.

pub mod aggregate;
pub mod filter;
pub mod gather;
pub mod join;
pub mod project;
pub mod rank;
pub mod scan;
pub mod sort;

use crate::batch::Batch;
use columnar::{Tuple, ValueType};

/// A boxed operator borrowing scan state with lifetime `'a`.
pub type BoxOp<'a> = Box<dyn Operator + 'a>;

/// A block-at-a-time physical operator.
pub trait Operator {
    /// Produce the next batch of rows, or `None` when exhausted.
    fn next_batch(&mut self) -> Option<Batch>;

    /// Types of the output columns (fixed at construction).
    fn out_types(&self) -> Vec<ValueType>;
}

/// Drain an operator into materialised rows (plan roots, tests).
pub fn run_to_rows(op: &mut dyn Operator) -> Vec<Tuple> {
    let mut rows = Vec::new();
    while let Some(b) = op.next_batch() {
        rows.extend(b.rows());
    }
    rows
}

/// Every batch of `input` concatenated into one, or `None` when it yields
/// no rows. A string column coded over several dictionaries (several
/// partitions' scans) stays coded, over their order-preserving union.
pub(crate) fn collect(input: &mut dyn Operator) -> Option<Batch> {
    let mut all = input.next_batch()?;
    while let Some(b) = input.next_batch() {
        for (col, c) in all.cols.iter_mut().zip(&b.cols) {
            col.extend_range(c, 0, c.len());
        }
    }
    Some(all).filter(|b| !b.is_empty())
}

/// A leaf operator yielding one prebuilt batch (tests, literal tables).
pub struct ValuesOp {
    types: Vec<ValueType>,
    batch: Option<Batch>,
}

impl ValuesOp {
    /// A one-batch operator over `rows`.
    pub fn new(types: &[ValueType], rows: &[Tuple]) -> Self {
        ValuesOp {
            types: types.to_vec(),
            batch: Some(Batch::from_rows(types, rows)),
        }
    }
}

impl Operator for ValuesOp {
    fn next_batch(&mut self) -> Option<Batch> {
        self.batch.take().filter(|b| !b.is_empty())
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Value;

    #[test]
    fn values_and_run_to_rows() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let mut op = ValuesOp::new(&[ValueType::Int], &rows);
        assert_eq!(op.out_types(), vec![ValueType::Int]);
        assert_eq!(run_to_rows(&mut op), rows);
        // exhausted
        assert!(op.next_batch().is_none());
    }

    #[test]
    fn empty_values_yields_nothing() {
        let mut op = ValuesOp::new(&[ValueType::Int], &[]);
        assert!(op.next_batch().is_none());
    }
}
