//! Selection: keep rows satisfying a boolean expression.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::ops::Operator;
use columnar::ValueType;

/// Filter operator.
pub struct Filter<'a> {
    input: Box<dyn Operator + 'a>,
    predicate: Expr,
}

impl<'a> Filter<'a> {
    /// Keep only `input` rows where `predicate` evaluates true.
    pub fn new(input: Box<dyn Operator + 'a>, predicate: Expr) -> Self {
        Filter { input, predicate }
    }
}

impl Operator for Filter<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        loop {
            let batch = self.input.next_batch()?;
            let idx = self
                .predicate
                .select(&batch, (0..batch.num_rows()).collect());
            if idx.len() == batch.num_rows() {
                return Some(batch);
            }
            if !idx.is_empty() {
                return Some(batch.gather(&idx));
            }
            // fully filtered batch: pull the next one
        }
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.input.out_types()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::ops::{run_to_rows, ValuesOp};
    use columnar::Value;

    fn input() -> Box<dyn Operator> {
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        Box::new(ValuesOp::new(&[ValueType::Int], &rows))
    }

    #[test]
    fn filters_rows() {
        let mut f = Filter::new(input(), col(0).ge(lit(7i64)));
        let got = run_to_rows(&mut f);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0][0], Value::Int(7));
    }

    #[test]
    fn all_pass_returns_batch_unchanged() {
        let mut f = Filter::new(input(), col(0).ge(lit(0i64)));
        assert_eq!(run_to_rows(&mut f).len(), 10);
    }

    #[test]
    fn none_pass_returns_none() {
        let mut f = Filter::new(input(), col(0).gt(lit(100i64)));
        assert!(run_to_rows(&mut f).is_empty());
    }
}
