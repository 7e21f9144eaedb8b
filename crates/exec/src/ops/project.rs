//! Projection: compute a list of expressions per row.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::ops::Operator;
use columnar::ValueType;

/// Projection operator.
pub struct Project<'a> {
    input: Box<dyn Operator + 'a>,
    exprs: Vec<Expr>,
    types: Vec<ValueType>,
}

impl<'a> Project<'a> {
    /// Evaluate one output column per expression in `exprs`.
    pub fn new(input: Box<dyn Operator + 'a>, exprs: Vec<Expr>) -> Self {
        let in_types = input.out_types();
        let types = exprs.iter().map(|e| e.out_type(&in_types)).collect();
        Project {
            input,
            exprs,
            types,
        }
    }
}

impl Operator for Project<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        let batch = self.input.next_batch()?;
        let cols = self
            .exprs
            .iter()
            .map(|e| e.eval(&batch).into_owned())
            .collect();
        Some(Batch {
            cols,
            rid_start: batch.rid_start,
        })
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::ops::{run_to_rows, ValuesOp};
    use columnar::Value;

    #[test]
    fn computes_expressions() {
        let rows: Vec<Vec<Value>> = (1..4)
            .map(|i| vec![Value::Int(i), Value::Double(i as f64)])
            .collect();
        let input = Box::new(ValuesOp::new(&[ValueType::Int, ValueType::Double], &rows));
        let mut p = Project::new(input, vec![col(0).mul(lit(2i64)), col(1).add(col(0))]);
        assert_eq!(p.out_types(), vec![ValueType::Int, ValueType::Double]);
        let got = run_to_rows(&mut p);
        assert_eq!(got[2], vec![Value::Int(6), Value::Double(6.0)]);
    }
}
