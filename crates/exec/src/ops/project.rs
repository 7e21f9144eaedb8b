//! Projection: compute a list of expressions per row.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::ops::Operator;
use columnar::{ColumnVec, ValueType};

/// Projection operator.
pub struct Project<'a> {
    input: Box<dyn Operator + 'a>,
    exprs: Vec<Expr>,
    types: Vec<ValueType>,
    /// Per expression, the input column it moves out of the batch: `Some`
    /// for a bare column no other expression reads.
    moves: Vec<Option<usize>>,
}

impl<'a> Project<'a> {
    /// Evaluate one output column per expression in `exprs`. A bare
    /// column that no other expression reads passes through without a
    /// copy.
    pub fn new(input: Box<dyn Operator + 'a>, exprs: Vec<Expr>) -> Self {
        let in_types = input.out_types();
        let types = exprs.iter().map(|e| e.out_type(&in_types)).collect();
        let reads: Vec<Vec<usize>> = exprs.iter().map(Expr::columns).collect();
        let moves = (exprs.iter().enumerate())
            .map(|(k, e)| match e {
                Expr::Col(c) => {
                    let alone = (reads.iter().enumerate()).all(|(j, r)| j == k || !r.contains(c));
                    alone.then_some(*c)
                }
                _ => None,
            })
            .collect();
        Project {
            input,
            exprs,
            types,
            moves,
        }
    }
}

impl Operator for Project<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        let mut batch = self.input.next_batch()?;
        // computed columns first, while they can still borrow the input
        let mut cols: Vec<ColumnVec> = (self.exprs.iter().zip(&self.moves))
            .map(|(e, m)| match m {
                Some(_) => ColumnVec::Bool(Vec::new()),
                None => e.eval(&batch).into_owned(),
            })
            .collect();
        for (out, &m) in cols.iter_mut().zip(&self.moves) {
            if let Some(c) = m {
                *out = std::mem::replace(&mut batch.cols[c], ColumnVec::Bool(Vec::new()));
            }
        }
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

    #[test]
    fn moves_a_column_only_one_expression_reads() {
        let rows: Vec<Vec<Value>> = (1..4)
            .map(|i| vec![Value::Int(i), Value::Double(i as f64), Value::Int(-i)])
            .collect();
        let types = [ValueType::Int, ValueType::Double, ValueType::Int];
        let input = Box::new(ValuesOp::new(&types, &rows));
        // column 2 twice and column 0 beside an expression over it: copied;
        // column 1 alone: moved
        let exprs = vec![col(1), col(2), col(0).add(lit(1i64)), col(0), col(2)];
        let mut p = Project::new(input, exprs);
        assert_eq!(p.moves, vec![Some(1), None, None, None, None]);
        let got = run_to_rows(&mut p);
        assert_eq!(
            got[1],
            vec![
                Value::Double(2.0),
                Value::Int(-2),
                Value::Int(3),
                Value::Int(2),
                Value::Int(-2)
            ]
        );
    }
}
