//! Bulk bottom-up construction of a PDT from an ordered entry stream.
//!
//! [`serialize`](crate::serialize) emits the transposed entries of a
//! Trans-PDT in (SID, RID) order; rebuilding the tree from that stream is
//! simpler — and no slower — than transposing SIDs in place while keeping
//! every inner-node separator consistent. The builder is also used by tests
//! to construct known tree shapes.

use crate::tree::Pdt;
use crate::upd::Upd;
use crate::value_space::ValueSpace;

/// Builds a [`Pdt`] from entries supplied in (SID, RID) order.
pub struct PdtBuilder {
    pdt: Pdt,
    delta: i64,
    last: Option<(u64, u64)>,
}

impl PdtBuilder {
    /// Start building around an existing value space (whose offsets the
    /// pushed entries reference).
    pub fn new(vals: ValueSpace, fanout: usize) -> Self {
        let schema = vals.schema().clone();
        let sk = vals.sk_cols().to_vec();
        let mut pdt = Pdt::with_fanout(schema, sk, fanout);
        // Transplant the value space wholesale: entries pushed later carry
        // offsets into `vals`, not into the fresh empty space.
        *pdt.vals_mut() = vals;
        PdtBuilder {
            pdt,
            delta: 0,
            last: None,
        }
    }

    /// Append one entry. Panics if (SID, RID) order would be violated —
    /// that is a logic error in the caller, never a data condition.
    pub fn push(&mut self, sid: u64, upd: Upd) {
        self.try_push(sid, upd).unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`PdtBuilder::push`] for entries that come from outside the program
    /// (a log read from a file): an entry out of (SID, RID) order, or one
    /// the deletes before it would put at a negative RID, is reported and
    /// not appended.
    pub fn try_push(&mut self, sid: u64, upd: Upd) -> Result<(), String> {
        let rid = sid
            .checked_add_signed(self.delta)
            .ok_or_else(|| format!("builder input at SID {sid} has a negative RID"))?;
        if let Some((ps, pr)) = self.last.filter(|&last| (sid, rid) < last) {
            return Err(format!(
                "builder input out of order: ({sid},{rid}) after ({ps},{pr})"
            ));
        }
        self.last = Some((sid, rid));
        self.delta += upd.delta_contrib();
        self.pdt.append_entry(sid, upd);
        Ok(())
    }

    /// Finish and return the tree.
    pub fn build(self) -> Pdt {
        self.pdt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Schema, Value, ValueType};

    fn vals() -> ValueSpace {
        ValueSpace::new(
            Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]),
            vec![0],
        )
    }

    #[test]
    fn build_empty() {
        let p = PdtBuilder::new(vals(), 8).build();
        assert!(p.is_empty());
        p.check_invariants();
    }

    #[test]
    fn build_many_and_verify() {
        let mut vs = vals();
        let mut offs = Vec::new();
        for i in 0..500i64 {
            offs.push(vs.add_insert(&[Value::Int(i), Value::Int(i * 2)]));
        }
        let mut b = PdtBuilder::new(vs, 8);
        for (i, off) in offs.iter().enumerate() {
            b.push(i as u64, Upd::ins(*off));
        }
        let p = b.build();
        p.check_invariants();
        assert_eq!(p.len(), 500);
        assert_eq!(p.delta_total(), 500);
        // entries retrievable in order with correct rids (sid i, i inserts
        // before it => rid = 2i)
        let e: Vec<_> = p.iter().collect();
        assert_eq!(e[10].sid, 10);
        assert_eq!(e[10].rid, 20);
    }

    #[test]
    fn build_mixed_entry_kinds() {
        let mut vs = vals();
        let ins_off = vs.add_insert(&[Value::Int(5), Value::Int(50)]);
        let del_off = vs.add_delete(&[Value::Int(7)]);
        let mod_off = vs.add_modify(1, &Value::Int(99));
        let mut b = PdtBuilder::new(vs, 4);
        b.push(2, Upd::ins(ins_off));
        b.push(3, Upd::modify(1, mod_off));
        b.push(7, Upd::del(del_off));
        let p = b.build();
        p.check_invariants();
        assert_eq!(p.delta_total(), 0);
        assert_eq!(p.vals().get_modify(1, mod_off), Value::Int(99));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_unordered_input() {
        let mut vs = vals();
        let d0 = vs.add_delete(&[Value::Int(1)]);
        let d1 = vs.add_delete(&[Value::Int(2)]);
        let mut b = PdtBuilder::new(vs, 4);
        b.push(9, Upd::del(d0));
        b.push(3, Upd::del(d1));
    }
}
