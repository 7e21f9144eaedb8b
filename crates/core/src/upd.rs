//! PDT leaf update entries.
//!
//! The paper's C layout (§3.1) packs an update into 16 bytes: a 64-bit SID
//! plus a `{16-bit type, 48-bit value offset}` word, where the type field is
//! `INS` (65535), `DEL` (65534), or the column number of a modification. We
//! keep the same two-field shape (`sid` lives in a parallel array in the
//! leaf); the value offset is a full `u64` index into the value space.

/// Type code for an insert (paper: `#define INS 65535`).
pub const INS: u16 = u16::MAX;
/// Type code for a delete (paper: `#define DEL 65534`).
pub const DEL: u16 = u16::MAX - 1;
/// Maximum table column number representable in the type field.
pub const MAX_COL: u16 = DEL - 1;

/// The `(type, value)` half of a PDT update triplet; the SID half is stored
/// in a parallel array in the leaf (see [`crate::node::Leaf`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Upd {
    /// `INS`, `DEL`, or the modified column number.
    pub kind: u16,
    /// Offset into the corresponding value-space table: the insert table
    /// for `INS`, the delete table for `DEL`, or the per-column modify
    /// table for modifications.
    pub val: u64,
}

impl Upd {
    /// An insert of the insert-table row at `val`.
    pub fn ins(val: u64) -> Upd {
        Upd { kind: INS, val }
    }

    /// A delete whose sort key is the delete-table row at `val`.
    pub fn del(val: u64) -> Upd {
        Upd { kind: DEL, val }
    }

    /// A modification of column `col` to the modify-table value at
    /// `val`; panics when `col` collides with the insert/delete codes.
    pub fn modify(col: u16, val: u64) -> Upd {
        assert!(
            col <= MAX_COL,
            "column number {col} collides with INS/DEL codes"
        );
        Upd { kind: col, val }
    }

    /// Whether the entry is an insert.
    pub fn is_ins(&self) -> bool {
        self.kind == INS
    }

    /// Whether the entry is a delete.
    pub fn is_del(&self) -> bool {
        self.kind == DEL
    }

    /// Whether the entry is a modification.
    pub fn is_mod(&self) -> bool {
        self.kind < DEL
    }

    /// Column number of a modification entry.
    pub fn col_no(&self) -> u16 {
        debug_assert!(self.is_mod());
        self.kind
    }

    /// Contribution of this entry to ∆ (RID − SID): +1 for an insert, −1
    /// for a delete, 0 for a modify (eq. (5) of the paper).
    pub fn delta_contrib(&self) -> i64 {
        if self.is_ins() {
            1
        } else if self.is_del() {
            -1
        } else {
            0
        }
    }
}

/// A fully resolved view of one PDT entry, produced by iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryView {
    /// Stable ID: position in the underlying (stable) table image.
    pub sid: u64,
    /// Current row ID: `sid + ∆`, with ∆ the running insert/delete balance
    /// of all preceding entries.
    pub rid: u64,
    /// The update triplet's type/value half.
    pub upd: Upd,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_paper() {
        assert_eq!(INS, 65535);
        assert_eq!(DEL, 65534);
    }

    #[test]
    fn kind_predicates() {
        assert!(Upd::ins(0).is_ins());
        assert!(Upd::del(0).is_del());
        assert!(Upd::modify(3, 0).is_mod());
        assert_eq!(Upd::modify(3, 0).col_no(), 3);
        assert!(!Upd::modify(3, 0).is_ins());
    }

    #[test]
    fn delta_contributions() {
        assert_eq!(Upd::ins(0).delta_contrib(), 1);
        assert_eq!(Upd::del(0).delta_contrib(), -1);
        assert_eq!(Upd::modify(1, 0).delta_contrib(), 0);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn modify_rejects_reserved_codes() {
        Upd::modify(DEL, 0);
    }
}
