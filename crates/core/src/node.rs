//! Arena-allocated PDT tree nodes.
//!
//! The PDT is a B+-tree-like counted tree (§3.1). Internal nodes carry, per
//! child, the minimum SID of the child's subtree (`mins`) and the subtree's
//! contribution to ∆ (`deltas` = #inserts − #deletes inside it). Leaves
//! store parallel arrays of SIDs and update triplets plus sibling links for
//! cross-leaf chain walking and leaf-order iteration.
//!
//! Nodes live in a `Vec` arena inside [`crate::Pdt`] and are addressed by
//! [`NodeId`]; this keeps the tree safely mutable (no parent pointers) and
//! cache-friendly, in the spirit of the paper's 128-byte packed leaves.

use crate::upd::Upd;

/// Index of a node in the PDT arena.
pub type NodeId = u32;

/// Sentinel for "no node".
pub const NIL: NodeId = u32::MAX;

/// A leaf node: parallel arrays of (SID, update) entries in (SID, RID)
/// order, plus sibling links.
#[derive(Debug, Clone, Default)]
pub struct Leaf {
    /// SID of each entry, ascending.
    pub sids: Vec<u64>,
    /// The update each entry carries, parallel to `sids`.
    pub upds: Vec<Upd>,
    /// The previous leaf in leaf order, or [`NIL`].
    pub prev: NodeId,
    /// The next leaf in leaf order, or [`NIL`].
    pub next: NodeId,
}

impl Leaf {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sids.len()
    }

    /// Whether the leaf holds no entry.
    pub fn is_empty(&self) -> bool {
        self.sids.is_empty()
    }

    /// Sum of the entries' ∆ contributions.
    pub fn delta_sum(&self) -> i64 {
        self.upds.iter().map(Upd::delta_contrib).sum()
    }
}

/// An internal node: per-child subtree minimum SID and ∆ contribution.
///
/// Unlike a classic B+-tree that stores `children.len() - 1` separators, we
/// store the minimum SID of *every* child (`mins[0]` included). This spends
/// one extra word per node and in exchange makes the counted descent
/// self-contained — no separator context needs to be threaded down.
#[derive(Debug, Clone, Default)]
pub struct Internal {
    /// Minimum SID of each child's subtree.
    pub mins: Vec<u64>,
    /// ∆ contribution (#inserts − #deletes) of each child's subtree.
    pub deltas: Vec<i64>,
    /// The children, parallel to `mins` and `deltas`.
    pub children: Vec<NodeId>,
}

impl Internal {
    /// Number of children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the node has no child.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Sum of the children's ∆ contributions.
    pub fn delta_sum(&self) -> i64 {
        self.deltas.iter().sum()
    }
}

/// A PDT tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// A leaf of update entries.
    Leaf(Leaf),
    /// An internal node over child subtrees.
    Internal(Internal),
}

impl Node {
    /// The leaf; panics on an internal node.
    pub fn as_leaf(&self) -> &Leaf {
        match self {
            Node::Leaf(l) => l,
            Node::Internal(_) => panic!("expected leaf node"),
        }
    }

    /// The leaf, mutably; panics on an internal node.
    pub fn as_leaf_mut(&mut self) -> &mut Leaf {
        match self {
            Node::Leaf(l) => l,
            Node::Internal(_) => panic!("expected leaf node"),
        }
    }

    /// The internal node; panics on a leaf.
    pub fn as_internal(&self) -> &Internal {
        match self {
            Node::Internal(i) => i,
            Node::Leaf(_) => panic!("expected internal node"),
        }
    }

    /// The internal node, mutably; panics on a leaf.
    pub fn as_internal_mut(&mut self) -> &mut Internal {
        match self {
            Node::Internal(i) => i,
            Node::Leaf(_) => panic!("expected internal node"),
        }
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_delta_sum() {
        let leaf = Leaf {
            sids: vec![0, 0, 1],
            upds: vec![Upd::ins(0), Upd::ins(1), Upd::del(0)],
            prev: NIL,
            next: NIL,
        };
        assert_eq!(leaf.delta_sum(), 1);
        assert_eq!(leaf.len(), 3);
    }

    #[test]
    fn node_accessors() {
        let mut n = Node::Leaf(Leaf::default());
        assert!(n.is_leaf());
        assert!(n.as_leaf().is_empty());
        n.as_leaf_mut().sids.push(4);
        assert_eq!(n.as_leaf().len(), 1);

        let i = Node::Internal(Internal {
            mins: vec![0, 5],
            deltas: vec![2, -1],
            children: vec![0, 1],
        });
        assert_eq!(i.as_internal().delta_sum(), 1);
        assert!(!i.is_leaf());
    }

    #[test]
    #[should_panic(expected = "expected leaf")]
    fn wrong_accessor_panics() {
        Node::Internal(Internal::default()).as_leaf();
    }
}
