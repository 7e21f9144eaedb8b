//! The Positional Delta Tree.
//!
//! A counted B+-tree (§3.1 of the paper) over update triplets
//! `(SID, type, value)`, ordered by the unique key `(SID, RID)`
//! (Theorem 1). Internal nodes store, per child, the subtree's minimum SID
//! and its ∆ contribution (#inserts − #deletes), so that a root-to-leaf
//! descent can translate between SIDs (positions in the stable image) and
//! RIDs (current positions) in logarithmic time — Algorithm 1.
//!
//! Update operations implement Algorithms 3–5, including the
//! update-of-update folding rules of §2.1:
//!
//! * deleting a previously *inserted* tuple erases the insert entry
//!   entirely,
//! * modifying an inserted or already-modified value rewrites the value
//!   space in place,
//! * deleting a stable tuple that carries modifications drops the MOD
//!   entries and leaves a single DEL,
//! * ghost tuples (deleted stable tuples) retain their ordering role:
//!   [`Pdt::sk_rid_to_sid`] (Algorithm 6) positions incoming inserts
//!   relative to ghosts by comparing sort keys against the delete table.

use crate::node::{Internal, Leaf, Node, NodeId, NIL};
use crate::upd::{EntryView, Upd};
use crate::value_space::ValueSpace;
use columnar::{Schema, Value};
use std::cmp::Ordering;

/// Default tree fan-out. The paper uses 8 (two cache lines); 16 behaves a
/// little better for our dynamic-value leaves. Configurable per tree
/// ([`Pdt::with_fanout`]).
pub const DEFAULT_FANOUT: usize = 16;

/// Outcome of [`Pdt::add_delete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The target tuple was a pending insert; it has been erased from the
    /// PDT ("really disappeared" — §2.1).
    RemovedInsert,
    /// A DEL entry was recorded for a stable tuple (a new ghost). Any MOD
    /// entries the tuple carried were dropped.
    AddedDelete,
}

/// Result of resolving a RID to the underlying image — see
/// [`Pdt::lookup_rid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RidLookup {
    /// SID of the visible tuple at the queried RID.
    pub sid: u64,
    /// If the visible tuple is a pending insert, its insert-table offset.
    pub insert_off: Option<u64>,
}

/// A read position inside the PDT: a leaf, an entry index within it, and
/// the running ∆ *before* that entry. Invalidated by any mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    pub(crate) leaf: NodeId,
    pub(crate) idx: usize,
    /// ∆ accumulated over all entries before (leaf, idx).
    pub delta: i64,
}

/// The Positional Delta Tree.
#[derive(Debug, Clone)]
pub struct Pdt {
    nodes: Vec<Node>,
    parents: Vec<NodeId>,
    free: Vec<NodeId>,
    root: NodeId,
    first_leaf: NodeId,
    entry_count: usize,
    fanout: usize,
    vals: ValueSpace,
}

impl Pdt {
    /// An empty PDT for a table with the given schema and sort-key columns.
    pub fn new(schema: Schema, sk_cols: Vec<usize>) -> Self {
        Self::with_fanout(schema, sk_cols, DEFAULT_FANOUT)
    }

    /// As [`Pdt::new`] with an explicit fan-out (≥ 4).
    pub fn with_fanout(schema: Schema, sk_cols: Vec<usize>, fanout: usize) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        let mut pdt = Pdt {
            nodes: Vec::new(),
            parents: Vec::new(),
            free: Vec::new(),
            root: NIL,
            first_leaf: NIL,
            entry_count: 0,
            fanout,
            vals: ValueSpace::new(schema, sk_cols),
        };
        let root = pdt.alloc(Node::Leaf(Leaf {
            prev: NIL,
            next: NIL,
            ..Leaf::default()
        }));
        pdt.root = root;
        pdt.first_leaf = root;
        pdt
    }

    // --- basic accessors ---------------------------------------------------

    /// Schema of the table the PDT updates.
    pub fn schema(&self) -> &Schema {
        self.vals.schema()
    }

    /// The table's sort-key columns.
    pub fn sk_cols(&self) -> &[usize] {
        self.vals.sk_cols()
    }

    /// Most entries or children a node holds.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of update entries currently stored.
    pub fn len(&self) -> usize {
        self.entry_count
    }

    /// Whether the PDT stores no update.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Total ∆ of the whole PDT: #inserts − #deletes. A table with `N`
    /// stable rows merges to `N + delta_total()` visible rows.
    pub fn delta_total(&self) -> i64 {
        self.node_delta_sum(self.root)
    }

    /// Append a batch of inserted tuples to the value space column-at-a-time
    /// without touching the tree; returns the offset of the first tuple.
    /// Pair with one [`Pdt::add_insert_off`] call per row.
    pub fn add_insert_batch(&mut self, cols: &[columnar::ColumnVec]) -> u64 {
        self.vals.add_insert_cols(cols)
    }

    /// The value space (insert/delete/modify tables).
    pub fn vals(&self) -> &ValueSpace {
        &self.vals
    }

    pub(crate) fn vals_mut(&mut self) -> &mut ValueSpace {
        &mut self.vals
    }

    /// Consume the PDT, yielding its value space (used by Serialize, which
    /// rebuilds the tree around the unchanged value tables).
    pub(crate) fn into_value_space(self) -> ValueSpace {
        self.vals
    }

    /// Rightmost leaf (append position for the bulk builder).
    pub(crate) fn last_leaf(&self) -> NodeId {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Leaf(_) => return id,
                Node::Internal(n) => id = *n.children.last().expect("internal node non-empty"),
            }
        }
    }

    /// Append an entry at the very end of the tree; the caller must keep
    /// the global (SID, RID) order. Used by the bulk builder only.
    pub(crate) fn append_entry(&mut self, sid: u64, upd: Upd) {
        let leaf = self.last_leaf();
        let idx = self.leaf(leaf).len();
        self.insert_entry(leaf, idx, sid, upd);
    }

    /// Approximate heap footprint: tree nodes + value space. This is the
    /// quantity the Write-PDT size threshold (Propagate policy) watches.
    pub fn heap_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Leaf(l) => l.sids.len() * 8 + l.upds.len() * 16 + 16,
                Node::Internal(i) => i.children.len() * 20 + 8,
            })
            .sum();
        node_bytes + self.vals.heap_bytes()
    }

    // --- arena management ----------------------------------------------------

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            self.parents[id as usize] = NIL;
            id
        } else {
            let id = self.nodes.len() as NodeId;
            self.nodes.push(node);
            self.parents.push(NIL);
            id
        }
    }

    fn free_node(&mut self, id: NodeId) {
        self.nodes[id as usize] = Node::Leaf(Leaf::default());
        self.parents[id as usize] = NIL;
        self.free.push(id);
    }

    fn leaf(&self, id: NodeId) -> &Leaf {
        self.nodes[id as usize].as_leaf()
    }

    fn leaf_mut(&mut self, id: NodeId) -> &mut Leaf {
        self.nodes[id as usize].as_leaf_mut()
    }

    fn internal(&self, id: NodeId) -> &Internal {
        self.nodes[id as usize].as_internal()
    }

    fn internal_mut(&mut self, id: NodeId) -> &mut Internal {
        self.nodes[id as usize].as_internal_mut()
    }

    fn node_delta_sum(&self, id: NodeId) -> i64 {
        match &self.nodes[id as usize] {
            Node::Leaf(l) => l.delta_sum(),
            Node::Internal(i) => i.delta_sum(),
        }
    }

    fn node_min_sid(&self, id: NodeId) -> u64 {
        match &self.nodes[id as usize] {
            Node::Leaf(l) => *l.sids.first().unwrap_or(&u64::MAX),
            Node::Internal(i) => *i.mins.first().unwrap_or(&u64::MAX),
        }
    }

    fn child_index(&self, parent: NodeId, child: NodeId) -> usize {
        self.internal(parent)
            .children
            .iter()
            .position(|&c| c == child)
            .expect("child not found under parent")
    }

    // --- cursors (Algorithm 1 generalised) -----------------------------------

    /// Cursor at the first entry (or the end position if empty).
    pub fn begin(&self) -> Cursor {
        Cursor {
            leaf: self.first_leaf,
            idx: 0,
            delta: 0,
        }
    }

    /// The entry under the cursor, or `None` at the end.
    pub fn entry(&self, cur: &Cursor) -> Option<EntryView> {
        if cur.leaf == NIL {
            return None;
        }
        let leaf = self.leaf(cur.leaf);
        if cur.idx >= leaf.len() {
            return None;
        }
        let sid = leaf.sids[cur.idx];
        Some(EntryView {
            sid,
            rid: (sid as i64 + cur.delta) as u64,
            upd: leaf.upds[cur.idx],
        })
    }

    /// Advance the cursor by one entry, accumulating ∆.
    pub fn advance(&self, cur: &mut Cursor) {
        let Some(e) = self.entry(cur) else { return };
        cur.delta += e.upd.delta_contrib();
        cur.idx += 1;
        let leaf = self.leaf(cur.leaf);
        if cur.idx >= leaf.len() && leaf.next != NIL {
            cur.leaf = leaf.next;
            cur.idx = 0;
        }
    }

    /// Counted descent: returns the leaf holding the last entry for which
    /// `stop(sid, rid)` is false (or the leftmost leaf) plus the ∆ before
    /// that leaf's first entry. `stop` must be monotone along the entry
    /// sequence (false… then true…).
    fn descend(&self, stop: &mut impl FnMut(u64, u64) -> bool) -> (NodeId, i64) {
        let mut id = self.root;
        let mut delta = 0i64;
        loop {
            match &self.nodes[id as usize] {
                Node::Leaf(_) => return (id, delta),
                Node::Internal(n) => {
                    let mut chosen = 0usize;
                    let mut chosen_delta = delta;
                    let mut d = delta;
                    for j in 0..n.len() {
                        let first_sid = n.mins[j];
                        let first_rid = (first_sid as i64 + d) as u64;
                        if j > 0 && stop(first_sid, first_rid) {
                            break;
                        }
                        chosen = j;
                        chosen_delta = d;
                        d += n.deltas[j];
                    }
                    id = n.children[chosen];
                    delta = chosen_delta;
                }
            }
        }
    }

    /// Cursor at the first entry satisfying the monotone predicate (the
    /// end position when none does): the counted descent, then a scan of
    /// the leaf's arrays — [`Pdt::advance`]'s steps, without re-reading
    /// the entry per step.
    fn seek_by(&self, mut stop: impl FnMut(u64, u64) -> bool) -> Cursor {
        let (leaf, delta) = self.descend(&mut stop);
        let mut cur = Cursor {
            leaf,
            idx: 0,
            delta,
        };
        loop {
            let l = self.leaf(cur.leaf);
            while let (Some(&sid), Some(upd)) = (l.sids.get(cur.idx), l.upds.get(cur.idx)) {
                if stop(sid, (sid as i64 + cur.delta) as u64) {
                    return cur;
                }
                cur.delta += upd.delta_contrib();
                cur.idx += 1;
            }
            if l.next == NIL {
                return cur;
            }
            cur.leaf = l.next;
            cur.idx = 0;
        }
    }

    /// First entry with `sid >= s` (paper: `FindLeafBySid`).
    pub fn seek_sid(&self, s: u64) -> Cursor {
        self.seek_by(|sid, _| sid >= s)
    }

    /// First entry with `rid >= r` (paper: `FindLeftLeafByRid`).
    pub fn seek_rid(&self, r: u64) -> Cursor {
        self.seek_by(|_, rid| rid >= r)
    }

    /// Iterate all entries in (SID, RID) order.
    pub fn iter(&self) -> Entries<'_> {
        Entries {
            pdt: self,
            cur: self.begin(),
        }
    }

    // --- SID/RID mapping -----------------------------------------------------

    /// Resolve the *visible* tuple at `rid`: its SID (Algorithm 1 flavour)
    /// and, when it is a pending insert, the insert-table offset.
    pub fn lookup_rid(&self, rid: u64) -> RidLookup {
        self.resolve_rid(rid, |_, _| {})
    }

    /// [`Pdt::lookup_rid`] for a reader that wants the tuple's *values*:
    /// additionally reports the MOD chain of a modified stable tuple as
    /// `on_mod(column, modify-table offset)`, in chain order. A pending
    /// insert has no chain (modify-of-insert rewrites the insert table in
    /// place), so a reader takes an insert's columns from the insert table
    /// at `insert_off`, a chain column from that column's modify table, and
    /// every other column from the image below at the returned SID — one
    /// logarithmic descent, no sort-key compare.
    pub fn resolve_rid(&self, rid: u64, mut on_mod: impl FnMut(usize, u64)) -> RidLookup {
        let mut cur = self.seek_rid(rid);
        // Skip ghosts: DEL entries share the RID of the first following
        // non-ghost tuple.
        while let Some(e) = self.entry(&cur) {
            if e.rid == rid && e.upd.is_del() {
                self.advance(&mut cur);
            } else {
                break;
            }
        }
        let sid = (rid as i64 - cur.delta) as u64;
        let mut insert_off = None;
        while let Some(e) = self.entry(&cur) {
            if e.rid != rid || e.upd.is_del() {
                break;
            }
            if e.upd.is_ins() {
                insert_off = Some(e.upd.val);
                break;
            }
            on_mod(e.upd.col_no() as usize, e.upd.val);
            self.advance(&mut cur);
        }
        RidLookup { sid, insert_off }
    }

    /// RID of the stable tuple `sid`, plus whether it is still alive
    /// (deleted stable tuples — ghosts — report the RID of the first
    /// following non-ghost, per §2).
    pub fn rid_of_stable(&self, sid: u64) -> (u64, bool) {
        let mut cur = self.seek_sid(sid);
        // Inserts at this SID precede the stable tuple.
        while let Some(e) = self.entry(&cur) {
            if e.sid == sid && e.upd.is_ins() {
                self.advance(&mut cur);
            } else {
                break;
            }
        }
        let alive = !matches!(self.entry(&cur), Some(e) if e.sid == sid && e.upd.is_del());
        ((sid as i64 + cur.delta) as u64, alive)
    }

    /// Algorithm 6: given the sort key of an incoming insert and its target
    /// RID, determine the SID it must receive so that it respects the order
    /// of ghost tuples at that position.
    pub fn sk_rid_to_sid(&self, sk: &[Value], rid: u64) -> u64 {
        let cur = self.ghost_cursor(rid, |vals, ghost| sk > vals.get_delete(ghost).as_slice());
        (rid as i64 - cur.delta) as u64
    }

    /// Algorithm 6's walk: from the first entry at `rid`, step over the
    /// ghosts there whose key the incoming insert sorts after (`after`,
    /// given the ghost's delete-table offset). The cursor stops where the
    /// insert goes; its SID is `rid − ∆` there.
    fn ghost_cursor(&self, rid: u64, after: impl Fn(&ValueSpace, u64) -> bool) -> Cursor {
        let mut cur = self.seek_rid(rid);
        while let Some(e) = self.entry(&cur) {
            if e.rid == rid && e.upd.is_del() && after(&self.vals, e.upd.val) {
                self.advance(&mut cur);
                continue;
            }
            break;
        }
        cur
    }

    /// One layer of a sort-key rank (Algorithm 6 read the other way): given
    /// `sid`, the lower bound of `key` in the image below this PDT (the
    /// number of its rows sorting before `key`), and `eq`, whether the row
    /// at `sid` there has exactly that key, return the same pair for the
    /// image this PDT produces. The inserts at `sid` whose key sorts before
    /// `key` are counted in; an insert with an equal key makes `eq` true;
    /// a DEL at `sid` ghosts the row `eq` spoke of. Keys are compared in
    /// the insert table, in place. One logarithmic descent.
    pub fn lift_rank(&self, sid: u64, eq: bool, key: &[Value]) -> (u64, bool) {
        let mut cur = self.seek_sid(sid);
        let mut eq = eq;
        while let Some(e) = self.entry(&cur).filter(|e| e.sid == sid) {
            if e.upd.is_ins() {
                match self.vals.cmp_insert_key(e.upd.val, key) {
                    Ordering::Less => {
                        self.advance(&mut cur);
                        continue;
                    }
                    ord => return (e.rid, ord == Ordering::Equal),
                }
            }
            // the row below at `sid`: a DEL ghosts it, a MOD keeps its key
            eq &= !e.upd.is_del();
            break;
        }
        ((sid as i64 + cur.delta) as u64, eq)
    }

    // --- update operations (Algorithms 3-5) ----------------------------------

    /// Algorithm 3: record the insertion of `tuple` at current position
    /// `rid`, with `sid` previously determined via [`Pdt::sk_rid_to_sid`]
    /// (or equal to the following stable tuple for tables without ghosts at
    /// that position).
    pub fn add_insert(&mut self, sid: u64, rid: u64, tuple: &[Value]) {
        let cur = self.seek_by(|s, r| s >= sid && r >= rid);
        let esid = (rid as i64 - cur.delta) as u64;
        assert_eq!(
            esid, sid,
            "inconsistent (sid={sid}, rid={rid}) pair: position implies sid {esid}"
        );
        let off = self.vals.add_insert(tuple);
        self.insert_entry(cur.leaf, cur.idx, esid, Upd::ins(off));
    }

    /// Algorithms 6 and 3 in one descent, for a tuple *already appended*
    /// to the value space at offset `off` (see [`Pdt::add_insert_batch`]):
    /// it becomes visible row `rid`, after the ghosts there whose sort key
    /// sorts before its own — compared cell by cell in the value space.
    /// Only the tree entry is created here, so batch staging and Propagate
    /// append values column-at-a-time, then make one tree insertion per
    /// row.
    pub fn add_insert_off(&mut self, rid: u64, off: u64) {
        let cur = self.ghost_cursor(rid, |vals, ghost| {
            vals.cmp_insert_delete(off, ghost) == Ordering::Greater
        });
        let sid = (rid as i64 - cur.delta) as u64;
        self.insert_entry(cur.leaf, cur.idx, sid, Upd::ins(off));
    }

    /// Algorithm 4: set column `col` of the visible tuple at `rid` to
    /// `value`. Folds into an existing INS or MOD entry when present.
    pub fn add_modify(&mut self, rid: u64, col: usize, value: &Value) {
        let mut cur = self.seek_rid(rid);
        // skip ghosts sharing this RID
        while let Some(e) = self.entry(&cur) {
            if e.rid == rid && e.upd.is_del() {
                self.advance(&mut cur);
            } else {
                break;
            }
        }
        // walk the target tuple's chain
        while let Some(e) = self.entry(&cur) {
            if e.rid != rid {
                break;
            }
            if e.upd.is_ins() {
                // modify-of-insert: rewrite the pending tuple in place
                self.vals.set_insert_col(e.upd.val, col, value);
                return;
            }
            debug_assert!(e.upd.is_mod());
            if e.upd.col_no() as usize == col {
                // modify-of-modify: rewrite the value space in place
                self.vals.set_modify(col, e.upd.val, value);
                return;
            }
            self.advance(&mut cur);
        }
        // new modification triplet for a stable tuple
        let sid = (rid as i64 - cur.delta) as u64;
        let off = self.vals.add_modify(col, value);
        self.insert_entry(cur.leaf, cur.idx, sid, Upd::modify(col as u16, off));
    }

    /// Algorithm 5: delete the visible tuple at `rid`. `sk_values` are the
    /// tuple's sort-key values, stored in the delete table when a stable
    /// tuple becomes a ghost (they are what keeps sparse indexes stale-safe).
    pub fn add_delete(&mut self, rid: u64, sk_values: &[Value]) -> DeleteOutcome {
        self.delete_with(rid, |vals| vals.add_delete(sk_values))
    }

    /// [`Pdt::add_delete`] with the ghost's sort key stored by `store`,
    /// which returns its delete-table offset — called only when a DEL is
    /// recorded, so a delete-of-insert leaves no delete-table garbage.
    pub(crate) fn delete_with(
        &mut self,
        rid: u64,
        store: impl FnOnce(&mut ValueSpace) -> u64,
    ) -> DeleteOutcome {
        // Repeatedly locate the target chain head; each structural removal
        // invalidates cursors, so re-seek between removals.
        loop {
            let mut cur = self.seek_rid(rid);
            while let Some(e) = self.entry(&cur) {
                if e.rid == rid && e.upd.is_del() {
                    self.advance(&mut cur);
                } else {
                    break;
                }
            }
            match self.entry(&cur) {
                Some(e) if e.rid == rid && e.upd.is_ins() => {
                    // delete-of-insert: erase all traces
                    self.remove_entry(cur.leaf, cur.idx);
                    return DeleteOutcome::RemovedInsert;
                }
                Some(e) if e.rid == rid && e.upd.is_mod() => {
                    // drop the stable tuple's modifications, then retry
                    self.remove_entry(cur.leaf, cur.idx);
                    continue;
                }
                _ => {
                    // no entries left for the target: record the DEL
                    let sid = (rid as i64 - cur.delta) as u64;
                    let off = store(&mut self.vals);
                    self.insert_entry(cur.leaf, cur.idx, sid, Upd::del(off));
                    return DeleteOutcome::AddedDelete;
                }
            }
        }
    }

    // --- structural mutation ---------------------------------------------------

    fn insert_entry(&mut self, leaf_id: NodeId, idx: usize, sid: u64, upd: Upd) {
        {
            let leaf = self.leaf_mut(leaf_id);
            leaf.sids.insert(idx, sid);
            leaf.upds.insert(idx, upd);
        }
        self.entry_count += 1;
        let contrib = upd.delta_contrib();
        if contrib != 0 {
            self.add_deltas_up(leaf_id, contrib);
        }
        if idx == 0 {
            self.refresh_min_up(leaf_id, sid);
        }
        if self.leaf(leaf_id).len() > self.fanout {
            self.split_leaf(leaf_id);
        }
    }

    fn remove_entry(&mut self, leaf_id: NodeId, idx: usize) {
        let (sid0, contrib, now_empty) = {
            let leaf = self.leaf_mut(leaf_id);
            leaf.sids.remove(idx);
            let upd = leaf.upds.remove(idx);
            (
                leaf.sids.first().copied(),
                upd.delta_contrib(),
                leaf.is_empty(),
            )
        };
        self.entry_count -= 1;
        if contrib != 0 {
            self.add_deltas_up(leaf_id, -contrib);
        }
        if now_empty {
            self.remove_node(leaf_id);
        } else if idx == 0 {
            self.refresh_min_up(leaf_id, sid0.unwrap());
        }
    }

    fn add_deltas_up(&mut self, mut id: NodeId, v: i64) {
        loop {
            let p = self.parents[id as usize];
            if p == NIL {
                return;
            }
            let ci = self.child_index(p, id);
            self.internal_mut(p).deltas[ci] += v;
            id = p;
        }
    }

    fn refresh_min_up(&mut self, mut id: NodeId, min_sid: u64) {
        loop {
            let p = self.parents[id as usize];
            if p == NIL {
                return;
            }
            let ci = self.child_index(p, id);
            self.internal_mut(p).mins[ci] = min_sid;
            if ci != 0 {
                return;
            }
            id = p;
        }
    }

    fn remove_node(&mut self, id: NodeId) {
        // unlink a leaf from the sibling chain
        if self.nodes[id as usize].is_leaf() {
            let (prev, next) = {
                let l = self.leaf(id);
                (l.prev, l.next)
            };
            if prev != NIL {
                self.leaf_mut(prev).next = next;
            }
            if next != NIL {
                self.leaf_mut(next).prev = prev;
            }
            if self.first_leaf == id {
                self.first_leaf = next;
            }
        }
        let p = self.parents[id as usize];
        if p == NIL {
            // id is the root
            if !self.nodes[id as usize].is_leaf() {
                // empty internal root: replace with a fresh empty leaf
                self.free_node(id);
                let leaf = self.alloc(Node::Leaf(Leaf {
                    prev: NIL,
                    next: NIL,
                    ..Leaf::default()
                }));
                self.root = leaf;
                self.first_leaf = leaf;
            } else if self.first_leaf == NIL {
                // empty root leaf stays; re-point first_leaf at it
                self.first_leaf = id;
            }
            return;
        }
        let ci = self.child_index(p, id);
        {
            let par = self.internal_mut(p);
            debug_assert_eq!(par.deltas[ci], 0, "removing child with nonzero delta");
            par.children.remove(ci);
            par.mins.remove(ci);
            par.deltas.remove(ci);
        }
        self.free_node(id);
        if self.internal(p).is_empty() {
            self.remove_node(p);
        } else if ci == 0 {
            let new_min = self.internal(p).mins[0];
            self.refresh_min_up(p, new_min);
        }
    }

    fn split_leaf(&mut self, id: NodeId) {
        let (right, right_min, right_delta, old_next) = {
            let leaf = self.leaf_mut(id);
            let mid = leaf.len() / 2;
            let sids = leaf.sids.split_off(mid);
            let upds = leaf.upds.split_off(mid);
            let old_next = leaf.next;
            let right = Leaf {
                sids,
                upds,
                prev: id,
                next: old_next,
            };
            let rd = right.delta_sum();
            let rm = right.sids[0];
            (right, rm, rd, old_next)
        };
        let right_id = self.alloc(Node::Leaf(right));
        self.leaf_mut(id).next = right_id;
        if old_next != NIL {
            self.leaf_mut(old_next).prev = right_id;
        }
        self.insert_child_after(id, right_id, right_min, right_delta);
    }

    fn split_internal(&mut self, id: NodeId) {
        let (right, right_min, right_delta) = {
            let node = self.internal_mut(id);
            let mid = node.len() / 2;
            let children = node.children.split_off(mid);
            let mins = node.mins.split_off(mid);
            let deltas = node.deltas.split_off(mid);
            let right = Internal {
                mins,
                deltas,
                children,
            };
            let rd = right.delta_sum();
            let rm = right.mins[0];
            (right, rm, rd)
        };
        let moved = right.children.clone();
        let right_id = self.alloc(Node::Internal(right));
        for c in moved {
            self.parents[c as usize] = right_id;
        }
        self.insert_child_after(id, right_id, right_min, right_delta);
    }

    fn insert_child_after(&mut self, left: NodeId, right: NodeId, rmin: u64, rdelta: i64) {
        let p = self.parents[left as usize];
        if p == NIL {
            // grow a new root
            let lmin = self.node_min_sid(left);
            let ldelta = self.node_delta_sum(left);
            let root = self.alloc(Node::Internal(Internal {
                mins: vec![lmin, rmin],
                deltas: vec![ldelta, rdelta],
                children: vec![left, right],
            }));
            self.parents[left as usize] = root;
            self.parents[right as usize] = root;
            self.root = root;
            return;
        }
        let ci = self.child_index(p, left);
        {
            let par = self.internal_mut(p);
            par.deltas[ci] -= rdelta;
            par.children.insert(ci + 1, right);
            par.mins.insert(ci + 1, rmin);
            par.deltas.insert(ci + 1, rdelta);
        }
        self.parents[right as usize] = p;
        if self.internal(p).len() > self.fanout {
            self.split_internal(p);
        }
    }

    // --- invariants (test support) -------------------------------------------

    /// Exhaustively verify tree invariants; panics on violation. Used by
    /// unit and property tests; O(n).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        // 1. recursive structure: mins/deltas/parents exact
        let (count, _delta) = self.check_node(self.root, NIL);
        assert_eq!(count, self.entry_count, "entry_count mismatch");
        // 2. global (sid, rid) ordering along the leaf chain
        let mut cur = self.begin();
        let mut prev: Option<(u64, u64)> = None;
        let mut walked = 0usize;
        while let Some(e) = self.entry(&cur) {
            if let Some((ps, pr)) = prev {
                assert!(e.sid >= ps, "sid order violated: {} < {}", e.sid, ps);
                assert!(e.rid >= pr, "rid order violated: {} < {}", e.rid, pr);
                assert!((e.sid, e.rid) >= (ps, pr), "(sid,rid) lex order violated");
            }
            prev = Some((e.sid, e.rid));
            walked += 1;
            self.advance(&mut cur);
        }
        assert_eq!(walked, self.entry_count, "leaf chain misses entries");
        assert!(cur.delta == self.delta_total(), "walk delta != total delta");
    }

    fn check_node(&self, id: NodeId, parent: NodeId) -> (usize, i64) {
        assert_eq!(self.parents[id as usize], parent, "parent pointer wrong");
        match &self.nodes[id as usize] {
            Node::Leaf(l) => {
                if id != self.root {
                    assert!(!l.is_empty(), "non-root empty leaf");
                    assert!(l.len() <= self.fanout, "leaf overflow");
                }
                (l.len(), l.delta_sum())
            }
            Node::Internal(n) => {
                assert!(!n.is_empty(), "empty internal node");
                assert!(n.len() <= self.fanout, "internal overflow");
                let mut count = 0;
                let mut delta = 0;
                for j in 0..n.len() {
                    let (c, d) = self.check_node(n.children[j], id);
                    assert_eq!(
                        n.mins[j],
                        self.node_min_sid(n.children[j]),
                        "stale min at child {j}"
                    );
                    assert_eq!(n.deltas[j], d, "stale delta at child {j}");
                    count += c;
                    delta += d;
                }
                (count, delta)
            }
        }
    }
}

/// Iterator over PDT entries in (SID, RID) order.
pub struct Entries<'a> {
    pdt: &'a Pdt,
    cur: Cursor,
}

impl Iterator for Entries<'_> {
    type Item = EntryView;

    fn next(&mut self) -> Option<EntryView> {
        let e = self.pdt.entry(&self.cur)?;
        self.pdt.advance(&mut self.cur);
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upd::{DEL, INS};
    use columnar::{Tuple, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("store", ValueType::Str),
            ("prod", ValueType::Str),
            ("new", ValueType::Bool),
            ("qty", ValueType::Int),
        ])
    }

    fn pdt() -> Pdt {
        // fanout 4 to exercise splits with few entries
        Pdt::with_fanout(schema(), vec![0, 1], 4)
    }

    fn tup(store: &str, prod: &str, new: bool, qty: i64) -> Tuple {
        vec![store.into(), prod.into(), new.into(), qty.into()]
    }

    #[test]
    fn empty_tree() {
        let p = pdt();
        assert!(p.is_empty());
        assert_eq!(p.delta_total(), 0);
        assert!(p.entry(&p.begin()).is_none());
        assert_eq!(
            p.lookup_rid(5),
            RidLookup {
                sid: 5,
                insert_off: None
            }
        );
        assert_eq!(p.rid_of_stable(7), (7, true));
        p.check_invariants();
    }

    #[test]
    fn paper_batch1_inserts() {
        // Figure 2/3: three Berlin inserts at the head of the table; all
        // receive SID 0; left-to-right leaf order = final order.
        let mut p = pdt();
        p.add_insert(0, 0, &tup("Berlin", "table", true, 10)); // i0
        p.add_insert(0, 0, &tup("Berlin", "cloth", true, 5)); // i1 before i0
        p.add_insert(0, 0, &tup("Berlin", "chair", true, 20)); // i2 before i1
        p.check_invariants();
        assert_eq!(p.len(), 3);
        assert_eq!(p.delta_total(), 3);
        let entries: Vec<_> = p.iter().collect();
        assert!(entries.iter().all(|e| e.sid == 0 && e.upd.kind == INS));
        assert_eq!(entries[0].rid, 0);
        assert_eq!(entries[1].rid, 1);
        assert_eq!(entries[2].rid, 2);
        // leaf order: chair, cloth, table
        assert_eq!(p.vals().get_insert(entries[0].upd.val)[1], "chair".into());
        assert_eq!(p.vals().get_insert(entries[1].upd.val)[1], "cloth".into());
        assert_eq!(p.vals().get_insert(entries[2].upd.val)[1], "table".into());
        // stable tuple 0 (London,chair) now at RID 3
        assert_eq!(p.rid_of_stable(0), (3, true));
        assert_eq!(p.lookup_rid(4).sid, 1);
    }

    #[test]
    fn paper_batch2_folding() {
        // Figures 6-8: modify-of-insert folds in place; delete-of-insert
        // erases; delete of a stable tuple records a ghost DEL.
        let mut p = pdt();
        p.add_insert(0, 0, &tup("Berlin", "table", true, 10)); // i0
        p.add_insert(0, 0, &tup("Berlin", "cloth", true, 5)); // i1
        p.add_insert(0, 0, &tup("Berlin", "chair", true, 20)); // i2

        // UPDATE qty=1 WHERE (Berlin,cloth)  -> RID 1, in-place on i1
        p.add_modify(1, 3, &Value::Int(1));
        assert_eq!(p.len(), 3, "modify of insert must not add entries");
        // UPDATE qty=9 WHERE (London,stool) -> stable SID 1, currently RID 4
        p.add_modify(4, 3, &Value::Int(9));
        // DELETE (Berlin,table) -> RID 2, an insert: erased
        assert_eq!(
            p.add_delete(2, &["Berlin".into(), "table".into()]),
            DeleteOutcome::RemovedInsert
        );
        // DELETE (Paris,rug) -> stable SID 3; RID after the above: tuples
        // 0,1 are Berlin inserts; 2=London chair; 3=London stool; 4=London
        // table; 5=Paris rug
        assert_eq!(
            p.add_delete(5, &["Paris".into(), "rug".into()]),
            DeleteOutcome::AddedDelete
        );
        p.check_invariants();

        // Figure 7: PDT2 holds ins i2, ins i1, mod qty@sid1, del@sid3
        let entries: Vec<_> = p.iter().collect();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].upd.kind, INS);
        assert_eq!(entries[1].upd.kind, INS);
        assert_eq!(entries[2].sid, 1);
        assert_eq!(entries[2].upd.col_no(), 3);
        assert_eq!(entries[3].sid, 3);
        assert_eq!(entries[3].upd.kind, DEL);
        assert_eq!(p.delta_total(), 1); // 2 inserts - 1 delete

        // the folded value
        assert_eq!(
            p.vals().get_insert_col(entries[1].upd.val, 3),
            Value::Int(1)
        );
        assert_eq!(p.vals().get_modify(3, entries[2].upd.val), Value::Int(9));
        // ghost semantics: (Paris,rug) SID 3 is dead, shares RID with SID 4
        assert_eq!(p.rid_of_stable(3), (5, false));
        assert_eq!(p.rid_of_stable(4), (5, true));
    }

    #[test]
    fn ghost_respecting_insert_position() {
        // Figures 10-11: after (Paris,rug) becomes a ghost, inserting
        // (Paris,rack) must receive SID 3 (before the ghost), not 4.
        let mut p = pdt();
        p.add_delete(3, &["Paris".into(), "rug".into()]);
        let sid = p.sk_rid_to_sid(&["Paris".into(), "rack".into()], 3);
        assert_eq!(sid, 3, "rack < rug: insert goes before the ghost");
        p.add_insert(sid, 3, &tup("Paris", "rack", true, 4));
        // a key sorting after the ghost goes past it
        let sid = p.sk_rid_to_sid(&["Paris".into(), "rum".into()], 4);
        assert_eq!(sid, 4, "rum > rug: insert goes after the ghost");
        p.check_invariants();
    }

    #[test]
    fn modify_two_columns_two_entries() {
        let mut p = pdt();
        p.add_modify(2, 3, &Value::Int(99));
        p.add_modify(2, 2, &Value::Bool(true));
        assert_eq!(p.len(), 2, "distinct columns need distinct MOD entries");
        // second modify of the same column folds
        p.add_modify(2, 3, &Value::Int(77));
        assert_eq!(p.len(), 2);
        let entries: Vec<_> = p.iter().collect();
        assert!(entries.iter().all(|e| e.sid == 2 && e.rid == 2));
        p.check_invariants();
    }

    #[test]
    fn resolve_rid_reports_chains_inserts_and_skips_ghosts() {
        let mut p = pdt();
        // ghost at stable 1, then a two-column chain on stable 2 (rid 1)
        p.add_delete(1, &["London".into(), "stool".into()]);
        p.add_modify(1, 3, &Value::Int(99));
        p.add_modify(1, 2, &Value::Bool(true));
        let mut chain = Vec::new();
        let hit = p.resolve_rid(1, |col, off| {
            chain.push((col, p.vals().get_modify(col, off)))
        });
        assert_eq!(hit, p.lookup_rid(1));
        assert_eq!((hit.sid, hit.insert_off), (2, None));
        chain.sort_by_key(|(c, _)| *c);
        assert_eq!(chain, vec![(2, Value::Bool(true)), (3, Value::Int(99))]);
        // an untouched stable tuple: no chain, SID shifted by the ghost
        let hit = p.resolve_rid(2, |_, _| panic!("no chain at rid 2"));
        assert_eq!((hit.sid, hit.insert_off), (3, None));
        // modify-of-insert folds into the insert table: offset, no chain
        p.add_insert(0, 0, &tup("Berlin", "chair", true, 1));
        p.add_modify(0, 3, &Value::Int(5));
        let hit = p.resolve_rid(0, |_, _| panic!("inserts carry no chain"));
        let off = hit.insert_off.expect("pending insert");
        assert_eq!(p.vals().get_insert_col(off, 3), Value::Int(5));
        // the insert shifted the chain's tuple one place down
        let mut cols = Vec::new();
        assert_eq!(p.resolve_rid(2, |col, _| cols.push(col)).sid, 2);
        assert_eq!(cols.len(), 2);
        p.check_invariants();
    }

    #[test]
    fn delete_of_modified_stable_tuple_drops_mods() {
        let mut p = pdt();
        p.add_modify(2, 3, &Value::Int(99));
        p.add_modify(2, 2, &Value::Bool(true));
        assert_eq!(
            p.add_delete(2, &["London".into(), "table".into()]),
            DeleteOutcome::AddedDelete
        );
        assert_eq!(p.len(), 1, "MODs replaced by a single DEL");
        let e = p.iter().next().unwrap();
        assert_eq!(e.upd.kind, DEL);
        assert_eq!(e.sid, 2);
        p.check_invariants();
    }

    #[test]
    fn consecutive_deletes_share_rid() {
        // Corollary 4: a chain of N deletes with equal RID.
        let mut p = pdt();
        p.add_delete(1, &["a".into(), "a".into()]); // stable 1
        p.add_delete(1, &["b".into(), "b".into()]); // stable 2 (now at rid 1)
        p.add_delete(1, &["c".into(), "c".into()]); // stable 3
        p.check_invariants();
        let entries: Vec<_> = p.iter().collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries.iter().map(|e| e.sid).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(entries.iter().all(|e| e.rid == 1));
        assert_eq!(p.delta_total(), -3);
        assert_eq!(p.rid_of_stable(4), (1, true));
    }

    #[test]
    fn many_inserts_split_and_stay_ordered() {
        let mut p = pdt();
        // interleave: insert at even positions of a 100-row stable table
        for sid in (0..100).rev() {
            p.add_insert(sid, sid, &tup("s", "p", false, sid as i64));
        }
        p.check_invariants();
        assert_eq!(p.len(), 100);
        assert_eq!(p.delta_total(), 100);
        // stable tuple k now at rid 2k+... each insert before sid k shifts:
        // inserts at sids 0..=k → rid = k + (k+1)
        assert_eq!(p.rid_of_stable(10), (21, true));
    }

    #[test]
    fn interleaved_ops_stress_small_fanout() {
        let mut p = pdt();
        // deterministic mixed workload exercising splits + removals
        for i in 0..200u64 {
            match i % 4 {
                0 => p.add_insert(i / 2, i / 2, &tup("x", "y", false, i as i64)),
                1 => p.add_modify(i / 3, 3, &Value::Int(i as i64)),
                2 => {
                    p.add_delete(i / 2, &["g".into(), format!("{i}").into()]);
                }
                _ => p.add_modify(i / 3, 2, &Value::Bool(true)),
            }
            p.check_invariants();
        }
        assert!(!p.is_empty());
    }

    #[test]
    fn insert_rejects_inconsistent_sid_rid() {
        let mut p = pdt();
        p.add_insert(5, 5, &tup("a", "b", false, 1));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p2 = p.clone();
            // rid 9 with sid 2 is impossible (delta at rid 9 is +1)
            p2.add_insert(2, 9, &tup("c", "d", false, 2));
        }));
        assert!(res.is_err());
    }

    #[test]
    fn clone_is_deep() {
        let mut p = pdt();
        p.add_insert(0, 0, &tup("a", "b", false, 1));
        let snapshot = p.clone();
        p.add_modify(0, 3, &Value::Int(42));
        assert_eq!(
            snapshot.vals().get_insert_col(0, 3),
            Value::Int(1),
            "snapshot must not see later modifications"
        );
    }

    #[test]
    fn heap_bytes_reports_growth() {
        let mut p = pdt();
        let b0 = p.heap_bytes();
        for i in (0..50).rev() {
            p.add_insert(i, i, &tup("store", "prod", false, i as i64));
        }
        assert!(p.heap_bytes() > b0);
    }
}
