//! The positional MergeScan (Algorithm 2, block-oriented).
//!
//! [`PdtMerger`] consumes blocks of stable-table column data in SID order
//! and produces the merged, visible image. Because updates are located *by
//! position*, the merger:
//!
//! * never reads or compares sort-key values — the decisive PDT advantage
//!   the paper's Figures 17–19 measure,
//! * passes through whole runs of unmodified tuples between update
//!   positions with bulk copies (the paper's "skip value is typically
//!   large" block-oriented optimisation).
//!
//! Output rows are emitted in table order with consecutive RIDs starting at
//! [`PdtMerger::next_rid`]. Stacked PDTs compose by feeding one merger's
//! output blocks (RID-addressed) to the next merger as its stable input
//! (eq. (9): `Merge(Merge(Merge(TABLE0, R), W), T)`).

use crate::tree::{Cursor, Pdt};
use columnar::kernel::{apply_steps, MergeStep};
use columnar::ColumnVec;

/// Stateful block-at-a-time positional merge.
pub struct PdtMerger<'a> {
    pdt: &'a Pdt,
    cur: Cursor,
    rid: u64,
    /// Reusable merge plan (steps + gathered operands) so steady-state
    /// blocks allocate nothing.
    plan: MergePlan,
}

/// Scratch buffers for one planned block merge: the step list plus the
/// value-space offsets it references, reused across blocks.
#[derive(Default)]
struct MergePlan {
    steps: Vec<MergeStep>,
    /// Insert-table offset per [`MergeStep::Insert`], in step order.
    ins_offs: Vec<usize>,
    /// Per [`MergeStep::Patch`], in step order: the end of its modification
    /// chain in `chains` (it starts where the previous patch's ended).
    patch_ends: Vec<usize>,
    /// The modification chains, back to back: `(column, modify-table
    /// offset)` pairs.
    chains: Vec<(usize, u64)>,
    /// Stable rows of the block its deletes suppress.
    ghosts: usize,
    /// Per-column scratch of [`MergePlan::column_patches`].
    patch_hit: Vec<bool>,
    patch_offs: Vec<usize>,
}

impl MergePlan {
    /// The block's shape, decided once per block, never per row or per
    /// column: `true` when no update addresses it — the plan is at most one
    /// whole-block run, so the decoded vectors *are* the merged block.
    fn untouched(&self) -> bool {
        self.ins_offs.is_empty() && self.ghosts == 0 && self.patch_ends.is_empty()
    }

    /// Rows the plan emits for a block of `len` stable rows.
    fn out_len(&self, len: usize) -> usize {
        len + self.ins_offs.len() - self.ghosts
    }

    /// Project the plan's modification chains onto column `col`:
    /// `patch_hit[j]` says whether the j-th [`MergeStep::Patch`] overrides
    /// the column, `patch_offs` lists the modify-table offset of each hit,
    /// in step order.
    fn column_patches(&mut self, col: usize) {
        self.patch_hit.clear();
        self.patch_offs.clear();
        let mut start = 0usize;
        for &end in &self.patch_ends {
            let hit = self.chains[start..end].iter().find(|&&(c, _)| c == col);
            self.patch_hit.push(hit.is_some());
            if let Some(&(_, off)) = hit {
                self.patch_offs.push(off as usize);
            }
            start = end;
        }
    }
}

impl<'a> PdtMerger<'a> {
    /// Start a merge whose stable input begins at `start_sid`. Inserts
    /// recorded *at* `start_sid` are included (they precede the stable
    /// tuple at that position).
    pub fn new(pdt: &'a Pdt, start_sid: u64) -> Self {
        let cur = pdt.seek_sid(start_sid);
        let rid = (start_sid as i64 + cur.delta) as u64;
        PdtMerger {
            pdt,
            cur,
            rid,
            plan: MergePlan::default(),
        }
    }

    /// RID of the next tuple this merger will emit.
    pub fn next_rid(&self) -> u64 {
        self.rid
    }

    /// Merge one stable block covering SIDs `[start_sid, start_sid+len)`.
    ///
    /// `cols_in[k]` holds the data of projected column `proj[k]`; merged
    /// rows are appended to `out[k]`. Inserts contribute their value-space
    /// values, deletes suppress stable rows, and modifications overwrite
    /// projected columns in place.
    ///
    /// The merge is *planned* once per block with a single cursor walk
    /// (producing [`MergeStep`]s and value-space offsets) and then
    /// *executed* per column by the typed kernels in [`columnar::kernel`]:
    /// one type dispatch per column-block, no per-value `Value` enum on the
    /// hot path; the tests hold it equal to a per-value oracle.
    ///
    /// This is the borrowed form — the input stays the caller's, so even an
    /// untouched block is copied. A caller that owns its decoded block drives
    /// [`PdtMerger::merge_block_owned`] over the same plan instead.
    pub fn merge_block(
        &mut self,
        start_sid: u64,
        len: usize,
        proj: &[usize],
        cols_in: &[ColumnVec],
        out: &mut [ColumnVec],
    ) {
        self.plan_block(start_sid, len);
        self.apply_plan(len, proj, cols_in, out);
    }

    /// [`PdtMerger::merge_block`] for a caller that owns the decoded block
    /// of `len` rows: on return `cols` *is* the merged block. A block no
    /// update addresses is not touched or copied; any other is applied from
    /// `cols` into `spare` (emptied, given the block's representation and
    /// sized to the merged row count first) and the two are swapped.
    ///
    /// `spare[k]` is scratch for `cols[k]`: afterwards it holds whichever
    /// buffer the merge no longer needs, contents unspecified, for the
    /// caller to reuse.
    pub fn merge_block_owned(
        &mut self,
        start_sid: u64,
        len: usize,
        proj: &[usize],
        cols: &mut [ColumnVec],
        spare: &mut [ColumnVec],
    ) {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        self.plan_block(start_sid, len);
        if !self.plan.untouched() {
            for (s, c) in spare.iter_mut().zip(cols.iter()) {
                s.reset_like(c);
            }
            self.apply_plan(len, proj, cols, spare);
            cols.swap_with_slice(spare);
        }
    }

    /// Execute the planned block per column: gather the column's inserted
    /// and patched values out of the value space, then one
    /// [`apply_steps`] from `cols_in[k]` onto the end of `out[k]`.
    fn apply_plan(
        &mut self,
        len: usize,
        proj: &[usize],
        cols_in: &[ColumnVec],
        out: &mut [ColumnVec],
    ) {
        debug_assert_eq!(proj.len(), cols_in.len());
        debug_assert_eq!(proj.len(), out.len());
        let vals = self.pdt.vals();
        let out_len = self.plan.out_len(len);
        for (k, o) in out.iter_mut().enumerate() {
            let col = proj[k];
            // scratch operands match the block's representation: coded when
            // it is dictionary-coded, so gathers stay on the `u32` path
            let mut ins_vals = cols_in[k].empty_like();
            ins_vals.extend_gather(vals.insert_column(col), &self.plan.ins_offs);
            self.plan.column_patches(col);
            let mut patch_vals = cols_in[k].empty_like();
            patch_vals.extend_gather(vals.modify_column(col), &self.plan.patch_offs);
            o.reserve(out_len);
            apply_steps(
                &self.plan.steps,
                o,
                &cols_in[k],
                &ins_vals,
                &patch_vals,
                &self.plan.patch_hit,
            );
        }
    }

    /// One cursor walk over the block's updates, filling `self.plan` and
    /// advancing `self.rid`/`self.cur` exactly as the merge will.
    fn plan_block(&mut self, start_sid: u64, len: usize) {
        let plan = &mut self.plan;
        plan.steps.clear();
        plan.ins_offs.clear();
        plan.patch_ends.clear();
        plan.chains.clear();
        plan.ghosts = 0;
        let end = start_sid + len as u64;
        let mut pos = start_sid;
        loop {
            // the next update inside this block, if any
            let e = match self.pdt.entry(&self.cur) {
                Some(e) if e.sid < end => e,
                _ => {
                    // none left: one pass-through run to the block's end
                    if pos < end {
                        plan.steps.push(MergeStep::Run {
                            from: (pos - start_sid) as u32,
                            to: len as u32,
                        });
                        self.rid += end - pos;
                    }
                    return;
                }
            };
            if e.sid > pos {
                // pass-through run up to the update's position
                plan.steps.push(MergeStep::Run {
                    from: (pos - start_sid) as u32,
                    to: (e.sid - start_sid) as u32,
                });
                self.rid += e.sid - pos;
                pos = e.sid;
            }
            debug_assert_eq!(e.sid, pos);
            if e.upd.is_ins() {
                // new tuple before stable tuple `pos`
                plan.steps.push(MergeStep::Insert);
                plan.ins_offs.push(e.upd.val as usize);
                self.rid += 1;
                self.pdt.advance(&mut self.cur);
            } else if e.upd.is_del() {
                // ghost: skip the stable tuple
                plan.ghosts += 1;
                self.pdt.advance(&mut self.cur);
                pos += 1;
            } else {
                // modification chain on stable tuple `pos`
                while let Some(m) = self.pdt.entry(&self.cur) {
                    if m.sid != pos || !m.upd.is_mod() {
                        break;
                    }
                    plan.chains.push((m.upd.col_no() as usize, m.upd.val));
                    self.pdt.advance(&mut self.cur);
                }
                plan.steps.push(MergeStep::Patch {
                    row: (pos - start_sid) as u32,
                });
                plan.patch_ends.push(plan.chains.len());
                self.rid += 1;
                pos += 1;
            }
        }
    }

    /// Emit pending inserts positioned exactly at `end_sid` — the tail of a
    /// scan range (for a full table scan, `end_sid` is the stable row
    /// count: inserts appended after the last stable tuple). The inserted
    /// rows are gathered column-at-a-time from the value space.
    pub fn drain_inserts_at(&mut self, end_sid: u64, proj: &[usize], out: &mut [ColumnVec]) {
        self.plan.ins_offs.clear();
        while let Some(e) = self.pdt.entry(&self.cur) {
            if e.sid != end_sid || !e.upd.is_ins() {
                break;
            }
            self.plan.ins_offs.push(e.upd.val as usize);
            self.rid += 1;
            self.pdt.advance(&mut self.cur);
        }
        if self.plan.ins_offs.is_empty() {
            return;
        }
        for (k, o) in out.iter_mut().enumerate() {
            o.extend_gather(self.pdt.vals().insert_column(proj[k]), &self.plan.ins_offs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Pdt;
    use columnar::{Schema, Tuple, Value, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Str)])
    }

    fn stable(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64 * 10), Value::Str(format!("s{i}"))])
            .collect()
    }

    /// The per-value oracle of [`PdtMerger::merge_block`]: identical
    /// semantics, but dispatching on the `Value` enum for every cell, with
    /// no plan and no kernels.
    impl PdtMerger<'_> {
        fn merge_block_scalar(
            &mut self,
            start_sid: u64,
            len: usize,
            proj: &[usize],
            cols_in: &[ColumnVec],
            out: &mut [ColumnVec],
        ) {
            debug_assert_eq!(proj.len(), cols_in.len());
            debug_assert_eq!(proj.len(), out.len());
            let end = start_sid + len as u64;
            let mut pos = start_sid;
            loop {
                let next_upd_sid = self.pdt.entry(&self.cur).map(|e| e.sid).unwrap_or(u64::MAX);
                if next_upd_sid >= end {
                    // no more updates inside this block: pass through cell by
                    // cell (the pre-kernel shape — no run batching)
                    if pos < end {
                        let from = (pos - start_sid) as usize;
                        let to = (end - start_sid) as usize;
                        for i in from..to {
                            for (k, o) in out.iter_mut().enumerate() {
                                o.push(&cols_in[k].get(i));
                            }
                        }
                        self.rid += end - pos;
                    }
                    return;
                }
                if next_upd_sid > pos {
                    // pass-through up to the next update position, cell by cell
                    let from = (pos - start_sid) as usize;
                    let to = (next_upd_sid - start_sid) as usize;
                    for i in from..to {
                        for (k, o) in out.iter_mut().enumerate() {
                            o.push(&cols_in[k].get(i));
                        }
                    }
                    self.rid += next_upd_sid - pos;
                    pos = next_upd_sid;
                    continue;
                }
                // an update applies at `pos`
                let e = self.pdt.entry(&self.cur).expect("checked above");
                debug_assert_eq!(e.sid, pos);
                if e.upd.is_ins() {
                    // new tuple before stable tuple `pos`
                    for (k, o) in out.iter_mut().enumerate() {
                        o.push(&self.pdt.vals().get_insert_col(e.upd.val, proj[k]));
                    }
                    self.rid += 1;
                    self.pdt.advance(&mut self.cur);
                } else if e.upd.is_del() {
                    // ghost: skip the stable tuple
                    self.pdt.advance(&mut self.cur);
                    pos += 1;
                } else {
                    // modification chain on stable tuple `pos`
                    let i = (pos - start_sid) as usize;
                    let mut overrides: Vec<(usize, u64)> = Vec::new();
                    while let Some(m) = self.pdt.entry(&self.cur) {
                        if m.sid != pos || !m.upd.is_mod() {
                            break;
                        }
                        overrides.push((m.upd.col_no() as usize, m.upd.val));
                        self.pdt.advance(&mut self.cur);
                    }
                    'col: for (k, o) in out.iter_mut().enumerate() {
                        for &(col, off) in &overrides {
                            if col == proj[k] {
                                o.push(&self.pdt.vals().get_modify(col, off));
                                continue 'col;
                            }
                        }
                        o.push(&cols_in[k].get(i));
                    }
                    self.rid += 1;
                    pos += 1;
                }
            }
        }
    }

    /// Run the merger over the whole stable image in blocks of `bs`.
    fn merge_rows(pdt: &Pdt, rows: &[Tuple], bs: usize) -> Vec<Tuple> {
        let proj = [0usize, 1usize];
        let mut merger = PdtMerger::new(pdt, 0);
        let mut out = [
            ColumnVec::new(ValueType::Int),
            ColumnVec::new(ValueType::Str),
        ];
        for chunk_start in (0..rows.len()).step_by(bs) {
            let chunk = &rows[chunk_start..(chunk_start + bs).min(rows.len())];
            let mut cols = [
                ColumnVec::new(ValueType::Int),
                ColumnVec::new(ValueType::Str),
            ];
            for r in chunk {
                cols[0].push(&r[0]);
                cols[1].push(&r[1]);
            }
            merger.merge_block(chunk_start as u64, chunk.len(), &proj, &cols, &mut out);
        }
        merger.drain_inserts_at(rows.len() as u64, &proj, &mut out);
        (0..out[0].len())
            .map(|i| vec![out[0].get(i), out[1].get(i)])
            .collect()
    }

    #[test]
    fn empty_pdt_passthrough() {
        let p = Pdt::new(schema(), vec![0]);
        let rows = stable(10);
        for bs in [1, 3, 10, 64] {
            assert_eq!(merge_rows(&p, &rows, bs), rows, "block size {bs}");
        }
    }

    #[test]
    fn inserts_deletes_mods_all_block_sizes() {
        let mut p = Pdt::new(schema(), vec![0]);
        let rows = stable(10);
        // insert before stable 3
        p.add_insert(3, 3, &[Value::Int(25), Value::Str("ins".into())]);
        // delete stable 5 (rid 6 after the insert)
        p.add_delete(6, &[Value::Int(50)]);
        // modify stable 7 column v (rid 7: +1 ins -1 del)
        p.add_modify(7, 1, &Value::Str("mod".into()));
        // trailing insert at the very end (sid 10)
        p.add_insert(10, 10, &[Value::Int(995), Value::Str("tail".into())]);
        p.check_invariants();

        let mut want: Vec<Tuple> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            if i == 3 {
                want.push(vec![Value::Int(25), Value::Str("ins".into())]);
            }
            if i == 5 {
                continue;
            }
            let mut r = r.clone();
            if i == 7 {
                r[1] = Value::Str("mod".into());
            }
            want.push(r);
        }
        want.push(vec![Value::Int(995), Value::Str("tail".into())]);

        for bs in [1, 2, 3, 7, 10, 100] {
            assert_eq!(merge_rows(&p, &rows, bs), want, "block size {bs}");
        }
    }

    #[test]
    fn projection_subset_skips_unprojected_mods() {
        let mut p = Pdt::new(schema(), vec![0]);
        let rows = stable(4);
        p.add_modify(2, 1, &Value::Str("changed".into()));
        // project only column 0: the v-modification must not disturb output
        let proj = [0usize];
        let mut merger = PdtMerger::new(&p, 0);
        let mut out = [ColumnVec::new(ValueType::Int)];
        let mut cols = [ColumnVec::new(ValueType::Int)];
        for r in &rows {
            cols[0].push(&r[0]);
        }
        merger.merge_block(0, rows.len(), &proj, &cols, &mut out);
        assert_eq!(out[0].as_int(), &[0, 10, 20, 30]);
        assert_eq!(merger.next_rid(), 4);
    }

    #[test]
    fn ranged_scan_starts_mid_table_with_correct_rids() {
        let mut p = Pdt::new(schema(), vec![0]);
        let rows = stable(10);
        p.add_insert(0, 0, &[Value::Int(-5), Value::Str("head".into())]);
        p.add_delete(3, &[Value::Int(20)]); // stable 2 deleted (rid 3 after insert)
                                            // scan stable range [5, 8)
        let mut merger = PdtMerger::new(&p, 5);
        // rid of stable 5 = 5 + (1 - 1) = 5
        assert_eq!(merger.next_rid(), 5);
        let proj = [0usize];
        let mut cols = [ColumnVec::new(ValueType::Int)];
        for r in &rows[5..8] {
            cols[0].push(&r[0]);
        }
        let mut out = [ColumnVec::new(ValueType::Int)];
        merger.merge_block(5, 3, &proj, &cols, &mut out);
        assert_eq!(out[0].as_int(), &[50, 60, 70]);
        assert_eq!(merger.next_rid(), 8);
    }

    #[test]
    fn boundary_inserts_drained_at_range_end() {
        let mut p = Pdt::new(schema(), vec![0]);
        p.add_insert(5, 5, &[Value::Int(42), Value::Str("edge".into())]);
        let rows = stable(10);
        // scan [0, 5): the insert at sid 5 positions before stable 5 and
        // must be drainable at the range boundary
        let proj = [0usize];
        let mut merger = PdtMerger::new(&p, 0);
        let mut cols = [ColumnVec::new(ValueType::Int)];
        for r in &rows[0..5] {
            cols[0].push(&r[0]);
        }
        let mut out = [ColumnVec::new(ValueType::Int)];
        merger.merge_block(0, 5, &proj, &cols, &mut out);
        merger.drain_inserts_at(5, &proj, &mut out);
        assert_eq!(out[0].as_int(), &[0, 10, 20, 30, 40, 42]);
    }

    #[test]
    fn kernel_path_matches_scalar_path() {
        let mut p = Pdt::new(schema(), vec![0]);
        let rows = stable(32);
        p.add_insert(3, 3, &[Value::Int(25), Value::Str("ins".into())]);
        p.add_delete(7, &[Value::Int(60)]);
        p.add_modify(10, 1, &Value::Str("mod".into()));
        p.add_modify(10, 0, &Value::Int(91));
        p.add_insert(32, 32, &[Value::Int(999), Value::Str("tail".into())]);
        p.check_invariants();
        let proj = [0usize, 1usize];
        for bs in [1, 4, 9, 32, 64] {
            let mut fast = PdtMerger::new(&p, 0);
            let mut slow = PdtMerger::new(&p, 0);
            let mut out_f = [
                ColumnVec::new(ValueType::Int),
                ColumnVec::new(ValueType::Str),
            ];
            let mut out_s = [
                ColumnVec::new(ValueType::Int),
                ColumnVec::new(ValueType::Str),
            ];
            for chunk_start in (0..rows.len()).step_by(bs) {
                let chunk = &rows[chunk_start..(chunk_start + bs).min(rows.len())];
                let mut cols = [
                    ColumnVec::new(ValueType::Int),
                    ColumnVec::new(ValueType::Str),
                ];
                for r in chunk {
                    cols[0].push(&r[0]);
                    cols[1].push(&r[1]);
                }
                fast.merge_block(chunk_start as u64, chunk.len(), &proj, &cols, &mut out_f);
                slow.merge_block_scalar(chunk_start as u64, chunk.len(), &proj, &cols, &mut out_s);
            }
            fast.drain_inserts_at(rows.len() as u64, &proj, &mut out_f);
            slow.drain_inserts_at(rows.len() as u64, &proj, &mut out_s);
            assert_eq!(out_f, out_s, "block size {bs}");
            assert_eq!(fast.next_rid(), slow.next_rid());
        }
    }

    #[test]
    fn consecutive_ghosts_and_insert_between() {
        let mut p = Pdt::new(schema(), vec![0]);
        let rows = stable(6);
        // delete stable 2 and 3 (both end up at rid 2)
        p.add_delete(2, &[Value::Int(20)]);
        p.add_delete(2, &[Value::Int(30)]);
        // insert between the ghosts: key 25 goes after ghost(20), before ghost(30)
        let sid = p.sk_rid_to_sid(&[Value::Int(25)], 2);
        assert_eq!(sid, 3);
        p.add_insert(sid, 2, &[Value::Int(25), Value::Str("mid".into())]);
        p.check_invariants();
        let got = merge_rows(&p, &rows, 4);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 10, 25, 40, 50]);
    }

    // -----------------------------------------------------------------
    // block shapes: the owning entry point against the scalar oracle
    // -----------------------------------------------------------------

    fn to_cols(rows: &[Tuple]) -> Vec<ColumnVec> {
        let mut cols = vec![
            ColumnVec::new(ValueType::Int),
            ColumnVec::new(ValueType::Str),
        ];
        for r in rows {
            cols[0].push(&r[0]);
            cols[1].push(&r[1]);
        }
        cols
    }

    fn to_rows(cols: &[ColumnVec]) -> Vec<Tuple> {
        (0..cols[0].len())
            .map(|i| cols.iter().map(|c| c.get(i)).collect())
            .collect()
    }

    /// What the owning merge did with one block's buffers.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Moved {
        /// `cols` came back as the very allocation that went in.
        InPlace,
        /// `cols` came back as another allocation (the old one in `spare`).
        Swapped,
    }

    /// Drive `merge_block_owned` over `rows` in blocks of `bs`; returns
    /// the merged image and what happened to each block's key buffer.
    fn merge_owned(pdt: &Pdt, rows: &[Tuple], bs: usize) -> (Vec<Tuple>, Vec<Moved>) {
        let proj = [0usize, 1usize];
        let mut merger = PdtMerger::new(pdt, 0);
        let mut spare = to_cols(&[]);
        let (mut out, mut moved) = (Vec::new(), Vec::new());
        for start in (0..rows.len()).step_by(bs) {
            let chunk = &rows[start..(start + bs).min(rows.len())];
            let mut cols = to_cols(chunk);
            let held = cols[0].as_int().as_ptr();
            let rid0 = merger.next_rid();
            merger.merge_block_owned(start as u64, chunk.len(), &proj, &mut cols, &mut spare);
            assert_eq!(cols[0].len(), cols[1].len());
            assert_eq!(merger.next_rid(), rid0 + cols[0].len() as u64);
            moved.push(if cols[0].as_int().as_ptr() == held {
                Moved::InPlace
            } else {
                assert_eq!(spare[0].as_int().as_ptr(), held, "input left in spare");
                Moved::Swapped
            });
            out.extend(to_rows(&cols));
        }
        let mut tail = to_cols(&[]);
        merger.drain_inserts_at(rows.len() as u64, &proj, &mut tail);
        out.extend(to_rows(&tail));
        (out, moved)
    }

    fn merge_scalar(pdt: &Pdt, rows: &[Tuple], bs: usize) -> Vec<Tuple> {
        let proj = [0usize, 1usize];
        let mut merger = PdtMerger::new(pdt, 0);
        let mut out = to_cols(&[]);
        for start in (0..rows.len()).step_by(bs) {
            let chunk = &rows[start..(start + bs).min(rows.len())];
            merger.merge_block_scalar(start as u64, chunk.len(), &proj, &to_cols(chunk), &mut out);
        }
        merger.drain_inserts_at(rows.len() as u64, &proj, &mut out);
        to_rows(&out)
    }

    fn ins(k: i64) -> Tuple {
        vec![Value::Int(k), Value::Str(format!("i{k}"))]
    }

    /// One PDT over 32 stable rows in blocks of 8, one kind of update per
    /// block: block 0 untouched, block 1 modifications only, block 2
    /// inserts only, block 3 ghosts only — then every kind in every block.
    #[test]
    fn owned_merge_matches_scalar_for_every_block_shape() {
        let rows = stable(32);
        let mut p = Pdt::new(schema(), vec![0]);
        // stable 9 and 14: modifications, no row moves (rid == sid so far)
        p.add_modify(9, 1, &Value::Str("m9".into()));
        p.add_modify(14, 0, &Value::Int(141));
        p.add_modify(14, 1, &Value::Str("m14".into()));
        // two inserts before stable 18 and one before stable 23
        p.add_insert(18, 18, &ins(175));
        p.add_insert(18, 18, &ins(172));
        p.add_insert(23, 25, &ins(225));
        // stable 24 and 31 deleted (three inserts precede them)
        p.add_delete(27, &[Value::Int(240)]);
        p.add_delete(33, &[Value::Int(310)]);
        p.check_invariants();
        let (got, moved) = merge_owned(&p, &rows, 8);
        assert_eq!(got, merge_scalar(&p, &rows, 8));
        assert_eq!(got, crate::checkpoint::merge_rows(&rows, &p));
        assert_eq!(
            moved,
            [
                Moved::InPlace,
                Moved::Swapped,
                Moved::Swapped,
                Moved::Swapped
            ],
            "only the untouched block keeps its buffer"
        );
        assert_eq!(got[9][1], Value::Str("m9".into()));
        assert_eq!(got[14], vec![Value::Int(141), Value::Str("m14".into())]);
        // other block sizes cut the same updates into other shapes
        for bs in [1, 3, 5, 16, 32, 64] {
            assert_eq!(merge_owned(&p, &rows, bs).0, got, "block size {bs}");
        }
        // mixed: every kind in every block
        for b in 0..4u64 {
            let base = b * 8;
            let at = p.rid_of_stable(base + 1).0;
            p.add_modify(at, 1, &Value::Str(format!("x{b}")));
            let at = p.rid_of_stable(base + 2).0;
            p.add_delete(at, &[Value::Int((base as i64 + 2) * 10)]);
            let at = p.rid_of_stable(base + 4).0;
            let key = (base as i64 + 4) * 10 - 5;
            let sid = p.sk_rid_to_sid(&[Value::Int(key)], at);
            p.add_insert(sid, at, &ins(key));
        }
        p.check_invariants();
        for bs in [1, 4, 8, 9, 32] {
            let (got, moved) = merge_owned(&p, &rows, bs);
            assert_eq!(got, merge_scalar(&p, &rows, bs), "mixed, block size {bs}");
            if bs == 8 {
                assert_eq!(moved, [Moved::Swapped; 4]);
            }
        }
    }

    /// A modification on a column the scan does not project leaves the
    /// projected values as decoded.
    #[test]
    fn owned_merge_skips_a_patch_on_an_unprojected_column() {
        let rows = stable(8);
        let mut p = Pdt::new(schema(), vec![0]);
        p.add_modify(3, 1, &Value::Str("unseen".into()));
        let mut merger = PdtMerger::new(&p, 0);
        let mut cols = vec![to_cols(&rows).swap_remove(0)];
        let mut spare = vec![ColumnVec::new(ValueType::Int)];
        merger.merge_block_owned(0, 8, &[0], &mut cols, &mut spare);
        assert_eq!(cols[0].as_int(), &[0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(merger.next_rid(), 8);
    }

    /// Read/Write/Trans stacking (eq. (9)): three layers, each classifying
    /// the one stable block for itself — patched by the first, untouched by
    /// the second, rows moved by the third.
    #[test]
    fn three_layer_stack_with_a_different_shape_per_layer() {
        let rows = stable(16);
        let mut read = Pdt::new(schema(), vec![0]);
        read.add_modify(5, 1, &Value::Str("r5".into()));
        let after_read = crate::checkpoint::merge_rows(&rows, &read);
        // the write layer only appends past the block
        let mut write = Pdt::new(schema(), vec![0]);
        write.add_insert(16, 16, &ins(900));
        let after_write = crate::checkpoint::merge_rows(&after_read, &write);
        let mut trans = Pdt::new(schema(), vec![0]);
        trans.add_delete(2, &[Value::Int(20)]);
        trans.add_insert(7, 6, &ins(65));
        trans.add_modify(5, 0, &Value::Int(51)); // read's patched row, one up
        let want = crate::checkpoint::merge_rows(&after_write, &trans);

        let proj = [0usize, 1usize];
        let layers = [&read, &write, &trans];
        let mut mergers: Vec<PdtMerger> = Vec::new();
        let mut start = 0u64;
        for p in layers {
            let m = PdtMerger::new(p, start);
            start = m.next_rid();
            mergers.push(m);
        }
        let mut cols = to_cols(&rows);
        let mut spare = to_cols(&[]);
        let (mut at, mut len) = (0u64, rows.len());
        let mut kept = Vec::new();
        for m in &mut mergers {
            let (rid0, held) = (m.next_rid(), cols[0].as_int().as_ptr());
            m.merge_block_owned(at, len, &proj, &mut cols, &mut spare);
            (at, len) = (rid0, (m.next_rid() - rid0) as usize);
            kept.push(cols[0].as_int().as_ptr() == held);
        }
        assert_eq!(kept, [false, true, false], "copy, pass, copy");
        let mut got = to_rows(&cols);
        // trailing inserts: each layer's, pushed through the layers above
        let mut end = rows.len() as u64;
        for k in 0..mergers.len() {
            let rid0 = mergers[k].next_rid();
            let mut tail = to_cols(&[]);
            mergers[k].drain_inserts_at(end, &proj, &mut tail);
            end = mergers[k].next_rid();
            let mut at = rid0;
            for m in &mut mergers[k + 1..] {
                let (r, len) = (m.next_rid(), tail[0].len());
                m.merge_block_owned(at, len, &proj, &mut tail, &mut spare);
                at = r;
            }
            got.extend(to_rows(&tail));
        }
        assert_eq!(got, want);
    }
}
