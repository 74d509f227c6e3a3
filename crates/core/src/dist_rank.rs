//! The rank-local task bodies of the runtime-driven distributed
//! factorizations, written once for both [`Communicator`]s.
//!
//! A [`RankTasks`] is one grid rank's view of a run: its grid position,
//! **one** [`RankCell`] (its own block-cyclic tiles) and the seam objects
//! every rank shares ([`RunCtx`]). The in-process runner
//! ([`crate::dist_rt`]) builds one for the owning rank of each DAG task;
//! a rank thread ([`crate::dist_threaded`]) holds one for its whole queue.
//! Because the value holds a single cell, a rank-local body *cannot*
//! reach another rank's tiles: everything else arrives through
//! [`RankTasks::fetch`]. Every body computes the destination set of what
//! it posts (the shared mailbox ignores it, point-to-point backends route
//! on it) and propagates fetch errors (only a blocking backend ever
//! returns one).
//!
//! Two task kinds are **not** here, because their in-process form touches
//! several ranks' storage in one task and their message form is a
//! collective over several rank threads: `Swap` and `PanelGetf2` live next
//! to their drivers, one version per communicator.
//!
//! # Aliasing
//!
//! A cell is shared-mutable: under the in-process runner several tasks of
//! one rank run concurrently on the executor's workers, and the DAG's
//! edges prove they touch disjoint elements; on a rank thread the queue
//! order is that proof (one thread is the cell's only toucher). Each
//! `// SAFETY:` below names the edges that give the body its elements.

use std::ops::Range;
use std::sync::Arc;

use crate::comm::{
    Communicator, MAIL_ACC as ACC, MAIL_PAN as PAN, MAIL_PIV as PIV, MAIL_U12 as U12,
    MAIL_WBK as WBK,
};
use crate::rt::SharedIpiv;
use crate::tournament::{reduce_pair, Candidates};
use crate::tslu::{local_candidates, winners_to_ipiv, LocalLu};
use calu_matrix::blas3::{gemm, trsm};
use calu_matrix::lapack::lu_nopiv;
use calu_matrix::scalar::cast_slice;
use calu_matrix::{
    Diag, Error, MatViewMut, Matrix, NoObs, Result, Scalar, Side, TileLayout, TileMatrix, Uplo,
};
use calu_obs::CommLedger;
use calu_runtime::{
    tslu_acc_slot, tslu_leg_count, tslu_leg_role, DistGeom, DistKind, DistPanelAlg, LegRole,
};

/// Shared-mutable handle to one rank's local [`TileMatrix`] — the
/// per-rank counterpart of `rt`'s shared storage (see *Aliasing* in the
/// module docs).
pub(crate) struct RankCell<T> {
    ptr: *mut T,
    pub(crate) lay: TileLayout,
}

// SAFETY: a cell is a pointer into a `TileMatrix<T>` that outlives the
// run; sending or sharing it is sending or sharing `&mut [T]` whose
// disjoint use the DAG proves.
unsafe impl<T: Send> Send for RankCell<T> {}
// SAFETY: as above — shared access hands out elements, never the slice.
unsafe impl<T: Sync> Sync for RankCell<T> {}

impl<T: Scalar> RankCell<T> {
    pub(crate) fn new(a: &mut TileMatrix<T>) -> Self {
        Self { ptr: a.as_mut_slice().as_mut_ptr(), lay: a.layout() }
    }

    /// Local rows of this rank.
    pub(crate) fn rows(&self) -> usize {
        self.lay.rows()
    }

    /// # Safety
    /// The caller's task must hold (via DAG ordering) access to the
    /// element.
    pub(crate) unsafe fn get(&self, li: usize, lj: usize) -> T {
        unsafe { *self.ptr.add(self.lay.elem_offset(li, lj)) }
    }

    /// # Safety
    /// The caller's task must hold exclusive access to the element.
    pub(crate) unsafe fn set(&self, li: usize, lj: usize, v: T) {
        unsafe { *self.ptr.add(self.lay.elem_offset(li, lj)) = v };
    }

    /// Swaps local row `l1` of this cell with local row `l2` of `other`
    /// (possibly this same cell) over local columns `cols`.
    ///
    /// # Safety
    /// The caller's task must hold exclusive access to both row segments.
    pub(crate) unsafe fn swap_row_with(
        &self,
        l1: usize,
        other: &Self,
        l2: usize,
        cols: Range<usize>,
    ) {
        for lj in cols {
            unsafe {
                let a = self.get(l1, lj);
                self.set(l1, lj, other.get(l2, lj));
                other.set(l2, lj, a);
            }
        }
    }

    /// Mutable view of the `nr × nc` block at `(i0, j0)` inside tile
    /// `(ti, tj)`; built from raw parts so logically disjoint blocks never
    /// materialize overlapping `&mut` slices.
    ///
    /// # Safety
    /// The caller's task must hold exclusive element access via DAG
    /// ordering, and the block must be in range of the tile.
    pub(crate) unsafe fn tile_block(
        &self,
        ti: usize,
        tj: usize,
        i0: usize,
        j0: usize,
        nr: usize,
        nc: usize,
    ) -> MatViewMut<'_, T> {
        let h = self.lay.tile_height(ti);
        debug_assert!(i0 + nr <= h && j0 + nc <= self.lay.tile_width(tj));
        let off = self.lay.tile_offset(ti, tj) + j0 * h + i0;
        unsafe { MatViewMut::from_raw_parts(self.ptr.add(off), nr, nc, h) }
    }
}

/// What every rank of one run shares: the block-cyclic geometry, the
/// algorithm choices, and the seam objects.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub(crate) geom: DistGeom,
    pub(crate) glayout: TileLayout,
    pub(crate) alg: DistPanelAlg,
    pub(crate) local: LocalLu,
    /// The DAG's lookahead depth — the eviction horizon of the mailbox.
    pub(crate) lookahead: usize,
    /// Carries every cross-rank payload, `Arc`d so consumers read without
    /// copying. Keys are unique per message and no payload is read across
    /// steps.
    pub(crate) comm: &'a dyn Communicator,
    /// Measured communication, counted per rank per term as it happens.
    pub(crate) ledger: &'a CommLedger,
    pub(crate) ipiv: &'a SharedIpiv,
}

/// One grid rank's task bodies over its own tiles (module docs).
pub(crate) struct RankTasks<'a, T> {
    pub(crate) rank: usize,
    pub(crate) prow: usize,
    pub(crate) pcol: usize,
    /// This rank's local tiles — the only matrix storage a body touches.
    pub(crate) cell: &'a RankCell<T>,
    pub(crate) ctx: RunCtx<'a>,
}

impl<'a, T: Scalar> RankTasks<'a, T> {
    /// Rank `rank`'s bodies over `cells[rank]` (flat ranks are
    /// column-major over the grid, like [`DistGeom::rank`]).
    pub(crate) fn new(ctx: RunCtx<'a>, cells: &'a [RankCell<T>], rank: usize) -> Self {
        let pr = ctx.geom.pr;
        Self { rank, prow: rank % pr, pcol: rank / pr, cell: &cells[rank], ctx }
    }

    pub(crate) fn nb(&self) -> usize {
        self.ctx.geom.shape.nb
    }

    pub(crate) fn post(
        &self,
        class: u8,
        k: usize,
        j: usize,
        who: usize,
        data: Vec<f64>,
        dests: &[usize],
    ) {
        self.ctx.comm.post(self.rank, (class, k as u32, j as u32, who as u32), data, dests);
    }

    pub(crate) fn fetch(&self, class: u8, k: usize, j: usize, who: usize) -> Result<Arc<Vec<f64>>> {
        self.ctx.comm.fetch(self.rank, (class, k as u32, j as u32, who as u32))
    }

    /// Ranks of this rank's process column, itself included (column
    /// broadcasts, the panel collectives' participant set).
    pub(crate) fn col_ranks(&self) -> Vec<usize> {
        (0..self.ctx.geom.pr).map(|r| self.ctx.geom.rank(r, self.pcol)).collect()
    }

    /// Ranks of process row `prow`, the panel column's member included
    /// (row-broadcast destinations: the sender keeps a copy for its own
    /// later tasks).
    pub(crate) fn row_ranks(&self, prow: usize) -> Vec<usize> {
        (0..self.ctx.geom.pc).map(|c| self.ctx.geom.rank(prow, c)).collect()
    }

    /// Destination ranks of this rank's `ACC` post into butterfly slot
    /// `slot`: itself always (its own next leg / `PivSend` re-reads it),
    /// plus every process row whose leg role names this one as partner
    /// while its accumulator sits in `slot` — the same role/slot algebra
    /// the DAG builder's edges use, so routing and edges cannot drift
    /// apart.
    fn acc_dests(&self, slot: usize) -> Vec<usize> {
        let pr = self.ctx.geom.pr;
        let mut dests = vec![self.rank];
        for leg in (0..tslu_leg_count(pr)).filter(|&l| tslu_acc_slot(pr, l, self.prow) == slot) {
            for r in (0..pr).filter(|&r| r != self.prow) {
                let reads = match tslu_leg_role(pr, leg, r) {
                    LegRole::Exchange { partner }
                    | LegRole::FoldCombine { partner }
                    | LegRole::FoldRecv { partner } => partner == self.prow,
                    _ => false,
                };
                let rk = self.ctx.geom.rank(r, self.pcol);
                if reads && !dests.contains(&rk) {
                    dests.push(rk);
                }
            }
        }
        dests
    }

    /// Own butterfly accumulator after `l` legs — keyed by
    /// [`tslu_acc_slot`], the same slot algebra the DAG builder's edge
    /// endpoints use, so mailbox keys and edges cannot drift apart.
    fn fetch_acc(&self, k: usize, l: usize) -> Result<Candidates<T>> {
        let slot = tslu_acc_slot(self.ctx.geom.pr, l, self.prow);
        Ok(Candidates::from_payload(&self.fetch(ACC, k, slot, self.prow)?))
    }

    /// [`Self::fetch_acc`] for a *partner's* accumulator — the one fetch
    /// in the butterfly that crosses ranks, i.e. the wire. The transfer is
    /// ledgered here, at the consuming fetch (ordered after the producer's
    /// post, so the payload length is exact on any schedule), and
    /// attributed to the sending rank — which is precisely the leg's
    /// send-role side (`Exchange` partners fetch each other, a
    /// `FoldCombine` fetches its `FoldSend`, a `FoldRecv` its `FoldOut`),
    /// so per-rank totals match the cost model's send accounting under
    /// either communicator. The send-half tasks themselves are no-op
    /// injection markers and cannot be measured directly: their only
    /// ordering against the producer runs through this receiving task.
    fn fetch_acc_wire(&self, k: usize, l: usize, partner: usize) -> Result<Candidates<T>> {
        let raw = self.fetch(ACC, k, tslu_acc_slot(self.ctx.geom.pr, l, partner), partner)?;
        let sender = self.ctx.geom.rank(partner, self.pcol);
        self.ctx.ledger.record_send(sender as u32, "tslu_leg", raw.len() as u64);
        Ok(Candidates::from_payload(&raw))
    }

    /// Packs local elements column-major as `f64` words, exactly like the
    /// SPMD payloads.
    ///
    /// # Safety
    /// The calling task must be ordered after the last writer of the
    /// range.
    unsafe fn pack(&self, rows: Range<usize>, cols: Range<usize>) -> Vec<f64> {
        let mut v = Vec::with_capacity(rows.len() * cols.len());
        for lj in cols {
            v.extend(rows.clone().map(|li| unsafe { self.cell.get(li, lj) }.to_f64()));
        }
        v
    }

    /// Drops the payloads of steps the lookahead throttle proves complete;
    /// each `Swap(k, ·)` body calls it first. A swap holds step `k`'s
    /// swap list, so it sits downstream of the *whole* tournament (or of
    /// `PanelGetf2(k)`): of some panel task of step `k`, which carries
    /// edges from all tasks of step `k − d − 1`, and of the diagonal
    /// process row's panel task, which follows `Gemm(k−1, k, ·)` and so a
    /// `Swap(k−1, k)` — by induction every task of every step
    /// `≤ k − d − 1`, on every rank, is an ancestor. No task reads mail
    /// posted by another step, so those payloads are dead. (A panel task
    /// is *not* such a point: `Cand(k, r)` of a process row that owns no
    /// rows of panel `k` follows step `k − d − 1` only, while tasks of
    /// older steps that nothing consumes — another row's `PivRecv`, the
    /// far side of a butterfly leg — may still be waiting to run.) Keeps
    /// the mailbox's footprint proportional to the lookahead window
    /// instead of the whole factorization.
    pub(crate) fn evict_completed_steps(&self, k: usize) {
        if k > self.ctx.lookahead {
            self.ctx.comm.evict_before(self.rank, (k - self.ctx.lookahead - 1) as u32);
        }
    }

    /// This process row's copy of step `k`'s swap list.
    pub(crate) fn swap_list(&self, k: usize) -> Result<Vec<usize>> {
        Ok(self.fetch(PIV, k, 0, self.prow)?.iter().map(|&x| x as usize).collect())
    }

    /// Local column range of block column `j` (on this rank's process
    /// column), restricted to the columns step `k`'s swap touches.
    pub(crate) fn swap_cols(&self, k: usize, j: usize) -> Range<usize> {
        let c0 = self.ctx.glayout.local_cols_below(self.pcol, j * self.nb());
        let wj = self.ctx.geom.wj(j);
        c0 + wj - self.ctx.geom.swap_width(k, j, self.ctx.alg)..c0 + wj
    }

    /// The local columns of block column `j` updated by step `k`'s
    /// trailing work, as `(first local col, width, col tile, intra-tile
    /// col)`.
    fn upd_cols(&self, k: usize, j: usize) -> (usize, usize, usize, usize) {
        let b = self.nb();
        let c0 = self.ctx.glayout.local_cols_below(self.pcol, j * b);
        let skip = if j == k { self.ctx.geom.jb(k) } else { 0 };
        let lo = c0 + skip;
        (lo, self.ctx.geom.upd_width(k, j), c0 / b, lo - (c0 / b) * b)
    }

    // -- task bodies --------------------------------------------------------

    fn run_cand(&self, k: usize) -> Result<()> {
        let lay = &self.ctx.glayout;
        let (gk, jb) = (k * self.nb(), self.ctx.geom.jb(k));
        let lr = self.cell.rows();
        let lr_k = lay.local_rows_below(self.prow, gk);
        let pl0 = lay.local_cols_below(self.pcol, gk);
        // SAFETY: ordered after step k-1's gemms on this rank's panel rows
        // and before Swap(k,k), their next writer.
        let block =
            Matrix::from_fn(lr - lr_k, jb, |i, j| unsafe { self.cell.get(lr_k + i, pl0 + j) });
        let idx: Vec<usize> = (lr_k..lr).map(|li| lay.global_row(self.prow, li) - gk).collect();
        let cand = if lr > lr_k {
            local_candidates(&block, &idx, self.ctx.local)
        } else {
            Candidates::<T>::new(Matrix::zeros(0, jb), vec![])
        };
        self.post(ACC, k, 0, self.prow, cand.to_payload(), &self.acc_dests(0));
        Ok(())
    }

    fn run_tslu_leg(&self, k: usize, leg: usize) -> Result<()> {
        let acc = match tslu_leg_role(self.ctx.geom.pr, leg, self.prow) {
            LegRole::Exchange { partner } => {
                let mine = self.fetch_acc(k, leg)?;
                let theirs = self.fetch_acc_wire(k, leg, partner)?;
                // The combine is ordered by member index, exactly as the
                // netsim butterfly orders it.
                if self.prow < partner {
                    reduce_pair(&mine, &theirs)
                } else {
                    reduce_pair(&theirs, &mine)
                }
            }
            LegRole::FoldCombine { partner } => {
                let mine = self.fetch_acc(k, leg)?;
                reduce_pair(&mine, &self.fetch_acc_wire(k, leg, partner)?)
            }
            LegRole::FoldRecv { partner } => self.fetch_acc_wire(k, leg, partner)?,
            // Send halves: the producer's post already went to the
            // partner; the task models the injection.
            LegRole::FoldSend { .. } | LegRole::FoldOut { .. } => return Ok(()),
            LegRole::Idle => unreachable!("idle legs are not emitted"),
        };
        self.post(ACC, k, leg + 1, self.prow, acc.to_payload(), &self.acc_dests(leg + 1));
        Ok(())
    }

    fn run_piv_send(&self, k: usize) -> Result<()> {
        if self.ctx.alg == DistPanelAlg::Getf2 {
            // PDGETF2 computed the list and posted each process row's copy
            // along its row; this task models the injection only.
            return Ok(());
        }
        let g = &self.ctx.geom;
        let gk = k * self.nb();
        // The ordered butterfly combine leaves every process row's final
        // accumulator bitwise identical, so each row derives the swap
        // list from its own and broadcasts its own copy — no column
        // broadcast.
        let winners: Candidates<T> = self.fetch_acc(k, tslu_leg_count(g.pr))?;
        let li = winners_to_ipiv(&winners.rows, g.shape.m - gk);
        if self.prow == g.cprow(k) {
            // SAFETY: the diagonal PivSend of step k is the only writer of
            // these slots.
            unsafe { self.ctx.ipiv.publish(gk, &li) };
        }
        let list = li.iter().map(|&x| x as f64).collect();
        self.post(PIV, k, 0, self.prow, list, &self.row_ranks(self.prow));
        Ok(())
    }

    fn run_w_send(&self, k: usize) -> Result<()> {
        let (gk, jb) = (k * self.nb(), self.ctx.geom.jb(k));
        let d0 = self.ctx.glayout.local_rows_below(self.prow, gk);
        let pl0 = self.ctx.glayout.local_cols_below(self.pcol, gk);
        // SAFETY: ordered after Swap(k,k), before every Second(k,·).
        let w = unsafe { self.pack(d0..d0 + jb, pl0..pl0 + jb) };
        self.post(WBK, k, 0, 0, w, &self.col_ranks());
        Ok(())
    }

    fn run_second(&self, k: usize) -> Result<()> {
        let lay = &self.ctx.glayout;
        let b = self.nb();
        let (gk, jb) = (k * b, self.ctx.geom.jb(k));
        let cprow = self.ctx.geom.cprow(k);
        let raw = self.fetch(WBK, k, 0, 0)?;
        let mut w: Matrix<T> = Matrix::from_col_major(jb, jb, cast_slice(&raw));
        // A genuinely singular panel cancels all dependents across ranks;
        // the driver reports the absolute step (the SPMD loop records the
        // same step INFO-style and marches on).
        if let Err(Error::SingularPivot { step }) = lu_nopiv(w.view_mut(), &mut NoObs) {
            return Err(Error::SingularPivot { step: gk + step });
        }
        let pl0 = lay.local_cols_below(self.pcol, gk);
        if self.prow == cprow {
            let d0 = lay.local_rows_below(cprow, gk);
            for lj in 0..jb {
                for li in 0..jb {
                    // SAFETY: Second(k, cprow) exclusively owns the W rows.
                    unsafe { self.cell.set(d0 + li, pl0 + lj, w[(li, lj)]) };
                }
            }
        }
        let lb0 = lay.local_rows_below(self.prow, gk + jb);
        let u11 = w.view().submatrix(0, 0, jb, jb);
        let (tjc, jc) = (pl0 / b, pl0 % b);
        for (ti, rr) in self.cell.lay.row_tile_span(lb0..self.cell.rows()) {
            // SAFETY: Second(k, rank) owns its rank's L₂₁ rows.
            let l21 = unsafe { self.cell.tile_block(ti, tjc, rr.start, jc, rr.len(), jb) };
            trsm(Side::Right, Uplo::Upper, Diag::NonUnit, T::ONE, u11, l21);
        }
        if self.prow != cprow {
            self.ctx.ledger.record_recv(self.rank as u32, "w_bcast", raw.len() as u64);
        }
        Ok(())
    }

    fn run_panel_send(&self, k: usize) -> Result<()> {
        let (gk, jb) = (k * self.nb(), self.ctx.geom.jb(k));
        let lr_k = self.ctx.glayout.local_rows_below(self.prow, gk);
        let pl0 = self.ctx.glayout.local_cols_below(self.pcol, gk);
        // SAFETY: ordered after Second(k, rank) / PanelGetf2(k) — the
        // last writers of this rank's panel rows.
        let v = unsafe { self.pack(lr_k..self.cell.rows(), pl0..pl0 + jb) };
        self.post(PAN, k, 0, self.prow, v, &self.row_ranks(self.prow));
        Ok(())
    }

    fn run_trsm(&self, k: usize, j: usize) -> Result<()> {
        let b = self.nb();
        let (gk, jb) = (k * b, self.ctx.geom.jb(k));
        // Trsm(k, j) runs on the diagonal process row.
        let lr_panel = self.ctx.geom.panel_rows(self.prow, k);
        let panel_l: Matrix<T> =
            Matrix::from_col_major(lr_panel, jb, cast_slice(&self.fetch(PAN, k, 0, self.prow)?));
        let l11 = panel_l.view().submatrix(0, 0, jb, jb);
        let d0 = self.ctx.glayout.local_rows_below(self.prow, gk);
        let (_lo, wid, tj, cr0) = self.upd_cols(k, j);
        // SAFETY: Trsm(k,j) owns rows d0..d0+jb of these columns.
        let u12 = unsafe { self.cell.tile_block(d0 / b, tj, d0 % b, cr0, jb, wid) };
        trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11, u12);
        Ok(())
    }

    fn run_u_send(&self, k: usize, j: usize) -> Result<()> {
        let g = &self.ctx.geom;
        let (gk, jb) = (k * self.nb(), g.jb(k));
        let d0 = self.ctx.glayout.local_rows_below(self.prow, gk);
        let (lo, wid, _tj, _cr0) = self.upd_cols(k, j);
        // SAFETY: ordered after Trsm(k,j).
        let v = unsafe { self.pack(d0..d0 + jb, lo..lo + wid) };
        // Itself (its own gemm) and the process rows with trailing rows.
        let dests: Vec<usize> = (0..g.pr)
            .filter(|&r| r == self.prow || g.below_rows(r, k) > 0)
            .map(|r| g.rank(r, self.pcol))
            .collect();
        self.post(U12, k, j, 0, v, &dests);
        Ok(())
    }

    fn run_gemm(&self, k: usize, j: usize) -> Result<()> {
        let b = self.nb();
        let (gk, jb) = (k * b, self.ctx.geom.jb(k));
        let lr = self.cell.rows();
        let lr_k = self.ctx.glayout.local_rows_below(self.prow, gk);
        let panel_l: Matrix<T> =
            Matrix::from_col_major(lr - lr_k, jb, cast_slice(&self.fetch(PAN, k, 0, self.prow)?));
        let (_lo, wid, tj, cr0) = self.upd_cols(k, j);
        let u12: Matrix<T> =
            Matrix::from_col_major(jb, wid, cast_slice(&self.fetch(U12, k, j, 0)?));
        let lb0 = self.ctx.glayout.local_rows_below(self.prow, gk + jb);
        for (ti, rr) in self.cell.lay.row_tile_span(lb0..lr) {
            let l21 = panel_l.view().submatrix(ti * b + rr.start - lr_k, 0, rr.len(), jb);
            // SAFETY: Gemm(k,j,rank) owns its rank's trailing rows of
            // these columns.
            let a22 = unsafe { self.cell.tile_block(ti, tj, rr.start, cr0, rr.len(), wid) };
            gemm(-T::ONE, l21, u12.view(), T::ONE, a22);
        }
        Ok(())
    }

    /// An arrival marker: the payload is at this rank once the fetch
    /// returns (immediately from the shared mailbox, where the edge from
    /// the matching send is the wire), and the broadcast is ledgered at
    /// its receiver with the payload's measured length — the same
    /// attribution as [`calu_runtime::dist_comm_term`].
    fn run_recv(
        &self,
        class: u8,
        k: usize,
        j: usize,
        who: usize,
        term: &'static str,
    ) -> Result<()> {
        let words = self.fetch(class, k, j, who)?.len();
        self.ctx.ledger.record_recv(self.rank as u32, term, words as u64);
        Ok(())
    }

    /// Runs one rank-local task of this rank.
    ///
    /// # Panics
    /// On `Swap` / `PanelGetf2`, which each driver runs itself.
    pub(crate) fn run_local(&self, kind: DistKind, k: usize, j: usize) -> Result<()> {
        match kind {
            DistKind::Cand => self.run_cand(k),
            DistKind::TsluLeg => self.run_tslu_leg(k, j),
            DistKind::PivSend => self.run_piv_send(k),
            DistKind::PivRecv => self.run_recv(PIV, k, 0, self.prow, "piv_bcast"),
            DistKind::WSend => self.run_w_send(k),
            DistKind::Second => self.run_second(k),
            DistKind::PanelSend => self.run_panel_send(k),
            DistKind::PanelRecv => self.run_recv(PAN, k, 0, self.prow, "panel_bcast"),
            DistKind::Trsm => self.run_trsm(k, j),
            DistKind::USend => self.run_u_send(k, j),
            DistKind::URecv => self.run_recv(U12, k, j, 0, "u_bcast"),
            DistKind::Gemm => self.run_gemm(k, j),
            DistKind::Swap | DistKind::PanelGetf2 => {
                unreachable!("{kind:?} has one body per communicator, run by its driver")
            }
        }
    }
}
