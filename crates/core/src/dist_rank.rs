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
//! # Blocks and segments
//!
//! A rank's storage is tile-major, so nothing here addresses an element by
//! `(row, column)`. A body asks its cell for **blocks**:
//! [`RankCell::tile_block`] hands out one block of one tile as a view, the
//! operand of every `gemm`, `trsm` and `lu_nopiv` below, and
//! [`RankCell::rect`] a local rectangle that may span tiles, as a [`Rect`].
//! Everything that moves data in or out of a cell is a method of `Rect`,
//! resolves each tile once, and then moves a block's contiguous column
//! **segments** — [`Rect::gather`] (the payloads, the candidate block, a
//! pivot row), [`Rect::scatter`], [`Rect::col_amax`] (`PDGETF2`'s scan) —
//! or strides along one row of a tile ([`Rect::swap_row_with`]). The two
//! accessors are the only `unsafe fn`s of the cell: the promise that the
//! DAG's edges (or the rank thread's queue order) grant the elements is
//! made where a block or a rectangle is taken, and what is done with it is
//! safe code. Payloads arrive as `f64` words and are read in place at
//! `T = f64` ([`Scalar::from_words`]); an `f32` run rounds them into a copy,
//! exactly.
//!
//! # Aliasing
//!
//! A cell is shared-mutable: under the in-process runner several tasks of
//! one rank run concurrently on the executor's workers, and the DAG's
//! edges prove they touch disjoint elements; on a rank thread the queue
//! order is that proof (one thread is the cell's only toucher). Each
//! `// SAFETY:` below names the edges that give the body its elements.

#![deny(unsafe_op_in_unsafe_fn)]

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
use calu_matrix::{
    Diag, Error, MatView, MatViewMut, Matrix, NoObs, Result, Scalar, Side, TileLayout, TileMatrix,
    Uplo,
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

    /// The local rectangle `rows × cols` as a handle whose (safe) methods
    /// move its elements a contiguous segment at a time.
    ///
    /// # Safety
    /// For as long as the handle lives, the caller's task must hold access
    /// to the rectangle's elements — via DAG ordering, or as its cell's
    /// only thread — and hold it exclusively if it calls a method that
    /// writes.
    pub(crate) unsafe fn rect(&self, rows: Range<usize>, cols: Range<usize>) -> Rect<'_, T> {
        Rect { cell: self, rows, cols }
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

/// A local rectangle of a [`RankCell`] that its holder may touch
/// ([`RankCell::rect`] is the promise). The rectangle may span tiles; every
/// method resolves each tile once and then moves contiguous column
/// segments, or strides along one row of a tile.
pub(crate) struct Rect<'a, T> {
    cell: &'a RankCell<T>,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl<T: Scalar> Rect<'_, T> {
    /// Calls `f(row offset, col offset, block)` for every tile block of
    /// the rectangle, offsets counted from its corner. (The blocks are
    /// writable views whoever asks; only the `&mut self` methods write.)
    pub(crate) fn for_each_block(&self, mut f: impl FnMut(usize, usize, MatViewMut<'_, T>)) {
        let lay = &self.cell.lay;
        let row_span = lay.row_tile_span(self.rows.clone());
        for (tj, cr) in lay.col_tile_span(self.cols.clone()) {
            for (ti, rr) in &row_span {
                // SAFETY: the block lies inside the rectangle, whose
                // elements the holder of this handle was granted.
                let block = unsafe {
                    self.cell.tile_block(*ti, tj, rr.start, cr.start, rr.len(), cr.len())
                };
                let at = (ti * lay.mb() + rr.start, tj * lay.nb() + cr.start);
                f(at.0 - self.rows.start, at.1 - self.cols.start, block);
            }
        }
    }

    /// The elements column-major, each through `map`: the `f64` words of a
    /// payload ([`Scalar::to_f64`], exactly like the SPMD payloads), or the
    /// values themselves — of a one-row rectangle, that row.
    pub(crate) fn gather<U: Copy + Default>(&self, map: impl Fn(T) -> U) -> Vec<U> {
        let nr = self.rows.len();
        let mut out = vec![U::default(); nr * self.cols.len()];
        self.for_each_block(|ro, co, block| {
            for c in 0..block.cols() {
                let at = (co + c) * nr + ro;
                for (o, &x) in out[at..at + block.rows()].iter_mut().zip(block.col(c)) {
                    *o = map(x);
                }
            }
        });
        out
    }

    /// Overwrites the elements from `vals`, column-major: the inverse of
    /// [`Self::gather`].
    pub(crate) fn scatter(&mut self, vals: &[T]) {
        let nr = self.rows.len();
        assert_eq!(vals.len(), nr * self.cols.len(), "one value per element");
        self.for_each_block(|ro, co, mut block| {
            let h = block.rows();
            for c in 0..block.cols() {
                let at = (co + c) * nr + ro;
                block.col_mut(c).copy_from_slice(&vals[at..at + h]);
            }
        });
    }

    /// The rectangle as a flat matrix.
    pub(crate) fn to_matrix(&self) -> Matrix<T> {
        let (nr, nc) = (self.rows.len(), self.cols.len());
        Matrix::from_col_major(nr, nc, self.gather(|x| x))
    }

    /// The partial-pivoting scan of a one-column rectangle: the first
    /// strict maximum of `|v|` in ascending row order, as `(|v|, local row,
    /// v)` — `(−∞, usize::MAX, 0)` over no rows.
    pub(crate) fn col_amax(&self) -> (T, usize, T) {
        debug_assert_eq!(self.cols.len(), 1);
        let first = self.rows.start;
        let mut best = (T::NEG_INFINITY, usize::MAX, T::ZERO);
        self.for_each_block(|ro, _, block| {
            for (i, &v) in block.col(0).iter().enumerate() {
                if v.abs() > best.0 {
                    best = (v.abs(), first + ro + i, v);
                }
            }
        });
        best
    }

    /// Swaps this one-row rectangle with `other`, a row over the same
    /// local columns of a cell of the same process column (possibly the
    /// same cell, a different row).
    pub(crate) fn swap_row_with(&mut self, other: &mut Self) {
        debug_assert!(self.rows.len() == 1 && other.rows.len() == 1 && self.cols == other.cols);
        debug_assert_eq!(self.cell.lay.cols(), other.cell.lay.cols());
        let mb = self.cell.lay.mb();
        let (l1, l2) = (self.rows.start, other.rows.start);
        for (tj, cr) in self.cell.lay.col_tile_span(self.cols.clone()) {
            // SAFETY: each row segment was granted to the holder of its
            // handle, and the two are distinct rows, so the views are
            // disjoint.
            let (mut r1, mut r2) = unsafe {
                (
                    self.cell.tile_block(l1 / mb, tj, l1 % mb, cr.start, 1, cr.len()),
                    other.cell.tile_block(l2 / mb, tj, l2 % mb, cr.start, 1, cr.len()),
                )
            };
            for c in 0..cr.len() {
                let v = r1.get(0, c);
                r1.set(0, c, r2.get(0, c));
                r2.set(0, c, v);
            }
        }
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

    /// A fetched payload of `rows × cols` column-major words as a matrix of
    /// this precision: a view of the words themselves at `f64`, of `words`'
    /// rounded copy at `f32`.
    fn payload(words: &[T], rows: usize, cols: usize) -> MatView<'_, T> {
        MatView::from_slice(words, rows, cols, rows.max(1))
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
        let block = unsafe { self.cell.rect(lr_k..lr, pl0..pl0 + jb) }.to_matrix();
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
        let w = unsafe { self.cell.rect(d0..d0 + jb, pl0..pl0 + jb) }.gather(T::to_f64);
        self.post(WBK, k, 0, 0, w, &self.col_ranks());
        Ok(())
    }

    fn run_second(&self, k: usize) -> Result<()> {
        let lay = &self.ctx.glayout;
        let b = self.nb();
        let (gk, jb) = (k * b, self.ctx.geom.jb(k));
        let cprow = self.ctx.geom.cprow(k);
        let raw = self.fetch(WBK, k, 0, 0)?;
        let mut w = Matrix::from_col_major(jb, jb, T::from_words(&raw).into_owned());
        // A genuinely singular panel cancels all dependents across ranks;
        // the driver reports the absolute step (the SPMD loop records the
        // same step INFO-style and marches on).
        if let Err(Error::SingularPivot { step }) = lu_nopiv(w.view_mut(), &mut NoObs) {
            return Err(Error::SingularPivot { step: gk + step });
        }
        let pl0 = lay.local_cols_below(self.pcol, gk);
        let (tjc, jc) = (pl0 / b, pl0 % b);
        if self.prow == cprow {
            let d0 = lay.local_rows_below(cprow, gk);
            // SAFETY: Second(k, cprow) exclusively owns the W rows — the
            // top `jb` rows of the diagonal tile.
            unsafe { self.cell.tile_block(d0 / b, tjc, d0 % b, jc, jb, jb) }.copy_from(w.view());
        }
        let lb0 = lay.local_rows_below(self.prow, gk + jb);
        let u11 = w.view();
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
        let v = unsafe { self.cell.rect(lr_k..self.cell.rows(), pl0..pl0 + jb) }.gather(T::to_f64);
        self.post(PAN, k, 0, self.prow, v, &self.row_ranks(self.prow));
        Ok(())
    }

    fn run_trsm(&self, k: usize, j: usize) -> Result<()> {
        let b = self.nb();
        let (gk, jb) = (k * b, self.ctx.geom.jb(k));
        // Trsm(k, j) runs on the diagonal process row.
        let lr_panel = self.ctx.geom.panel_rows(self.prow, k);
        let raw = self.fetch(PAN, k, 0, self.prow)?;
        let words = T::from_words(&raw);
        let l11 = Self::payload(&words, lr_panel, jb).submatrix(0, 0, jb, jb);
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
        let v = unsafe { self.cell.rect(d0..d0 + jb, lo..lo + wid) }.gather(T::to_f64);
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
        let (raw_l, raw_u) = (self.fetch(PAN, k, 0, self.prow)?, self.fetch(U12, k, j, 0)?);
        let (words_l, words_u) = (T::from_words(&raw_l), T::from_words(&raw_u));
        let (_lo, wid, tj, cr0) = self.upd_cols(k, j);
        let panel_l = Self::payload(&words_l, lr - lr_k, jb);
        let u12 = Self::payload(&words_u, jb, wid);
        let lb0 = self.ctx.glayout.local_rows_below(self.prow, gk + jb);
        for (ti, rr) in self.cell.lay.row_tile_span(lb0..lr) {
            let l21 = panel_l.submatrix(ti * b + rr.start - lr_k, 0, rr.len(), jb);
            // SAFETY: Gemm(k,j,rank) owns its rank's trailing rows of
            // these columns.
            let a22 = unsafe { self.cell.tile_block(ti, tj, rr.start, cr0, rr.len(), wid) };
            gemm(-T::ONE, l21, u12, T::ONE, a22);
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

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A rank's local storage: ragged 50 × 37 in 8 × 8 tiles.
    fn local<T: Scalar>(seed: u64) -> TileMatrix<T> {
        let a = gen::randn::<T>(&mut StdRng::seed_from_u64(seed), 50, 37);
        TileMatrix::from_matrix(&a, 8, 8)
    }

    /// Rectangles that sit inside one tile, straddle tiles in one or both
    /// dimensions, end in the ragged last tiles, or are empty.
    const RECTS: [(Range<usize>, Range<usize>); 6] = [
        (9..14, 17..22),
        (5..29, 3..4),
        (19..20, 3..30),
        (5..29, 3..21),
        (40..50, 30..37),
        (7..7, 2..9),
    ];

    fn segment_moves_equal_their_elementwise_forms<T: Scalar>() {
        let mut store = local::<T>(31);
        let original = store.clone();
        let mut other_store = local::<T>(32);
        let (mut want, mut want_other) = (original.clone(), other_store.clone());
        let (cell, other) = (RankCell::new(&mut store), RankCell::new(&mut other_store));
        // SAFETY: one thread, the only toucher of both cells.
        let rect = |c, rows: &Range<usize>, cols: &Range<usize>| unsafe {
            RankCell::rect(c, rows.clone(), cols.clone())
        };
        for (rows, cols) in &RECTS {
            let at = cols.clone().flat_map(|lj| rows.clone().map(move |li| (li, lj)));
            let want: Vec<T> = at.map(|at| original[at]).collect();
            assert_eq!(rect(&cell, rows, cols).gather(|x| x), want, "{rows:?} x {cols:?}");
            let words: Vec<f64> = want.iter().map(|x| x.to_f64()).collect();
            assert_eq!(rect(&cell, rows, cols).gather(T::to_f64), words, "payload words");
            let flat = Matrix::from_col_major(rows.len(), cols.len(), want);
            assert_eq!(rect(&cell, rows, cols).to_matrix(), flat);
            for lj in cols.clone() {
                let mut want = (T::NEG_INFINITY, usize::MAX, T::ZERO);
                for li in rows.clone() {
                    let v = original[(li, lj)];
                    if v.abs() > want.0 {
                        want = (v.abs(), li, v);
                    }
                }
                assert_eq!(rect(&cell, rows, &(lj..lj + 1)).col_amax(), want, "scan of {lj}");
            }
        }

        // Row swaps inside one cell and between two cells of a process
        // column, and a rectangle overwritten from received values.
        for (l1, l2, cols) in [(5, 19, 3..30), (49, 0, 0..37), (12, 13, 8..16), (3, 4, 20..20)] {
            let row = |c, l: usize| rect(c, &(l..l + 1), &cols);
            row(&cell, l1).swap_row_with(&mut row(&cell, l2));
            want.swap_rows_in_cols(l1, l2, cols.clone());
            row(&cell, l2).swap_row_with(&mut row(&other, l1));
            for lj in cols.clone() {
                std::mem::swap(&mut want[(l2, lj)], &mut want_other[(l1, lj)]);
            }
            let rows = l1.min(l2)..l1.min(l2) + 9.min(50 - l1.min(l2));
            let vals: Vec<T> = (0..rows.len() * cols.len()).map(T::from_usize).collect();
            rect(&other, &rows, &cols).scatter(&vals);
            for (n, at) in
                cols.clone().flat_map(|lj| rows.clone().map(move |li| (li, lj))).enumerate()
            {
                want_other[at] = vals[n];
            }
        }
        assert_eq!(store, want);
        assert_eq!(other_store, want_other);
    }

    #[test]
    fn segment_moves_equal_their_elementwise_forms_at_both_precisions() {
        segment_moves_equal_their_elementwise_forms::<f64>();
        segment_moves_equal_their_elementwise_forms::<f32>();
    }
}
