//! The task bodies of the runtime-driven distributed factorizations,
//! written once for both [`Communicator`]s.
//!
//! A [`RankTasks`] is one grid rank's view of a run: its grid position,
//! **one** cell (its own local matrix) and the seam objects every
//! rank shares ([`RunCtx`]). Because the value holds a single cell, a body
//! *cannot* reach another rank's elements: everything else arrives
//! through [`RankTasks::fetch`]. Every body computes the destination set
//! of what it posts (the shared mailbox ignores it, point-to-point
//! backends route on it) and propagates fetch errors (only a blocking
//! backend ever returns one).
//!
//! # Collectives
//!
//! Most task kinds run on their owning rank alone. Two move the matrix
//! itself across a process column and are **collectives** over its ranks:
//! `Swap(k, j)` (step `k`'s row interchanges on block column `j`) and
//! `PanelGetf2(k)` (`PDGETF2`'s picket fence). Each rank of the column
//! runs its own [`Participant`], a short sequence of rounds in which it
//! fetches only what was posted in an earlier round. That one body runs
//! under both drivers ([`crate::dist_rt`]): the in-process one runs a
//! collective as one DAG task, every participant's round `r` before any
//! participant's round `r + 1` ([`run_whole`]); a rank thread runs its own
//! participant straight through with blocking fetches
//! ([`RankTasks::run`]). A step's interchanges are composed into row moves
//! first ([`compose`]), so what one rank sends another crosses in **one
//! message per partner process row**, and what stays on a rank moves in
//! place.
//!
//! # Blocks
//!
//! A rank's cell is a [`SharedMat`] over its local matrix, ScaLAPACK's
//! local array. Each rank-local body takes its blocks in one
//! [`SharedMat::blocks`] call, whose `// SAFETY:` names the edges (or the
//! rank thread's queue order) that grant the elements; a collective's
//! participant takes the rows it holds on its cell as one block
//! ([`RankTasks::held`]) and moves rows within it column by column. A
//! rank's `Gemm(k, ·, rank)` tasks share one packed copy of its `L₂₁`
//! payload per step ([`SharedChunks`]). Payloads arrive as `f64` words and
//! are read in place at `T = f64` ([`Scalar::from_words`]); an `f32` run
//! rounds them into a copy, exactly. [`crate::blocks`] says why the cells
//! are shared-mutable and when that is sound.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::blocks::{SharedChunks, SharedIpiv, SharedMat};
use crate::comm::{
    Communicator, MAIL_ACC as ACC, MAIL_GCD as GCD, MAIL_GRX as GRX, MAIL_GUR as GUR,
    MAIL_PAN as PAN, MAIL_PIV as PIV, MAIL_SWP as SWP, MAIL_U12 as U12, MAIL_WBK as WBK,
};
use crate::tournament::{reduce_pair, Candidates};
use crate::tslu::{elect_candidates, winners_to_ipiv, LocalLu};
use calu_matrix::blas1::{iamax, scal};
use calu_matrix::blas2::ger;
use calu_matrix::blas3::{gemm, gemm_packed, trsm, PackedA};
use calu_matrix::lapack::{lu_nopiv, lu_rows};
use calu_matrix::scalar::cast_slice;
use calu_matrix::{
    Diag, Error, MatView, MatViewMut, Matrix, NoObs, Result, Scalar, Side, TileLayout, Uplo,
};
use calu_obs::CommLedger;
use calu_runtime::{
    tslu_acc_slot, tslu_leg_count, tslu_leg_role, DistGeom, DistKind, DistPanelAlg, DistTask,
    LegRole, Task,
};

/// A block's elements as payload words, column-major ([`Scalar::to_f64`],
/// exact).
fn words<T: Scalar>(b: MatViewMut<'_, T>) -> Vec<f64> {
    let mut out = Vec::with_capacity(b.rows() * b.cols());
    for c in 0..b.cols() {
        out.extend(b.col(c).iter().map(|x| x.to_f64()));
    }
    out
}

/// The partial-pivoting scan of a column: its first strict maximum of
/// `|v|`, as `(|v|, index, v)` — `(−∞, usize::MAX, 0)` over no rows or only
/// NaNs.
fn col_amax<T: Scalar>(col: &[T]) -> (T, usize, T) {
    let none = (T::NEG_INFINITY, usize::MAX, T::ZERO);
    if col.is_empty() {
        return none;
    }
    let i = iamax(col);
    if col[i].abs() > T::NEG_INFINITY {
        (col[i].abs(), i, col[i])
    } else {
        none
    }
}

/// What every rank of one run shares: the block-cyclic geometry, the
/// algorithm choices, and the seam objects.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a, T: Scalar> {
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
    /// Each rank's [`Plan`] of each step's swap list (index
    /// `rank · steps + k`), composed once.
    pub(crate) plans: &'a [OnceLock<Arc<Plan>>],
    /// Every rank's packed `L₂₁` per step, keyed `(k, rank)`.
    pub(crate) chunks: &'a SharedChunks<T>,
}

/// One grid rank's task bodies over its own local matrix (module docs).
pub(crate) struct RankTasks<'a, T: Scalar> {
    pub(crate) rank: usize,
    pub(crate) prow: usize,
    pub(crate) pcol: usize,
    /// This rank's local matrix — the only matrix storage a body touches.
    pub(crate) cell: &'a SharedMat<T>,
    pub(crate) ctx: RunCtx<'a, T>,
}

impl<'a, T: Scalar> RankTasks<'a, T> {
    /// Rank `rank`'s bodies over `cells[rank]` (flat ranks are
    /// column-major over the grid, like [`DistGeom::rank`]).
    pub(crate) fn new(ctx: RunCtx<'a, T>, cells: &'a [SharedMat<T>], rank: usize) -> Self {
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
    /// trailing work, as `(first local col, width)`.
    fn upd_cols(&self, k: usize, j: usize) -> (usize, usize) {
        let c0 = self.ctx.glayout.local_cols_below(self.pcol, j * self.nb());
        let skip = if j == k { self.ctx.geom.jb(k) } else { 0 };
        (c0 + skip, self.ctx.geom.upd_width(k, j))
    }

    // -- task bodies --------------------------------------------------------

    fn run_cand(&self, k: usize) -> Result<()> {
        let lay = &self.ctx.glayout;
        let (gk, jb) = (k * self.nb(), self.ctx.geom.jb(k));
        let lr = self.cell.rows();
        let lr_k = lay.local_rows_below(self.prow, gk);
        let pl0 = lay.local_cols_below(self.pcol, gk);
        let idx: Vec<usize> = (lr_k..lr).map(|li| lay.global_row(self.prow, li) - gk).collect();
        let cand = if lr > lr_k {
            // SAFETY: ordered after step k-1's gemms on this rank's panel
            // rows and before Swap(k,k), their next writer.
            let [rows] = unsafe { self.cell.blocks([(lr_k, pl0, lr - lr_k, jb)]) };
            let src = rows.as_view();
            // One copy is the local LU's working matrix; the winners' rows
            // are read back from the cell, which the election leaves as is.
            elect_candidates(src.to_matrix(), self.ctx.local, |i, j| src.get(i, j), |i| idx[i])
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
        let [w] = unsafe { self.cell.blocks([(d0, pl0, jb, jb)]) };
        self.post(WBK, k, 0, 0, words(w), &self.col_ranks());
        Ok(())
    }

    fn run_second(&self, k: usize) -> Result<()> {
        let lay = &self.ctx.glayout;
        let (gk, jb) = (k * self.nb(), self.ctx.geom.jb(k));
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
        let d0 = lay.local_rows_below(self.prow, gk);
        let lb0 = lay.local_rows_below(self.prow, gk + jb);
        // SAFETY: Second(k, rank) exclusively owns its rank's panel rows:
        // the W rows (the panel's top `jb`, on the diagonal process row
        // only), then L₂₁.
        let [panel] = unsafe { self.cell.blocks([(d0, pl0, self.cell.rows() - d0, jb)]) };
        let (mut top, l21) = panel.split_at_row_mut(lb0 - d0);
        if self.prow == cprow {
            top.copy_from(w.view());
        }
        // L₂₁ = A₂₁·U₁₁⁻¹, as `rt`'s PanelApply forms it.
        lu_rows(w.view(), l21, &mut vec![T::ZERO; jb], &mut NoObs)
            .expect("lu_nopiv has checked U₁₁'s pivots");
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
        let [panel] = unsafe { self.cell.blocks([(lr_k, pl0, self.cell.rows() - lr_k, jb)]) };
        self.post(PAN, k, 0, self.prow, words(panel), &self.row_ranks(self.prow));
        Ok(())
    }

    fn run_trsm(&self, k: usize, j: usize) -> Result<()> {
        let (gk, jb) = (k * self.nb(), self.ctx.geom.jb(k));
        // Trsm(k, j) runs on the diagonal process row.
        let lr_panel = self.ctx.geom.panel_rows(self.prow, k);
        let raw = self.fetch(PAN, k, 0, self.prow)?;
        let words = T::from_words(&raw);
        let l11 = Self::payload(&words, lr_panel, jb).submatrix(0, 0, jb, jb);
        let d0 = self.ctx.glayout.local_rows_below(self.prow, gk);
        let (lo, wid) = self.upd_cols(k, j);
        // SAFETY: Trsm(k,j) owns rows d0..d0+jb of these columns.
        let [u12] = unsafe { self.cell.blocks([(d0, lo, jb, wid)]) };
        trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11, u12);
        Ok(())
    }

    fn run_u_send(&self, k: usize, j: usize) -> Result<()> {
        let g = &self.ctx.geom;
        let (gk, jb) = (k * self.nb(), g.jb(k));
        let d0 = self.ctx.glayout.local_rows_below(self.prow, gk);
        let (lo, wid) = self.upd_cols(k, j);
        // SAFETY: ordered after Trsm(k,j).
        let [u12] = unsafe { self.cell.blocks([(d0, lo, jb, wid)]) };
        let v = words(u12);
        // Itself (its own gemm) and the process rows with trailing rows.
        let dests: Vec<usize> = (0..g.pr)
            .filter(|&r| r == self.prow || g.below_rows(r, k) > 0)
            .map(|r| g.rank(r, self.pcol))
            .collect();
        self.post(U12, k, j, 0, v, &dests);
        Ok(())
    }

    fn run_gemm(&self, k: usize, j: usize) -> Result<()> {
        let (gk, jb) = (k * self.nb(), self.ctx.geom.jb(k));
        let lr = self.cell.rows();
        let lr_k = self.ctx.glayout.local_rows_below(self.prow, gk);
        let lb0 = self.ctx.glayout.local_rows_below(self.prow, gk + jb);
        let (raw_l, raw_u) = (self.fetch(PAN, k, 0, self.prow)?, self.fetch(U12, k, j, 0)?);
        let words_u = T::from_words(&raw_u);
        let (lo, wid) = self.upd_cols(k, j);
        let u12 = Self::payload(&words_u, jb, wid);
        // SAFETY: Gemm(k,j,rank) owns its rank's trailing rows of these
        // columns.
        let [a22] = unsafe { self.cell.blocks([(lb0, lo, lr - lb0, wid)]) };
        // This rank's rows of L₂₁ are the panel payload's below its top
        // block, packed (or, for a lone Gemm, converted) once per step.
        let (rows, top) = (lr - lr_k, lb0 - lr_k);
        let packed = self.ctx.chunks.take(k, self.rank, || {
            let words = T::from_words(&raw_l);
            PackedA::new(Self::payload(&words, rows, jb).submatrix(top, 0, rows - top, jb))
        });
        match packed {
            Some(packed) => gemm_packed(-T::ONE, &packed, u12, T::ONE, a22),
            None => {
                let words = T::from_words(&raw_l);
                let l21 = Self::payload(&words, rows, jb).submatrix(top, 0, rows - top, jb);
                gemm(-T::ONE, l21, u12, T::ONE, a22);
            }
        }
        Ok(())
    }

    /// An arrival marker: the payload is at this rank once the fetch
    /// returns (immediately from the shared mailbox, where the edge from
    /// the matching send is the wire), and the broadcast is ledgered at
    /// its receiver with the payload's measured length — the same
    /// term as the exact predictor, [`calu_runtime::expected_mailbox_comm`].
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

    /// Runs this rank's part of task `kind(k, j)`: a rank-local body, or
    /// every round of its participant in a collective — the rank-thread
    /// driver's unit of work.
    pub(crate) fn run(&self, kind: DistKind, k: usize, j: usize) -> Result<()> {
        let Some(mut part) = self.participant(kind, k, j) else {
            return self.run_local(kind, k, j);
        };
        let mut round = 0;
        while part.round(round)? {
            round += 1;
        }
        Ok(())
    }

    fn run_local(&self, kind: DistKind, k: usize, j: usize) -> Result<()> {
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
            DistKind::Swap | DistKind::PanelGetf2 => unreachable!("{kind:?} is a collective"),
        }
    }

    // -- collectives --------------------------------------------------------

    /// This rank's participant in `kind(k, j)` if the kind is a collective.
    fn participant<'s>(
        &'s self,
        kind: DistKind,
        k: usize,
        j: usize,
    ) -> Option<Box<dyn Participant + 's>> {
        match kind {
            DistKind::Swap => Some(Box::new(SwapPart { me: self, k, j, moves: None })),
            DistKind::PanelGetf2 => Some(Box::new(Getf2Part::new(self, k))),
            _ => None,
        }
    }

    /// What a collective's participant holds on this rank: local rows
    /// `r0..` of local columns `cols`. Only a participant's rounds call
    /// this, on the rows and columns its task holds.
    fn held(&self, r0: usize, cols: &Range<usize>) -> MatViewMut<'_, T> {
        // SAFETY: on every rank of its process column, Swap(k, j) holds
        // block column j's rows ≥ k·nb and PanelGetf2(k) the panel's;
        // no caller's `r0` lies above this rank's first local row ≥ k·nb.
        let [held] =
            unsafe { self.cell.blocks([(r0, cols.start, self.cell.rows() - r0, cols.len())]) };
        held
    }

    /// This rank's share of the interchanges of pivot list `ipiv` (row
    /// `base + i` with row `base + ipiv[i]`, see [`compose`]).
    fn plan(&self, base: usize, ipiv: &[usize]) -> Plan {
        let (pr, lay) = (self.ctx.geom.pr, &self.ctx.glayout);
        let (rows, holds) = compose(ipiv);
        let r0 = lay.local_rows_below(self.prow, base);
        // Each named row's owner and its row in the held block (only this
        // rank's rows are ever looked up there, and none lies above `r0`).
        let places: Vec<(usize, usize)> = rows
            .iter()
            .map(|&x| (lay.row_owner(base + x), lay.local_row(base + x).wrapping_sub(r0)))
            .collect();
        let (mut sends, mut recvs) = (vec![Vec::new(); pr], vec![Vec::new(); pr]);
        let mut local = (Vec::new(), Vec::new());
        for (to, &from) in holds.iter().enumerate().filter(|&(to, &from)| to != from) {
            match (places[to], places[from]) {
                ((t, lt), (f, lf)) if t == self.prow && f == self.prow => {
                    local.0.push(lt);
                    local.1.push(lf);
                }
                ((t, _), (f, lf)) if f == self.prow => sends[t].push(lf),
                ((t, lt), (f, _)) if t == self.prow => recvs[f].push(lt),
                _ => {}
            }
        }
        Plan { r0, sends, recvs, local }
    }

    /// This rank's [`Plan`] of step `k`'s swap list: the same for every
    /// block column the step swaps, so it is composed once per run and
    /// step, by whichever of this rank's `Swap(k, ·)` participants runs
    /// first.
    fn swap_plan(&self, k: usize) -> Result<Arc<Plan>> {
        let slot = &self.ctx.plans[self.rank * self.ctx.geom.shape.steps() + k];
        if let Some(plan) = slot.get() {
            return Ok(plan.clone());
        }
        let plan = Arc::new(self.plan(k * self.nb(), &self.swap_list(k)?));
        Ok(slot.get_or_init(|| plan).clone())
    }

    /// The first half of `m` on this rank: one message to every partner
    /// process row that receives rows from it, then the moves between its
    /// own rows (every source read before any row is written).
    fn send_moves(&self, m: &Moves) {
        let pr = self.ctx.geom.pr;
        let mut held = self.held(m.plan.r0, &m.cols);
        for (to, src) in m.plan.sends.iter().enumerate().filter(|(_, src)| !src.is_empty()) {
            let words = rows_out(&held, src);
            self.ctx.ledger.record_send(self.rank as u32, "swap", words.len() as u64);
            let dest = self.ctx.geom.rank(to, self.pcol);
            self.post(m.class, m.k, m.j, self.prow * pr + to, words, &[dest]);
        }
        let (dst, src) = &m.plan.local;
        if !dst.is_empty() {
            move_rows(&mut held, dst, src);
        }
    }

    /// The second half of `m` on this rank: one message from every partner
    /// process row that sends it rows, written into place.
    fn recv_moves(&self, m: &Moves) -> Result<()> {
        let pr = self.ctx.geom.pr;
        let mut held = self.held(m.plan.r0, &m.cols);
        for (from, dst) in m.plan.recvs.iter().enumerate().filter(|(_, dst)| !dst.is_empty()) {
            let raw = self.fetch(m.class, m.k, m.j, from * pr + self.prow)?;
            rows_in(&mut held, dst, &T::from_words(&raw));
        }
        Ok(())
    }
}

/// The process column whose ranks run `kind(k, j)` together, if the kind
/// is a collective: `j`'s for `Swap`, the panel's for `PanelGetf2`.
pub(crate) fn collective_pcol(
    geom: &DistGeom,
    kind: DistKind,
    k: usize,
    j: usize,
) -> Option<usize> {
    match kind {
        DistKind::Swap => Some(geom.pcol_of(j)),
        DistKind::PanelGetf2 => Some(geom.pcol_of(k)),
        _ => None,
    }
}

/// Runs `task` whole: its owner's body, or every participant of a
/// collective in lockstep — all participants' round `r`, then all
/// participants' round `r + 1`. The in-process driver's unit of work: a
/// mailbox that never blocks serves every fetch, because each was posted
/// in an earlier round.
pub(crate) fn run_whole<T: Scalar>(
    ctx: RunCtx<'_, T>,
    cells: &[SharedMat<T>],
    task: Task,
) -> Result<()> {
    let Task::Dist(DistTask { kind, k, j, rank }) = task else {
        unreachable!("distributed runner received a shared-memory task")
    };
    let (k, j) = (k as usize, j as usize);
    let Some(pcol) = collective_pcol(&ctx.geom, kind, k, j) else {
        return RankTasks::new(ctx, cells, rank as usize).run_local(kind, k, j);
    };
    let ranks: Vec<RankTasks<'_, T>> = (0..ctx.geom.pr)
        .map(|prow| RankTasks::new(ctx, cells, ctx.geom.rank(prow, pcol)))
        .collect();
    let mut parts: Vec<_> = ranks.iter().filter_map(|me| me.participant(kind, k, j)).collect();
    for round in 0.. {
        let mut more = false;
        for part in &mut parts {
            more = part.round(round)?;
        }
        if !more {
            break;
        }
    }
    Ok(())
}

/// One rank's part in a collective task, as rounds (module docs): in
/// round `r` a participant fetches only what some participant posted in a
/// round before `r`, and touches only its own cell. Every participant of
/// one collective has the same number of rounds.
trait Participant {
    /// Runs round `r`; `Ok(false)` if it was the last.
    fn round(&mut self, r: usize) -> Result<bool>;
}

/// Composes the interchanges of a LAPACK-style pivot list — row `i` with
/// row `ipiv[i]`, for `i` ascending — into a permutation of the rows they
/// name: `rows` (the list's own `0..len`, then the rows below it that it
/// pivots up, in the order it first names them), and `holds[x]` the index
/// into `rows` of the row whose contents row `rows[x]` holds after the
/// last interchange. Rows with `holds[x] == x` are left in place.
pub(crate) fn compose(ipiv: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let len = ipiv.len();
    let below = ipiv.iter().map(|&p| (p + 1).saturating_sub(len)).max().unwrap_or(0);
    // Index into `rows` of each row below the list, once named.
    let mut index = vec![usize::MAX; below];
    let mut rows: Vec<usize> = (0..len).collect();
    let mut holds: Vec<usize> = (0..len).collect();
    for (i, &p) in ipiv.iter().enumerate() {
        let at = if p < len {
            p
        } else if index[p - len] != usize::MAX {
            index[p - len]
        } else {
            index[p - len] = rows.len();
            rows.push(p);
            holds.push(rows.len() - 1);
            rows.len() - 1
        };
        holds.swap(i, at);
    }
    (rows, holds)
}

/// Rows `rows` of `held` as payload words, column-major like every
/// payload. Column by column: the rows' elements of one column share its
/// cache lines, where a walk along a row touches a new line (and every
/// eighth a new page) at each element.
fn rows_out<T: Scalar>(held: &MatViewMut<'_, T>, rows: &[usize]) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len() * held.cols());
    for c in 0..held.cols() {
        let col = held.col(c);
        out.extend(rows.iter().map(|&r| col[r].to_f64()));
    }
    out
}

/// Overwrites rows `rows` of `held` from `vals`: the inverse of
/// [`rows_out`].
fn rows_in<T: Scalar>(held: &mut MatViewMut<'_, T>, rows: &[usize], vals: &[T]) {
    for (c, vals) in vals.chunks_exact(rows.len()).enumerate() {
        let col = held.col_mut(c);
        for (&r, &v) in rows.iter().zip(vals) {
            col[r] = v;
        }
    }
}

/// Moves row `src[n]` of `held` into row `dst[n]` for every `n`, where the
/// rows of `dst` are those of `src` in another order: column by column
/// through a one-column buffer, so an element is rewritten while its cache
/// line is at hand.
fn move_rows<T: Scalar>(held: &mut MatViewMut<'_, T>, dst: &[usize], src: &[usize]) {
    let mut buf = vec![T::ZERO; src.len()];
    for c in 0..held.cols() {
        let col = held.col_mut(c);
        for (b, &r) in buf.iter_mut().zip(src) {
            *b = col[r];
        }
        for (&b, &r) in buf.iter().zip(dst) {
            col[r] = b;
        }
    }
}

/// One rank's share of composed interchanges ([`RankTasks::plan`]), as
/// rows of the block it holds from local row `r0` down.
pub(crate) struct Plan {
    /// The first local row at or below the interchanges' first row.
    r0: usize,
    /// Per partner process row, the source rows sent to it.
    sends: Vec<Vec<usize>>,
    /// Per partner process row, the destination rows received from it.
    recvs: Vec<Vec<usize>>,
    /// The moves between this rank's own rows: (destinations, sources).
    local: (Vec<usize>, Vec<usize>),
}

/// A [`Plan`] over the local columns `cols` of a process column, and the
/// mail key `(class, k, j)` its messages travel under (`who` = sending
/// process row · `Pr` + receiving one). Only row moves, so the bits are
/// those of the interchanges one by one.
struct Moves {
    class: u8,
    k: usize,
    j: usize,
    cols: Range<usize>,
    plan: Arc<Plan>,
}

/// `Swap(k, j)`: step `k`'s swap list applied to the columns of block
/// column `j`, over `j`'s process column. Round 0 sends and moves in
/// place, round 1 receives.
struct SwapPart<'s, 'a, T: Scalar> {
    me: &'s RankTasks<'a, T>,
    k: usize,
    j: usize,
    moves: Option<Moves>,
}

impl<T: Scalar> Participant for SwapPart<'_, '_, T> {
    fn round(&mut self, r: usize) -> Result<bool> {
        let me = self.me;
        if let Some(m) = &self.moves {
            debug_assert_eq!(r, 1);
            me.recv_moves(m)?;
            return Ok(false);
        }
        me.evict_completed_steps(self.k);
        let cols = me.swap_cols(self.k, self.j);
        if cols.is_empty() {
            return Ok(false);
        }
        let (k, j, plan) = (self.k, self.j, me.swap_plan(self.k)?);
        let m = Moves { class: SWP, k, j, cols, plan };
        me.send_moves(&m);
        self.moves = Some(m);
        Ok(true)
    }
}

/// `PanelGetf2(k)`: the `PDGETF2` picket fence over the panel's process
/// column, two rounds per panel column `jj` and one to publish:
///
/// * round `2·jj`: finish column `jj − 1` (receive the winner's trailing
///   row and the pivot-row exchange, scale, rank-1 update of own rows),
///   then scan own rows of column `jj` and send the 3-word candidate
///   `[|v|, global row (−1 = none), v]` to the other participants;
/// * round `2·jj + 1`: fold all candidates in ascending process-row order
///   (max `|v|`, smaller row on ties — every participant folds the same
///   set, so all elect the same pivot and a singular column fails them
///   all at the same step); the winner's owner sends the trailing part of
///   its row, and the exchange of the pivot row sends as [`Moves`];
/// * round `2·jb`: publish the pivots and post this process row's copy of
///   the swap list along its row.
///
/// Candidates and trailing rows are ledgered as `panel_getf2` at their
/// receivers, the exchange as `swap` at its senders.
struct Getf2Part<'s, 'a, T: Scalar> {
    me: &'s RankTasks<'a, T>,
    k: usize,
    jb: usize,
    /// The panel's local columns.
    cols: Range<usize>,
    /// The other participants' ranks.
    others: Vec<usize>,
    /// This rank's scan of the current column: `(|v|, global row, v)`.
    cand: (T, usize, T),
    /// The current column's pivot value.
    pivot: T,
    /// The winner's trailing row, `None` until it is received.
    urow: Option<Vec<T>>,
    /// The current column's pivot-row exchange, if the pivot moves.
    exchange: Option<Moves>,
    li_piv: Vec<usize>,
}

impl<'s, 'a, T: Scalar> Getf2Part<'s, 'a, T> {
    fn new(me: &'s RankTasks<'a, T>, k: usize) -> Self {
        let jb = me.ctx.geom.jb(k);
        let pl0 = me.ctx.glayout.local_cols_below(me.pcol, k * me.nb());
        Self {
            me,
            k,
            jb,
            cols: pl0..pl0 + jb,
            others: me.col_ranks().into_iter().filter(|&r| r != me.rank).collect(),
            cand: (T::NEG_INFINITY, usize::MAX, T::ZERO),
            pivot: T::ZERO,
            urow: None,
            exchange: None,
            li_piv: Vec::with_capacity(jb),
        }
    }

    fn recv(&self, raw: &[f64]) {
        self.me.ctx.ledger.record_recv(self.me.rank as u32, "panel_getf2", raw.len() as u64);
    }

    fn scan(&mut self, jj: usize) {
        let (me, lay) = (self.me, &self.me.ctx.glayout);
        let r0 = lay.local_rows_below(me.prow, me.nb() * self.k + jj);
        let c = self.cols.start + jj;
        let (ba, i, bv) = col_amax(me.held(r0, &(c..c + 1)).col(0));
        let bg = if i == usize::MAX { i } else { lay.global_row(me.prow, r0 + i) };
        self.cand = (ba, bg, bv);
        if !self.others.is_empty() {
            let enc = if bg == usize::MAX { -1.0 } else { bg as f64 };
            me.post(GCD, self.k, jj, me.prow, vec![ba.to_f64(), enc, bv.to_f64()], &self.others);
        }
    }

    fn elect(&mut self, jj: usize) -> Result<()> {
        let (me, lay) = (self.me, &self.me.ctx.glayout);
        let gc = me.nb() * self.k + jj;
        let (mut best, mut best_g, mut best_v) = (T::NEG_INFINITY, usize::MAX, T::ZERO);
        for prow in 0..me.ctx.geom.pr {
            let (ca, cg, cv) = if prow == me.prow {
                self.cand
            } else {
                let raw = me.fetch(GCD, self.k, jj, prow)?;
                self.recv(&raw);
                let vals: Vec<T> = cast_slice(&raw);
                (vals[0], if raw[1] < 0.0 { usize::MAX } else { raw[1] as usize }, vals[2])
            };
            if ca > best || (ca == best && cg < best_g) {
                (best, best_g, best_v) = (ca, cg, cv);
            }
        }
        self.li_piv.push(best_g.wrapping_sub(gc - jj));
        if !(best != T::ZERO && best.is_finite()) {
            // The sequential reference errors here; dependents are
            // canceled and the driver reports this absolute step.
            return Err(Error::SingularPivot { step: gc });
        }
        self.pivot = best_v;
        // The winner's trailing row, captured before the exchange.
        self.urow = if jj + 1 == self.jb {
            Some(Vec::new())
        } else if lay.row_owner(best_g) == me.prow {
            let (lw, c) = (lay.local_row(best_g), self.cols.start + jj + 1);
            let held = me.held(lw, &(c..self.cols.end));
            let row = held.submatrix(0, 0, 1, held.cols()).to_matrix().into_vec();
            if !self.others.is_empty() {
                let words = row.iter().map(|v| v.to_f64()).collect();
                me.post(GUR, self.k, jj, 0, words, &self.others);
            }
            Some(row)
        } else {
            None
        };
        self.exchange = (best_g != gc).then(|| {
            let plan = Arc::new(me.plan(gc, &[best_g - gc]));
            Moves { class: GRX, k: self.k, j: jj, cols: self.cols.clone(), plan }
        });
        if let Some(m) = &self.exchange {
            me.send_moves(m);
        }
        Ok(())
    }

    fn update(&mut self, jj: usize) -> Result<()> {
        let me = self.me;
        let urow = match self.urow.take() {
            Some(row) => row,
            None => {
                let raw = me.fetch(GUR, self.k, jj, 0)?;
                self.recv(&raw);
                cast_slice(&raw)
            }
        };
        if let Some(m) = self.exchange.take() {
            me.recv_moves(&m)?;
        }
        let r1 = me.ctx.glayout.local_rows_below(me.prow, me.nb() * self.k + jj + 1);
        // Column jj and the trailing columns, below the pivot row.
        let mut held = me.held(r1, &(self.cols.start + jj..self.cols.end));
        if held.rows() == 0 {
            return Ok(());
        }
        scal(self.pivot.recip(), held.col_mut(0));
        if jj + 1 < self.jb {
            let (col, trailing) = held.split_at_col_mut(1);
            ger(-T::ONE, col.as_view().col(0), &urow, trailing);
        }
        Ok(())
    }

    fn publish(&self) {
        let me = self.me;
        if me.prow == me.ctx.geom.cprow(self.k) {
            // SAFETY: the diagonal participant of PanelGetf2(k) is the only
            // writer of these slots.
            unsafe { me.ctx.ipiv.publish(self.k * me.nb(), &self.li_piv) };
        }
        // This process row's copy of the swap list, along its row (its own
        // Swap participants and the row peers' PivRecv consume it).
        let list = self.li_piv.iter().map(|&x| x as f64).collect();
        me.post(PIV, self.k, 0, me.prow, list, &me.row_ranks(me.prow));
    }
}

impl<T: Scalar> Participant for Getf2Part<'_, '_, T> {
    fn round(&mut self, r: usize) -> Result<bool> {
        let jj = r / 2;
        if r % 2 == 1 {
            self.elect(jj)?;
            return Ok(true);
        }
        if jj > 0 {
            self.update(jj - 1)?;
        }
        if jj < self.jb {
            self.scan(jj);
            Ok(true)
        } else {
            self.publish();
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scan is the first strict maximum of `|v|` with NaNs ignored, on
    /// ties, NaNs, infinities, an all-NaN and an empty column.
    #[test]
    fn col_amax_is_the_first_strict_maximum_ignoring_nans() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        assert_eq!(col_amax(&[1.0, -3.0, 3.0, 2.0]), (3.0, 1, -3.0));
        assert_eq!(col_amax(&[nan, 0.5, nan, -0.5]), (0.5, 1, 0.5));
        assert_eq!(col_amax(&[1.0, -inf, inf]), (inf, 1, -inf));
        assert_eq!(col_amax(&[0.0, 0.0]), (0.0, 0, 0.0));
        assert_eq!(col_amax(&[nan, nan]), (f64::NEG_INFINITY, usize::MAX, 0.0));
        assert_eq!(col_amax::<f32>(&[]), (f32::NEG_INFINITY, usize::MAX, 0.0));
        let mut rng = StdRng::seed_from_u64(31);
        let col: Vec<f32> = (0..300).map(|_| rng.gen_range(0..9) as f32 - 4.0).collect();
        let first = col.iter().position(|v| v.abs() == 4.0).expect("a maximum");
        assert_eq!(col_amax(&col), (4.0, first, col[first]));
    }

    /// The block `SharedMat::blocks` hands out for a rectangle with no rows
    /// (a dangling pointer and several columns) carries no words.
    #[test]
    fn a_block_without_rows_has_no_words() {
        let b = MatViewMut::<f64>::from_slice(&mut [], 0, 5, 1);
        assert!(words(b).is_empty());
    }

    /// Composed moves leave every row where the interchanges, applied one
    /// by one, leave it — on chains through one row, pivots above the
    /// diagonal, no-ops and long lists.
    #[test]
    fn composed_interchanges_equal_the_interchanges_one_by_one() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut lists: Vec<Vec<usize>> =
            vec![vec![], vec![0], vec![5, 5, 5], vec![4, 1, 0], vec![2, 0, 1]];
        for len in [8usize, 32, 64] {
            lists.push((0..len).map(|i| i + rng.gen_range(0..3 * len)).collect());
        }
        for ipiv in lists {
            let n = ipiv.iter().enumerate().map(|(i, &p)| i.max(p) + 8).max().unwrap_or(0);
            let mut rows: Vec<usize> = (0..n).collect();
            for (i, &p) in ipiv.iter().enumerate() {
                rows.swap(7 + i, 7 + p);
            }
            let (named, holds) = compose(&ipiv);
            let mut composed: Vec<usize> = (0..n).collect();
            for (x, &h) in holds.iter().enumerate() {
                composed[7 + named[x]] = 7 + named[h];
            }
            assert_eq!(composed, rows, "{ipiv:?}");
            let mut sorted = holds.clone();
            sorted.sort_unstable();
            assert!(sorted.into_iter().eq(0..named.len()), "a permutation");
            assert!(named.iter().enumerate().all(|(x, &r)| r == x || r >= ipiv.len()));
        }
    }
}
