//! Simulated-distributed CALU — the paper's actual setting.
//!
//! Two modes over `calu-netsim`:
//!
//! * **Real-data** ([`sim_tslu_panel`], [`sim_pdgetf2_panel`], and the
//!   full factorizations) — the distributed algorithm executes its actual
//!   data flow (2D block-cyclic `Pr x Pc` layout, TSLU as a butterfly
//!   all-reduce of [`Candidates`]), so the factors can be checked against
//!   the sequential references — bitwise for the partial-pivoting
//!   baselines, and to rounding for CALU. The full factorizations are
//!   **runtime-driven**: [`crate::dist_rt::dist_calu_factor_rt`] /
//!   [`crate::dist_rt::dist_pdgetrf_factor_rt`] run each rank's per-step
//!   work as a `calu-runtime` task DAG at any lookahead depth, on either
//!   executor and communicator (`DistRtOpts::default()` is depth 1 on the
//!   serial executor over the in-process mailbox). This module keeps
//!   CALU's hand-written SPMD step loop as [`dist_calu_factor_spmd`], the
//!   reference the DAG path is asserted bitwise equal to on grids with
//!   more than one process row (`PDGETRF`'s reference is the sequential
//!   [`calu_matrix::lapack::getrf`]).
//! * **Cost-skeleton** ([`skeleton_tslu`], [`skeleton_pdgetf2`],
//!   [`skeleton_calu`], [`skeleton_pdgetrf`], [`skeleton_calu_lookahead`])
//!   — full control flow with [`Payload::Empty`] messages and modeled word
//!   counts, so paper-scale problems (a 10^6-row panel on 64 ranks)
//!   simulate in milliseconds. These regenerate Tables 3-7.
//!
//! The row-swap scheme ablation ([`RowSwapScheme`]) and the
//! tournament-tree ablation ([`TsluTree`]) are skeleton-only knobs; the
//! real-data mode always performs pairwise exchanges and the butterfly.

use crate::tournament::{reduce_pair, Candidates};
use crate::tslu::{local_candidates, partition_rows, winners_to_ipiv, LocalLu};
use calu_matrix::blas1::scal;
use calu_matrix::blas2::ger;
use calu_matrix::blas3::{gemm, trsm};
use calu_matrix::lapack::lu_nopiv;
use calu_matrix::perm::ipiv_to_perm;
use calu_matrix::scalar::cast_slice;
use calu_matrix::{Diag, Matrix, NoObs, Scalar, Side, TileLayout, Uplo};
use calu_netsim::collectives::ceil_log2;
use calu_netsim::machine::{flops_gemm, flops_ger, flops_getf2, flops_trsm_left, flops_trsm_right};
use calu_netsim::{run_sim, Grid, Group, Link, MachineConfig, Payload, SimComm, SimReport};

// ---------------------------------------------------------------------------
// Configuration types
// ---------------------------------------------------------------------------

/// Configuration for the real-data distributed CALU.
#[derive(Debug, Clone, Copy)]
pub struct DistCaluConfig {
    /// Block size `b` (algorithmic panel width *and* distribution block).
    pub b: usize,
    /// Process rows `Pr`.
    pub pr: usize,
    /// Process columns `Pc`.
    pub pc: usize,
    /// Local LU used in TSLU's candidate elections.
    pub local: LocalLu,
}

/// Configuration for the real-data distributed `PDGETRF` baseline.
#[derive(Debug, Clone, Copy)]
pub struct DistPdgetrfConfig {
    /// Block size `b`.
    pub b: usize,
    /// Process rows `Pr`.
    pub pr: usize,
    /// Process columns `Pc`.
    pub pc: usize,
}

/// Packed factors produced by a real-data distributed factorization,
/// assembled from the block-cyclic pieces.
#[derive(Debug, Clone)]
pub struct DistFactors<T = f64> {
    /// Packed `L\U` (unit lower implicit), assembled to one matrix.
    pub lu: Matrix<T>,
    /// LAPACK-style global swap sequence (absolute row indices).
    pub ipiv: Vec<usize>,
    /// LAPACK `INFO`-style singularity report: `Some(step)` records the
    /// first elimination step with an exactly zero (or non-finite) pivot,
    /// matching the `step` of the sequential reference's
    /// [`calu_matrix::Error::SingularPivot`]. Factors at and beyond that
    /// step are not meaningful (the leading part still is, as in LAPACK).
    pub first_singular: Option<usize>,
}

/// Result of a real-data distributed panel factorization.
#[derive(Debug, Clone)]
pub struct DistPanel<T = f64> {
    /// The factored panel (packed `L\U`), assembled at rank 0.
    pub panel: Matrix<T>,
    /// LAPACK-style swap sequence, local to the panel.
    pub ipiv: Vec<usize>,
    /// Pivot row indices in pivot order (original panel rows).
    pub pivot_rows: Vec<usize>,
}

/// How a skeleton models the application of a panel's row swaps to the
/// rest of the matrix (paper Section 4 discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSwapScheme {
    /// The paper's CALU scheme: all `b` swaps move in one
    /// reduce-then-broadcast sweep over the process column
    /// (`2 log2 Pr` message rounds of `b x` local-width words).
    ReduceBcast,
    /// ScaLAPACK's `PDLASWP`: one serialized exchange round per pivot row
    /// (`b` rounds of local-width words) — the per-row picket fence.
    PdLaswp,
}

/// Reduction-tree shape for the TSLU tournament skeleton ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsluTree {
    /// Butterfly all-reduce (the paper's TSLU; `log2 P` exchange steps,
    /// result known everywhere).
    Butterfly,
    /// Binomial reduce to rank 0 followed by a binomial broadcast
    /// (`2 log2 P` steps).
    ReduceBcast,
    /// Flat gather to the root, one big local election, broadcast back —
    /// the strawman whose combine work grows linearly in `P`.
    Flat,
}

/// Configuration for the 2D cost skeletons.
#[derive(Debug, Clone, Copy)]
pub struct SkelCfg {
    /// Global rows.
    pub m: usize,
    /// Global columns.
    pub n: usize,
    /// Block size `b` (panel width and distribution block).
    pub b: usize,
    /// Process rows `Pr`.
    pub pr: usize,
    /// Process columns `Pc`.
    pub pc: usize,
    /// Local LU inside TSLU (CALU) / panel rate class (`PDGETRF` ignores
    /// it — its panel is always the classic per-column `PDGETF2`).
    pub local: LocalLu,
    /// Row-swap scheme for the trailing-matrix pivot application.
    pub swap: RowSwapScheme,
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Local LU time for an `m x n` block under `local`.
#[inline]
fn t_local_lu(mch: &MachineConfig, local: LocalLu, m: usize, n: usize) -> f64 {
    match local {
        LocalLu::Classic => mch.t_getf2(m, n),
        LocalLu::Recursive => mch.t_rgetf2(m, n),
    }
}

/// Candidate-set payload size in 8-byte words for a width-`b` tournament.
#[inline]
fn cand_words(b: usize) -> usize {
    2 + b + b * b
}

/// The tournament combine charged as compute on `cm`: a `2b x b` GEPP.
fn charge_combine(cm: &mut SimComm, b: usize) {
    let t = cm.machine().t_getf2(2 * b, b);
    cm.compute(t, flops_getf2(2 * b, b));
}

// ---------------------------------------------------------------------------
// Real-data 1D panel drivers
// ---------------------------------------------------------------------------

/// Real-data TSLU of the `m x b` panel `a` over `p` simulated ranks
/// (contiguous block-rows, matching [`crate::tslu::tslu_pivots`]'s
/// partition): local candidate elections, butterfly all-reduce of
/// [`Candidates`] with [`reduce_pair`], redundant factorization of the
/// winner block, and a local `trsm` second pass.
///
/// The elected pivots are identical to the sequential tournament's — the
/// butterfly's combination tree is the one [`crate::tournament::tournament`]
/// replicates — which the tests assert.
pub fn sim_tslu_panel<T: Scalar>(
    a: &Matrix<T>,
    p: usize,
    local: LocalLu,
    mch: MachineConfig,
) -> (SimReport, DistPanel<T>) {
    let (m, b) = (a.rows(), a.cols());
    let kn = m.min(b);
    let parts = partition_rows(m, p);
    let p_eff = parts.len();

    let (report, results) = run_sim(p_eff, mch, |cm| {
        let r = cm.rank();
        let mach = cm.machine().clone();
        let range = parts[r].clone();
        let rows = range.len();
        let group = Group::new((0..p_eff).collect(), r, Link::Col, 41);

        // Phase 1a: local candidate election.
        let block = a.view().submatrix(range.start, 0, rows, b).to_matrix();
        let idx: Vec<usize> = range.clone().collect();
        cm.compute(t_local_lu(&mach, local, rows, b), flops_getf2(rows, b));
        let cand = local_candidates(&block, &idx, local);

        // Phase 1b: butterfly all-reduce — TSLU's communication pattern.
        let words = cand_words(b);
        let win_pl = group.allreduce(cm, Payload::Data(cand.to_payload()), words, |cm, lo, hi| {
            let lo: Candidates<T> = Candidates::from_payload(&lo.into_data());
            let hi: Candidates<T> = Candidates::from_payload(&hi.into_data());
            charge_combine(cm, b);
            Payload::Data(reduce_pair(&lo, &hi).to_payload())
        });
        let winners: Candidates<T> = Candidates::from_payload(&win_pl.into_data());

        // Phase 2: redundant factorization of the winner block W = L11 U11.
        // On an exactly singular panel the factors beyond the failing step
        // are not meaningful (the sequential reference returns
        // `Error::SingularPivot` at the same step).
        let mut w = winners.block.clone();
        cm.compute(mach.t_getf2(kn, b), flops_getf2(kn, b));
        match lu_nopiv(w.view_mut(), &mut NoObs) {
            Ok(()) | Err(calu_matrix::Error::SingularPivot { .. }) => {}
            Err(other) => panic!("unexpected lu_nopiv failure: {other:?}"),
        }

        // Second pass: L rows for my *non-winner* originals, A_i U11^{-1}.
        let mine: Vec<usize> = idx.iter().copied().filter(|g| !winners.rows.contains(g)).collect();
        let mut lblk = Matrix::from_fn(mine.len(), b, |i, j| a[(mine[i], j)]);
        cm.compute(mach.t_trsm_right(rows, kn), flops_trsm_right(rows, kn));
        if !mine.is_empty() {
            let u11 = w.view().submatrix(0, 0, kn, kn);
            trsm(Side::Right, Uplo::Upper, Diag::NonUnit, T::ONE, u11, lblk.view_mut());
        }

        // Gather the L blocks (with their original row ids) to rank 0.
        let mine_pl = Candidates::new(lblk, mine).to_payload();
        let gathered = group.gather(cm, 0, Payload::Data(mine_pl), rows * b + rows + 2);
        gathered.map(|items| {
            let ipiv = winners_to_ipiv(&winners.rows, m);
            let perm = ipiv_to_perm(&ipiv, m);
            let mut panel = Matrix::zeros(m, b);
            for i in 0..kn {
                for j in 0..b {
                    panel[(i, j)] = w[(i, j)];
                }
            }
            // Map original row -> (gathered block, row) and fill the
            // below-diagonal positions with each original row's L values.
            let blocks: Vec<Candidates<T>> =
                items.into_iter().map(|pl| Candidates::from_payload(&pl.into_data())).collect();
            let mut by_orig: Vec<Option<(usize, usize)>> = vec![None; m];
            for (bi, blk) in blocks.iter().enumerate() {
                for (ri, &orig) in blk.rows.iter().enumerate() {
                    by_orig[orig] = Some((bi, ri));
                }
            }
            for q in kn..m {
                let orig = perm[q];
                let (bi, ri) = by_orig[orig].expect("non-winner row must be gathered");
                for j in 0..b {
                    panel[(q, j)] = blocks[bi].block[(ri, j)];
                }
            }
            DistPanel { panel, ipiv, pivot_rows: winners.rows.clone() }
        })
    });
    let panel = results.into_iter().flatten().next().expect("rank 0 assembles the panel");
    (report, panel)
}

/// Real-data `PDGETF2` of the `m x b` panel over `p` ranks (contiguous
/// block-rows): per column, a local pivot scan, a reduce+broadcast of the
/// winning candidate (value, index, and trailing row — ScaLAPACK's
/// combine), a physical row exchange between the two owners, then local
/// scaling and rank-1 update.
///
/// Every arithmetic operation is elementwise identical to the sequential
/// [`calu_matrix::lapack::getf2`], so the factors match **bitwise** —
/// asserted by the tests.
pub fn sim_pdgetf2_panel<T: Scalar>(
    a: &Matrix<T>,
    p: usize,
    mch: MachineConfig,
) -> (SimReport, DistPanel<T>) {
    let (m, b) = (a.rows(), a.cols());
    let kn = m.min(b);
    let parts = partition_rows(m, p);
    let p_eff = parts.len();
    let owner_of = |g: usize| parts.iter().position(|r| r.contains(&g)).expect("row in range");

    let (report, results) = run_sim(p_eff, mch, |cm| {
        let r = cm.rank();
        let mach = cm.machine().clone();
        let range = parts[r].clone();
        let rows = range.len();
        let group = Group::new((0..p_eff).collect(), r, Link::Col, 43);
        let mut local = a.view().submatrix(range.start, 0, rows, b).to_matrix();
        let mut ipiv = vec![0usize; kn];

        for j in 0..kn {
            // Local pivot scan over my rows with global index >= j
            // (IDAMAX semantics: strictly-greater keeps the first max).
            let lo = range.start.max(j);
            let active = range.end.saturating_sub(lo);
            cm.compute(active as f64 * mach.gamma1, 0.0);
            let (mut best, mut best_g, mut best_v) = (T::NEG_INFINITY, usize::MAX, T::ZERO);
            for g in lo..range.end {
                let v = local[(g - range.start, j)];
                if v.abs() > best {
                    best = v.abs();
                    best_g = g;
                    best_v = v;
                }
            }
            // Candidate payload: [abs, index, value, trailing row j+1..b]
            // as f64 words (exact for f32 values — see Candidates).
            let mut pl = vec![best.to_f64(), best_g as f64, best_v.to_f64()];
            if best_g != usize::MAX {
                let li = best_g - range.start;
                pl.extend((j + 1..b).map(|jj| local[(li, jj)].to_f64()));
            } else {
                pl.extend(std::iter::repeat_n(0.0, b - j - 1));
            }
            let words = b + 2;
            // Combine toward member 0, ties resolve to the lower-rank
            // (= lower-global-index) side — first-max semantics globally.
            let red = group.reduce(cm, Payload::Data(pl), words, |_cm, lo_pl, hi_pl| {
                let lo_v = lo_pl.into_data();
                let hi_v = hi_pl.into_data();
                if hi_v[0] > lo_v[0] {
                    Payload::Data(hi_v)
                } else {
                    Payload::Data(lo_v)
                }
            });
            let win = group.bcast(cm, 0, red.unwrap_or(Payload::Empty), words).into_data();
            let (piv_abs, piv_g, piv_v) =
                (T::from_f64(win[0]), win[1] as usize, T::from_f64(win[2]));
            ipiv[j] = piv_g;
            let eliminate = piv_abs != T::ZERO && piv_abs.is_finite();
            // DGETF2's INFO path: a zero pivot skips the (vacuous)
            // elimination, and the scan keeps going.
            if eliminate {
                // Physical swap of full rows j <-> piv_g between owners.
                if piv_g != j {
                    let (o1, o2) = (owner_of(j), owner_of(piv_g));
                    let tag = 0x5A00_0000 + j as u64;
                    if o1 == o2 {
                        if r == o1 {
                            local.view_mut().swap_rows(j - range.start, piv_g - range.start);
                        }
                    } else if r == o1 {
                        let row: Vec<f64> =
                            (0..b).map(|jj| local[(j - range.start, jj)].to_f64()).collect();
                        let (got, _w) = cm.sendrecv(o2, tag, b, Payload::Data(row), Link::Col);
                        let got = got.into_data();
                        for (jj, v) in got.into_iter().enumerate() {
                            local[(j - range.start, jj)] = T::from_f64(v);
                        }
                    } else if r == o2 {
                        let li = piv_g - range.start;
                        let row: Vec<f64> = (0..b).map(|jj| local[(li, jj)].to_f64()).collect();
                        let (got, _w) = cm.sendrecv(o1, tag, b, Payload::Data(row), Link::Col);
                        let got = got.into_data();
                        for (jj, v) in got.into_iter().enumerate() {
                            local[(li, jj)] = T::from_f64(v);
                        }
                    }
                }
                // Scale my sub-pivot rows and apply the rank-1 update.
                let lo1 = range.start.max(j + 1);
                let below = range.end.saturating_sub(lo1);
                if below > 0 {
                    let inv = piv_v.recip();
                    let l0 = lo1 - range.start;
                    cm.compute(mach.gamma_div + below as f64 * mach.gamma1, below as f64);
                    scal(inv, &mut local.col_mut(j)[l0..]);
                    if j + 1 < b {
                        cm.compute(mach.t_ger(below, b - j - 1), flops_ger(below, b - j - 1));
                        let urow: Vec<T> = cast_slice(&win[3..3 + (b - j - 1)]);
                        let mut v = local.view_mut();
                        let (left, mut right) = v.rb_mut().split_at_col_mut(j + 1);
                        let l_col = &left.col(j)[l0..];
                        let trailing = right.submatrix_mut(l0, 0, below, b - j - 1);
                        ger(-T::ONE, l_col, &urow, trailing);
                    }
                }
            }
        }

        // Gather the final local blocks to rank 0 and assemble.
        let idx: Vec<usize> = range.clone().collect();
        let pl = Candidates::new(local, idx).to_payload();
        let gathered = group.gather(cm, 0, Payload::Data(pl), rows * b + rows + 2);
        gathered.map(|items| {
            let mut panel = Matrix::zeros(m, b);
            for pl in items {
                let blk = Candidates::from_payload(&pl.into_data());
                for (ri, &g) in blk.rows.iter().enumerate() {
                    for j in 0..b {
                        panel[(g, j)] = blk.block[(ri, j)];
                    }
                }
            }
            let pivot_rows = ipiv_to_perm(&ipiv, m)[..kn].to_vec();
            DistPanel { panel, ipiv: ipiv.clone(), pivot_rows }
        })
    });
    let panel = results.into_iter().flatten().next().expect("rank 0 assembles the panel");
    (report, panel)
}

// ---------------------------------------------------------------------------
// Real-data 2D block-cyclic factorizations
// ---------------------------------------------------------------------------

/// Per-rank state for the 2D real-data sweep.
///
/// Local storage is ScaLAPACK's local array: the rows and columns this rank
/// owns under the block-cyclic deal, packed into one column-major matrix
/// (local row `li` is global row `global_row(prow, li)`, local column `lj`
/// global column `global_col(pcol, lj)`). All owner / local-index
/// arithmetic goes through the global [`TileLayout`]'s ownership map.
struct Rank2d<T> {
    prow: usize,
    pcol: usize,
    /// Global block layout with the block-cyclic `(Pr, Pc)` ownership map.
    layout: TileLayout,
    /// Local block-cyclic storage (owned rows x owned cols).
    local: Matrix<T>,
}

impl<T: Scalar> Rank2d<T> {
    fn new(a: &Matrix<T>, b: usize, pr: usize, pc: usize, rank: usize) -> Self {
        let grid = Grid::new(pr, pc);
        let (prow, pcol) = grid.coords(rank);
        let layout = TileLayout::new(a.rows(), a.cols(), b, b).with_grid(pr, pc);
        let local = scatter_2d(layout, a, prow, pcol);
        Self { prow, pcol, layout, local }
    }

    /// Local index of the first owned row with global index `>= g`.
    #[inline]
    fn lrow_at(&self, g: usize) -> usize {
        self.layout.local_rows_below(self.prow, g)
    }

    /// Local index of the first owned column with global index `>= g`.
    #[inline]
    fn lcol_at(&self, g: usize) -> usize {
        self.layout.local_cols_below(self.pcol, g)
    }

    /// Global index of owned row `li`.
    #[inline]
    fn grow(&self, li: usize) -> usize {
        self.layout.global_row(self.prow, li)
    }

    /// Exchanges (or locally swaps) the values of global rows `r1 != r2`
    /// across local columns `[c0, c1)`. Both owner ranks call this; other
    /// ranks in the process column return immediately.
    fn swap_global_rows(
        &mut self,
        cm: &mut SimComm,
        grid: &Grid,
        (r1, r2): (usize, usize),
        (c0, c1): (usize, usize),
        tag: u64,
    ) {
        debug_assert!(r1 != r2);
        let o1 = self.layout.row_owner(r1);
        let o2 = self.layout.row_owner(r2);
        let width = c1 - c0;
        if o1 == o2 {
            if self.prow == o1 {
                let (l1, l2) = (self.layout.local_row(r1), self.layout.local_row(r2));
                let lr = self.local.rows();
                self.local.view_mut().into_submatrix(0, c0, lr, c1 - c0).swap_rows(l1, l2);
            }
            return;
        }
        let (my_g, peer_prow) = if self.prow == o1 {
            (r1, o2)
        } else if self.prow == o2 {
            (r2, o1)
        } else {
            return;
        };
        if width == 0 {
            return;
        }
        let peer = grid.rank_of(peer_prow, self.pcol);
        let li = self.layout.local_row(my_g);
        let row: Vec<f64> = (c0..c1).map(|lj| self.local[(li, lj)].to_f64()).collect();
        let (got, _w) = cm.sendrecv(peer, tag, width, Payload::Data(row), Link::Col);
        for (o, v) in got.into_data().into_iter().enumerate() {
            self.local[(li, c0 + o)] = T::from_f64(v);
        }
    }

    /// The trailing update: broadcast the packed panel along process rows,
    /// `trsm` the `U12` block row on the diagonal process row, broadcast it
    /// down process columns, and `gemm` the local trailing block — one call
    /// each. Both kernels are position independent (a column of the left
    /// `trsm` and an element of `gemm` do not depend on the rest of the
    /// call), so the factors are those of the flat sequential sweep's
    /// calls.
    #[allow(clippy::too_many_arguments)]
    fn trailing_update(
        &mut self,
        cm: &mut SimComm,
        rowg: &Group,
        colg: &Group,
        k: usize,
        jb: usize,
        cprow: usize,
        cpcol: usize,
    ) {
        let mach = cm.machine().clone();
        let (lr, lc) = (self.local.rows(), self.local.cols());
        let lr_k = self.lrow_at(k);
        let lr_panel = lr - lr_k;
        let lc_right0 = self.lcol_at(k + jb);
        let lc_right = lc - lc_right0;

        // Panel broadcast along process rows (each process row carries its
        // own rows of the panel, so the payload matches the local rows).
        let panel_words = lr_panel * jb;
        let mine = if self.pcol == cpcol {
            let pl0 = self.lcol_at(k);
            let mut v = Vec::with_capacity(panel_words);
            for lj in pl0..pl0 + jb.min(lc - pl0) {
                v.extend((lr_k..lr).map(|li| self.local[(li, lj)].to_f64()));
            }
            Payload::Data(v)
        } else {
            Payload::Empty
        };
        let panel_pl = rowg.bcast(cm, cpcol, mine, panel_words);
        let panel_l: Matrix<T> =
            Matrix::from_col_major(lr_panel, jb, cast_slice(&panel_pl.into_data()));

        if lc_right == 0 {
            return;
        }

        // U12 on the diagonal process row.
        let diag_l0 = self.lrow_at(k); // first jb local rows are k..k+jb on cprow
        if self.prow == cprow {
            cm.compute(mach.t_trsm_left(jb, lc_right), flops_trsm_left(jb, lc_right));
            let l11 = panel_l.view().submatrix(0, 0, jb, jb);
            let u12 = self.local.view_mut().into_submatrix(diag_l0, lc_right0, jb, lc_right);
            trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11, u12);
        }

        // Broadcast U12 down process columns.
        let u_words = jb * lc_right;
        let mine = if self.prow == cprow {
            let mut v = Vec::with_capacity(u_words);
            for lj in lc_right0..lc {
                v.extend((diag_l0..diag_l0 + jb).map(|li| self.local[(li, lj)].to_f64()));
            }
            Payload::Data(v)
        } else {
            Payload::Empty
        };
        let u12: Matrix<T> = Matrix::from_col_major(
            jb,
            lc_right,
            cast_slice(&colg.bcast(cm, cprow, mine, u_words).into_data()),
        );

        // Local trailing gemm: rows with global >= k + jb.
        let lr_b0 = self.lrow_at(k + jb);
        let lr_below = lr - lr_b0;
        if lr_below > 0 {
            cm.compute(mach.t_gemm(lr_below, lc_right, jb), flops_gemm(lr_below, lc_right, jb));
            let l21 = panel_l.view().submatrix(lr_b0 - lr_k, 0, lr_below, jb);
            let a22 = self.local.view_mut().into_submatrix(lr_b0, lc_right0, lr_below, lc_right);
            gemm(-T::ONE, l21, u12.view(), T::ONE, a22);
        }
    }
}

/// Assembles per-rank results into [`DistFactors`]. The singularity
/// report is the minimum over ranks: only the panel-owning process column
/// observes a given panel's zero pivot, so rank 0 alone is not enough.
fn assemble_factors<T: Scalar>(
    layout: TileLayout,
    results: Vec<(Matrix<T>, Vec<usize>, Option<usize>)>,
) -> DistFactors<T> {
    let first_singular = results.iter().filter_map(|r| r.2).min();
    let ipiv = results[0].1.clone();
    let parts: Vec<Matrix<T>> = results.into_iter().map(|r| r.0).collect();
    let lu = assemble_2d(layout, &parts);
    DistFactors { lu, ipiv, first_singular }
}

/// Process `(prow, pcol)`'s share of `a` under `layout`'s block-cyclic deal,
/// as the rank stores it — ScaLAPACK's local array: local row `li` is global
/// row `global_row(prow, li)`, local column `lj` global column
/// `global_col(pcol, lj)`, column-major with the local row count as leading
/// dimension. Each local column is its global column's owned `mb`-row
/// segments, copied in order. The inverse of [`assemble_2d`]; every
/// distributed driver sets its ranks up with it.
///
/// # Panics
/// If `layout` has no process grid or is not `a`'s shape.
pub fn scatter_2d<T: Scalar>(
    layout: TileLayout,
    a: &Matrix<T>,
    prow: usize,
    pcol: usize,
) -> Matrix<T> {
    assert_eq!((layout.rows(), layout.cols()), (a.rows(), a.cols()), "layout is not a's shape");
    let pr = layout.grid().expect("scatter needs a process grid").0;
    let (lr, lc, mb) = (layout.local_rows(prow), layout.local_cols(pcol), layout.mb());
    // Nothing is zeroed first: the output is written once, in storage order.
    let mut data = Vec::with_capacity(lr * lc);
    for lj in 0..lc {
        let col = a.col(layout.global_col(pcol, lj));
        for gi in (prow..layout.tile_rows()).step_by(pr) {
            data.extend_from_slice(&col[gi * mb..][..layout.tile_height(gi)]);
        }
    }
    Matrix::from_col_major(lr, lc, data)
}

/// Assembles per-rank block-cyclic pieces (`parts[rank]`, flat ranks
/// column-major over the grid, each as [`scatter_2d`] lays it out) into one
/// global matrix, `mb`-row column segments in storage order — the inverse
/// of [`scatter_2d`].
///
/// # Panics
/// If `layout` has no process grid or a part is not its rank's share.
pub fn assemble_2d<T: Scalar>(layout: TileLayout, parts: &[Matrix<T>]) -> Matrix<T> {
    let (pr, pc) = layout.grid().expect("assembly needs a process grid");
    assert_eq!(parts.len(), pr * pc, "one part per rank");
    for (rank, part) in parts.iter().enumerate() {
        let shape = (layout.local_rows(rank % pr), layout.local_cols(rank / pr));
        assert_eq!((part.rows(), part.cols()), shape, "rank {rank}'s share");
    }
    let mb = layout.mb();
    let mut data = Vec::with_capacity(layout.rows() * layout.cols());
    for j in 0..layout.cols() {
        let (pcol, lj) = (layout.col_owner(j), layout.local_col(j));
        for gi in 0..layout.tile_rows() {
            let col = parts[pcol * pr + gi % pr].col(lj);
            data.extend_from_slice(&col[(gi / pr) * mb..][..layout.tile_height(gi)]);
        }
    }
    Matrix::from_col_major(layout.rows(), layout.cols(), data)
}

/// Real-data distributed CALU on a 2D block-cyclic `Pr x Pc` grid: per
/// panel, TSLU over the owning process column (butterfly all-reduce of
/// [`Candidates`]), a global pairwise row interchange, redundant
/// factorization of the winner block plus a local `trsm` second pass, then
/// the ScaLAPACK-style `trsm`/`gemm` trailing update with row and column
/// broadcasts.
///
/// This is the hand-written SPMD step loop over `calu-netsim` ranks — the
/// **reference implementation** the runtime-driven path
/// ([`crate::dist_rt`]) is asserted bitwise equal to on grids with more
/// than one process row. New code should call
/// [`dist_calu_factor_rt`](crate::dist_rt::dist_calu_factor_rt).
///
/// With `pr == 1` the factors equal sequential CALU's with `p == 1`, bit
/// for bit (both are one local election over the whole panel) — asserted
/// in the tests.
pub fn dist_calu_factor_spmd<T: Scalar>(
    a: &Matrix<T>,
    cfg: DistCaluConfig,
    mch: MachineConfig,
) -> (SimReport, DistFactors<T>) {
    let (m, n) = (a.rows(), a.cols());
    let kn = m.min(n);
    let DistCaluConfig { b, pr, pc, local } = cfg;
    assert!(b > 0 && pr > 0 && pc > 0, "block and grid must be positive");
    let grid = Grid::new(pr, pc);

    let (report, results) = run_sim(grid.size(), mch, |cm| {
        let rank = cm.rank();
        let mach = cm.machine().clone();
        let mut st = Rank2d::new(a, b, pr, pc, rank);
        let colg = grid.col_group(rank);
        let rowg = grid.row_group(rank);
        let mut ipiv = vec![0usize; kn];
        let mut first_singular: Option<usize> = None;

        let mut k = 0;
        let mut ib = 0u64;
        while k < kn {
            let jb = b.min(kn - k);
            let cprow = (ib as usize) % pr;
            let cpcol = (ib as usize) % pc;

            // --- TSLU over the panel-owning process column.
            let local_ipiv: Vec<usize> = if st.pcol == cpcol {
                let lr_k = st.lrow_at(k);
                let lrows = st.local.rows() - lr_k;
                let pl0 = st.lcol_at(k);
                let block = st.local.view().submatrix(lr_k, pl0, lrows, jb).to_matrix();
                let idx: Vec<usize> = (lr_k..st.local.rows()).map(|li| st.grow(li) - k).collect();
                cm.compute(t_local_lu(&mach, local, lrows.max(1), jb), flops_getf2(lrows, jb));
                let cand = if lrows > 0 {
                    local_candidates(&block, &idx, local)
                } else {
                    Candidates::new(Matrix::zeros(0, jb), vec![])
                };
                let words = cand_words(jb);
                let win_pl =
                    colg.allreduce(cm, Payload::Data(cand.to_payload()), words, |cm, lo, hi| {
                        let lo: Candidates<T> = Candidates::from_payload(&lo.into_data());
                        let hi: Candidates<T> = Candidates::from_payload(&hi.into_data());
                        charge_combine(cm, jb);
                        Payload::Data(reduce_pair(&lo, &hi).to_payload())
                    });
                let winners: Candidates<T> = Candidates::from_payload(&win_pl.into_data());
                let li = winners_to_ipiv(&winners.rows, m - k);
                // Share the swap list with the other process columns.
                let pl: Vec<f64> = li.iter().map(|&x| x as f64).collect();
                rowg.bcast(cm, cpcol, Payload::Data(pl), jb);
                li
            } else {
                let pl = rowg.bcast(cm, cpcol, Payload::Empty, jb).into_data();
                pl.into_iter().map(|x| x as usize).collect()
            };
            for (i, &p) in local_ipiv.iter().enumerate() {
                ipiv[k + i] = k + p;
            }

            // --- Apply the panel's swaps to every local column.
            for (i, &p) in local_ipiv.iter().enumerate() {
                if p != i {
                    let (r1, r2) = (k + i, k + p);
                    let tag = 0x4341_0000_0000 + ib * 4096 + i as u64;
                    let ncols = st.local.cols();
                    st.swap_global_rows(cm, &grid, (r1, r2), (0, ncols), tag);
                }
            }

            // --- Second pass on the panel: W = L11 U11 redundantly, then
            //     local L21 = A21 U11^{-1}.
            if st.pcol == cpcol {
                let pl0 = st.lcol_at(k);
                // After the swaps the winner block sits in global rows
                // k..k+jb; its values are the all-reduce result, but we
                // read them from the (now permuted) local storage of the
                // diagonal owner and broadcast — simpler: refactor W
                // redundantly from the diagonal owner's rows.
                let w_words = jb * jb;
                let mine = if st.prow == cprow {
                    let d0 = st.lrow_at(k);
                    let mut v = Vec::with_capacity(w_words);
                    for lj in pl0..pl0 + jb {
                        v.extend((d0..d0 + jb).map(|li| st.local[(li, lj)].to_f64()));
                    }
                    Payload::Data(v)
                } else {
                    Payload::Empty
                };
                let mut w: Matrix<T> = Matrix::from_col_major(
                    jb,
                    jb,
                    cast_slice(&colg.bcast(cm, cprow, mine, w_words).into_data()),
                );
                cm.compute(mach.t_getf2(jb, jb), flops_getf2(jb, jb));
                // A genuinely singular panel is recorded INFO-style (the
                // sequential reference errors at the same absolute step);
                // factors at and beyond it are not meaningful.
                if let Err(calu_matrix::Error::SingularPivot { step }) =
                    lu_nopiv(w.view_mut(), &mut NoObs)
                {
                    first_singular = first_singular.or(Some(k + step));
                }
                if st.prow == cprow {
                    let d0 = st.lrow_at(k);
                    for lj in 0..jb {
                        for li in 0..jb {
                            st.local[(d0 + li, pl0 + lj)] = w[(li, lj)];
                        }
                    }
                }
                let lb0 = st.lrow_at(k + jb);
                let lr_below = st.local.rows() - lb0;
                cm.compute(mach.t_trsm_right(lr_below, jb), flops_trsm_right(lr_below, jb));
                let u11 = w.view().submatrix(0, 0, jb, jb);
                let l21 = st.local.view_mut().into_submatrix(lb0, pl0, lr_below, jb);
                trsm(Side::Right, Uplo::Upper, Diag::NonUnit, T::ONE, u11, l21);
            }

            // --- Trailing update.
            st.trailing_update(cm, &rowg, &colg, k, jb, cprow, cpcol);

            k += jb;
            ib += 1;
        }
        (st.local, ipiv, first_singular)
    });

    (report, assemble_factors(TileLayout::new(m, n, b, b).with_grid(pr, pc), results))
}

// ---------------------------------------------------------------------------
// Cost skeletons — paper-scale sweeps in milliseconds
// ---------------------------------------------------------------------------

/// Cost skeleton of TSLU on an `m x b` panel over `p` ranks with the given
/// reduction-tree shape.
pub fn skeleton_tslu_tree(
    m: usize,
    b: usize,
    p: usize,
    local: LocalLu,
    tree: TsluTree,
    mch: MachineConfig,
) -> SimReport {
    let parts = partition_rows(m, p);
    let p_eff = parts.len();
    let (report, _) = run_sim(p_eff, mch, |cm| {
        let r = cm.rank();
        let mach = cm.machine().clone();
        let rows = parts[r].len();
        let group = Group::new((0..p_eff).collect(), r, Link::Col, 47);
        let words = cand_words(b);

        cm.compute(t_local_lu(&mach, local, rows, b), flops_getf2(rows, b));
        match tree {
            TsluTree::Butterfly => {
                group.allreduce(cm, Payload::Empty, words, |cm, a, _b| {
                    charge_combine(cm, b);
                    a
                });
            }
            TsluTree::ReduceBcast => {
                let red = group.reduce(cm, Payload::Empty, words, |cm, a, _b| {
                    charge_combine(cm, b);
                    a
                });
                group.bcast(cm, 0, red.unwrap_or(Payload::Empty), words);
            }
            TsluTree::Flat => {
                let items = group.gather(cm, 0, Payload::Empty, words);
                if items.is_some() {
                    // One big election over the p stacked candidate sets.
                    cm.compute(mach.t_getf2(p_eff * b, b), flops_getf2(p_eff * b, b));
                }
                group.bcast(cm, 0, Payload::Empty, words);
            }
        }
        // Second pass: redundant W factorization + local trsm.
        cm.compute(mach.t_getf2(b, b), flops_getf2(b, b));
        cm.compute(mach.t_trsm_right(rows, b), flops_trsm_right(rows, b));
    });
    report
}

/// Cost skeleton of TSLU with the butterfly tree (the paper's algorithm).
pub fn skeleton_tslu(
    m: usize,
    b: usize,
    p: usize,
    local: LocalLu,
    mch: MachineConfig,
) -> SimReport {
    skeleton_tslu_tree(m, b, p, local, TsluTree::Butterfly, mch)
}

/// Cost skeleton of ScaLAPACK `PDGETF2` on an `m x b` panel over `p`
/// ranks: per column, a local scan, a reduce+broadcast of the pivot
/// candidate (`b + 2` words), one pivot-row exchange round, then the local
/// scale and rank-1 update — the per-column picket fence of messages that
/// TSLU's single all-reduce replaces.
pub fn skeleton_pdgetf2(m: usize, b: usize, p: usize, mch: MachineConfig) -> SimReport {
    let parts = partition_rows(m, p);
    let p_eff = parts.len();
    let (report, _) = run_sim(p_eff, mch, |cm| {
        let r = cm.rank();
        let mach = cm.machine().clone();
        let range = parts[r].clone();
        let group = Group::new((0..p_eff).collect(), r, Link::Col, 53);
        let words = b + 2;
        for j in 0..b {
            let lo = range.start.max(j);
            let active = range.end.saturating_sub(lo);
            cm.compute(active as f64 * mach.gamma1, 0.0);
            let red = group.reduce(cm, Payload::Empty, words, |_cm, a, _b| a);
            group.bcast(cm, 0, red.unwrap_or(Payload::Empty), words);
            if p_eff > 1 {
                // Pivot-row exchange between the two owners.
                cm.charge_rounds(1, b, Link::Col);
            }
            let below = range.end.saturating_sub(range.start.max(j + 1));
            if below > 0 {
                cm.compute(mach.gamma_div + below as f64 * mach.gamma1, below as f64);
                if j + 1 < b {
                    cm.compute(mach.t_ger(below, b - j - 1), flops_ger(below, b - j - 1));
                }
            }
        }
    });
    report
}

/// Which 2D algorithm a skeleton models.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Alg2d {
    Calu,
    Pdgetrf,
}

fn skeleton_2d(cfg: SkelCfg, mch: MachineConfig, alg: Alg2d, lookahead: bool) -> SimReport {
    let SkelCfg { m, n, b, pr, pc, local, swap } = cfg;
    assert!(b > 0 && pr > 0 && pc > 0, "block and grid must be positive");
    let grid = Grid::new(pr, pc);
    let layout = TileLayout::new(m, n, b, b).with_grid(pr, pc);
    let kn = m.min(n);

    let (report, _) = run_sim(grid.size(), mch, |cm| {
        let rank = cm.rank();
        let mach = cm.machine().clone();
        let (prow, pcol) = grid.coords(rank);
        let colg = grid.col_group(rank);
        let rowg = grid.row_group(rank);
        let lr_total = layout.local_rows(prow);
        let lc_total = layout.local_cols(pcol);

        let mut k = 0;
        let mut ib = 0usize;
        while k < kn {
            let jb = b.min(kn - k);
            let cprow = ib % pr;
            let cpcol = ib % pc;
            let lr_panel = lr_total - layout.local_rows_below(prow, k);
            let lr_below = lr_total - layout.local_rows_below(prow, k + jb);
            let lc_right = lc_total - layout.local_cols_below(pcol, k + jb);

            // --- Panel factorization on the owning process column. Under
            // look-ahead the election needs no flush: the previous
            // iteration updated this panel's columns eagerly.
            if pcol == cpcol {
                match alg {
                    Alg2d::Calu => {
                        cm.compute(
                            t_local_lu(&mach, local, lr_panel.max(1), jb),
                            flops_getf2(lr_panel, jb),
                        );
                        colg.allreduce(cm, Payload::Empty, cand_words(jb), |cm, a, _b| {
                            charge_combine(cm, jb);
                            a
                        });
                        cm.compute(mach.t_getf2(jb, jb), flops_getf2(jb, jb));
                        cm.compute(mach.t_trsm_right(lr_below, jb), flops_trsm_right(lr_below, jb));
                    }
                    Alg2d::Pdgetrf => {
                        // One real reduce+bcast couples the column; the
                        // remaining jb-1 identical column rounds are
                        // charged (the paper's "log2 P identical steps").
                        let words = jb + 2;
                        let red = colg.reduce(cm, Payload::Empty, words, |_cm, a, _b| a);
                        colg.bcast(cm, 0, red.unwrap_or(Payload::Empty), words);
                        if jb > 1 && pr > 1 {
                            cm.charge_rounds(2 * (jb - 1) * ceil_log2(pr), words, Link::Col);
                        }
                        if pr > 1 {
                            // Per-column pivot-row exchanges within the panel.
                            cm.charge_rounds(jb, jb, Link::Col);
                        }
                        let mut t = 0.0;
                        let mut fl = 0.0;
                        for jj in 0..jb {
                            let active = lr_total - layout.local_rows_below(prow, k + jj);
                            t += active as f64 * mach.gamma1;
                            let below = lr_total - layout.local_rows_below(prow, k + jj + 1);
                            if below > 0 {
                                t += mach.gamma_div + below as f64 * mach.gamma1;
                                fl += below as f64;
                                if jj + 1 < jb {
                                    t += mach.t_ger(below, jb - jj - 1);
                                    fl += flops_ger(below, jb - jj - 1);
                                }
                            }
                        }
                        cm.compute(t, fl);
                    }
                }
            }

            // --- Swap list travels along process rows.
            rowg.bcast(cm, cpcol, Payload::Empty, jb);

            // --- Row interchanges on the trailing/leading columns.
            let swap_width = match alg {
                // CALU swaps all columns after the tournament.
                Alg2d::Calu => lc_total,
                // PDGETRF already swapped the panel block during PDGETF2.
                Alg2d::Pdgetrf => {
                    if pcol == cpcol {
                        lc_total.saturating_sub(jb)
                    } else {
                        lc_total
                    }
                }
            };
            if pr > 1 && swap_width > 0 {
                match swap {
                    RowSwapScheme::ReduceBcast => {
                        cm.charge_rounds(2 * ceil_log2(pr), jb * swap_width, Link::Col);
                    }
                    RowSwapScheme::PdLaswp => {
                        cm.charge_rounds(jb, swap_width, Link::Col);
                    }
                }
            }

            // --- Trailing update with panel/U12 broadcasts.
            rowg.bcast(cm, cpcol, Payload::Empty, lr_panel * jb);
            if lc_right > 0 {
                if prow == cprow {
                    if lookahead {
                        cm.flush_deferred();
                    }
                    cm.compute(mach.t_trsm_left(jb, lc_right), flops_trsm_left(jb, lc_right));
                }
                colg.bcast(cm, cprow, Payload::Empty, jb * lc_right);
                let t = mach.t_gemm(lr_below, lc_right, jb);
                let fl = flops_gemm(lr_below, lc_right, jb);
                if lookahead {
                    // HPL-style depth-1 look-ahead: charge whatever is
                    // still deferred from the previous update (its results
                    // feed this gemm), update the *next panel's* columns
                    // eagerly if this rank owns them, and defer the bulk —
                    // it hides in the next panel's election and broadcast
                    // waits instead of sitting on the critical path.
                    cm.flush_deferred();
                    let next_is_mine = (ib + 1) % pc == pcol;
                    if next_is_mine && lc_right > jb {
                        let frac = jb as f64 / lc_right as f64;
                        cm.compute(t * frac, fl * frac);
                        cm.defer_compute(t * (1.0 - frac), fl * (1.0 - frac));
                    } else {
                        cm.defer_compute(t, fl);
                    }
                } else {
                    cm.compute(t, fl);
                }
            }

            k += jb;
            ib += 1;
        }
        cm.flush_deferred();
    });
    report
}

/// Cost skeleton of 2D block-cyclic CALU (regenerates Tables 5-6 cells).
pub fn skeleton_calu(cfg: SkelCfg, mch: MachineConfig) -> SimReport {
    skeleton_2d(cfg, mch, Alg2d::Calu, false)
}

/// [`skeleton_calu`] with depth-1 HPL-style look-ahead: trailing updates
/// are deferred so they overlap the next panel's communication (paper
/// Section 4 names the technique as compatible with CALU).
pub fn skeleton_calu_lookahead(cfg: SkelCfg, mch: MachineConfig) -> SimReport {
    skeleton_2d(cfg, mch, Alg2d::Calu, true)
}

/// Cost skeleton of ScaLAPACK `PDGETRF` (the Tables 5-6 baseline). The
/// `local` field of the config is ignored; the panel is always the
/// classic per-column `PDGETF2`.
pub fn skeleton_pdgetrf(cfg: SkelCfg, mch: MachineConfig) -> SimReport {
    skeleton_2d(cfg, mch, Alg2d::Pdgetrf, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calu::{calu_factor, CaluOpts};
    use crate::dist_rt::{dist_calu_factor_rt, dist_pdgetrf_factor_rt, DistRtOpts};
    use crate::tslu::tslu_pivots;
    use calu_matrix::gen;
    use calu_matrix::lapack::{getf2, getrf, GetrfOpts};
    use calu_matrix::perm::permute_rows;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tslu_panel_matches_sequential_pivots() {
        let mut rng = StdRng::seed_from_u64(301);
        let a: Matrix = gen::randn(&mut rng, 96, 8);
        for p in [1usize, 2, 4, 8] {
            let seq = tslu_pivots(a.view(), p, LocalLu::Classic);
            let (_rep, d) = sim_tslu_panel(&a, p, LocalLu::Classic, MachineConfig::ideal());
            assert_eq!(d.pivot_rows, seq, "p={p}");
            assert_eq!(d.ipiv, winners_to_ipiv(&seq, 96));
        }
    }

    #[test]
    fn tslu_panel_reconstructs() {
        let mut rng = StdRng::seed_from_u64(302);
        let a = gen::randn(&mut rng, 64, 8);
        let (_rep, d) = sim_tslu_panel(&a, 4, LocalLu::Recursive, MachineConfig::power5());
        let perm = ipiv_to_perm(&d.ipiv, 64);
        let pa = permute_rows(&a, &perm);
        let l = d.panel.unit_lower();
        let u = d.panel.upper();
        let mut prod = Matrix::zeros(64, 8);
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        assert!(pa.max_abs_diff(&prod) < 1e-10);
    }

    #[test]
    fn pdgetf2_panel_is_bitwise_partial_pivoting() {
        let mut rng = StdRng::seed_from_u64(303);
        let a: Matrix = gen::randn(&mut rng, 48, 8);
        for p in [1usize, 2, 3, 5] {
            let (_rep, d) = sim_pdgetf2_panel(&a, p, MachineConfig::ideal());
            let mut seq = a.clone();
            let mut ipiv = vec![0usize; 8];
            getf2(seq.view_mut(), &mut ipiv, &mut NoObs).unwrap();
            assert_eq!(d.ipiv, ipiv, "p={p}");
            assert_eq!(d.panel.max_abs_diff(&seq), 0.0, "p={p}");
        }
    }

    #[test]
    fn dist_pdgetrf_is_bitwise_sequential_getrf() {
        let mut rng = StdRng::seed_from_u64(304);
        let a: Matrix = gen::randn(&mut rng, 40, 40);
        for &(pr, pc) in &[(1usize, 1usize), (2, 2), (2, 1), (1, 3), (3, 2)] {
            let (_rep, d) = dist_pdgetrf_factor_rt(
                &a,
                DistPdgetrfConfig { b: 8, pr, pc },
                DistRtOpts::default(),
                MachineConfig::ideal(),
            );
            let mut lu = a.clone();
            let mut ipiv = vec![0usize; 40];
            getrf(
                lu.view_mut(),
                &mut ipiv,
                GetrfOpts { block: 8, ..Default::default() },
                &mut NoObs,
            )
            .unwrap();
            assert_eq!(d.ipiv, ipiv, "{pr}x{pc}");
            assert_eq!(d.lu.max_abs_diff(&lu), 0.0, "{pr}x{pc}");
        }
    }

    #[test]
    fn dist_calu_reconstructs_on_grids() {
        let mut rng = StdRng::seed_from_u64(305);
        let n = 48;
        let a = gen::randn(&mut rng, n, n);
        for &(pr, pc) in &[(1usize, 1usize), (2, 2), (4, 1), (2, 3)] {
            let (_rep, d) = dist_calu_factor_rt(
                &a,
                DistCaluConfig { b: 8, pr, pc, local: LocalLu::Recursive },
                DistRtOpts::default(),
                MachineConfig::ideal(),
            );
            let perm = ipiv_to_perm(&d.ipiv, n);
            let pa = permute_rows(&a, &perm);
            let l = d.lu.unit_lower();
            let u = d.lu.upper();
            let mut prod = Matrix::zeros(n, n);
            gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
            assert!(pa.max_abs_diff(&prod) < 1e-9, "{pr}x{pc}");
        }
    }

    /// With one process row, the distributed CALU is sequential CALU with
    /// `p = 1`, bit for bit: both elect over the whole panel, and every
    /// other kernel call is position independent.
    #[test]
    fn dist_calu_pr1_matches_sequential_p1() {
        let mut rng = StdRng::seed_from_u64(306);
        for n in [32usize, 200, 256] {
            let a: Matrix = gen::randn(&mut rng, n, n);
            for (b, pc, local) in [8usize, 16, 64]
                .into_iter()
                .flat_map(|b| [1usize, 2, 3].map(|pc| (b, pc)))
                .flat_map(|(b, pc)| [LocalLu::Classic, LocalLu::Recursive].map(|l| (b, pc, l)))
            {
                let cfg = DistCaluConfig { b, pr: 1, pc, local };
                let (_rep, d) =
                    dist_calu_factor_rt(&a, cfg, DistRtOpts::default(), MachineConfig::ideal());
                let f = calu_factor(&a, CaluOpts { block: b, p: 1, local, ..Default::default() })
                    .unwrap();
                let tag = format!("n={n} b={b} pc={pc} {local:?}");
                assert_eq!(d.ipiv, f.ipiv, "{tag}");
                assert_eq!(d.lu.max_abs_diff(&f.lu), 0.0, "{tag}");
            }
        }
    }

    #[test]
    fn singular_inputs_are_reported_info_style_not_panics() {
        // Exact rank deficiency: distributed runs must complete and report
        // the same first singular step the sequential references error at.
        let mut rng = StdRng::seed_from_u64(307);
        let n = 24;
        let r = 10;
        let base = gen::randn(&mut rng, n, r);
        let a = Matrix::from_fn(n, n, |i, j| if j < r { base[(i, j)] } else { 0.0 });

        // Sequential references.
        let seq_getrf_step = {
            let mut lu = a.clone();
            let mut ipiv = vec![0usize; n];
            match getrf(
                lu.view_mut(),
                &mut ipiv,
                GetrfOpts { block: 4, ..Default::default() },
                &mut NoObs,
            ) {
                Err(calu_matrix::Error::SingularPivot { step }) => step,
                other => panic!("sequential getrf must fail: {other:?}"),
            }
        };
        let seq_calu_step = {
            match calu_factor(&a, CaluOpts { block: 4, p: 2, ..Default::default() }) {
                Err(calu_matrix::Error::SingularPivot { step }) => step,
                other => panic!("sequential calu must fail: {other:?}"),
            }
        };

        let (_rep, d) = dist_pdgetrf_factor_rt(
            &a,
            DistPdgetrfConfig { b: 4, pr: 2, pc: 2 },
            DistRtOpts::default(),
            MachineConfig::ideal(),
        );
        assert_eq!(d.first_singular, Some(seq_getrf_step));

        let (_rep, d) = dist_calu_factor_rt(
            &a,
            DistCaluConfig { b: 4, pr: 2, pc: 2, local: LocalLu::Classic },
            DistRtOpts::default(),
            MachineConfig::ideal(),
        );
        assert_eq!(d.first_singular, Some(seq_calu_step));

        // And nonsingular inputs report None.
        let good: Matrix = gen::randn(&mut rng, n, n);
        let (_rep, d) = dist_pdgetrf_factor_rt(
            &good,
            DistPdgetrfConfig { b: 4, pr: 2, pc: 2 },
            DistRtOpts::default(),
            MachineConfig::ideal(),
        );
        assert_eq!(d.first_singular, None);

        // The panel drivers complete on an exactly-zero trailing column.
        let mut panel = gen::randn(&mut rng, 16, 4);
        for i in 0..16 {
            panel[(i, 3)] = 0.0;
        }
        let (_rep, d) = sim_pdgetf2_panel(&panel, 2, MachineConfig::ideal());
        assert_eq!(d.ipiv.len(), 4);
        let (_rep, d) = sim_tslu_panel(&panel, 2, LocalLu::Classic, MachineConfig::ideal());
        assert_eq!(d.ipiv.len(), 4);
    }

    #[test]
    fn tile_layout_ownership_map_matches_netsim_grid_math() {
        // The hand-rolled owner/local-index helpers this module used to
        // carry were thin wrappers over calu-netsim's ScaLAPACK functions;
        // they now route through TileLayout. Assert the two formulations
        // agree everywhere so the dedupe is behavior-preserving.
        use calu_netsim::grid::{global_to_local, local_to_global, numroc};
        let (m, n, b, pr, pc) = (131, 77, 8, 3, 2);
        let layout = TileLayout::new(m, n, b, b).with_grid(pr, pc);
        for i in 0..m {
            let (owner, li) = global_to_local(i, b, pr);
            assert_eq!(layout.row_owner(i), owner);
            assert_eq!(layout.local_row(i), li);
        }
        for j in 0..n {
            let (owner, lj) = global_to_local(j, b, pc);
            assert_eq!(layout.col_owner(j), owner);
            assert_eq!(layout.local_col(j), lj);
        }
        for prow in 0..pr {
            assert_eq!(layout.local_rows(prow), numroc(m, b, prow, pr));
            for hi in 0..=m {
                assert_eq!(layout.local_rows_below(prow, hi), numroc(hi, b, prow, pr), "hi={hi}");
            }
            for li in 0..layout.local_rows(prow) {
                assert_eq!(layout.global_row(prow, li), local_to_global(li, b, prow, pr));
            }
        }
        // Tile owners follow the grid's column-major rank order.
        let grid = Grid::new(pr, pc);
        for ti in 0..layout.tile_rows() {
            for tj in 0..layout.tile_cols() {
                assert_eq!(layout.owner(ti, tj), grid.rank_of(ti % pr, tj % pc));
            }
        }
    }

    #[test]
    fn skeletons_are_deterministic_and_move_words() {
        let cfg = SkelCfg {
            m: 2_000,
            n: 2_000,
            b: 50,
            pr: 2,
            pc: 2,
            local: LocalLu::Recursive,
            swap: RowSwapScheme::ReduceBcast,
        };
        let a = skeleton_calu(cfg, MachineConfig::power5());
        let b = skeleton_calu(cfg, MachineConfig::power5());
        assert_eq!(a.makespan(), b.makespan());
        assert!(a.total_words() > 0, "cost skeleton must move simulated words");
        assert!(a.total_msgs() > 0);
        assert!(a.total_flops() > 0.0);
        let p = skeleton_pdgetrf(
            SkelCfg { local: LocalLu::Classic, swap: RowSwapScheme::PdLaswp, ..cfg },
            MachineConfig::power5(),
        );
        assert!(p.total_words() > 0);
    }

    #[test]
    fn pdgetf2_skeleton_sends_order_b_more_messages_than_tslu() {
        let mch = MachineConfig::power5();
        let (m, b, p) = (10_000, 50, 8);
        let t = skeleton_tslu(m, b, p, LocalLu::Recursive, mch.clone());
        let g = skeleton_pdgetf2(m, b, p, mch);
        assert!(
            g.total_msgs() > 10 * t.total_msgs(),
            "PDGETF2 {} vs TSLU {} messages",
            g.total_msgs(),
            t.total_msgs()
        );
        assert!(g.makespan() > t.makespan(), "TSLU must win this latency-bound cell");
    }

    #[test]
    fn lookahead_never_slower_and_sometimes_faster() {
        let mch = MachineConfig::power5();
        let cfg = SkelCfg {
            m: 2_000,
            n: 2_000,
            b: 50,
            pr: 4,
            pc: 4,
            local: LocalLu::Recursive,
            swap: RowSwapScheme::ReduceBcast,
        };
        let plain = skeleton_calu(cfg, mch.clone()).makespan();
        let la = skeleton_calu_lookahead(cfg, mch).makespan();
        assert!(la <= plain * (1.0 + 1e-9), "lookahead {la} vs plain {plain}");
        // On a latency-heavy cell the overlap must buy a real gain.
        assert!(plain / la > 1.03, "expected >3% gain, got {}", plain / la);
    }

    #[test]
    fn tslu_tree_shapes_rank_as_expected() {
        // Flat pays a serial p*b x b election; butterfly and reduce+bcast
        // stay logarithmic. On many ranks flat must lose.
        let mch = MachineConfig::power5();
        let (m, b, p) = (100_000, 100, 32);
        let bf = skeleton_tslu_tree(m, b, p, LocalLu::Recursive, TsluTree::Butterfly, mch.clone());
        let rb =
            skeleton_tslu_tree(m, b, p, LocalLu::Recursive, TsluTree::ReduceBcast, mch.clone());
        let fl = skeleton_tslu_tree(m, b, p, LocalLu::Recursive, TsluTree::Flat, mch);
        assert!(
            fl.makespan() > bf.makespan(),
            "flat {} vs butterfly {}",
            fl.makespan(),
            bf.makespan()
        );
        // Reduce+bcast pays ~2x the tree latency of the butterfly but the
        // same combine work; it should land within a modest factor.
        assert!(rb.makespan() < 2.5 * bf.makespan());
    }
}
