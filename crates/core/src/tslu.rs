//! TSLU — Tall Skinny LU with tournament pivoting (paper Section 3).
//!
//! A panel is factored by four kernels, laid out by a [`PanelPlan`]:
//!
//! 1. **elect** (`elect_candidates`): each leaf of the plan — one of `p`
//!    block rows — runs GEPP on a copy of its rows (classic or recursive
//!    local LU, the `Cl`/`Rec` columns of Tables 3-4) and keeps its `b`
//!    pivot rows as they appear in `A`;
//! 2. **reduce** ([`reduce_pair`](crate::tournament::reduce_pair)):
//!    candidate sets are folded pairwise along
//!    [`tournament_tree`](calu_runtime::tournament_tree) until `b` global
//!    winners remain;
//! 3. **finish** (`finish_top`): the winners are swapped to the top
//!    (a LAPACK-style swap sequence) and the top `b × b` block is factored
//!    **without pivoting**;
//! 4. **apply** ([`lu_rows`]): the remaining rows become
//!    `L₂₁ = A₂₁ U₁₁⁻¹`, chunk by chunk, with a BLAS-3 kernel whose output
//!    rows are bitwise independent of one another.
//!
//! [`tslu_factor`] calls them in order on one thread; the task-graph
//! runtime (`crate::rt`) calls the same four as `PanelElect` /
//! `PanelReduce` / `PanelFinish` / `PanelApply` task bodies over the same
//! plan. Leaves are combined in the tree's fixed order and `L₂₁` rows are
//! bitwise independent of one another, so both give identical factors.
//!
//! With `p == 1` or `b == 1` this is exactly partial pivoting (paper
//! Section 2), which the tests assert.

use crate::tournament::{tournament, Candidates};
use calu_matrix::lapack::{getf2, getf2_info, lu_nopiv, lu_rows, rgetf2_info};
use calu_matrix::perm::apply_ipiv;
use calu_matrix::{MatView, MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar};
use calu_runtime::{PanelMode, PanelPlan};

pub use calu_runtime::partition_rows;

/// Local LU algorithm used to elect each block-row's candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalLu {
    /// Classic unblocked `getf2` (paper's `DGETF2`, "Cl").
    Classic,
    /// Recursive `rgetf2` (paper's `RGETF2`, "Rec") — the default, as the
    /// paper recommends for all but the smallest panels.
    #[default]
    Recursive,
}

/// Outcome of a TSLU panel factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct TsluResult {
    /// LAPACK-style swap sequence (`row i <-> ipiv[i]`, local to the panel)
    /// that brings the winners to the top; callers apply it to the rest of
    /// the matrix.
    pub(crate) ipiv: Vec<usize>,
    /// Global winner row indices (local to the panel), in pivot order.
    pub pivot_rows: Vec<usize>,
}

/// The election kernel: GEPP on `work` — the one copy of a leaf's rows —
/// in place, then the `min(rows, b)` pivot rows gathered from the
/// unfactored source by index (paper: "the first b rows of `Π^T_i0 A_i`").
/// `original(i, j)` reads row `i` of the leaf as it appears in `A`, `id(i)`
/// names that row to the rest of the tournament.
///
/// [`LocalLu::Recursive`] falls back to `getf2` on a leaf with fewer rows
/// than columns; both kernels choose identical pivots (asserted in tests).
///
/// A rank-deficient leaf is fine: the elected rows still span its row space
/// (GEPP's pivot order puts the independent rows first), so the tournament
/// never fails — only the finish can detect a genuinely singular panel.
pub(crate) fn elect_candidates<T: Scalar>(
    mut work: Matrix<T>,
    local: LocalLu,
    original: impl Fn(usize, usize) -> T,
    id: impl Fn(usize) -> usize,
) -> Candidates<T> {
    let (rows, b) = (work.rows(), work.cols());
    let mut ipiv = vec![0usize; rows.min(b)];
    let _info = match local {
        LocalLu::Recursive if rows >= b => rgetf2_info(work.view_mut(), &mut ipiv, &mut NoObs),
        _ => getf2_info(work.view_mut(), &mut ipiv, &mut NoObs),
    };
    drop(work);
    let mut winners: Vec<usize> = (0..rows).collect();
    for (i, &p) in ipiv.iter().enumerate() {
        winners.swap(i, p);
    }
    winners.truncate(ipiv.len());
    let block = Matrix::from_fn(winners.len(), b, |i, j| original(winners[i], j));
    Candidates::new(block, winners.into_iter().map(id).collect())
}

/// [`elect_candidates`] on a block already copied out of the matrix, with
/// explicit row ids — the shape the distributed panels hold their rows in.
pub(crate) fn local_candidates<T: Scalar>(
    block: &Matrix<T>,
    global_rows: &[usize],
    local: LocalLu,
) -> Candidates<T> {
    assert_eq!(block.rows(), global_rows.len());
    elect_candidates(block.clone(), local, |i, j| block[(i, j)], |i| global_rows[i])
}

/// A panel's pivots and the column maxima they are measured against — the
/// paper's threshold `τ_j = |u_jj| / max_i |a_ij^(j)|` taken over the *full*
/// column, assembled from the pieces the panel is factored in: the finish
/// records the pivots and the top block's maxima, every apply raises the
/// maxima by its rows' share, and [`PanelTau::emit`] reports the `on_pivot`
/// events once the whole panel is done. `max` is exact and order-free, so
/// any chunking reports the same thresholds.
#[derive(Debug, Clone)]
pub(crate) struct PanelTau<T> {
    /// `|u_jj|` of the pivots factored so far.
    pivot: Vec<T>,
    /// Running column maxima, one per panel column.
    pub(crate) col_max: Vec<T>,
}

impl<T: Scalar> PanelTau<T> {
    pub(crate) fn new(jb: usize) -> Self {
        Self { pivot: Vec::with_capacity(jb), col_max: vec![T::ZERO; jb] }
    }

    /// Raises the column maxima by one apply's share.
    pub(crate) fn merge(&mut self, col_max: &[T]) {
        for (m, &c) in self.col_max.iter_mut().zip(col_max) {
            *m = m.max(c);
        }
    }

    /// Reports the panel's `on_pivot` events, in column order.
    pub(crate) fn emit<O: PivotObserver<T>>(&self, obs: &mut O) {
        for (j, (&pivot, &col_max)) in self.pivot.iter().zip(&self.col_max).enumerate() {
            obs.on_pivot(j, pivot, col_max);
        }
    }
}

/// Observer of the finish's top-block factorization: keeps the `on_pivot`
/// events for [`PanelTau`] (their column maxima cover the top block only)
/// and forwards everything else.
struct TopBlockObs<'a, T, O> {
    tau: &'a mut PanelTau<T>,
    inner: &'a mut O,
}

impl<T: Scalar, O: PivotObserver<T>> PivotObserver<T> for TopBlockObs<'_, T, O> {
    const WATCHES_VALUES: bool = O::WATCHES_VALUES;

    fn on_pivot(&mut self, step: usize, pivot: T, col_max: T) {
        debug_assert_eq!(step, self.tau.pivot.len());
        self.tau.pivot.push(pivot);
        self.tau.col_max[step] = col_max;
    }

    fn on_stage(&mut self, changed: &MatView<'_, T>) {
        self.inner.on_stage(changed);
    }

    fn on_multipliers(&mut self, col_below_diag: &[T]) {
        self.inner.on_multipliers(col_below_diag);
    }
}

/// The finish kernel, after the winners have been swapped up: unpivoted LU
/// of the panel's top block (`jb × jb`; wider only for a panel with more
/// columns than rows), recording the pivots in `tau`.
///
/// # Errors
/// A zero or non-finite pivot — the panel columns are genuinely linearly
/// dependent; the step is local to the panel.
pub(crate) fn finish_top<T: Scalar, O: PivotObserver<T>>(
    top: MatViewMut<'_, T>,
    tau: &mut PanelTau<T>,
    obs: &mut O,
) -> Result<()> {
    lu_nopiv(top, &mut TopBlockObs { tau, inner: obs })
}

/// Elects the winners of `panel` over the leaves of `plan`, sequentially.
fn elect_plan<T: Scalar>(panel: MatView<'_, T>, plan: &PanelPlan, local: LocalLu) -> Vec<usize> {
    let b = panel.cols();
    let leaves = plan.leaves().iter().map(|rows| {
        let work = panel.submatrix(rows.start, 0, rows.len(), b).to_matrix();
        elect_candidates(work, local, |i, j| panel.get(rows.start + i, j), |i| rows.start + i)
    });
    tournament(leaves.collect()).rows
}

/// The plan of a stand-alone `rows × cols` panel: `p` block rows, tile
/// height equal to the panel width.
fn standalone_plan(rows: usize, cols: usize, p: usize) -> PanelPlan {
    assert!(rows >= 1 && cols >= 1, "empty panel");
    PanelPlan::new(rows, cols.min(rows), cols, p, PanelMode::Gathered)
}

/// Phase 1 only: elects the `min(m, b)` winning pivot rows of the panel
/// using a `p`-way tournament. Row indices are local to the panel view.
///
/// Never fails: a rank-deficient leaf still elects rows spanning its row
/// space, and only the finish can detect a genuinely singular panel.
pub fn tslu_pivots<T: Scalar>(panel: MatView<'_, T>, p: usize, local: LocalLu) -> Vec<usize> {
    elect_plan(panel, &standalone_plan(panel.rows(), panel.cols(), p), local)
}

/// Converts a winner list into a LAPACK swap sequence over `m` rows: after
/// applying it, row `i` holds original row `winners[i]`.
///
/// # Panics
/// If winners repeat or exceed `m`.
pub fn winners_to_ipiv(winners: &[usize], m: usize) -> Vec<usize> {
    // pos_of[orig] = current position of original row `orig`.
    let mut pos_of: Vec<usize> = (0..m).collect();
    let mut row_at: Vec<usize> = (0..m).collect();
    let mut ipiv = Vec::with_capacity(winners.len());
    for (i, &w) in winners.iter().enumerate() {
        assert!(w < m, "winner {w} out of {m} rows");
        let p = pos_of[w];
        assert!(p >= i, "winner {w} repeated");
        ipiv.push(p);
        let displaced = row_at[i];
        row_at.swap(i, p);
        pos_of[w] = i;
        pos_of[displaced] = p;
    }
    ipiv
}

/// Full TSLU: elect winners, permute them on top, factor the panel with no
/// pivoting (`L` strictly below the diagonal, `U` in the top `b x b`).
///
/// The observer sees the unpivoted factorization — its `on_pivot` ratios
/// are the paper's threshold `τ` over the full column (reported once the
/// panel is done), its `on_stage`/`on_multipliers` feed the growth-factor
/// and `|L|` statistics.
///
/// # Errors
/// A zero pivot in the no-pivot factorization after permutation (the panel
/// columns are genuinely linearly dependent).
pub fn tslu_factor<T: Scalar, O: PivotObserver<T>>(
    panel: MatViewMut<'_, T>,
    p: usize,
    local: LocalLu,
    obs: &mut O,
) -> Result<TsluResult> {
    let plan = standalone_plan(panel.rows(), panel.cols(), p);
    tslu_factor_plan(panel, &plan, local, obs)
}

/// [`tslu_factor`] over an explicit [`PanelPlan`] — the four panel kernels
/// in order, on one thread.
///
/// # Errors
/// As [`tslu_factor`].
pub(crate) fn tslu_factor_plan<T: Scalar, O: PivotObserver<T>>(
    mut panel: MatViewMut<'_, T>,
    plan: &PanelPlan,
    local: LocalLu,
    obs: &mut O,
) -> Result<TsluResult> {
    debug_assert_eq!((plan.rows(), plan.jb()), (panel.rows(), panel.cols().min(panel.rows())));
    let winners = elect_plan(panel.as_view(), plan, local);
    let ipiv = winners_to_ipiv(&winners, panel.rows());
    apply_ipiv(panel.rb_mut(), &ipiv);

    let jb = plan.jb();
    let mut tau = PanelTau::new(jb);
    let (mut top, mut below) = panel.split_at_row_mut(jb);
    finish_top(top.rb_mut(), &mut tau, obs)?;
    let u11 = top.submatrix(0, 0, jb, jb);
    for chunk in plan.chunks() {
        let rows = below.submatrix_mut(chunk.start - jb, 0, chunk.len(), jb);
        lu_rows(u11, rows, &mut tau.col_max, obs)?;
    }
    tau.emit(obs);
    Ok(TsluResult { ipiv, pivot_rows: winners })
}

/// Reference GEPP panel factorization with identical output conventions
/// (used for the `p == 1`/`b == 1` equivalence tests and as the panel inside
/// the `PDGETRF` baseline model).
///
/// # Errors
/// Propagates singular panels.
pub fn gepp_panel<T: Scalar, O: PivotObserver<T>>(
    panel: MatViewMut<'_, T>,
    obs: &mut O,
) -> Result<TsluResult> {
    let m = panel.rows();
    let kn = m.min(panel.cols());
    let mut ipiv = vec![0usize; kn];
    getf2(panel, &mut ipiv, obs)?;
    Ok(TsluResult { pivot_rows: recover_winners(&ipiv, m), ipiv })
}

/// Recovers "winner" row order from a swap sequence (the original row that
/// occupies position `i` after all swaps).
fn recover_winners(ipiv: &[usize], m: usize) -> Vec<usize> {
    let mut row_at: Vec<usize> = (0..m).collect();
    for (i, &p) in ipiv.iter().enumerate() {
        row_at.swap(i, p);
    }
    row_at.truncate(ipiv.len());
    row_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::blas3::gemm;
    use calu_matrix::gen;
    use calu_matrix::perm::{ipiv_to_perm, permute_rows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_panel_plu(orig: &Matrix, lu: &Matrix, ipiv: &[usize], tol: f64) {
        let perm = ipiv_to_perm(ipiv, orig.rows());
        let pa = permute_rows(orig, &perm);
        let l = lu.unit_lower();
        let u = lu.upper();
        let mut prod = Matrix::zeros(orig.rows(), orig.cols());
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        let d = pa.max_abs_diff(&prod);
        assert!(d < tol, "||P A - L U||_max = {d} > {tol}");
    }

    #[test]
    fn winners_to_ipiv_places_winners_on_top() {
        let winners = vec![5, 2, 7];
        let ipiv = winners_to_ipiv(&winners, 8);
        let mut rows: Vec<usize> = (0..8).collect();
        for (i, &p) in ipiv.iter().enumerate() {
            rows.swap(i, p);
        }
        assert_eq!(&rows[..3], &[5, 2, 7]);
    }

    #[test]
    fn winners_to_ipiv_handles_winners_in_top_region() {
        // Winner already sitting inside the top b rows but at a different slot.
        let winners = vec![1, 0, 3];
        let ipiv = winners_to_ipiv(&winners, 4);
        let mut rows: Vec<usize> = (0..4).collect();
        for (i, &p) in ipiv.iter().enumerate() {
            rows.swap(i, p);
        }
        assert_eq!(&rows[..3], &[1, 0, 3]);
    }

    #[test]
    fn tslu_reconstructs_panel() {
        let mut rng = StdRng::seed_from_u64(71);
        for &(m, b, p) in &[(64, 8, 4), (100, 10, 8), (33, 5, 4), (48, 16, 3), (20, 20, 2)] {
            let a0 = gen::randn(&mut rng, m, b);
            let mut a = a0.clone();
            let r = tslu_factor(a.view_mut(), p, LocalLu::Recursive, &mut NoObs).unwrap();
            assert_eq!(r.ipiv.len(), b.min(m));
            check_panel_plu(&a0, &a, &r.ipiv, 1e-8 * m as f64);
        }
    }

    #[test]
    fn tslu_p1_equals_partial_pivoting() {
        // p = 1: the tournament is a single local GEPP — pivots must match
        // getf2 exactly (paper Section 2).
        let mut rng = StdRng::seed_from_u64(72);
        let a0: Matrix = gen::randn(&mut rng, 50, 6);
        let mut a_t = a0.clone();
        let r = tslu_factor(a_t.view_mut(), 1, LocalLu::Classic, &mut NoObs).unwrap();
        let mut a_g = a0.clone();
        let mut ip_g = vec![0usize; 6];
        getf2(a_g.view_mut(), &mut ip_g, &mut NoObs).unwrap();
        assert_eq!(r.ipiv, ip_g);
        assert!(a_t.max_abs_diff(&a_g) < 1e-12);
    }

    #[test]
    fn tslu_b1_equals_partial_pivoting_any_p() {
        let mut rng = StdRng::seed_from_u64(73);
        let a0: Matrix = gen::randn(&mut rng, 64, 1);
        for p in [2usize, 4, 7, 8] {
            let mut a = a0.clone();
            let r = tslu_factor(a.view_mut(), p, LocalLu::Classic, &mut NoObs).unwrap();
            let best = calu_matrix::blas1::iamax(a0.col(0));
            assert_eq!(r.ipiv[0], best, "p={p}");
        }
    }

    #[test]
    fn classic_and_recursive_elect_identical_pivots() {
        let mut rng = StdRng::seed_from_u64(74);
        for &(m, b, p) in &[(64, 8, 4), (90, 15, 4), (128, 32, 8)] {
            let a0: Matrix = gen::randn(&mut rng, m, b);
            let pc = tslu_pivots(a0.view(), p, LocalLu::Classic);
            let pr = tslu_pivots(a0.view(), p, LocalLu::Recursive);
            assert_eq!(pc, pr, "m={m} b={b} p={p}");
        }
    }

    #[test]
    fn paper_figure1_example_pivot_rows() {
        // The 16 x 2 matrix of Figure 1 distributed over 4 processors of 4
        // contiguous rows each. The paper notes the TSLU winners coincide
        // with GEPP's pivots for this example; the final factorization's
        // leading pivot is the largest |entry| of column 0 (value 4).
        let a = Matrix::from_rows(&[
            &[2.0, 4.0],
            &[0.0, 1.0],
            &[2.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 4.0],
            &[2.0, 1.0],
            &[0.0, 2.0],
            &[2.0, 0.0],
            &[1.0, 2.0],
            &[4.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 2.0],
            &[1.0, 0.0],
            &[4.0, 2.0],
        ]);
        let winners = tslu_pivots(a.view(), 4, LocalLu::Classic);
        assert_eq!(winners.len(), 2);
        // First winner must carry |a| = 4 in column 0 (rows 10 or 15).
        assert_eq!(a[(winners[0], 0)].abs(), 4.0);
        // GEPP on the full matrix picks the same first pivot value.
        let gepp_first = calu_matrix::blas1::iamax(a.col(0));
        assert_eq!(a[(gepp_first, 0)].abs(), 4.0);
        // And the TSLU factorization succeeds with |L| <= 3 (threshold).
        let mut panel = a.clone();
        let r = tslu_factor(panel.view_mut(), 4, LocalLu::Classic, &mut NoObs).unwrap();
        assert_eq!(r.pivot_rows, winners);
        let l = panel.unit_lower();
        for j in 0..l.cols() {
            for i in j + 1..l.rows() {
                assert!(l[(i, j)].abs() <= 3.0 + 1e-12);
            }
        }
    }

    #[test]
    fn gepp_panel_winner_recovery() {
        let mut rng = StdRng::seed_from_u64(75);
        let a0: Matrix = gen::randn(&mut rng, 30, 5);
        let mut a = a0.clone();
        let r = gepp_panel(a.view_mut(), &mut NoObs).unwrap();
        // Winners must be where the permuted rows came from.
        let perm = ipiv_to_perm(&r.ipiv, 30);
        assert_eq!(&perm[..5], r.pivot_rows.as_slice());
    }
}
