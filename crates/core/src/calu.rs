//! CALU — the full blocked right-looking factorization with tournament
//! pivoting (paper Sections 2 and 4), sequential reference implementation.
//!
//! Identical sweep structure to `getrf` (and to ScaLAPACK's `PDGETRF`):
//! factor a panel, swap rows across the whole matrix, `trsm` the `U` block
//! row, `gemm` the trailing matrix. The only difference — and the paper's
//! whole point — is that the panel is factored by TSLU, so the panel's
//! latency cost drops by a factor `b` in the distributed setting. The
//! sequential implementation here defines the *numerics* (which the
//! distributed one must and does match bit for bit) and powers the
//! stability study.

use crate::tslu::{tslu_factor_plan, LocalLu};
use calu_matrix::blas3::{gemm, trsm};
use calu_matrix::perm::apply_ipiv;
use calu_matrix::{Diag, MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar, Side, Uplo};
use calu_runtime::{PanelMode, PanelPlan, DEFAULT_TOURNAMENT_LEAVES};

/// CALU tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct CaluOpts {
    /// Panel width `b` (the paper sweeps 50/100/150).
    pub block: usize,
    /// Tournament height: the number of block-rows each panel is split
    /// into (`Pr` in the distributed algorithm). `p == 1` degenerates to
    /// GEPP.
    pub p: usize,
    /// Local LU used inside TSLU's preprocessing.
    pub local: LocalLu,
    /// Which rows each panel's tournament leaves cover:
    /// [`PanelMode::Gathered`] cuts `p` block rows, [`PanelMode::Resident`]
    /// one leaf per `block`-high tile row (and ignores `p`). Every engine —
    /// the sequential sweep here and the task-graph runtime — honours it
    /// and gives bitwise identical factors for the same mode.
    pub panel_mode: PanelMode,
}

impl Default for CaluOpts {
    fn default() -> Self {
        Self {
            block: 64,
            p: DEFAULT_TOURNAMENT_LEAVES,
            local: LocalLu::Recursive,
            panel_mode: PanelMode::Gathered,
        }
    }
}

/// Packed LU factors with their pivot sequence, as produced by
/// [`calu_factor`] or the baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactors<T = f64> {
    /// Packed `L\U` (unit lower implicit).
    pub lu: Matrix<T>,
    /// LAPACK-style global swap sequence.
    pub ipiv: Vec<usize>,
}

/// Factors a copy of `a` with CALU and returns the packed factors.
///
/// ```
/// use calu_core::{calu_factor, CaluOpts};
/// use calu_matrix::gen;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let a = gen::randn(&mut rng, 128, 128);
/// let f = calu_factor(&a, CaluOpts { block: 32, p: 4, ..Default::default() }).unwrap();
///
/// // Solve A x = b and check the residual.
/// let x_true = vec![1.0_f64; 128];
/// let b = gen::rhs_for_solution(&a, &x_true);
/// let x = f.solve(&b);
/// assert!(x.iter().zip(&x_true).all(|(a, b)| (a - b).abs() < 1e-8));
/// ```
///
/// # Errors
/// Singular pivot (exact zero) — see [`calu_inplace`].
pub fn calu_factor<T: Scalar>(a: &Matrix<T>, opts: CaluOpts) -> Result<LuFactors<T>> {
    let mut lu = a.clone();
    let ipiv = calu_inplace(lu.view_mut(), opts, &mut NoObs)?;
    Ok(LuFactors { lu, ipiv })
}

/// In-place CALU over a view; returns the swap sequence. The observer sees
/// every panel's unpivoted factorization (thresholds `τ`) and every trailing
/// update (growth tracking).
///
/// # Errors
/// [`calu_matrix::Error::SingularPivot`] with the absolute elimination step.
pub fn calu_inplace<T: Scalar, O: PivotObserver<T>>(
    mut a: MatViewMut<'_, T>,
    opts: CaluOpts,
    obs: &mut O,
) -> Result<Vec<usize>> {
    let (m, n) = (a.rows(), a.cols());
    let kn = m.min(n);
    assert!(opts.block > 0 && opts.p > 0, "block and p must be positive");
    let nb = opts.block;
    let mut ipiv = vec![0usize; kn];

    let mut k = 0;
    while k < kn {
        let jb = nb.min(kn - k);

        // TSLU panel factorization (tournament + unpivoted LU).
        {
            let panel = a.submatrix_mut(k, k, m - k, jb);
            let plan = PanelPlan::new(m - k, jb, nb, opts.p, opts.panel_mode);
            let r = tslu_factor_plan(panel, &plan, opts.local, obs).map_err(|e| match e {
                calu_matrix::Error::SingularPivot { step } => {
                    calu_matrix::Error::SingularPivot { step: step + k }
                }
                other => other,
            })?;
            ipiv[k..k + jb].copy_from_slice(&r.ipiv);
        }

        // Apply the panel's swaps to the columns left and right of it.
        let local: Vec<usize> = ipiv[k..k + jb].to_vec();
        if k > 0 {
            let left = a.submatrix_mut(k, 0, m - k, k);
            apply_ipiv(left, &local);
        }
        if k + jb < n {
            let right = a.submatrix_mut(k, k + jb, m - k, n - k - jb);
            apply_ipiv(right, &local);
        }
        for p in ipiv[k..k + jb].iter_mut() {
            *p += k;
        }

        // U block row and trailing update (identical to classic LU —
        // "the update of the trailing matrix is the same as in the classic
        // LU factorization", paper Section 1).
        if k + jb < n {
            let (left, right) = a.rb_mut().split_at_col_mut(k + jb);
            let right = right.into_submatrix(k, 0, m - k, n - k - jb);
            let (mut u12, mut a22) = right.split_at_row_mut(jb);
            let l11 = left.submatrix(k, k, jb, jb);
            trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11, u12.rb_mut());
            if k + jb < m {
                let l21 = left.submatrix(k + jb, k, m - k - jb, jb);
                gemm(-T::ONE, l21, u12.as_view(), T::ONE, a22.rb_mut());
                obs.on_stage(&a22.as_view());
            }
        }
        k += jb;
    }
    Ok(ipiv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::PivotStats;
    use calu_matrix::gen;
    use calu_matrix::lapack::{getrf, GetrfOpts};
    use calu_matrix::perm::{ipiv_to_perm, permute_rows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_plu(orig: &Matrix, lu: &Matrix, ipiv: &[usize], tol: f64) {
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
    fn calu_reconstructs_random_matrices() {
        let mut rng = StdRng::seed_from_u64(91);
        for &(m, n, b, p) in &[
            (64, 64, 8, 4),
            (100, 100, 16, 4),
            (96, 96, 32, 8),
            (80, 50, 10, 4),
            (120, 120, 50, 2),
            (65, 65, 8, 4), // non-divisible shapes
        ] {
            let a0 = gen::randn(&mut rng, m, n);
            let f = calu_factor(&a0, CaluOpts { block: b, p, ..Default::default() }).unwrap();
            check_plu(&a0, &f.lu, &f.ipiv, 1e-8 * m as f64);
        }
    }

    #[test]
    fn calu_p1_matches_gepp_exactly() {
        // With a one-way tournament every panel's pivots are partial
        // pivoting's, so CALU == GETRF bit for bit.
        let mut rng = StdRng::seed_from_u64(92);
        let a0: Matrix = gen::randn(&mut rng, 72, 72);
        let f = calu_factor(
            &a0,
            CaluOpts { block: 12, p: 1, local: LocalLu::Classic, ..Default::default() },
        )
        .unwrap();
        let mut g = a0.clone();
        let mut ipiv = vec![0usize; 72];
        getrf(g.view_mut(), &mut ipiv, GetrfOpts { block: 12, ..Default::default() }, &mut NoObs)
            .unwrap();
        assert_eq!(f.ipiv, ipiv);
        assert!(f.lu.max_abs_diff(&g) < 1e-12);
    }

    #[test]
    fn calu_thresholds_respect_paper_bound() {
        // The headline stability claim: tau_min >= ~0.33 ("|L| bounded by
        // 3") on normal matrices. On these sizes tau_min is comfortably
        // above; we assert the weaker |L| <= 10 + tau recorded for every
        // elimination step.
        let mut rng = StdRng::seed_from_u64(93);
        let a0 = gen::randn(&mut rng, 128, 128);
        let mut a = a0.clone();
        let mut stats = PivotStats::new(a0.max_abs());
        let opts = CaluOpts { block: 16, p: 8, ..Default::default() };
        let _ipiv = calu_inplace(a.view_mut(), opts, &mut stats).unwrap();
        assert_eq!(stats.steps(), 128, "one threshold per elimination step");
        assert!(stats.tau_min() > 0.2, "tau_min = {}", stats.tau_min());
        assert!(stats.tau_ave() > 0.7, "tau_ave = {}", stats.tau_ave());
        assert!(stats.max_l < 5.0, "max |L| = {}", stats.max_l);
    }

    #[test]
    fn calu_growth_comparable_to_gepp() {
        let mut rng = StdRng::seed_from_u64(94);
        let a0 = gen::randn(&mut rng, 96, 96);

        let mut s_calu = PivotStats::new(a0.max_abs());
        let mut a1 = a0.clone();
        calu_inplace(
            a1.view_mut(),
            CaluOpts { block: 16, p: 4, ..Default::default() },
            &mut s_calu,
        )
        .unwrap();

        let mut s_gepp = PivotStats::new(a0.max_abs());
        let mut a2 = a0.clone();
        let mut ipiv = vec![0usize; 96];
        getrf(a2.view_mut(), &mut ipiv, GetrfOpts { block: 16, ..Default::default() }, &mut s_gepp)
            .unwrap();

        let g_calu = s_calu.growth_factor(1.0);
        let g_gepp = s_gepp.growth_factor(1.0);
        assert!(g_calu < 8.0 * g_gepp, "CALU growth {g_calu} wildly exceeds GEPP growth {g_gepp}");
    }

    #[test]
    fn calu_ipiv_always_yields_a_valid_permutation() {
        // The tournament's swap sequences, composed across panels, must
        // always extend to a permutation of the rows — for square, tall,
        // and wide shapes and every tournament height.
        use calu_matrix::perm::is_permutation;
        let mut rng = StdRng::seed_from_u64(97);
        for &(m, n, b, p) in
            &[(48usize, 48usize, 8usize, 4usize), (64, 32, 8, 8), (40, 56, 16, 2), (33, 33, 5, 3)]
        {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            let f = calu_factor(&a0, CaluOpts { block: b, p, ..Default::default() }).unwrap();
            assert_eq!(f.ipiv.len(), m.min(n));
            for (i, &pv) in f.ipiv.iter().enumerate() {
                assert!(pv >= i && pv < m, "swap {i} <-> {pv} out of range (m={m})");
            }
            let perm = ipiv_to_perm(&f.ipiv, m);
            assert!(is_permutation(&perm), "m={m} n={n} b={b} p={p}");
        }
    }

    #[test]
    fn block_larger_than_matrix_is_one_tslu() {
        let mut rng = StdRng::seed_from_u64(96);
        let a0 = gen::randn(&mut rng, 40, 40);
        let f = calu_factor(&a0, CaluOpts { block: 64, p: 4, ..Default::default() }).unwrap();
        check_plu(&a0, &f.lu, &f.ipiv, 1e-9);
    }
}
