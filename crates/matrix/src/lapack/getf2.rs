//! Classic unblocked LU with partial pivoting (`DGETF2`), column by column
//! as LAPACK writes it, and in one pass over the rows per step on a SIMD
//! arm (the same bits; [`getf2_info_on`]).

use crate::blas1::{iamax_on, scal};
use crate::blas2::ger;
use crate::blas3::{Arm, PanelKernel};
use crate::error::{Error, Result};
use crate::observer::PivotObserver;
use crate::scalar::Scalar;
use crate::view::MatViewMut;

/// Factors `A = P * L * U` in place with partial pivoting, one column at a
/// time (rank-1 updates; BLAS-2 bound — this is the paper's `DGETF2`).
///
/// On success `a` holds the packed factors (`L` strictly below the diagonal
/// with implicit unit diagonal, `U` on and above) and `ipiv[j]` records the
/// row swapped with row `j` (LAPACK transposition convention, indices local
/// to the view).
///
/// # Errors
/// [`Error::SingularPivot`] if a column's maximum is zero or non-finite.
/// Like LAPACK, the factorization still runs to completion before the
/// error is reported, so `a` holds valid factors for the leading
/// non-singular part.
///
/// # Panics
/// If `ipiv.len() != min(m, n)`.
pub fn getf2<T: Scalar, O: PivotObserver<T>>(
    a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Result<()> {
    match getf2_info(a, ipiv, obs) {
        None => Ok(()),
        Some(step) => Err(Error::SingularPivot { step }),
    }
}

/// LAPACK-faithful `DGETF2`: identical to [`getf2`] but never fails.
///
/// When a column's remaining maximum is exactly zero the step records the
/// pivot position, skips the (vacuous) elimination and continues — exactly
/// `DGETF2`'s `INFO > 0` path. Returns the first such step, if any. Exact
/// singularity of a *candidate block* is harmless in tournament pivoting
/// (the winners still span the block's row space), which is why the
/// tournament uses this variant and only the final no-pivot panel
/// factorization enforces non-singularity.
pub fn getf2_info<T: Scalar, O: PivotObserver<T>>(
    a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Option<usize> {
    getf2_info_on(Arm::detect(), a, ipiv, obs)
}

/// [`getf2_info`] on a stated arm: one pass over the rows per step on a
/// SIMD arm (for an observer that does not watch values), column by column
/// on the portable arm. Same factors, pivots and `info` on every arm; tests
/// hold every arm to that on one host.
///
/// # Panics
/// As [`getf2_info`].
pub fn getf2_info_on<T: Scalar, O: PivotObserver<T>>(
    arm: Arm,
    a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Option<usize> {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(ipiv.len(), m.min(n), "getf2: ipiv length must be min(m,n)");
    match T::panel_kernel(arm) {
        Some(kernel) if !O::WATCHES_VALUES => by_passes(kernel, a, ipiv, obs),
        _ => column_by_column(arm, a, ipiv, obs),
    }
}

/// `DGETF2` as LAPACK writes it: per column, the pivot search, the swap,
/// the scaling of the multipliers and one rank-1 update, each its own
/// sweep, reporting every event to `obs`.
fn column_by_column<T: Scalar, O: PivotObserver<T>>(
    arm: Arm,
    mut a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Option<usize> {
    let (m, n) = (a.rows(), a.cols());
    let mut info = None;
    // Scratch for the U row gathered once per step (rows are strided).
    let mut urow = vec![T::ZERO; n.saturating_sub(1)];

    #[allow(clippy::needless_range_loop)] // LAPACK-style column sweep
    for j in 0..ipiv.len() {
        let p = j + iamax_on(arm, &a.col(j)[j..]);
        let col_max = a.get(p, j).abs();
        // Partial pivoting uses the column max itself as pivot.
        obs.on_pivot(j, col_max, col_max);
        ipiv[j] = p;
        if col_max == T::ZERO || !col_max.is_finite() {
            info = info.or(Some(j));
        }
        // When col_max == 0 the whole remaining column is zero: the
        // elimination is skipped (DGETF2 does the same) and the rank-1
        // update would be a no-op, so it is skipped too.
        let eliminate = col_max != T::ZERO;
        if eliminate {
            if p != j {
                a.swap_rows(j, p);
            }
            let inv = a.get(j, j).recip();
            scal(inv, &mut a.col_mut(j)[j + 1..]);
            obs.on_multipliers(&a.col(j)[j + 1..]);
        }

        if j + 1 < m && j + 1 < n {
            // Trailing rank-1 update A[j+1.., j+1..] -= l * u_row.
            let width = n - j - 1;
            for (t, jj) in urow.iter_mut().zip(j + 1..n) {
                *t = a.get(j, jj);
            }
            let (left, mut right) = a.rb_mut().split_at_col_mut(j + 1);
            let l_col = &left.col(j)[j + 1..];
            let trailing = right.submatrix_mut(j + 1, 0, m - j - 1, width);
            if eliminate {
                ger(-T::ONE, l_col, &urow[..width], trailing);
            }
            obs.on_stage(&right.submatrix(j + 1, 0, m - j - 1, width));
        }
    }
    info
}

/// The same steps on a SIMD arm, reporting only `on_pivot`: after the swap,
/// one pass over the rows below the pivot per block of trailing columns
/// scales the multipliers, applies the rank-1 update (`ger`'s operations,
/// its zero skips) and finds the next column's pivot among the new values
/// ([`PanelKernel::step`](crate::blas3::PanelKernel)).
fn by_passes<T: Scalar, O: PivotObserver<T>>(
    kernel: PanelKernel<T>,
    mut a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Option<usize> {
    let (m, n) = (a.rows(), a.cols());
    let mut info = None;
    // `ger`'s coefficients `−1 · u_c` of the step's trailing columns.
    let mut s = vec![T::ZERO; n.saturating_sub(1)];
    // Column `j`'s pivot among rows `j..`, when step `j − 1`'s pass found it.
    let mut next = None;
    #[allow(clippy::needless_range_loop)] // LAPACK-style column sweep
    for j in 0..ipiv.len() {
        let p = j + next.take().unwrap_or_else(|| kernel.iamax(&a.col(j)[j..]));
        let col_max = a.get(p, j).abs();
        obs.on_pivot(j, col_max, col_max);
        ipiv[j] = p;
        if col_max == T::ZERO || !col_max.is_finite() {
            info = info.or(Some(j));
        }
        if col_max == T::ZERO || j + 1 == m {
            continue;
        }
        if p != j {
            a.swap_rows(j, p);
        }
        let inv = a.get(j, j).recip();
        let width = n - j - 1;
        for (t, c) in s.iter_mut().zip(j + 1..n) {
            *t = -T::ONE * a.get(j, c);
        }
        let (mut left, right) = a.rb_mut().split_at_col_mut(j + 1);
        let trailing = right.into_submatrix(j + 1, 0, m - j - 1, width);
        next = kernel.step(&mut left.col_mut(j)[j + 1..], inv, trailing, &s[..width]);
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::gen;
    use crate::perm::{apply_ipiv, ipiv_to_perm, permute_rows};
    use crate::{Matrix, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reconstruction check: P*A == L*U within tolerance.
    pub(crate) fn check_plu(orig: &Matrix, lu: &Matrix, ipiv: &[usize], tol: f64) {
        let perm = ipiv_to_perm(ipiv, orig.rows());
        // Extend perm to all rows (ipiv covers only min(m,n) swaps).
        let pa = permute_rows(orig, &perm);
        let l = lu.unit_lower();
        let u = lu.upper();
        let mut prod = Matrix::zeros(orig.rows(), orig.cols());
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        let d = pa.max_abs_diff(&prod);
        assert!(d < tol, "||P A - L U||_max = {d} > {tol}");
    }

    #[test]
    fn factors_known_2x2() {
        // A = [1 3; 2 4] -> pivot row 1: P A = [2 4; 1 3], l21 = 0.5, u22 = 1.
        let mut a = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]);
        let orig = a.clone();
        let mut ipiv = vec![0; 2];
        getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        assert_eq!(ipiv, vec![1, 1]);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], 4.0);
        assert_eq!(a[(1, 0)], 0.5);
        assert_eq!(a[(1, 1)], 1.0);
        check_plu(&orig, &a, &ipiv, 1e-14);
    }

    #[test]
    fn reconstructs_random_square_and_tall() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, n) in &[(1, 1), (5, 5), (8, 3), (40, 40), (64, 17), (33, 32)] {
            let a0 = gen::randn(&mut rng, m, n);
            let mut a = a0.clone();
            let mut ipiv = vec![0; m.min(n)];
            getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
            check_plu(&a0, &a, &ipiv, 1e-10 * (m.max(n) as f64));
        }
    }

    #[test]
    fn multipliers_bounded_by_one() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut a: Matrix = gen::randn(&mut rng, 50, 20);
        let mut ipiv = vec![0; 20];
        getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        let l = a.unit_lower();
        for j in 0..l.cols() {
            for i in j + 1..l.rows() {
                assert!(l[(i, j)].abs() <= 1.0 + 1e-15, "|L| must be <= 1 under partial pivoting");
            }
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0; // second column is identically zero after step 0
        let mut ipiv = vec![0; 3];
        let err = getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap_err();
        assert!(matches!(err, crate::Error::SingularPivot { .. }));
    }

    #[test]
    fn swaps_applied_in_lapack_order() {
        // Applying ipiv to the original matrix must match the permuted
        // matrix the factorization worked on.
        let mut rng = StdRng::seed_from_u64(13);
        let a0 = gen::randn(&mut rng, 12, 4);
        let mut a = a0.clone();
        let mut ipiv = vec![0; 4];
        getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        let mut pa = a0.clone();
        apply_ipiv(pa.view_mut(), &ipiv);
        // First column of PA equals first column of L*U (l * u11).
        let l = a.unit_lower();
        let u = a.upper();
        let mut lu = Matrix::zeros(12, 4);
        gemm(1.0, l.view(), u.view(), 0.0, lu.view_mut());
        assert!(pa.max_abs_diff(&lu) < 1e-12);
    }
}
