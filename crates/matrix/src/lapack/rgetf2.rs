//! Recursive LU with partial pivoting (`RGETF2`, Gustavson 1997 /
//! Toledo 1997 — reference [6, 9] in the paper).
//!
//! The recursion turns almost all of the panel work into `trsm`/`gemm`
//! (BLAS-3), which is why the paper's TSLU-with-recursive-local-LU wins big
//! on large matrices (Tables 3-4) while classic `getf2` stays memory bound.
//! What is left is the base case, `getf2` on at most four columns of the
//! full height (16384 × 4 on a `tall_panel` leaf): on a SIMD arm each of
//! its steps is one pass over the rows that scales the multipliers,
//! updates the trailing columns and finds the next pivot, so the base
//! streams its columns once per step instead of three times. Every level
//! runs on one arm ([`rgetf2_info_on`]); the factors are those of the
//! portable `getf2` loops under that arm's `gemm`.

use crate::blas3::{gemm_on, trsm_on, Arm};
use crate::error::Result;
use crate::observer::PivotObserver;
use crate::perm::apply_ipiv;
use crate::scalar::Scalar;
use crate::view::MatViewMut;
use crate::{Diag, Side, Uplo};

/// Width at which recursion bottoms out into classic `getf2`.
const BASE_WIDTH: usize = 4;

/// Factors a tall matrix (`m >= n`) as `A = P * L * U` in place using the
/// recursive algorithm; same output convention as
/// [`getf2`](crate::lapack::getf2).
///
/// # Errors
/// [`Error::SingularPivot`](crate::Error::SingularPivot) as for `getf2`.
/// The factorization runs to completion before the error is reported.
///
/// # Panics
/// If `m < n` (panels in LU are always tall) or `ipiv.len() != n`.
pub fn rgetf2<T: Scalar, O: PivotObserver<T>>(
    a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Result<()> {
    match rgetf2_info(a, ipiv, obs) {
        None => Ok(()),
        Some(step) => Err(crate::Error::SingularPivot { step }),
    }
}

/// LAPACK-faithful recursive LU: like [`rgetf2`] but never fails; returns
/// the first exactly-singular elimination step (`DGETF2`'s `INFO`), if any.
///
/// Exact zero pivots are benign throughout the recursion: `L11` is unit
/// lower triangular so the `trsm` never divides by a `U` diagonal, and the
/// base case is [`getf2_info`](crate::lapack::getf2_info).
///
/// # Panics
/// If `m < n` (panels in LU are always tall) or `ipiv.len() != n`.
pub fn rgetf2_info<T: Scalar, O: PivotObserver<T>>(
    a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Option<usize> {
    rgetf2_info_on(Arm::detect(), a, ipiv, obs)
}

/// [`rgetf2_info`] on a stated arm, for `gemm`, `trsm` and the `getf2` base
/// alike; tests hold every arm to one contract on one host.
///
/// # Panics
/// As [`rgetf2_info`].
pub fn rgetf2_info_on<T: Scalar, O: PivotObserver<T>>(
    arm: Arm,
    mut a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    obs: &mut O,
) -> Option<usize> {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "rgetf2 requires a tall matrix (m >= n), got {m}x{n}");
    assert_eq!(ipiv.len(), n, "rgetf2: ipiv length must be n");
    if n == 0 {
        return None;
    }
    if n <= BASE_WIDTH {
        return crate::lapack::getf2_info_on(arm, a, ipiv, obs);
    }

    let n1 = n / 2;
    let n2 = n - n1;

    // Factor the left half A[:, :n1] recursively (full height).
    let left_info = {
        let left = a.submatrix_mut(0, 0, m, n1);
        rgetf2_info_on(arm, left, &mut ipiv[..n1], obs)
    };

    // Apply the left half's swaps to the right half, then split.
    {
        let right = a.submatrix_mut(0, n1, m, n2);
        apply_ipiv(right, &ipiv[..n1]);
    }

    // U12 = L11^{-1} A12.
    {
        let (left, right) = a.rb_mut().split_at_col_mut(n1);
        let (mut r_top, mut r_bot) = right.split_at_row_mut(n1);
        let l11 = left.submatrix(0, 0, n1, n1);
        trsm_on(arm, Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11, r_top.rb_mut());

        // A22 -= L21 * U12.
        let l21 = left.submatrix(n1, 0, m - n1, n1);
        gemm_on(arm, -T::ONE, l21, r_top.as_view(), T::ONE, r_bot.rb_mut());
        obs.on_stage(&r_bot.as_view());
    }

    // Factor the trailing block recursively.
    let right_info = {
        let trailing = a.submatrix_mut(n1, n1, m - n1, n2);
        rgetf2_info_on(arm, trailing, &mut ipiv[n1..], obs)
    };

    // The trailing factorization's swaps are local to rows n1..m; apply them
    // to the left block rows and rebase the indices.
    {
        let left_lower = a.submatrix_mut(n1, 0, m - n1, n1);
        apply_ipiv(left_lower, &ipiv[n1..]);
    }
    for p in ipiv[n1..].iter_mut() {
        *p += n1;
    }
    left_info.or(right_info.map(|s| s + n1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::gen;
    use crate::lapack::getf2;
    use crate::{Matrix, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_plu(orig: &Matrix, lu: &Matrix, ipiv: &[usize], tol: f64) {
        let perm = crate::perm::ipiv_to_perm(ipiv, orig.rows());
        let pa = crate::perm::permute_rows(orig, &perm);
        let l = lu.unit_lower();
        let u = lu.upper();
        let mut prod = Matrix::zeros(orig.rows(), orig.cols());
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        let d = pa.max_abs_diff(&prod);
        assert!(d < tol, "||P A - L U||_max = {d} > {tol}");
    }

    #[test]
    fn reconstructs_random_tall_panels() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, n) in &[(4, 4), (16, 16), (100, 32), (57, 50), (200, 150), (64, 1)] {
            let a0 = gen::randn(&mut rng, m, n);
            let mut a = a0.clone();
            let mut ipiv = vec![0; n];
            rgetf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
            check_plu(&a0, &a, &ipiv, 1e-9 * (m as f64));
        }
    }

    #[test]
    fn identical_pivots_to_classic_getf2() {
        // Partial pivoting is deterministic: the recursive algorithm must
        // choose exactly the same pivot rows as the classic one.
        let mut rng = StdRng::seed_from_u64(22);
        for &(m, n) in &[(30, 8), (64, 33), (128, 50)] {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            let mut a_c = a0.clone();
            let mut a_r = a0.clone();
            let mut ip_c = vec![0; n];
            let mut ip_r = vec![0; n];
            getf2(a_c.view_mut(), &mut ip_c, &mut NoObs).unwrap();
            rgetf2(a_r.view_mut(), &mut ip_r, &mut NoObs).unwrap();
            assert_eq!(ip_c, ip_r, "pivot sequences differ at {m}x{n}");
            assert!(a_c.max_abs_diff(&a_r) < 1e-10, "factors differ at {m}x{n}");
        }
    }

    #[test]
    fn base_case_width_one() {
        let mut rng = StdRng::seed_from_u64(23);
        let a0 = gen::randn(&mut rng, 10, 1);
        let mut a = a0.clone();
        let mut ipiv = vec![0; 1];
        rgetf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        check_plu(&a0, &a, &ipiv, 1e-12);
    }

    #[test]
    #[should_panic(expected = "tall matrix")]
    fn wide_input_panics() {
        let mut a: Matrix = Matrix::zeros(3, 5);
        let mut ipiv = vec![0; 5];
        let _ = rgetf2(a.view_mut(), &mut ipiv, &mut NoObs);
    }
}
