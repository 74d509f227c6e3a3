//! Matrix inverse from packed LU factors (`DGETRI`) and the triangular
//! inverse it builds on (`DTRTI2`).
//!
//! `CALU` consumers want `A^{-1}` occasionally (explicit preconditioners,
//! covariance updates); computing it from the already-available factors
//! costs `~4/3 n³` flops instead of re-solving `n` systems.

use crate::blas1::scal;
use crate::blas2::{gemv, trmv};
use crate::error::{Error, Result};
use crate::scalar::Scalar;
use crate::view::MatViewMut;
use crate::{Diag, Uplo};

/// Inverts an upper triangular matrix in place (`DTRTI2`, unblocked).
/// Entries below the diagonal are not referenced.
///
/// # Errors
/// [`Error::SingularPivot`] at the first zero diagonal entry.
///
/// # Panics
/// If `a` is not square.
pub(crate) fn trtri_upper<T: Scalar>(mut a: MatViewMut<'_, T>, diag: Diag) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "trtri_upper: A must be square");
    for j in 0..n {
        let ajj = match diag {
            Diag::NonUnit => {
                let d = a.get(j, j);
                if d == T::ZERO || !d.is_finite() {
                    return Err(Error::SingularPivot { step: j });
                }
                let inv = d.recip();
                a.set(j, j, inv);
                -inv
            }
            Diag::Unit => -T::ONE,
        };
        // a[0..j, j] := ajj * U(0..j, 0..j) * a[0..j, j], with the leading
        // block already inverted (DTRTI2's column sweep).
        if j > 0 {
            let (lead, rest) = a.rb_mut().split_at_col_mut(j);
            let mut cj = rest.into_submatrix(0, 0, j, 1);
            let col = cj.col_mut(0);
            trmv(Uplo::Upper, diag, lead.submatrix(0, 0, j, j), col);
            scal(ajj, col);
        }
    }
    Ok(())
}

/// Computes `A^{-1}` in place from the packed `L\U` factors and pivots of
/// `A = P L U` (as produced by `getf2`/`rgetf2`/`getrf`) — `DGETRI`.
///
/// # Errors
/// [`Error::SingularPivot`] if `U` has a zero diagonal entry.
///
/// # Panics
/// If `a` is not square or `ipiv.len() != n`.
pub fn getri<T: Scalar>(mut a: MatViewMut<'_, T>, ipiv: &[usize]) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "getri: A must be square");
    assert_eq!(ipiv.len(), n, "getri: ipiv length must be n");
    if n == 0 {
        return Ok(());
    }

    // Step 1: U := U^{-1} in place.
    trtri_upper(a.rb_mut(), Diag::NonUnit)?;

    // Step 2: solve A^{-1} L = U^{-1} by sweeping columns right to left:
    // save L's subdiagonal column j, zero it, and subtract the trailing
    // columns' contribution (DGETRI's gemv sweep).
    let mut work = vec![T::ZERO; n];
    for j in (0..n.saturating_sub(1)).rev() {
        let tail = n - j - 1;
        {
            let cj = a.col_mut(j);
            work[..tail].copy_from_slice(&cj[j + 1..]);
            for v in &mut cj[j + 1..] {
                *v = T::ZERO;
            }
        }
        // a[:, j] -= a[:, j+1..n] * work  (full-height gemv).
        let (left, right) = a.rb_mut().split_at_col_mut(j + 1);
        let mut left = left;
        gemv(-T::ONE, right.as_view(), &work[..tail], T::ONE, left.col_mut(j));
    }

    // Step 3: apply the row interchanges as *column* swaps in reverse
    // (A^{-1} = (P L U)^{-1} = U^{-1} L^{-1} P^T).
    for j in (0..n).rev() {
        let p = ipiv[j];
        if p != j {
            let (c1, c2) = a.two_cols_mut(j, p);
            c1.swap_with_slice(c2);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::gen;
    use crate::lapack::{getrf, GetrfOpts};
    use crate::{Matrix, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn invert(a: &Matrix) -> Matrix {
        let n = a.rows();
        let mut lu = a.clone();
        let mut ipiv = vec![0usize; n];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        getri(lu.view_mut(), &ipiv).unwrap();
        lu
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let inv = invert(&Matrix::identity(6));
        assert!(inv.max_abs_diff(&Matrix::identity(6)) < 1e-14);
    }

    #[test]
    fn inverse_of_known_2x2() {
        // A = [1 2; 3 4], A^{-1} = [-2 1; 1.5 -0.5].
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let inv = invert(&a);
        let want = Matrix::from_rows(&[&[-2.0, 1.0], &[1.5, -0.5]]);
        assert!(inv.max_abs_diff(&want) < 1e-13, "{inv:?}");
    }

    #[test]
    fn a_times_inverse_is_identity() {
        let mut rng = StdRng::seed_from_u64(231);
        for &n in &[1usize, 2, 5, 16, 33, 64] {
            let a = gen::randn(&mut rng, n, n);
            let inv = invert(&a);
            let mut prod = Matrix::zeros(n, n);
            gemm(1.0, a.view(), inv.view(), 0.0, prod.view_mut());
            let d = prod.max_abs_diff(&Matrix::identity(n));
            assert!(d < 1e-9 * (n.max(4) as f64), "n={n}: ||A A^-1 - I|| = {d}");
        }
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let mut rng = StdRng::seed_from_u64(232);
        let n = 40;
        let a = gen::diag_dominant(&mut rng, n);
        let inv = invert(&a);
        let mut prod = Matrix::zeros(n, n);
        gemm(1.0, inv.view(), a.view(), 0.0, prod.view_mut());
        assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-10);
    }

    #[test]
    fn trtri_inverts_triangle() {
        let u = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[0.0, 4.0, -1.0], &[0.0, 0.0, 8.0]]);
        let mut inv = u.clone();
        trtri_upper(inv.view_mut(), Diag::NonUnit).unwrap();
        // U * U^{-1} on the upper triangle = I.
        let mut prod = Matrix::zeros(3, 3);
        gemm(1.0, u.view(), inv.upper().view(), 0.0, prod.view_mut());
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-13);
    }

    #[test]
    fn trtri_reports_zero_diagonal() {
        let mut u = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 0.0]]);
        let err = trtri_upper(u.view_mut(), Diag::NonUnit).unwrap_err();
        assert_eq!(err, Error::SingularPivot { step: 1 });
    }

    #[test]
    fn getri_singular_factors_error() {
        // LU of a singular matrix has a zero on U's diagonal; getri must
        // refuse rather than divide by zero.
        let mut lu = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, 0.0]]);
        let err = getri(lu.view_mut(), &[0, 1]).unwrap_err();
        assert!(matches!(err, Error::SingularPivot { step: 1 }));
    }
}
