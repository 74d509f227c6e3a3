//! Level-2 kernels (matrix-vector): `ger`, `gemv`, `trsv_t`, `trmv`.

use crate::blas1::axpy;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use crate::{Diag, Uplo};

/// Rank-1 update `A += alpha * x * y^T` (BLAS `DGER`).
///
/// `x.len() == A.rows()`, `y.len() == A.cols()`.
///
/// # Panics
/// On dimension mismatch.
pub fn ger<T: Scalar>(alpha: T, x: &[T], y: &[T], mut a: MatViewMut<'_, T>) {
    assert_eq!(x.len(), a.rows(), "ger: x length != rows");
    assert_eq!(y.len(), a.cols(), "ger: y length != cols");
    for (j, &yj) in y.iter().enumerate() {
        let s = alpha * yj;
        if s != T::ZERO {
            axpy(s, x, a.col_mut(j));
        }
    }
}

/// `y = alpha * A * x + beta * y` (BLAS `DGEMV`, no transpose).
///
/// # Panics
/// On dimension mismatch.
pub fn gemv<T: Scalar>(alpha: T, a: MatView<'_, T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(x.len(), a.cols(), "gemv: x length != cols");
    assert_eq!(y.len(), a.rows(), "gemv: y length != rows");
    if beta != T::ONE {
        for yi in y.iter_mut() {
            *yi *= beta;
        }
    }
    for (j, &xj) in x.iter().enumerate() {
        axpy(alpha * xj, a.col(j), y);
    }
}

/// `y = alpha * A^T * x + beta * y` (BLAS `DGEMV`, transpose).
///
/// # Panics
/// On dimension mismatch.
pub fn gemv_t<T: Scalar>(alpha: T, a: MatView<'_, T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(x.len(), a.rows(), "gemv_t: x length != rows");
    assert_eq!(y.len(), a.cols(), "gemv_t: y length != cols");
    for (j, yj) in y.iter_mut().enumerate() {
        let s = crate::blas1::dot(a.col(j), x);
        *yj = alpha * s + beta * *yj;
    }
}

/// Triangular solve with the *transposed* triangle: `x := op(A)^{-T} x`
/// (BLAS `DTRSV` with `TRANS = 'T'`). `Uplo` names the stored triangle, so
/// `Uplo::Upper` solves `U^T x = b` — a forward substitution.
///
/// # Panics
/// If `A` is not square or sizes mismatch.
pub fn trsv_t<T: Scalar>(uplo: Uplo, diag: Diag, a: MatView<'_, T>, x: &mut [T]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "trsv_t: A must be square");
    assert_eq!(x.len(), n, "trsv_t: x length != n");
    match uplo {
        // U^T is lower triangular: forward substitution using U's columns
        // as rows of U^T (column k of U holds row k of U^T above diag).
        Uplo::Upper => {
            for k in 0..n {
                let col = a.col(k);
                let mut s = x[k];
                for (i, &cv) in col.iter().enumerate().take(k) {
                    s -= cv * x[i];
                }
                x[k] = match diag {
                    Diag::NonUnit => s / col[k],
                    Diag::Unit => s,
                };
            }
        }
        // L^T is upper triangular: back substitution.
        Uplo::Lower => {
            for k in (0..n).rev() {
                let col = a.col(k);
                let mut s = x[k];
                for (i, &xi) in x.iter().enumerate().skip(k + 1) {
                    s -= col[i] * xi;
                }
                x[k] = match diag {
                    Diag::NonUnit => s / col[k],
                    Diag::Unit => s,
                };
            }
        }
    }
}

/// Triangular matrix-vector product `x := A x` for a triangular `A`
/// (BLAS `DTRMV`, no transpose).
///
/// # Panics
/// If `A` is not square or sizes mismatch.
pub fn trmv<T: Scalar>(uplo: Uplo, diag: Diag, a: MatView<'_, T>, x: &mut [T]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "trmv: A must be square");
    assert_eq!(x.len(), n, "trmv: x length != n");
    match uplo {
        Uplo::Upper => {
            // Row i of x depends on x[i..]; sweep forward accumulating into
            // x[0..j] column by column so each x[j] is consumed before
            // being overwritten.
            for j in 0..n {
                let xj = x[j];
                let col = a.col(j);
                if xj != T::ZERO {
                    for (i, xi) in x.iter_mut().enumerate().take(j) {
                        *xi += col[i] * xj;
                    }
                }
                if let Diag::NonUnit = diag {
                    x[j] *= col[j];
                }
            }
        }
        Uplo::Lower => {
            for j in (0..n).rev() {
                let xj = x[j];
                let col = a.col(j);
                if xj != T::ZERO {
                    for i in j + 1..n {
                        x[i] += col[i] * xj;
                    }
                }
                if let Diag::NonUnit = diag {
                    x[j] *= col[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn ger_matches_definition() {
        let mut a = Matrix::zeros(2, 3);
        ger(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0], a.view_mut());
        assert_eq!(a[(0, 0)], 6.0);
        assert_eq!(a[(1, 2)], 20.0);
    }

    #[test]
    fn gemv_matches_definition() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![1.0, 1.0];
        gemv(1.0, a.view(), &[1.0, 1.0], -1.0, &mut y);
        assert_eq!(y, vec![2.0, 6.0]);
    }

    #[test]
    fn gemv_t_matches_definition() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![0.0, 0.0];
        gemv_t(1.0, a.view(), &[1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![4.0, 6.0]);
    }

    #[test]
    fn trsv_t_solves_transposed_system() {
        // U = [2 1; 0 4]; U^T x = b with b = [2, 9] => x = [1, 2].
        let u = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 4.0]]);
        let mut x = vec![2.0, 9.0];
        trsv_t(Uplo::Upper, Diag::NonUnit, u.view(), &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
        // L = [1 0; 0.5 1] unit; L^T x = b with b = [2, 3] => x = [0.5, 3].
        let l = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 1.0]]);
        let mut y = vec![2.0, 3.0];
        trsv_t(Uplo::Lower, Diag::Unit, l.view(), &mut y);
        assert_eq!(y, vec![0.5, 3.0]);
    }

    #[test]
    fn trsv_t_round_trip_against_gemv_t() {
        let u = Matrix::from_rows(&[&[3.0, 1.0, -2.0], &[0.0, 2.0, 0.5], &[0.0, 0.0, 6.0]]);
        let b = vec![3.0, 5.0, 7.0];
        let mut x = b.clone();
        trsv_t(Uplo::Upper, Diag::NonUnit, u.view(), &mut x);
        let mut back = vec![0.0; 3];
        gemv_t(1.0, u.view(), &x, 0.0, &mut back);
        for (bi, bb) in b.iter().zip(&back) {
            assert!((bi - bb).abs() < 1e-12, "{bi} vs {bb}");
        }
    }

    #[test]
    fn trmv_upper_matches_gemv_on_triangle() {
        let u = Matrix::from_rows(&[&[2.0, 1.0, 3.0], &[0.0, 4.0, -1.0], &[0.0, 0.0, 5.0]]);
        let x0 = vec![1.0, 2.0, 3.0];
        let mut x = x0.clone();
        trmv(Uplo::Upper, Diag::NonUnit, u.view(), &mut x);
        let mut want = vec![0.0; 3];
        gemv(1.0, u.view(), &x0, 0.0, &mut want);
        assert_eq!(x, want);
    }

    #[test]
    fn trmv_lower_unit_ignores_diagonal_values() {
        // Stored diagonal must be ignored under Diag::Unit.
        let l = Matrix::from_rows(&[&[9.0, 0.0], &[2.0, 7.0]]);
        let mut x = vec![1.0, 1.0];
        trmv(Uplo::Lower, Diag::Unit, l.view(), &mut x);
        assert_eq!(x, vec![1.0, 3.0]);
    }
}
