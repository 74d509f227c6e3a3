//! Matrix and vector norms used by the HPL accuracy tests.
//!
//! HPL's residual checks (paper Section 6.1) need `||A||_1`, `||A||_inf`,
//! `||x||_1`, `||x||_inf` and `||r||_inf`; the growth-factor study needs
//! max-abs scans.

use crate::scalar::Scalar;
use crate::view::MatView;

/// `||A||_1` — maximum absolute column sum.
pub fn mat_norm_1<T: Scalar>(a: MatView<'_, T>) -> T {
    let mut best = T::ZERO;
    for j in 0..a.cols() {
        let s: T = a.col(j).iter().map(|v| v.abs()).sum();
        best = best.max(s);
    }
    best
}

/// `||A||_inf` — maximum absolute row sum.
pub fn mat_norm_inf<T: Scalar>(a: MatView<'_, T>) -> T {
    let mut row_sums = vec![T::ZERO; a.rows()];
    for j in 0..a.cols() {
        for (rs, &v) in row_sums.iter_mut().zip(a.col(j)) {
            *rs += v.abs();
        }
    }
    row_sums.into_iter().fold(T::ZERO, T::max)
}

/// The three HPL accuracy residuals for a solution `x` with residual
/// `r = b − A x`, at the working precision's ε (`T::EPSILON`):
///
/// ```text
/// HPL1 = ||r||_inf / (ε ||A||_1 · N)
/// HPL2 = ||r||_inf / (ε ||A||_1 ||x||_1)
/// HPL3 = ||r||_inf / (ε ||A||_inf ||x||_inf · N)
/// ```
///
/// This is the single implementation of the gate formulas, shared by
/// `calu-stability`'s `hpl_tests` and `calu-core`'s mixed-precision
/// `ir_solve`. An exactly-zero residual reports `[0, 0, 0]` (the system
/// is solved exactly; in particular `x = b = 0` passes instead of
/// producing `0/0` NaNs).
pub fn hpl_residuals<T: Scalar>(a: MatView<'_, T>, x: &[T], r: &[T]) -> [f64; 3] {
    hpl_residuals_from_norms(
        a.rows(),
        vec_norm_inf(r).to_f64(),
        mat_norm_1(a).to_f64(),
        mat_norm_inf(a).to_f64(),
        vec_norm_1(x).to_f64(),
        vec_norm_inf(x).to_f64(),
        T::EPSILON.to_f64(),
    )
}

/// [`hpl_residuals`] from already-computed norms, for callers that
/// evaluate the gate repeatedly against a fixed matrix (iterative
/// refinement): `||A||_1`/`||A||_inf` are `O(n²)` scans worth hoisting
/// out of an `O(n²)`-per-step loop.
pub fn hpl_residuals_from_norms(
    n: usize,
    r_inf: f64,
    a_1: f64,
    a_inf: f64,
    x_1: f64,
    x_inf: f64,
    eps: f64,
) -> [f64; 3] {
    if r_inf == 0.0 {
        return [0.0; 3];
    }
    let nf = n as f64;
    [r_inf / (eps * a_1 * nf), r_inf / (eps * a_1 * x_1), r_inf / (eps * a_inf * x_inf * nf)]
}

/// `||x||_1`.
pub fn vec_norm_1<T: Scalar>(x: &[T]) -> T {
    crate::blas1::asum(x)
}

/// `||x||_inf`.
pub fn vec_norm_inf<T: Scalar>(x: &[T]) -> T {
    crate::blas1::amax(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn norms_of_known_matrix() {
        // A = [1 -2; 3 4]: ||A||_1 = max(4, 6) = 6; ||A||_inf = max(3, 7) = 7.
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(mat_norm_1(a.view()), 6.0);
        assert_eq!(mat_norm_inf(a.view()), 7.0);
    }

    #[test]
    fn inf_norm_of_transpose_equals_one_norm() {
        let a = Matrix::from_fn(7, 5, |i, j| ((i * 3 + j * 11) % 13) as f64 - 6.0);
        let at = Matrix::from_fn(5, 7, |i, j| a[(j, i)]);
        assert!((mat_norm_1(a.view()) - mat_norm_inf(at.view())).abs() < 1e-12);
    }

    #[test]
    fn vector_norms() {
        let x = [3.0, -4.0];
        assert_eq!(vec_norm_1(&x), 7.0);
        assert_eq!(vec_norm_inf(&x), 4.0);
    }
}
