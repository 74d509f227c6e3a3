//! Reciprocal condition-number estimation from LU factors (`DGECON`),
//! via the Hager-Higham 1-norm estimator (`DLACN2`).
//!
//! The HPL residuals the paper reports (Section 6.1) are scaled by norms
//! of `A`; knowing `κ₁(A)` tells a user how many of the solution's digits
//! those residuals actually vouch for. The estimator needs only
//! `O(n²)`-cost solves with the existing factors — no refactorization.

use crate::lapack::{getrs, getrs_t};
use crate::norms::vec_norm_1;
use crate::scalar::Scalar;
use crate::view::MatView;

/// Maximum Hager iterations (LAPACK uses 5; convergence is almost always
/// at 2-3).
const ITMAX: usize = 5;

/// Estimates `||A^{-1}||_1` given the packed LU factors of `A` — the
/// Hager-Higham power iteration on `|A^{-1}|`'s column sums, using one
/// pair of solves (`A z = x`, `A^T z = ξ`) per iteration.
///
/// The estimate is a guaranteed *lower* bound that is almost always within
/// a factor of 2-3 of the truth (Higham 1988).
///
/// # Panics
/// If the factors are not square.
pub(crate) fn inv_norm1_est<T: Scalar>(lu: MatView<'_, T>, ipiv: &[usize]) -> T {
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "inv_norm1_est: factors must be square");
    if n == 0 {
        return T::ZERO;
    }

    // Start with the uniform vector: est = ||A^{-1} e/n||_1.
    let mut x = vec![T::from_usize(n).recip(); n];
    getrs(lu, ipiv, &mut x);
    let mut est = vec_norm_1(&x);
    if n == 1 {
        return est;
    }

    let mut visited = vec![false; n];
    for _ in 0..ITMAX {
        // ξ = sign(x); z = A^{-T} ξ.
        let mut z: Vec<T> =
            x.iter().map(|&v| if v >= T::ZERO { T::ONE } else { -T::ONE }).collect();
        getrs_t(lu, ipiv, &mut z);

        // j = argmax |z_j|; stop when z stops finding a steeper column.
        let (mut j_best, mut z_best) = (0usize, T::ZERO);
        for (j, &zj) in z.iter().enumerate() {
            if zj.abs() > z_best {
                z_best = zj.abs();
                j_best = j;
            }
        }
        if visited[j_best] {
            break;
        }
        visited[j_best] = true;

        // x = e_{j_best}; new estimate = ||A^{-1} e_j||_1 (column norm).
        x.iter_mut().for_each(|v| *v = T::ZERO);
        x[j_best] = T::ONE;
        getrs(lu, ipiv, &mut x);
        let new_est = vec_norm_1(&x);
        if new_est <= est {
            break;
        }
        est = new_est;
    }

    // LAPACK's final safeguard: an alternating, graded probe vector that
    // defeats adversarial sign cancellation.
    let mut v: Vec<T> = (0..n)
        .map(|i| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            T::from_f64(s * (1.0 + i as f64 / (n as f64 - 1.0)))
        })
        .collect();
    getrs(lu, ipiv, &mut v);
    est.max(T::from_f64(2.0) * vec_norm_1(&v) / (T::from_f64(3.0) * T::from_usize(n)))
}

/// Reciprocal 1-norm condition estimate `rcond = 1 / (||A||_1 ||A^{-1}||_1)`
/// (`DGECON`). Pass `anorm = ||A||_1` of the *original* matrix (compute it
/// before factoring; the factors overwrite `A`). Returns 0 for a singular
/// or overflow-scale matrix, 1 for the identity.
///
/// # Panics
/// If the factors are not square or `anorm < 0`.
pub fn gecon<T: Scalar>(lu: MatView<'_, T>, ipiv: &[usize], anorm: T) -> T {
    assert!(anorm >= T::ZERO, "gecon: anorm must be non-negative");
    if anorm == T::ZERO {
        return T::ZERO;
    }
    if lu.rows() == 0 {
        return T::ONE;
    }
    let inv_norm = inv_norm1_est(lu, ipiv);
    if inv_norm == T::ZERO || !inv_norm.is_finite() {
        return T::ZERO;
    }
    inv_norm.recip() / anorm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::lapack::{getrf, getri, GetrfOpts};
    use crate::norms::mat_norm_1;
    use crate::{Matrix, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exact κ₁ via explicit inverse (test oracle only).
    fn true_cond1(a: &Matrix) -> f64 {
        let n = a.rows();
        let mut inv = a.clone();
        let mut ipiv = vec![0usize; n];
        getrf(inv.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        getri(inv.view_mut(), &ipiv).unwrap();
        mat_norm_1(a.view()) * mat_norm_1(inv.view())
    }

    fn factor(a: &Matrix) -> (Matrix, Vec<usize>) {
        let mut lu = a.clone();
        let mut ipiv = vec![0usize; a.rows()];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        (lu, ipiv)
    }

    #[test]
    fn identity_has_rcond_one() {
        let a = Matrix::identity(8);
        let (lu, ipiv) = factor(&a);
        let r = gecon(lu.view(), &ipiv, mat_norm_1(a.view()));
        assert!((r - 1.0).abs() < 1e-12, "rcond(I) = {r}");
    }

    #[test]
    fn estimate_is_lower_bound_and_within_factor_three() {
        let mut rng = StdRng::seed_from_u64(241);
        for &n in &[4usize, 10, 30, 64] {
            let a = gen::randn(&mut rng, n, n);
            let kappa = true_cond1(&a);
            let (lu, ipiv) = factor(&a);
            let est = mat_norm_1(a.view()) * inv_norm1_est(lu.view(), &ipiv);
            assert!(est <= kappa * (1.0 + 1e-10), "n={n}: estimate {est} exceeds true {kappa}");
            assert!(est >= kappa / 3.0, "n={n}: estimate {est} below true/3 ({kappa})");
        }
    }

    #[test]
    fn detects_bad_conditioning_of_graded_matrix() {
        // diag(1, 1e-2, 1e-4, ..., 1e-12): κ₁ = 1e12 exactly.
        let n = 7;
        let a =
            Matrix::from_fn(n, n, |i, j| if i == j { 10.0_f64.powi(-2 * i as i32) } else { 0.0 });
        let (lu, ipiv) = factor(&a);
        let r = gecon(lu.view(), &ipiv, mat_norm_1(a.view()));
        assert!(r < 1e-11 && r > 1e-14, "rcond = {r}");
    }

    #[test]
    fn zero_anorm_means_singular() {
        let a = Matrix::identity(3);
        let (lu, ipiv) = factor(&a);
        assert_eq!(gecon(lu.view(), &ipiv, 0.0), 0.0);
    }

    #[test]
    fn transpose_solve_agrees_with_explicit_inverse() {
        let mut rng = StdRng::seed_from_u64(242);
        let n = 20;
        let a = gen::randn(&mut rng, n, n);
        let (lu, ipiv) = factor(&a);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        crate::lapack::getrs_t(lu.view(), &ipiv, &mut x);
        // Check A^T x == b.
        let at = Matrix::from_fn(n, n, |i, j| a[(j, i)]);
        let mut back = vec![0.0; n];
        crate::blas2::gemv(1.0, at.view(), &x, 0.0, &mut back);
        for (want, got) in b.iter().zip(&back) {
            assert!((want - got).abs() < 1e-8, "{want} vs {got}");
        }
    }
}
