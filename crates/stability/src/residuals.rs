//! HPL accuracy tests and backward errors (paper Section 6.1).
//!
//! The three residuals computed by the HPL benchmark driver, which the
//! paper uses as its accuracy gate ("the accuracy tests are passed if the
//! values of the three quantities are smaller than 16"):
//!
//! ```text
//! HPL1 = ||Ax − b||_inf / (ε ||A||_1 · N)
//! HPL2 = ||Ax − b||_inf / (ε ||A||_1 ||x||_1)
//! HPL3 = ||Ax − b||_inf / (ε ||A||_inf ||x||_inf · N)
//! ```
//!
//! plus the componentwise backward error
//! `wb = max_i |r_i| / (|A|·|x| + |b|)_i` (Oettli-Prager), the paper's `wb`
//! column.

use calu_matrix::blas2::gemv;
use calu_matrix::norms::{mat_norm_inf, vec_norm_inf};
use calu_matrix::{Matrix, Scalar};

/// The three HPL residuals for a computed solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HplReport {
    /// `||Ax − b||_inf / (ε ||A||_1 N)`.
    pub hpl1: f64,
    /// `||Ax − b||_inf / (ε ||A||_1 ||x||_1)`.
    pub hpl2: f64,
    /// `||Ax − b||_inf / (ε ||A||_inf ||x||_inf N)`.
    pub hpl3: f64,
}

impl HplReport {
    /// HPL's pass criterion: all three below 16.
    pub fn passes(&self) -> bool {
        self.hpl1 < 16.0 && self.hpl2 < 16.0 && self.hpl3 < 16.0
    }
}

/// Residual vector `r = b − A x`, computed at the matrix's precision.
pub(crate) fn residual<T: Scalar>(a: &Matrix<T>, x: &[T], b: &[T]) -> Vec<T> {
    let mut r = b.to_vec();
    gemv(-T::ONE, a.view(), x, T::ONE, &mut r);
    r
}

/// The three HPL residual tests, at the working precision `T`: residual
/// and norms are computed in `T`, and ε is `T::EPSILON` — so the gate asks
/// the same question at every precision ("is the error a small multiple of
/// this arithmetic's unit roundoff?"). A well-converged `f32` solve passes
/// the `f32` gate with the same ~O(1) values an `f64` solve shows on the
/// `f64` gate.
///
/// # Panics
/// On dimension mismatch.
pub fn hpl_tests<T: Scalar>(a: &Matrix<T>, x: &[T], b: &[T]) -> HplReport {
    let r = residual(a, x, b);
    let [hpl1, hpl2, hpl3] = calu_matrix::norms::hpl_residuals(a.view(), x, &r);
    HplReport { hpl1, hpl2, hpl3 }
}

/// Componentwise (Oettli-Prager) backward error
/// `wb = max_i |r_i| / (|A|·|x| + |b|)_i`; entries with a zero denominator
/// are skipped (they have a zero numerator too for consistent systems).
pub fn componentwise_backward_error<T: Scalar>(a: &Matrix<T>, x: &[T], b: &[T]) -> f64 {
    let r = residual(a, x, b);
    // denom = |A| |x| + |b|.
    let n = a.rows();
    let mut denom = vec![T::ZERO; n];
    for (j, xv) in x.iter().enumerate() {
        let xj = xv.abs();
        for (d, &v) in denom.iter_mut().zip(a.col(j)) {
            *d += v.abs() * xj;
        }
    }
    for (d, &bi) in denom.iter_mut().zip(b) {
        *d += bi.abs();
    }
    let mut wb = 0.0_f64;
    for (ri, di) in r.iter().zip(&denom) {
        if *di > T::ZERO {
            wb = wb.max((ri.abs() / *di).to_f64());
        }
    }
    wb
}

/// Normwise backward error `||Ax − b||_inf / (||A||_inf ||x||_inf + ||b||_inf)`.
pub fn backward_error_inf<T: Scalar>(a: &Matrix<T>, x: &[T], b: &[T]) -> f64 {
    let r = residual(a, x, b);
    let denom = mat_norm_inf(a.view()) * vec_norm_inf(x) + vec_norm_inf(b);
    if denom == T::ZERO {
        0.0
    } else {
        (vec_norm_inf(&r) / denom).to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_core::{calu_factor, CaluOpts};
    use calu_matrix::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_solution_has_zero_residuals() {
        let a = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = b.clone();
        let rep = hpl_tests(&a, &x, &b);
        assert_eq!(rep.hpl1, 0.0);
        assert_eq!(rep.hpl2, 0.0);
        assert_eq!(rep.hpl3, 0.0);
        assert!(rep.passes());
        assert_eq!(componentwise_backward_error(&a, &x, &b), 0.0);
    }

    #[test]
    fn calu_solution_passes_hpl_gates() {
        let mut rng = StdRng::seed_from_u64(171);
        let n = 128;
        let a: Matrix = gen::randn(&mut rng, n, n);
        let b = gen::hpl_rhs(&mut rng, n);
        let f = calu_factor(&a, CaluOpts { block: 16, p: 8, ..Default::default() }).unwrap();
        let x = f.solve(&b);
        let rep = hpl_tests(&a, &x, &b);
        assert!(rep.passes(), "{rep:?}");
        let wb = componentwise_backward_error(&a, &x, &b);
        assert!(wb < 1e-11, "wb = {wb}");
    }

    #[test]
    fn perturbed_solution_fails_gates() {
        let mut rng = StdRng::seed_from_u64(172);
        let n = 64;
        let a: Matrix = gen::randn(&mut rng, n, n);
        let b = gen::hpl_rhs(&mut rng, n);
        let f = calu_factor(&a, CaluOpts::default()).unwrap();
        let mut x = f.solve(&b);
        x[0] += 1.0; // gross error
        let rep = hpl_tests(&a, &x, &b);
        assert!(!rep.passes(), "a grossly wrong solution must fail: {rep:?}");
    }

    #[test]
    fn backward_error_scale_invariant() {
        let mut rng = StdRng::seed_from_u64(173);
        let n = 32;
        let a = gen::randn(&mut rng, n, n);
        let b = gen::hpl_rhs(&mut rng, n);
        let f = calu_factor(&a, CaluOpts::default()).unwrap();
        let x = f.solve(&b);
        let w1 = componentwise_backward_error(&a, &x, &b);

        // Scale the whole system by a power of two: every intermediate
        // rounds identically, so wb is *exactly* unchanged.
        let a2 = Matrix::from_fn(n, n, |i, j| 1024.0 * a[(i, j)]);
        let b2: Vec<f64> = b.iter().map(|v| v * 1024.0).collect();
        let w2 = componentwise_backward_error(&a2, &x, &b2);
        assert_eq!(w1, w2);
    }
}
