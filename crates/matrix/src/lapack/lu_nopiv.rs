//! LU factorization **without** pivoting.
//!
//! This is the second half of CALU's panel factorization: after tournament
//! pivoting has permuted the `b` winning rows to the top of the panel, the
//! panel is factored with no further row exchanges (paper Section 2). The
//! observer's `on_pivot` here reports the *actual* diagonal pivot against
//! the column maximum — the ratio is exactly the paper's threshold `τ`
//! (Figure 2 right, Tables 1-2 columns `τ_min`, `τ_ave`).

use crate::blas1::{amax, scal};
use crate::blas2::ger;
use crate::error::{Error, Result};
use crate::observer::PivotObserver;
use crate::scalar::Scalar;
use crate::view::MatViewMut;

/// Factors `A = L * U` in place with no pivoting (unblocked).
///
/// # Errors
/// [`Error::SingularPivot`] if a diagonal pivot is zero or non-finite.
pub fn lu_nopiv<T: Scalar, O: PivotObserver<T>>(
    mut a: MatViewMut<'_, T>,
    obs: &mut O,
) -> Result<()> {
    let (m, n) = (a.rows(), a.cols());
    let kn = m.min(n);
    let mut urow = vec![T::ZERO; n.saturating_sub(1)];

    for j in 0..kn {
        let col_max = amax(&a.col(j)[j..]);
        let pivot = a.get(j, j);
        obs.on_pivot(j, pivot.abs(), col_max);
        if pivot == T::ZERO || !pivot.is_finite() {
            return Err(Error::SingularPivot { step: j });
        }
        let inv = pivot.recip();
        scal(inv, &mut a.col_mut(j)[j + 1..]);
        obs.on_multipliers(&a.col(j)[j + 1..]);

        if j + 1 < m && j + 1 < n {
            let width = n - j - 1;
            for (t, jj) in urow.iter_mut().zip(j + 1..n) {
                *t = a.get(j, jj);
            }
            let (left, mut right) = a.rb_mut().split_at_col_mut(j + 1);
            let l_col = &left.col(j)[j + 1..];
            let trailing = right.submatrix_mut(j + 1, 0, m - j - 1, width);
            ger(-T::ONE, l_col, &urow[..width], trailing);
            obs.on_stage(&right.submatrix(j + 1, 0, m - j - 1, width));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::gen;
    use crate::{Matrix, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_lu(orig: &Matrix, lu: &Matrix, tol: f64) {
        let l = lu.unit_lower();
        let u = lu.upper();
        let mut prod = Matrix::zeros(orig.rows(), orig.cols());
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        let d = orig.max_abs_diff(&prod);
        assert!(d < tol, "||A - L U||_max = {d} > {tol}");
    }

    #[test]
    fn reconstructs_diagonally_dominant() {
        let mut rng = StdRng::seed_from_u64(41);
        for &n in &[1usize, 4, 17, 60] {
            let a0 = gen::diag_dominant(&mut rng, n);
            let mut a = a0.clone();
            lu_nopiv(a.view_mut(), &mut NoObs).unwrap();
            check_lu(&a0, &a, 1e-9 * (n.max(1) as f64));
        }
    }

    #[test]
    fn tall_panel_no_pivoting() {
        let mut rng = StdRng::seed_from_u64(43);
        // A tall panel whose top b x b block is well conditioned (as
        // guaranteed by tournament pivoting).
        let mut a0 = gen::randn(&mut rng, 50, 8);
        for j in 0..8 {
            a0[(j, j)] += 10.0;
        }
        let mut a = a0.clone();
        lu_nopiv(a.view_mut(), &mut NoObs).unwrap();
        check_lu(&a0, &a, 1e-10);
    }

    #[test]
    fn zero_pivot_is_an_error() {
        let mut a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let err = lu_nopiv(a.view_mut(), &mut NoObs).unwrap_err();
        assert_eq!(err, Error::SingularPivot { step: 0 });
    }

    #[test]
    fn observer_sees_thresholds() {
        struct Taus(Vec<f64>);
        impl PivotObserver for Taus {
            fn on_pivot(&mut self, _s: usize, pivot: f64, col_max: f64) {
                if col_max > 0.0 {
                    self.0.push(pivot / col_max);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(44);
        let a0 = gen::diag_dominant(&mut rng, 12);
        let mut a = a0.clone();
        let mut taus = Taus(Vec::new());
        lu_nopiv(a.view_mut(), &mut taus).unwrap();
        assert_eq!(taus.0.len(), 12);
        // Diagonally dominant: diagonal is always the column max -> tau == 1.
        for &t in &taus.0 {
            assert!(t > 0.0 && t <= 1.0 + 1e-15);
        }
    }
}
