//! Solves from packed LU factors (`DGETRS`, both transpose modes).

use crate::blas2::trsv_t;
use crate::blas3::trsm;
use crate::perm::apply_ipiv;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use crate::{Diag, Side, Uplo};

/// Solves `A x = b` in place given the packed factors and pivots of
/// `A = P L U` (as produced by `getf2`/`rgetf2`/`getrf`): [`getrs_mat`] on
/// `b` as a one-column block, so its bits are those of any column of a
/// [`getrs_mat`] block that carries `b`.
///
/// # Panics
/// If shapes mismatch.
pub fn getrs<T: Scalar>(lu: MatView<'_, T>, ipiv: &[usize], b: &mut [T]) {
    let n = lu.rows();
    assert_eq!(b.len(), n, "getrs: rhs length mismatch");
    getrs_mat(lu, ipiv, MatViewMut::from_slice(b, n, 1, n.max(1)));
}

/// Solves the transposed system `A^T x = b` in place from the same factors:
/// `A^T = U^T L^T P^T`, so forward-solve with `U^T`, back-solve with `L^T`,
/// then undo the row interchanges (`DGETRS` with `TRANS = 'T'`; the
/// condition estimator needs this direction).
///
/// # Panics
/// If shapes mismatch.
pub fn getrs_t<T: Scalar>(lu: MatView<'_, T>, ipiv: &[usize], b: &mut [T]) {
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "getrs_t: factors must be square");
    assert_eq!(b.len(), n, "getrs_t: rhs length mismatch");
    trsv_t(Uplo::Upper, Diag::NonUnit, lu, b);
    trsv_t(Uplo::Lower, Diag::Unit, lu, b);
    // x = P^T z: apply the swap sequence in reverse.
    for j in (0..ipiv.len()).rev() {
        if ipiv[j] != j {
            b.swap(j, ipiv[j]);
        }
    }
}

/// Multi-RHS version of [`getrs`]: solves `A X = B` in place — the
/// interchanges applied to the block, then two blocked
/// [`trsm`](crate::blas3::trsm) calls on the whole of it (`L`, unit
/// diagonal, then `U`). By `trsm`'s line-independence contract each
/// column's bits depend on that column and the factors only, so a column
/// solved in any batch equals its [`getrs`] solution bit for bit.
///
/// # Panics
/// If shapes mismatch.
pub fn getrs_mat<T: Scalar>(lu: MatView<'_, T>, ipiv: &[usize], mut b: MatViewMut<'_, T>) {
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "getrs_mat: factors must be square");
    assert_eq!(b.rows(), n, "getrs_mat: rhs rows mismatch");
    apply_ipiv(b.rb_mut(), ipiv);
    trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, lu, b.rb_mut());
    trsm(Side::Left, Uplo::Upper, Diag::NonUnit, T::ONE, lu, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::lapack::{getrf, GetrfOpts};
    use crate::{Matrix, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = StdRng::seed_from_u64(51);
        let n = 60;
        let a0 = gen::randn(&mut rng, n, n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 - 30.0) / 7.0).collect();
        let mut b = gen::rhs_for_solution(&a0, &x_true);

        let mut lu = a0.clone();
        let mut ipiv = vec![0; n];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        getrs(lu.view(), &ipiv, &mut b);

        for (xi, ti) in b.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    fn multi_rhs_matches_single_in<T: Scalar>() {
        let mut rng = StdRng::seed_from_u64(52);
        let n = 24;
        let a0: Matrix<T> = gen::randn(&mut rng, n, n);
        let mut lu = a0.clone();
        let mut ipiv = vec![0; n];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts { block: 8, ..Default::default() }, &mut NoObs)
            .unwrap();

        let b0: Matrix<T> = gen::randn(&mut rng, n, 3);
        let mut bm = b0.clone();
        getrs_mat(lu.view(), &ipiv, bm.view_mut());
        for j in 0..3 {
            let mut bv: Vec<T> = b0.col(j).to_vec();
            getrs(lu.view(), &ipiv, &mut bv);
            assert_eq!(bv, bm.col(j), "column {j}");
        }
    }

    #[test]
    fn multi_rhs_matches_single() {
        multi_rhs_matches_single_in::<f64>();
        multi_rhs_matches_single_in::<f32>();
    }

    #[test]
    fn identity_solve_is_identity() {
        let lu = Matrix::identity(5);
        let ipiv = vec![0, 1, 2, 3, 4];
        let mut b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b0 = b.clone();
        getrs(lu.view(), &ipiv, &mut b);
        assert_eq!(b, b0);
    }
}
