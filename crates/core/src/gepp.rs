//! GEPP baseline: blocked Gaussian elimination with partial pivoting, the
//! algorithm ScaLAPACK's `PDGETRF` parallelizes and the stability yardstick
//! of Tables 1-2.

use crate::calu::LuFactors;
use calu_matrix::lapack::{getrf, GetrfOpts, PanelAlg};
use calu_matrix::{MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar};

/// Factors a copy of `a` with blocked GEPP.
///
/// # Errors
/// Singular pivot.
pub fn gepp_factor<T: Scalar>(a: &Matrix<T>, block: usize) -> Result<LuFactors<T>> {
    let mut lu = a.clone();
    let ipiv = gepp_inplace(lu.view_mut(), block, &mut NoObs)?;
    Ok(LuFactors { lu, ipiv })
}

/// In-place blocked GEPP with an observer (for the Table 2 statistics).
///
/// # Errors
/// Singular pivot.
pub fn gepp_inplace<T: Scalar, O: PivotObserver<T>>(
    a: MatViewMut<'_, T>,
    block: usize,
    obs: &mut O,
) -> Result<Vec<usize>> {
    let kn = a.rows().min(a.cols());
    let mut ipiv = vec![0usize; kn];
    getrf(a, &mut ipiv, GetrfOpts { block, panel: PanelAlg::Classic }, obs)?;
    Ok(ipiv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::blas3::gemm;
    use calu_matrix::gen;
    use calu_matrix::perm::{ipiv_to_perm, permute_rows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gepp_factor_reconstructs() {
        let mut rng = StdRng::seed_from_u64(101);
        let a0 = gen::randn(&mut rng, 77, 77);
        let f = gepp_factor(&a0, 16).unwrap();
        let perm = ipiv_to_perm(&f.ipiv, 77);
        let pa = permute_rows(&a0, &perm);
        let l = f.lu.unit_lower();
        let u = f.lu.upper();
        let mut prod = Matrix::zeros(77, 77);
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        assert!(pa.max_abs_diff(&prod) < 1e-9);
    }

    #[test]
    fn gepp_block_size_does_not_change_factors() {
        // Blocked GEPP is a reorganization of unblocked GEPP: any block
        // size gives the same pivots and (numerically) the same factors.
        let mut rng = StdRng::seed_from_u64(102);
        let a0: Matrix = gen::randn(&mut rng, 60, 60);
        let f1 = gepp_factor(&a0, 1).unwrap();
        let f8 = gepp_factor(&a0, 8).unwrap();
        let f60 = gepp_factor(&a0, 60).unwrap();
        assert_eq!(f1.ipiv, f8.ipiv);
        assert_eq!(f8.ipiv, f60.ipiv);
        assert!(f1.lu.max_abs_diff(&f8.lu) < 1e-10);
        assert!(f8.lu.max_abs_diff(&f60.lu) < 1e-10);
    }

    #[test]
    fn gepp_observer_sees_partial_pivoting_invariants() {
        use crate::instrument::PivotStats;
        let mut rng = StdRng::seed_from_u64(103);
        let a0 = gen::randn(&mut rng, 48, 48);
        let mut a = a0.clone();
        let mut stats = PivotStats::new(a0.max_abs());
        gepp_inplace(a.view_mut(), 12, &mut stats).unwrap();
        assert_eq!(stats.steps(), 48);
        assert!((stats.tau_min() - 1.0).abs() < 1e-14, "GEPP tau is identically 1");
        assert!(stats.max_l <= 1.0 + 1e-14);
    }

    #[test]
    fn gepp_rectangular_shapes() {
        let mut rng = StdRng::seed_from_u64(104);
        for &(m, n) in &[(40usize, 24usize), (24, 40)] {
            let a0 = gen::randn(&mut rng, m, n);
            let f = gepp_factor(&a0, 8).unwrap();
            assert_eq!(f.ipiv.len(), m.min(n));
            let perm = ipiv_to_perm(&f.ipiv, m);
            let pa = permute_rows(&a0, &perm);
            let l = f.lu.unit_lower();
            let u = f.lu.upper();
            let mut prod = Matrix::zeros(m, n);
            gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
            assert!(pa.max_abs_diff(&prod) < 1e-10, "{m}x{n}");
        }
    }
}
