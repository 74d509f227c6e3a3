//! Blocked right-looking LU with partial pivoting (`DGETRF`) — the GEPP
//! baseline. Its distributed analogue is ScaLAPACK's `PDGETRF`, which the
//! paper compares CALU against.

use crate::blas3::{gemm, trsm};
use crate::error::Result;
use crate::observer::PivotObserver;
use crate::perm::apply_ipiv;
use crate::scalar::Scalar;
use crate::view::MatViewMut;
use crate::{Diag, Side, Uplo};

/// Which algorithm factors each panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelAlg {
    /// Classic unblocked `getf2` (the paper's `DGETF2`).
    Classic,
    /// Recursive `rgetf2` (the paper's `RGETF2`).
    Recursive,
}

/// Options for [`getrf`].
#[derive(Debug, Clone, Copy)]
pub struct GetrfOpts {
    /// Panel width `b` (the paper sweeps 50/100/150; default 64).
    pub block: usize,
    /// Panel factorization algorithm.
    pub panel: PanelAlg,
}

impl Default for GetrfOpts {
    fn default() -> Self {
        Self { block: 64, panel: PanelAlg::Classic }
    }
}

/// Factors `A = P * L * U` in place with partial pivoting using a blocked
/// right-looking sweep: panel factorization, pivot application to both
/// sides, `trsm` for the `U` block row, `gemm` for the trailing update —
/// the same structure `PDGETRF` uses in parallel.
///
/// `ipiv` must have length `min(m, n)`; entries are absolute row indices in
/// LAPACK transposition convention.
///
/// # Errors
/// [`Error::SingularPivot`](crate::Error::SingularPivot) from the panel
/// factorization (step index made absolute).
pub fn getrf<T: Scalar, O: PivotObserver<T>>(
    mut a: MatViewMut<'_, T>,
    ipiv: &mut [usize],
    opts: GetrfOpts,
    obs: &mut O,
) -> Result<()> {
    let (m, n) = (a.rows(), a.cols());
    let kn = m.min(n);
    assert_eq!(ipiv.len(), kn, "getrf: ipiv length must be min(m,n)");
    assert!(opts.block > 0, "getrf: block must be positive");
    let nb = opts.block;

    let mut k = 0;
    while k < kn {
        let jb = nb.min(kn - k);

        // Panel factorization over the full remaining height.
        {
            let panel = a.submatrix_mut(k, k, m - k, jb);
            let piv = &mut ipiv[k..k + jb];
            let r = match opts.panel {
                PanelAlg::Classic => crate::lapack::getf2(panel, piv, obs),
                PanelAlg::Recursive => crate::lapack::rgetf2(panel, piv, obs),
            };
            r.map_err(|e| match e {
                crate::Error::SingularPivot { step } => {
                    crate::Error::SingularPivot { step: step + k }
                }
                other => other,
            })?;
        }

        // Local panel pivots -> swaps of rows k.. applied to the columns
        // left of the panel and right of the panel.
        let local: Vec<usize> = ipiv[k..k + jb].to_vec();
        if k > 0 {
            let left = a.submatrix_mut(k, 0, m - k, k);
            apply_ipiv(left, &local);
        }
        if k + jb < n {
            let right = a.submatrix_mut(k, k + jb, m - k, n - k - jb);
            apply_ipiv(right, &local);
        }
        // Rebase to absolute row indices.
        for p in ipiv[k..k + jb].iter_mut() {
            *p += k;
        }

        if k + jb < n {
            // U12 = L11^{-1} A12.
            let (left, right) = a.rb_mut().split_at_col_mut(k + jb);
            let right = right.into_submatrix(k, 0, m - k, n - k - jb);
            let (mut u12, mut a22) = right.split_at_row_mut(jb);
            let l11 = left.submatrix(k, k, jb, jb);
            trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11, u12.rb_mut());

            if k + jb < m {
                // A22 -= L21 * U12.
                let l21 = left.submatrix(k + jb, k, m - k - jb, jb);
                gemm(-T::ONE, l21, u12.as_view(), T::ONE, a22.rb_mut());
                obs.on_stage(&a22.as_view());
            }
        }
        k += jb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn blocked_matches_unblocked_pivots_and_factors() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(m, n, nb) in &[(40, 40, 8), (65, 65, 16), (50, 30, 7), (100, 100, 100), (33, 33, 1)] {
            let a0 = gen::randn(&mut rng, m, n);
            let kn = m.min(n);
            let mut a_b = a0.clone();
            let mut a_u = a0.clone();
            let mut ip_b = vec![0; kn];
            let mut ip_u = vec![0; kn];
            getrf(
                a_b.view_mut(),
                &mut ip_b,
                GetrfOpts { block: nb, ..Default::default() },
                &mut NoObs,
            )
            .unwrap();
            getf2(a_u.view_mut(), &mut ip_u, &mut NoObs).unwrap();
            assert_eq!(ip_b, ip_u, "pivots differ for {m}x{n} nb={nb}");
            assert!(a_b.max_abs_diff(&a_u) < 1e-9, "factors differ for {m}x{n} nb={nb}");
            check_plu(&a0, &a_b, &ip_b, 1e-9 * (m as f64));
        }
    }

    #[test]
    fn recursive_panel_gives_same_result() {
        let mut rng = StdRng::seed_from_u64(32);
        let a0: Matrix = gen::randn(&mut rng, 90, 90);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut ip1 = vec![0; 90];
        let mut ip2 = vec![0; 90];
        getrf(
            a1.view_mut(),
            &mut ip1,
            GetrfOpts { block: 24, panel: PanelAlg::Classic },
            &mut NoObs,
        )
        .unwrap();
        getrf(
            a2.view_mut(),
            &mut ip2,
            GetrfOpts { block: 24, panel: PanelAlg::Recursive },
            &mut NoObs,
        )
        .unwrap();
        assert_eq!(ip1, ip2);
        assert!(a1.max_abs_diff(&a2) < 1e-10);
    }

    #[test]
    fn tall_matrix_blocked() {
        let mut rng = StdRng::seed_from_u64(34);
        let a0 = gen::randn(&mut rng, 200, 60);
        let mut a = a0.clone();
        let mut ipiv = vec![0; 60];
        getrf(a.view_mut(), &mut ipiv, GetrfOpts { block: 16, ..Default::default() }, &mut NoObs)
            .unwrap();
        check_plu(&a0, &a, &ipiv, 1e-9);
    }

    #[test]
    fn singular_error_has_absolute_step() {
        // Construct a matrix whose 3rd column is a copy of the 1st: rank
        // deficiency appears at global step 2 regardless of block size.
        let mut rng = StdRng::seed_from_u64(35);
        let mut a: Matrix = gen::randn(&mut rng, 6, 6);
        for i in 0..6 {
            let v = a[(i, 0)];
            a[(i, 2)] = v;
            a[(i, 1)] = 2.0 * v; // also make col 1 dependent so step is early
        }
        let mut ipiv = vec![0; 6];
        let err = getrf(
            a.view_mut(),
            &mut ipiv,
            GetrfOpts { block: 2, ..Default::default() },
            &mut NoObs,
        )
        .unwrap_err();
        match err {
            crate::Error::SingularPivot { step } => assert!((1..=2).contains(&step), "step {step}"),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
