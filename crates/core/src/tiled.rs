//! Tiled shared-memory CALU with lookahead — a thin front-end over the
//! [`calu-runtime`](calu_runtime) task DAG.
//!
//! The paper's future-work section (Section 7) asks about "the suitability
//! of the new ca-pivoting strategy for parallel LU on multicore
//! architectures"; the HPL benchmark it wants to adopt ca-pivoting uses a
//! *look-ahead* schedule. Historically this module hardwired a depth-1
//! lookahead around one `rayon::join`; it now builds the dependency DAG
//! (`Panel`/`Swap`/`Trsm`/`Gemm` tasks) and hands it to the runtime's
//! work-stealing executor with lookahead depth 1, which reproduces the
//! same schedule — while the bulk of the trailing matrix is still being
//! updated for panel `k`, the *next* panel's slice is updated first and
//! its TSLU runs concurrently, hiding the critical path behind the
//! `gemm` — and generalizes it (see [`crate::rt`] for deeper lookahead).
//!
//! Correctness hinges on one commutation: panel `k+1` elects its pivots
//! *before* the rest of the trailing matrix has them applied; applying
//! the row swaps to a block after its update is identical to updating the
//! permuted block, because the update `A22 -= L21·U12` touches rows
//! independently. In DAG form that is the anti-dependence edge from every
//! `Gemm(k, ·, ·)` to the first left-`Swap` of column `k`. The factors
//! are **bitwise identical** to sequential CALU (same tournament tree,
//! same per-column accumulation order), which the tests assert.

use crate::calu::{CaluOpts, LuFactors};
use crate::rt::{runtime_calu_inplace, runtime_calu_tiles, RuntimeOpts};
use calu_matrix::{MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar, TileMatrix};
use calu_runtime::ExecutorKind;

/// Factors a copy of `a` with lookahead-tiled CALU.
///
/// # Errors
/// Singular pivot (exact zero) at the reported absolute step.
pub fn tiled_calu_factor<T: Scalar>(a: &Matrix<T>, opts: CaluOpts) -> Result<LuFactors<T>> {
    let mut lu = a.clone();
    let ipiv = tiled_calu_inplace(lu.view_mut(), opts, &mut NoObs)?;
    Ok(LuFactors { lu, ipiv })
}

/// In-place lookahead-tiled CALU; same contract as
/// [`calu_inplace`](crate::calu::calu_inplace) (the observer's recorded
/// statistics are identical, though events for panel `k+1` may precede the
/// `on_stage` for panel `k`'s bulk update — [`crate::instrument::PivotStats`]
/// is order-free).
///
/// # Errors
/// [`Error::SingularPivot`](calu_matrix::Error::SingularPivot) with the
/// absolute elimination step.
pub fn tiled_calu_inplace<T: Scalar, O: PivotObserver<T> + Send>(
    a: MatViewMut<'_, T>,
    opts: CaluOpts,
    obs: &mut O,
) -> Result<Vec<usize>> {
    let rt = RuntimeOpts { lookahead: 1, executor: ExecutorKind::Threaded { threads: 0 } };
    let (ipiv, _report) = runtime_calu_inplace(a, opts, rt, obs)?;
    Ok(ipiv)
}

/// [`tiled_calu_inplace`] over **tile-major** storage: the same depth-1
/// lookahead schedule on the threaded executor, with task bodies
/// addressing cache-contained tiles of a [`TileMatrix`] instead of
/// strided slices of a flat matrix (see
/// [`runtime_calu_tiles`] for the full
/// engine with executor/depth control). Factors convert back bitwise
/// identical to [`calu_inplace`](crate::calu::calu_inplace).
///
/// # Panics
/// If `a`'s tile dimensions differ from `opts.block`.
///
/// # Errors
/// [`Error::SingularPivot`](calu_matrix::Error::SingularPivot) with the
/// absolute elimination step.
pub fn tiled_calu_tiles<T: Scalar, O: PivotObserver<T> + Send>(
    a: &mut TileMatrix<T>,
    opts: CaluOpts,
    obs: &mut O,
) -> Result<Vec<usize>> {
    let rt = RuntimeOpts { lookahead: 1, executor: ExecutorKind::Threaded { threads: 0 } };
    let (ipiv, _report) = runtime_calu_tiles(a, opts, rt, obs)?;
    Ok(ipiv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calu::calu_factor;
    use crate::instrument::PivotStats;
    use calu_matrix::{gen, Error};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tiled_matches_sequential_bitwise() {
        let mut rng = StdRng::seed_from_u64(131);
        for &(m, n, b, p) in &[
            (96usize, 96usize, 16usize, 4usize),
            (130, 130, 32, 8),
            (64, 64, 64, 4), // single panel: no lookahead at all
            (100, 60, 16, 4),
            (60, 100, 16, 4),
            (97, 97, 16, 3), // ragged tiles
        ] {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            let opts = CaluOpts { block: b, p, ..Default::default() };
            let seq = calu_factor(&a0, opts).unwrap();
            let tiled = tiled_calu_factor(&a0, opts).unwrap();
            assert_eq!(seq.ipiv, tiled.ipiv, "{m}x{n} b={b} p={p}");
            assert_eq!(
                seq.lu.max_abs_diff(&tiled.lu),
                0.0,
                "{m}x{n} b={b} p={p}: factors must be bitwise identical"
            );
        }
    }

    #[test]
    fn tiled_tiles_matches_sequential_bitwise() {
        let mut rng = StdRng::seed_from_u64(135);
        for &(m, n, b, p) in
            &[(96usize, 96usize, 16usize, 4usize), (97, 97, 16, 3), (60, 100, 16, 4)]
        {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            let opts = CaluOpts { block: b, p, ..Default::default() };
            let seq = calu_factor(&a0, opts).unwrap();
            let mut tiles = TileMatrix::from_matrix(&a0, b, b);
            let ipiv = tiled_calu_tiles(&mut tiles, opts, &mut NoObs).unwrap();
            assert_eq!(seq.ipiv, ipiv, "{m}x{n} b={b} p={p}");
            assert_eq!(seq.lu.max_abs_diff(&tiles.to_matrix()), 0.0, "{m}x{n} b={b} p={p}");
        }
    }

    #[test]
    fn tiled_observer_stats_match_sequential() {
        let mut rng = StdRng::seed_from_u64(132);
        let a0 = gen::randn(&mut rng, 120, 120);
        let opts = CaluOpts { block: 24, p: 4, ..Default::default() };

        let mut s_seq = PivotStats::new(a0.max_abs());
        let mut w = a0.clone();
        crate::calu::calu_inplace(w.view_mut(), opts, &mut s_seq).unwrap();

        let mut s_tiled = PivotStats::new(a0.max_abs());
        let mut w2 = a0.clone();
        tiled_calu_inplace(w2.view_mut(), opts, &mut s_tiled).unwrap();

        assert_eq!(s_seq.steps(), s_tiled.steps());
        assert_eq!(s_seq.tau_min(), s_tiled.tau_min(), "order-free stats must agree exactly");
        assert_eq!(s_seq.max_elem, s_tiled.max_elem);
        assert_eq!(s_seq.max_l, s_tiled.max_l);
    }

    #[test]
    fn tiled_solves_correctly() {
        let mut rng = StdRng::seed_from_u64(133);
        let n = 150;
        let a = gen::randn(&mut rng, n, n);
        let xt: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let b = gen::rhs_for_solution(&a, &xt);
        let f = tiled_calu_factor(&a, CaluOpts { block: 32, p: 4, ..Default::default() }).unwrap();
        let x = f.solve(&b);
        for (got, want) in x.iter().zip(&xt) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn tiled_singular_reports_absolute_step() {
        // Rank-1 matrix: the second elimination step must fail whether it
        // is discovered in the looked-ahead panel or the first one.
        let n = 32;
        let a = Matrix::from_fn(n, n, |i, j| ((i + 1) * (j + 1)) as f64);
        let err =
            tiled_calu_factor(&a, CaluOpts { block: 8, p: 4, ..Default::default() }).unwrap_err();
        match err {
            Error::SingularPivot { step } => assert!(step >= 1 && step < n, "step {step}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn tiled_block_bigger_than_matrix() {
        let mut rng = StdRng::seed_from_u64(134);
        let a0: Matrix = gen::randn(&mut rng, 40, 40);
        let opts = CaluOpts { block: 64, p: 4, ..Default::default() };
        let seq = calu_factor(&a0, opts).unwrap();
        let tiled = tiled_calu_factor(&a0, opts).unwrap();
        assert_eq!(seq.ipiv, tiled.ipiv);
        assert_eq!(seq.lu.max_abs_diff(&tiled.lu), 0.0);
    }
}
