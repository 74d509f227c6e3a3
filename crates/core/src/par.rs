//! Shared-memory parallel CALU — a thin front-end over the
//! [`calu-runtime`](calu_runtime) task DAG.
//!
//! The paper's future-work section asks about "the suitability of the new
//! ca-pivoting strategy for parallel LU on multicore architectures"; this
//! module is that variant: the factorization runs on the runtime's
//! work-stealing threaded executor — tiles of the trailing update, each
//! panel's leaf elections and its chunks of `L₂₁` all spread across
//! workers as tasks. The numerics are bitwise identical to the sequential
//! [`crate::calu`] path (same tournament tree, same per-element
//! accumulation order), which the tests assert.

use crate::calu::{CaluOpts, LuFactors};
use crate::rt::{runtime_calu_inplace, RuntimeOpts};
use calu_matrix::{MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar};
use calu_runtime::ExecutorKind;

/// Factors a copy of `a` with CALU on the threaded runtime.
///
/// # Errors
/// Singular pivot.
pub fn par_calu_factor<T: Scalar>(a: &Matrix<T>, opts: CaluOpts) -> Result<LuFactors<T>> {
    let mut lu = a.clone();
    let ipiv = par_calu_inplace(lu.view_mut(), opts, &mut NoObs)?;
    Ok(LuFactors { lu, ipiv })
}

/// In-place parallel CALU; see [`par_calu_factor`].
///
/// # Errors
/// Singular pivot.
pub fn par_calu_inplace<T: Scalar, O: PivotObserver<T> + Send>(
    a: MatViewMut<'_, T>,
    opts: CaluOpts,
    obs: &mut O,
) -> Result<Vec<usize>> {
    let rt = RuntimeOpts { lookahead: 1, executor: ExecutorKind::Threaded { threads: 0 } };
    let (ipiv, _report) = runtime_calu_inplace(a, opts, rt, obs)?;
    Ok(ipiv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calu::{calu_factor, CaluOpts};
    use calu_matrix::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_calu_matches_sequential_bitwise() {
        let mut rng = StdRng::seed_from_u64(121);
        for &(n, b, p) in &[(96, 16, 4), (130, 32, 8), (64, 64, 4)] {
            let a0: Matrix = gen::randn(&mut rng, n, n);
            let opts = CaluOpts { block: b, p, ..Default::default() };
            let seq = calu_factor(&a0, opts).unwrap();
            let par = par_calu_factor(&a0, opts).unwrap();
            assert_eq!(seq.ipiv, par.ipiv, "n={n} b={b} p={p}");
            assert_eq!(
                seq.lu.max_abs_diff(&par.lu),
                0.0,
                "factors must be bitwise identical (deterministic tree + update)"
            );
        }
    }

    #[test]
    fn parallel_calu_solves() {
        let mut rng = StdRng::seed_from_u64(122);
        let n = 100;
        let a = gen::randn(&mut rng, n, n);
        let xt: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let b = gen::rhs_for_solution(&a, &xt);
        let f = par_calu_factor(&a, CaluOpts { block: 20, p: 4, ..Default::default() }).unwrap();
        let x = f.solve(&b);
        for (a, b) in x.iter().zip(&xt) {
            assert!((a - b).abs() < 1e-7);
        }
    }
}
