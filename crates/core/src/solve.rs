//! Linear solves from packed factors, with HPL-style iterative refinement —
//! including the mixed-precision path ([`ir_solve`]): factor once in `f32`
//! on the task-graph runtime, then refine residuals in `f64` until the HPL
//! accuracy gate passes.

use crate::calu::{CaluOpts, LuFactors};
use crate::rt::{runtime_calu_inplace, RuntimeOpts};
use calu_matrix::blas2::gemv;
use calu_matrix::lapack::{getrs, getrs_mat};
use calu_matrix::norms::{
    hpl_residuals_from_norms, mat_norm_1, mat_norm_inf, vec_norm_1, vec_norm_inf,
};
use calu_matrix::scalar::cast_slice;
use calu_matrix::{MatViewMut, Matrix, NoObs, Result, Scalar};

/// Report from [`LuFactors::solve_refined`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefineInfo {
    /// Refinement steps actually performed.
    pub iterations: usize,
    /// Scaled residual `||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)`
    /// after the final step.
    pub final_residual: f64,
}

impl<T: Scalar> LuFactors<T> {
    /// Problem size (factors must be square to solve).
    pub(crate) fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    /// If the factors are not square or `b` has the wrong length.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        getrs(self.lu.view(), &self.ipiv, &mut x);
        x
    }

    /// Solves `A X = B` for multiple right-hand sides in place.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn solve_mat(&self, b: MatViewMut<'_, T>) {
        getrs_mat(self.lu.view(), &self.ipiv, b);
    }

    /// Solves with iterative refinement in working precision (the HPL
    /// driver refines until the scaled residual passes; the paper notes
    /// "usually after 2 iterative refinements the componentwise backward
    /// error is reduced to the order of 10^-16").
    ///
    /// `a` must be the original (unfactored) matrix.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn solve_refined(&self, a: &Matrix<T>, b: &[T], max_iter: usize) -> (Vec<T>, RefineInfo) {
        let n = self.order();
        assert_eq!(a.rows(), n);
        assert_eq!(a.cols(), n);
        assert_eq!(b.len(), n);

        let norm_a = mat_norm_inf(a.view());
        let norm_b = vec_norm_inf(b);
        let mut x = self.solve(b);
        let mut r = vec![T::ZERO; n];
        let mut iterations = 0;
        let mut final_residual = f64::INFINITY;

        for it in 0..=max_iter {
            // r = b - A x.
            r.copy_from_slice(b);
            gemv(-T::ONE, a.view(), &x, T::ONE, &mut r);
            let denom = norm_a * vec_norm_inf(&x) + norm_b;
            final_residual =
                if denom > T::ZERO { (vec_norm_inf(&r) / denom).to_f64() } else { 0.0 };
            iterations = it;
            // The convergence target scales with the working precision's
            // unit roundoff — n·ε_T, not n·ε_f64.
            let target = n as f64 * T::EPSILON.to_f64();
            if final_residual <= target || it == max_iter {
                break;
            }
            let dx = self.solve(&r);
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += *di;
            }
        }
        (x, RefineInfo { iterations, final_residual })
    }
}

/// Options for the mixed-precision iterative-refinement solver
/// [`ir_solve`].
#[derive(Debug, Clone, Copy)]
pub struct IrOpts {
    /// CALU tuning for the low-precision factorization.
    pub calu: CaluOpts,
    /// Task-graph runtime configuration driving the `f32` factorization
    /// (executor choice and lookahead depth).
    pub rt: RuntimeOpts,
    /// Maximum refinement steps after the initial solve.
    pub max_iter: usize,
}

impl Default for IrOpts {
    fn default() -> Self {
        Self { calu: CaluOpts::default(), rt: RuntimeOpts::default(), max_iter: 10 }
    }
}

/// One refinement step's accuracy record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrStep {
    /// Normwise backward error
    /// `||b − Ax||_inf / (||A||_inf ||x||_inf + ||b||_inf)` at this step.
    pub backward_error: f64,
    /// The three HPL residuals `[HPL1, HPL2, HPL3]` at this step
    /// (ε = `f64::EPSILON`; the gate passes when all three are < 16).
    pub hpl: [f64; 3],
}

impl IrStep {
    /// HPL's pass criterion: all three residuals below 16.
    pub(crate) fn passes_hpl(&self) -> bool {
        self.hpl.iter().all(|&h| h < 16.0)
    }
}

/// Report from [`ir_solve`]: the per-iteration backward-error trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct IrReport {
    /// Refinement steps actually performed (0 = the initial `f32` solve
    /// already passed the gate).
    pub iterations: usize,
    /// Accuracy record per candidate solution: `steps[0]` is the raw
    /// low-precision solve, `steps[k]` the solution after `k` corrections.
    pub steps: Vec<IrStep>,
    /// `true` when the final solution passes the full-precision HPL gate.
    pub converged: bool,
    /// `true` when refinement was cut short because the backward error
    /// failed to improve on two consecutive steps — the classical signal
    /// that `κ(A)·ε_f32 ≳ 1` and the low-precision correction equation
    /// can no longer reduce the residual; the trajectory in
    /// [`Self::steps`] shows where the stall began.
    pub diverged: bool,
}

impl IrReport {
    /// Backward error of the final solution.
    pub fn final_backward_error(&self) -> f64 {
        self.steps.last().map_or(f64::INFINITY, |s| s.backward_error)
    }
}

/// Mixed-precision solve of `A x = b`: CALU-factor a *rounded `f32` copy*
/// of `A` on the task-graph runtime (half the factorization flop cost and
/// memory traffic of `f64`), then iteratively refine in `f64` — compute
/// the residual `r = b − Ax` at full precision, solve the correction
/// `A d = r` with the cheap `f32` factors, update `x += d` — until the
/// full-precision HPL accuracy gate passes (all three residuals < 16) or
/// `opts.max_iter` corrections have been spent.
///
/// This is the classical `SGETRF`+`DGEMV` iterative-refinement scheme
/// (Langou et al. 2006) rebuilt on this repo's communication-avoiding
/// stack: the factorization — the `O(n³)` part — runs at the fast
/// precision on the runtime DAG with tournament pivoting, while each
/// refinement step costs only `O(n²)`. For matrices with
/// `κ(A) « 1/ε_f32 ≈ 10⁷` a handful of steps recovers full `f64`
/// accuracy; the per-iteration trajectory is reported so callers can see
/// the convergence rate of ~`ε_f32` per step. It is [`ir_solve_batch`] on
/// a one-column `B`.
///
/// # Errors
/// [`calu_matrix::Error::SingularPivot`] when the rounded-to-`f32` matrix
/// is exactly singular at some elimination step (e.g. structured matrices
/// whose rank collapses under rounding); the runtime cancels all
/// dependent tasks and surfaces the absolute step.
///
/// # Panics
/// If `a` is not square or `b.len() != a.rows()`.
pub fn ir_solve(a: &Matrix<f64>, b: &[f64], opts: IrOpts) -> Result<(Vec<f64>, IrReport)> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "ir_solve: A must be square");
    assert_eq!(b.len(), n, "ir_solve: rhs length mismatch");
    let (x, mut report) = ir_solve_batch(a, &Matrix::from_col_major(n, 1, b.to_vec()), opts)?;
    Ok((x.col(0).to_vec(), report.per_rhs.swap_remove(0)))
}

/// Report from [`ir_solve_batch`]: the whole-batch outcome plus one full
/// [`IrReport`] per right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub struct IrBatchReport {
    /// Per-column refinement reports, in `B`'s column order. Each is
    /// **bitwise identical** to what [`ir_solve`] reports for that column
    /// alone — batching changes the cost, not the numbers.
    pub per_rhs: Vec<IrReport>,
    /// Refinement steps of the slowest column.
    pub iterations: usize,
    /// `true` when every column passed the HPL gate.
    pub converged: bool,
    /// `true` when any column hit the divergence stop.
    pub diverged: bool,
}

/// Batched [`ir_solve`]: one `f32` CALU factorization on the runtime DAG
/// shared across all columns of `B`, with the initial solves and every
/// refinement correction executed as one blocked multi-RHS
/// [`LuFactors::solve_mat`] instead of per-column solves. Columns converge
/// (or diverge) independently: finished columns are frozen and drop out of
/// subsequent correction batches.
///
/// Each column's solution and its [`IrReport`] trajectory are **bitwise
/// identical** to a standalone [`ir_solve`] of that column — by the blocked
/// `trsm`'s line-independence contract a column's bits do not depend on
/// the batch that carried it, so amortizing the factorization is free of
/// numerical drift.
///
/// # Errors
/// [`calu_matrix::Error::SingularPivot`] from the shared factorization,
/// exactly as [`ir_solve`].
///
/// # Panics
/// If `a` is not square or `b.rows() != a.rows()`.
pub fn ir_solve_batch(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    opts: IrOpts,
) -> Result<(Matrix<f64>, IrBatchReport)> {
    let n = a.rows();
    let k = b.cols();
    assert_eq!(a.cols(), n, "ir_solve_batch: A must be square");
    assert_eq!(b.rows(), n, "ir_solve_batch: rhs rows mismatch");

    // One factorization for the whole batch — the amortized O(n³) part —
    // in place on the cast, which is already a fresh copy.
    let mut lu: Matrix<f32> = a.cast();
    let (ipiv, _exec) = runtime_calu_inplace(lu.view_mut(), opts.calu, opts.rt, &mut NoObs)?;
    let f32_factors = LuFactors { lu, ipiv };

    let mut report = IrBatchReport {
        per_rhs: Vec::with_capacity(k),
        iterations: 0,
        converged: true,
        diverged: false,
    };
    let mut x = Matrix::<f64>::zeros(n, k);
    if k == 0 {
        return Ok((x, report));
    }

    // Initial solves, all columns in one blocked pass.
    let mut x32: Matrix<f32> = b.cast();
    f32_factors.solve_mat(x32.view_mut());
    for c in 0..k {
        let promoted: Vec<f64> = cast_slice(x32.col(c));
        x.col_mut(c).copy_from_slice(&promoted);
    }

    let norm_a1 = mat_norm_1(a.view());
    let norm_ainf = mat_norm_inf(a.view());
    // Per-column refinement state; `active` columns still iterate.
    struct ColState {
        steps: Vec<IrStep>,
        non_improving: usize,
        converged: bool,
        diverged: bool,
    }
    let mut cols: Vec<ColState> = (0..k)
        .map(|_| ColState {
            steps: Vec::with_capacity(opts.max_iter + 1),
            non_improving: 0,
            converged: false,
            diverged: false,
        })
        .collect();
    let mut r = vec![0.0_f64; n];

    for it in 0..=opts.max_iter {
        // Residual + accuracy record for every still-active column, then
        // gather the survivors' residuals for one batched correction.
        let mut active: Vec<usize> = Vec::new();
        let mut r32 = Vec::<f32>::new();
        for (c, st) in cols.iter_mut().enumerate() {
            if st.converged || st.diverged {
                continue;
            }
            let bc = b.col(c);
            let xc = x.col(c);
            r.copy_from_slice(bc);
            gemv(-1.0, a.view(), xc, 1.0, &mut r);
            let r_inf = vec_norm_inf(&r);
            let denom = norm_ainf * vec_norm_inf(xc) + vec_norm_inf(bc);
            let backward_error = if denom > 0.0 { r_inf / denom } else { 0.0 };
            let hpl = hpl_residuals_from_norms(
                n,
                r_inf,
                norm_a1,
                norm_ainf,
                vec_norm_1(xc),
                vec_norm_inf(xc),
                f64::EPSILON,
            );
            let step = IrStep { backward_error, hpl };
            let passed = step.passes_hpl();
            // Divergence watch: when κ(A)·ε_f32 ≳ 1 the f32 factors can't
            // reduce the residual and each "correction" random-walks or
            // grows the error; two consecutive steps that fail to improve
            // on their predecessor stop the column instead of burning the
            // remaining budget (one flat step alone is common near
            // convergence, so a single miss is tolerated and the streak
            // resets on improvement).
            if let Some(prev) = st.steps.last() {
                if backward_error >= prev.backward_error {
                    st.non_improving += 1;
                } else {
                    st.non_improving = 0;
                }
            }
            st.steps.push(step);
            if passed {
                st.converged = true;
                continue;
            }
            if st.non_improving >= 2 {
                st.diverged = true;
                continue;
            }
            if it == opts.max_iter {
                continue;
            }
            active.push(c);
            r32.extend(cast_slice::<f64, f32>(&r));
        }
        if active.is_empty() {
            break;
        }
        // Batched correction: D = A⁻¹ R for the active columns only.
        let mut d32 = Matrix::from_col_major(n, active.len(), r32);
        f32_factors.solve_mat(d32.view_mut());
        for (slot, &c) in active.iter().enumerate() {
            let d: Vec<f64> = cast_slice(d32.col(slot));
            for (xi, di) in x.col_mut(c).iter_mut().zip(&d) {
                *xi += di;
            }
        }
    }

    for st in cols {
        let iterations = st.steps.len() - 1;
        report.iterations = report.iterations.max(iterations);
        report.converged &= st.converged;
        report.diverged |= st.diverged;
        report.per_rhs.push(IrReport {
            iterations,
            steps: st.steps,
            converged: st.converged,
            diverged: st.diverged,
        });
    }
    Ok((x, report))
}

#[cfg(test)]
mod tests {
    use crate::calu::{calu_factor, CaluOpts};
    use crate::gepp::gepp_factor;
    use calu_matrix::gen;
    use calu_matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calu_solve_recovers_solution() {
        let mut rng = StdRng::seed_from_u64(111);
        let n = 80;
        let a = gen::randn(&mut rng, n, n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let b = gen::rhs_for_solution(&a, &x_true);
        let f = calu_factor(&a, CaluOpts { block: 16, p: 4, ..Default::default() }).unwrap();
        let x = f.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7, "{xi} vs {ti}");
        }
    }

    #[test]
    fn refinement_improves_residual() {
        let mut rng = StdRng::seed_from_u64(112);
        let n = 120;
        let a: Matrix = gen::randn(&mut rng, n, n);
        let b = gen::hpl_rhs(&mut rng, n);
        let f = calu_factor(&a, CaluOpts { block: 24, p: 4, ..Default::default() }).unwrap();
        let (_x, info) = f.solve_refined(&a, &b, 2);
        assert!(
            info.final_residual <= n as f64 * f64::EPSILON * 10.0,
            "residual {} too large",
            info.final_residual
        );
    }

    #[test]
    fn calu_and_gepp_solutions_agree() {
        let mut rng = StdRng::seed_from_u64(113);
        let n = 64;
        let a: Matrix = gen::randn(&mut rng, n, n);
        let b = gen::hpl_rhs(&mut rng, n);
        let fc = calu_factor(&a, CaluOpts { block: 8, p: 8, ..Default::default() }).unwrap();
        let fg = gepp_factor(&a, 8).unwrap();
        let xc = fc.solve(&b);
        let xg = fg.solve(&b);
        let scale = calu_matrix::norms::vec_norm_inf(&xg).max(1.0);
        for (c, g) in xc.iter().zip(&xg) {
            assert!((c - g).abs() / scale < 1e-9, "{c} vs {g}");
        }
    }
}
