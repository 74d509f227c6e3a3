//! Mixed-precision integration tests: the `f32` instantiation of the
//! kernel stack (tolerances scaled to `f32::EPSILON`), bitwise identity
//! of runtime-scheduled `f32` CALU against sequential `f32` CALU on both
//! executors, and the `ir_solve` convergence / failure contracts.

use calu_repro::core::{
    calu_factor, ir_solve, runtime_calu_factor, CaluOpts, IrOpts, LocalLu, RuntimeOpts,
};
use calu_repro::matrix::blas3::{gemm, gemm_naive};
use calu_repro::matrix::lapack::{getf2, getrf, GetrfOpts};
use calu_repro::matrix::perm::{ipiv_to_perm, permute_rows};
use calu_repro::matrix::{gen, Error, Matrix, NoObs, Scalar};
use calu_repro::runtime::ExecutorKind;
use calu_repro::stability::hpl_tests;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn randn32(seed: u64, m: usize, n: usize) -> Matrix<f32> {
    gen::randn(&mut StdRng::seed_from_u64(seed), m, n)
}

/// Reconstruction check at precision `T`: `||P A − L U||_max` below a
/// tolerance that scales with the precision's epsilon and the problem
/// size (the same shape the `f64` tests use, with `ε_T` substituted).
fn check_plu<T: Scalar>(orig: &Matrix<T>, lu: &Matrix<T>, ipiv: &[usize], n_scale: f64) {
    let perm = ipiv_to_perm(ipiv, orig.rows());
    let pa = permute_rows(orig, &perm);
    let l = lu.unit_lower();
    let u = lu.upper();
    let mut prod = Matrix::zeros(orig.rows(), orig.cols());
    gemm(T::ONE, l.view(), u.view(), T::ZERO, prod.view_mut());
    let d = pa.max_abs_diff(&prod).to_f64();
    let tol = 64.0 * T::EPSILON.to_f64() * n_scale * orig.max_abs().to_f64().max(1.0);
    assert!(d < tol, "||P A − L U||_max = {d} > {tol} at {}", T::NAME);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_f32_gemm_matches_naive(
        seed in 0u64..1_000_000,
        m in 1usize..48,
        k in 1usize..32,
        n in 1usize..48,
    ) {
        let a = randn32(seed, m, k);
        let b = randn32(seed ^ 0xb10c, k, n);
        let c0 = randn32(seed ^ 0xc0de, m, n);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        gemm(1.5f32, a.view(), b.view(), -0.5, c1.view_mut());
        gemm_naive(1.5f32, a.view(), b.view(), -0.5, c2.view_mut());
        let d = c1.max_abs_diff(&c2) as f64;
        prop_assert!(d < 1e-4 * k as f64, "blocked vs naive f32 gemm differ by {d}");
    }

    #[test]
    fn prop_f32_getf2_reconstructs(
        seed in 0u64..1_000_000,
        m in 2usize..48,
        n in 1usize..24,
    ) {
        let a0 = randn32(seed, m, n.min(m));
        let mut a = a0.clone();
        let mut ipiv = vec![0usize; a0.rows().min(a0.cols())];
        getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        check_plu(&a0, &a, &ipiv, m as f64);
    }

    #[test]
    fn prop_f32_getrf_matches_f32_getf2_pivots(
        seed in 0u64..1_000_000,
        n in 4usize..48,
        nb in 1usize..16,
    ) {
        let a0 = randn32(seed, n, n);
        let mut ab = a0.clone();
        let mut au = a0.clone();
        let mut ip_b = vec![0usize; n];
        let mut ip_u = vec![0usize; n];
        getrf(ab.view_mut(), &mut ip_b, GetrfOpts { block: nb, ..Default::default() }, &mut NoObs)
            .unwrap();
        getf2(au.view_mut(), &mut ip_u, &mut NoObs).unwrap();
        prop_assert_eq!(ip_b, ip_u, "f32 blocked/unblocked pivots differ");
        let d = ab.max_abs_diff(&au) as f64;
        prop_assert!(d < 1e-3, "f32 blocked/unblocked factors differ by {d}");
    }

    #[test]
    fn prop_f32_calu_reconstructs(
        seed in 0u64..1_000_000,
        n in 8usize..64,
        b in 1usize..16,
        p in 1usize..6,
    ) {
        let a = randn32(seed, n, n);
        let f = calu_factor(&a, CaluOpts { block: b, p, ..Default::default() }).unwrap();
        check_plu(&a, &f.lu, &f.ipiv, n as f64);
    }

    #[test]
    fn prop_ir_solve_converges_on_well_conditioned_ensembles(
        seed in 0u64..1_000_000,
        n in 16usize..96,
    ) {
        // Seeded well-conditioned ensemble (random normal square matrices
        // at these orders have κ ~ n, far below 1/ε_f32) with an
        // HPL-style uniform rhs.
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Matrix = gen::randn(&mut rng, n, n);
        let b: Vec<f64> = gen::hpl_rhs(&mut rng, n);
        let opts = IrOpts { calu: CaluOpts { block: 16, p: 4, ..Default::default() }, ..Default::default() };
        let (x, report) = ir_solve(&a, &b, opts).unwrap();

        // The acceptance criterion: the f64 HPL gate (all three residuals
        // < 16) passes within at most 5 refinement steps.
        prop_assert!(report.converged, "ir_solve did not converge: {:?}", report.steps);
        prop_assert!(report.iterations <= 5, "took {} refinement steps", report.iterations);

        // The reported trajectory matches an independent recomputation of
        // the gate, and refinement actually reduced the backward error
        // from the raw f32 solve.
        let gate = hpl_tests(&a, &x, &b);
        prop_assert!(gate.passes(), "independent HPL check failed: {gate:?}");
        let first = report.steps.first().unwrap().backward_error;
        let last = report.final_backward_error();
        prop_assert!(last <= first, "refinement worsened backward error: {first} -> {last}");
        // Final backward error is at f64 roundoff scale, far below f32's.
        prop_assert!(last < 1e-10, "final backward error {last} not full precision");
    }
}

#[test]
fn f32_runtime_calu_bitwise_matches_sequential_all_depths_and_executors() {
    let mut rng = StdRng::seed_from_u64(77);
    for &(m, n, b, p) in
        &[(96usize, 96usize, 16usize, 4usize), (100, 60, 16, 4), (60, 100, 16, 4), (97, 97, 16, 3)]
    {
        let a: Matrix<f32> = gen::randn(&mut rng, m, n);
        let opts = CaluOpts { block: b, p, local: LocalLu::Recursive, ..Default::default() };
        let seq = calu_factor(&a, opts).unwrap();
        for depth in 1..=3 {
            for executor in [
                ExecutorKind::Serial,
                ExecutorKind::Threaded { threads: 2 },
                ExecutorKind::Threaded { threads: 4 },
            ] {
                let rt = RuntimeOpts { lookahead: depth, executor };
                let (f, _rep) = runtime_calu_factor(&a, opts, rt).unwrap();
                assert_eq!(seq.ipiv, f.ipiv, "{m}x{n} d={depth} {executor:?}");
                assert_eq!(
                    seq.lu.max_abs_diff(&f.lu),
                    0.0,
                    "{m}x{n} d={depth} {executor:?}: f32 factors must be bitwise identical"
                );
            }
        }
    }
}

#[test]
fn f32_ensembles_are_rounded_f64_ensembles() {
    // Same seed, both precisions: the f32 draw must be exactly the f64
    // draw rounded — the property cross-precision comparisons rely on.
    let a64: Matrix<f64> = gen::randn(&mut StdRng::seed_from_u64(9), 20, 20);
    let a32: Matrix<f32> = gen::randn(&mut StdRng::seed_from_u64(9), 20, 20);
    assert_eq!(a64.cast::<f32>(), a32);
}

#[test]
fn ir_solve_singular_f32_panel_surfaces_singular_pivot() {
    // Exact rank deficiency survives rounding to f32: the zero columns
    // stay zero, so the f32 panel factorization hits a dead pivot. The
    // contract: Error::SingularPivot at the rank (absolute step), the
    // runtime cancels dependents, and the call returns — no hang, no
    // wrong answer.
    let n = 48;
    let r = 20;
    let mut rng = StdRng::seed_from_u64(4242);
    let base: Matrix = gen::randn(&mut rng, n, r);
    let a = Matrix::from_fn(n, n, |i, j| if j < r { base[(i, j)] } else { 0.0 });
    let b = vec![1.0_f64; n];
    for executor in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }] {
        let opts = IrOpts {
            calu: CaluOpts { block: 8, p: 4, ..Default::default() },
            rt: RuntimeOpts { lookahead: 2, executor },
            max_iter: 4,
        };
        let err = ir_solve(&a, &b, opts).unwrap_err();
        assert_eq!(err, Error::SingularPivot { step: r }, "{executor:?}");
    }
}

#[test]
fn ir_solve_zero_iterations_cap_still_reports_trajectory() {
    // max_iter = 0: one raw f32 solve, one accuracy record, no panic.
    let mut rng = StdRng::seed_from_u64(11);
    let n = 32;
    let a: Matrix = gen::diag_dominant(&mut rng, n);
    let b: Vec<f64> = gen::hpl_rhs(&mut rng, n);
    let opts = IrOpts { max_iter: 0, ..Default::default() };
    let (_x, report) = ir_solve(&a, &b, opts).unwrap();
    assert_eq!(report.steps.len(), 1);
    assert_eq!(report.iterations, 0);
}

#[test]
fn ir_solve_zero_rhs_converges_immediately() {
    // b = 0 means x = 0 exactly: the gate must report [0, 0, 0] (exact
    // solve), not 0/0 NaNs that can never pass.
    let mut rng = StdRng::seed_from_u64(31);
    let n = 24;
    let a: Matrix = gen::diag_dominant(&mut rng, n);
    let b = vec![0.0_f64; n];
    let (x, report) = ir_solve(&a, &b, IrOpts::default()).unwrap();
    assert!(x.iter().all(|&v| v == 0.0));
    assert!(report.converged, "exactly-solved system must pass the gate: {:?}", report.steps);
    assert_eq!(report.iterations, 0);
    assert_eq!(report.steps[0].hpl, [0.0; 3]);
}

#[test]
fn f32_hpl_gate_uses_f32_epsilon() {
    // A converged f32 solve passes the f32-parameterized gate: the gate
    // formula asks for error ~ O(ε_T), not O(ε_f64).
    let mut rng = StdRng::seed_from_u64(21);
    let n = 64;
    let a: Matrix<f32> = gen::randn(&mut rng, n, n);
    let b: Vec<f32> = gen::hpl_rhs(&mut rng, n);
    let f = calu_factor(&a, CaluOpts { block: 16, p: 4, ..Default::default() }).unwrap();
    let x = f.solve(&b);
    let rep = hpl_tests(&a, &x, &b);
    assert!(rep.passes(), "f32 solve must pass the f32 gate: {rep:?}");
}
