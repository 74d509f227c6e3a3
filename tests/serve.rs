//! Serving-layer integration tests: the blocked solve path must be
//! **bitwise identical** to the per-column reference at every layer
//! (`getrs_mat` vs `getrs`, `solve_mat` vs `solve`, batched iterative
//! refinement vs standalone), and the failure paths must be honest
//! (`diverged` on hopeless conditioning).

use calu_repro::core::{
    calu_factor, ir_solve, ir_solve_batch, CaluOpts, IrOpts, ServeOpts, SolverService,
};
use calu_repro::matrix::lapack::{getrf, getrs, getrs_mat, GetrfOpts};
use calu_repro::matrix::{gen, Matrix, NoObs, Scalar};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The satellite invariant, generic over precision: solving a `k`-column
/// block must reproduce `k` independent single-RHS `getrs` solves bit for
/// bit — for the blocked `getrs_mat` and for `LuFactors::solve_mat`, at
/// widths that straddle `trsm`'s 16-column base groups and orders that
/// take several recursion splits.
fn block_solve_matches_per_column<T: Scalar>(
    seed: u64,
    n: usize,
    k: usize,
    nb: usize,
) -> std::result::Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Matrix<T> = gen::diag_dominant(&mut rng, n);
    let b: Matrix<T> = gen::randn(&mut rng, n, k);

    let mut lu = a.clone();
    let mut ipiv = vec![0usize; n];
    getrf(
        lu.view_mut(),
        &mut ipiv,
        GetrfOpts { block: nb.min(n), ..Default::default() },
        &mut NoObs,
    )
    .expect("diagonally dominant matrices factor");

    // Reference: k single-column solves.
    let mut want = b.clone();
    for j in 0..k {
        getrs(lu.view(), &ipiv, want.col_mut(j));
    }

    // Blocked getrs_mat on the whole block.
    let mut got = b.clone();
    getrs_mat(lu.view(), &ipiv, got.view_mut());
    for j in 0..k {
        prop_assert_eq!(got.col(j), want.col(j), "getrs_mat col {} (n={} k={})", j, n, k);
    }

    // The same through the CALU-facing wrapper.
    let factors = calu_factor(&a, CaluOpts { block: nb.min(n), ..Default::default() })
        .expect("diagonally dominant matrices factor");
    let mut ref_cols = b.clone();
    for j in 0..k {
        let x = factors.solve(b.col(j));
        ref_cols.col_mut(j).copy_from_slice(&x);
    }
    let mut via_mat = b.clone();
    factors.solve_mat(via_mat.view_mut());
    for j in 0..k {
        prop_assert_eq!(via_mat.col(j), ref_cols.col(j), "solve_mat col {}", j);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_block_solve_bitwise_f64(
        seed in 0u64..1_000_000,
        n in 4usize..96,
        k in 1usize..40,
        nb in 1usize..16,
    ) {
        block_solve_matches_per_column::<f64>(seed, n, k, nb)?;
    }

    #[test]
    fn prop_block_solve_bitwise_f32(
        seed in 0u64..1_000_000,
        n in 4usize..96,
        k in 1usize..40,
        nb in 1usize..16,
    ) {
        block_solve_matches_per_column::<f32>(seed, n, k, nb)?;
    }
}

#[test]
fn ir_batch_columns_match_standalone_ir_solve_bitwise() {
    // Sharing one f32 factorization across the batch must not perturb any
    // column: solution vectors AND the per-step accuracy trajectories are
    // bitwise those of a standalone ir_solve per column.
    let mut rng = StdRng::seed_from_u64(41);
    let n = 96;
    let k = 5;
    let a: Matrix<f64> = gen::diag_dominant(&mut rng, n);
    let b: Matrix<f64> = gen::randn(&mut rng, n, k);
    let opts = IrOpts { calu: CaluOpts { block: 16, ..Default::default() }, ..Default::default() };

    let (x, rep) = ir_solve_batch(&a, &b, opts).unwrap();
    assert_eq!(rep.per_rhs.len(), k);
    for j in 0..k {
        let (xj, rj) = ir_solve(&a, b.col(j), opts).unwrap();
        assert_eq!(x.col(j), &xj[..], "column {j}: solutions must be bitwise identical");
        assert_eq!(rep.per_rhs[j], rj, "column {j}: trajectories must be identical");
    }
    assert!(rep.converged && !rep.diverged);
    assert_eq!(rep.iterations, rep.per_rhs.iter().map(|r| r.iterations).max().unwrap());
}

#[test]
fn ir_solve_surfaces_divergence_on_hopeless_conditioning() {
    // kappa(A) ~ 1e13 makes kappa * eps_f32 >> 1: the f32 correction
    // equation cannot reduce the f64 residual, so the backward error
    // stalls. The report must say `diverged` after the two-strikes rule
    // instead of burning max_iter steps or claiming convergence.
    let mut rng = StdRng::seed_from_u64(42);
    let n = 64;
    let a: Matrix<f64> = gen::randsvd(&mut rng, n, 1e13);
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 4) as f64) - 1.5).collect();
    let b = gen::rhs_for_solution(&a, &x_true);
    let opts = IrOpts { max_iter: 40, ..Default::default() };

    let (_x, rep) = ir_solve(&a, &b, opts).unwrap();
    assert!(rep.diverged, "stalled refinement must be reported: {:?}", rep.steps);
    assert!(!rep.converged);
    assert!(rep.iterations < 40, "divergence must cut the loop short, not exhaust max_iter");
}

#[test]
fn solver_service_facade_roundtrip() {
    // End-to-end through the workspace facade: register, submit a burst,
    // process once, redeem every ticket against the direct solve.
    let mut rng = StdRng::seed_from_u64(43);
    let n = 48;
    let a: Matrix<f64> = gen::diag_dominant(&mut rng, n);
    let opts =
        ServeOpts { calu: CaluOpts { block: 8, ..Default::default() }, ..Default::default() };
    let factors = calu_factor(&a, opts.calu).unwrap();

    let mut svc: SolverService = SolverService::new(opts);
    svc.register(7, a.clone());
    let mut tickets = Vec::new();
    let mut wants = Vec::new();
    for c in 0..9 {
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 7 + c * 13) % 5) as f64 - 2.0).collect();
        wants.push(factors.solve(&rhs));
        tickets.push(svc.submit(7, rhs).unwrap());
    }
    let rep = svc.process();
    assert_eq!(rep.completed, 9);
    assert_eq!(rep.factored, 1, "one burst, one factorization");
    for (t, want) in tickets.into_iter().zip(wants) {
        let got = svc.try_take(t).expect("processed").expect("well-conditioned");
        assert_eq!(got, want, "service result must equal the direct solve bitwise");
    }
    let stats = svc.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
}
