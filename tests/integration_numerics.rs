//! Cross-crate integration tests: CALU's numerics against GEPP across
//! shapes, ensembles, and execution flavors.

use calu_repro::core::{
    calu_factor, calu_inplace, gepp_factor, runtime_calu_factor, CaluOpts, LocalLu, PivotStats,
    RuntimeOpts,
};
use calu_repro::matrix::blas3::gemm;
use calu_repro::matrix::perm::{ipiv_to_perm, is_permutation, permute_rows};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::stability::{componentwise_backward_error, hpl_tests};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reconstruction_error(orig: &Matrix, lu: &Matrix, ipiv: &[usize]) -> f64 {
    let perm = ipiv_to_perm(ipiv, orig.rows());
    assert!(is_permutation(&perm));
    let pa = permute_rows(orig, &perm);
    let l = lu.unit_lower();
    let u = lu.upper();
    let mut prod = Matrix::zeros(orig.rows(), orig.cols());
    gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
    pa.max_abs_diff(&prod) / orig.max_abs().max(1.0)
}

#[test]
fn calu_reconstructs_across_ensembles() {
    let mut rng = StdRng::seed_from_u64(1001);
    let n = 120;
    let ensembles: Vec<(&str, Matrix)> = vec![
        ("randn", gen::randn(&mut rng, n, n)),
        ("uniform", gen::uniform(&mut rng, n, n, -1.0, 1.0)),
        ("toeplitz", gen::randn_toeplitz(&mut rng, n)),
        ("diag_dominant", gen::diag_dominant(&mut rng, n)),
    ];
    for (name, a) in ensembles {
        let f = calu_factor(&a, CaluOpts { block: 24, p: 4, ..Default::default() })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let err = reconstruction_error(&a, &f.lu, &f.ipiv);
        assert!(err < 1e-10, "{name}: reconstruction error {err}");
    }
}

#[test]
fn calu_matches_gepp_solution_quality() {
    let mut rng = StdRng::seed_from_u64(1002);
    let n = 200;
    let a: Matrix = gen::randn(&mut rng, n, n);
    let b = gen::hpl_rhs(&mut rng, n);

    let fc = calu_factor(&a, CaluOpts { block: 32, p: 8, ..Default::default() }).unwrap();
    let fg = gepp_factor(&a, 32).unwrap();
    let wc = componentwise_backward_error(&a, &fc.solve(&b), &b);
    let wg = componentwise_backward_error(&a, &fg.solve(&b), &b);
    // "CALU leads to results of the same order of magnitude" (Section 6.1).
    assert!(wc < 100.0 * wg, "CALU wb {wc} vs GEPP wb {wg}");
    assert!(hpl_tests(&a, &fc.solve(&b), &b).passes());
}

#[test]
fn threshold_bound_holds_across_tournament_heights() {
    // The headline stability claim: tau_min stays well above 0 (paper:
    // >= 0.33 over their whole experiment set) and |L| stays small, for
    // every tournament height.
    let mut rng = StdRng::seed_from_u64(1003);
    let n = 128;
    let a = gen::randn(&mut rng, n, n);
    for p in [1usize, 2, 4, 8, 16] {
        let mut stats = PivotStats::new(a.max_abs());
        let mut w = a.clone();
        calu_inplace(w.view_mut(), CaluOpts { block: 16, p, ..Default::default() }, &mut stats)
            .unwrap();
        assert!(stats.tau_min() > 0.15, "p={p}: tau_min {}", stats.tau_min());
        assert!(stats.max_l < 1.0 / stats.tau_min() + 1e-9, "|L| <= 1/tau_min");
        if p == 1 {
            assert!((stats.tau_min() - 1.0).abs() < 1e-12, "p=1 is partial pivoting");
        }
    }
}

#[test]
fn all_three_flavors_agree() {
    // Sequential, task-runtime parallel: identical factors. (The simulated
    // distributed flavor is exercised in integration_dist.rs.)
    let mut rng = StdRng::seed_from_u64(1004);
    let a: Matrix = gen::randn(&mut rng, 150, 150);
    let opts = CaluOpts { block: 25, p: 5, local: LocalLu::Recursive, ..Default::default() };
    let f_seq = calu_factor(&a, opts).unwrap();
    let (f_par, _report) = runtime_calu_factor(&a, opts, RuntimeOpts::default()).unwrap();
    assert_eq!(f_seq.ipiv, f_par.ipiv);
    assert_eq!(f_seq.lu.max_abs_diff(&f_par.lu), 0.0);
}

#[test]
fn rectangular_matrices_factor() {
    let mut rng = StdRng::seed_from_u64(1005);
    for &(m, n) in &[(100usize, 60usize), (60, 100), (128, 32)] {
        let a = gen::randn(&mut rng, m, n);
        let f = calu_factor(&a, CaluOpts { block: 16, p: 4, ..Default::default() }).unwrap();
        let err = reconstruction_error(&a, &f.lu, &f.ipiv);
        assert!(err < 1e-11, "{m}x{n}: {err}");
    }
}

#[test]
fn singular_matrix_reports_error() {
    let mut a = Matrix::zeros(8, 8);
    // Rank 1: every pivot after the first is zero.
    for i in 0..8 {
        for j in 0..8 {
            a[(i, j)] = ((i + 1) * (j + 1)) as f64;
        }
    }
    let err = calu_factor(&a, CaluOpts { block: 4, p: 2, ..Default::default() }).unwrap_err();
    assert!(matches!(err, calu_repro::matrix::Error::SingularPivot { .. }));
}

#[test]
fn wilkinson_growth_matches_theory_for_gepp_and_calu() {
    // The classical worst case: growth 2^(n-1). ca-pivoting reproduces it
    // (it picks the same pivots here), a useful negative control showing
    // the growth instrumentation is real.
    let n = 24;
    let a = gen::wilkinson(n);
    let mut stats = PivotStats::new(a.max_abs());
    let mut w = a.clone();
    calu_inplace(w.view_mut(), CaluOpts { block: 8, p: 4, ..Default::default() }, &mut stats)
        .unwrap();
    assert!(stats.max_elem >= 2f64.powi(n as i32 - 1) * 0.99, "growth {}", stats.max_elem);
}
