//! A miniature HPL-style acceptance driver (Section 6.1): generate the
//! benchmark's random system, factor it with CALU and with GEPP, solve,
//! iteratively refine, and judge both against HPL's three residual gates —
//! the workflow behind the paper's suggestion that ca-pivoting "could be
//! used for evaluating the performance of parallel computers".
//!
//! Run: `cargo run --release --example hpl_driver [n]`

use calu_repro::core::{calu_factor, gepp_factor, CaluOpts, LocalLu, LuFactors};
use calu_repro::matrix::gen;
use calu_repro::matrix::lapack::{gecon, getrf, GetrfOpts};
use calu_repro::matrix::norms::mat_norm_1;
use calu_repro::matrix::{Matrix, NoObs};
use calu_repro::stability::{componentwise_backward_error, hpl_tests};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn acceptance(name: &str, a: &Matrix, rhs: &[f64], factor: impl FnOnce() -> LuFactors) {
    let n = a.rows();
    let t0 = Instant::now();
    let f = factor();
    let dt = t0.elapsed().as_secs_f64();
    let x = f.solve(rhs);
    let hpl = hpl_tests(a, &x, rhs);
    let wb = componentwise_backward_error(a, &x, rhs);
    let (x2, info) = f.solve_refined(a, rhs, 2);
    let wb2 = componentwise_backward_error(a, &x2, rhs);
    let flops = 2.0 / 3.0 * (n as f64).powi(3);
    println!("\n== {name}");
    println!("   factor time {dt:.3}s  ({:.2} GFLOP/s host wall-clock)", flops / dt / 1e9);
    println!(
        "   HPL1 {:.3e}  HPL2 {:.3e}  HPL3 {:.3e}  ->  {}",
        hpl.hpl1,
        hpl.hpl2,
        hpl.hpl3,
        if hpl.passes() { "PASSED (all < 16)" } else { "FAILED" }
    );
    println!("   componentwise backward error: {wb:.3e}");
    println!(
        "   after {} refinement step(s): {wb2:.3e}  (residual {:.3e})",
        info.iterations, info.final_residual
    );
    assert!(hpl.passes(), "{name} must pass the HPL gates");
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1024);
    let b = (n / 16).clamp(32, 128);
    let mut rng = StdRng::seed_from_u64(77);

    println!("HPL-style acceptance run, n = {n} (block b = {b})\n");
    let a = gen::randn(&mut rng, n, n);
    let rhs = gen::hpl_rhs(&mut rng, n);

    // Condition estimate first (cheap: one factorization + O(n^2) solves).
    let anorm = mat_norm_1(a.view());
    let mut lu = a.clone();
    let mut ipiv = vec![0usize; n];
    getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
    let rcond = gecon(lu.view(), &ipiv, anorm);
    println!("estimated kappa_1(A) = {:.2e}  (rcond {rcond:.2e})", 1.0 / rcond);

    acceptance("CALU (ca-pivoting, 8-way tournament)", &a, &rhs, || {
        calu_factor(
            &a,
            CaluOpts { block: b, p: 8, local: LocalLu::Recursive, ..Default::default() },
        )
        .unwrap()
    });
    acceptance("GEPP (partial pivoting)", &a, &rhs, || gepp_factor(&a, b).unwrap());
}
