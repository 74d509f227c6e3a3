//! Mini-HPL: the accuracy gate the paper borrows from the LINPACK
//! benchmark (Section 6.1). Generates an HPL-style system, factors it with
//! CALU, solves with iterative refinement, and reports the three scaled
//! residuals — the run "passes" if all are below 16.
//!
//! Run: `cargo run --release --example hpl_accuracy [n]`

use calu_repro::core::{calu_inplace, CaluOpts, LuFactors, PivotStats};
use calu_repro::matrix::gen;
use calu_repro::stability::{componentwise_backward_error, hpl_tests};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1024);
    let mut rng = StdRng::seed_from_u64(42);

    println!("mini-HPL with CALU, n = {n}");
    let a = gen::randn(&mut rng, n, n);
    let b = gen::hpl_rhs(&mut rng, n);

    let mut stats = PivotStats::new(a.max_abs());
    let mut lu = a.clone();
    let t0 = std::time::Instant::now();
    let ipiv = calu_inplace(
        lu.view_mut(),
        CaluOpts { block: 64.min(n / 4).max(1), p: 8, ..Default::default() },
        &mut stats,
    )
    .expect("nonsingular");
    let t_factor = t0.elapsed().as_secs_f64();
    let f = LuFactors { lu, ipiv };

    let x = f.solve(&b);
    let wb0 = componentwise_backward_error(&a, &x, &b);
    let (x, info) = f.solve_refined(&a, &b, 2);
    let wb1 = componentwise_backward_error(&a, &x, &b);
    let rep = hpl_tests(&a, &x, &b);

    let gflops = (2.0 / 3.0) * (n as f64).powi(3) / t_factor / 1e9;
    println!("  factor time {t_factor:.2}s  ({gflops:.2} GFLOP/s on this host)");
    println!("  growth factor gT        = {:.1}", stats.growth_factor(1.0));
    println!("  thresholds tau_min/ave  = {:.2} / {:.2}", stats.tau_min(), stats.tau_ave());
    println!("  max |L|                 = {:.2}", stats.max_l);
    println!("  wb before refinement    = {wb0:.2e}");
    println!("  wb after {} refinements  = {wb1:.2e}", info.iterations);
    println!("  HPL1 = {:.2e}  HPL2 = {:.2e}  HPL3 = {:.2e}", rep.hpl1, rep.hpl2, rep.hpl3);
    println!("  ACCURACY GATE: {}", if rep.passes() { "PASSED" } else { "FAILED" });
    assert!(rep.passes());
}
