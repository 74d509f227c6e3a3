//! Quickstart: factor a random system with CALU (tournament pivoting),
//! solve it, and check the residual — the 30-second tour of the public API.
//!
//! Run: `cargo run --release --example quickstart`

use calu_repro::core::{calu_factor, CaluOpts, LocalLu};
use calu_repro::matrix::gen;
use calu_repro::stability::{backward_error_inf, hpl_tests};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 512;
    let mut rng = StdRng::seed_from_u64(2008);

    // A dense random system A x = b.
    let a = gen::randn(&mut rng, n, n);
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 21) as f64) - 10.0).collect();
    let b = gen::rhs_for_solution(&a, &x_true);

    // CALU: panels of width 64, 8-way tournament, recursive local LU.
    let opts = CaluOpts { block: 64, p: 8, local: LocalLu::Recursive, ..Default::default() };
    let f = calu_factor(&a, opts).expect("random normal matrices are nonsingular");

    // Solve and validate.
    let x = f.solve(&b);
    let err = x.iter().zip(&x_true).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max);
    let bw = backward_error_inf(&a, &x, &b);
    let hpl = hpl_tests(&a, &x, &b);

    println!("CALU factorization of a {n}x{n} random normal matrix");
    println!("  block b = {}, tournament p = {}", opts.block, opts.p);
    println!("  max |x - x_true|        = {err:.3e}");
    println!("  normwise backward error = {bw:.3e}");
    println!(
        "  HPL residuals            = {:.3e} / {:.3e} / {:.3e}  (pass: {})",
        hpl.hpl1,
        hpl.hpl2,
        hpl.hpl3,
        hpl.passes()
    );

    // Refined solve (HPL-style, <= 2 steps).
    let (_x2, info) = f.solve_refined(&a, &b, 2);
    println!(
        "  after {} refinement step(s): scaled residual = {:.3e}",
        info.iterations, info.final_residual
    );
    assert!(hpl.passes());
}
