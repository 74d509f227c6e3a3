//! Shared-memory CALU scaling: the paper's future-work question ("the
//! suitability of the new ca-pivoting strategy for parallel LU on multicore
//! architectures"). Factors the same matrix on the task runtime's threaded
//! executor with 1..N workers and reports wall-clock speedup of parallel
//! CALU over sequential CALU and GEPP.
//!
//! Run: `cargo run --release --example multicore_scaling [n]`

use calu_repro::core::{calu_factor, gepp_factor, runtime_calu_factor, CaluOpts, RuntimeOpts};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::runtime::{host_parallelism, ExecutorKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time<F: FnMut()>(mut f: F) -> f64 {
    // Best of three for stability on a busy host.
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(768);
    let mut rng = StdRng::seed_from_u64(99);
    let a: Matrix = gen::randn(&mut rng, n, n);
    let opts = CaluOpts { block: 64, p: 4, ..Default::default() };

    let t_gepp = time(|| {
        gepp_factor(&a, 64).unwrap();
    });
    let t_seq = time(|| {
        calu_factor(&a, opts).unwrap();
    });

    println!("n = {n}, b = 64, tournament p = 4");
    println!("  GEPP (blocked getrf):   {t_gepp:.3}s");
    println!("  CALU sequential:        {t_seq:.3}s  ({:.2}x vs GEPP)", t_gepp / t_seq);

    for threads in [1usize, 2, host_parallelism().max(2)] {
        let rt = RuntimeOpts { lookahead: 1, executor: ExecutorKind::Threaded { threads } };
        let t_par = time(|| {
            runtime_calu_factor(&a, opts, rt).unwrap();
        });
        println!(
            "  CALU runtime x{threads}:        {t_par:.3}s  ({:.2}x vs sequential CALU)",
            t_seq / t_par
        );
    }

    // Factors are identical regardless of thread count (deterministic tree).
    let f1 = calu_factor(&a, opts).unwrap();
    let (f2, _report) = runtime_calu_factor(&a, opts, RuntimeOpts::default()).unwrap();
    assert_eq!(f1.ipiv, f2.ipiv);
    assert_eq!(f1.lu.max_abs_diff(&f2.lu), 0.0);
    println!("  (parallel factors bitwise identical to sequential: verified)");
}
