//! Criterion benchmark for full factorizations (the wall-clock analogue of
//! Tables 5-6): sequential CALU vs blocked GEPP vs CALU on the task
//! runtime (threaded executor, lookahead 1), plus the factor-consumer
//! routines (inverse, condition estimate).

use calu_core::{calu_factor, gepp_factor, runtime_calu_factor, CaluOpts, RuntimeOpts};
use calu_matrix::lapack::{gecon, getrf, getri, GetrfOpts};
use calu_matrix::norms::mat_norm_1;
use calu_matrix::NoObs;
use calu_matrix::{gen, Matrix};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_factor(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_factorization");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(21);
    let n = 512;
    let a: Matrix = gen::randn(&mut rng, n, n);
    let opts = CaluOpts { block: 64, p: 4, ..Default::default() };
    g.bench_function("calu_seq_512", |bench| bench.iter(|| calu_factor(&a, opts).unwrap()));
    g.bench_function("calu_runtime_512", |bench| {
        bench.iter(|| runtime_calu_factor(&a, opts, RuntimeOpts::default()).unwrap())
    });
    g.bench_function("gepp_512", |bench| bench.iter(|| gepp_factor(&a, 64).unwrap()));
    g.finish();
}

fn bench_factor_consumers(c: &mut Criterion) {
    let mut g = c.benchmark_group("factor_consumers");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(22);
    let n = 256;
    let a = gen::randn(&mut rng, n, n);
    let anorm: f64 = mat_norm_1(a.view());
    let mut lu = a.clone();
    let mut ipiv = vec![0usize; n];
    getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();

    g.bench_function("getri_256", |bench| {
        bench.iter(|| {
            let mut inv = lu.clone();
            getri(inv.view_mut(), &ipiv).unwrap();
            inv
        })
    });
    g.bench_function("gecon_256", |bench| bench.iter(|| gecon(lu.view(), &ipiv, anorm)));
    g.finish();
}

criterion_group!(benches, bench_factor, bench_factor_consumers);
criterion_main!(benches);
