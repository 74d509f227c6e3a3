//! Criterion benchmark for the task-graph runtime: DAG construction cost,
//! serial-replay vs. threaded execution at several lookahead depths.

use calu_core::{runtime_calu_factor, CaluOpts, RuntimeOpts};
use calu_matrix::{gen, Matrix};
use calu_runtime::{ExecutorKind, LuDag, LuShape};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dag_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_dag_build");
    g.sample_size(10);
    for n in [1024usize, 4096] {
        let shape = LuShape { m: n, n, nb: 64 };
        g.bench_function(format!("build_{n}_nb64_d2"), |bench| {
            bench.iter(|| LuDag::build(shape, 2))
        });
    }
    g.finish();
}

fn bench_runtime_factor(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_factor");
    g.sample_size(10);
    let n = 512;
    let mut rng = StdRng::seed_from_u64(31);
    let a: Matrix = gen::randn(&mut rng, n, n);
    let opts = CaluOpts { block: 64, p: 4, ..Default::default() };
    for depth in [1usize, 2] {
        let serial = RuntimeOpts { lookahead: depth, executor: ExecutorKind::Serial };
        g.bench_function(format!("serial_{n}_d{depth}"), |bench| {
            bench.iter(|| runtime_calu_factor(&a, opts, serial).unwrap())
        });
        let threaded =
            RuntimeOpts { lookahead: depth, executor: ExecutorKind::Threaded { threads: 0 } };
        g.bench_function(format!("threaded_{n}_d{depth}"), |bench| {
            bench.iter(|| runtime_calu_factor(&a, opts, threaded).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dag_build, bench_runtime_factor);
criterion_main!(benches);
