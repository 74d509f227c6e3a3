//! Criterion benchmark for the discrete-event simulator itself: how fast
//! `repro`'s tables can sweep (one Table 5 cell = one `skeleton_calu`
//! + one `skeleton_pdgetrf` run).

use calu_core::dist::{skeleton_calu, skeleton_pdgetf2, skeleton_tslu, RowSwapScheme, SkelCfg};
use calu_core::LocalLu;
use calu_netsim::MachineConfig;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim_skeletons");
    g.sample_size(10);
    g.bench_function("tslu_m1e6_b150_p64", |bench| {
        bench
            .iter(|| skeleton_tslu(1_000_000, 150, 64, LocalLu::Recursive, MachineConfig::power5()))
    });
    g.bench_function("pdgetf2_m1e5_b100_p16", |bench| {
        bench.iter(|| skeleton_pdgetf2(100_000, 100, 16, MachineConfig::power5()))
    });
    let cfg = SkelCfg {
        m: 10_000,
        n: 10_000,
        b: 100,
        pr: 8,
        pc: 8,
        local: LocalLu::Recursive,
        swap: RowSwapScheme::ReduceBcast,
    };
    g.bench_function("calu2d_m1e4_8x8", |bench| {
        bench.iter(|| skeleton_calu(cfg, MachineConfig::power5()))
    });
    g.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
