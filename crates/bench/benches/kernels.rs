//! Criterion microbenchmarks of the dense substrate kernels on the host:
//! `gemm` (at the shapes the repository benchmark probes, `f64` and `f32`),
//! the blocked `trsm` and the column-ordered row interchanges at the shapes
//! the factorization tasks issue them, the block-cyclic scatter and gather
//! around a distributed run, the two panel factorization kernels whose speed
//! gap drives Tables 3-4 (`getf2` vs `rgetf2`), and the panel's rows below
//! its top block as an unblocked sweep (`lu_nopiv`) against the recursive
//! `gemm`-based `lu_rows` — the BLAS-2 → BLAS-3 step of the unpivoted half
//! of TSLU. The `gemm` and `trsm` groups are named after the arm they ran
//! on.

use calu_core::dist::{assemble_2d, scatter_2d};
use calu_matrix::blas3::{gemm, trsm, Arm};
use calu_matrix::lapack::{getf2, lu_nopiv, lu_rows, rgetf2};
use calu_matrix::perm::apply_ipiv;
use calu_matrix::{gen, Diag, Matrix, NoObs, Scalar, Side, TileLayout, Uplo};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The two shapes the repository benchmark probes (`matrix.blas3.*` in
/// `benchmark/`) — the 64^3 update of one contiguous tile and the rank-64
/// trailing update of sequential CALU at n = 1024 — and the two shapes a
/// `Gemm` task of the runtime is cut from, as windows of a flat `ld = 1536`
/// matrix (`square_factor`'s): one 64-row tile and one 256-row update chunk
/// of a block column. The last two decide the register-tile shape and the
/// chunk height (`UPDATE_CHUNK_ROWS` in `calu-runtime`).
fn bench_gemm_at<T: Scalar>(g: &mut BenchmarkGroup<'_>) {
    let mut rng = StdRng::seed_from_u64(1);
    // (label, m, k, n, calls per timed iteration: 200 tile updates, as there).
    for (name, m, k, n, calls) in
        [("tile_64x64x64_x200", 64, 64, 64, 200), ("update_1024x64x1024", 1024, 64, 1024, 1)]
    {
        let a = gen::randn::<T>(&mut rng, m, k);
        let b = gen::randn::<T>(&mut rng, k, n);
        let mut c = gen::randn::<T>(&mut rng, m, n);
        g.bench_function(format!("{name}_{}", T::NAME), |bench| {
            bench.iter(|| {
                for _ in 0..calls {
                    gemm(-T::ONE, a.view(), b.view(), T::ONE, c.view_mut());
                }
            })
        });
    }
    // One block column of step 0's trailing update: L21 is rows 64.. of
    // block column 0, U12 the top tile of block column 1, C the rows below
    // it, swept in windows of `rows` rows.
    let (ld, nb) = (1536, 64);
    let mut flat = gen::randn::<T>(&mut rng, ld, 2 * nb);
    for (name, rows) in [("flat_tile_64x64x64", 64), ("flat_chunk_256x64x64", 256)] {
        g.bench_function(format!("{name}_ld{ld}_{}", T::NAME), |bench| {
            bench.iter(|| {
                let (left, right) = flat.view_mut().split_at_col_mut(nb);
                let (u12, mut c) = right.split_at_row_mut(nb);
                let l21 = left.submatrix(nb, 0, ld - nb, nb);
                for r in (0..ld - nb).step_by(rows) {
                    let h = rows.min(ld - nb - r);
                    let window = c.submatrix_mut(r, 0, h, nb);
                    gemm(-T::ONE, l21.submatrix(r, 0, h, nb), u12.as_view(), T::ONE, window);
                }
            })
        });
    }
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("gemm_{}", Arm::detect().name()));
    g.sample_size(10);
    bench_gemm_at::<f64>(&mut g);
    bench_gemm_at::<f32>(&mut g);
    g.finish();
}

/// `trsm` and the row interchanges at the shapes the factorization tasks
/// issue them: the `U₁₂` solve of one `Trsm` task — a 64 × 64 block of a flat
/// `ld = 1536` matrix (`square_factor`'s) and the same block as a contiguous
/// tile (a distributed rank's cell) —, the `L₂₁` rows of a
/// distributed rank's `Second` task (512 × 64), the benchmark probe's
/// 64 × 1536 block row, and one `Swap` task's interchanges (`apply_ipiv` on
/// a 1536 × 64 block column at `ld = 1536`). Each timed iteration restores
/// the right-hand side first, so the solves never compound.
fn bench_trsm(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("trsm_{}", Arm::detect().name()));
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let (ld, nb) = (1536, 64);
    // A packed `L\U` block as the factorization leaves it: multipliers below
    // the diagonal, a safely invertible `U` on and above it.
    let mut lu = gen::randn::<f64>(&mut rng, nb, nb);
    for j in 0..nb {
        for i in 0..nb {
            lu[(i, j)] *= 0.1;
        }
        lu[(j, j)] += 2.0;
    }
    const CALLS: usize = 100;
    let rhs = gen::randn::<f64>(&mut rng, nb, nb);
    let mut flat = gen::randn::<f64>(&mut rng, ld, nb);
    let mut tile = rhs.clone();
    g.bench_function(format!("left_lower_unit_64x64_ld{ld}_x{CALLS}"), |bench| {
        bench.iter(|| {
            for _ in 0..CALLS {
                let mut u12 = flat.view_mut().into_submatrix(nb, 0, nb, nb);
                u12.copy_from(rhs.view());
                trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, lu.view(), u12);
            }
        })
    });
    g.bench_function(format!("left_lower_unit_64x64_ld{nb}_x{CALLS}"), |bench| {
        bench.iter(|| {
            for _ in 0..CALLS {
                tile.view_mut().copy_from(rhs.view());
                trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, lu.view(), tile.view_mut());
            }
        })
    });
    let wide0 = gen::randn::<f64>(&mut rng, nb, ld);
    g.bench_function(format!("left_lower_unit_64x{ld}"), |bench| {
        bench.iter_batched(
            || wide0.clone(),
            |mut x| trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, lu.view(), x.view_mut()),
            BatchSize::LargeInput,
        )
    });
    let rows0 = gen::randn::<f64>(&mut rng, 512, nb);
    let mut rows = rows0.clone();
    g.bench_function("right_upper_nonunit_512x64_x10", |bench| {
        bench.iter(|| {
            for _ in 0..10 {
                rows.view_mut().copy_from(rows0.view());
                trsm(Side::Right, Uplo::Upper, Diag::NonUnit, 1.0, lu.view(), rows.view_mut());
            }
        })
    });
    // A panel's worth of interchanges with far-away rows, as tournament
    // pivoting elects them.
    let ipiv: Vec<usize> = (0..nb).map(|i| i + (i * 211) % (ld - i)).collect();
    g.bench_function(format!("apply_ipiv_{ld}x64_ld{ld}_x10"), |bench| {
        bench.iter(|| {
            for _ in 0..10 {
                apply_ipiv(flat.view_mut(), &ipiv);
            }
        })
    });
    g.finish();
}

/// The block-cyclic scatter and gather around every distributed run, at
/// `dist_grid`'s shape: n = 1024 in 64 × 64 tiles over a 2 × 2 grid. Each
/// reads the matrix once and writes it once (8 MiB each way); the GB/s line
/// is those 16 MiB over the mean of twenty calls.
fn bench_dist_movement(c: &mut Criterion) {
    let mut g = c.benchmark_group("dist_movement");
    g.sample_size(10);
    let (n, b, pr, pc) = (1024, 64, 2, 2);
    let a = gen::randn::<f64>(&mut StdRng::seed_from_u64(4), n, n);
    let layout = TileLayout::new(n, n, b, b).with_grid(pr, pc);
    let scatter =
        || -> Vec<_> { (0..pr * pc).map(|r| scatter_2d(layout, &a, r % pr, r / pr)).collect() };
    let parts = scatter();
    let gbs = |name: &str, call: &dyn Fn()| {
        let t0 = std::time::Instant::now();
        (0..20).for_each(|_| call());
        let secs = t0.elapsed().as_secs_f64() / 20.0;
        println!("{name}: {:.1} GB/s read + written", 2.0 * (n * n * 8) as f64 / secs / 1e9);
    };
    gbs("scatter_2d", &|| drop(scatter()));
    g.bench_function(format!("scatter_2d_{n}_{pr}x{pc}"), |bench| bench.iter(scatter));
    gbs("assemble_2d", &|| drop(assemble_2d(layout, &parts)));
    g.bench_function(format!("assemble_2d_{n}_{pr}x{pc}"), |bench| {
        bench.iter(|| assemble_2d(layout, &parts))
    });
    g.finish();
}

fn bench_panel_kernels(c: &mut Criterion) {
    // The Rec-vs-Cl comparison of Tables 3-4 at host scale: a tall panel.
    let mut g = c.benchmark_group("panel_kernel");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let (m, b) = (2048, 64);
    let a0: Matrix = gen::randn(&mut rng, m, b);
    g.bench_function("getf2_classic_2048x64", |bench| {
        bench.iter_batched(
            || a0.clone(),
            |mut a| {
                let mut ipiv = vec![0usize; b];
                getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("rgetf2_recursive_2048x64", |bench| {
        bench.iter_batched(
            || a0.clone(),
            |mut a| {
                let mut ipiv = vec![0usize; b];
                rgetf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
            },
            BatchSize::LargeInput,
        )
    });

    // The unpivoted half of TSLU on an 8192 x 64 panel whose top block is
    // safe to factor as it stands: one full-height unblocked sweep, against
    // the top block alone plus `lu_rows` for everything below it.
    let m = 8192;
    let mut p0: Matrix = gen::randn(&mut rng, m, b);
    for j in 0..b {
        p0[(j, j)] += 2.0 * b as f64;
    }
    g.bench_function("lu_nopiv_unblocked_8192x64", |bench| {
        bench.iter_batched(
            || p0.clone(),
            |mut a| lu_nopiv(a.view_mut(), &mut NoObs).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("lu_nopiv_top_plus_lu_rows_8192x64", |bench| {
        bench.iter_batched(
            || p0.clone(),
            |mut a| {
                let (mut top, below) = a.view_mut().split_at_row_mut(b);
                lu_nopiv(top.rb_mut(), &mut NoObs).unwrap();
                lu_rows(top.as_view(), below, &mut [0.0; 64], &mut NoObs).unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_gemm, bench_trsm, bench_dist_movement, bench_panel_kernels);
criterion_main!(benches);
