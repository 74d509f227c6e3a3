//! Stand-alone probes of single layers: each times calls into one public
//! function of the program on a fixed shape and reports the median of a
//! few repetitions. Shapes follow the workloads (panel width 64, the
//! `square_factor` order, the `tall_panel` height), so a probe moves when
//! the workload it explains moves.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use calu_core::dist::{skeleton_calu, RowSwapScheme, SkelCfg};
use calu_core::tslu::LocalLu;
use calu_core::{
    ir_solve, reduce_pair, runtime_calu_factor, tslu_factor, tslu_pivots, CaluOpts, Candidates,
    IrOpts, RuntimeOpts,
};
use calu_matrix::blas3::{gemm, trsm};
use calu_matrix::lapack::{getf2, rgetf2};
use calu_matrix::{gen, Diag, Matrix, NoObs, Side, TileMatrix, Uplo};
use calu_netsim::machine::{flops_gemm, flops_getf2, flops_trsm_left};
use calu_netsim::MachineConfig;
use calu_obs::Recorder;
use calu_runtime::{ExecutorKind, LuDag, LuShape, PanelMode, SolveShape, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host;
use crate::stats::median;
use crate::workloads::{block, Sizes};

/// Median seconds of `reps` runs of `body`.
fn time_median<R>(reps: usize, mut body: impl FnMut() -> R) -> f64 {
    time_median_with(reps, || (), |()| body())
}

/// [`time_median`] where `prepare` rebuilds `body`'s input outside the timer.
fn time_median_with<I, R>(
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut body: impl FnMut(I) -> R,
) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            let out = body(input);
            let secs = t.elapsed().as_secs_f64();
            black_box(out);
            secs
        })
        .collect();
    median(&secs)
}

/// Runs every probe. `Err` names the probe whose output was wrong.
pub fn run(seed: u64, sizes: Sizes) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70726f6265);
    let nb = block();
    let n = sizes.square_n;
    let reps = if sizes.quick { 3 } else { 5 };

    // Roofline base. The array and cache sizes are printed with the host.
    let peak = host::peak_gflops();
    out.insert("host.peak_gflops", peak);
    out.insert("host.triad_gbs", host::triad_gbs());

    // matrix::blas3. The rank-`nb` trailing update of sequential CALU, and
    // the one-tile update that is a `Gemm` task of the runtime.
    {
        let m = n.min(1024);
        let (a, b) = (gen::randn::<f64>(&mut rng, m, nb), gen::randn::<f64>(&mut rng, nb, m));
        let mut c = gen::randn::<f64>(&mut rng, m, m);
        let secs = time_median(reps, || gemm(-1.0, a.view(), b.view(), 1.0, c.view_mut()));
        let update = flops_gemm(m, m, nb) / secs / 1e9;
        out.insert("matrix.blas3.gemm_update_gflops", update);
        out.insert("matrix.blas3.gemm_frac_peak", update / peak);

        let (a, b) = (gen::randn::<f64>(&mut rng, nb, nb), gen::randn::<f64>(&mut rng, nb, nb));
        let mut c = gen::randn::<f64>(&mut rng, nb, nb);
        const CALLS: usize = 200;
        let secs = time_median(reps, || {
            for _ in 0..CALLS {
                gemm(-1.0, a.view(), b.view(), 1.0, c.view_mut());
            }
        });
        out.insert(
            "matrix.blas3.gemm_tile_gflops",
            flops_gemm(nb, nb, nb) * CALLS as f64 / secs / 1e9,
        );

        // The `U12` solve of one panel step.
        let l = gen::randn::<f64>(&mut rng, nb, nb);
        let rhs = gen::randn::<f64>(&mut rng, nb, m);
        let secs = time_median_with(
            4 * reps,
            || rhs.clone(),
            |mut x| {
                trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, l.view(), x.view_mut());
                x
            },
        );
        out.insert("matrix.blas3.trsm_gflops", flops_trsm_left(nb, m) / secs / 1e9);
    }

    // matrix::lapack: the two local LUs a tournament leaf can run.
    {
        let m = sizes.tall_m / 8;
        let block = gen::randn::<f64>(&mut rng, m, nb);
        let mut ipiv = vec![0usize; nb];
        let secs = time_median_with(
            reps,
            || block.clone(),
            |mut a| getf2(a.view_mut(), &mut ipiv, &mut NoObs).map(|()| a),
        );
        out.insert("matrix.lapack.getf2_gflops", flops_getf2(m, nb) / secs / 1e9);
        let classic = ipiv.clone();
        let secs = time_median_with(
            reps,
            || block.clone(),
            |mut a| rgetf2(a.view_mut(), &mut ipiv, &mut NoObs).map(|()| a),
        );
        out.insert("matrix.lapack.rgetf2_gflops", flops_getf2(m, nb) / secs / 1e9);
        if classic != ipiv {
            return Err("getf2 and rgetf2 chose different pivots".into());
        }
    }

    // matrix::tile: flat to tile-major and back; bytes computed from the
    // shape (each conversion reads and writes the matrix once).
    {
        let a = gen::randn::<f64>(&mut rng, n, n);
        let secs = time_median(reps, || TileMatrix::from_matrix(&a, nb, nb).to_matrix());
        out.insert("matrix.tile.convert_gbs", (4 * 8 * n * n) as f64 / secs / 1e9);
        if TileMatrix::from_matrix(&a, nb, nb).to_matrix() != a {
            return Err("tile round trip changed the matrix".into());
        }
    }

    // core::tslu and core::tournament on one `tall_panel` panel.
    {
        let calu = CaluOpts::default();
        let panel = gen::randn::<f64>(&mut rng, sizes.tall_m, nb);
        let mut winners = Vec::new();
        let secs = time_median(3, || winners = tslu_pivots(panel.view(), calu.p, calu.local));
        out.insert("core.tslu.pivots_s", secs);
        let mut factored = Vec::new();
        let secs = time_median_with(
            3,
            || panel.clone(),
            |mut a| {
                let r = tslu_factor(a.view_mut(), calu.p, calu.local, &mut NoObs);
                factored = r.map(|r| r.pivot_rows).unwrap_or_default();
                a
            },
        );
        out.insert("core.tslu.factor_s", secs);
        if winners != factored {
            return Err("tslu_factor and tslu_pivots elected different rows".into());
        }

        let set = |rng: &mut StdRng, first: usize| {
            Candidates::new(gen::randn::<f64>(rng, nb, nb), (first..first + nb).collect())
        };
        let (lo, hi) = (set(&mut rng, 0), set(&mut rng, nb));
        let secs = time_median(8 * reps, || reduce_pair(&lo, &hi));
        out.insert("core.tournament.reduce_pair_us", secs * 1e6);
    }

    // runtime: DAG build and both executors with a task body that does
    // nothing, on the `square_factor` DAG and on the solve DAG of one
    // right-hand side against a small `serve_mixed` matrix.
    {
        let lu_shape = LuShape { m: n, n, nb };
        let rt = RuntimeOpts::default();
        let solve_shape = SolveShape { n: sizes.serve_n.0, nrhs: 1, nb, rhs_nb: 1 };
        let build_factor = || LuDag::build_with(lu_shape, rt.lookahead, PanelMode::Gathered);
        let build_solve = || LuDag::build_solve(solve_shape);
        out.insert("runtime.dag.build_us.factor", time_median(reps, build_factor) * 1e6);
        out.insert("runtime.dag.build_us.solve", time_median(40 * reps, build_solve) * 1e6);
        let noop = |_: Task| Ok(());
        let on_factor = [
            "runtime.dag.tasks.factor",
            "runtime.exec.serial_noop_us_per_task.factor",
            "runtime.exec.threaded_noop_us_per_task.factor",
        ];
        let on_solve = [
            "runtime.dag.tasks.solve",
            "runtime.exec.serial_noop_us_per_task.solve",
            "runtime.exec.threaded_noop_us_per_task.solve",
        ];
        for (dag, reps, [tasks, serial, threaded]) in
            [(build_factor(), reps, on_factor), (build_solve(), 40 * reps, on_solve)]
        {
            out.insert(tasks, dag.len() as f64);
            for (executor, key) in
                [(ExecutorKind::Serial, serial), (ExecutorKind::Threaded { threads: 0 }, threaded)]
            {
                let secs = time_median(reps, || executor.execute(&dag, &noop));
                out.insert(key, secs * 1e6 / dag.len() as f64);
            }
        }
    }

    // core::solve from finished factors of the `square_factor` order, and
    // the mixed-precision solver on the `dist_grid` order.
    {
        let a = gen::randn::<f64>(&mut rng, n, n);
        let b: Vec<f64> = gen::hpl_rhs(&mut rng, n);
        let (f, _) = runtime_calu_factor(&a, CaluOpts::default(), RuntimeOpts::default())
            .map_err(|e| e.to_string())?;
        out.insert("core.solve.solve_s", time_median(reps, || f.solve(&b)));
        let many = gen::randn::<f64>(&mut rng, n, 32);
        let secs = time_median_with(
            reps,
            || many.clone(),
            |mut x| {
                f.solve_mat(x.view_mut());
                x
            },
        );
        out.insert("core.solve.solve_mat_s", secs);

        let m = sizes.dist_n;
        let a: Matrix<f64> = gen::randn(&mut rng, m, m);
        let b: Vec<f64> = gen::hpl_rhs(&mut rng, m);
        let mut iterations = 0;
        let mut converged = true;
        let secs = time_median(3, || {
            let solved = ir_solve(&a, &b, IrOpts::default());
            if let Ok((_, report)) = &solved {
                iterations = report.iterations;
                converged &= report.converged;
            }
            solved
        });
        if !converged {
            return Err("ir_solve did not reach the HPL gate".into());
        }
        out.insert("core.solve.ir_solve_s", secs);
        out.insert("core.solve.ir_iterations", iterations as f64);
    }

    // netsim: one cost-skeleton CALU simulation at the paper's scale
    // (no numerical data; what the table regenerators run).
    {
        let m = if sizes.quick { 1000 } else { 10_000 };
        let cfg = SkelCfg {
            m,
            n: m,
            b: 50,
            pr: 8,
            pc: 8,
            local: LocalLu::Recursive,
            swap: RowSwapScheme::ReduceBcast,
        };
        let secs = time_median(3, || skeleton_calu(cfg, MachineConfig::power5()));
        out.insert("netsim.skeleton_calu_s", secs);
    }

    // obs: what one recorded span costs.
    {
        const SPANS: usize = 100_000;
        let secs = time_median_with(reps, Recorder::new, |rec| {
            for i in 0..SPANS {
                rec.record_interval(format!("probe/{i}"), "bench", 0, 0, 0.0, 1.0);
            }
            rec
        });
        out.insert("obs.recorder.span_ns", secs * 1e9 / SPANS as f64);
    }

    Ok(out)
}
