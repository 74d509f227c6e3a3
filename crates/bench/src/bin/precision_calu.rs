//! Mixed-precision performance record: `f32` vs `f64` CALU factorization
//! (both on the task-graph runtime) and the convergence of the
//! iterative-refinement solver, written as `BENCH_precision.json` so CI
//! and later sessions can diff it.
//!
//! Three records, because the container running CI may be slow, noisy, or
//! single-core:
//!
//! * **measured**: wall-clock of the `f32` vs the `f64` runtime
//!   factorization on the host, plus the end-to-end `ir_solve` time;
//! * **modeled**: the same DAG's critical path under the POWER5 γ rates
//!   at each precision ([`MachineConfig::for_precision`]) — the
//!   host-independent claim;
//! * **convergence**: the per-iteration backward-error trajectory of
//!   `ir_solve` and whether the `f64` HPL gate passed.
//!
//! Usage: `precision_calu [--n N] [--nb NB] [--reps R] [--out PATH]
//! [--trace-out PATH]` (defaults: n=768, nb=96, reps=1,
//! out=BENCH_precision.json). With `--trace-out`, one extra `f32` run
//! exports its task timeline as a Chrome trace for `bench_report --trace`.

use calu_bench::{write_record, HostInfo};
use calu_core::{ir_solve, runtime_calu_factor, CaluOpts, IrOpts, RuntimeOpts};
use calu_matrix::{gen, Matrix, Scalar};
use calu_netsim::{MachineConfig, Precision};
use calu_obs::{JsonValue, Recorder};
use calu_runtime::{modeled_time, ExecutorKind, LuDag, LuShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Args {
    n: usize,
    nb: usize,
    reps: usize,
    out: String,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args =
        Args { n: 768, nb: 96, reps: 1, out: "BENCH_precision.json".into(), trace_out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}; try --help");
                std::process::exit(2);
            })
        };
        let parsed = |v: String| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad numeric value {v:?}; try --help");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--n" => args.n = parsed(val()),
            "--nb" => args.nb = parsed(val()),
            "--reps" => args.reps = parsed(val()),
            "--out" => args.out = val(),
            "--trace-out" => args.trace_out = Some(val()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: precision_calu [--n N] [--nb NB] [--reps R] [--out PATH] \
                     [--trace-out PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn time_factor<T: Scalar>(a: &Matrix<T>, opts: CaluOpts, rt: RuntimeOpts, reps: usize) -> f64 {
    best_of(reps, || {
        let t0 = Instant::now();
        let (f, _rep) = runtime_calu_factor(a, opts, rt).expect("factorization succeeds");
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(f.ipiv.len(), a.rows().min(a.cols()));
        dt
    })
}

fn main() {
    let args = parse_args();
    let (n, nb) = (args.n, args.nb);
    let host = HostInfo::detect(0);
    let host_threads = host.host_threads;
    let mut rng = StdRng::seed_from_u64(2025);
    let a64: Matrix<f64> = gen::randn(&mut rng, n, n);
    let a32: Matrix<f32> = a64.cast();
    let b: Vec<f64> = gen::hpl_rhs(&mut rng, n);

    let opts = CaluOpts { block: nb, p: 4, ..Default::default() };
    let rt = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 0 } };

    println!("precision_calu: {n}x{n}, nb={nb}, host_threads={host_threads}, reps={}", args.reps);

    // --- Measured factor times at both precisions, same DAG/schedule.
    let t64 = time_factor(&a64, opts, rt, args.reps);
    let t32 = time_factor(&a32, opts, rt, args.reps);
    println!(
        "factor f64: {:.1} ms   factor f32: {:.1} ms   speedup {:.2}x",
        t64 * 1e3,
        t32 * 1e3,
        t64 / t32
    );

    // --- Modeled critical path at each precision (host-independent).
    let shape = LuShape { m: n, n, nb };
    let dag = LuDag::build(shape, rt.lookahead);
    let mch = MachineConfig::power5();
    let cp = |p: Precision| {
        let m = mch.for_precision(p);
        dag.critical_path(|t| modeled_time(&dag, t, &m))
    };
    let (cp64, cp32) = (cp(Precision::F64), cp(Precision::F32));
    println!(
        "modeled CP f64: {:.1} ms   f32: {:.1} ms   speedup {:.2}x (power5 rates)",
        cp64 * 1e3,
        cp32 * 1e3,
        cp64 / cp32
    );

    if let Some(path) = &args.trace_out {
        // One extra f32 run, replayed into a Chrome trace so
        // `bench_report --trace` can profile the low-precision schedule.
        let (f, rep) = runtime_calu_factor(&a32, opts, rt).expect("traced run succeeds");
        assert_eq!(f.ipiv.len(), n);
        let rec = Recorder::new();
        rep.record_into(&rec, 0.0);
        std::fs::write(path, rec.chrome_trace()).expect("write trace json");
        println!("wrote {path} ({} spans)", rec.len());
    }

    // --- ir_solve end to end: f32 factor + f64 refinement.
    let ir_opts = IrOpts { calu: opts, rt, max_iter: 10 };
    let t0 = Instant::now();
    let (_x, report) = ir_solve(&a64, &b, ir_opts).expect("well-conditioned ensemble");
    let t_ir = t0.elapsed().as_secs_f64();
    println!(
        "ir_solve: {:.1} ms, {} refinement steps, converged={}, final wb={:.2e}",
        t_ir * 1e3,
        report.iterations,
        report.converged,
        report.final_backward_error()
    );
    for (k, s) in report.steps.iter().enumerate() {
        println!(
            "  step {k}: backward_error={:.3e}  hpl=[{:.2}, {:.2}, {:.2}]",
            s.backward_error, s.hpl[0], s.hpl[1], s.hpl[2]
        );
    }

    let steps: JsonValue = report
        .steps
        .iter()
        .map(|s| {
            JsonValue::obj()
                .set("backward_error", s.backward_error)
                .set("hpl1", s.hpl[0])
                .set("hpl2", s.hpl[1])
                .set("hpl3", s.hpl[2])
        })
        .collect();
    let record = host
        .stamp(
            JsonValue::obj()
                .set("bench", "precision_calu")
                .set("n", n)
                .set("nb", nb)
                .set("communicator", "shared_memory"),
        )
        .set("reps", args.reps)
        .set("model", "power5")
        .set("factor_f64_s", t64)
        .set("factor_f32_s", t32)
        .set("measured_f32_speedup", t64 / t32)
        .set("modeled_cp_f64_s", cp64)
        .set("modeled_cp_f32_s", cp32)
        .set("modeled_f32_speedup", cp64 / cp32)
        .set("ir_solve_s", t_ir)
        .set("ir_iterations", report.iterations)
        .set("ir_converged", report.converged)
        .set("ir_steps", steps);
    write_record(&args.out, &record);
}
