//! Storage-layout performance record: flat column-major vs tile-major
//! runtime CALU, written as `BENCH_layout.json` so CI and later sessions
//! can diff performance.
//!
//! Two kinds of evidence per `(n, executor, panel mode)` cell, because
//! the container running CI may be single-core and its host cache does
//! not match the modeled machine:
//!
//! * **measured**: wall-clock of the flat-storage runtime CALU
//!   ([`calu_core::runtime_calu_inplace`]) vs the tile-backed path
//!   ([`calu_core::runtime_calu_tiles`]) on this host, each factoring a
//!   working copy cloned *outside* the timed region. Factors are
//!   asserted bitwise identical between the two paths before timing.
//! * **modeled**: total cache traffic of the task DAG under the XT4
//!   cost model's 2 MB cache for each [`TileLocality`], plus the
//!   layout-aware task-time totals — the layout claim that does not
//!   depend on the host. (At these sizes a laptop-class LLC may hold the
//!   whole matrix, leaving the measured delta inside noise; the modeled
//!   difference is the durable record.)
//!
//! The DAG used for the modeled columns is built with the *same*
//! [`PanelMode`] and `p` that the measured runs execute, so modeled and
//! executed paths always agree. Neither mode gathers or scatters the panel
//! in tile-major storage (leaves and `L₂₁` chunks are walked tile by tile
//! in place), so the modes differ in their leaves only; `--panel both`
//! (default) records one row set per mode.
//!
//! As in `BENCH_runtime.json`, `"measured_speedup_valid": false` flags a
//! single-core host: the threaded-executor rows then measure executor
//! overhead, not a parallel win (see EXPERIMENTS.md).
//!
//! Usage: `layout_calu [--n N] [--nb NB] [--reps R] [--threads T]
//! [--panel gathered|resident|both] [--out PATH] [--trace-out PATH]`
//! (defaults: n=0 meaning the 512 and 1024 record sizes, nb=128, reps=1,
//! threads=0 = host, panel=both, out=BENCH_layout.json). With
//! `--trace-out`, one extra tile-major threaded run at the largest size
//! exports its task timeline as a Chrome trace for `bench_report --trace`.

use calu_bench::{write_record, HostInfo};
use calu_core::{runtime_calu_inplace, runtime_calu_tiles, CaluOpts, RuntimeOpts};
use calu_matrix::{gen, Matrix, NoObs, TileMatrix};
use calu_netsim::MachineConfig;
use calu_obs::{JsonValue, Recorder};
use calu_runtime::{
    modeled_cache_traffic, modeled_time_layout, ExecutorKind, LuDag, LuShape, PanelMode,
    TileLocality,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Args {
    n: usize,
    nb: usize,
    reps: usize,
    threads: usize,
    panel: Vec<PanelMode>,
    out: String,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 0,
        nb: 128,
        reps: 1,
        threads: 0,
        panel: vec![PanelMode::Gathered, PanelMode::Resident],
        out: "BENCH_layout.json".into(),
        trace_out: None,
    };
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
            "--threads" => args.threads = parsed(val()),
            "--panel" => {
                args.panel = match val().as_str() {
                    "gathered" => vec![PanelMode::Gathered],
                    "resident" => vec![PanelMode::Resident],
                    "both" => vec![PanelMode::Gathered, PanelMode::Resident],
                    other => {
                        eprintln!("bad --panel {other:?}: expected gathered|resident|both");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => args.out = val(),
            "--trace-out" => args.trace_out = Some(val()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: layout_calu [--n N] [--nb NB] [--reps R] [--threads T] \
                     [--panel gathered|resident|both] [--out PATH] [--trace-out PATH]"
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

fn mode_name(mode: PanelMode) -> &'static str {
    match mode {
        PanelMode::Gathered => "gathered",
        PanelMode::Resident => "resident",
    }
}

struct Row {
    n: usize,
    panel: &'static str,
    executor: &'static str,
    flat_s: f64,
    tiled_s: f64,
    traffic_flat_mb: f64,
    traffic_tiled_mb: f64,
    modeled_flat_s: f64,
    modeled_tiled_s: f64,
}

fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = parse_args();
    let sizes: Vec<usize> = if args.n == 0 { vec![512, 1024] } else { vec![args.n] };
    let nb = args.nb;
    let host = HostInfo::detect(args.threads);
    let host_threads = host.host_threads;
    let mch = MachineConfig::xt4(); // 2 MB cache: 512^2+ doubles spill it
    let mut rng = StdRng::seed_from_u64(2026);

    println!("layout_calu: nb={nb}, host_threads={host_threads}, reps={}", args.reps);
    println!(
        "{:>6} {:>9} {:>9} {:>11} {:>11} {:>9} {:>11} {:>11} {:>8}",
        "n", "panel", "executor", "flat", "tile", "measured", "traffic(F)", "traffic(T)", "modeled"
    );

    let mut rows = Vec::new();
    for &n in &sizes {
        let a: Matrix = gen::randn(&mut rng, n, n);
        let p = (n / nb).max(2);
        let shape = LuShape { m: n, n, nb };
        let tiles0 = TileMatrix::from_matrix(&a, nb, nb);

        for &mode in &args.panel {
            let opts = CaluOpts { block: nb, p, panel_mode: mode, ..Default::default() };

            // Correctness gate before any timing: the sequential sweep,
            // the flat path and the tile path, bitwise, in either mode.
            let flat_ref = {
                let mut w = a.clone();
                let (ipiv, _) =
                    runtime_calu_inplace(w.view_mut(), opts, RuntimeOpts::default(), &mut NoObs)
                        .expect("factorization succeeds");
                (w, ipiv)
            };
            {
                let seq = calu_core::calu_factor(&a, opts).expect("factorization succeeds");
                assert_eq!(flat_ref.1, seq.ipiv, "{} pivots diverge at n={n}", mode_name(mode));
                assert_eq!(
                    flat_ref.0.max_abs_diff(&seq.lu),
                    0.0,
                    "{} factors must be bitwise identical to sequential at n={n}",
                    mode_name(mode)
                );
                let mut t = tiles0.clone();
                let (ipiv, _) =
                    runtime_calu_tiles(&mut t, opts, RuntimeOpts::default(), &mut NoObs).unwrap();
                assert_eq!(ipiv, flat_ref.1, "{} tile pivots diverge at n={n}", mode_name(mode));
                assert_eq!(
                    t.to_matrix().max_abs_diff(&flat_ref.0),
                    0.0,
                    "{} tile factors must be bitwise identical at n={n}",
                    mode_name(mode)
                );
            }

            // Modeled columns from the mode-matching DAG: executed and
            // modeled paths agree on which panel tasks exist.
            let dag = LuDag::build_panels(shape, 1, mode, p);
            let traffic = |loc: TileLocality| -> f64 {
                dag.tasks().iter().map(|&t| modeled_cache_traffic(&dag, t, &mch, loc)).sum()
            };
            let modeled = |loc: TileLocality| -> f64 {
                dag.tasks().iter().map(|&t| modeled_time_layout(&dag, t, &mch, loc)).sum()
            };
            let (tf, tt) = (traffic(TileLocality::Flat), traffic(TileLocality::TileMajor));
            let (mf, mt) = (modeled(TileLocality::Flat), modeled(TileLocality::TileMajor));

            for (name, executor) in [
                ("serial", ExecutorKind::Serial),
                ("threaded", ExecutorKind::Threaded { threads: args.threads }),
            ] {
                let rt = RuntimeOpts { lookahead: 1, executor };
                // Both timed regions factor a pre-cloned working copy in
                // place — the clone stays outside the timer on both paths.
                let flat_s = best_of(args.reps, || {
                    let mut w = a.clone();
                    let t0 = Instant::now();
                    let (ipiv, _) = runtime_calu_inplace(w.view_mut(), opts, rt, &mut NoObs)
                        .expect("flat run succeeds");
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(ipiv.len(), n);
                    dt
                });
                let tiled_s = best_of(args.reps, || {
                    let mut t = tiles0.clone();
                    let t0 = Instant::now();
                    let (ipiv, _) = runtime_calu_tiles(&mut t, opts, rt, &mut NoObs)
                        .expect("tile run succeeds");
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(ipiv.len(), n);
                    dt
                });
                println!(
                    "{:>6} {:>9} {:>9} {:>9.1}ms {:>9.1}ms {:>8.2}x {:>9.1}MB {:>9.1}MB {:>7.2}x",
                    n,
                    mode_name(mode),
                    name,
                    flat_s * 1e3,
                    tiled_s * 1e3,
                    flat_s / tiled_s,
                    tf / 1e6,
                    tt / 1e6,
                    mf / mt
                );
                rows.push(Row {
                    n,
                    panel: mode_name(mode),
                    executor: name,
                    flat_s,
                    tiled_s,
                    traffic_flat_mb: tf / 1e6,
                    traffic_tiled_mb: tt / 1e6,
                    modeled_flat_s: mf,
                    modeled_tiled_s: mt,
                });
            }
        }
    }

    if let Some(path) = &args.trace_out {
        // One extra tile-major threaded run at the largest size, replayed
        // into a Chrome trace so `bench_report --trace` can profile it.
        // Uses the last selected panel mode (resident under `both`).
        let mode = *args.panel.last().expect("at least one panel mode");
        let n = *sizes.last().expect("sizes non-empty");
        let a: Matrix = gen::randn(&mut rng, n, n);
        let mut t = TileMatrix::from_matrix(&a, nb, nb);
        let opts =
            CaluOpts { block: nb, p: (n / nb).max(2), panel_mode: mode, ..Default::default() };
        let rt = RuntimeOpts {
            lookahead: 1,
            executor: ExecutorKind::Threaded { threads: args.threads },
        };
        let (ipiv, rep) = runtime_calu_tiles(&mut t, opts, rt, &mut NoObs).expect("traced run");
        assert_eq!(ipiv.len(), n);
        let rec = Recorder::new();
        rep.record_into(&rec, 0.0);
        std::fs::write(path, rec.chrome_trace()).expect("write trace json");
        println!("wrote {path} ({} spans, {} panel mode)", rec.len(), mode_name(mode));
    }

    if !host.measured_speedup_valid {
        println!(
            "\nsingle-core host ({host_threads} thread): threaded rows measure executor \
             overhead, not parallel wins, and the host LLC may hold the whole matrix — the \
             layout claim is the modeled cache-traffic cut of {:.2}x (XT4 cache model)",
            rows.iter().map(|r| r.traffic_flat_mb / r.traffic_tiled_mb).fold(0.0, f64::max)
        );
    }

    let row_json = |r: &Row| {
        JsonValue::obj()
            .set("n", r.n)
            .set("panel", r.panel)
            .set("executor", r.executor)
            .set("flat_s", r.flat_s)
            .set("tiled_s", r.tiled_s)
            .set("measured_speedup", r.flat_s / r.tiled_s)
            .set("modeled_traffic_flat_mb", r.traffic_flat_mb)
            .set("modeled_traffic_tiled_mb", r.traffic_tiled_mb)
            .set("modeled_traffic_ratio", r.traffic_flat_mb / r.traffic_tiled_mb)
            .set("modeled_time_flat_s", r.modeled_flat_s)
            .set("modeled_time_tiled_s", r.modeled_tiled_s)
    };
    let record = host
        .stamp(
            JsonValue::obj()
                .set("bench", "layout_calu")
                .set("nb", nb)
                .set("communicator", "shared_memory"),
        )
        .set("reps", args.reps)
        .set("model", "xt4")
        .set("rows", rows.iter().map(row_json).collect::<JsonValue>());
    write_record(&args.out, &record);
}
