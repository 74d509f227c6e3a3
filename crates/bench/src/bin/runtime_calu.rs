//! Runtime-executor performance record: serial vs. threaded execution of
//! the CALU task DAG at several lookahead depths and both panel modes,
//! written as `BENCH_runtime.json` so CI and later sessions can diff
//! performance.
//!
//! Two win metrics are recorded, because the container running CI may be
//! single-core:
//!
//! * **measured**: wall-clock of the threaded executor vs. the serial
//!   executor on the host (meaningful when `host_threads > 1`);
//! * **modeled**: the DAG's critical path vs. its serial sum under the
//!   POWER5 γ-rate cost model — the schedule-quality win that does not
//!   depend on the host, and the acceptance evidence on single-core hosts.
//!
//! The measured-speedup claim is only meaningful with real parallelism:
//! when `available_parallelism` reports a single core the JSON carries
//! `"measured_speedup_valid": false` and the summary line says so, so a
//! committed record from a single-core CI container cannot be mistaken
//! for a parallel-win measurement (see EXPERIMENTS.md).
//!
//! The `--panel` flag selects the leaves of the panel subgraph
//! (`PanelElect`/`PanelReduce`/`PanelFinish`/`PanelApply`): `gathered`
//! (`p` block rows), `resident` (one leaf per tile row), or `both` (the
//! default). The record's `panel_comparison` section holds, per mode, one
//! traced threaded run's measured panel-phase time, the idle-during-panel
//! wait (`calu_obs::idle_overlap_ns`), the modeled critical path, and the
//! modeled tile-major panel traffic. The gathered rows use
//! `p = max(n/nb, 2)` tournament blocks so their leaves coincide with the
//! resident tree's tile-height leaves at the first step (apples to
//! apples); each row records its `p`. Every mode's factors are asserted
//! bitwise equal to the sequential sweep's before timing.
//!
//! Usage: `runtime_calu [--n N] [--nb NB] [--reps R] [--threads T]
//! [--panel gathered|resident|both] [--out PATH] [--trace-out PATH]`
//! (defaults: n=1024, nb=128, reps=1, threads=0 = host, panel=both,
//! out=BENCH_runtime.json). With `--trace-out`, one extra threaded run at
//! the deepest lookahead exports its task timeline as a Chrome trace that
//! `bench_report --trace` (or `chrome://tracing`) can consume.

use calu_bench::{write_record, HostInfo};
use calu_core::{calu_factor, runtime_calu_factor, CaluOpts, RuntimeOpts};
use calu_matrix::{gen, Matrix};
use calu_netsim::MachineConfig;
use calu_obs::analyze::measured_phase_ns;
use calu_obs::{idle_overlap_ns, JsonValue, Profile, ProfileInputs, Recorder};
use calu_runtime::{
    modeled_cache_traffic, modeled_time, ExecutorKind, LuDag, LuShape, PanelMode, TileLocality,
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
        n: 1024,
        nb: 128,
        reps: 1,
        threads: 0,
        panel: vec![PanelMode::Gathered, PanelMode::Resident],
        out: "BENCH_runtime.json".into(),
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
                    "usage: runtime_calu [--n N] [--nb NB] [--reps R] [--threads T] \
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
    panel: &'static str,
    p: usize,
    depth: usize,
    serial_s: f64,
    threaded_s: f64,
    tasks: usize,
    modeled_serial_s: f64,
    modeled_cp_s: f64,
}

/// One mode's traced threaded run for the `panel_comparison` section.
struct PanelSide {
    mode: &'static str,
    wall_s: f64,
    panel_measured_ns: u64,
    panel_wait_ns: u64,
    modeled_cp_s: f64,
    panel_traffic_mb: f64,
}

fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = parse_args();
    let (n, nb) = (args.n, args.nb);
    let host = HostInfo::detect(args.threads);
    let host_threads = host.host_threads;
    let mut rng = StdRng::seed_from_u64(2024);
    let a: Matrix = gen::randn(&mut rng, n, n);
    // Apples-to-apples tournament granularity: the gathered reference
    // folds p = max(n/nb, 2) block-rows, matching the resident tree's
    // tile-height leaves at the first panel.
    let p = (n / nb).max(2);
    let opts_for =
        |mode: PanelMode| CaluOpts { block: nb, p, panel_mode: mode, ..Default::default() };
    let shape = LuShape { m: n, n, nb };
    let mch = MachineConfig::power5();
    for &mode in &args.panel {
        let seq = calu_factor(&a, opts_for(mode)).expect("factorization succeeds");
        let (f, _) = runtime_calu_factor(&a, opts_for(mode), RuntimeOpts::default())
            .expect("factorization succeeds");
        assert_eq!(f, seq, "{} runtime factors must equal sequential bitwise", mode_name(mode));
    }

    println!(
        "runtime_calu: {n}x{n}, nb={nb}, p={p}, host_threads={host_threads}, reps={}",
        args.reps
    );
    println!(
        "{:>9} {:>5} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9}",
        "panel", "depth", "serial", "threaded", "measured", "model 1-wkr", "model CP", "modeled"
    );

    let mut rows = Vec::new();
    for &mode in &args.panel {
        for depth in [1usize, 2, 3] {
            let run = |executor: ExecutorKind| {
                let rt = RuntimeOpts { lookahead: depth, executor };
                let t0 = Instant::now();
                let (f, _rep) =
                    runtime_calu_factor(&a, opts_for(mode), rt).expect("factorization succeeds");
                let dt = t0.elapsed().as_secs_f64();
                // Keep the factors alive so the call is not optimized away.
                assert_eq!(f.ipiv.len(), n);
                dt
            };
            let serial_s = best_of(args.reps, || run(ExecutorKind::Serial));
            let threaded_s =
                best_of(args.reps, || run(ExecutorKind::Threaded { threads: args.threads }));

            let dag = LuDag::build_panels(shape, depth, mode, p);
            let modeled_serial_s = dag.total_cost(|t| modeled_time(&dag, t, &mch));
            let modeled_cp_s = dag.critical_path(|t| modeled_time(&dag, t, &mch));
            println!(
                "{:>9} {:>5} {:>10.1}ms {:>10.1}ms {:>8.2}x {:>10.1}ms {:>10.1}ms {:>8.2}x",
                mode_name(mode),
                depth,
                serial_s * 1e3,
                threaded_s * 1e3,
                serial_s / threaded_s,
                modeled_serial_s * 1e3,
                modeled_cp_s * 1e3,
                modeled_serial_s / modeled_cp_s
            );
            rows.push(Row {
                panel: mode_name(mode),
                p,
                depth,
                serial_s,
                threaded_s,
                tasks: dag.len(),
                modeled_serial_s,
                modeled_cp_s,
            });
        }
    }

    let measured_valid = host.measured_speedup_valid;
    let best = rows
        .iter()
        .max_by(|a, b| (a.serial_s / a.threaded_s).total_cmp(&(b.serial_s / b.threaded_s)))
        .expect("rows non-empty");
    if measured_valid {
        println!(
            "\nbest measured win: {} depth {} at {:.2}x; best modeled critical-path win: {:.2}x",
            best.panel,
            best.depth,
            best.serial_s / best.threaded_s,
            rows.iter().map(|r| r.modeled_serial_s / r.modeled_cp_s).fold(0.0, f64::max)
        );
    } else {
        println!(
            "\nsingle-core host ({host_threads} thread): measured 'speedup' is executor \
             overhead only, NOT a parallel win — the schedule-quality claim is the modeled \
             critical-path win of {:.2}x",
            rows.iter().map(|r| r.modeled_serial_s / r.modeled_cp_s).fold(0.0, f64::max)
        );
    }

    // Panel-mode comparison: one traced threaded run per selected mode at
    // depth 2, profiled through calu-obs — measured panel-phase time, the
    // idle-during-panel wait the subgraph exists to shrink, and the
    // modeled tile-major panel traffic.
    let mut sides: Vec<PanelSide> = Vec::new();
    for &mode in &args.panel {
        let rt = RuntimeOpts {
            lookahead: 2,
            executor: ExecutorKind::Threaded { threads: args.threads },
        };
        let (f, rep) = runtime_calu_factor(&a, opts_for(mode), rt).expect("traced run succeeds");
        assert_eq!(f.ipiv.len(), n);
        let rec = Recorder::new();
        rep.record_into(&rec, 0.0);
        let spans = rec.take();
        let wall_ns = (rep.wall * 1e9).round() as u64;
        let is_panel = |c: &str| c.starts_with("panel");
        let panel_measured_ns = measured_phase_ns(&spans)
            .into_iter()
            .filter(|(cat, _)| is_panel(cat))
            .map(|(_, ns)| ns)
            .sum();
        let panel_wait_ns = idle_overlap_ns(&spans, is_panel, wall_ns);
        // The sum-to-wall partition must hold exactly on this run
        // (Profile::build asserts it per lane).
        let profile = Profile::build(
            &spans,
            ProfileInputs {
                wall_s: rep.wall,
                overhead_ns: &rep.queue_delay_ns_by_lane(),
                ..Default::default()
            },
        );
        assert!(profile.workers.iter().all(|w| w.partition_exact()));
        let dag = LuDag::build_panels(shape, 2, mode, p);
        let panel_traffic_mb = dag
            .tasks()
            .iter()
            .filter(|t| is_panel(t.cat()))
            .map(|&t| modeled_cache_traffic(&dag, t, &mch, TileLocality::TileMajor))
            .sum::<f64>()
            / 1e6;
        sides.push(PanelSide {
            mode: mode_name(mode),
            wall_s: rep.wall,
            panel_measured_ns,
            panel_wait_ns,
            modeled_cp_s: dag.critical_path(|t| modeled_time(&dag, t, &mch)),
            panel_traffic_mb,
        });
    }
    println!(
        "\n{:>9} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "panel", "wall", "panel time", "panel wait", "model CP", "panel MB"
    );
    for s in &sides {
        println!(
            "{:>9} {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>10.1}MB",
            s.mode,
            s.wall_s * 1e3,
            s.panel_measured_ns as f64 / 1e6,
            s.panel_wait_ns as f64 / 1e6,
            s.modeled_cp_s * 1e3,
            s.panel_traffic_mb
        );
    }
    if let [g, r] = &sides[..] {
        println!(
            "resident vs gathered: panel time {:.2}x",
            g.panel_measured_ns as f64 / (r.panel_measured_ns as f64).max(1.0)
        );
    }

    if let Some(path) = &args.trace_out {
        // One extra threaded run at the deepest lookahead, replayed into a
        // Chrome trace so `bench_report --trace` can profile it. Uses the
        // last selected panel mode (resident under the default `both`).
        let mode = *args.panel.last().expect("at least one panel mode");
        let rt = RuntimeOpts {
            lookahead: 3,
            executor: ExecutorKind::Threaded { threads: args.threads },
        };
        let (f, rep) = runtime_calu_factor(&a, opts_for(mode), rt).expect("traced run succeeds");
        assert_eq!(f.ipiv.len(), n);
        let rec = Recorder::new();
        rep.record_into(&rec, 0.0);
        std::fs::write(path, rec.chrome_trace()).expect("write trace json");
        println!("wrote {path} ({} spans, {} panel mode)", rec.len(), mode_name(mode));
    }

    let row_json = |r: &Row| {
        JsonValue::obj()
            .set("panel", r.panel)
            .set("p", r.p)
            .set("depth", r.depth)
            .set("tasks", r.tasks)
            .set("serial_s", r.serial_s)
            .set("threaded_s", r.threaded_s)
            .set("measured_speedup", r.serial_s / r.threaded_s)
            .set("modeled_serial_s", r.modeled_serial_s)
            .set("modeled_cp_s", r.modeled_cp_s)
            .set("modeled_cp_speedup", r.modeled_serial_s / r.modeled_cp_s)
    };
    let side_json = |s: &PanelSide| {
        JsonValue::obj()
            .set("panel", s.mode)
            .set("wall_s", s.wall_s)
            .set("panel_measured_ns", s.panel_measured_ns)
            .set("panel_wait_ns", s.panel_wait_ns)
            .set("modeled_cp_s", s.modeled_cp_s)
            .set("modeled_panel_traffic_tile_mb", s.panel_traffic_mb)
            .set("partition_exact", true)
    };
    let mut record = host
        .stamp(
            JsonValue::obj()
                .set("bench", "runtime_calu")
                .set("n", n)
                .set("nb", nb)
                .set("p", p)
                .set("communicator", "shared_memory"),
        )
        .set("reps", args.reps)
        .set("model", "power5")
        .set("rows", rows.iter().map(row_json).collect::<JsonValue>());
    let mut cmp = JsonValue::obj()
        .set("depth", 2usize)
        .set("executor", "threaded")
        .set("modes", sides.iter().map(side_json).collect::<JsonValue>());
    if let [g, r] = &sides[..] {
        cmp = cmp.set(
            "panel_time_ratio",
            g.panel_measured_ns as f64 / (r.panel_measured_ns as f64).max(1.0),
        );
    }
    record = record.set("panel_comparison", cmp);
    write_record(&args.out, &record);
}
