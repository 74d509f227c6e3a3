//! Serving-layer performance record: per-request latency and throughput of
//! [`SolverService`] across batch sizes, cache regimes, and executors,
//! written as `BENCH_serve.json` so CI and later sessions can diff it.
//!
//! The claim under test: once a factorization is cached, a batched solve
//! pass is O(n²) per request and must beat the factor-per-request floor
//! (cold cache, batch 1 — every request pays the O(n³) factorization) by a
//! growing margin as the batch widens.
//!
//! Scenario grid: {serial, threaded} x batch {1, 8, 32} x {hot, cold}.
//! *hot* pre-warms the factor cache and keeps a generous byte budget, so
//! every timed request is a cache hit; *cold* sets the budget to zero, so
//! every `process` pass re-factors (hit ratio 0). Per-ticket latency is
//! submit-to-`process`-return; percentiles are over all requests of the
//! scenario.
//!
//! Alongside the scenario record, the service's own observability layer
//! is exported: the threaded hot batch-8 scenario's metrics snapshot
//! (queue/cache/latency registry) is embedded under `"metrics"`, and its
//! span trace is written as a Chrome-trace JSON (`TRACE_serve.json`,
//! openable in `chrome://tracing` / Perfetto).
//!
//! Usage: `serve_calu [--n N] [--nb NB] [--reqs R] [--out PATH] [--trace-out PATH]`
//! (defaults: n=256, nb=32, reqs=64, out=BENCH_serve.json,
//! trace-out=TRACE_serve.json).

use calu_bench::{write_record, HostInfo};
use calu_core::{CaluOpts, RuntimeOpts, ServeOpts, SolverService};
use calu_matrix::{gen, Matrix};
use calu_obs::{chrome_trace, parse_chrome_trace, JsonValue, Span};
use calu_runtime::ExecutorKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Args {
    n: usize,
    nb: usize,
    reqs: usize,
    out: String,
    trace_out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 256,
        nb: 32,
        reqs: 64,
        out: "BENCH_serve.json".into(),
        trace_out: "TRACE_serve.json".into(),
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
            "--reqs" => args.reqs = parsed(val()),
            "--out" => args.out = val(),
            "--trace-out" => args.trace_out = val(),
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve_calu [--n N] [--nb NB] [--reqs R] [--out PATH] \
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

struct Scenario {
    executor: &'static str,
    batch: usize,
    cache: &'static str,
    solves_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    hit_ratio: f64,
    factored: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

fn run_scenario(
    a: &Matrix<f64>,
    rhs_pool: &[Vec<f64>],
    nb: usize,
    batch: usize,
    hot: bool,
    executor: ExecutorKind,
    exec_name: &'static str,
) -> (Scenario, JsonValue, Vec<Span>) {
    let reqs = rhs_pool.len();
    let opts = ServeOpts {
        cache_capacity_bytes: if hot { 256 << 20 } else { 0 },
        queue_capacity: reqs.max(batch),
        max_batch: batch,
        rhs_block: 8,
        calu: CaluOpts { block: nb, p: 4, ..Default::default() },
        rt: RuntimeOpts { lookahead: 2, executor },
    };
    let mut svc: SolverService = SolverService::new(opts);
    svc.register(1, a.clone());

    if hot {
        // Pre-warm the cache so every timed request is a hit.
        let t = svc.submit(1, rhs_pool[0].clone()).expect("queue sized for the run");
        svc.process();
        svc.try_take(t).expect("processed").expect("nonsingular");
    }
    let warm_stats = svc.cache_stats();

    let mut latencies = Vec::with_capacity(reqs);
    let mut factored = 0usize;
    let t_total = Instant::now();
    for group in rhs_pool.chunks(batch) {
        let submitted = Instant::now();
        let tickets: Vec<_> = group
            .iter()
            .map(|rhs| svc.submit(1, rhs.clone()).expect("queue sized for the run"))
            .collect();
        let rep = svc.process();
        let done = submitted.elapsed().as_secs_f64();
        assert_eq!(rep.completed, tickets.len());
        factored += rep.factored;
        for t in tickets {
            svc.try_take(t).expect("processed").expect("nonsingular");
            latencies.push(done);
        }
    }
    let total_s = t_total.elapsed().as_secs_f64();

    let stats = svc.cache_stats();
    let (hits, misses) = (stats.hits - warm_stats.hits, stats.misses - warm_stats.misses);
    latencies.sort_by(|x, y| x.total_cmp(y));
    let scenario = Scenario {
        executor: exec_name,
        batch,
        cache: if hot { "hot" } else { "cold" },
        solves_per_s: reqs as f64 / total_s,
        p50_ms: percentile(&latencies, 0.50) * 1e3,
        p95_ms: percentile(&latencies, 0.95) * 1e3,
        p99_ms: percentile(&latencies, 0.99) * 1e3,
        hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        factored,
    };
    (scenario, svc.metrics_snapshot(), svc.spans())
}

fn main() {
    let args = parse_args();
    let (n, nb, reqs) = (args.n, args.nb, args.reqs);
    // Measured wall-clock ratios only mean something with real parallelism
    // under the threaded executor; on a 1-core container the cache-regime
    // contrast (O(n²) hit vs O(n³) miss) still holds but thread scaling
    // does not.
    let host = HostInfo::detect(0);
    let host_threads = host.host_threads;

    let mut rng = StdRng::seed_from_u64(2008);
    let a: Matrix<f64> = gen::diag_dominant(&mut rng, n);
    let rhs_pool: Vec<Vec<f64>> = (0..reqs)
        .map(|_| {
            let col: Matrix<f64> = gen::randn(&mut rng, n, 1);
            col.col(0).to_vec()
        })
        .collect();

    println!("serve_calu: {n}x{n}, nb={nb}, reqs={reqs}, host_threads={host_threads}");

    let executors: [(ExecutorKind, &'static str); 2] =
        [(ExecutorKind::Serial, "serial"), (ExecutorKind::Threaded { threads: 0 }, "threaded")];
    let mut scenarios = Vec::new();
    // The threaded hot batch-8 scenario is the exported-observability one:
    // its metrics snapshot lands in the BENCH record and its span trace
    // becomes TRACE_serve.json.
    let mut exported: Option<(JsonValue, Vec<Span>)> = None;
    for &(executor, exec_name) in &executors {
        for &batch in &[1usize, 8, 32] {
            for &hot in &[true, false] {
                let (s, metrics, spans) =
                    run_scenario(&a, &rhs_pool, nb, batch, hot, executor, exec_name);
                if exec_name == "threaded" && batch == 8 && hot {
                    exported = Some((metrics, spans));
                }
                println!(
                    "{:>8} batch={:<2} {:<4}: {:>8.1} solves/s  p50={:.2}ms p95={:.2}ms \
                     p99={:.2}ms  hit_ratio={:.2} factored={}",
                    s.executor,
                    s.batch,
                    s.cache,
                    s.solves_per_s,
                    s.p50_ms,
                    s.p95_ms,
                    s.p99_ms,
                    s.hit_ratio,
                    s.factored
                );
                scenarios.push(s);
            }
        }
    }

    // Headline: cache-hit batched serving vs the factor-per-request floor,
    // per executor at batch >= 8.
    let rate = |exec: &str, batch: usize, cache: &str| {
        scenarios
            .iter()
            .find(|s| s.executor == exec && s.batch == batch && s.cache == cache)
            .map(|s| s.solves_per_s)
            .expect("scenario grid covers this point")
    };
    let mut record = host.stamp(
        JsonValue::obj()
            .set("bench", "serve_calu")
            .set("n", n)
            .set("nb", nb)
            .set("reqs", reqs)
            .set("communicator", "shared_memory"),
    );
    for &(_, exec_name) in &executors {
        let floor = rate(exec_name, 1, "cold");
        record = record
            .set(
                &format!("{exec_name}_hot_batch8_vs_factor_per_request"),
                rate(exec_name, 8, "hot") / floor,
            )
            .set(
                &format!("{exec_name}_hot_batch32_vs_factor_per_request"),
                rate(exec_name, 32, "hot") / floor,
            );
        println!(
            "{exec_name}: hot batch8 {:.1}x, batch32 {:.1}x over factor-per-request",
            rate(exec_name, 8, "hot") / floor,
            rate(exec_name, 32, "hot") / floor
        );
    }
    let scenarios_json: JsonValue = scenarios
        .iter()
        .map(|s| {
            JsonValue::obj()
                .set("executor", s.executor)
                .set("batch", s.batch)
                .set("cache", s.cache)
                .set("solves_per_s", s.solves_per_s)
                .set("p50_ms", s.p50_ms)
                .set("p95_ms", s.p95_ms)
                .set("p99_ms", s.p99_ms)
                .set("hit_ratio", s.hit_ratio)
                .set("factored", s.factored)
        })
        .collect();
    record = record.set("scenarios", scenarios_json);

    // The observability exports: embedded metrics snapshot + Chrome trace.
    let (metrics, spans) = exported.expect("scenario grid includes threaded hot batch 8");
    let trace = chrome_trace(&spans);
    let parsed = parse_chrome_trace(&trace).expect("own trace export parses");
    assert_eq!(parsed.len(), spans.len(), "trace round-trip preserves every span");
    std::fs::write(&args.trace_out, &trace).expect("write trace json");
    println!("wrote {} ({} spans)", args.trace_out, spans.len());
    record = record
        .set("metrics", metrics)
        .set("trace_file", args.trace_out.as_str())
        .set("trace_spans", spans.len());
    write_record(&args.out, &record);
}
