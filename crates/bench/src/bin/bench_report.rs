//! Profiling and perf-trajectory front-end over the observability stack.
//!
//! Two modes:
//!
//! * `bench_report --trace PATH [--wall-s S] [--out PATH]` — parse a
//!   Chrome trace (`examples/trace_export.rs`, or the
//!   `benchmark/out/<workload>.trace.json` of a `--trace 1` benchmark
//!   run), run `calu_obs::analyze` over it, and render the resulting
//!   [`Profile`] as a deterministic JSON report. Asserts the analysis
//!   invariants on the way out: every worker's compute + comm-wait +
//!   overhead + idle sums to wall-clock **exactly**, and the measured
//!   critical path is ≤ wall and ≥ every single worker's own longest span
//!   chain. (A bare trace carries no ledger/queue-delay side channels, so
//!   its busy time all lands in `compute`; `tests/observability.rs` feeds
//!   the side channels of live runs through the same analyzer.)
//! * `benchmark … | bench_report --history BENCH_history.jsonl --pr N` —
//!   read the repository benchmark's stdout on stdin and append one line
//!   `{pr, commit, host, failed, workloads: {<name>: {<end-to-end metric>:
//!   value}}}` to the history file: the committed perf trajectory, one
//!   line per PR. `commit` is the `HEAD` of the checkout that was measured
//!   (the benchmark's host line carries it), so a PR measured before it is
//!   committed names its parent there; `pr` is what identifies the line.
//!   End-to-end metrics come from the `trace 0` runs only; `failed` sums
//!   over every run read.

use calu_obs::analyze::longest_chain_ns;
use calu_obs::{parse_chrome_trace, JsonValue, Profile, ProfileInputs};
use std::collections::BTreeMap;
use std::io::Write as _;

const USAGE: &str = "usage: bench_report --trace PATH [--wall-s S] [--out PATH]\n\
                     \u{20}      benchmark ... | bench_report --history PATH --pr N";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn run_trace(path: &str, wall_s: f64, out: Option<&str>) {
    let spans = parse_chrome_trace(&read(path)).unwrap_or_else(|e| {
        eprintln!("{path} is not a valid chrome trace: {e}");
        std::process::exit(2);
    });
    // A bare trace has no ledger or queue-delay side channels; the
    // partition still holds exactly, with busy time reported as compute.
    let profile = Profile::build(&spans, ProfileInputs { wall_s, ..Default::default() });
    for w in &profile.workers {
        assert!(
            w.partition_exact(),
            "lane ({},{}) violates the sum-to-wall partition",
            w.pid,
            w.tid
        );
    }
    assert!(profile.measured_cp_ns <= profile.wall_ns, "measured critical path exceeds wall-clock");
    // Each worker's own longest chain bounds the global chain from below.
    let mut lanes: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for (s, iv) in spans.iter().zip(calu_obs::analyze::intervals_ns(&spans)) {
        lanes.entry((s.pid, s.tid)).or_default().push(iv);
    }
    for ((pid, tid), ivs) in lanes {
        assert!(
            longest_chain_ns(&ivs) <= profile.measured_cp_ns,
            "lane ({pid},{tid}) chains longer than the measured critical path"
        );
    }
    let report = JsonValue::obj()
        .set("report", "bench_report")
        .set("trace", path)
        .set("profile", profile.to_json());
    let text = report.pretty();
    match out {
        Some(p) => {
            std::fs::write(p, format!("{text}\n")).unwrap_or_else(|e| {
                eprintln!("cannot write {p}: {e}");
                std::process::exit(2);
            });
            println!("wrote {p}");
        }
        None => println!("{text}"),
    }
    println!(
        "{} spans, {} workers: partition exact, measured CP {:.3}ms <= wall {:.3}ms ✓",
        profile.spans,
        profile.workers.len(),
        profile.measured_cp_ns as f64 / 1e6,
        profile.wall_ns as f64 / 1e6
    );
}

/// One `BENCH_history.jsonl` line from the benchmark's stdout: the
/// `host::fingerprint()` line, then per run a `workload <name>, seed …,
/// trace 0|1` header and one result JSON (the metric listing in between
/// is skipped). Metric names are copied from the results, never restated.
fn history_line(pr: u64, stdout: &str) -> Result<JsonValue, String> {
    let mut host = None;
    let mut header: Option<(&str, bool)> = None;
    let mut failed = 0u64;
    let mut workloads = JsonValue::obj();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("host: ") {
            host = Some(rest.rsplit_once(" commit=").ok_or("host line without commit=")?);
        } else if let Some(rest) = line.strip_prefix("workload ") {
            let name = rest.split(',').next().unwrap_or(rest);
            header = Some((name, rest.ends_with("trace 1")));
        } else if line.starts_with('{') {
            let (name, traced) = header.take().ok_or("result line without a workload header")?;
            let result = JsonValue::parse(line)?;
            let field = |key: &str| result.get(key).ok_or(format!("{name}: result without {key}"));
            failed += field("failed")?.as_u64().ok_or("failed is not a count")?;
            if traced {
                continue;
            }
            let mut row = JsonValue::obj();
            for (metric, cell) in field("metrics")?.as_object().ok_or("metrics is not an object")? {
                let value = cell.get("value").and_then(JsonValue::as_f64);
                row = row.set(metric, value.ok_or(format!("{name}: {metric} has no value"))?);
            }
            workloads = workloads.set(name, row);
        }
    }
    let (host, commit) = host.ok_or("no host line")?;
    if workloads.as_object().is_some_and(|w| w.is_empty()) {
        return Err("no end-to-end (trace 0) result on stdin".into());
    }
    Ok(JsonValue::obj()
        .set("pr", pr)
        .set("commit", commit)
        .set("host", host)
        .set("failed", failed)
        .set("workloads", workloads))
}

fn run_history(path: &str, pr: u64) {
    let fail = |what: String| -> ! {
        eprintln!("{what}");
        std::process::exit(2);
    };
    let stdout = std::io::read_to_string(std::io::stdin())
        .unwrap_or_else(|e| fail(format!("cannot read stdin: {e}")));
    let line =
        history_line(pr, &stdout).unwrap_or_else(|e| fail(format!("not a benchmark run: {e}")));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| writeln!(file, "{}", line.to_json()))
        .unwrap_or_else(|e| fail(format!("cannot append to {path}: {e}")));
    println!("appended PR {pr} to {path}");
}

fn parsed<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value {v:?}");
        usage();
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut trace: Option<String> = None;
    let mut wall_s = 0.0_f64;
    let mut out: Option<String> = None;
    let mut history: Option<String> = None;
    let mut pr: Option<u64> = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--trace" => trace = Some(val()),
            "--wall-s" => wall_s = parsed(val()),
            "--out" => out = Some(val()),
            "--history" => history = Some(val()),
            "--pr" => pr = Some(parsed(val())),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                usage();
            }
        }
    }
    match (trace, history, pr) {
        (Some(path), None, None) => run_trace(&path, wall_s, out.as_deref()),
        (None, Some(path), Some(pr)) => run_history(&path, pr),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stdout of `calu-benchmark --workload all --quick` on the reference
    /// host, cut to two workloads and, in the traced results, to two of the
    /// 68 per-layer metrics (the second traced result edited to one failed
    /// op so the sum over runs shows).
    const QUICK: &str = r#"host: nproc=2 cpu="Intel(R) Xeon(R) Processor @ 2.10GHz" caches=[L1 Data 48 KiB, L2 Unified 2048 KiB] rustc="rustc 1.95.0 (59807616e 2026-04-14)" commit=48e224beb634cf94c42c05c39d01a9f9700321a8
workload square_factor, seed 2008, 1 s, trace 0
square_factor: 402 ops, 402 units in 1.0 s; setups [0.008, 0.007, 0.007] s; p50 over 402 samples, p99 and rate over 10 slices
  setup_s                                                  0.007096 s
  op_p50_ms                                                2.265694 ms
  op_p99_ms                                                2.873754 ms
  ops_per_s                                              434.469797 1/s
  peak_rss_mib                                             8.785156 MiB
{"correct":true,"attempted":402,"failed":0,"metrics":{"setup_s":{"value":0.007096124,"unit":"s"},"op_p50_ms":{"value":2.265694,"unit":"ms"},"op_p99_ms":{"value":2.8737535000000003,"unit":"ms"},"ops_per_s":{"value":434.4697973394562,"unit":"1/s"},"peak_rss_mib":{"value":8.78515625,"unit":"MiB"}}}
workload square_factor, seed 2008, 1 s, trace 1
square_factor: 312 spans in /root/repo/benchmark/out/square_factor.trace.json
probes: triad arrays 64 MiB each, caches [("L1 Data", 49152), ("L2 Unified", 2097152)]
  host.peak_gflops                                        12.734263 GFLOP/s
  runtime.dag.tasks.factor                                67.000000 count
{"correct":true,"attempted":166,"failed":0,"metrics":{"host.peak_gflops":{"value":12.734262553135078,"unit":"GFLOP/s"},"runtime.dag.tasks.factor":{"value":67,"unit":"count"}}}
workload serve_mixed, seed 2008, 1 s, trace 0
serve_mixed: 3294 ops, 17666 units in 1.0 s; setups [0.020, 0.020, 0.019] s; p50 over 17666 samples, p99 and rate over 10 slices
  setup_s                                                  0.019939 s
  op_p50_ms                                                0.183595 ms
  op_p99_ms                                                1.353919 ms
  ops_per_s                                            17856.500096 1/s
  peak_rss_mib                                           214.730469 MiB
{"correct":true,"attempted":17666,"failed":0,"metrics":{"setup_s":{"value":0.019938876,"unit":"s"},"op_p50_ms":{"value":0.18359499999999998,"unit":"ms"},"op_p99_ms":{"value":1.3539189999999999,"unit":"ms"},"ops_per_s":{"value":17856.500096337215,"unit":"1/s"},"peak_rss_mib":{"value":214.73046875,"unit":"MiB"}}}
workload serve_mixed, seed 2008, 1 s, trace 1
serve_mixed: 3840 spans in /root/repo/benchmark/out/serve_mixed.trace.json
{"correct":false,"attempted":6769,"failed":1,"metrics":{"host.peak_gflops":{"value":12.51572287686406,"unit":"GFLOP/s"},"runtime.dag.tasks.factor":{"value":67,"unit":"count"}}}
"#;

    #[test]
    fn history_line_keeps_the_end_to_end_runs_of_a_quick_pass() {
        let line = history_line(18, QUICK).expect("a benchmark run");
        let reparsed = JsonValue::parse(&line.to_json()).expect("one line of JSON");
        assert_eq!(reparsed, line);
        assert!(!line.to_json().contains('\n'));
        assert_eq!(line.get("pr").and_then(JsonValue::as_u64), Some(18));
        assert_eq!(
            line.get("commit").and_then(JsonValue::as_str),
            Some("48e224beb634cf94c42c05c39d01a9f9700321a8")
        );
        let host = line.get("host").and_then(JsonValue::as_str).unwrap();
        assert!(host.starts_with("nproc=2 cpu=") && host.ends_with("2026-04-14)\""), "{host}");
        assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(1), "summed over runs");
        let workloads = line.get("workloads").and_then(JsonValue::as_object).unwrap();
        let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["square_factor", "serve_mixed"]);
        for (name, row) in workloads {
            let metrics: Vec<&str> =
                row.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                metrics,
                ["setup_s", "op_p50_ms", "op_p99_ms", "ops_per_s", "peak_rss_mib"],
                "{name}: the traced run's per-layer metrics stay out"
            );
        }
        let p50 = |w: &str| line.get("workloads")?.get(w)?.get("op_p50_ms")?.as_f64();
        assert_eq!(p50("square_factor"), Some(2.265694));
        assert_eq!(p50("serve_mixed"), Some(0.18359499999999998));
    }

    #[test]
    fn history_line_rejects_what_is_not_a_benchmark_run() {
        assert_eq!(history_line(1, "").unwrap_err(), "no host line");
        let headless = QUICK.split_once('\n').unwrap().1;
        assert_eq!(history_line(1, headless).unwrap_err(), "no host line");
        let host_only = QUICK.lines().next().unwrap();
        assert!(history_line(1, host_only).unwrap_err().contains("no end-to-end"));
        let orphan = format!("{host_only}\n{{\"failed\":0,\"metrics\":{{}}}}\n");
        assert!(history_line(1, &orphan).unwrap_err().contains("without a workload header"));
    }
}
