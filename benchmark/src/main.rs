//! The repository benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how they interact; `BENCHMARK.json` at the
//! root of the repository for the contract this binary is run under.
//!
//! ```text
//! calu-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! The last line of standard output of each run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod names;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use calu_obs::{chrome_trace, parse_chrome_trace, JsonValue};

use stats::{median, per_slice, percentile, self_times_us, throughput, unit_latencies, Sample};
use trace::{OpTrace, Tracer};
use workloads::{Sizes, Variant, Workload, KINDS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Windows the run is cut into for `op_p99_ms` and `ops_per_s`.
const SLICES: usize = 10;
/// Share of `--seconds` a traced run spends on the workload; the probes
/// take about as long as the rest.
const TRACED_SHARE: f64 = 0.4;
/// Repetitions of each variant of the workload's op in a traced run.
const VARIANT_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

const USAGE: &str =
    "usage: calu-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 2008, seconds: 0.0, trace: false, quick: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => {
                println!("{USAGE}\nworkloads: {WORKLOADS:?}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be \"all\" or one of {WORKLOADS:?}"));
    }
    if args.seconds == 0.0 {
        args.seconds = if args.quick { 1.0 } else { 30.0 };
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

/// Ops of a run: timed samples of those that passed their check, and the
/// units of work attempted and failed.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// A failed op counts against the attempts and contributes no latency.
    fn add(&mut self, at: f64, out: workloads::OpOutcome) {
        self.attempted += u64::from(out.units);
        match out.error {
            None => self.samples.push(Sample { at, secs: out.secs, units: out.units }),
            Some(e) => {
                self.failed += u64::from(out.units);
                eprintln!("op failed: {e}");
            }
        }
    }

    fn fail(&mut self, what: &str, error: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("{what} failed: {error}");
    }
}

/// Sets the workload up [`SETUPS`] times, keeping the last; returns the
/// seconds each took.
fn set_up(
    name: &str,
    args: &Args,
    sizes: Sizes,
    keep_ledger: bool,
) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Free the previous instance first, or two would set the peak.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(workloads::setup(name, args.seed, sizes, keep_ledger)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((workload.expect("SETUPS is positive"), times))
}

type Metrics = BTreeMap<&'static str, f64>;

/// The untraced run: the end-to-end metrics.
fn run_end_to_end(name: &str, args: &Args, sizes: Sizes) -> Result<(Tally, Metrics), String> {
    let (mut workload, setups) = set_up(name, args, sizes, false)?;
    let mut tally = Tally::default();
    let start = Instant::now();
    loop {
        let at = start.elapsed().as_secs_f64();
        if at >= args.seconds {
            break;
        }
        tally.add(at, workload.op(&OpTrace::off()));
    }
    if tally.samples.is_empty() {
        return Err("no operation passed its check".into());
    }
    let horizon = start.elapsed().as_secs_f64();
    let all = unit_latencies(&tally.samples);
    let p99 = per_slice(&tally.samples, horizon, SLICES, |w| percentile(&unit_latencies(w), 99.0));
    let rate = per_slice(&tally.samples, horizon, SLICES, throughput);
    println!(
        "{name}: {} ops, {} units in {horizon:.1} s; setups {setups:.3?} s; \
         p50 over {} samples, p99 and rate over {} slices",
        tally.samples.len(),
        all.len(),
        all.len(),
        rate.len()
    );
    let metrics = Metrics::from([
        ("setup_s", median(&setups)),
        ("op_p50_ms", median(&all) * 1e3),
        ("op_p99_ms", median(&p99) * 1e3),
        ("ops_per_s", median(&rate)),
        ("peak_rss_mib", host::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?),
    ]);
    Ok((tally, metrics))
}

/// Exports the traced ops' spans, re-reads them, and takes from what was
/// re-read the median self time per op of every layer and the largest
/// relative gap between a root span and the sum of its op's self times.
fn span_metrics(name: &str, tracer: &Tracer, metrics: &mut Metrics) -> Result<(), String> {
    let spans = tracer.recorder.take();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{name}.trace.json");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    std::fs::write(&path, chrome_trace(&spans)).map_err(|e| format!("{path}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = parse_chrome_trace(&text)?;
    if parsed.len() != spans.len() {
        return Err(format!("{path}: wrote {} spans, read {}", spans.len(), parsed.len()));
    }
    println!("{name}: {} spans in {path}", parsed.len());

    let own = self_times_us(&parsed);
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut sum_by_op: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, self_us) in &own {
        // `<workload>/<op>` is a root, `<workload>/<op>/<layer>` a child.
        let (root, layer) = match span.match_indices('/').nth(1) {
            Some((i, _)) => (&span[..i], &span[i + 1..]),
            None => (span.as_str(), "root"),
        };
        by_layer.entry(layer).or_default().push(*self_us);
        *sum_by_op.entry(root).or_default() += self_us;
    }
    let roots = parsed.iter().filter(|s| s.name.matches('/').count() == 1);
    let gap = roots.map(|s| (sum_by_op[s.name.as_str()] - s.dur_us).abs() / s.dur_us);
    metrics.insert("trace.self_sum_err_frac", gap.fold(0.0, f64::max));
    metrics.insert("trace.ops", by_layer["root"].len() as f64);
    for (key, _) in names::PER_LAYER {
        if let Some(v) = key.strip_prefix("trace.self_ms.").and_then(|l| by_layer.get(l)) {
            metrics.insert(key, median(v) / 1e3);
        }
    }
    Ok(())
}

/// Executor time per op, from the reports the program returned.
fn ledger_metrics(ledger: &workloads::Ledger, metrics: &mut Metrics) {
    let ops = ledger.ops.max(1) as f64;
    for ((_, key), busy) in KINDS.iter().zip(ledger.busy) {
        metrics.insert(key, busy / ops * 1e3);
    }
    metrics.insert("core.rt.gemm_frac", ledger.share("gemm"));
    metrics.insert("core.rt.panel_frac", ledger.share("panel"));
    metrics.insert("core.rt.idle_frac", 1.0 - ledger.busy_total() / ledger.capacity);
    metrics.insert("core.rt.queue_delay_ms", ledger.queue_delay / ops * 1e3);
    metrics.insert("core.rt.tasks_per_op", ledger.tasks as f64 / ops);
}

/// The workload's op run other ways, [`VARIANT_REPS`] times each.
fn variant_metrics(workload: &mut dyn Workload, tally: &mut Tally, metrics: &mut Metrics) {
    for (variant, key) in [
        (Variant::Serial, "core.rt.serial_op_ms"),
        (Variant::Resident, "core.rt.resident_op_ms"),
        (Variant::Tiles, "core.rt.tiles_op_ms"),
    ] {
        let mut secs = Vec::new();
        for _ in 0..VARIANT_REPS {
            match workload.variant(variant) {
                None => break,
                Some(Ok(s)) => {
                    tally.attempted += 1;
                    secs.push(s);
                }
                Some(Err(e)) => tally.fail(key, &e),
            }
        }
        if !secs.is_empty() {
            metrics.insert(key, median(&secs) * 1e3);
        }
    }
}

/// The traced run: the per-layer metrics. Ops alternate between traced
/// and untraced, so that the two medians see the same host conditions and
/// their ratio is the tracing overhead.
fn run_traced(name: &str, args: &Args, sizes: Sizes) -> Result<(Tally, Metrics), String> {
    let (mut workload, _) = set_up(name, args, sizes, true)?;
    let mut metrics: Metrics = names::PER_LAYER.iter().map(|(k, _)| (*k, 0.0)).collect();
    let mut tally = Tally::default();
    let tracer = Tracer::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed().as_secs_f64() < TRACED_SHARE * args.seconds || op < 2 {
        let at = start.elapsed().as_secs_f64();
        let out = if op % 2 == 0 {
            workload.op(&OpTrace::off())
        } else {
            let spans = OpTrace::on(&tracer, name, op);
            spans.root(|| workload.op(&spans))
        };
        if out.error.is_none() {
            if op % 2 == 0 { &mut untraced } else { &mut traced }.push(out.secs);
        }
        tally.add(at, out);
        op += 1;
    }
    if traced.is_empty() || untraced.is_empty() {
        return Err("no operation passed its check".into());
    }
    metrics.insert("bench.trace_overhead_frac", median(&traced) / median(&untraced) - 1.0);
    span_metrics(name, &tracer, &mut metrics)?;
    ledger_metrics(&workload.take_ledger(), &mut metrics);
    variant_metrics(workload.as_mut(), &mut tally, &mut metrics);
    let threaded = median(&unit_latencies(&tally.samples));
    let serial = metrics["core.rt.serial_op_ms"] / 1e3;
    metrics.insert("core.rt.parallel_efficiency", serial / (host::nproc() as f64 * threaded));
    match workload.layer_metrics() {
        Ok(own) => metrics.extend(own),
        Err(e) => tally.fail("layer metrics", &e),
    }
    drop(workload);

    println!(
        "probes: triad arrays {} MiB each, caches {:?}",
        host::triad_array_bytes() >> 20,
        host::cache_sizes()
    );
    match probes::run(args.seed, sizes) {
        Ok(probed) => metrics.extend(probed),
        Err(e) => tally.fail("probe", &e),
    }
    Ok((tally, metrics))
}

/// Prints every metric by name with its unit, then the result line.
fn report(tally: &Tally, metrics: &Metrics, units: &[(&str, &str)]) -> bool {
    assert_eq!(metrics.len(), units.len(), "the metrics printed are those of names.rs");
    let mut correct = tally.failed == 0;
    let mut object = JsonValue::obj();
    for (key, unit) in units {
        let mut value = metrics[key];
        println!("  {key:<48} {value:>16.6} {unit}");
        if !value.is_finite() {
            eprintln!("metric {key} is not finite");
            correct = false;
            value = 0.0;
        }
        object = object.set(key, JsonValue::obj().set("value", value).set("unit", *unit));
    }
    let line = JsonValue::obj()
        .set("correct", correct)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("metrics", object);
    println!("{}", line.to_json());
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.quick { Sizes::quick() } else { Sizes::full() };
    println!("{}", host::fingerprint());
    let selected: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    // `all` prints both runs of every workload, untraced first.
    let passes: &[bool] = if args.workload == "all" { &[false, true] } else { &[args.trace] };
    let mut correct = true;
    for name in selected {
        for &traced in passes {
            println!(
                "workload {name}, seed {}, {} s, trace {}",
                args.seed,
                args.seconds,
                u8::from(traced)
            );
            let (run, units) = if traced {
                (run_traced(name, &args, sizes), names::PER_LAYER)
            } else {
                (run_end_to_end(name, &args, sizes), names::END_TO_END)
            };
            match run {
                Ok((tally, metrics)) => correct &= report(&tally, &metrics, units),
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
