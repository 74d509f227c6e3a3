//! Trace-export tour, self-validating (CI runs it): serve a burst of
//! requests through [`SolverService`], export the service's span trace as
//! Chrome trace-event JSON plus the unified metrics snapshot, then parse
//! both back and assert the round trip. The file it writes is the input
//! of `bench_report --trace`.
//!
//! Open the emitted file in `chrome://tracing` or <https://ui.perfetto.dev>:
//! pid lanes are ranks (0 for the shared-memory runtime), tid lanes are
//! executor workers, and the `serve`-category intervals wrap each
//! `process` pass around the task spans it executed.
//!
//! Run: `cargo run --release --example trace_export [OUT.json]`
//! (default `target/TRACE_example.json`, a path `.gitignore` covers).

use calu_repro::core::{CaluOpts, RuntimeOpts, ServeOpts, SolverService};
use calu_repro::matrix::gen;
use calu_repro::obs::{chrome_trace, parse_chrome_trace, JsonValue};
use calu_repro::runtime::ExecutorKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "target/TRACE_example.json".into());
    let n = 192;
    let mut rng = StdRng::seed_from_u64(2008);
    let a = gen::diag_dominant(&mut rng, n);

    let opts = ServeOpts {
        max_batch: 8,
        calu: CaluOpts { block: 32, p: 4, ..Default::default() },
        rt: RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 2 } },
        ..Default::default()
    };
    let mut svc: SolverService = SolverService::new(opts);
    svc.register(1, a);

    // Two passes: the first factors + solves, the second is pure cache hits.
    for pass in 0..2 {
        let tickets: Vec<_> = (0..6)
            .map(|_| {
                let col = gen::randn(&mut rng, n, 1);
                svc.submit(1, col.col(0).to_vec()).expect("queue has room")
            })
            .collect();
        let rep = svc.process();
        println!("pass {pass}: completed={} factored={}", rep.completed, rep.factored);
        for t in tickets {
            svc.try_take(t).expect("processed").expect("nonsingular");
        }
    }

    // Export: every span the service recorded, as Chrome trace events.
    let spans = svc.spans();
    let trace = chrome_trace(&spans);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(&out, &trace).expect("write trace");
    println!("wrote {out}: {} spans", spans.len());

    // Validate the export end to end: it must parse back with every span
    // intact, timestamps monotone (the parser enforces that), and the
    // serve-pass intervals present.
    let parsed = parse_chrome_trace(&trace).expect("emitted trace parses");
    assert_eq!(parsed.len(), spans.len(), "round trip keeps every span");
    let passes = parsed.iter().filter(|s| s.name == "process").count();
    assert_eq!(passes, 2, "one serve interval per process pass");
    assert!(parsed.iter().any(|s| s.name.contains("Panel")), "factorization task spans present");
    assert!(parsed.iter().any(|s| s.name.contains("Solve")), "solve task spans present");
    println!("round trip ✓ ({passes} process passes, monotone timestamps)");

    // The metrics snapshot rides the same unified JSON path.
    let snapshot = svc.metrics_snapshot();
    let reparsed = JsonValue::parse(&snapshot.pretty()).expect("snapshot JSON parses");
    let counter = |name: &str| {
        reparsed.get("counters").and_then(|c| c.get(name)).and_then(JsonValue::as_u64).unwrap_or(0)
    };
    assert_eq!(counter("serve.submitted"), 12);
    assert_eq!(counter("serve.completed"), 12);
    assert_eq!(counter("serve.factored"), 1, "second pass must be a cache hit");
    println!(
        "metrics ✓ submitted={} completed={} factored={} cache hits={}",
        counter("serve.submitted"),
        counter("serve.completed"),
        counter("serve.factored"),
        counter("serve.cache.hits")
    );
}
