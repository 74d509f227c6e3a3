//! Observability-layer integration tests over *live* output: a small
//! `SolverService` burst is exported the way `examples/trace_export.rs`
//! does it and must come back as a valid, analyzable Chrome trace with its
//! metrics snapshot; one live 2×2 distributed run must render a ledger
//! whose exact-predictor terms all reconcile; and the one committed perf
//! artifact, `BENCH_history.jsonl`, is held to the workload and metric
//! names of `BENCHMARK.json`. (The `committed_*` names date from when these
//! assertions read checked-in bench records and a checked-in serve trace;
//! the assertions are the same, the input is now what the code emits.)
//!
//! The proptests are the property forms: for arbitrary matrix data the
//! mailbox ledger equals the exact predictor term for term (candidate
//! counts depend on geometry, never on values), and the analyzer's
//! wall-clock partition and critical-path sandwich hold on every
//! communicator, grid and executor.

use calu_repro::core::dist::DistCaluConfig;
use calu_repro::core::{
    dist_calu_factor_rt, runtime_calu_factor, CaluOpts, CommKind, DistRtOpts, LocalLu, RuntimeOpts,
    ServeOpts, SolverService, DIST_PHASES,
};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::netsim::MachineConfig;
use calu_repro::obs::analyze::{dag_span_chain_ns, intervals_ns};
use calu_repro::obs::{
    chrome_trace, parse_chrome_trace, JsonValue, Profile, ProfileInputs, Recorder, Span,
};
use calu_repro::runtime::{ExecutorKind, LuDag, LuShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A served burst on the threaded executor: the first pass factors and
/// solves, the second is pure cache hits.
fn served_burst() -> SolverService {
    let n = 96;
    let mut rng = StdRng::seed_from_u64(2008);
    let opts = ServeOpts {
        max_batch: 8,
        calu: CaluOpts { block: 16, p: 4, ..Default::default() },
        rt: RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 2 } },
        ..Default::default()
    };
    let mut svc: SolverService = SolverService::new(opts);
    svc.register(1, gen::diag_dominant(&mut rng, n));
    for _pass in 0..2 {
        let tickets: Vec<_> = (0..6)
            .map(|_| {
                let col: Matrix = gen::randn(&mut rng, n, 1);
                svc.submit(1, col.col(0).to_vec()).expect("queue has room")
            })
            .collect();
        assert_eq!(svc.process().completed, tickets.len());
        for t in tickets {
            svc.try_take(t).expect("processed").expect("nonsingular");
        }
    }
    svc
}

#[test]
fn committed_serve_trace_is_valid_chrome_trace() {
    let text = chrome_trace(&served_burst().spans());

    // It must be plain JSON with the trace_events shape...
    let doc = JsonValue::parse(&text).expect("the exported trace parses as JSON");
    let events =
        doc.get("traceEvents").and_then(JsonValue::as_array).expect("top-level traceEvents array");
    assert!(!events.is_empty(), "a served burst leaves spans");
    for ev in events {
        assert_eq!(ev.get("ph").and_then(JsonValue::as_str), Some("X"), "complete events only");
        assert!(ev.get("name").and_then(JsonValue::as_str).is_some());
        assert!(ev.get("cat").and_then(JsonValue::as_str).is_some());
        assert!(ev.get("pid").and_then(JsonValue::as_u64).is_some());
        assert!(ev.get("tid").and_then(JsonValue::as_u64).is_some());
        assert!(ev.get("ts").and_then(JsonValue::as_f64).unwrap() >= 0.0);
        assert!(ev.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
    }

    let cat_of = |ev: &JsonValue| ev.get("cat").and_then(JsonValue::as_str).map(str::to_string);
    assert!(
        events.iter().any(|ev| {
            ev.get("name").and_then(JsonValue::as_str) == Some("process")
                && cat_of(ev).as_deref() == Some("serve")
        }),
        "serve trace must carry the process-pass interval spans"
    );
    assert!(
        events.iter().any(|ev| cat_of(ev).as_deref() != Some("serve")),
        "serve trace must also carry the executor's task spans"
    );

    // ...and round-trip through the span parser, keeping every event.
    let spans = parse_chrome_trace(&text).expect("trace parses back into spans");
    assert_eq!(spans.len(), events.len());
    // The exporter sorts by timestamp — a viewer-friendly invariant.
    assert!(spans.windows(2).all(|w| w[0].ts_us <= w[1].ts_us), "spans sorted by start time");
}

#[test]
fn committed_serve_trace_round_trips_through_the_analyzer() {
    // An exported trace must stay analyzable, not merely parseable: the
    // analyzer's wall-clock partition has to hold exactly on it, and the
    // measured critical path has to land inside [0, wall].
    let text = chrome_trace(&served_burst().spans());
    let spans = parse_chrome_trace(&text).expect("trace parses");
    let profile = Profile::build(&spans, ProfileInputs::default());
    assert_eq!(profile.spans, spans.len(), "every span lands in some worker lane");
    assert!(!profile.workers.is_empty());
    for w in &profile.workers {
        assert!(
            w.partition_exact(),
            "lane ({},{}): compute+comm_wait+overhead+idle must equal wall exactly",
            w.pid,
            w.tid
        );
        // No side channels in a bare trace: busy time is all compute.
        assert_eq!(w.comm_wait_ns, 0);
        assert_eq!(w.overhead_ns, 0);
    }
    assert!(profile.measured_cp_ns > 0, "a non-empty trace has a non-empty chain");
    assert!(profile.measured_cp_ns <= profile.wall_ns);

    // The JSON rendering keeps the partition: the four _ns components of
    // every worker still sum to its wall_ns after serialization.
    let doc = JsonValue::parse(&profile.to_json().to_json()).expect("profile JSON parses");
    let workers = doc.get("per_worker").and_then(JsonValue::as_array).expect("per_worker");
    assert_eq!(workers.len(), profile.workers.len());
    for w in workers {
        let f = |k: &str| w.get(k).and_then(JsonValue::as_u64).expect("u64 field");
        assert_eq!(
            f("compute_ns") + f("comm_wait_ns") + f("overhead_ns") + f("idle_ns"),
            f("wall_ns")
        );
    }
}

/// Holds one `BENCH_history.jsonl` line to the benchmark's contract: the
/// provenance fields, and one finite number for every workload ×
/// end-to-end metric (both lists are read from `BENCHMARK.json`).
fn check_history_line(line: &str, workloads: &[&str], metrics: &[&str]) -> Result<(), String> {
    let doc = JsonValue::parse(line)?;
    doc.get("pr").and_then(JsonValue::as_u64).ok_or("missing pr")?;
    let commit = doc.get("commit").and_then(JsonValue::as_str).ok_or("missing commit")?;
    let host = doc.get("host").and_then(JsonValue::as_str).ok_or("missing host line")?;
    if commit.is_empty() || !host.starts_with("nproc=") {
        return Err(format!("commit {commit:?} / host {host:?} are not the benchmark's host line"));
    }
    doc.get("failed").and_then(JsonValue::as_u64).ok_or("missing failed")?;
    for workload in workloads {
        for metric in metrics {
            let cell = doc.get("workloads").and_then(|w| w.get(workload)?.get(metric)?.as_f64());
            if !cell.is_some_and(f64::is_finite) {
                return Err(format!("{workload} × {metric}: no finite number"));
            }
        }
    }
    Ok(())
}

#[test]
fn committed_bench_records_parse_and_carry_host_provenance() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let contract = JsonValue::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names = |section: &str| -> Vec<&str> {
        let rows = contract.get(section).and_then(JsonValue::as_array).expect("contract section");
        rows.iter().map(|r| r.get("name").and_then(JsonValue::as_str).expect("name")).collect()
    };
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));

    let history = read("BENCH_history.jsonl");
    assert!(history.lines().count() >= 2, "the trajectory starts with PR 18 and its parent");
    for (i, line) in history.lines().enumerate() {
        check_history_line(line, &workloads, &metrics)
            .unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
    }

    // The check bites: a line built from the contract's own names passes,
    // the same line with one workload × metric pair dropped does not.
    let line_without = |skip: Option<(&str, &str)>| {
        let mut table = JsonValue::obj();
        for &w in &workloads {
            let mut row = JsonValue::obj();
            for &m in metrics.iter().filter(|&&m| skip != Some((w, m))) {
                row = row.set(m, 1.5);
            }
            table = table.set(w, row);
        }
        JsonValue::obj()
            .set("pr", 0u64)
            .set("commit", "none")
            .set("host", "nproc=2 cpu=\"x\"")
            .set("failed", 0u64)
            .set("workloads", table)
            .to_json()
    };
    check_history_line(&line_without(None), &workloads, &metrics).expect("a complete line passes");
    let dropped = (*workloads.last().unwrap(), *metrics.last().unwrap());
    let err = check_history_line(&line_without(Some(dropped)), &workloads, &metrics).unwrap_err();
    assert!(err.contains(dropped.0) && err.contains(dropped.1), "{err}");
}

#[test]
fn committed_serve_record_embeds_metrics_and_trace_pointer() {
    let svc = served_burst();
    assert!(!svc.spans().is_empty(), "the snapshot comes with a trace to export");

    let metrics = JsonValue::parse(&svc.metrics_snapshot().pretty()).expect("snapshot parses");
    let counters = metrics.get("counters").expect("counters section");
    let submitted = counters.get("serve.submitted").and_then(JsonValue::as_u64).unwrap();
    let completed = counters.get("serve.completed").and_then(JsonValue::as_u64).unwrap();
    assert!(submitted > 0, "snapshot scenario submitted requests");
    assert_eq!(submitted, completed, "hot scenario completes everything it admits");
    let hists = metrics.get("histograms").expect("histograms section");
    assert!(hists.get("serve.ticket_latency_s").is_some(), "latency histogram recorded");
}

#[test]
fn committed_dist_record_reconciles_comm_exactly() {
    let mut rng = StdRng::seed_from_u64(2026);
    let a: Matrix = gen::randn(&mut rng, 64, 64);
    let cfg = DistCaluConfig { b: 8, pr: 2, pc: 2, local: LocalLu::Recursive };
    let (rep, d) = dist_calu_factor_rt(&a, cfg, DistRtOpts::default(), MachineConfig::ideal());
    assert!(d.first_singular.is_none());

    let rendered = rep.comm.to_json(&rep.expected_mailbox).to_json();
    let comm = JsonValue::parse(&rendered).expect("the ledger's JSON rendering parses");
    assert_eq!(comm.get("residual_words").and_then(JsonValue::as_u64), Some(0));
    assert!(comm.get("total_words").and_then(JsonValue::as_u64).unwrap() > 0);
    let recon = comm.get("reconcile").and_then(JsonValue::as_array).expect("reconcile table");
    let mut exact_terms = 0;
    for row in recon {
        if row.get("source").and_then(JsonValue::as_str) == Some("mailbox_exact") {
            assert_eq!(
                row.get("exact").and_then(JsonValue::as_bool),
                Some(true),
                "term {:?} must reconcile exactly",
                row.get("term")
            );
            exact_terms += 1;
        }
    }
    assert!(exact_terms >= 4, "tslu/pivot/panel/u terms all present, got {exact_terms}");
}

/// A distributed call explains all of its own time: the four phase spans
/// (scatter and set-up, the run, the in-call model, assembly) sit on a lane
/// of their own, back to back from the call's start, every task span falls
/// inside `dist.execute`, and together the phases are the call's wall clock
/// to within 5 % — under both communicators.
#[test]
fn dist_phase_spans_account_for_the_whole_call_on_both_communicators() {
    let mut rng = StdRng::seed_from_u64(2024);
    let a: Matrix = gen::randn(&mut rng, 256, 256);
    let cfg = DistCaluConfig { b: 32, pr: 2, pc: 2, local: LocalLu::Recursive };
    for communicator in [CommKind::InProcess, CommKind::Threaded] {
        let rt = DistRtOpts {
            lookahead: 2,
            executor: ExecutorKind::Threaded { threads: 2 },
            communicator,
        };
        let started = std::time::Instant::now();
        let (rep, d) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::power5());
        let wall_us = started.elapsed().as_secs_f64() * 1e6;
        assert!(d.first_singular.is_none());

        let (phases, tasks): (Vec<&Span>, Vec<&Span>) =
            rep.spans.iter().partition(|s| DIST_PHASES.contains(&s.name.as_str()));
        let names: Vec<&str> = phases.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, DIST_PHASES, "{communicator:?}: one span per phase, in order");
        assert_eq!(tasks.len(), rep.exec.order.len(), "{communicator:?}: the rest are tasks");
        let lane = (cfg.pr * cfg.pc) as u32;
        assert!(phases.iter().all(|s| (s.pid, s.tid) == (lane, 0)));
        assert!(tasks.iter().all(|s| s.pid < lane), "the phase lane holds no task");

        // Disjoint and ordered: each phase starts where the last one ended.
        let end = |s: &Span| s.ts_us + s.dur_us;
        assert_eq!(phases[0].ts_us, 0.0, "the timeline starts with the call");
        for pair in phases.windows(2) {
            assert!(
                (end(pair[0]) - pair[1].ts_us).abs() < 1e-3,
                "{} then {}",
                pair[0].name,
                pair[1].name
            );
        }
        let execute = phases[1];
        for s in &tasks {
            assert!(
                s.ts_us >= execute.ts_us - 1e-3 && end(s) <= end(execute) + 1e-3,
                "{communicator:?}: {} runs outside dist.execute",
                s.name
            );
        }
        let covered: f64 = phases.iter().map(|s| s.dur_us).sum();
        assert!(
            covered <= wall_us && covered >= 0.95 * wall_us,
            "{communicator:?}: phases cover {covered:.0} us of a {wall_us:.0} us call"
        );
    }
}

/// The analyzer's two invariants on one run: the per-lane partition of
/// wall-clock into compute + comm-wait + overhead + idle is EXACT in
/// integer nanoseconds, and the measured critical path sits between the
/// longest executed span chain along the edges of the `dag` that was run
/// and the wall clock.
fn check_profile(
    what: &str,
    spans: &[Span],
    inputs: ProfileInputs<'_>,
    dag: &LuDag,
) -> Result<Profile, TestCaseError> {
    let profile = Profile::build(spans, inputs);
    prop_assert_eq!(profile.spans, spans.len());
    prop_assert!(!profile.workers.is_empty());
    for w in &profile.workers {
        prop_assert!(
            w.partition_exact(),
            "{what} lane ({},{}): compute {} + comm_wait {} + overhead {} + idle {} != wall {}",
            w.pid,
            w.tid,
            w.compute_ns,
            w.comm_wait_ns,
            w.overhead_ns,
            w.idle_ns,
            w.wall_ns
        );
    }
    let dag_chain_ns = dag_span_chain_ns(&intervals_ns(spans), &span_edges(dag, spans));
    prop_assert!(dag_chain_ns > 0, "{what}: the executed DAG has a non-empty span chain");
    prop_assert!(
        dag_chain_ns <= profile.measured_cp_ns,
        "{what}: DAG span chain {dag_chain_ns} exceeds the measured critical path {}",
        profile.measured_cp_ns
    );
    prop_assert!(profile.measured_cp_ns <= profile.wall_ns);
    Ok(profile)
}

/// The DAG's edges over executed span instances. Spans are named after
/// their task; a collective executes once per participant under the
/// threaded communicator, so one task may own several spans and its edges
/// fan out to all instance pairs (the analyzer keeps the temporally
/// consistent ones).
fn span_edges(dag: &LuDag, spans: &[Span]) -> Vec<(usize, usize)> {
    let mut instances: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        instances.entry(s.name.as_str()).or_default().push(i);
    }
    let of_task: Vec<&[usize]> = dag
        .tasks()
        .iter()
        .map(|t| instances.get(t.to_string().as_str()).map_or(&[][..], Vec::as_slice))
        .collect();
    let mut edges = Vec::new();
    for u in 0..dag.len() {
        for &v in dag.successors(u) {
            edges.extend(
                of_task[u].iter().flat_map(|&iu| of_task[v].iter().map(move |&iv| (iu, iv))),
            );
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The exact-accounting property on arbitrary data: whatever the matrix
    // values, the mailbox ledger equals the exact predictor for every
    // mailbox term (TSLU legs, pivot/panel/U broadcasts, W blocks) — the
    // wire counts are a function of geometry alone.
    #[test]
    fn mailbox_ledger_matches_exact_prediction_for_arbitrary_data(
        seed in 0u64..1 << 32,
        grid_idx in 0usize..3,
        lookahead in 1usize..4,
        comm_idx in 0usize..2,
    ) {
        let (pr, pc) = [(2, 2), (2, 4), (3, 2)][grid_idx];
        let communicator = [CommKind::InProcess, CommKind::Threaded][comm_idx];
        let n = 24;
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Matrix = gen::randn(&mut rng, n, n);
        let cfg = DistCaluConfig { b: 4, pr, pc, local: LocalLu::Classic };
        let rt = DistRtOpts { lookahead, executor: ExecutorKind::Serial, communicator };
        let (rep, d) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
        prop_assert!(d.first_singular.is_none(), "randn matrices are nonsingular");
        prop_assert_eq!(rep.comm.residual_words, 0);
        for delta in rep.mailbox_deltas() {
            if delta.source == "mailbox_exact" {
                prop_assert!(
                    delta.exact(),
                    "{pr}x{pc} d={lookahead} {:?} term {}: measured {:?} != expected {:?}",
                    communicator, delta.term, delta.measured, delta.expected
                );
            }
        }
    }

    // The wait-state property: for every communicator × grid, feeding a
    // run's spans plus its measured side channels (blocked fetch-wait per
    // rank, queue delay per lane) to the analyzer yields an exact
    // per-worker partition, and the DAG-constrained span chain bounds the
    // measured critical path from below (`check_profile`). The same holds
    // for a shared-memory run on the threaded executor, whose only side
    // channel is the queue delay.
    #[test]
    fn wait_state_partition_is_exact_across_communicators_and_grids(
        seed in 0u64..1 << 32,
        grid_idx in 0usize..3,
        lookahead in 1usize..3,
        comm_idx in 0usize..2,
    ) {
        let (pr, pc) = [(2, 2), (2, 4), (3, 2)][grid_idx];
        let communicator = [CommKind::InProcess, CommKind::Threaded][comm_idx];
        let n = 24;
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Matrix = gen::randn(&mut rng, n, n);
        let cfg = DistCaluConfig { b: 4, pr, pc, local: LocalLu::Classic };
        let rt = DistRtOpts { lookahead, executor: ExecutorKind::Serial, communicator };
        let (rep, d) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
        prop_assert!(d.first_singular.is_none(), "randn matrices are nonsingular");

        let shape = LuShape { m: n, n, nb: cfg.b };
        let waits: Vec<((u32, u32), u64)> =
            rep.comm.wait_rank_totals().into_iter().map(|(r, ns)| ((r, r), ns)).collect();
        let profile = check_profile(
            &format!("{pr}x{pc} d={lookahead} {communicator:?}"),
            &rep.spans,
            ProfileInputs {
                wall_s: rep.exec.wall,
                comm_wait_ns: &waits,
                overhead_ns: &rep.exec.queue_delay_ns_by_lane(),
            },
            &LuDag::build_dist(shape, (pr, pc), lookahead),
        )?;
        // The threaded communicator moves payloads through real channels,
        // so its ledger always records blocked-fetch wait somewhere.
        if communicator == CommKind::Threaded {
            prop_assert!(rep.comm.wait_total_ns() > 0, "threaded runs block on first fetches");
            prop_assert!(
                profile.workers.iter().map(|w| w.comm_wait_ns).sum::<u64>() > 0,
                "recorded waits must surface in the profile"
            );
        }

        let opts = CaluOpts { block: cfg.b, p: pr, ..Default::default() };
        let rt = RuntimeOpts { lookahead, executor: ExecutorKind::Threaded { threads: 2 } };
        let (_f, rep) = runtime_calu_factor(&a, opts, rt).expect("randn matrices are nonsingular");
        let rec = Recorder::new();
        rep.record_into(&rec, 0.0);
        let spans = rec.take();
        let dag = LuDag::build_panels(shape, lookahead, opts.panel_mode, opts.p);
        prop_assert_eq!(spans.len(), dag.len(), "one span per task of the shared-memory DAG");
        check_profile(
            &format!("shared-memory d={lookahead}"),
            &spans,
            ProfileInputs {
                wall_s: rep.wall,
                overhead_ns: &rep.queue_delay_ns_by_lane(),
                ..Default::default()
            },
            &dag,
        )?;
    }
}
