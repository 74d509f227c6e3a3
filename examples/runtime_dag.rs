//! The task-graph runtime, made visible: builds the LU dependency DAG for
//! a small factorization, prints the deterministic critical-path-first
//! schedule the serial executor replays, shows how lookahead depth changes
//! the modeled critical path, then runs the threaded executor on real data
//! and renders its per-worker Gantt chart from the run's `calu_obs` spans.
//!
//! Run: `cargo run --release --example runtime_dag`

use calu_repro::core::{calu_factor, runtime_calu_factor, CaluOpts, RuntimeOpts};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::netsim::MachineConfig;
use calu_repro::obs::{render_gantt, Recorder};
use calu_repro::runtime::{modeled_time, ExecutorKind, LuDag, LuShape, PanelMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (m, n, nb) = (384usize, 384usize, 64usize);
    let shape = LuShape { m, n, nb };

    // --- 1. The DAG itself: per step a TSLU panel subgraph laid out by that
    // step's PanelPlan (one elect per leaf, one reduce per tournament match,
    // one finish, one apply per chunk of L21 rows), then swap/trsm per block
    // column and one gemm per update chunk (a run of tiles of about 256 rows)
    // and block column.
    let dag = LuDag::build(shape, 2);
    let count = |dag: &LuDag, cat: &str| dag.tasks().iter().filter(|t| t.cat() == cat).count();
    let census = |dag: &LuDag| {
        ["panel_elect", "panel_reduce", "panel_finish", "panel_apply", "swap", "trsm", "gemm"]
            .map(|cat| count(dag, cat))
    };
    // What the plans say the census must be.
    let planned = |dag: &LuDag| {
        let plans = (0..shape.steps()).map(|k| dag.panel_plan(k));
        let (mut elect, mut reduce, mut apply, mut gemm) = (0, 0, 0, 0);
        for (k, plan) in plans.enumerate() {
            elect += plan.leaves().len();
            reduce += plan.tree().len();
            apply += plan.chunks().len();
            gemm += plan.update_chunks() * (shape.col_blocks() - 1 - k);
        }
        [elect, reduce, shape.steps(), apply, gemm]
    };
    let [elect, reduce, finish, apply, swaps, trsms, gemms] = census(&dag);
    assert_eq!(
        [elect, reduce, finish, apply, gemms],
        planned(&dag),
        "DAG and PanelPlan census differ"
    );
    assert_eq!([elect, reduce, finish, apply], [24, 18, 6, 5], "4 leaves/step; one 4096-row chunk");
    // Step 0 updates 320 rows as chunks of 256 and 64 in each of 5 block
    // columns; from step 1 on one chunk covers the trailing rows. Per tile
    // it would be 25 + 16 + 9 + 4 + 1 = 55 tasks.
    assert_eq!(gemms, 5 * 2 + 4 + 3 + 2 + 1);
    assert_eq!(dag.len(), elect + reduce + finish + apply + swaps + trsms + gemms);
    println!("LU task DAG for {m}x{n}, nb={nb}, lookahead depth 2");
    println!(
        "  {} tasks: {elect} PanelElect, {reduce} PanelReduce, {finish} PanelFinish, \
         {apply} PanelApply, {swaps} Swap, {trsms} Trsm, {gemms} Gemm",
        dag.len()
    );
    let plan = dag.panel_plan(0);
    println!(
        "  step 0 plan: leaves {:?}, tree {:?}, L21 chunks {:?}, update chunks {:?}",
        plan.leaves(),
        plan.tree().iter().map(|t| (t.lo, t.hi)).collect::<Vec<_>>(),
        plan.chunks().collect::<Vec<_>>(),
        (0..plan.update_chunks()).map(|i| plan.update_chunk(i)).collect::<Vec<_>>()
    );

    // Resident mode is the same subgraph with one leaf per tile row.
    let resident = LuDag::build_with(shape, 2, PanelMode::Resident);
    let [elect, reduce, finish, apply, .., gemms] = census(&resident);
    assert_eq!([elect, reduce, finish, apply, gemms], planned(&resident));
    assert_eq!([elect, reduce, finish, apply], [6 + 5 + 4 + 3 + 2 + 1, 5 + 4 + 3 + 2 + 1, 6, 5]);
    println!(
        "  resident (tile-height leaves): {} tasks ({elect} elect, {reduce} reduce, \
         {finish} finish, {apply} apply)\n",
        resident.len()
    );

    // --- 2. The deterministic serial schedule (what SerialExecutor replays).
    println!("serial critical-path-first schedule:");
    let order = dag.serial_schedule();
    let line: Vec<String> = order.iter().map(|&id| dag.tasks()[id].to_string()).collect();
    for chunk in line.chunks(6) {
        println!("  {}", chunk.join("  "));
    }

    // --- 3. Lookahead depth vs. modeled critical path (POWER5 kernel rates).
    let mch = MachineConfig::power5();
    println!("\nmodeled critical path vs. lookahead depth (POWER5 γ rates):");
    let total = dag.total_cost(|t| modeled_time(&dag, t, &mch));
    println!("  one worker (sum of tasks): {:>9.3} ms", total * 1e3);
    for depth in 1..=4 {
        let d = LuDag::build(shape, depth);
        let cp = d.critical_path(|t| modeled_time(&d, t, &mch));
        println!(
            "  depth {depth}: critical path {:>9.3} ms  (parallelism {:.2}x)",
            cp * 1e3,
            total / cp
        );
    }

    // --- 4. A real run on the threaded executor, traced.
    let mut rng = StdRng::seed_from_u64(7);
    let a: Matrix = gen::randn(&mut rng, m, n);
    let opts = CaluOpts { block: nb, p: 4, ..Default::default() };
    let rt = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 0 } };
    let (f, report) = runtime_calu_factor(&a, opts, rt).expect("factorization succeeds");
    let seq = calu_factor(&a, opts).expect("sequential reference succeeds");
    assert_eq!(
        seq.lu.max_abs_diff(&f.lu),
        0.0,
        "runtime factors must be bitwise identical to sequential CALU"
    );

    println!(
        "\nthreaded run: {} workers, {:.3} ms wall, {:.3} ms busy ({} tasks)",
        report.workers,
        report.wall * 1e3,
        report.busy() * 1e3,
        report.order.len()
    );
    let spans = Recorder::new();
    report.record_into(&spans, 0.0);
    println!("{}", render_gantt(&spans.take(), 100));
    println!("factors verified bitwise identical to sequential CALU.");
}
