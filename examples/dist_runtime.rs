//! The distributed layer on the task-graph runtime, end to end: factors a
//! matrix over a 2D block-cyclic grid by driving each rank's work through
//! the per-rank `calu-runtime` DAG, verifies the factors bitwise against
//! the pre-refactor SPMD reference, and prints the **dual-layer Gantt** —
//! the modeled per-rank schedule of the distributed algorithm (compute,
//! communication, idle of every rank under the POWER5 α-β-γ model, with the
//! per-rank accounting behind it) stacked above the wall-clock timeline of
//! the runtime workers that actually executed the tasks. Both layers are
//! `calu_obs` spans drawn by one renderer. Under them come the call's four
//! phase spans (scatter, execute, model, assemble), which account for the
//! whole call.
//!
//! Run: `cargo run --release --example dist_runtime`

use calu_repro::core::dist::{dist_calu_factor_spmd, DistCaluConfig};
use calu_repro::core::{dist_calu_factor_rt, DistRtOpts, LocalLu, DIST_PHASES};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::netsim::MachineConfig;
use calu_repro::obs::{render_gantt, Recorder};
use calu_repro::runtime::ExecutorKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 256;
    let (pr, pc) = (2usize, 2usize);
    let depth = 2;
    let cfg = DistCaluConfig { b: 32, pr, pc, local: LocalLu::Recursive };
    let mch = MachineConfig::power5();
    println!(
        "runtime-driven distributed CALU: {n}x{n}, b={}, grid {pr}x{pc}, lookahead depth {depth}\n",
        cfg.b
    );

    let mut rng = StdRng::seed_from_u64(11);
    let a: Matrix = gen::randn(&mut rng, n, n);

    let rt = DistRtOpts {
        lookahead: depth,
        executor: ExecutorKind::Threaded { threads: 0 },
        ..Default::default()
    };
    let (rep, d) = dist_calu_factor_rt(&a, cfg, rt, mch.clone());

    // The DAG-driven factors are bitwise identical to the SPMD loop's.
    let (_r, reference) = dist_calu_factor_spmd(&a, cfg, mch.clone());
    assert_eq!(d.ipiv, reference.ipiv);
    assert_eq!(d.lu.max_abs_diff(&reference.lu), 0.0);
    println!("factors bitwise-identical to the SPMD reference ✓");
    println!(
        "{} tasks; modeled critical path {:.3e} s; modeled rank-schedule makespan {:.3e} s\n",
        rep.tasks, rep.critical_path, rep.makespan
    );

    // Layer 1: the distributed algorithm — every rank's modeled timeline,
    // compute and communication in one trace.
    println!("── distributed layer (modeled {} ranks, {}) ──", pr * pc, mch.name);
    print!("{}", render_gantt(&rep.modeled, 96));
    for (r, st) in rep.sim.per_rank.iter().enumerate() {
        println!(
            "  r{r} = rank({},{}): compute {:.2e}s  comm {:.2e}s  idle {:.2e}s",
            r % pr,
            r / pr,
            st.compute_time,
            st.send_time,
            st.idle_time
        );
    }

    // Layer 2: the runtime — the wall-clock schedule of the executor
    // workers (lane r<rank>.w<worker>) that ran the same DAG's task bodies
    // on this host.
    let measured = Recorder::new();
    rep.exec.record_into(&measured, 0.0);
    println!(
        "\n── runtime layer ({} workers, wall-clock {:.1} ms) ──",
        rep.exec.workers,
        rep.exec.wall * 1e3
    );
    print!("{}", render_gantt(&measured.take(), 96));

    // Where the whole call went: the run above is `dist.execute`; scatter,
    // the in-call cost model and assembly are the rest of it.
    println!("\n── the call, phase by phase ──");
    let phases: Vec<_> =
        rep.spans.iter().filter(|s| DIST_PHASES.contains(&s.name.as_str())).collect();
    let call_us: f64 = phases.iter().map(|s| s.dur_us).sum();
    for s in &phases {
        println!(
            "  {:<14} {:8.3} ms  {:5.1} %",
            s.name,
            s.dur_us / 1e3,
            100.0 * s.dur_us / call_us
        );
    }
    println!("  {:<14} {:8.3} ms", "call", call_us / 1e3);

    println!(
        "\nper-rank modeled accounting: {} msgs, {} words, {:.2} modeled GFLOP/s aggregate",
        rep.sim.total_msgs(),
        rep.sim.total_words(),
        rep.sim.gflops()
    );
}
