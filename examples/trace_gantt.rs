//! Renders per-rank timelines of the distributed panel factorizations on
//! the simulated IBM POWER5: TSLU's handful of exchanges versus PDGETF2's
//! per-column picket fence of messages — the paper's latency argument,
//! made visible. The timelines are `calu_obs` spans, the type measured runs
//! record too: the TSLU run's spans are also written as a Chrome trace to
//! `target/TRACE_sim.json`, which `bench_report --trace` profiles like a
//! measured one.
//!
//! Run: `cargo run --release --example trace_gantt`

use calu_repro::core::dist::{sim_pdgetf2_panel, sim_tslu_panel};
use calu_repro::core::LocalLu;
use calu_repro::matrix::gen;
use calu_repro::netsim::{MachineConfig, TimeBreakdown};
use calu_repro::obs::{chrome_trace, render_gantt, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (m, b, p) = (2_000, 16, 8);
    let mut rng = StdRng::seed_from_u64(42);
    let a = gen::randn(&mut rng, m, b);
    let mch = MachineConfig::power5();

    println!("Panel factorization of a {m}x{b} panel over {p} simulated POWER5 ranks\n");

    let (rep_t, spans_t) = sim_tslu_panel_traced(&a, p, &mch);
    println!("== TSLU (tournament pivoting): {:.3} ms makespan", rep_t_ms(&rep_t));
    println!("{}", render_gantt(&spans_t, 100));
    println!("   attribution: {}\n", TimeBreakdown::from_report(&rep_t).one_line());

    let (rep_p, spans_p) = sim_pdgetf2_panel_traced(&a, p, &mch);
    println!("== PDGETF2 (per-column pivoting): {:.3} ms makespan", rep_t_ms(&rep_p));
    println!("{}", render_gantt(&spans_p, 100));
    println!("   attribution: {}\n", TimeBreakdown::from_report(&rep_p).one_line());

    println!(
        "PDGETF2 / TSLU time ratio: {:.2}  (paper Table 3 reports up to 4.37 on POWER5)",
        rep_p.makespan() / rep_t.makespan()
    );
    println!(
        "messages: TSLU {} vs PDGETF2 {}  (the factor-b reduction of Section 5)",
        rep_t.total_msgs(),
        rep_p.total_msgs()
    );

    let path = "target/TRACE_sim.json";
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write(path, chrome_trace(&spans_t)).expect("write the simulated trace");
    println!("wrote {path} ({} spans, virtual seconds as microseconds)", spans_t.len());
}

fn rep_t_ms(r: &calu_repro::netsim::SimReport) -> f64 {
    r.makespan() * 1e3
}

// The real-data panel drivers run under `run_sim`; re-run them under the
// traced runner by wrapping their rank programs. The drivers expose
// non-traced entry points, so trace with an equal-cost skeleton instead —
// same schedule, same charges (cross-checked in calu-core's tests).
fn sim_tslu_panel_traced(
    a: &calu_repro::matrix::Matrix,
    p: usize,
    mch: &MachineConfig,
) -> (calu_repro::netsim::SimReport, Vec<Span>) {
    let (rep, _) = sim_tslu_panel(a, p, LocalLu::Classic, mch.clone());
    let skel = skeleton_traced(a.rows(), a.cols(), p, mch, true);
    (rep, skel)
}

fn sim_pdgetf2_panel_traced(
    a: &calu_repro::matrix::Matrix,
    p: usize,
    mch: &MachineConfig,
) -> (calu_repro::netsim::SimReport, Vec<Span>) {
    let (rep, _) = sim_pdgetf2_panel(a, p, mch.clone());
    let skel = skeleton_traced(a.rows(), a.cols(), p, mch, false);
    (rep, skel)
}

fn skeleton_traced(m: usize, b: usize, p: usize, mch: &MachineConfig, tslu: bool) -> Vec<Span> {
    use calu_repro::core::tslu::partition_rows;
    use calu_repro::netsim::machine::{flops_ger, flops_getf2, flops_trsm_right};
    use calu_repro::netsim::{run_sim_traced, Group, Link, Payload};

    let parts = partition_rows(m, p);
    let p_eff = parts.len();
    let (_rep, spans, _) = run_sim_traced(p_eff, mch.clone(), |cm| {
        let rows = parts[cm.rank()].len();
        let group = Group::new((0..p_eff).collect(), cm.rank(), Link::Col, 42);
        let mach = cm.machine().clone();
        if tslu {
            cm.compute(mach.t_getf2(rows, b), flops_getf2(rows, b));
            let words = 2 + b + b * b;
            group.allreduce(cm, Payload::Empty, words, |cm, a, _b| {
                cm.compute(mach.t_getf2(2 * b, b), flops_getf2(2 * b, b));
                a
            });
            cm.compute(mach.t_getf2(b, b), flops_getf2(b, b));
            cm.compute(mach.t_trsm_right(rows, b), flops_trsm_right(rows, b));
        } else {
            let range = parts[cm.rank()].clone();
            let words = b + 2;
            for j in 0..b {
                let lo = range.start.max(j);
                let active = range.end.saturating_sub(lo);
                cm.compute(active as f64 * mach.gamma1, 0.0);
                let r = group.reduce(cm, Payload::Empty, words, |_cm, a, _b| a);
                group.bcast(cm, 0, r.unwrap_or(Payload::Empty), words);
                let below = range.end.saturating_sub(range.start.max(j + 1));
                if below > 0 {
                    cm.compute(mach.gamma_div + below as f64 * mach.gamma1, below as f64);
                    if j + 1 < b {
                        cm.compute(mach.t_ger(below, b - j - 1), flops_ger(below, b - j - 1));
                    }
                }
            }
        }
    });
    spans
}
