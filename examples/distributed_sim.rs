//! CALU on the simulated IBM POWER5: runs the *real-data* distributed
//! algorithm on a 2D block-cyclic grid of simulated ranks, verifies the
//! factors against the problem, and prints the virtual-time accounting the
//! paper's tables are built from (per-rank compute/idle/messages, critical
//! path, modeled GFLOP/s).
//!
//! Run: `cargo run --release --example distributed_sim`

use calu_repro::core::dist::DistCaluConfig;
use calu_repro::core::{dist_calu_factor_rt, DistRtOpts, LocalLu, LuFactors};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::netsim::MachineConfig;
use calu_repro::stability::backward_error_inf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 256;
    let cfg = DistCaluConfig { b: 32, pr: 2, pc: 2, local: LocalLu::Recursive };
    let machine = MachineConfig::power5();
    println!(
        "distributed CALU: {n}x{n}, b = {}, grid {}x{} on the {} model\n",
        cfg.b, cfg.pr, cfg.pc, machine.name
    );

    let mut rng = StdRng::seed_from_u64(7);
    let a: Matrix = gen::randn(&mut rng, n, n);
    let b_rhs = gen::hpl_rhs(&mut rng, n);

    let (rep, d) = dist_calu_factor_rt(&a, cfg, DistRtOpts::default(), machine);
    let report = rep.sim;

    println!("rank  virtual_time  compute      idle         msgs   words");
    for (r, s) in report.per_rank.iter().enumerate() {
        println!(
            "{r:>4}  {:>10.3e}  {:>10.3e}  {:>10.3e}  {:>5}  {:>7}",
            s.time, s.compute_time, s.idle_time, s.msgs_sent, s.words_sent
        );
    }
    println!("\ncritical path (makespan): {:.3e} s (virtual)", report.makespan());
    println!("modeled aggregate rate:   {:.2} GFLOP/s", report.gflops());
    println!("total messages:           {}", report.total_msgs());

    // The simulated run computes the *real* factorization:
    let f = LuFactors { lu: d.lu, ipiv: d.ipiv };
    let x = f.solve(&b_rhs);
    let bw = backward_error_inf(&a, &x, &b_rhs);
    println!("\nsolution backward error from the simulated factors: {bw:.3e}");
    assert!(bw < 1e-12);
}
