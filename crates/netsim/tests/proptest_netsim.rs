//! Property-based tests on the simulator: determinism, clock sanity,
//! collective correctness over arbitrary group sizes and roots, and the
//! equivalence of charged rounds with explicitly simulated loops.

use calu_netsim::collectives::ceil_log2;
use calu_netsim::{run_sim, Group, Link, MachineConfig, Payload};
use proptest::prelude::*;

fn world(cm: &calu_netsim::SimComm) -> Group {
    Group::new((0..cm.size()).collect(), cm.rank(), Link::Col, 5_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_bcast_any_size_any_root(p in 1usize..12, root_sel in 0usize..12) {
        let root = root_sel % p;
        let (_r, results) = run_sim(p, MachineConfig::power5(), move |cm| {
            let g = world(cm);
            let mine = if g.my_index() == root {
                Payload::Data(vec![root as f64 * 10.0 + 1.0])
            } else {
                Payload::Empty
            };
            g.bcast(cm, root, mine, 1).into_data()[0]
        });
        for (rank, v) in results.into_iter().enumerate() {
            prop_assert_eq!(v, root as f64 * 10.0 + 1.0, "rank {}", rank);
        }
    }

    #[test]
    fn prop_allreduce_sum_any_size(p in 1usize..12) {
        let (_r, results) = run_sim(p, MachineConfig::xt4(), |cm| {
            let g = world(cm);
            let mine = Payload::Data(vec![(cm.rank() + 1) as f64]);
            g.allreduce(cm, mine, 1, |_cm, a, b| {
                Payload::Data(vec![a.into_data()[0] + b.into_data()[0]])
            })
            .into_data()[0]
        });
        let want = (p * (p + 1) / 2) as f64;
        for v in results {
            prop_assert_eq!(v, want);
        }
    }

    #[test]
    fn prop_reduce_root_gets_sum(p in 1usize..12) {
        let (_r, results) = run_sim(p, MachineConfig::power5(), |cm| {
            let g = world(cm);
            let mine = Payload::Data(vec![(cm.rank() * cm.rank()) as f64]);
            g.reduce(cm, mine, 1, |_cm, a, b| {
                Payload::Data(vec![a.into_data()[0] + b.into_data()[0]])
            })
            .map(|pl| pl.into_data()[0])
        });
        let want: f64 = (0..p).map(|r| (r * r) as f64).sum();
        prop_assert_eq!(results[0], Some(want));
        for v in &results[1..] {
            prop_assert_eq!(*v, None);
        }
    }

    #[test]
    fn prop_simulation_is_deterministic(p in 2usize..8, words in 1usize..500) {
        let run = || {
            let (report, _) = run_sim(p, MachineConfig::power5(), |cm| {
                let g = world(cm);
                // A mixed program: compute skew + allreduce + ring shift.
                cm.compute(cm.rank() as f64 * 1e-6, 10.0);
                g.allreduce(cm, Payload::Empty, words, |cm, a, _b| {
                    cm.compute(1e-7, 5.0);
                    a
                });
                let next = (cm.rank() + 1) % cm.size();
                let prev = (cm.rank() + cm.size() - 1) % cm.size();
                cm.send(next, 9, words, Payload::Empty, Link::Row);
                cm.recv(prev, 9);
                cm.now()
            });
            report.per_rank.iter().map(|r| (r.time, r.msgs_sent, r.words_sent)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run(), "virtual schedule must be run-to-run deterministic");
    }

    #[test]
    fn prop_clocks_never_decrease_and_stats_partition_time(p in 2usize..8) {
        let (report, clocks) = run_sim(p, MachineConfig::power5(), |cm| {
            let g = world(cm);
            let mut last = cm.now();
            let mut ok = true;
            for i in 0..4 {
                cm.compute(1e-6 * (i + 1) as f64, 1.0);
                g.allreduce(cm, Payload::Empty, 0, |_cm, _a, _b| Payload::Empty);
                ok &= cm.now() >= last;
                last = cm.now();
            }
            ok
        });
        for ok in clocks {
            prop_assert!(ok, "clock must be monotone");
        }
        for r in &report.per_rank {
            let parts = r.compute_time + r.send_time + r.idle_time;
            prop_assert!((parts - r.time).abs() < 1e-12 * r.time.max(1e-30),
                "compute+send+idle must partition the clock: {parts} vs {}", r.time);
            prop_assert!((r.send_time - (r.alpha_time + r.beta_time)).abs() < 1e-15,
                "send time must split into alpha + beta exactly");
        }
    }

    #[test]
    fn prop_charged_rounds_equal_explicit_butterfly_loops(
        p_exp in 1u32..4, rounds in 1usize..20, words in 1usize..300,
    ) {
        // charge_rounds(rounds * depth) after one real butterfly must give
        // the same clock as running `rounds + 1` real butterflies — the
        // identity the fast skeletons rely on.
        let p = 1usize << p_exp; // power of two: clean butterfly
        let mch = MachineConfig::power5();
        let explicit = {
            let (report, _) = run_sim(p, mch.clone(), |cm| {
                let g = world(cm);
                for _ in 0..rounds + 1 {
                    g.allreduce(cm, Payload::Empty, words, |_cm, a, _b| a);
                }
            });
            report.makespan()
        };
        let charged = {
            let (report, _) = run_sim(p, mch, move |cm| {
                let g = world(cm);
                g.allreduce(cm, Payload::Empty, words, |_cm, a, _b| a);
                cm.charge_rounds(rounds * ceil_log2(p), words, Link::Col);
            });
            report.makespan()
        };
        prop_assert!(
            (explicit - charged).abs() < 1e-12 * explicit.max(1e-30),
            "explicit {explicit} vs charged {charged}"
        );
    }

}
