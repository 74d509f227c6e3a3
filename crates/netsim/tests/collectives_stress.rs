//! Property-based stress tests for the simulator's collectives: arbitrary
//! group sizes and roots, consistency between reduce and all-reduce for
//! the same combination tree, and clock monotonicity.

use calu_netsim::{run_sim, Group, Link, MachineConfig, Payload};
use proptest::prelude::*;

fn world(cm: &calu_netsim::SimComm) -> Group {
    Group::new((0..cm.size()).collect(), cm.rank(), Link::Col, 3_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_bcast_any_size_any_root(p in 1usize..12, root_mul in 0usize..12) {
        let root = root_mul % p;
        let (_rep, results) = run_sim(p, MachineConfig::ideal(), |cm| {
            let g = world(cm);
            let mine = if g.my_index() == root {
                Payload::Data(vec![root as f64 * 3.0 + 1.0])
            } else {
                Payload::Empty
            };
            g.bcast(cm, root, mine, 1).into_data()[0]
        });
        let expect = root as f64 * 3.0 + 1.0;
        prop_assert!(results.iter().all(|&v| v == expect), "{results:?}");
    }

    #[test]
    fn prop_allreduce_concat_is_index_ordered(p in 1usize..12) {
        // Concatenation (non-commutative) exposes any ordering bug.
        let (_rep, results) = run_sim(p, MachineConfig::ideal(), |cm| {
            let g = world(cm);
            g.allreduce(cm, Payload::Data(vec![cm.rank() as f64]), 1, |_cm, a, b| {
                let mut v = a.into_data();
                v.extend(b.into_data());
                Payload::Data(v)
            })
            .into_data()
        });
        for r in &results {
            // Every member sees every rank exactly once.
            let mut sorted = r.clone();
            sorted.sort_by(f64::total_cmp);
            let expect: Vec<f64> = (0..p).map(|i| i as f64).collect();
            prop_assert_eq!(&sorted, &expect);
        }
        // Power-of-two groups: all members agree on the exact order.
        if p.is_power_of_two() {
            for r in &results[1..] {
                prop_assert_eq!(r, &results[0]);
            }
        }
    }

    #[test]
    fn prop_reduce_equals_allreduce_for_pow2(logp in 0u32..4) {
        // Same combination tree for power-of-two groups: a non-commutative
        // op must produce identical results.
        let p = 1usize << logp;
        let (_rep, results) = run_sim(p, MachineConfig::ideal(), |cm| {
            let g = world(cm);
            let concat = |_cm: &mut calu_netsim::SimComm, a: Payload, b: Payload| {
                let mut v = a.into_data();
                v.extend(b.into_data());
                Payload::Data(v)
            };
            let red = g.reduce(cm, Payload::Data(vec![cm.rank() as f64]), 1, concat);
            let all = g.allreduce(cm, Payload::Data(vec![cm.rank() as f64]), 1, concat);
            (red.map(Payload::into_data), all.into_data())
        });
        let all0 = results[0].1.clone();
        prop_assert_eq!(results[0].0.as_ref(), Some(&all0));
    }

    #[test]
    fn prop_clocks_never_decrease(p in 2usize..8, rounds in 1usize..5) {
        let (report, results) = run_sim(p, MachineConfig::power5(), |cm| {
            let g = world(cm);
            let mut last = 0.0;
            let mut ok = true;
            for _ in 0..rounds {
                g.allreduce(cm, Payload::Empty, 0, |_cm, _a, _b| Payload::Empty);
                cm.compute(1e-6, 10.0);
                ok &= cm.now() >= last;
                last = cm.now();
            }
            ok
        });
        prop_assert!(results.iter().all(|&b| b));
        for r in &report.per_rank {
            prop_assert!(r.time >= 0.0);
            prop_assert!(r.compute_time > 0.0);
        }
    }

    #[test]
    fn prop_skeleton_times_deterministic(p in 1usize..6) {
        let run = || {
            let (rep, _) = run_sim(p, MachineConfig::xt4(), |cm| {
                let g = world(cm);
                g.allreduce(cm, Payload::Empty, 64, |cm, a, _b| {
                    cm.compute(1e-5, 100.0);
                    a
                });
                cm.now()
            });
            rep.per_rank.iter().map(|r| r.time).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
