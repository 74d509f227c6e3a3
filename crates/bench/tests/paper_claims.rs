//! The paper's headline numbers, each pinned twice through the functions
//! `repro` prints from: the paper's qualitative claim (TSLU or CALU wins
//! where the paper says it does), and a band of ±5 % around the value the
//! machine model prints today. EXPERIMENTS.md, "Known, documented
//! deviations", lists every headline with the paper's number, today's
//! value and its band; a change that moves a value out of its band updates
//! both places.

use calu_bench::calu_table::{best_vs_best, cell_times};
use calu_bench::tslu_table::{ratio, tslu_gflops};
use calu_core::LocalLu;
use calu_netsim::MachineConfig;

/// Asserts `x` within ±5 % of `pinned`, the value `repro` printed when the
/// band was set.
fn in_band(what: &str, x: f64, pinned: f64) {
    assert!((x / pinned - 1.0).abs() <= 0.05, "{what}: {x:.3} left the band {pinned} ± 5 %");
}

#[test]
fn tables_3_4_tslu_wins_on_the_tallest_panel() {
    // (machine, P of the paper's best cell, the paper's ratio there, today's)
    for (mch, p, paper, pinned) in
        [(MachineConfig::power5(), 16, 4.37, 3.64), (MachineConfig::xt4(), 4, 5.58, 3.18)]
    {
        let r = ratio(&mch, 1_000_000, 150, p, LocalLu::Recursive);
        let what = format!("{}: PDGETF2/TSLU at m=10^6, n=150, P={p}, Rec", mch.name);
        assert!(r > 1.0, "{what}: the paper's TSLU wins ({paper}), the model's {r:.2}");
        in_band(&what, r, pinned);
    }
}

#[test]
fn tables_3_4_tslu_runs_at_a_sizeable_share_of_peak() {
    // (machine, the paper's GFLOP/s and share of the 64-processor peak,
    // today's GFLOP/s)
    for (mch, paper, pinned) in
        [(MachineConfig::power5(), "215, 44%", 271.0), (MachineConfig::xt4(), "240, 36%", 293.0)]
    {
        let g = tslu_gflops(&mch, 1_000_000, 150, 64, LocalLu::Recursive);
        let share = g / (64.0 * mch.peak_flops() / 1e9);
        let what = format!("{}: TSLU GFLOP/s at m=10^6, n=150, P=64", mch.name);
        assert!(share > 1.0 / 3.0 && share < 1.0, "{what}: paper {paper}, model share {share:.2}");
        in_band(&what, g, pinned);
    }
}

#[test]
fn tables_5_6_calu_wins_on_the_smallest_matrix_at_64_processors() {
    // m = 10^3 on the 8x8 grid, b = 50 and b = 100 (b = 150 leaves a row
    // of the grid without a block). The paper's best cell of each table is
    // b = 100: 2.29 on POWER5, 1.81 on XT4.
    for (mch, pinned) in
        [(MachineConfig::power5(), [2.26, 1.09]), (MachineConfig::xt4(), [2.43, 1.30])]
    {
        for (b, pinned) in [50, 100].into_iter().zip(pinned) {
            let (tc, tp) = cell_times(&mch, 1_000, b, 8, 8);
            let what = format!("{}: PDGETRF/CALU at m=10^3, b={b}, P=64", mch.name);
            assert!(tp / tc > 1.0, "{what}: CALU must win, got {:.2}", tp / tc);
            in_band(&what, tp / tc, pinned);
        }
    }
}

#[test]
fn table_7_best_calu_beats_best_pdgetrf_at_every_size() {
    // (machine, the paper's speedups and today's at m = 10^3, 5·10^3, 10^4)
    for (mch, paper, pinned) in [
        (MachineConfig::power5(), [1.59, 1.69, 1.34], [2.02, 1.20, 1.04]),
        (MachineConfig::xt4(), [1.53, 1.26, 1.31], [2.10, 1.29, 1.05]),
    ] {
        for ((m, paper), pinned) in [1_000, 5_000, 10_000].into_iter().zip(paper).zip(pinned) {
            let (s, best_calu, _) = best_vs_best(&mch, m);
            let what = format!("{}: best-vs-best speedup at m={m}", mch.name);
            assert!(s > 1.0, "{what}: the paper's CALU wins ({paper}), the model's {s:.2}");
            in_band(&what, s, pinned);
            if m == 10_000 {
                assert_eq!(best_calu.p, 64, "{what}: the best CALU uses all 64 processors");
            }
        }
    }
}
