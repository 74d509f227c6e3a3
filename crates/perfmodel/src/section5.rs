//! Section 5's term-by-term comparison of CALU and ScaLAPACK's `PDGETRF`,
//! as executable arithmetic.
//!
//! The paper compares the two runtimes (Equations (2) and (3)) one cost
//! class at a time:
//!
//! * **multiply/add flops** — CALU adds the lower-order redundant-panel
//!   term `b(mn − n²/2)/Pr` (each panel is factored twice);
//! * **divides** — CALU adds `n·log2 Pr` (the tournament's `2b×b` GEPPs);
//! * **column latency** — CALU is lower by a factor `b(1 + 1/log2 Pr)`
//!   ("the reduction in the number of messages within processor columns
//!   comes from the reduction in the factorization of a block-column
//!   performed by TSLU versus PDGETF2");
//! * **column bandwidth** — identical volume;
//! * **row costs** — identical (`PDGETRF`'s row broadcasts are already
//!   `O(n/b)`).
//!
//! [`compare`] evaluates every pair of terms for a concrete configuration,
//! and the tests below verify each of the paper's five claims numerically;
//! `repro section5_comparison` prices them on both machine models.

use calu_netsim::MachineConfig;

/// One cost class compared between the two algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TermPair {
    /// CALU's value for this term.
    pub(crate) calu: f64,
    /// `PDGETRF`'s value.
    pub(crate) pdgetrf: f64,
}

impl TermPair {
    /// `pdgetrf / calu` (∞ when CALU's term is zero and PDGETRF's is not).
    pub(crate) fn ratio(&self) -> f64 {
        if self.calu == 0.0 {
            if self.pdgetrf == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.pdgetrf / self.calu
        }
    }
}

/// Section 5's comparison, term by term, for a square `n x n` problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Section5 {
    /// Multiply/add flop counts (per critical-path processor).
    pub(crate) muladd_flops: TermPair,
    /// Division counts.
    pub(crate) divides: TermPair,
    /// Messages within processor columns (the paper's headline).
    pub(crate) col_messages: TermPair,
    /// Words within processor columns.
    pub(crate) col_words: TermPair,
    /// Messages within processor rows.
    pub(crate) row_messages: TermPair,
    /// Words within processor rows.
    pub(crate) row_words: TermPair,
}

fn log2f(p: usize) -> f64 {
    (p as f64).log2()
}

/// Evaluates every Section 5 term for an `n x n` matrix on a `pr x pc`
/// grid with block size `b` (counts, not seconds — multiply by the machine
/// parameters to price them; [`latency_advantage`] does the headline one).
pub fn compare(m: usize, n: usize, b: usize, pr: usize, pc: usize) -> Section5 {
    let (mf, nf, bf) = (m as f64, n as f64, b as f64);
    let p = (pr * pc) as f64;
    let (lgr, lgc) = (log2f(pr), log2f(pc));

    let base_flops = (mf * nf * nf - nf.powi(3) / 3.0) / p + nf * nf * bf / (2.0 * pc as f64);
    let panel_flops = bf * (mf * nf - nf * nf / 2.0) / pr as f64;
    let tournament_flops = 2.0 * nf * bf * bf / 3.0 * (lgr - 1.0).max(0.0);

    Section5 {
        // CALU factors each panel twice: one extra panel_flops term
        // ("CALU adds a lower order term of about b(mn − n²/2)/Pr").
        muladd_flops: TermPair {
            calu: base_flops + 2.0 * panel_flops + tournament_flops,
            pdgetrf: base_flops + panel_flops,
        },
        // "Comparing the division flop counts, CALU adds a lower order
        // term of n log2 Pr."
        divides: TermPair { calu: nf * (lgr + 1.0), pdgetrf: nf },
        // Eq (2): 3(n/b) log2 Pr; Eq (3): [2n(1 + 2/b) log2 Pr + n].
        col_messages: TermPair {
            calu: 3.0 * (nf / bf) * lgr,
            pdgetrf: 2.0 * nf * (1.0 + 2.0 / bf) * lgr + nf,
        },
        // "for bandwidth, both algorithms have the same communication
        // volume."
        col_words: TermPair {
            calu: (nf * bf / 2.0 + 3.0 * nf * nf / (2.0 * pc as f64)) * lgr,
            pdgetrf: (nf * bf / 2.0 + 3.0 * nf * nf / (2.0 * pc as f64)) * lgr,
        },
        // "in PDGETRF, the number of broadcasts within processor rows is
        // already of the order of n/b, and hence both algorithms have the
        // same costs."
        row_messages: TermPair { calu: 3.0 * (nf / bf) * lgc, pdgetrf: 3.0 * (nf / bf) * lgc },
        row_words: TermPair {
            calu: (mf * nf - nf * nf / 2.0) / pr as f64 * lgc,
            pdgetrf: (mf * nf - nf * nf / 2.0) / pr as f64 * lgc,
        },
    }
}

/// The paper's headline factor: CALU's column-latency cost is lower "by a
/// factor of `b(1 + 1/log2 Pr)`". Returns `(measured_ratio, paper_factor)`
/// so callers can check the law holds to leading order.
pub fn latency_advantage(n: usize, b: usize, pr: usize) -> (f64, f64) {
    let s = compare(n, n, b, pr, pr);
    let paper = b as f64 * (1.0 + 1.0 / log2f(pr)) * 2.0 / 3.0;
    (s.col_messages.ratio(), paper)
}

/// Prices a [`Section5`] comparison on a machine: seconds per term class
/// `(calu_seconds, pdgetrf_seconds)` for (flops, divides, col-latency,
/// col-bandwidth, row-latency, row-bandwidth). The flop terms use the
/// machine's BLAS-3 rate, matching the equations' single-γ convention.
pub fn price(s: &Section5, mch: &MachineConfig) -> [(f64, f64); 6] {
    [
        (s.muladd_flops.calu * mch.gamma3, s.muladd_flops.pdgetrf * mch.gamma3),
        (s.divides.calu * mch.gamma_div, s.divides.pdgetrf * mch.gamma_div),
        (s.col_messages.calu * mch.alpha_col, s.col_messages.pdgetrf * mch.alpha_col),
        (s.col_words.calu * mch.beta_col, s.col_words.pdgetrf * mch.beta_col),
        (s.row_messages.calu * mch.alpha_row, s.row_messages.pdgetrf * mch.alpha_row),
        (s.row_words.calu * mch.beta_row, s.row_words.pdgetrf * mch.beta_row),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundant_panel_work_is_lower_order() {
        // "The price for fewer messages is b(mn − n²/2)/Pr more floating
        // point work, which is a small fraction of the overall work."
        let s = compare(10_000, 10_000, 50, 8, 8);
        let extra = s.muladd_flops.calu - s.muladd_flops.pdgetrf;
        assert!(extra > 0.0);
        assert!(
            extra / s.muladd_flops.pdgetrf < 0.10,
            "extra work fraction {} must be small",
            extra / s.muladd_flops.pdgetrf
        );
    }

    #[test]
    fn divide_overhead_is_n_log_pr() {
        let s = compare(5_000, 5_000, 100, 16, 4);
        let extra = s.divides.calu - s.divides.pdgetrf;
        assert!((extra - 5_000.0 * 4.0).abs() < 1e-9, "n log2 Pr = 20000, got {extra}");
    }

    #[test]
    fn column_latency_factor_matches_paper_law() {
        // Factor b(1 + 1/log2 Pr), up to the paper's own 2/3 constant
        // (3(n/b) vs 2n(1+2/b) + n keeps a 2/3-ish prefactor for large b).
        for &(b, pr) in &[(50usize, 8usize), (100, 16), (150, 64)] {
            let (measured, paper) = latency_advantage(10_000, b, pr);
            assert!(
                (measured / paper - 1.0).abs() < 0.35,
                "b={b} pr={pr}: measured {measured} vs paper-law {paper}"
            );
            assert!(measured > b as f64 / 2.0, "the reduction is ~b-fold: {measured}");
        }
    }

    #[test]
    fn bandwidth_and_row_costs_are_identical() {
        let s = compare(8_000, 8_000, 100, 8, 8);
        assert_eq!(s.col_words.ratio(), 1.0);
        assert_eq!(s.row_messages.ratio(), 1.0);
        assert_eq!(s.row_words.ratio(), 1.0);
    }

    #[test]
    fn priced_terms_sum_close_to_equations() {
        // price(compare(...)) must reproduce t_calu/t_pdgetrf up to the
        // tournament-combine flop term bookkeeping.
        use crate::equations::{t_calu, t_pdgetrf};
        let mch = MachineConfig::power5();
        let (n, b, pr, pc) = (5_000, 50, 8, 8);
        let s = compare(n, n, b, pr, pc);
        let priced = price(&s, &mch);
        let calu_sum: f64 = priced.iter().map(|(c, _)| c).sum();
        let pdg_sum: f64 = priced.iter().map(|(_, p)| p).sum();
        let eq_c = t_calu(&mch, n, n, b, pr, pc).total();
        let eq_p = t_pdgetrf(&mch, n, n, b, pr, pc).total();
        assert!((calu_sum / eq_c - 1.0).abs() < 0.05, "{calu_sum} vs {eq_c}");
        assert!((pdg_sum / eq_p - 1.0).abs() < 0.05, "{pdg_sum} vs {eq_p}");
    }

    #[test]
    fn single_column_grid_degenerates() {
        // Pr = 1: no tournament, no divide overhead, no column messages.
        let s = compare(1_000, 1_000, 50, 1, 4);
        assert_eq!(s.divides.calu, s.divides.pdgetrf);
        assert_eq!(s.col_messages.calu, 0.0);
    }
}
