//! Equations (1)-(3) from the paper, Section 3-5.
//!
//! Conventions (the paper's): `γ` is time per flop, `γd` per divide, a
//! message of `w` words costs `α + wβ`, with column-direction (`αc`, `βc`)
//! and row-direction (`αr`, `βr`) parameters. Broadcasts/combines over `P`
//! processors are approximated as `log2 P` identical steps. Low-order terms
//! are omitted exactly where the paper omits them.
//!
//! For `γ` we take the machine's BLAS-3 rate (`gamma3`), since the paper's
//! estimates fold all arithmetic into one rate; `repro model_check` quantifies
//! the gap against the multi-rate discrete-event simulation.

use calu_netsim::MachineConfig;

/// A runtime split into the three cost classes of the α-β-γ model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Arithmetic time (γ and γd terms), seconds.
    pub(crate) compute: f64,
    /// Latency time (α terms), seconds.
    pub latency: f64,
    /// Bandwidth time (β terms), seconds.
    pub(crate) bandwidth: f64,
}

impl CostBreakdown {
    /// Total modeled runtime.
    pub fn total(&self) -> f64 {
        self.compute + self.latency + self.bandwidth
    }

    /// Fraction of the total spent on latency (the paper's target
    /// bottleneck).
    pub(crate) fn latency_fraction(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.latency / t
        } else {
            0.0
        }
    }
}

fn log2f(p: usize) -> f64 {
    assert!(p >= 1);
    (p as f64).log2()
}

/// Equation (1): TSLU on an `m x b` panel over `P` processors (1D layout).
///
/// ```text
/// T = [2mb²/P + 2b³/3 (log2 P − 1)] γ
///   + b (log2 P + 1) γd
///   + log2 P α + b² log2 P β
/// ```
pub fn t_tslu(mch: &MachineConfig, m: usize, b: usize, p: usize) -> CostBreakdown {
    let (mf, bf, lg) = (m as f64, b as f64, log2f(p));
    let gamma = mch.gamma3;
    let compute = (2.0 * mf * bf * bf / p as f64 + 2.0 * bf.powi(3) / 3.0 * (lg - 1.0).max(0.0))
        * gamma
        + bf * (lg + 1.0) * mch.gamma_div;
    let latency = lg * mch.alpha_col;
    let bandwidth = bf * bf * lg * mch.beta_col;
    CostBreakdown { compute, latency, bandwidth }
}

/// Equation (2): CALU on an `m x n` matrix over a `Pr x Pc` grid with block
/// size `b`.
///
/// ```text
/// T = [ (mn² − n³/3)/P + 2b(mn − n²/2)/Pr + n²b/(2Pc) + 2nb²/3 (log2 Pr − 1) ] γ
///   + n (log2 Pr + 1) γd
///   + log2 Pr [ 3(n/b) αc + (nb/2 + 3n²/(2Pc)) βc ]
///   + log2 Pc [ 3(n/b) αr + (mn − n²/2)/Pr βr ]
/// ```
///
/// ```
/// use calu_netsim::MachineConfig;
/// use calu_perfmodel::equations::{t_calu, t_pdgetrf};
///
/// // The paper's best regime: small matrix, many processors.
/// let m = MachineConfig::power5();
/// let calu = t_calu(&m, 1000, 1000, 50, 8, 8);
/// let pdg = t_pdgetrf(&m, 1000, 1000, 50, 8, 8);
/// assert!(pdg.total() / calu.total() > 1.2, "CALU wins where latency dominates");
/// assert!(pdg.latency > calu.latency * 5.0, "by sending ~b times fewer messages");
/// ```
pub fn t_calu(
    mch: &MachineConfig,
    m: usize,
    n: usize,
    b: usize,
    pr: usize,
    pc: usize,
) -> CostBreakdown {
    let (mf, nf, bf) = (m as f64, n as f64, b as f64);
    let p = (pr * pc) as f64;
    let (lgr, lgc) = (log2f(pr), log2f(pc));
    let gamma = mch.gamma3;

    let compute = ((mf * nf * nf - nf.powi(3) / 3.0) / p
        + 2.0 * bf * (mf * nf - nf * nf / 2.0) / pr as f64
        + nf * nf * bf / (2.0 * pc as f64)
        + 2.0 * nf * bf * bf / 3.0 * (lgr - 1.0).max(0.0))
        * gamma
        + nf * (lgr + 1.0) * mch.gamma_div;

    let latency = lgr * 3.0 * (nf / bf) * mch.alpha_col + lgc * 3.0 * (nf / bf) * mch.alpha_row;

    let bandwidth = lgr * (nf * bf / 2.0 + 3.0 * nf * nf / (2.0 * pc as f64)) * mch.beta_col
        + lgc * ((mf * nf - nf * nf / 2.0) / pr as f64) * mch.beta_row;

    CostBreakdown { compute, latency, bandwidth }
}

/// Equation (3): ScaLAPACK `PDGETRF` on the same layout.
///
/// ```text
/// T = [ (mn² − n³/3)/P + b(mn − n²/2)/Pr + n²b/(2Pc) ] γ
///   + n γd
///   + [ 2n (1 + 2/b) log2 Pr + n ] αc + (nb/2 + 3n²/(2Pc)) log2 Pr βc
///   + log2 Pc [ 3(n/b) αr + (mn − n²/2)/Pr βr ]
/// ```
pub fn t_pdgetrf(
    mch: &MachineConfig,
    m: usize,
    n: usize,
    b: usize,
    pr: usize,
    pc: usize,
) -> CostBreakdown {
    let (mf, nf, bf) = (m as f64, n as f64, b as f64);
    let p = (pr * pc) as f64;
    let (lgr, lgc) = (log2f(pr), log2f(pc));
    let gamma = mch.gamma3;

    let compute = ((mf * nf * nf - nf.powi(3) / 3.0) / p
        + bf * (mf * nf - nf * nf / 2.0) / pr as f64
        + nf * nf * bf / (2.0 * pc as f64))
        * gamma
        + nf * mch.gamma_div;

    let latency = (2.0 * nf * (1.0 + 2.0 / bf) * lgr + nf) * mch.alpha_col
        + lgc * 3.0 * (nf / bf) * mch.alpha_row;

    let bandwidth = (nf * bf / 2.0 + 3.0 * nf * nf / (2.0 * pc as f64)) * lgr * mch.beta_col
        + lgc * ((mf * nf - nf * nf / 2.0) / pr as f64) * mch.beta_row;

    CostBreakdown { compute, latency, bandwidth }
}

/// Message counts per the paper's Section 5 comparison: CALU exchanges
/// `3(n/b)(log2 Pr + log2 Pc)` messages; PDGETRF `≈ 2n log2 Pr` from the
/// panel alone. The panel-latency ratio is the paper's headline factor
/// `b (1 + 1/log2 Pr) / 3`-ish.
pub fn calu_messages(n: usize, b: usize, pr: usize, pc: usize) -> f64 {
    3.0 * (n as f64 / b as f64) * (log2f(pr) + log2f(pc))
}

/// `PDGETRF` message count (column direction dominates).
pub fn pdgetrf_messages(n: usize, b: usize, pr: usize, pc: usize) -> f64 {
    2.0 * n as f64 * (1.0 + 2.0 / b as f64) * log2f(pr)
        + n as f64
        + 3.0 * (n as f64 / b as f64) * log2f(pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_netsim::MachineConfig;

    #[test]
    fn tslu_latency_term_is_log_p() {
        let m = MachineConfig::power5();
        let t4 = t_tslu(&m, 100_000, 50, 4);
        let t16 = t_tslu(&m, 100_000, 50, 16);
        assert!((t16.latency / t4.latency - 2.0).abs() < 1e-9, "log2(16)/log2(4) = 2");
    }

    #[test]
    fn message_ratio_scales_with_b() {
        // The paper: CALU sends fewer panel messages by a factor
        // b(1 + 1/log2 Pr).
        for &b in &[50usize, 100, 150] {
            let calu = calu_messages(10_000, b, 8, 8);
            let pdg = pdgetrf_messages(10_000, b, 8, 8);
            let ratio = pdg / calu;
            let expect = b as f64 / 3.0; // order-of-magnitude law
            assert!(
                ratio > 0.5 * expect && ratio < 3.0 * expect,
                "b={b}: ratio {ratio} vs ~{expect}"
            );
        }
    }

    #[test]
    fn calu_beats_pdgetrf_latency_dominated() {
        // Small matrix, many processors: the regime of the paper's best
        // speedups (Table 5: 2.29x at m=10^3 on 64 procs).
        let m = MachineConfig::power5();
        let c = t_calu(&m, 1000, 1000, 50, 8, 8);
        let g = t_pdgetrf(&m, 1000, 1000, 50, 8, 8);
        let speedup = g.total() / c.total();
        assert!(speedup > 1.2, "speedup {speedup}");
        assert!(g.latency > c.latency * 5.0, "latency must dominate the gap");
    }

    #[test]
    fn compute_terms_converge_for_large_matrices() {
        // For large m the O(n^3) term dominates and CALU's overhead
        // (factor-2 panel flops) becomes marginal: ratio -> 1.
        let m = MachineConfig::power5();
        let c = t_calu(&m, 20_000, 20_000, 100, 8, 8);
        let g = t_pdgetrf(&m, 20_000, 20_000, 100, 8, 8);
        let ratio = g.total() / c.total();
        assert!(ratio > 0.95 && ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn breakdown_total_is_sum() {
        let m = MachineConfig::xt4();
        let c = t_calu(&m, 5000, 5000, 100, 4, 8);
        assert!((c.total() - (c.compute + c.latency + c.bandwidth)).abs() < 1e-18);
        assert!(c.latency_fraction() > 0.0 && c.latency_fraction() < 1.0);
    }

    #[test]
    fn degenerate_single_processor() {
        let m = MachineConfig::ideal();
        let c = t_calu(&m, 1000, 1000, 50, 1, 1);
        assert_eq!(c.latency, 0.0);
        assert_eq!(c.bandwidth, 0.0);
        assert!(c.compute > 0.0);
    }
}
