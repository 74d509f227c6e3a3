//! Technology-trend extrapolation: the paper's future-architectures
//! argument, made quantitative.
//!
//! The introduction argues: "today's technology trends predict that
//! arithmetic will continue to improve exponentially faster than
//! bandwidth, and bandwidth exponentially faster than latency. So CALU is
//! well suited for future parallel architectures, in which conventional
//! algorithms will spend more and more of their time communicating". This
//! module evolves a [`MachineConfig`] forward in time under those
//! per-component exponential rates and re-evaluates Equations (2)/(3) at
//! each point, so the claim becomes a curve
//! (`repro fig_trend` prints it).

use crate::equations::{t_calu, t_pdgetrf};
use calu_netsim::MachineConfig;

/// Annual improvement factors for the three cost classes. Values > 1 mean
/// the cost *shrinks* by that factor per year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechTrend {
    /// Arithmetic throughput improvement per year (γ terms shrink).
    pub flops_per_year: f64,
    /// Network bandwidth improvement per year (β terms shrink).
    pub bandwidth_per_year: f64,
    /// Network latency improvement per year (α terms shrink).
    pub latency_per_year: f64,
}

impl Default for TechTrend {
    /// The canonical rates the communication-avoiding literature quotes
    /// (flops ~59%/year from Moore-era scaling, network bandwidth ~26%/year,
    /// latency ~15%/year — see Graham/Snir/Patterson, *Getting up to
    /// Speed*, and the CAQR technical report's motivation section).
    fn default() -> Self {
        Self { flops_per_year: 1.59, bandwidth_per_year: 1.26, latency_per_year: 1.15 }
    }
}

/// Evolves a machine `years` into the future under `trend`: every γ-class
/// constant (including the divide time and the recursion overhead, which
/// are core-bound) shrinks at the flops rate, β at the bandwidth rate, α
/// at the latency rate. Negative `years` rewinds.
pub fn evolve(mch: &MachineConfig, years: f64, trend: &TechTrend) -> MachineConfig {
    let f = trend.flops_per_year.powf(years);
    let b = trend.bandwidth_per_year.powf(years);
    let l = trend.latency_per_year.powf(years);
    MachineConfig {
        name: "evolved",
        gamma3: mch.gamma3 / f,
        n_half3: mch.n_half3, // shape constant, not a rate
        gamma2: mch.gamma2 / f,
        gamma2_cache: mch.gamma2_cache / f,
        cache_bytes: mch.cache_bytes,
        gamma1: mch.gamma1 / f,
        gamma_div: mch.gamma_div / f,
        rec_call_overhead: mch.rec_call_overhead / f,
        alpha_col: mch.alpha_col / l,
        beta_col: mch.beta_col / b,
        alpha_row: mch.alpha_row / l,
        beta_row: mch.beta_row / b,
    }
}

/// One point of the trend curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendPoint {
    /// Years after the baseline machine.
    pub(crate) years: f64,
    /// Modeled `T_PDGETRF / T_CALU` at this point (Equations (3)/(2)).
    pub speedup: f64,
    /// Fraction of `PDGETRF`'s modeled time spent on latency — the
    /// quantity the trend inflates.
    pub pdgetrf_latency_fraction: f64,
    /// Same for CALU (stays small — that is the design's point).
    pub calu_latency_fraction: f64,
}

/// Evaluates the CALU-vs-PDGETRF speedup on `base` evolved to each year in
/// `years`, at a fixed problem `(m=n, b, pr, pc)`.
pub fn speedup_trend(
    base: &MachineConfig,
    n: usize,
    b: usize,
    pr: usize,
    pc: usize,
    years: &[f64],
    trend: &TechTrend,
) -> Vec<TrendPoint> {
    years
        .iter()
        .map(|&y| {
            let mch = evolve(base, y, trend);
            let c = t_calu(&mch, n, n, b, pr, pc);
            let g = t_pdgetrf(&mch, n, n, b, pr, pc);
            TrendPoint {
                years: y,
                speedup: g.total() / c.total(),
                pdgetrf_latency_fraction: g.latency_fraction(),
                calu_latency_fraction: c.latency_fraction(),
            }
        })
        .collect()
}

/// Modeled `T_PDGETRF / T_CALU` for a square problem (Equations (3)/(2)).
pub(crate) fn speedup_at(mch: &MachineConfig, n: usize, b: usize, pr: usize, pc: usize) -> f64 {
    t_pdgetrf(mch, n, n, b, pr, pc).total() / t_calu(mch, n, n, b, pr, pc).total()
}

/// Finds the matrix size at which CALU's modeled advantage falls below
/// `threshold` (e.g. 1.05 = "within 5% of PDGETRF") on a fixed grid, by
/// doubling then bisecting over `n ∈ [b·max(pr,pc), n_max]`. Returns
/// `None` if the gain still exceeds the threshold at `n_max` (latency
/// utterly dominates this machine) or is already below it at the smallest
/// valid size.
pub fn gain_crossover_size(
    mch: &MachineConfig,
    b: usize,
    pr: usize,
    pc: usize,
    threshold: f64,
    n_max: usize,
) -> Option<usize> {
    let n_min = b * pr.max(pc); // every grid row/column owns a block
    if n_min >= n_max {
        return None;
    }
    if speedup_at(mch, n_min, b, pr, pc) <= threshold {
        return None;
    }
    if speedup_at(mch, n_max, b, pr, pc) > threshold {
        return None;
    }
    let (mut lo, mut hi) = (n_min, n_max);
    while hi - lo > b {
        let mid = lo + (hi - lo) / 2;
        if speedup_at(mch, mid, b, pr, pc) > threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_years_is_identity() {
        let m = MachineConfig::power5();
        let e = evolve(&m, 0.0, &TechTrend::default());
        assert_eq!(e.gamma3, m.gamma3);
        assert_eq!(e.alpha_col, m.alpha_col);
        assert_eq!(e.beta_row, m.beta_row);
    }

    #[test]
    fn evolution_rates_are_ordered() {
        let m = MachineConfig::power5();
        let e = evolve(&m, 10.0, &TechTrend::default());
        // After 10 years flops got cheaper faster than bandwidth, and
        // bandwidth faster than latency.
        let f_gain = m.gamma3 / e.gamma3;
        let b_gain = m.beta_col / e.beta_col;
        let l_gain = m.alpha_col / e.alpha_col;
        assert!(f_gain > b_gain && b_gain > l_gain, "{f_gain} {b_gain} {l_gain}");
        assert!(f_gain > 100.0, "1.59^10 ~ 104");
    }

    #[test]
    fn calu_advantage_grows_with_time() {
        // The paper's claim: as machines evolve, conventional algorithms
        // spend ever more time communicating, so CALU's win grows.
        let m = MachineConfig::power5();
        let years = [0.0, 5.0, 10.0, 15.0];
        let pts = speedup_trend(&m, 5_000, 50, 8, 8, &years, &TechTrend::default());
        for w in pts.windows(2) {
            assert!(
                w[1].speedup > w[0].speedup,
                "speedup must grow: {} -> {}",
                w[0].speedup,
                w[1].speedup
            );
            assert!(
                w[1].pdgetrf_latency_fraction >= w[0].pdgetrf_latency_fraction,
                "PDGETRF latency share must grow"
            );
        }
        // And CALU keeps its latency share far below PDGETRF's throughout.
        for p in &pts {
            assert!(p.calu_latency_fraction < p.pdgetrf_latency_fraction);
        }
    }

    #[test]
    fn rewinding_shrinks_the_gap() {
        let m = MachineConfig::power5();
        let now = speedup_at(&m, 2_000, 50, 8, 8);
        let past = speedup_at(&evolve(&m, -10.0, &TechTrend::default()), 2_000, 50, 8, 8);
        assert!(past < now, "10 years ago the latency mattered less: {past} vs {now}");
    }

    #[test]
    fn crossover_moves_out_as_machines_evolve() {
        let m = MachineConfig::power5();
        let trend = TechTrend::default();
        let c_now = gain_crossover_size(&m, 50, 8, 8, 1.05, 4_000_000)
            .expect("crossover must exist on the baseline");
        let c_future = gain_crossover_size(&evolve(&m, 8.0, &trend), 50, 8, 8, 1.05, 4_000_000)
            .unwrap_or(usize::MAX);
        assert!(
            c_future > c_now,
            "the size below which CALU pays must grow with time: {c_now} -> {c_future}"
        );
    }

    #[test]
    fn crossover_respects_threshold_ordering() {
        let m = MachineConfig::power5();
        let strict = gain_crossover_size(&m, 50, 8, 8, 1.20, 4_000_000);
        let loose = gain_crossover_size(&m, 50, 8, 8, 1.02, 4_000_000);
        if let (Some(s), Some(l)) = (strict, loose) {
            assert!(s <= l, "a stricter gain bar is crossed earlier: {s} vs {l}");
        } else {
            panic!("both crossovers should exist on POWER5: {strict:?} {loose:?}");
        }
    }
}
