//! Time attribution for simulated runs.
//!
//! [`TimeBreakdown`] attributes a run's makespan to compute / latency (α) /
//! bandwidth (β) / idle shares — the quantities the paper's Equations
//! (1)-(3) separate, and the evidence for "the effect is significant when
//! the latency time is an important factor of the overall time"
//! (Abstract). The timelines themselves are `calu_obs` spans
//! ([`run_sim_traced`](crate::runner::run_sim_traced)), drawn by
//! [`calu_obs::render_gantt`]: under `PDGETF2` the panel column is a picket
//! fence of sends and idles, under TSLU a handful of exchanges around solid
//! compute.

use crate::comm::RankStats;
use crate::runner::SimReport;

/// Attribution of a run's time to the paper's cost classes.
///
/// Shares are normalized against the *sum of rank clocks* (processor-time),
/// so they answer "where did the machine's time go" rather than "what was
/// the single critical path doing".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Fraction of processor-time in modeled compute (γ terms).
    pub(crate) compute: f64,
    /// Fraction in message latency (α terms) — what ca-pivoting reduces.
    pub(crate) latency: f64,
    /// Fraction in message volume (β terms) — equal for CALU and `PDGETRF`
    /// (paper Section 5: "both algorithms have the same communication
    /// volume").
    pub(crate) bandwidth: f64,
    /// Fraction blocked waiting on other ranks.
    pub idle: f64,
}

impl TimeBreakdown {
    /// Attribution aggregated over all ranks of a report (processor-time
    /// weighted).
    pub fn from_report(r: &SimReport) -> Self {
        let total: f64 = r.per_rank.iter().map(|s| s.time).sum::<f64>().max(f64::MIN_POSITIVE);
        let sum = |f: fn(&RankStats) -> f64| r.per_rank.iter().map(f).sum::<f64>() / total;
        Self {
            compute: sum(|s| s.compute_time),
            latency: sum(|s| s.alpha_time),
            bandwidth: sum(|s| s.beta_time),
            idle: sum(|s| s.idle_time),
        }
    }

    /// Shares formatted as one line, e.g.
    /// `compute 62.1%  latency 24.3%  bandwidth 9.0%  idle 4.6%`.
    pub fn one_line(&self) -> String {
        format!(
            "compute {:5.1}%  latency {:5.1}%  bandwidth {:5.1}%  idle {:5.1}%",
            100.0 * self.compute,
            100.0 * self.latency,
            100.0 * self.bandwidth,
            100.0 * self.idle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Link, MachineConfig};
    use crate::runner::run_sim_traced;
    use crate::Payload;
    use calu_obs::Span;

    /// Seconds of `rank`'s spans of category `cat` (`None`: all of them).
    fn total(spans: &[Span], rank: u32, cat: Option<&str>) -> f64 {
        let lane = spans.iter().filter(|s| s.pid == rank && cat.is_none_or(|c| s.cat == c));
        lane.map(|s| s.dur_us).sum::<f64>() / 1e6
    }

    #[test]
    fn traced_spans_agree_with_the_stats_per_kind() {
        let (report, spans, _) = run_sim_traced(2, MachineConfig::power5(), |cm| {
            if cm.rank() == 0 {
                cm.compute(1e-3, 100.0);
                cm.send(1, 0, 10, Payload::Empty, Link::Col);
            } else {
                cm.recv(0, 0); // idles ~1 ms waiting
                cm.compute(5e-4, 50.0);
            }
        });
        assert!(spans.iter().all(|s| s.tid == 0 && s.name == s.cat && s.dur_us > 0.0));
        assert!(spans.iter().any(|s| s.cat == "send" && s.pid == 0));
        assert!(spans.windows(2).all(|w| w[0].ts_us <= w[1].ts_us), "sorted for export");
        calu_obs::parse_chrome_trace(&calu_obs::chrome_trace(&spans)).expect("valid trace");
        for (rank, st) in report.per_rank.iter().enumerate() {
            let r = rank as u32;
            let lane: Vec<&Span> = spans.iter().filter(|s| s.pid == r).collect();
            assert!(lane.windows(2).all(|w| w[0].ts_us + w[0].dur_us <= w[1].ts_us + 1e-9));
            let end = lane.last().map_or(0.0, |s| (s.ts_us + s.dur_us) / 1e6);
            assert!((total(&spans, r, Some("compute")) - st.compute_time).abs() < 1e-15);
            assert!((total(&spans, r, Some("send")) - st.send_time).abs() < 1e-15);
            // Idle is the gap: whatever of the lane no span covers.
            assert!((end - total(&spans, r, None) - st.idle_time).abs() < 1e-15);
        }
        assert!(report.per_rank[1].idle_time > 9e-4, "rank 1 must idle about 1 ms");
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let (report, _, _) = run_sim_traced(2, MachineConfig::power5(), |cm| {
            if cm.rank() == 0 {
                cm.compute(1e-3, 0.0);
                cm.send(1, 0, 1000, Payload::Empty, Link::Col);
            } else {
                cm.recv(0, 0);
            }
        });
        let agg = TimeBreakdown::from_report(&report);
        let sum = agg.compute + agg.latency + agg.bandwidth + agg.idle;
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to 1, got {sum}");
        assert!(agg.idle > 0.0, "rank 1 idles");
    }

    #[test]
    fn gantt_renders_rows_for_all_ranks() {
        let (_r, spans, _) = run_sim_traced(3, MachineConfig::ideal(), |cm| {
            cm.compute(1.0, 0.0);
        });
        let g = calu_obs::render_gantt(&spans, 20);
        assert_eq!(g.lines().count(), 4, "header + 3 ranks");
        for rank in 0..3 {
            assert!(g.contains(&format!("r{rank}")));
        }
        // The ideal machine computes the whole time: rows are all '#'.
        assert!(g.contains("|####################|"));
    }

    #[test]
    fn alpha_beta_split_matches_message_parameters() {
        let m = MachineConfig::power5();
        let (alpha, beta) = (m.alpha_col, m.beta_col);
        let (report, _) = crate::run_sim(2, m, |cm| {
            if cm.rank() == 0 {
                for t in 0..7 {
                    cm.send(1, t, 100, Payload::Empty, Link::Col);
                }
            } else {
                for t in 0..7 {
                    cm.recv(0, t);
                }
            }
        });
        let s = &report.per_rank[0];
        assert!((s.alpha_time - 7.0 * alpha).abs() < 1e-15);
        assert!((s.beta_time - 7.0 * 100.0 * beta).abs() < 1e-15);
        assert!((s.send_time - (s.alpha_time + s.beta_time)).abs() < 1e-15);
    }
}
