//! Order statistics and span arithmetic shared by every workload.

use std::collections::BTreeMap;

use calu_obs::Span;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (`p` in `(0, 100]`).
///
/// # Panics
/// If `values` is empty, holds a NaN, or `p` is out of range.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One timed operation: when it started (seconds from the start of the
/// measuring loop), how long the program took, and how many units of work
/// (solved right-hand sides, or factorizations) it delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Start of the operation, seconds from the start of the loop.
    pub at: f64,
    /// Timed seconds inside the program.
    pub secs: f64,
    /// Units of work delivered.
    pub units: u32,
}

/// Splits `[0, horizon)` into `slices` equal windows, assigns each sample
/// to the window it started in, and returns `stat` of each non-empty
/// window.
///
/// The host this benchmark was sized on switches, for seconds at a time,
/// between a fast and a slow mode. A statistic of the whole run (a mean,
/// a 99th percentile) moves with the share of the run spent in the slow
/// mode; the median over windows of the same statistic does not, as long
/// as the slow mode covers fewer than half of them.
pub fn per_slice(
    samples: &[Sample],
    horizon: f64,
    slices: usize,
    stat: impl Fn(&[Sample]) -> f64,
) -> Vec<f64> {
    assert!(slices > 0 && horizon > 0.0);
    let mut windows: Vec<Vec<Sample>> = vec![Vec::new(); slices];
    for s in samples {
        let w = ((s.at / horizon * slices as f64) as usize).min(slices - 1);
        windows[w].push(*s);
    }
    windows.iter().filter(|w| !w.is_empty()).map(|w| stat(w)).collect()
}

/// Units of work per timed second in one window.
pub fn throughput(window: &[Sample]) -> f64 {
    let units: f64 = window.iter().map(|s| f64::from(s.units)).sum();
    let secs: f64 = window.iter().map(|s| s.secs).sum();
    units / secs
}

/// Latencies of one window, one entry per unit of work: a burst of `k`
/// requests contributes its latency `k` times, because each of its
/// requests waited that long.
pub fn unit_latencies(window: &[Sample]) -> Vec<f64> {
    window.iter().flat_map(|s| std::iter::repeat_n(s.secs, s.units as usize)).collect()
}

/// Self time of every span, in microseconds: its duration minus the
/// durations of its direct children. Spans form a tree through their
/// names: the parent of `a/b/c` is `a/b`.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut own: BTreeMap<String, f64> = spans.iter().map(|s| (s.name.clone(), s.dur_us)).collect();
    for s in spans {
        if let Some((parent, _)) = s.name.rsplit_once('/') {
            if let Some(p) = own.get_mut(parent) {
                *p -= s.dur_us;
            }
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: f64, dur: f64) -> Span {
        Span { name: name.to_string(), cat: "bench", pid: 0, tid: 0, ts_us: ts, dur_us: dur }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        assert_eq!(percentile(&[5.0, 9.0], 99.0), 9.0);
    }

    #[test]
    fn slices_isolate_a_slow_stretch() {
        // Ten windows of one second; the ops of windows 2 and 3 take
        // twice as long. The median window throughput ignores them.
        let samples: Vec<Sample> = (0..100)
            .map(|i| {
                let at = i as f64 * 0.1;
                let slow = (2.0..4.0).contains(&at);
                Sample { at, secs: if slow { 0.2 } else { 0.1 }, units: 1 }
            })
            .collect();
        let per = per_slice(&samples, 10.0, 10, throughput);
        assert_eq!(per.len(), 10);
        assert!((median(&per) - 10.0).abs() < 1e-9);
        assert!((throughput(&samples) - 100.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn a_burst_counts_once_per_request() {
        let w = [Sample { at: 0.0, secs: 1.0, units: 3 }, Sample { at: 0.1, secs: 5.0, units: 1 }];
        assert_eq!(unit_latencies(&w), vec![1.0, 1.0, 1.0, 5.0]);
        assert_eq!(median(&unit_latencies(&w)), 1.0);
        assert_eq!(throughput(&w), 4.0 / 6.0);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("w/0", 0.0, 100.0),
            span("w/0/factor", 1.0, 60.0),
            span("w/0/solve", 62.0, 30.0),
            span("w/1", 200.0, 50.0),
            span("w/1/factor", 201.0, 50.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own["w/0"], 10.0);
        assert_eq!(own["w/0/factor"], 60.0);
        assert_eq!(own["w/0/solve"], 30.0);
        assert_eq!(own["w/1"], 0.0);
        // Self times of one operation add up to its root span.
        let sum: f64 = own.iter().filter(|(k, _)| k.starts_with("w/0")).map(|(_, v)| v).sum();
        assert_eq!(sum, 100.0);
    }
}
