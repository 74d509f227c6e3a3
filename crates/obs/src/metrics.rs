//! Counters, gauges, and deterministic log-bucketed histograms.
//!
//! One [`Metrics`] registry unifies the scattered telemetry of the
//! workspace — serve-layer queue depth and ticket latency, runtime task
//! counts and idle time, dist-layer communication totals — behind a
//! single [`Metrics::snapshot`] → JSON path.
//!
//! **Determinism invariant.** A histogram's quantile estimates are a
//! pure function of the multiset of observed values: buckets are fixed
//! quarter-octave (`2^(i/4)`) ranges, and a quantile reports the
//! geometric midpoint of the bucket containing it (clamped to the
//! observed min/max). Observation *order* never matters, so a snapshot
//! of the same measurements is byte-identical across runs — the property
//! the unit tests pin. Wall-clock *values* of course still vary run to
//! run; what is deterministic is the data → snapshot function.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::JsonValue;

/// Quarter-octave buckets: 4 per power of two, so any estimate is within
/// a factor of `2^(1/4) ≈ 1.19` of a value in its bucket.
const BUCKETS_PER_OCTAVE: f64 = 4.0;
/// Bucket index clamp (`2^±64` covers every latency/byte count that can
/// occur in practice).
const IDX_CLAMP: i32 = 64 * 4;

/// A deterministic log-bucketed histogram of non-negative samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Histogram {
    /// Sparse bucket counts, keyed by quarter-octave index; `i` covers
    /// values in `[2^(i/4), 2^((i+1)/4))`.
    buckets: BTreeMap<i32, u64>,
    /// Samples that were zero (or negative, clamped): below every bucket.
    zeros: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Adds one sample.
    pub(crate) fn observe(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if v > 0.0 {
            let idx = ((v.log2() * BUCKETS_PER_OCTAVE).floor() as i32).clamp(-IDX_CLAMP, IDX_CLAMP);
            *self.buckets.entry(idx).or_insert(0) += 1;
        } else {
            self.zeros += 1;
        }
    }

    /// Mean of samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observed sample (0 when empty).
    pub(crate) fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observed sample (0 when empty).
    pub(crate) fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile estimate (`0 <= q <= 1`): the geometric midpoint
    /// of the bucket holding the `⌈q·count⌉`-th smallest sample, clamped
    /// to `[min, max]`. Deterministic in the sample multiset.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank <= self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (&idx, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                let mid = ((idx as f64 + 0.5) / BUCKETS_PER_OCTAVE).exp2();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Snapshot of the summary statistics as a JSON object.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("count", self.count)
            .set("min", self.min())
            .set("max", self.max())
            .set("mean", self.mean())
            .set("p50", self.quantile(0.50))
            .set("p95", self.quantile(0.95))
            .set("p99", self.quantile(0.99))
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

/// Thread-safe metrics registry; all mutators take `&self`.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

/// An immutable copy of a registry's state, for reading several related
/// values coherently.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub(crate) counters: Vec<(String, u64)>,
    /// Last-write-wins gauges, sorted by name.
    pub(crate) gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub(crate) histograms: Vec<(String, Histogram)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        // The key almost always exists: look it up before allocating one.
        match inner.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => drop(inner.counters.insert(name.to_string(), delta)),
        }
    }

    /// Sets the gauge `name`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        match inner.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => drop(inner.gauges.insert(name.to_string(), value)),
        }
    }

    /// Adds a sample to the histogram `name` (creating it empty).
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_all(name, std::iter::once(value));
    }

    /// Adds every sample of `values` to the histogram `name` under one
    /// lock (creating it on the first sample).
    pub fn observe_all(&self, name: &str, values: impl Iterator<Item = f64>) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        for v in values {
            match inner.hists.get_mut(name) {
                Some(h) => h.observe(v),
                None => inner.hists.entry(name.to_string()).or_default().observe(v),
            }
        }
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().expect("metrics poisoned").counters.get(name).copied().unwrap_or(0)
    }

    /// Coherent copy of the whole registry (every collection sorted by
    /// name — `BTreeMap` iteration order).
    pub(crate) fn read(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics poisoned");
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }

    /// The canonical JSON snapshot: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, min, max, mean, p50, p95, p99}}}`,
    /// every object sorted by name. This is the one serialization path
    /// the serve layer and the distributed report use.
    pub fn snapshot(&self) -> JsonValue {
        let s = self.read();
        JsonValue::obj()
            .set(
                "counters",
                JsonValue::Obj(s.counters.into_iter().map(|(k, v)| (k, v.into())).collect()),
            )
            .set(
                "gauges",
                JsonValue::Obj(s.gauges.into_iter().map(|(k, v)| (k, v.into())).collect()),
            )
            .set(
                "histograms",
                JsonValue::Obj(s.histograms.into_iter().map(|(k, h)| (k, h.to_json())).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = Metrics::new();
        m.counter_add("reqs", 2);
        m.counter_add("reqs", 3);
        m.gauge_set("depth", 7.0);
        m.gauge_set("depth", 4.0);
        assert_eq!(m.counter("reqs"), 5);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.read().gauges, vec![("depth".to_string(), 4.0)]);
    }

    #[test]
    fn histogram_quantiles_bracket_true_values() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1000.0);
        // A quarter-octave bucket bounds the estimate within 2^(1/4).
        let tol = 2.0_f64.powf(0.25);
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            assert!(
                est >= truth / tol && est <= truth * tol,
                "q={q}: estimate {est} vs true {truth}"
            );
        }
        assert_eq!(h.quantile(0.0), 1.0_f64.max(h.quantile(0.0)).min(h.quantile(0.0)));
    }

    #[test]
    fn histogram_is_order_independent_and_deterministic() {
        let samples: Vec<f64> =
            (0..500).map(|i| ((i * 2654435761_u64 as usize) % 997) as f64).collect();
        let mut fwd = Histogram::default();
        let mut rev = Histogram::default();
        for &s in &samples {
            fwd.observe(s);
        }
        for &s in samples.iter().rev() {
            rev.observe(s);
        }
        assert_eq!(fwd, rev, "histograms must not depend on observation order");
        assert_eq!(fwd.to_json().to_json(), rev.to_json().to_json());
    }

    #[test]
    fn zeros_and_degenerate_inputs() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        h.observe(0.0);
        h.observe(-3.0); // clamped to 0
        h.observe(f64::NAN); // clamped to 0
        assert_eq!(h.count, 3);
        assert_eq!(h.quantile(0.99), 0.0);
        h.observe(8.0);
        assert_eq!(h.max(), 8.0);
        assert_eq!(h.quantile(1.0), 8.0);
        assert_eq!(h.quantile(0.5), 0.0, "half the samples are zero");
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::default();
        h.observe(0.0125);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 0.0125, "clamping to [min,max] pins a single sample");
        }
    }

    #[test]
    fn observe_all_equals_one_observe_per_sample() {
        let (one, all) = (Metrics::new(), Metrics::new());
        let samples = [0.0, 3.0, 5.0, 1e-6];
        samples.iter().for_each(|&v| one.observe("lat", v));
        all.observe_all("lat", samples.iter().copied());
        all.observe_all("never", std::iter::empty());
        assert_eq!(one.read().histograms, all.read().histograms);
        assert_eq!(one.snapshot().to_json(), all.snapshot().to_json(), "no key for no sample");
    }

    #[test]
    fn snapshot_shape_and_order() {
        let m = Metrics::new();
        m.counter_add("z.last", 1);
        m.counter_add("a.first", 2);
        m.gauge_set("g", 1.5);
        m.observe("lat", 3.0);
        m.observe("lat", 5.0);
        let snap = m.snapshot();
        let txt = snap.to_json();
        // Sorted: a.first before z.last.
        assert!(txt.find("a.first").unwrap() < txt.find("z.last").unwrap());
        let hist = snap.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(hist.get("mean").unwrap().as_f64(), Some(4.0));
        // The snapshot parses back as valid JSON.
        assert!(crate::json::JsonValue::parse(&snap.pretty()).is_ok());
    }
}
