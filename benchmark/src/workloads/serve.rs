//! `serve_mixed`: one `SolverService` over six diagonally dominant
//! matrices, driven with bursts of right-hand sides against one matrix
//! each: submit, `process`, `try_take`.
//!
//! It uses the runtime and the kernels of the other workloads differently.
//! A burst that finds its factors cached runs a tiny solve DAG, where the
//! executor's start-up and the DAG build are most of the time (the median
//! request). A burst that misses factors a matrix, inserts it and evicts
//! another (the 99th percentile, and most of the run's time). A gain for
//! one path that costs the other shows in a single run.
//!
//! The service keeps a span for every task it has ever run, so its memory
//! grows with the work served. A fresh service replaces it every
//! [`Sizes::serve_epoch`] bursts (outside the timer), which makes the peak
//! resident set a property of the program and not of the run's length.

use std::collections::BTreeMap;
use std::time::Instant;

use calu_core::{runtime_calu_factor, LuFactors, RuntimeOpts, ServeOpts, SolverService, Ticket};
use calu_matrix::{gen, Matrix};
use calu_obs::JsonValue;
use calu_runtime::ExecutorKind;
use rand::rngs::StdRng;
use rand::Rng;

use super::{check_solution, kind_of, stream, Ledger, OpOutcome, Sizes, Variant, Workload};
use crate::host::nproc;
use crate::stats::median;
use crate::trace::OpTrace;

/// Share of bursts that go to each registered matrix.
const POPULARITY: [f64; 6] = [0.45, 0.25, 0.10, 0.07, 0.07, 0.06];
/// Which of the six matrices are the large ones: one popular, one rare.
const LARGE: [bool; 6] = [false, true, false, false, true, false];
/// Right-hand sides per burst, drawn uniformly.
const BURST_SIZES: [usize; 6] = [1, 1, 2, 4, 8, 16];
/// The factor cache holds this share of the six factorizations, so the
/// LRU evicts.
const CACHE_SHARE: f64 = 0.6;
/// One burst in this many is compared bitwise with `LuFactors::solve`.
const COMPARE_EVERY: usize = 16;

pub struct ServeMixed {
    sizes: Sizes,
    mats: Vec<Matrix<f64>>,
    /// Factors of each matrix from the routine and options the service
    /// uses, verified at set-up: the reference for served results.
    refs: Vec<LuFactors<f64>>,
    opts: ServeOpts,
    svc: SolverService<f64>,
    traffic: StdRng,
    bursts_in_epoch: usize,
    bursts: usize,
    counters: Counters,
    /// Counters when the measured section began, and after its first
    /// `serve_count_window` bursts.
    counted_from: Counters,
    counted: Option<Counters>,
    spans: Spans,
    ledger: Option<Ledger>,
}

/// Cache and batch events so far. The cache's own counters restart with
/// each fresh service; the count window never spans two.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    batches: usize,
    refused: usize,
}

/// Seconds of the service's entry points, one sample per burst, split by
/// what the cache did.
#[derive(Default)]
struct Spans {
    submit_per_request: Vec<f64>,
    hit_b1: Vec<f64>,
    hit_b16: Vec<f64>,
    miss_small: Vec<f64>,
    miss_large: Vec<f64>,
}

impl ServeMixed {
    pub fn new(seed: u64, sizes: Sizes, ledger: Option<Ledger>) -> Result<Self, String> {
        let mut rng = stream(seed, 0);
        let order = |large: bool| if large { sizes.serve_n.1 } else { sizes.serve_n.0 };
        let mats: Vec<Matrix<f64>> =
            LARGE.iter().map(|&large| gen::diag_dominant(&mut rng, order(large))).collect();
        let working_set: usize = mats.iter().map(|a| a.rows() * (a.rows() + 1) * 8).sum();
        let opts = ServeOpts {
            cache_capacity_bytes: (CACHE_SHARE * working_set as f64) as usize,
            ..ServeOpts::default()
        };
        let mut rhs_rng = stream(seed, 1);
        let mut refs = Vec::with_capacity(mats.len());
        for a in &mats {
            let (f, _) = runtime_calu_factor(a, opts.calu, opts.rt).map_err(|e| e.to_string())?;
            let b: Vec<f64> = gen::hpl_rhs(&mut rhs_rng, a.rows());
            check_solution(a, &f.solve(&b), &b)?;
            refs.push(f);
        }
        let mut w = Self::client(sizes, mats, refs, opts, stream(seed, 2), ledger);
        // The warm-up epoch: the cold misses, with every result compared.
        for _ in 0..sizes.serve_warmup {
            if let Some(e) = w.burst(&OpTrace::off(), true).error {
                return Err(e);
            }
        }
        w.spans = Spans::default();
        w.bursts = 0;
        w.counted_from = w.counters;
        Ok(w)
    }

    /// A client at its first burst, with a fresh service.
    fn client(
        sizes: Sizes,
        mats: Vec<Matrix<f64>>,
        refs: Vec<LuFactors<f64>>,
        opts: ServeOpts,
        traffic: StdRng,
        ledger: Option<Ledger>,
    ) -> Self {
        Self {
            svc: Self::service(&mats, opts),
            sizes,
            mats,
            refs,
            opts,
            traffic,
            bursts_in_epoch: 0,
            bursts: 0,
            counters: Counters::default(),
            counted_from: Counters::default(),
            counted: None,
            spans: Spans::default(),
            ledger,
        }
    }

    fn service(mats: &[Matrix<f64>], opts: ServeOpts) -> SolverService<f64> {
        let mut svc = SolverService::new(opts);
        for (id, a) in mats.iter().enumerate() {
            svc.register(id as u64, a.clone());
        }
        svc
    }

    /// Folds the service's own records into the ledger: one `serve` span
    /// per `process` pass, one span per task it ran, and the histogram of
    /// task queue delays.
    fn fold_service(&mut self) {
        let Some(ledger) = &mut self.ledger else {
            return;
        };
        for s in self.svc.spans() {
            if s.cat == "serve" {
                ledger.capacity += s.dur_us / 1e6 * nproc() as f64;
            } else {
                ledger.busy[kind_of(s.cat)] += s.dur_us / 1e6;
                ledger.tasks += 1;
            }
        }
        let snapshot = self.svc.metrics_snapshot();
        let delay = snapshot.get("histograms").and_then(|h| h.get("serve.task_queue_delay_s"));
        if let Some(delay) = delay {
            let field = |k| delay.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            ledger.queue_delay += field("count") * field("mean");
        }
        ledger.ops += self.bursts_in_epoch;
    }

    fn burst(&mut self, trace: &OpTrace<'_>, compare: bool) -> OpOutcome {
        if self.bursts_in_epoch == self.sizes.serve_epoch {
            self.fold_service();
            self.svc = Self::service(&self.mats, self.opts);
            self.bursts_in_epoch = 0;
        }
        self.bursts_in_epoch += 1;

        let (id, sent, rhs) = trace.child("gen", || {
            let draw: f64 = self.traffic.gen();
            let mut below = 0.0;
            let id = POPULARITY.iter().position(|share| {
                below += share;
                draw < below
            });
            let id = id.unwrap_or(POPULARITY.len() - 1);
            let k = BURST_SIZES[self.traffic.gen_range(0..BURST_SIZES.len())];
            let n = self.mats[id].rows();
            let rhs: Vec<Vec<f64>> = (0..k).map(|_| gen::hpl_rhs(&mut self.traffic, n)).collect();
            // The service takes ownership of what it is sent; the check
            // keeps the original. The copy is the client's, not timed.
            (id, rhs.clone(), rhs)
        });
        let k = rhs.len();
        let before = self.svc.cache_stats();

        let t = Instant::now();
        let tickets: Vec<Option<Ticket>> = trace.child("submit", || {
            sent.into_iter().map(|b| self.svc.submit(id as u64, b).ok()).collect()
        });
        let submitted = t.elapsed().as_secs_f64();
        let report = trace.child("process", || self.svc.process());
        let processed = t.elapsed().as_secs_f64();
        let results: Vec<Option<Vec<f64>>> = trace.child("take", || {
            let take = |t: &Option<Ticket>| self.svc.try_take((*t)?)?.ok();
            tickets.iter().map(take).collect()
        });
        let secs = t.elapsed().as_secs_f64();

        let after = self.svc.cache_stats();
        let refused = tickets.iter().filter(|t| t.is_none()).count();
        self.counters.hits += after.hits - before.hits;
        self.counters.misses += after.misses - before.misses;
        self.counters.evictions += after.evictions - before.evictions;
        self.counters.batches += report.batches;
        self.counters.refused += refused;
        let process_secs = processed - submitted;
        self.spans.submit_per_request.push(submitted / k as f64);
        match (after.misses > before.misses, LARGE[id], k) {
            (true, false, _) => self.spans.miss_small.push(process_secs),
            (true, true, _) => self.spans.miss_large.push(process_secs),
            (false, _, 1) => self.spans.hit_b1.push(process_secs),
            (false, _, 16) => self.spans.hit_b16.push(process_secs),
            _ => {}
        }

        let error = trace.child("check", || {
            if refused > 0 {
                return Some(format!("{refused} of {k} requests refused"));
            }
            for (x, b) in results.iter().zip(&rhs) {
                let Some(x) = x else {
                    return Some("a request returned no solution".into());
                };
                if !x.iter().all(|v| v.is_finite()) {
                    return Some("a solution is not finite".into());
                }
                if compare && *x != self.refs[id].solve(b) {
                    return Some("a served solution differs from LuFactors::solve".into());
                }
            }
            None
        });

        self.bursts += 1;
        if self.bursts == self.sizes.serve_count_window {
            self.counted = Some(self.counters);
        }
        OpOutcome { secs, units: k as u32, error }
    }
}

impl Workload for ServeMixed {
    fn op(&mut self, trace: &OpTrace<'_>) -> OpOutcome {
        let compare = self.bursts.is_multiple_of(COMPARE_EVERY);
        self.burst(trace, compare)
    }

    fn take_ledger(&mut self) -> Ledger {
        self.fold_service();
        self.ledger.take().unwrap_or_default()
    }

    fn variant(&mut self, variant: Variant) -> Option<Result<f64, String>> {
        // Cache misses factor with the service's one panel mode and
        // storage; only the executor varies.
        (variant == Variant::Serial).then(|| {
            // A service on the serial executor, fed one count window of
            // this seed's traffic; the median request latency.
            let rt = RuntimeOpts { executor: ExecutorKind::Serial, ..self.opts.rt };
            let mut serial = Self::client(
                self.sizes,
                self.mats.clone(),
                self.refs.clone(),
                ServeOpts { rt, ..self.opts },
                self.traffic.clone(),
                None,
            );
            let mut latencies = Vec::new();
            for _ in 0..self.sizes.serve_count_window {
                let out = serial.op(&OpTrace::off());
                if let Some(e) = out.error {
                    return Err(format!("serial service: {e}"));
                }
                latencies.extend(std::iter::repeat_n(out.secs, out.units as usize));
            }
            Ok(median(&latencies))
        })
    }

    fn layer_metrics(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let to = self.counted.unwrap_or(self.counters);
        let from = self.counted_from;
        let (hits, misses) = (to.hits - from.hits, to.misses - from.misses);
        Ok(BTreeMap::from([
            ("core.serve.submit_us", med(&self.spans.submit_per_request) * 1e6),
            ("core.serve.process_hit_ms.b1", med(&self.spans.hit_b1) * 1e3),
            ("core.serve.process_hit_ms.b16", med(&self.spans.hit_b16) * 1e3),
            ("core.serve.process_miss_ms.small", med(&self.spans.miss_small) * 1e3),
            ("core.serve.process_miss_ms.large", med(&self.spans.miss_large) * 1e3),
            ("core.serve.hit_ratio", hits as f64 / (hits + misses).max(1) as f64),
            ("core.serve.evictions", (to.evictions - from.evictions) as f64),
            ("core.serve.batches", (to.batches - from.batches) as f64),
            ("core.serve.refused", (to.refused - from.refused) as f64),
        ]))
    }
}
