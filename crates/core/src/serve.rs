//! Request-driven solve serving: amortize one factorization over many
//! right-hand sides.
//!
//! The paper's economics only pay off after the factorization: CALU spends
//! `O(n³)` flops (and its carefully minimized communication) once, and
//! every subsequent solve against the same matrix is `O(n²)`. This module
//! supplies the missing front-end — [`SolverService`] — that makes the
//! amortization real:
//!
//! * **Factorization cache** — completed [`LuFactors`] are kept in a
//!   cost-aware cache keyed by [`MatrixKey`] (matrix id + registration
//!   generation) and bounded in bytes. It keeps the factorizations that
//!   are costliest to redo: each key is worth its (periodically halved)
//!   request count times its `O(n³)` factorization work, victims go in
//!   ascending worth per byte, and a miss displaces residents only if it
//!   is worth more than they are. Hit/miss/eviction/bypass counters:
//!   [`SolverService::cache_stats`]. A cache miss factors the registered
//!   matrix on the `calu-runtime` DAG.
//! * **Batch coalescing** — queued requests ([`SolverService::submit`] →
//!   [`Ticket`]) are grouped per factorization and solved as multi-RHS
//!   blocks of up to [`ServeOpts::max_batch`] columns, so one pivot sweep
//!   and one pass over `L`/`U` serve the whole batch.
//! * **One solve routine** — each batch is solved in place by
//!   [`LuFactors::solve_mat`], two blocked `trsm` calls. By `trsm`'s
//!   line-independence contract ([`calu_matrix::blas3`]) every served
//!   solution is **bitwise identical** to [`LuFactors::solve`] of its
//!   right-hand side, whichever batch carried it.
//! * **Backpressure** — the request queue is bounded
//!   ([`ServeOpts::queue_capacity`]); `submit` refuses with
//!   [`SubmitError::QueueFull`] instead of growing without bound.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::Instant;

use calu_matrix::{Error, Matrix, Result, Scalar};
use calu_obs::{JsonValue, Metrics, Recorder, Span};
use calu_runtime::ExecReport;

use crate::calu::{CaluOpts, LuFactors};
use crate::rt::{runtime_calu_factor, RuntimeOpts};

/// Cache key of a registered matrix: the caller-chosen id plus a
/// generation that [`SolverService::register`] bumps on every
/// re-registration, so factors of a replaced matrix can never serve
/// requests against its successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixKey {
    /// Caller-chosen matrix identifier.
    pub(crate) id: u64,
    /// Registration generation (1 for the first `register` of an id).
    pub generation: u64,
}

/// Handle to a submitted solve request; redeem it with
/// [`SolverService::try_take`] after a [`SolverService::process`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Why [`SolverService::submit`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded request queue is at capacity; the caller must
    /// [`SolverService::process`] (or drop load) before submitting more.
    QueueFull {
        /// The configured [`ServeOpts::queue_capacity`].
        capacity: usize,
    },
    /// No matrix is registered under the given id.
    UnknownMatrix {
        /// The id the request named.
        id: u64,
    },
    /// The right-hand side's length does not match the matrix order.
    ShapeMismatch {
        /// Matrix order `n`.
        expected: usize,
        /// Length of the submitted right-hand side.
        got: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            SubmitError::UnknownMatrix { id } => write!(f, "no matrix registered under id {id}"),
            SubmitError::ShapeMismatch { expected, got } => {
                write!(f, "rhs length {got} does not match matrix order {expected}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Configuration of a [`SolverService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOpts {
    /// Factor-cache budget in bytes (packed `L\U` plus pivots per entry).
    /// `0` disables caching: every `process` pass re-factors on miss.
    pub cache_capacity_bytes: usize,
    /// Bounded request-queue length; `submit` beyond it returns
    /// [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum RHS columns coalesced into one batched solve.
    pub max_batch: usize,
    /// CALU tuning for cache-miss factorizations.
    pub calu: CaluOpts,
    /// Runtime configuration (executor, lookahead) of the cache-miss
    /// factorizations; batches are solved on the calling thread.
    pub rt: RuntimeOpts,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            cache_capacity_bytes: 64 << 20,
            queue_capacity: 1024,
            max_batch: 32,
            calu: CaluOpts::default(),
            rt: RuntimeOpts::default(),
        }
    }
}

/// Snapshot of the factor cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests whose factorization was already cached.
    pub hits: u64,
    /// Requests that had to factor (or re-factor) on the runtime.
    pub misses: u64,
    /// Entries evicted to make room under the byte budget.
    pub evictions: u64,
    /// Misses whose factors were not admitted — larger than the whole
    /// budget, or worth less than the entries they would displace — and
    /// served their one pass before being dropped.
    pub(crate) bypassed: u64,
    /// Factorizations currently cached.
    pub entries: usize,
    /// Bytes currently held by cached factorizations.
    pub bytes: usize,
}

/// What one [`SolverService::process`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessReport {
    /// Requests completed (successfully or with an error result).
    pub completed: usize,
    /// Batched solves executed, one [`LuFactors::solve_mat`] call each.
    pub batches: usize,
    /// Cache-miss factorizations performed.
    pub factored: usize,
}

/// Touches between two halvings of every count, per registered matrix.
/// Halving bounds how long an old hot set can hold its place: a key that
/// turns hot is admitted within about two such periods (a test pins it).
/// 32 rather than 16 halves the churn between two keys of near-equal
/// share (`serve_mixed`'s 7 % and 6 % matrices).
const AGING_TOUCHES_PER_MATRIX: u64 = 32;

struct CacheEntry<T> {
    factors: LuFactors<T>,
    bytes: usize,
    last_used: u64,
}

/// Cache of completed factorizations, bounded in bytes, that keeps the
/// factorizations costliest to redo (GreedyDual-Size weighting with
/// TinyLFU-style admission).
///
/// * **Value.** Every registered key counts its touches, hits and misses
///   alike. Its value is that count times the work of its factorization,
///   `n³` (the `2n³/3` flops of LU, the constant dropped: only ratios
///   matter) — the work a resident copy saves. Its priority is value per
///   byte.
/// * **Aging.** Every [`AGING_TOUCHES_PER_MATRIX`] × registered-matrix
///   touches, every count is halved.
/// * **Eviction.** A miss that does not fit picks victims in ascending
///   value per byte (the older `last_used` first on a tie) until it fits.
/// * **Admission.** The newcomer displaces them only if its value exceeds
///   their summed value; the residents win a tie. Otherwise — and when it
///   is larger than the whole budget — its factors serve the miss that
///   computed them and are dropped (`bypassed`).
///
/// Every decision reads counts, orders and a tick counter, never a clock,
/// so two services fed one request sequence decide alike. Scans are
/// O(entries): a handful of factorizations fit any sane budget.
struct FactorCache<T> {
    entries: HashMap<MatrixKey, CacheEntry<T>>,
    /// Touch count of every registered key, resident or not. A key enters
    /// at [`Self::track`] and leaves at [`Self::forget`], so this holds
    /// exactly the registered matrices.
    touches: HashMap<MatrixKey, u64>,
    capacity: usize,
    bytes: usize,
    tick: u64,
    /// Touches since the counts were last halved.
    since_aging: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    bypassed: u64,
}

impl<T: Scalar> FactorCache<T> {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            touches: HashMap::new(),
            capacity,
            bytes: 0,
            tick: 0,
            since_aging: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            bypassed: 0,
        }
    }

    /// Starts counting the touches of a newly registered key.
    fn track(&mut self, key: MatrixKey) {
        self.touches.insert(key, 0);
    }

    /// Drops a key's factors and its count (its matrix was replaced).
    fn forget(&mut self, key: MatrixKey) {
        self.touches.remove(&key);
        if let Some(e) = self.entries.remove(&key) {
            self.bytes -= e.bytes;
        }
    }

    /// Counts a touch of `key` and reports whether it was cached, bumping
    /// the hit/miss counters.
    fn touch(&mut self, key: MatrixKey) -> bool {
        self.tick += 1;
        *self.touches.get_mut(&key).expect("touched keys are registered") += 1;
        self.since_aging += 1;
        if self.since_aging >= AGING_TOUCHES_PER_MATRIX * self.touches.len() as u64 {
            self.since_aging = 0;
            self.touches.values_mut().for_each(|c| *c /= 2);
        }
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Value of `key` with factors of order `n`: touches × `n³`.
    fn value(&self, key: &MatrixKey, n: usize) -> u128 {
        u128::from(self.touches[key]) * (n as u128).pow(3)
    }

    /// Offers freshly computed factors to the cache. Factors that are
    /// admitted stay resident (`None`); factors that are not are handed
    /// back for the caller's one use, and the next request re-factors.
    fn insert(&mut self, key: MatrixKey, factors: LuFactors<T>) -> Option<LuFactors<T>> {
        let n = factors.order();
        let bytes = n * n * std::mem::size_of::<T>() + n * std::mem::size_of::<usize>();
        if bytes > self.capacity {
            self.bypassed += 1;
            return Some(factors);
        }
        // Residents by ascending value per byte — `a` before `b` when
        // value(a) / bytes(a) < value(b) / bytes(b), compared exactly —
        // the older first on a tie.
        let mut residents: Vec<(MatrixKey, u128, usize, u64)> = self
            .entries
            .iter()
            .map(|(k, e)| (*k, self.value(k, e.factors.order()), e.bytes, e.last_used))
            .collect();
        residents.sort_by(|a, b| (a.1 * b.2 as u128).cmp(&(b.1 * a.2 as u128)).then(a.3.cmp(&b.3)));
        let mut free = self.capacity - self.bytes;
        let mut victims = Vec::new();
        let mut displaced = 0;
        for (victim, value, victim_bytes, _) in residents {
            if free >= bytes {
                break;
            }
            free += victim_bytes;
            displaced += value;
            victims.push(victim);
        }
        if !victims.is_empty() && self.value(&key, n) <= displaced {
            self.bypassed += 1;
            return Some(factors);
        }
        for victim in victims {
            let e = self.entries.remove(&victim).expect("victims are resident");
            self.bytes -= e.bytes;
            self.evictions += 1;
        }
        self.bytes += bytes;
        self.entries.insert(key, CacheEntry { factors, bytes, last_used: self.tick });
        None
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            bypassed: self.bypassed,
            entries: self.entries.len(),
            bytes: self.bytes,
        }
    }
}

struct Request<T> {
    ticket: Ticket,
    key: MatrixKey,
    rhs: Vec<T>,
    /// Seconds since the service epoch at submission — the start of the
    /// ticket-latency measurement.
    submitted_at: f64,
}

/// Batched, factorization-caching solve front-end: factors on the runtime
/// DAG, solves each batch with [`LuFactors::solve_mat`].
///
/// ```
/// use calu_core::serve::{ServeOpts, SolverService};
/// use calu_matrix::gen;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let a = gen::randn(&mut rng, 64, 64);
/// let mut svc = SolverService::new(ServeOpts::default());
/// svc.register(1, a);
/// let t = svc.submit(1, vec![1.0; 64]).unwrap();
/// svc.process();
/// let x = svc.try_take(t).unwrap().unwrap();
/// assert_eq!(x.len(), 64);
/// ```
pub struct SolverService<T: Scalar = f64> {
    opts: ServeOpts,
    /// id → (current generation, original matrix). The original is kept so
    /// a cache miss (or eviction) can re-factor.
    matrices: HashMap<u64, (u64, Matrix<T>)>,
    cache: FactorCache<T>,
    queue: VecDeque<Request<T>>,
    results: HashMap<u64, Result<Vec<T>>>,
    next_ticket: u64,
    /// Unified metrics registry: request/batch counters, queue and cache
    /// gauges, ticket-latency histogram ([`Self::metrics_snapshot`]).
    metrics: Metrics,
    /// Span recorder: one span per `process` pass, the replayed per-task
    /// spans of every factorization the service ran (pid = rank, tid =
    /// worker) and one span per batched solve, on one timeline starting at
    /// the service epoch — export with [`calu_obs::chrome_trace`].
    recorder: Recorder,
    /// Wall-clock zero of the service timeline.
    epoch: Instant,
}

impl<T: Scalar> SolverService<T> {
    /// Creates an empty service.
    pub fn new(opts: ServeOpts) -> Self {
        assert!(opts.queue_capacity > 0, "queue capacity must be positive");
        assert!(opts.max_batch > 0, "max batch must be positive");
        let cache = FactorCache::new(opts.cache_capacity_bytes);
        Self {
            opts,
            matrices: HashMap::new(),
            cache,
            queue: VecDeque::new(),
            results: HashMap::new(),
            next_ticket: 0,
            metrics: Metrics::new(),
            recorder: Recorder::new(),
            epoch: Instant::now(),
        }
    }

    /// Seconds since the service epoch — the timeline every span and
    /// latency sample lives on.
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Registers (or replaces) the matrix behind `id` and returns its new
    /// [`MatrixKey`]. Replacing bumps the generation: factors of the old
    /// matrix are dropped from the cache, and requests still queued
    /// against the old generation complete with an error instead of a
    /// stale solution.
    ///
    /// # Panics
    /// If `a` is not square.
    pub fn register(&mut self, id: u64, a: Matrix<T>) -> MatrixKey {
        assert_eq!(a.rows(), a.cols(), "SolverService only serves square systems");
        let generation = match self.matrices.get(&id) {
            Some((g, _)) => {
                self.cache.forget(MatrixKey { id, generation: *g });
                g + 1
            }
            None => 1,
        };
        self.matrices.insert(id, (generation, a));
        let key = MatrixKey { id, generation };
        self.cache.track(key);
        key
    }

    /// Queues a solve of `A x = rhs` against the matrix registered under
    /// `id`; the returned [`Ticket`] redeems the solution after a
    /// [`Self::process`] pass.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] once [`ServeOpts::queue_capacity`]
    /// requests are pending, [`SubmitError::UnknownMatrix`] /
    /// [`SubmitError::ShapeMismatch`] for malformed requests.
    pub fn submit(&mut self, id: u64, rhs: Vec<T>) -> std::result::Result<Ticket, SubmitError> {
        if self.queue.len() >= self.opts.queue_capacity {
            self.metrics.counter_add("serve.rejected", 1);
            return Err(SubmitError::QueueFull { capacity: self.opts.queue_capacity });
        }
        let Some((generation, a)) = self.matrices.get(&id) else {
            self.metrics.counter_add("serve.rejected", 1);
            return Err(SubmitError::UnknownMatrix { id });
        };
        if rhs.len() != a.rows() {
            self.metrics.counter_add("serve.rejected", 1);
            return Err(SubmitError::ShapeMismatch { expected: a.rows(), got: rhs.len() });
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let key = MatrixKey { id, generation: *generation };
        let submitted_at = self.now();
        self.queue.push_back(Request { ticket, key, rhs, submitted_at });
        self.metrics.counter_add("serve.submitted", 1);
        self.metrics.gauge_set("serve.queue_depth", self.queue.len() as f64);
        Ok(ticket)
    }

    /// Pending (submitted, not yet processed) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Drains the queue: groups requests per factorization, resolves each
    /// group's factors (cache hit, or a runtime factorization on miss),
    /// and solves the group's right-hand sides in place, in batches of up
    /// to [`ServeOpts::max_batch`] columns, with [`LuFactors::solve_mat`].
    /// Results — solutions or errors — become available to
    /// [`Self::try_take`].
    pub fn process(&mut self) -> ProcessReport {
        let pass_start = self.now();
        let mut rep = ProcessReport::default();
        // FIFO-preserving grouping: groups are processed in order of their
        // first request, requests keep submission order within a group.
        let mut order: Vec<MatrixKey> = Vec::new();
        let mut groups: HashMap<MatrixKey, Vec<Request<T>>> = HashMap::new();
        for req in self.queue.drain(..) {
            let bucket = groups.entry(req.key).or_default();
            if bucket.is_empty() {
                order.push(req.key);
            }
            bucket.push(req);
        }
        self.metrics.gauge_set("serve.queue_depth", 0.0);

        for key in order {
            let reqs = groups.remove(&key).expect("group recorded with its key");
            let fresh = self.matrices.get(&key.id).map(|(g, _)| *g) == Some(key.generation);
            let spare = if fresh {
                self.ensure_factors(key, &mut rep)
            } else {
                Err(Error::BadShape { what: "matrix re-registered while request was queued" })
            };
            let spare = match spare {
                Ok(spare) => spare,
                Err(e) => {
                    for r in reqs {
                        let latency = self.now() - r.submitted_at;
                        self.metrics.observe("serve.ticket_latency_s", latency);
                        self.metrics.counter_add("serve.completed", 1);
                        self.results.insert(r.ticket.0, Err(e.clone()));
                        rep.completed += 1;
                    }
                    continue;
                }
            };
            let factors = match &spare {
                Some(f) => f,
                None => &self.cache.entries[&key].factors,
            };
            let n = factors.order();
            for chunk in reqs.chunks(self.opts.max_batch) {
                let k = chunk.len();
                let rhs = chunk.iter().flat_map(|r| r.rhs.iter().copied()).collect();
                let mut b = Matrix::from_col_major(n, k, rhs);
                let start = self.now();
                factors.solve_mat(b.view_mut());
                let name = format!("Solve({n}x{k})");
                self.recorder.record_interval(name, "solve_batch", 0, 0, start, self.now());
                rep.batches += 1;
                self.metrics.counter_add("serve.batches", 1);
                self.metrics.observe("serve.batch_size", k as f64);
                for (c, r) in chunk.iter().enumerate() {
                    let latency = self.epoch.elapsed().as_secs_f64() - r.submitted_at;
                    self.metrics.observe("serve.ticket_latency_s", latency);
                    self.metrics.counter_add("serve.completed", 1);
                    self.results.insert(r.ticket.0, Ok(b.col(c).to_vec()));
                    rep.completed += 1;
                }
            }
        }
        self.recorder.record_interval("process".to_string(), "serve", 0, 0, pass_start, self.now());
        rep
    }

    /// Takes the result of a processed request, or `None` while it is
    /// still queued (or the ticket was already redeemed).
    pub fn try_take(&mut self, ticket: Ticket) -> Option<Result<Vec<T>>> {
        self.results.remove(&ticket.0)
    }

    /// Counters of the factorization cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Feeds every executed task's ready-to-start gap into the
    /// `serve.task_queue_delay_s` histogram — the wait-state signal
    /// (scheduler overhead) riding next to the latency histograms.
    fn observe_queue_delays(&self, exec: &ExecReport) {
        let delays = exec.timings.iter().map(|t| t.queue_delay());
        self.metrics.observe_all("serve.task_queue_delay_s", delays);
    }

    /// The unified observability snapshot: every serve-layer signal —
    /// request counters, queue-depth gauge, cache counters, ticket-latency
    /// / batch-size / task-queue-delay histograms (p50/p95/p99) — as one
    /// JSON object, ready to embed in a bench report or dump to a file.
    pub fn metrics_snapshot(&self) -> JsonValue {
        let stats = self.cache.stats();
        let sync = |name: &str, v: u64| {
            // Counters are monotone; syncing adds only the delta since the
            // last snapshot, so repeated snapshots never double-count.
            let cur = self.metrics.counter(name);
            self.metrics.counter_add(name, v - cur);
        };
        sync("serve.cache.hits", stats.hits);
        sync("serve.cache.misses", stats.misses);
        sync("serve.cache.evictions", stats.evictions);
        sync("serve.cache.bypassed", stats.bypassed);
        self.metrics.gauge_set("serve.cache.entries", stats.entries as f64);
        self.metrics.gauge_set("serve.cache.bytes", stats.bytes as f64);
        self.metrics.gauge_set("serve.queue_depth", self.queue.len() as f64);
        self.metrics.snapshot()
    }

    /// The service's span timeline so far (pid = rank, tid = worker,
    /// µs since the service epoch): one `process` span per pass, the
    /// per-task spans of every factorization it ran, and one `solve_batch`
    /// span (named `Solve({n}x{k})`, on worker 0: the calling thread) per
    /// batched solve. Export with [`calu_obs::chrome_trace`]; the recorder
    /// keeps recording.
    pub fn spans(&self) -> Vec<Span> {
        self.recorder.snapshot()
    }

    /// Resolves `key`'s factors into the cache (hit: a counter bump; miss:
    /// a runtime factorization). Factors the cache did not admit (a budget
    /// too small for them, or residents worth more) are returned, so one
    /// miss is one factorization; `None` means they are resident.
    fn ensure_factors(
        &mut self,
        key: MatrixKey,
        rep: &mut ProcessReport,
    ) -> Result<Option<LuFactors<T>>> {
        if self.cache.touch(key) {
            return Ok(None);
        }
        let (_, a) = self.matrices.get(&key.id).expect("caller checked registration");
        let offset = self.epoch.elapsed().as_secs_f64();
        let (factors, exec) = runtime_calu_factor(a, self.opts.calu, self.opts.rt)?;
        exec.record_into(&self.recorder, offset);
        self.observe_queue_delays(&exec);
        rep.factored += 1;
        self.metrics.counter_add("serve.factored", 1);
        Ok(self.cache.insert(key, factors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::gen;
    use calu_runtime::ExecutorKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn opts_with(executor: ExecutorKind) -> ServeOpts {
        ServeOpts {
            calu: CaluOpts { block: 16, p: 4, ..Default::default() },
            rt: RuntimeOpts { executor, ..Default::default() },
            ..Default::default()
        }
    }

    fn executors() -> [ExecutorKind; 2] {
        [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 4 }]
    }

    #[test]
    fn service_solves_match_per_rhs_solve_bitwise() {
        for executor in executors() {
            let mut rng = StdRng::seed_from_u64(901);
            let n = 60;
            let a: Matrix<f64> = gen::randn(&mut rng, n, n);
            let f =
                crate::calu::calu_factor(&a, CaluOpts { block: 16, p: 4, ..Default::default() })
                    .unwrap();
            let mut svc = SolverService::new(opts_with(executor));
            svc.register(7, a);
            let rhs: Vec<Vec<f64>> = (0..13)
                .map(|_| {
                    let col: Matrix<f64> = gen::randn(&mut rng, n, 1);
                    col.col(0).to_vec()
                })
                .collect();
            let tickets: Vec<Ticket> =
                rhs.iter().map(|r| svc.submit(7, r.clone()).unwrap()).collect();
            assert_eq!(svc.queued(), 13);
            let rep = svc.process();
            assert_eq!(rep.completed, 13);
            assert_eq!(rep.factored, 1);
            assert_eq!(svc.queued(), 0);
            for (t, r) in tickets.iter().zip(&rhs) {
                let got = svc.try_take(*t).unwrap().unwrap();
                assert_eq!(got, f.solve(r), "{executor:?}");
                assert!(svc.try_take(*t).is_none(), "tickets redeem once");
            }
        }
    }

    #[test]
    fn cache_hits_and_generation_invalidation() {
        let mut rng = StdRng::seed_from_u64(902);
        let n = 40;
        let mut svc = SolverService::new(opts_with(ExecutorKind::Serial));
        let a: Matrix<f64> = gen::randn(&mut rng, n, n);
        svc.register(1, a);
        let t1 = svc.submit(1, vec![1.0; n]).unwrap();
        svc.process();
        let t2 = svc.submit(1, vec![2.0; n]).unwrap();
        svc.process();
        let stats = svc.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
        assert!(svc.try_take(t1).unwrap().is_ok());
        assert!(svc.try_take(t2).unwrap().is_ok());

        // Re-registering while a request is queued invalidates it.
        let t3 = svc.submit(1, vec![3.0; n]).unwrap();
        let a: Matrix<f64> = gen::randn(&mut rng, n, n);
        svc.register(1, a);
        let t4 = svc.submit(1, vec![4.0; n]).unwrap();
        svc.process();
        assert!(svc.try_take(t3).unwrap().is_err(), "stale-generation request must error");
        assert!(svc.try_take(t4).unwrap().is_ok(), "fresh-generation request must solve");
    }

    #[test]
    fn zero_capacity_never_caches_and_eviction_counts() {
        let mut rng = StdRng::seed_from_u64(903);
        let n = 32;
        // Capacity 0: both passes miss, nothing resident, solves still work.
        let mut opts = opts_with(ExecutorKind::Serial);
        opts.cache_capacity_bytes = 0;
        let mut svc = SolverService::new(opts);
        let a: Matrix<f64> = gen::randn(&mut rng, n, n);
        let f = crate::calu::calu_factor(&a, CaluOpts { block: 16, p: 4, ..Default::default() })
            .unwrap();
        svc.register(1, a);
        for _ in 0..2 {
            let rhs = vec![1.5; n];
            let t = svc.submit(1, rhs.clone()).unwrap();
            svc.process();
            assert_eq!(svc.try_take(t).unwrap().unwrap(), f.solve(&rhs));
        }
        let stats = svc.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries, stats.bytes), (2, 0, 0, 0));
        let factorizations = svc.spans().iter().filter(|s| s.name == "PanelFinish(0)").count();
        assert_eq!(factorizations, 2, "one factorization per miss, not one more to solve with");

        // Capacity for exactly one entry. The second matrix is worth no
        // more than the resident (one touch each): it is served and not
        // admitted. Its third touch outweighs the resident's two: it is
        // admitted and the first matrix is evicted.
        let mut opts = opts_with(ExecutorKind::Serial);
        opts.cache_capacity_bytes = entry_bytes(n);
        let mut svc = SolverService::new(opts);
        let a: Matrix<f64> = gen::randn(&mut rng, n, n);
        svc.register(1, a);
        let a2: Matrix<f64> = gen::randn(&mut rng, n, n);
        svc.register(2, a2);
        for id in [1, 2, 1, 2, 2] {
            let t = svc.submit(id, vec![1.0; n]).unwrap();
            svc.process();
            assert!(svc.try_take(t).unwrap().is_ok());
        }
        let stats = svc.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 1, "the resident's second touch");
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.bypassed, 2, "the newcomer ties, then trails the resident");
        assert_eq!(stats.evictions, 1, "its third touch outweighs the resident's two");
    }

    #[test]
    fn backpressure_and_submit_validation() {
        let mut rng = StdRng::seed_from_u64(904);
        let n = 16;
        let mut opts = opts_with(ExecutorKind::Serial);
        opts.queue_capacity = 2;
        let mut svc = SolverService::new(opts);
        let a: Matrix<f64> = gen::randn(&mut rng, n, n);
        svc.register(1, a);
        assert_eq!(svc.submit(9, vec![0.0; n]), Err(SubmitError::UnknownMatrix { id: 9 }),);
        assert_eq!(
            svc.submit(1, vec![0.0; n + 1]),
            Err(SubmitError::ShapeMismatch { expected: n, got: n + 1 }),
        );
        svc.submit(1, vec![0.0; n]).unwrap();
        svc.submit(1, vec![0.0; n]).unwrap();
        assert_eq!(
            svc.submit(1, vec![0.0; n]),
            Err(SubmitError::QueueFull { capacity: 2 }),
            "third submit must hit backpressure"
        );
        svc.process();
        svc.submit(1, vec![0.0; n]).expect("processing drains the queue");
    }

    #[test]
    fn metrics_and_spans_capture_the_serving_story() {
        for executor in executors() {
            let mut rng = StdRng::seed_from_u64(905);
            let n = 48;
            let a: Matrix<f64> = gen::randn(&mut rng, n, n);
            let mut svc = SolverService::new(opts_with(executor));
            svc.register(1, a);
            for _ in 0..5 {
                svc.submit(1, vec![1.0; n]).unwrap();
            }
            svc.process();
            for _ in 0..3 {
                svc.submit(1, vec![2.0; n]).unwrap();
            }
            svc.process();

            let snap = svc.metrics_snapshot();
            // The metrics vocabulary, pinned by name: nothing but the
            // service's own signals (no `serve.pool.*`).
            let keys = |section: &str| -> Vec<&str> {
                let obj = snap.get(section).and_then(|v| v.as_object()).expect(section);
                obj.iter().map(|(k, _)| k.as_str()).collect()
            };
            assert_eq!(
                keys("counters"),
                [
                    "serve.batches",
                    "serve.cache.bypassed",
                    "serve.cache.evictions",
                    "serve.cache.hits",
                    "serve.cache.misses",
                    "serve.completed",
                    "serve.factored",
                    "serve.submitted",
                ]
            );
            assert_eq!(
                keys("gauges"),
                ["serve.cache.bytes", "serve.cache.entries", "serve.queue_depth"]
            );
            assert_eq!(
                keys("histograms"),
                ["serve.batch_size", "serve.task_queue_delay_s", "serve.ticket_latency_s"]
            );
            let counters = snap.get("counters").expect("counters section");
            let c = |name: &str| counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
            assert_eq!(c("serve.submitted"), 8, "{executor:?}");
            assert_eq!(c("serve.completed"), 8);
            assert_eq!(c("serve.factored"), 1, "second pass must hit the cache");
            assert_eq!(c("serve.cache.hits"), 1);
            assert_eq!(c("serve.cache.misses"), 1);
            let gauges = snap.get("gauges").expect("gauges section");
            assert_eq!(gauges.get("serve.queue_depth").and_then(|v| v.as_f64()), Some(0.0));
            let hist = snap
                .get("histograms")
                .and_then(|h| h.get("serve.ticket_latency_s"))
                .expect("latency histogram");
            assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(8));
            assert!(hist.get("p99").and_then(|v| v.as_f64()).unwrap() >= 0.0);
            // Wait-state signals: one queue-delay observation per executed
            // task (factor DAG + batched solves).
            let qd = snap
                .get("histograms")
                .and_then(|h| h.get("serve.task_queue_delay_s"))
                .expect("queue-delay histogram");
            assert!(qd.get("count").and_then(|v| v.as_u64()).unwrap() > 0, "{executor:?}");
            assert!(qd.get("min").and_then(|v| v.as_f64()).unwrap() >= 0.0);
            // Snapshots are idempotent: syncing twice must not double-count.
            let again = svc.metrics_snapshot();
            assert_eq!(
                again
                    .get("counters")
                    .and_then(|v| v.get("serve.cache.hits"))
                    .and_then(|v| { v.as_u64() }),
                Some(1)
            );

            // The span timeline round-trips as a valid chrome trace and
            // carries both the pass spans and the replayed task spans.
            let spans = svc.spans();
            assert_eq!(spans.iter().filter(|s| s.name == "process").count(), 2);
            assert!(spans.iter().any(|s| s.cat == "serve"));
            assert!(spans.iter().any(|s| s.name.contains("Panel")), "factor tasks recorded");
            assert!(spans.iter().any(|s| s.name.contains("Solve")), "solve tasks recorded");
            let parsed =
                calu_obs::parse_chrome_trace(&calu_obs::chrome_trace(&spans)).expect("valid trace");
            assert_eq!(parsed.len(), spans.len());
        }
    }

    /// `serve_mixed`'s request shares and matrix orders, scaled down by 16:
    /// a popular and a rare large matrix among four small ones.
    const SHARES: [f64; 6] = [0.45, 0.25, 0.10, 0.07, 0.07, 0.06];
    const ORDERS: [usize; 6] = [16, 32, 16, 16, 32, 16];

    fn entry_bytes(n: usize) -> usize {
        n * n * 8 + n * std::mem::size_of::<usize>()
    }

    /// A service over one diagonally dominant matrix per order, id = index.
    fn service_over(orders: &[usize], capacity: usize, executor: ExecutorKind) -> SolverService {
        let mut rng = StdRng::seed_from_u64(906);
        let mut opts = opts_with(executor);
        opts.cache_capacity_bytes = capacity;
        let mut svc = SolverService::new(opts);
        for (id, &n) in orders.iter().enumerate() {
            svc.register(id as u64, gen::diag_dominant(&mut rng, n));
        }
        svc
    }

    /// Serves one right-hand side per id of `seq`, one `process` pass each.
    fn serve_sequence(svc: &mut SolverService, seq: &[usize]) {
        for &id in seq {
            let n = svc.matrices[&(id as u64)].1.rows();
            let t = svc.submit(id as u64, vec![1.0; n]).unwrap();
            svc.process();
            assert!(svc.try_take(t).unwrap().is_ok());
        }
    }

    /// `len` ids drawn with probabilities `shares`.
    fn draw_sequence(seed: u64, shares: &[f64], len: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let draw: f64 = rng.gen();
                let mut below = 0.0;
                let id = shares.iter().position(|share| {
                    below += share;
                    draw < below
                });
                id.unwrap_or(shares.len() - 1)
            })
            .collect()
    }

    /// Hits of the least-recently-used rule on `seq` (ids index `orders`):
    /// the reference the cost-aware rule is held to.
    fn lru_hits(seq: &[usize], orders: &[usize], capacity: usize) -> u64 {
        let mut resident: Vec<usize> = Vec::new(); // least recent first
        let mut hits = 0;
        for &id in seq {
            if let Some(p) = resident.iter().position(|&r| r == id) {
                resident.remove(p);
                hits += 1;
            } else if entry_bytes(orders[id]) > capacity {
                continue;
            } else {
                let used = |r: &[usize]| r.iter().map(|&r| entry_bytes(orders[r])).sum::<usize>();
                while used(&resident) + entry_bytes(orders[id]) > capacity {
                    resident.remove(0);
                }
            }
            resident.push(id);
        }
        hits
    }

    /// Room for 60 % of the working set, as in `serve_mixed`: the large
    /// popular matrix and three small ones fit, both large ones do not.
    fn skewed_capacity() -> usize {
        let working_set: usize = ORDERS.iter().map(|&n| entry_bytes(n)).sum();
        working_set * 6 / 10
    }

    #[test]
    fn cost_aware_cache_beats_lru_on_skewed_traffic() {
        let seq = draw_sequence(46, &SHARES, 2000);
        let capacity = skewed_capacity();
        let mut svc = service_over(&ORDERS, capacity, ExecutorKind::Serial);
        serve_sequence(&mut svc, &seq);
        let stats = svc.cache_stats();
        let lru = lru_hits(&seq, &ORDERS, capacity);
        // LRU: 1414 hits (71 %); the cost-aware rule: 1719 (86 %, the
        // share of the popular large matrix and the three hottest small
        // ones).
        assert_eq!((lru, stats.hits), (1414, 1719));
        assert!(stats.hits > lru);
        assert!(stats.evictions < 20, "{stats:?}: residents churn only between near-equal keys");
        assert_eq!(stats.misses, stats.bypassed + stats.entries as u64 + stats.evictions);
    }

    #[test]
    fn a_newly_hot_key_is_admitted_within_two_aging_periods() {
        let n = 16;
        let mut svc = service_over(&[n, n], entry_bytes(n), ExecutorKind::Serial);
        serve_sequence(&mut svc, &[0; 300]);
        // The hot set shifts to key 1. Its count must outgrow key 0's,
        // which aging halves every period of 32 × 2 touches.
        let period = (AGING_TOUCHES_PER_MATRIX * 2) as usize;
        let mut touches = 0;
        while svc.cache.entries.keys().all(|k| k.id != 1) {
            serve_sequence(&mut svc, &[1]);
            touches += 1;
            assert!(touches <= 2 * period, "key 1 starved after {touches} touches");
        }
        // LRU would admit it at once, and let any stray touch displace
        // the hot key; counts without aging would need 301 touches.
        assert!(touches > 1, "one stray touch must not displace the hot resident");
        assert_eq!(touches, 63);
    }

    #[test]
    fn uniform_traffic_does_no_worse_than_lru() {
        // Six equal matrices, room for three.
        let orders = [16; 6];
        let capacity = 3 * entry_bytes(16);
        // A cycle through all six: LRU always evicts the one needed next.
        let cycle: Vec<usize> = (0..600).map(|i| i % 6).collect();
        let mut svc = service_over(&orders, capacity, ExecutorKind::Serial);
        serve_sequence(&mut svc, &cycle);
        // The cost-aware rule keeps three of them resident: half the
        // requests hit once counts settle.
        assert_eq!(lru_hits(&cycle, &orders, capacity), 0);
        assert_eq!(svc.cache_stats().hits, 297);
        // Independent uniform draws.
        let random = draw_sequence(47, &[1.0 / 6.0; 6], 1200);
        let mut svc = service_over(&orders, capacity, ExecutorKind::Serial);
        serve_sequence(&mut svc, &random);
        // Any rule that keeps the cache full hits half of them in
        // expectation; on this sequence LRU scores 582, the cost-aware
        // rule 610.
        let lru = lru_hits(&random, &orders, capacity);
        assert_eq!((lru, svc.cache_stats().hits), (582, 610));
    }

    #[test]
    fn services_fed_one_sequence_report_equal_cache_stats() {
        let seq = draw_sequence(48, &SHARES, 600);
        let stats: Vec<CacheStats> = executors()
            .into_iter()
            .map(|executor| {
                let mut svc = service_over(&ORDERS, skewed_capacity(), executor);
                serve_sequence(&mut svc, &seq);
                svc.cache_stats()
            })
            .collect();
        assert_eq!(stats[0], stats[1]);
        assert!(stats[0].evictions + stats[0].bypassed > 0, "the rule had decisions to make");
    }

    #[test]
    fn re_registration_drops_the_old_generations_counts() {
        let mut rng = StdRng::seed_from_u64(907);
        let mut svc = service_over(&[12, 12, 12], 2 * entry_bytes(12), ExecutorKind::Serial);
        for round in 0..30 {
            svc.register(round % 3, gen::diag_dominant(&mut rng, 12));
            serve_sequence(&mut svc, &[0, 1, 2, 0]);
            let registered: Vec<MatrixKey> = svc
                .matrices
                .iter()
                .map(|(&id, &(generation, _))| MatrixKey { id, generation })
                .collect();
            assert_eq!(svc.cache.touches.len(), registered.len());
            assert!(registered.iter().all(|k| svc.cache.touches.contains_key(k)));
            assert!(svc.cache.entries.keys().all(|k| registered.contains(k)));
        }
    }

    #[test]
    fn singular_matrix_fails_every_ticket_in_the_group() {
        let n = 24;
        let mut svc = SolverService::new(opts_with(ExecutorKind::Serial));
        svc.register(1, Matrix::<f64>::zeros(n, n));
        let t1 = svc.submit(1, vec![1.0; n]).unwrap();
        let t2 = svc.submit(1, vec![2.0; n]).unwrap();
        let rep = svc.process();
        assert_eq!(rep.completed, 2);
        assert_eq!(rep.batches, 0);
        let e1 = svc.try_take(t1).unwrap().unwrap_err();
        let e2 = svc.try_take(t2).unwrap().unwrap_err();
        assert_eq!(e1, e2, "one factorization error distributes to the whole group");
        assert!(matches!(e1, Error::SingularPivot { .. }));
    }
}
