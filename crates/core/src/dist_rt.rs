//! Runtime-driven distributed CALU / `PDGETRF`: each rank's per-step work
//! is emitted as a `calu-runtime` DAG ([`LuDag::build_dist`]) instead of
//! the hand-written SPMD step loop, so lookahead depth and critical-path
//! scheduling — long available to the shared-memory layer — apply to the
//! distributed setting too.
//!
//! One run is set up once (`DistRun`: block-cyclic scatter into per-rank
//! local matrices in ScaLAPACK's local layout, the DAG, the pivot vector,
//! the ledger), driven
//! by one of two drivers over the `Communicator` seam, and assembled
//! once (`DistRun::finish`):
//!
//! * [`CommKind::InProcess`] — *run the DAG on an executor*: each task
//!   runs whole (`dist_rank::run_whole`) over the ranks' storage (the
//!   simulation's shared memory), payloads in one shared mailbox, the
//!   DAG's edges the proof that concurrently running tasks touch disjoint
//!   elements.
//! * [`CommKind::Threaded`] — *run the per-rank queues on scoped threads*
//!   (`DistRun::run_on_rank_threads`): one OS thread per rank, point-to-point
//!   messages, blocking fetches.
//!
//! Both run the same task bodies (`crate::dist_rank`): a body touches
//! exactly the local matrix of the rank it runs for and everything else arrives
//! as keyed `f64`-word payloads (the same convention `calu-netsim` sends
//! over channels — `T ↔ f64` round trips are exact for every [`Scalar`]).
//! `Swap` and `PanelGetf2` are collectives over a process column, written
//! once as rounds per participant: the in-process driver runs a
//! collective's participants in lockstep inside its one task, a rank
//! thread runs its own participant. Because every task replays the exact
//! arithmetic of the references — CALU's SPMD sweep
//! ([`dist_calu_factor_spmd`](crate::dist::dist_calu_factor_spmd)) and, for
//! `PDGETRF`, the sequential blocked [`calu_matrix::lapack::getrf`] —
//! factors are **bitwise identical** to them on any schedule, any
//! executor, any lookahead depth, either communicator — the property tests
//! assert it.
//!
//! # Per-rank schedules
//!
//! Each rank thread runs the projection of the DAG's deterministic
//! [`serial_schedule`](LuDag::serial_schedule) onto the tasks it takes
//! part in — its own, plus every collective over its process column at
//! the collective's one position — so the queues are consistent
//! projections of one topological order. Every fetch is blocking with
//! stash-first semantics (see `ThreadedComm`), which makes such a
//! projection deadlock-free: whichever task needs a payload first pulls
//! it from the channel into the rank's stash, and later tasks re-read it
//! there.
//!
//! # Failure semantics
//!
//! A singular pivot (exactly zero, or non-finite) on any rank fails its
//! task; the executor cancels every dependent task **across ranks** (no
//! hang — dependents simply never start) and the driver surfaces the
//! absolute elimination step as [`DistFactors::first_singular`], matching
//! the step the sequential references error at. Unlike the SPMD loop,
//! which marches on LAPACK-INFO-style, the canceled factors beyond that
//! step are untouched — the leading part is still meaningful.
//!
//! On rank threads the finder cancels the whole grid through
//! `Communicator::cancel`: every blocked and future fetch on every rank
//! returns [`Error::Canceled`], rank threads unwind their queues, the
//! driver joins them all (no hang), and the drain leaves
//! `mailbox_residual_words == 0`. A rank thread that **panics** (an
//! assertion, an index bug) cancels the grid the same way from an unwind
//! guard, so its peers leave within one poll interval instead of waiting
//! out the stuck-fetch timeout, and the driver re-raises the original
//! panic once every thread is joined.
//!
//! # Reports
//!
//! Execution is instant shared-memory compute; the *communication* story
//! is modeled: [`DistRtReport`] carries the per-rank modeled schedule
//! ([`simulate_dist_schedule`] under a [`DistCostModel`]) as `calu_obs`
//! [`Span`]s — compute and communication of all ranks in one Gantt, the
//! same span type as the measured timeline beside it — plus a synthesized
//! [`SimReport`] and the wall-clock [`ExecReport`] of whichever driver
//! actually ran the tasks.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::blocks::{SharedChunks, SharedIpiv, SharedMat};
use crate::comm::{CommKind, Communicator, InProcessComm, ThreadedComm};
use crate::dist::{assemble_2d, scatter_2d, DistCaluConfig, DistFactors, DistPdgetrfConfig};
use crate::dist_rank::{collective_pcol, compose, run_whole, Plan, RankTasks, RunCtx};
use crate::tslu::LocalLu;
use calu_matrix::{Error, Matrix, Scalar, TileLayout};
use calu_netsim::{MachineConfig, SimReport};
use calu_obs::{CommDelta, CommLedger, CommLedgerReport, CommTerm, Recorder, Span};
use calu_runtime::{
    expected_mailbox_comm, simulate_dist_schedule, DistCostModel, DistGeom, DistKind, DistPanelAlg,
    DistTask, ExecReport, ExecutorKind, LuDag, LuShape, Task, TaskTiming,
};

/// How a runtime-driven distributed factorization should execute.
#[derive(Debug, Clone, Copy)]
pub struct DistRtOpts {
    /// Panel lookahead depth `d ≥ 1` — for the first time a real parameter
    /// of the distributed algorithm (depth 1 reproduces the step-coupled
    /// schedule of the SPMD loop's data flow).
    pub lookahead: usize,
    /// Which executor drives the DAG. The serial executor replays the
    /// deterministic critical-path order; the threaded executor runs
    /// ranks' tasks concurrently (factors are bitwise identical either
    /// way). Under the [`CommKind::Threaded`] communicator the rank
    /// threads *are* the parallelism and this field is ignored.
    pub executor: ExecutorKind,
    /// Which `Communicator` moves cross-rank payloads:
    /// [`CommKind::InProcess`] (the shared mailbox, the default) or
    /// [`CommKind::Threaded`] (ranks as OS threads over per-rank
    /// channels). Factors are bitwise identical under both.
    pub communicator: CommKind,
}

impl Default for DistRtOpts {
    fn default() -> Self {
        Self { lookahead: 1, executor: ExecutorKind::Serial, communicator: CommKind::InProcess }
    }
}

/// What a runtime-driven distributed factorization did: the modeled
/// per-rank communication schedule plus the real execution record.
#[derive(Debug, Clone)]
pub struct DistRtReport {
    /// Synthesized per-rank accounting (modeled compute / α / β / idle
    /// times, message and word counts) in `run_sim` report form.
    pub sim: SimReport,
    /// **Modeled** per-rank timelines (`DistSchedule::spans`): compute and
    /// send spans of all ranks in modeled seconds as microseconds, idle the
    /// gaps — ready for [`calu_obs::render_gantt`]. [`Self::spans`] is the
    /// measured timeline.
    pub modeled: Vec<Span>,
    /// Wall-clock record of the executor run (empty when a singular pivot
    /// canceled the run).
    pub exec: ExecReport,
    /// Modeled critical path of the DAG (infinite parallelism bound).
    pub critical_path: f64,
    /// Modeled makespan of the per-rank schedule (what the Gantt shows).
    pub makespan: f64,
    /// Task count of the DAG.
    pub tasks: usize,
    /// **Measured** communication ledger: every mailbox post/arrival and
    /// cross-owner pivot-row exchange the runner actually performed,
    /// counted per rank and per term, plus the end-of-run drain counters
    /// (`drained_words` is nonzero on success — the lookahead eviction
    /// horizon keeps the last window's payloads alive; `residual_words`
    /// is the leak detector, always 0).
    pub comm: CommLedgerReport,
    /// **Exact** expected mailbox traffic of this DAG
    /// ([`expected_mailbox_comm`]): candidate counts simulated through the
    /// butterfly, broadcast payloads from geometry — and, on a successful
    /// run, the `swap` term from the pivots it found. The measured ledger
    /// equals it term-for-term — [`Self::mailbox_deltas`] asserts so in
    /// the reconciliation tests.
    pub expected_mailbox: Vec<CommTerm>,
    /// Wall-clock spans of the whole call on one timeline whose origin is
    /// the call's start, ready for [`calu_obs::chrome_trace`] export: one
    /// span per executed task (pid = rank, tid = worker; on a canceled run
    /// the tasks that completed before cancellation are still present),
    /// and the four phases of [`DIST_PHASES`] on a lane of their own
    /// (pid = the number of ranks), back to back — block-cyclic scatter and
    /// set-up, the executor or rank-thread run, the in-call cost model
    /// (mailbox drain, simulated schedule, critical path and expected
    /// terms), and the assembly of the factors.
    pub spans: Vec<Span>,
}

/// Names of the four phase spans of [`DistRtReport::spans`], in the order
/// they run; together they cover the call.
pub const DIST_PHASES: [&str; 4] = ["dist.scatter", "dist.execute", "dist.model", "dist.assemble"];

impl DistRtReport {
    /// Measured mailbox ledger vs the exact predictor — every delta whose
    /// source is `"mailbox_exact"` is exact on a successful run (after a
    /// canceled one the `swap` term surfaces as unmodeled: which rows cross
    /// owners depends on pivots the run did not find).
    pub fn mailbox_deltas(&self) -> Vec<CommDelta> {
        self.comm.reconcile(&self.expected_mailbox)
    }

    /// This report's headline numbers in the standard [`calu_obs::Metrics`]
    /// snapshot form (the same vocabulary `SolverService` reports in):
    /// mailbox drain counters, total words/messages, fetch-wait totals
    /// (overall and per ledger term), and a per-rank wait-seconds
    /// histogram. Deterministic for a deterministic report.
    pub fn metrics_snapshot(&self) -> calu_obs::JsonValue {
        let m = calu_obs::Metrics::new();
        m.counter_add("dist.tasks", self.tasks as u64);
        m.counter_add("dist.executed", self.exec.order.len() as u64);
        m.counter_add("dist.mailbox_drained_words", self.comm.drained_words);
        m.counter_add("dist.mailbox_residual_words", self.comm.residual_words);
        let total = self.comm.total();
        m.counter_add("dist.comm.words", total.words);
        m.counter_add("dist.comm.msgs", total.msgs);
        m.counter_add("dist.fetch_wait_ns", self.comm.wait_total_ns());
        for (term, nanos) in self.comm.wait_term_totals() {
            m.counter_add(&format!("dist.fetch_wait_ns.{term}"), nanos);
        }
        for (_rank, nanos) in self.comm.wait_rank_totals() {
            m.observe("dist.rank_fetch_wait_s", nanos as f64 / 1e9);
        }
        m.gauge_set("dist.workers", self.exec.workers as f64);
        m.gauge_set("dist.wall_s", self.exec.wall);
        m.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Set-up, drivers, assembly
// ---------------------------------------------------------------------------

/// One distributed run's state, set up the same way for both drivers: the
/// matrix scattered block-cyclically into per-rank local matrices, the DAG, the
/// pivot vector, and the measurement sinks.
pub(crate) struct DistRun<T: Scalar> {
    glayout: TileLayout,
    geom: DistGeom,
    alg: DistPanelAlg,
    local: LocalLu,
    pub(crate) dag: LuDag,
    locals: Vec<Matrix<T>>,
    /// One cell per entry of `locals` (same order: flat grid rank).
    pub(crate) cells: Vec<SharedMat<T>>,
    ipiv: Vec<usize>,
    ipiv_cell: SharedIpiv,
    /// Each rank's composed swap list per step ([`RunCtx::plans`]).
    plans: Vec<OnceLock<Arc<Plan>>>,
    /// Each rank's packed `L₂₁` per step ([`RunCtx::chunks`]).
    chunks: SharedChunks<T>,
    ledger: CommLedger,
    /// Task spans, on the driver's own clock (it starts when the driver
    /// does); [`Self::finish`] moves them onto the call's timeline.
    pub(crate) recorder: Recorder,
    /// The call's start: the origin of the report's timeline.
    started: Instant,
}

impl<T: Scalar> DistRun<T> {
    fn new(
        a: &Matrix<T>,
        (b, pr, pc): (usize, usize, usize),
        local: LocalLu,
        alg: DistPanelAlg,
        lookahead: usize,
    ) -> Self {
        let started = Instant::now();
        let (m, n) = (a.rows(), a.cols());
        assert!(b > 0 && pr > 0 && pc > 0, "block and grid must be positive");
        let glayout = TileLayout::new(m, n, b, b).with_grid(pr, pc);
        let mut locals: Vec<Matrix<T>> =
            (0..pr * pc).map(|rank| scatter_2d(glayout, a, rank % pr, rank / pr)).collect();
        let shape = LuShape { m, n, nb: b };
        let mut ipiv = vec![0usize; m.min(n)];
        let dag = LuDag::build_dist_with(shape, (pr, pc), lookahead, alg);
        Self {
            glayout,
            geom: DistGeom { shape, pr, pc },
            alg,
            local,
            chunks: SharedChunks::new(&dag),
            dag,
            cells: locals.iter_mut().map(|a| SharedMat::new(&mut a.view_mut())).collect(),
            locals,
            ipiv_cell: SharedIpiv::new(&mut ipiv),
            ipiv,
            plans: (0..pr * pc * shape.steps()).map(|_| OnceLock::new()).collect(),
            ledger: CommLedger::new(),
            recorder: Recorder::new(),
            started,
        }
    }

    /// What every rank shares when this run's payloads travel on `comm`.
    pub(crate) fn ctx<'a>(&'a self, comm: &'a dyn Communicator) -> RunCtx<'a, T> {
        RunCtx {
            geom: self.geom,
            glayout: self.glayout,
            alg: self.alg,
            local: self.local,
            lookahead: self.dag.lookahead(),
            comm,
            ledger: &self.ledger,
            ipiv: &self.ipiv_cell,
            plans: &self.plans,
            chunks: &self.chunks,
        }
    }

    /// The in-process driver: the DAG on `executor`, each task run whole
    /// over the ranks' cells.
    fn run_on_executor(
        &self,
        comm: &dyn Communicator,
        executor: ExecutorKind,
    ) -> (ExecReport, Option<usize>) {
        let (ctx, cells) = (self.ctx(comm), &self.cells[..]);
        let runner = |task: Task| run_whole(ctx, cells, task);
        match executor.execute_traced(&self.dag, &runner, Some(&self.recorder)) {
            Ok(rep) => (rep, None),
            Err(Error::SingularPivot { step }) => (ExecReport::default(), Some(step)),
            Err(e) => panic!("unexpected distributed task failure: {e:?}"),
        }
    }

    /// The rank-thread driver: one scoped OS thread per grid rank, each
    /// running its queue (module docs, *Per-rank schedules*) over its own
    /// cell with payloads on `comm`. Returns what the executor driver
    /// returns — the wall-clock record (collectives appear once per
    /// participant; empty when a singular pivot canceled the run) and the
    /// first singular step.
    ///
    /// # Panics
    /// Re-raises a rank thread's panic after every thread is joined.
    fn run_on_rank_threads(&self, comm: &dyn Communicator) -> (ExecReport, Option<usize>) {
        let (ctx, cells, recorder) = (self.ctx(comm), &self.cells[..], &self.recorder);
        let queues = rank_queues(&self.dag, &self.geom);
        let epoch = Instant::now();
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = queues
                .iter()
                .enumerate()
                .map(|(rank, queue)| {
                    s.spawn(move || {
                        run_queue(&RankTasks::new(ctx, cells, rank), queue, recorder, epoch)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // Peers of a panicking rank left with `Canceled`, not a panic, so
        // the first payload is the original one.
        let results: Vec<_> = joined
            .into_iter()
            .map(|res| res.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        let first_singular = results.iter().filter_map(|(_, f)| *f).min();
        if first_singular.is_some() {
            return (ExecReport::default(), first_singular);
        }
        let mut timings: Vec<TaskTiming> = results.into_iter().flat_map(|(t, _)| t).collect();
        timings.sort_by(|x, y| x.end.total_cmp(&y.end).then(x.start.total_cmp(&y.start)));
        let exec = ExecReport {
            order: timings.iter().map(|t| t.task).collect(),
            timings,
            workers: queues.len(),
            wall: epoch.elapsed().as_secs_f64(),
        };
        (exec, None)
    }

    /// Seconds into the call.
    fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The tail both drivers share: drain the communicator, model the
    /// schedule, assemble report and factors. `(begun, ended)` are the
    /// seconds into the call at which the driver started and returned.
    fn finish(
        self,
        comm: &dyn Communicator,
        (exec, first_singular): (ExecReport, Option<usize>),
        mch: &MachineConfig,
        (begun, ended): (f64, f64),
    ) -> (DistRtReport, DistFactors<T>) {
        // Success or cancellation, undelivered payloads end with the run:
        // on success the last lookahead window's payloads are still
        // resident, and after a cancellation payloads posted for tasks
        // that never ran have no remaining reader. (Every `Communicator`
        // lock site recovers from poisoning — the drain must not be
        // blocked by a panicked task.)
        let drained = comm.drain();
        let residual = comm.residual_words();
        self.ledger.set_drain(drained as u64, residual as u64);
        if first_singular.is_none() {
            assert_eq!(residual, 0, "{} mailbox leaked {residual} words", comm.name());
        }
        let Self {
            glayout,
            geom,
            alg,
            local,
            dag,
            locals,
            cells,
            ipiv,
            ipiv_cell,
            plans,
            chunks,
            ledger,
            recorder,
            started,
        } = self;
        chunks.release();
        let model = DistCostModel {
            geom,
            alg,
            recursive_panel: matches!(local, LocalLu::Recursive),
            mch: mch.clone(),
        };
        let sched = simulate_dist_schedule(&dag, |t| model.cost(t), mch);
        let mut expected_mailbox = expected_mailbox_comm(&dag, &geom, alg);
        if first_singular.is_none() {
            expected_mailbox.push(expected_swap_comm(&dag, &geom, alg, &ipiv));
        }
        let critical_path = dag.critical_path(|t| model.cost(t).total(mch));
        let modeled = started.elapsed().as_secs_f64();
        let lu = assemble_2d(glayout, &locals);
        // One timeline for the whole call: the task spans move from the
        // driver's clock onto the call's.
        let mut spans = recorder.take();
        for span in &mut spans {
            span.ts_us += begun * 1e6;
        }
        let mut report = DistRtReport {
            sim: SimReport { per_rank: sched.per_rank },
            modeled: sched.spans,
            exec,
            critical_path,
            makespan: sched.makespan,
            tasks: dag.len(),
            comm: ledger.report(),
            expected_mailbox,
            spans,
        };
        // The run's storage and DAG go before the closing stamp, so that
        // the phases cover the call up to its return.
        drop((dag, cells, locals, ipiv_cell, plans, model));
        let assembled = started.elapsed().as_secs_f64();
        // The phases go on a lane of their own, each starting where the
        // last one ended.
        let lane = (geom.pr * geom.pc) as u32;
        let mut start = 0.0;
        for (name, end) in DIST_PHASES.into_iter().zip([begun, ended, modeled, assembled]) {
            recorder.record_interval(name.to_string(), "dist_phase", lane, 0, start, end);
            start = end;
        }
        report.spans.extend(recorder.take());
        (report, DistFactors { lu, ipiv, first_singular })
    }
}

/// Sets the run up, drives it on the selected communicator, assembles it.
fn run_dist<T: Scalar>(
    a: &Matrix<T>,
    grid: (usize, usize, usize),
    local: LocalLu,
    alg: DistPanelAlg,
    rt: DistRtOpts,
    mch: &MachineConfig,
) -> (DistRtReport, DistFactors<T>) {
    let run = DistRun::new(a, grid, local, alg, rt.lookahead);
    let begun = run.elapsed();
    match rt.communicator {
        CommKind::InProcess => {
            let comm = InProcessComm::new();
            let out = run.run_on_executor(&comm, rt.executor);
            let ended = run.elapsed();
            run.finish(&comm, out, mch, (begun, ended))
        }
        CommKind::Threaded => {
            let comm = ThreadedComm::new(run.cells.len());
            let out = run.run_on_rank_threads(&comm);
            let ended = run.elapsed();
            // The blocked-fetch wait clocks ride next to the word counts
            // they explain, per (rank, term).
            for rank in 0..comm.ranks() {
                for (term, nanos) in comm.wait_ns(rank) {
                    run.ledger.record_wait(rank as u32, term, nanos);
                }
            }
            run.finish(&comm, out, mch, (begun, ended))
        }
    }
}

/// The exact `swap` term of a successful run, from the pivots it found
/// (which rows cross process rows depends on the data): per `Swap(k, j)`
/// one message for every ordered pair of process rows that step `k`'s
/// composed interchanges move rows between, a row of the swapped width
/// per moved row; per `PDGETF2` pivot owned by another process row than
/// its column's diagonal, one panel-wide row each way.
fn expected_swap_comm(dag: &LuDag, geom: &DistGeom, alg: DistPanelAlg, ipiv: &[usize]) -> CommTerm {
    let (nb, pr) = (geom.shape.nb, geom.pr);
    let owner = |g: usize| (g / nb) % pr;
    let (mut msgs, mut words) = (0, 0);
    // Per step: (messages, rows) of one swap, the same for every block
    // column.
    let mut per_step: Vec<Option<(u64, u64)>> = vec![None; geom.shape.steps()];
    for &t in dag.tasks() {
        let Task::Dist(DistTask { kind, k, j, .. }) = t else { continue };
        let (k, j) = (k as usize, j as usize);
        let (gk, jb) = (k * nb, geom.jb(k));
        match kind {
            DistKind::Swap => {
                let (m, rows) = *per_step[k].get_or_insert_with(|| {
                    let list: Vec<usize> = ipiv[gk..gk + jb].iter().map(|&p| p - gk).collect();
                    let (rows, holds) = compose(&list);
                    let mut crossing = vec![0; pr * pr];
                    for (to, &from) in holds.iter().enumerate() {
                        let (t, f) = (owner(gk + rows[to]), owner(gk + rows[from]));
                        if t != f {
                            crossing[f * pr + t] += 1;
                        }
                    }
                    (crossing.iter().filter(|&&n| n > 0).count() as u64, crossing.iter().sum())
                });
                msgs += m;
                words += rows * geom.swap_width(k, j, alg) as u64;
            }
            DistKind::PanelGetf2 => {
                let crossing = (gk..gk + jb).filter(|&gc| owner(ipiv[gc]) != owner(gc)).count();
                msgs += 2 * crossing as u64;
                words += (2 * crossing * jb) as u64;
            }
            _ => {}
        }
    }
    CommTerm { term: "swap", msgs, words, source: "mailbox_exact" }
}

/// Projects the DAG's deterministic serial schedule onto per-rank task
/// queues, a collective onto every participant at its one position.
fn rank_queues(dag: &LuDag, geom: &DistGeom) -> Vec<Vec<Task>> {
    let tasks = dag.tasks();
    let mut queues = vec![Vec::new(); geom.pr * geom.pc];
    for id in dag.serial_schedule() {
        let t = tasks[id];
        let Task::Dist(DistTask { kind, k, j, rank }) = t else {
            unreachable!("distributed DAGs contain only distributed tasks")
        };
        match collective_pcol(geom, kind, k as usize, j as usize) {
            Some(pcol) => (0..geom.pr).for_each(|prow| queues[geom.rank(prow, pcol)].push(t)),
            None => queues[rank as usize].push(t),
        }
    }
    queues
}

/// Cancels the grid when its rank thread unwinds from a panic, so peers
/// blocked in a fetch leave with [`Error::Canceled`] instead of waiting
/// for a payload that will never be posted.
struct CancelOnPanic<'a> {
    comm: &'a dyn Communicator,
    rank: usize,
}

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.comm.cancel(self.rank);
        }
    }
}

/// Drives rank `me`'s whole queue. Returns the per-task timings plus the
/// absolute elimination step if *this* rank hit the singular pivot
/// (collateral [`Error::Canceled`] exits return `None` — the root cause is
/// reported by the rank that found it).
fn run_queue<T: Scalar>(
    me: &RankTasks<'_, T>,
    queue: &[Task],
    recorder: &Recorder,
    epoch: Instant,
) -> (Vec<TaskTiming>, Option<usize>) {
    let _guard = CancelOnPanic { comm: me.ctx.comm, rank: me.rank };
    let mut timings = Vec::with_capacity(queue.len());
    for &task in queue {
        let Task::Dist(DistTask { kind, k, j, .. }) = task else {
            unreachable!("distributed runner received a shared-memory task")
        };
        let start = epoch.elapsed().as_secs_f64();
        match me.run(kind, k as usize, j as usize) {
            Ok(()) => {
                let end = epoch.elapsed().as_secs_f64();
                let id = me.rank as u32;
                recorder.record_interval(task.to_string(), task.cat(), id, id, start, end);
                // Each rank replays its projection serially, so a task is
                // "ready" the moment the rank reaches it: queue delay is
                // zero by construction and the real waiting is inside
                // tasks, accounted as blocked-fetch time.
                timings.push(TaskTiming { task, worker: me.rank, ready: start, start, end });
            }
            Err(Error::SingularPivot { step }) => {
                me.ctx.comm.cancel(me.rank);
                return (timings, Some(step));
            }
            Err(Error::Canceled) => return (timings, None),
            Err(e) => panic!("unexpected distributed task failure: {e:?}"),
        }
    }
    (timings, None)
}

/// Runtime-driven 2D block-cyclic CALU: the per-rank step work of
/// [`dist_calu_factor_spmd`](crate::dist::dist_calu_factor_spmd) emitted
/// as a [`LuDag::build_dist`] task graph and driven through either
/// executor at any lookahead depth. Factors and pivots are **bitwise
/// identical** to the SPMD reference on every schedule (property-tested);
/// the report carries the modeled per-rank communication schedule.
pub fn dist_calu_factor_rt<T: Scalar>(
    a: &Matrix<T>,
    cfg: DistCaluConfig,
    rt: DistRtOpts,
    mch: MachineConfig,
) -> (DistRtReport, DistFactors<T>) {
    run_dist(a, (cfg.b, cfg.pr, cfg.pc), cfg.local, DistPanelAlg::Tslu, rt, &mch)
}

/// Runtime-driven ScaLAPACK-style `PDGETRF`: the `PDGETF2` panel runs as
/// one serialized task per step (faithful to its column-coupled picket
/// fence), while swaps and the trailing update get the full per-column
/// task treatment — so even the baseline gains real lookahead. Factors
/// stay bitwise identical to the sequential blocked
/// [`calu_matrix::lapack::getrf`].
pub fn dist_pdgetrf_factor_rt<T: Scalar>(
    a: &Matrix<T>,
    cfg: DistPdgetrfConfig,
    rt: DistRtOpts,
    mch: MachineConfig,
) -> (DistRtReport, DistFactors<T>) {
    run_dist(a, (cfg.b, cfg.pr, cfg.pc), LocalLu::Classic, DistPanelAlg::Getf2, rt, &mch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::chunk_census;
    use crate::comm::{MailKey, MAIL_PAN};
    use crate::dist::dist_calu_factor_spmd;
    use calu_matrix::lapack::{getrf, GetrfOpts};
    use calu_matrix::{gen, NoObs, Result};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The executors a communicator's runs are swept over: both under the
    /// shared mailbox; one under rank threads, which *are* the parallelism
    /// there (`DistRtOpts::executor` is ignored).
    fn executors(comm: CommKind) -> &'static [ExecutorKind] {
        match comm {
            CommKind::InProcess => &[ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }],
            CommKind::Threaded => &[ExecutorKind::Serial],
        }
    }

    /// Both algorithms on `a` over a `pr × pc` grid must reproduce their
    /// references bitwise at every depth and executor — CALU its SPMD
    /// sweep, `PDGETRF` the sequential blocked `getrf` — and leave no
    /// payload behind.
    fn assert_matches_spmd(comm: CommKind, a: &Matrix, b: usize, (pr, pc): (usize, usize)) {
        let ideal = MachineConfig::ideal;
        let tag = format!("{comm:?} {}x{} b={b} {pr}x{pc}", a.rows(), a.cols());
        let calu = DistCaluConfig { b, pr, pc, local: LocalLu::Recursive };
        let pdgetrf = DistPdgetrfConfig { b, pr, pc };
        let (_r, want_calu) = dist_calu_factor_spmd(a, calu, ideal());
        let mut want_pd = DistFactors {
            lu: a.clone(),
            ipiv: vec![0; a.rows().min(a.cols())],
            first_singular: None,
        };
        getrf(
            want_pd.lu.view_mut(),
            &mut want_pd.ipiv,
            GetrfOpts { block: b, ..Default::default() },
            &mut NoObs,
        )
        .unwrap();
        for depth in 1..=3 {
            for &executor in executors(comm) {
                let rt = DistRtOpts { lookahead: depth, executor, communicator: comm };
                let runs = [
                    ("calu", &want_calu, dist_calu_factor_rt(a, calu, rt, ideal())),
                    ("pdgetrf", &want_pd, dist_pdgetrf_factor_rt(a, pdgetrf, rt, ideal())),
                ];
                for (alg, want, (rep, got)) in runs {
                    let tag = format!("{alg} {tag} d={depth} {executor:?}");
                    assert_eq!(want.ipiv, got.ipiv, "{tag}");
                    assert_eq!(
                        want.lu.max_abs_diff(&got.lu),
                        0.0,
                        "{tag}: factors must be bitwise identical to the reference"
                    );
                    assert_eq!(got.first_singular, None, "{tag}");
                    assert_eq!(rep.comm.residual_words, 0, "{tag}");
                }
            }
        }
    }

    fn matches_spmd_bitwise_on_grids_and_depths(comm: CommKind) {
        let mut rng = StdRng::seed_from_u64(7001);
        for &(m, n, b) in &[(48usize, 48usize, 8usize), (52, 36, 8), (36, 52, 8), (44, 44, 8)] {
            let a: Matrix = gen::randn(&mut rng, m, n);
            for grid in [(1usize, 1usize), (2, 2), (2, 3), (3, 2), (2, 4)] {
                assert_matches_spmd(comm, &a, b, grid);
            }
        }
        // An empty process row: 3 block rows on 4 process rows, so row 3
        // owns nothing from the start and rows drop out as steps advance.
        let a: Matrix = gen::randn(&mut rng, 24, 24);
        assert_matches_spmd(comm, &a, 8, (4, 1));
    }

    /// The DAG on an executor reproduces both references bitwise.
    #[test]
    fn dag_matches_spmd_bitwise_on_grids_and_depths() {
        matches_spmd_bitwise_on_grids_and_depths(CommKind::InProcess);
    }

    /// With ranks as real OS threads exchanging point-to-point messages —
    /// no shared matrix state at all — both algorithms still produce
    /// bitwise-identical factors to their references.
    #[test]
    fn threaded_communicator_matches_spmd_bitwise() {
        matches_spmd_bitwise_on_grids_and_depths(CommKind::Threaded);
    }

    #[test]
    fn report_carries_modeled_schedule_and_traces() {
        let mut rng = StdRng::seed_from_u64(7003);
        let a: Matrix = gen::randn(&mut rng, 64, 64);
        let cfg = DistCaluConfig { b: 16, pr: 2, pc: 2, local: LocalLu::Classic };
        let (rep, _f) =
            dist_calu_factor_rt(&a, cfg, DistRtOpts::default(), MachineConfig::power5());
        assert_eq!(rep.sim.per_rank.len(), 4);
        assert!(rep.makespan > 0.0 && rep.critical_path > 0.0);
        assert!(rep.makespan + 1e-15 >= rep.critical_path * 0.999);
        assert!(rep.sim.total_msgs() > 0, "2x2 grid must move modeled messages");
        assert!(rep.sim.total_flops() > 0.0);
        assert_eq!(rep.exec.order.len(), rep.tasks);
        // The last lookahead window's payloads are still resident at the
        // end of a successful run; the driver drains them all.
        assert!(rep.comm.drained_words > 0);
        assert_eq!(rep.comm.residual_words, 0);
        // One wall-clock span per executed task, pids spanning the grid,
        // and the call's four phases on the lane after the last rank.
        assert_eq!(rep.spans.len(), rep.tasks + DIST_PHASES.len());
        assert!(rep.spans.iter().any(|s| s.pid == 3));
        calu_obs::parse_chrome_trace(&calu_obs::chrome_trace(&rep.spans))
            .expect("executor spans must export as valid chrome trace");
        let gantt = calu_obs::render_gantt(&rep.modeled, 60);
        assert!(gantt.contains("r0") && gantt.contains("r3"));
        assert!(rep.modeled.iter().all(|s| s.pid < 4 && s.tid == 0));
    }

    fn assert_mailbox_exact(rep: &DistRtReport, tag: &str) {
        let deltas = rep.mailbox_deltas();
        assert!(deltas.iter().any(|d| d.source == "mailbox_exact"), "{tag}");
        // Rows cross process rows on every grid here, and the pivots
        // predict those messages too.
        let swap = deltas.iter().find(|d| d.term == "swap").expect("a swap term");
        assert!(swap.source == "mailbox_exact" && swap.expected.msgs > 0, "{tag}");
        for d in deltas.iter().filter(|d| d.source == "mailbox_exact") {
            assert!(
                d.exact(),
                "{tag} term {}: measured {:?} vs expected {:?}",
                d.term,
                d.measured,
                d.expected
            );
        }
    }

    /// The reconciliation property: on every grid × depth × algorithm ×
    /// executor, the measured ledger equals the exact per-term prediction
    /// — message counts and word counts both, the `swap` term's one
    /// message per partner process row included (`calu-runtime`'s
    /// `exact_mailbox_prediction_matches_the_skeleton_when_panels_stay_full`
    /// holds the exact prediction against the skeleton on the same sweep).
    /// `PDGETF2`'s picket fence is messages under both communicators, and
    /// its `panel_getf2` term reconciles too.
    fn measured_comm_equals_exact_prediction(comm: CommKind) {
        let mut rng = StdRng::seed_from_u64(7004);
        let a: Matrix = gen::randn(&mut rng, 48, 48);
        let mut cases: Vec<(usize, (usize, usize))> =
            [(2, 2), (2, 4), (3, 2)].into_iter().map(|grid| (48, grid)).collect();
        cases.push((24, (4, 1))); // an empty process row
        for (n, (pr, pc)) in cases {
            let a = a.view().submatrix(0, 0, n, n).to_matrix();
            for depth in 1..=3 {
                for &executor in executors(comm) {
                    let rt = DistRtOpts { lookahead: depth, executor, communicator: comm };
                    let tag = format!("{comm:?} n={n} {pr}x{pc} d={depth} {executor:?}");
                    let cfg = DistCaluConfig { b: 8, pr, pc, local: LocalLu::Classic };
                    let (rep, f) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
                    assert_eq!(f.first_singular, None);
                    assert_mailbox_exact(&rep, &format!("calu {tag}"));
                    assert_eq!(rep.comm.residual_words, 0, "{tag}");

                    let cfg = DistPdgetrfConfig { b: 8, pr, pc };
                    let (rep, f) = dist_pdgetrf_factor_rt(&a, cfg, rt, MachineConfig::ideal());
                    assert_eq!(f.first_singular, None);
                    assert_mailbox_exact(&rep, &format!("pdgetrf {tag}"));
                    assert_eq!(rep.comm.residual_words, 0, "{tag}");
                    assert!(
                        rep.mailbox_deltas()
                            .iter()
                            .any(|d| d.term == "panel_getf2" && d.source == "mailbox_exact"),
                        "{tag}: PDGETF2's picket fence is messages on every communicator"
                    );
                }
            }
        }
    }

    #[test]
    fn measured_comm_equals_exact_prediction_on_grids_and_depths() {
        measured_comm_equals_exact_prediction(CommKind::InProcess);
    }

    #[test]
    fn threaded_measured_comm_equals_exact_prediction() {
        measured_comm_equals_exact_prediction(CommKind::Threaded);
    }

    /// The threaded report is coherent: spans and wall-clock timings come
    /// from every rank thread (collectives appear once per participant,
    /// so there are at least as many executions as DAG tasks), the spans
    /// export as a valid per-rank chrome trace, and the drain leaves no
    /// residual words.
    #[test]
    fn threaded_report_is_coherent() {
        let mut rng = StdRng::seed_from_u64(7007);
        let a: Matrix = gen::randn(&mut rng, 64, 64);
        let cfg = DistCaluConfig { b: 16, pr: 2, pc: 2, local: LocalLu::Classic };
        let rt = DistRtOpts { communicator: CommKind::Threaded, ..Default::default() };
        let (rep, _f) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::power5());
        assert_eq!(rep.exec.workers, 4);
        assert!(rep.exec.order.len() >= rep.tasks);
        assert_eq!(rep.spans.len(), rep.exec.order.len() + DIST_PHASES.len());
        for pid in 0..4 {
            assert!(
                rep.spans.iter().any(|s| s.pid == pid && s.tid == pid),
                "rank {pid} must contribute wall-clock spans"
            );
        }
        assert!(rep.comm.drained_words > 0);
        assert_eq!(rep.comm.residual_words, 0);
        calu_obs::parse_chrome_trace(&calu_obs::chrome_trace(&rep.spans))
            .expect("threaded spans must export as valid chrome trace");

        // The standard metrics snapshot carries the drain counters and
        // the fetch-wait totals, not just the raw report fields.
        let snap = rep.metrics_snapshot();
        let counters = snap.get("counters").expect("snapshot has counters");
        assert_eq!(
            counters.get("dist.mailbox_drained_words").and_then(calu_obs::JsonValue::as_u64),
            Some(rep.comm.drained_words)
        );
        assert_eq!(
            counters.get("dist.mailbox_residual_words").and_then(calu_obs::JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            counters.get("dist.comm.words").and_then(calu_obs::JsonValue::as_u64),
            Some(rep.comm.total().words)
        );
        assert_eq!(
            counters.get("dist.fetch_wait_ns").and_then(calu_obs::JsonValue::as_u64),
            Some(rep.comm.wait_total_ns())
        );
        // Rank threads really blocked somewhere in this 2x2 run, and the
        // wait rows attribute that blocking per (rank, term).
        assert!(!rep.comm.waits.is_empty(), "threaded fetches must record wait rows");
        assert!(rep.comm.wait_total_ns() > 0);
    }

    /// What `evict_completed_steps` rests on, checked on the DAG itself:
    /// every task of every step `≤ k − d − 1` is an ancestor of every
    /// `Swap(k, ·)`, on shapes where some process rows own no rows of the
    /// late panels (there a panel task follows step `k − d − 1` only, and
    /// tasks nothing consumes — another row's `PivRecv`, the far side of a
    /// butterfly leg — can run arbitrarily late).
    #[test]
    fn swaps_follow_every_task_of_the_steps_they_evict() {
        for (m, n, grid) in [(27, 25, (2, 4)), (24, 24, (4, 1)), (48, 48, (3, 2)), (36, 52, (2, 2))]
        {
            for alg in [DistPanelAlg::Tslu, DistPanelAlg::Getf2] {
                for depth in 1..=3 {
                    let dag = LuDag::build_dist_with(LuShape { m, n, nb: 8 }, grid, depth, alg);
                    let tasks = dag.tasks();
                    let mut preds = vec![Vec::new(); tasks.len()];
                    for id in 0..tasks.len() {
                        for &succ in dag.successors(id) {
                            preds[succ].push(id);
                        }
                    }
                    for (id, t) in tasks.iter().enumerate() {
                        let Task::Dist(DistTask { kind: DistKind::Swap, k, .. }) = *t else {
                            continue;
                        };
                        let Some(cutoff) = (k as usize).checked_sub(depth + 1) else { continue };
                        let mut ancestor = vec![false; tasks.len()];
                        let mut stack = vec![id];
                        while let Some(x) = stack.pop() {
                            for &p in &preds[x] {
                                if !std::mem::replace(&mut ancestor[p], true) {
                                    stack.push(p);
                                }
                            }
                        }
                        for (other, o) in tasks.iter().enumerate() {
                            assert!(
                                o.step() > cutoff || ancestor[other],
                                "{m}x{n} {grid:?} {alg:?} d={depth}: {o} can still run after {t}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`ThreadedComm`] with one fault injected: rank `rank`'s fetch of
    /// `key` panics.
    struct PanicOnFetch {
        inner: ThreadedComm,
        rank: usize,
        key: MailKey,
    }

    impl Communicator for PanicOnFetch {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn post(&self, from: usize, key: MailKey, data: Vec<f64>, dests: &[usize]) {
            self.inner.post(from, key, data, dests);
        }
        fn fetch(&self, at: usize, key: MailKey) -> Result<Arc<Vec<f64>>> {
            assert!(at != self.rank || key != self.key, "injected: rank {at} dies in {key:?}");
            self.inner.fetch(at, key)
        }
        fn evict_before(&self, at: usize, cutoff: u32) {
            self.inner.evict_before(at, cutoff);
        }
        fn cancel(&self, from: usize) {
            self.inner.cancel(from);
        }
        fn drain(&self) -> usize {
            self.inner.drain()
        }
        fn residual_words(&self) -> usize {
            self.inner.residual_words()
        }
    }

    /// A panicking rank thread must cancel the grid: its peers leave their
    /// blocked fetches within a poll interval (not the 60 s stuck-fetch
    /// timeout, once per rank) and the driver re-raises the original
    /// panic, not a peer's "never delivered". A fresh run afterwards is
    /// unaffected.
    #[test]
    fn panicking_rank_cancels_the_grid_and_reraises_its_panic() {
        let mut rng = StdRng::seed_from_u64(7008);
        let a: Matrix = gen::randn(&mut rng, 32, 32);
        let cfg = DistCaluConfig { b: 8, pr: 2, pc: 2, local: LocalLu::Classic };
        let run = DistRun::new(&a, (cfg.b, cfg.pr, cfg.pc), cfg.local, DistPanelAlg::Tslu, 1);
        // Rank 3 dies receiving step 1's packed panel, mid-run, while its
        // three peers still have most of their queues ahead of them.
        let comm = PanicOnFetch { inner: ThreadedComm::new(4), rank: 3, key: (MAIL_PAN, 1, 0, 1) };
        let started = std::time::Instant::now();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.run_on_rank_threads(&comm)
        }))
        .expect_err("the rank's panic must reach the caller");
        let took = started.elapsed();
        assert!(took.as_secs() < 5, "peers must leave on cancel, not on the timeout ({took:?})");
        let msg = panic.downcast_ref::<String>().expect("assert! panics with a String");
        assert!(msg.starts_with("injected: rank 3 dies"), "not the original panic: {msg}");

        let rt = DistRtOpts { communicator: CommKind::Threaded, ..Default::default() };
        let (rep, got) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
        let (_r, want) = dist_calu_factor_spmd(&a, cfg, MachineConfig::ideal());
        assert_eq!(want.ipiv, got.ipiv);
        assert_eq!(want.lu.max_abs_diff(&got.lu), 0.0, "a healthy run after the panic");
        assert_eq!(rep.comm.residual_words, 0);
    }

    /// The oracle's factors of `a` as bits, and its first singular step:
    /// the SPMD sweep for CALU, the sequential blocked `getrf` for
    /// `PDGETRF`.
    fn oracle<T: Scalar>(a: &Matrix<T>, b: usize, grid: (usize, usize), alg: DistPanelAlg) -> Bits {
        if alg == DistPanelAlg::Tslu {
            let cfg = DistCaluConfig { b, pr: grid.0, pc: grid.1, local: LocalLu::Recursive };
            return bits(&dist_calu_factor_spmd(a, cfg, MachineConfig::ideal()).1);
        }
        let (mut lu, mut ipiv) = (a.clone(), vec![0; a.rows().min(a.cols())]);
        let opts = GetrfOpts { block: b, ..Default::default() };
        let first_singular = match getrf(lu.view_mut(), &mut ipiv, opts, &mut NoObs) {
            Ok(()) => None,
            Err(Error::SingularPivot { step }) => Some(step),
            Err(e) => panic!("getrf: {e:?}"),
        };
        bits(&DistFactors { lu, ipiv, first_singular })
    }

    /// Factor bits, pivots and first singular step.
    type Bits = (Vec<u64>, Vec<usize>, Option<usize>);

    fn bits<T: Scalar>(f: &DistFactors<T>) -> Bits {
        let lu = f.lu.as_slice().iter().map(|x| x.to_f64().to_bits()).collect();
        (lu, f.ipiv.clone(), f.first_singular)
    }

    /// A rank packs its `L₂₁` payload once per step for its `Gemm(k, ·,
    /// rank)` tasks: exactly one copy per `(k, rank)` with two or more of
    /// them, none held after a full run (the last `Gemm` of each released
    /// it), none live after the call — also when a zero column in block
    /// column 3 cancels the run while copies are held — and no more than
    /// `(depth + 1) × ranks` live at once, while the factors, pivots and
    /// singular step are the oracle's: both algorithms, both communicators,
    /// every depth, at `f64` and `f32`.
    fn check_dist_chunk_census<T: Scalar>(a0: &Matrix<T>, b: usize, (pr, pc): (usize, usize)) {
        let (m, n) = (a0.rows(), a0.cols());
        let mut singular = a0.clone();
        singular.view_mut().submatrix_mut(0, 3 * b, m, 1).fill(T::ZERO);
        for alg in [DistPanelAlg::Tslu, DistPanelAlg::Getf2] {
            let local =
                if alg == DistPanelAlg::Tslu { LocalLu::Recursive } else { LocalLu::Classic };
            for a in [a0, &singular] {
                let want = oracle(a, b, (pr, pc), alg);
                for depth in 1..=3 {
                    let dag = LuDag::build_dist_with(LuShape { m, n, nb: b }, (pr, pc), depth, alg);
                    let mut gemms = std::collections::HashMap::new();
                    for &t in dag.tasks() {
                        if let Task::Dist(DistTask { kind: DistKind::Gemm, k, rank, .. }) = t {
                            *gemms.entry((k, rank)).or_insert(0) += 1;
                        }
                    }
                    let shared = gemms.values().filter(|&&n| n >= 2).count();
                    assert!(shared > 0, "the shape shares no packed copy");
                    let bound = (depth + 1) * pr * pc;
                    for communicator in [CommKind::InProcess, CommKind::Threaded] {
                        for &executor in executors(communicator) {
                            let rt = DistRtOpts { lookahead: depth, executor, communicator };
                            let what = format!("{alg:?} {m}x{n} b={b} {pr}x{pc} d={depth} {rt:?}");
                            let mch = MachineConfig::ideal();
                            let (got, census) =
                                chunk_census(|| run_dist(a, (b, pr, pc), local, alg, rt, &mch).1);
                            let got = bits(&got);
                            assert_eq!(got.2, want.2, "{what}: first singular step");
                            assert!(census.high <= bound, "{what}: {census:?} > {bound} at once");
                            assert_eq!(census.left, 0, "{what}: copies live after the call");
                            if got.2.is_none() {
                                assert!(got == want, "{what}: factors and pivots");
                                assert_eq!(census.packed, shared, "{what}: one pack per key");
                                assert_eq!(census.held, 0, "{what}: copies held after a full run");
                            } else {
                                assert!(census.packed <= shared, "{what}: {census:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dist_packed_chunks_are_bounded_and_released() {
        let mut rng = StdRng::seed_from_u64(7009);
        let a: Matrix = gen::randn(&mut rng, 96, 96);
        check_dist_chunk_census(&a, 8, (2, 2));
        let a: Matrix<f32> = gen::randn(&mut rng, 100, 72);
        check_dist_chunk_census(&a, 8, (2, 3));
    }
}
