//! Executors: how a [`LuDag`] actually runs.
//!
//! Two implementations behind one [`Executor`] trait:
//!
//! * `SerialExecutor` — replays tasks one at a time in the fixed
//!   critical-path-priority topological order of
//!   [`LuDag::serial_schedule`]. Run-to-run deterministic (same DAG ⇒ same
//!   task sequence), which the property tests assert; the baseline every
//!   speedup is measured against.
//! * [`ThreadedExecutor`] — the calling thread plus long-lived helper
//!   threads pulling from one shared critical-path-ordered ready pool. As
//!   soon as a leaf of panel `k+1`'s column slice is updated, its election
//!   outranks every bulk `gemm` in the pool, so panels hide behind
//!   trailing updates at any lookahead depth.
//!   (A single shared pool rather than per-worker deques: at panel/tile
//!   granularity the pool lock is touched a few thousand times per
//!   factorization, far below contention levels that would repay deques.)
//!
//! # Threads of the threaded executor
//!
//! Nothing is spawned per call. Helper threads live in one process-wide
//! registry, grown to the largest `threads − 1` ever requested, and park
//! there between jobs. `execute` posts its claim loop to the registry and
//! then runs that same loop as worker 0, so a job never waits for a helper
//! to show up: concurrent `execute` calls and an `execute` issued from
//! inside a task body share the helpers, and one that gets none is simply
//! run by its caller. A helper that finds nothing ready leaves the job
//! (the caller therefore never waits on a sleeping thread when the job
//! ends); only the caller parks inside a job, when every remaining task is
//! running elsewhere or blocked behind one that is.
//!
//! Wake-ups follow the ready set: a claim wakes one thread — the parked
//! caller, else a parked helper if the job has a free seat — only when it
//! leaves ready tasks behind; the last completion, an error or a panic
//! wakes the parked caller. A chain-shaped DAG (the solve DAG of a cache
//! hit) is finished by its caller before any helper is awake, with no size
//! threshold involved. Timings and the first error are pushed into the job
//! under the pool lock a completion takes anyway; spans reach the
//! [`Recorder`] after the run, in completion order.
//!
//! The borrowed claim loop reaches the helpers through the module's one
//! `unsafe` (a lifetime-erasing transmute in `run_job`), upheld by the
//! `Posted` guard: on return and on unwind it closes the job to joiners
//! and blocks until no helper is inside.
//!
//! Both record per-task wall-clock timings; [`ExecReport::record_into`]
//! replays them as `calu_obs` spans (pid = rank, tid = worker), the span
//! type simulated and modeled runs use too, so `calu_obs::render_gantt` and
//! `calu_obs::chrome_trace` draw real executions exactly like simulated
//! ones.
//!
//! # Failure semantics
//!
//! The only fallible task kind is `PanelFinish` (an exactly singular
//! pivot). Because panels are chained through the DAG, the first panel
//! error is the same error the sequential sweep would hit; on error the
//! executors cancel every not-yet-started task and surface the error (the
//! runner is responsible for reporting the **absolute** elimination step).
//! A panicking task body cancels the job the same way; the worker that
//! caught it hands the payload to the caller, which re-raises it exactly
//! once, and a helper goes back to the registry alive.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use calu_matrix::{Error, Result};
use calu_obs::Recorder;

use crate::dag::{LuDag, Prio, Task, TaskId};

/// Runs the body of one task. Implemented by the algorithm layer
/// (`calu-core`'s LU runner); the runtime itself never touches matrix data.
///
/// `run` is called once per task, from whichever worker thread claims it;
/// the DAG's edges guarantee that concurrently running tasks touch
/// disjoint data.
pub trait TaskRunner: Sync {
    /// Executes `task`. An `Err` cancels all tasks that have not started.
    fn run(&self, task: Task) -> Result<()>;
}

impl<F: Fn(Task) -> Result<()> + Sync> TaskRunner for F {
    fn run(&self, task: Task) -> Result<()> {
        self(task)
    }
}

/// Wall-clock record of one executed task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTiming {
    /// The task that ran.
    pub task: Task,
    /// Worker index that ran it (0 for the serial executor).
    pub worker: usize,
    /// Seconds from run start to the instant the task became *ready*
    /// (its last dependency completed; 0 for tasks ready at submission).
    pub ready: f64,
    /// Seconds from run start to task start.
    pub start: f64,
    /// Seconds from run start to task end.
    pub end: f64,
}

impl TaskTiming {
    /// Scheduler queue delay: seconds between this task becoming ready and
    /// a worker starting it. The per-task ingredient of the profile's
    /// *overhead* partition (see `calu_obs::analyze`).
    pub fn queue_delay(&self) -> f64 {
        (self.start - self.ready).max(0.0)
    }
}

/// What an executor did: completion order, per-task timings, makespan.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Tasks in completion order (for the serial executor this is the
    /// deterministic execution order).
    pub order: Vec<Task>,
    /// Per-task wall-clock records.
    pub timings: Vec<TaskTiming>,
    /// Number of workers used.
    pub workers: usize,
    /// Total wall-clock seconds for the whole run.
    pub wall: f64,
}

impl ExecReport {
    /// Seconds spent computing, summed over workers.
    pub fn busy(&self) -> f64 {
        self.timings.iter().map(|t| t.end - t.start).sum()
    }

    /// Total scheduler queue delay (ready-to-start gap) in seconds,
    /// summed over all tasks.
    pub fn queue_delay(&self) -> f64 {
        self.timings.iter().map(TaskTiming::queue_delay).sum()
    }

    /// Per-lane queue-delay nanoseconds, keyed the way this report's
    /// spans are attributed — `(pid, tid)` = (`Task::trace_rank`,
    /// worker index) — ready to feed `calu_obs::analyze` as the
    /// overhead side channel. Lanes are sorted; zero-delay lanes are
    /// still listed so every span lane has a row.
    pub fn queue_delay_ns_by_lane(&self) -> Vec<((u32, u32), u64)> {
        let mut lanes: std::collections::BTreeMap<(u32, u32), u64> =
            std::collections::BTreeMap::new();
        for t in &self.timings {
            *lanes.entry((t.task.trace_rank(), t.worker as u32)).or_default() +=
                (t.queue_delay() * 1e9).round().max(0.0) as u64;
        }
        lanes.into_iter().collect()
    }

    /// Replays this report's timings into a trace [`Recorder`], shifting
    /// every interval by `offset_s` seconds. The offset lets a caller that
    /// runs several executions in sequence (e.g. the serve layer's
    /// factor-then-solve pipeline) place each report on one shared
    /// timeline instead of overlapping them all at zero.
    ///
    /// Span attribution matches the executors' live tracing: `pid` is the
    /// task's owning rank (`Task::trace_rank`), `tid` the worker index,
    /// `cat` the task-kind slug ([`Task::cat`]).
    pub fn record_into(&self, recorder: &Recorder, offset_s: f64) {
        for t in &self.timings {
            recorder.record_interval(
                t.task.to_string(),
                t.task.cat(),
                t.task.trace_rank(),
                t.worker as u32,
                offset_s + t.start,
                offset_s + t.end,
            );
        }
    }
}

/// Records one finished task into a recorder (shared by both executors).
fn record_timing(recorder: &Recorder, t: &TaskTiming) {
    recorder.record_interval(
        t.task.to_string(),
        t.task.cat(),
        t.task.trace_rank(),
        t.worker as u32,
        t.start,
        t.end,
    );
}

/// Strategy for driving a [`LuDag`] to completion.
pub trait Executor {
    /// Runs every task of `dag` through `runner`, respecting the edges.
    ///
    /// # Errors
    /// The first task failure (see the module docs on cancellation).
    fn execute<R: TaskRunner>(&self, dag: &LuDag, runner: &R) -> Result<ExecReport> {
        self.execute_traced(dag, runner, None)
    }

    /// [`Executor::execute`] that additionally records one [`Span`] per
    /// completed task into `recorder` (`pid` = owning rank, `tid` =
    /// worker). Recording happens off the worker hot path — in the serial
    /// replay loop, or after the threaded run — so tracing costs one lock
    /// and one push per task.
    ///
    /// # Errors
    /// The first task failure (see the module docs on cancellation).
    ///
    /// [`Span`]: calu_obs::Span
    fn execute_traced<R: TaskRunner>(
        &self,
        dag: &LuDag,
        runner: &R,
        recorder: Option<&Recorder>,
    ) -> Result<ExecReport>;
}

/// Deterministic one-worker executor: replays [`LuDag::serial_schedule`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SerialExecutor;

impl Executor for SerialExecutor {
    fn execute_traced<R: TaskRunner>(
        &self,
        dag: &LuDag,
        runner: &R,
        recorder: Option<&Recorder>,
    ) -> Result<ExecReport> {
        let t0 = Instant::now();
        let mut report = ExecReport { workers: 1, ..Default::default() };
        // Replay dependency counts alongside the schedule so each task
        // carries the instant it became ready (its last dependency's end;
        // 0 for tasks with no dependencies) — the schedule order
        // guarantees dependencies complete before their successors run.
        let mut deps = dag.dep_counts().to_vec();
        let mut ready_at = vec![0.0_f64; dag.len()];
        for id in dag.serial_schedule() {
            let task = dag.tasks()[id];
            let start = t0.elapsed().as_secs_f64();
            runner.run(task)?;
            let end = t0.elapsed().as_secs_f64();
            let timing = TaskTiming { task, worker: 0, ready: ready_at[id], start, end };
            for &succ in dag.successors(id) {
                deps[succ] -= 1;
                if deps[succ] == 0 {
                    ready_at[succ] = end;
                }
            }
            if let Some(rec) = recorder {
                record_timing(rec, &timing);
            }
            report.order.push(task);
            report.timings.push(timing);
        }
        report.wall = t0.elapsed().as_secs_f64();
        Ok(report)
    }
}

/// The host's available parallelism, resolved once per process
/// (`std::thread::available_parallelism` is a `sched_getaffinity` plus
/// cgroup file reads on Linux, ≈ 14 µs — more than a whole cache-hit solve
/// DAG costs to run).
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |v| v.get()))
}

/// Locks `m`, ignoring poison: every update below leaves the guarded state
/// valid at each unlock and cancellation is flag-based, so the poison bit
/// carries no information — and an `expect` here would fan one panic out
/// into one per worker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One `execute` call's scheduler state, behind its pool lock.
struct Pool {
    ready: BinaryHeap<Reverse<(Prio, TaskId)>>,
    deps: Vec<usize>,
    /// Seconds from run start at which each task became ready (stamped
    /// when its dependency count reaches zero; 0 for initially-ready
    /// tasks). Read by the claiming worker for queue-delay accounting.
    ready_at: Vec<f64>,
    /// Tasks not yet claimed by a worker.
    unclaimed: usize,
    canceled: bool,
    /// The caller found nothing ready and waits on the job's bell.
    caller_parked: bool,
    /// Finished tasks, in completion order.
    timings: Vec<TaskTiming>,
    /// The earliest-step task error (panels are chained, so in practice
    /// at most one task can fail first).
    failure: Option<(usize, Error)>,
    /// Payload of the first panicking task body; the caller re-raises it.
    panic: Option<Box<dyn Any + Send>>,
}

/// A job the registry's helpers may join: the claim loop of one `execute`.
struct Posting {
    id: u64,
    run: &'static (dyn Fn(usize) + Sync),
    /// Worker indices (`1..workers`) no helper holds right now.
    seats: Vec<usize>,
    workers: usize,
    /// A claim left ready tasks behind and no helper has answered yet
    /// (implies a free seat; never set once `closing`).
    wanted: bool,
    /// The caller is done and waits for the last helper to leave.
    closing: bool,
}

struct Registry {
    jobs: Vec<Posting>,
    /// Helper threads spawned so far: the largest `workers − 1` requested.
    helpers: usize,
    /// Helpers parked on [`WORK`].
    parked: usize,
}

/// The process-wide helper threads' shared state. Helpers are spawned on
/// demand, never per call, and detached: they park on [`WORK`] between
/// jobs for the life of the process.
static REGISTRY: Mutex<Registry> = Mutex::new(Registry { jobs: Vec::new(), helpers: 0, parked: 0 });
/// Helpers with no job to join park here.
static WORK: Condvar = Condvar::new();
/// Callers closing a job wait here until its helpers have left.
static LEFT: Condvar = Condvar::new();
static NEXT_JOB: AtomicU64 = AtomicU64::new(0);

impl Registry {
    fn job(&mut self, id: u64) -> &mut Posting {
        self.jobs
            .iter_mut()
            .find(|j| j.id == id)
            .expect("a job stays posted while a worker is in it")
    }
}

/// A helper thread: joins whichever posted job wants one, runs its claim
/// loop until nothing is ready, gives the seat back.
fn helper() {
    let mut reg = lock(&REGISTRY);
    loop {
        let Some(job) = reg.jobs.iter_mut().find(|j| j.wanted) else {
            reg.parked += 1;
            reg = WORK.wait(reg).unwrap_or_else(PoisonError::into_inner);
            reg.parked -= 1;
            continue;
        };
        job.wanted = false;
        let seat = job.seats.pop().expect("a wanted job has a free seat");
        let (id, run) = (job.id, job.run);
        drop(reg);
        run(seat); // never unwinds: the claim loop catches task-body panics
        reg = lock(&REGISTRY);
        let job = reg.job(id);
        job.seats.push(seat);
        if job.closing && job.seats.len() + 1 == job.workers {
            LEFT.notify_all();
        }
    }
}

/// Asks for one more helper on job `id`; wakes one only if one is parked.
fn offer(id: u64) {
    let mut reg = lock(&REGISTRY);
    let parked = reg.parked;
    let job = reg.job(id);
    if !job.wanted && !job.closing && !job.seats.is_empty() {
        job.wanted = true;
        if parked > 0 {
            WORK.notify_one();
        }
    }
}

/// Closes a posted job on drop — on return *and* on unwind: no helper may
/// join any more, and the drop blocks until none is left inside.
struct Posted(u64);

impl Drop for Posted {
    fn drop(&mut self) {
        let mut reg = lock(&REGISTRY);
        let job = reg.job(self.0);
        (job.wanted, job.closing) = (false, true);
        let helpers = job.workers - 1;
        while reg.job(self.0).seats.len() < helpers {
            reg = LEFT.wait(reg).unwrap_or_else(PoisonError::into_inner);
        }
        reg.jobs.retain(|j| j.id != self.0);
    }
}

/// Runs `work(0)` on the calling thread while up to `workers − 1` helpers
/// run `work(1..workers)`; returns once no thread is inside `work`.
fn run_job<'a>(id: u64, workers: usize, work: &'a (dyn Fn(usize) + Sync + 'a)) {
    // SAFETY: the `'static` reference lives only in this job's `Posting`,
    // and `Posted`'s drop — which runs before this function returns or
    // unwinds, hence while `'a` is live — removes that posting after
    // blocking until every helper that copied `run` out of it has come
    // back from its call. Nothing else hands `run` out.
    let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work) };
    let mut reg = lock(&REGISTRY);
    while reg.helpers + 1 < workers
        && std::thread::Builder::new().name("calu-helper".into()).spawn(helper).is_ok()
    {
        reg.helpers += 1;
    }
    let seats = (1..workers).collect();
    reg.jobs.push(Posting { id, run, seats, workers, wanted: false, closing: false });
    drop(reg);
    let _posted = Posted(id);
    work(0);
}

/// Threaded executor: the calling thread plus up to `threads − 1`
/// long-lived helper threads (0 ⇒ the host's available parallelism) pull
/// the highest-priority ready task from a shared pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedExecutor {
    /// Worker count; 0 uses [`host_parallelism`].
    pub(crate) threads: usize,
}

impl ThreadedExecutor {
    /// An executor with an explicit worker count (0 ⇒ host parallelism).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    fn resolved_threads(&self, tasks: usize) -> usize {
        let t = if self.threads == 0 { host_parallelism() } else { self.threads };
        t.clamp(1, tasks.max(1))
    }
}

impl Executor for ThreadedExecutor {
    fn execute_traced<R: TaskRunner>(
        &self,
        dag: &LuDag,
        runner: &R,
        recorder: Option<&Recorder>,
    ) -> Result<ExecReport> {
        let total = dag.len();
        let workers = self.resolved_threads(total);
        if total == 0 {
            return Ok(ExecReport { workers, ..Default::default() });
        }

        let mut ready = BinaryHeap::new();
        let deps = dag.dep_counts().to_vec();
        for (id, &d) in deps.iter().enumerate() {
            if d == 0 {
                ready.push(Reverse((dag.priority(id), id)));
            }
        }
        let pool = Mutex::new(Pool {
            ready,
            deps,
            ready_at: vec![0.0; total],
            unclaimed: total,
            canceled: false,
            caller_parked: false,
            timings: Vec::with_capacity(total),
            failure: None,
            panic: None,
        });
        let bell = Condvar::new();
        let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);

        let t0 = Instant::now();
        // The claim loop, the same for worker 0 (the caller) and helpers.
        let work = |w: usize| loop {
            let (id, ready, wake_caller, wake_helper) = {
                let mut p = lock(&pool);
                loop {
                    if p.canceled || p.unclaimed == 0 {
                        return;
                    }
                    if let Some(Reverse((_, id))) = p.ready.pop() {
                        p.unclaimed -= 1;
                        // Wake-ups follow the ready set: one more thread,
                        // and only if this claim left it something.
                        let surplus = !p.ready.is_empty();
                        let wake_caller = surplus && p.caller_parked;
                        break (id, p.ready_at[id], wake_caller, surplus && workers > 1);
                    }
                    if w != 0 {
                        return; // a helper with nothing to claim goes home
                    }
                    p.caller_parked = true;
                    p = bell.wait(p).unwrap_or_else(PoisonError::into_inner);
                    p.caller_parked = false;
                }
            };
            if wake_caller {
                bell.notify_one();
            } else if wake_helper {
                offer(job);
            }
            let task = dag.tasks()[id];
            let start = t0.elapsed().as_secs_f64();
            let result = catch_unwind(AssertUnwindSafe(|| runner.run(task)));
            let end = t0.elapsed().as_secs_f64();
            let mut p = lock(&pool);
            match result {
                Ok(Ok(())) => {
                    for &succ in dag.successors(id) {
                        p.deps[succ] -= 1;
                        if p.deps[succ] == 0 {
                            p.ready_at[succ] = end;
                            p.ready.push(Reverse((dag.priority(succ), succ)));
                        }
                    }
                    p.timings.push(TaskTiming { task, worker: w, ready, start, end });
                }
                Ok(Err(e)) => {
                    if p.failure.as_ref().is_none_or(|(k, _)| task.step() < *k) {
                        p.failure = Some((task.step(), e));
                    }
                    p.canceled = true;
                }
                Err(payload) => {
                    p.panic.get_or_insert(payload);
                    p.canceled = true;
                }
            }
            // The caller sleeps through completions that leave it nothing
            // to claim; only the end of the job must reach it.
            let over = p.caller_parked && (p.canceled || p.timings.len() == total);
            drop(p);
            if over {
                bell.notify_all();
            }
        };
        if workers == 1 {
            work(0);
        } else {
            run_job(job, workers, &work);
        }

        let p = pool.into_inner().unwrap_or_else(PoisonError::into_inner);
        let wall = t0.elapsed().as_secs_f64();
        if let Some(payload) = p.panic {
            resume_unwind(payload);
        }
        if let Some(rec) = recorder {
            p.timings.iter().for_each(|t| record_timing(rec, t));
        }
        match p.failure {
            Some((_, e)) => Err(e),
            None => {
                debug_assert_eq!(p.timings.len(), total, "all tasks must complete");
                let order = p.timings.iter().map(|t| t.task).collect();
                Ok(ExecReport { order, timings: p.timings, workers, wall })
            }
        }
    }
}

/// Which executor a front-end should use; a small enum so callers can pick
/// at run time without naming executor types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Deterministic priority replay on the calling thread.
    Serial,
    /// OS threads over one shared pool (0 ⇒ host parallelism).
    Threaded {
        /// Worker count; 0 uses the host's available parallelism.
        threads: usize,
    },
}

impl ExecutorKind {
    /// Dispatches to the matching [`Executor`] implementation.
    ///
    /// # Errors
    /// Propagates the first task failure.
    pub fn execute<R: TaskRunner>(&self, dag: &LuDag, runner: &R) -> Result<ExecReport> {
        self.execute_traced(dag, runner, None)
    }

    /// Dispatches to [`Executor::execute_traced`] on the matching
    /// implementation.
    ///
    /// # Errors
    /// Propagates the first task failure.
    pub fn execute_traced<R: TaskRunner>(
        &self,
        dag: &LuDag,
        runner: &R,
        recorder: Option<&Recorder>,
    ) -> Result<ExecReport> {
        match *self {
            ExecutorKind::Serial => SerialExecutor.execute_traced(dag, runner, recorder),
            ExecutorKind::Threaded { threads } => {
                ThreadedExecutor::new(threads).execute_traced(dag, runner, recorder)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::LuShape;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{scope, ThreadId};

    fn dag(m: usize, n: usize, nb: usize, d: usize) -> LuDag {
        LuDag::build(LuShape { m, n, nb }, d)
    }

    /// Runner that records completion order and checks dependence safety:
    /// a task may only run once all its predecessors have.
    struct CheckRunner<'a> {
        dag: &'a LuDag,
        done: Vec<std::sync::atomic::AtomicBool>,
        count: AtomicUsize,
    }

    impl<'a> CheckRunner<'a> {
        fn new(dag: &'a LuDag) -> Self {
            let done = (0..dag.len()).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
            Self { dag, done, count: AtomicUsize::new(0) }
        }
    }

    impl TaskRunner for CheckRunner<'_> {
        fn run(&self, task: Task) -> Result<()> {
            let id = self.dag.tasks().iter().position(|&t| t == task).unwrap();
            for pred in 0..self.dag.len() {
                if self.dag.successors(pred).contains(&id) {
                    assert!(
                        self.done[pred].load(Ordering::SeqCst),
                        "{} ran before its predecessor {}",
                        task,
                        self.dag.tasks()[pred]
                    );
                }
            }
            self.done[id].store(true, Ordering::SeqCst);
            self.count.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn serial_executor_runs_every_task_in_dependence_order() {
        let g = dag(128, 128, 32, 2);
        let r = CheckRunner::new(&g);
        let rep = SerialExecutor.execute(&g, &r).unwrap();
        assert_eq!(r.count.load(Ordering::SeqCst), g.len());
        assert_eq!(rep.order.len(), g.len());
        assert_eq!(rep.workers, 1);
    }

    #[test]
    fn threaded_executor_respects_edges_with_many_workers() {
        for d in [1usize, 2, 3] {
            let g = dag(160, 160, 32, d);
            let r = CheckRunner::new(&g);
            let rep = ThreadedExecutor::new(4).execute(&g, &r).unwrap();
            assert_eq!(r.count.load(Ordering::SeqCst), g.len());
            assert_eq!(rep.order.len(), g.len());
            assert_eq!(rep.workers, 4);
        }
    }

    #[test]
    fn serial_schedule_is_reproducible() {
        let g = dag(130, 90, 16, 3);
        let r1 = SerialExecutor.execute(&g, &|_t| Ok(())).unwrap();
        let r2 = SerialExecutor.execute(&g, &|_t| Ok(())).unwrap();
        assert_eq!(r1.order, r2.order, "serial replay must be deterministic");
    }

    #[test]
    fn failure_cancels_unstarted_tasks() {
        let g = dag(128, 128, 32, 1);
        let ran = AtomicUsize::new(0);
        let fail_on = Task::PanelFinish { k: 1 };
        let runner = |t: Task| -> Result<()> {
            ran.fetch_add(1, Ordering::SeqCst);
            if t == fail_on {
                Err(Error::SingularPivot { step: 32 })
            } else {
                Ok(())
            }
        };
        for kind in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }] {
            ran.store(0, Ordering::SeqCst);
            let err = kind.execute(&g, &runner).unwrap_err();
            assert_eq!(err, Error::SingularPivot { step: 32 });
            assert!(
                ran.load(Ordering::SeqCst) < g.len(),
                "{kind:?}: tasks after the failure must be canceled"
            );
        }
    }

    #[test]
    fn panicking_task_propagates_instead_of_deadlocking() {
        // A panic inside a task body (user observer, debug assert) must
        // unwind out of execute(), not park the other workers forever.
        let g = dag(128, 128, 32, 1);
        let boom = Task::PanelFinish { k: 1 };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ThreadedExecutor::new(3).execute(&g, &|t: Task| -> Result<()> {
                assert!(t != boom, "injected task panic");
                Ok(())
            })
        }));
        assert!(result.is_err(), "the injected panic must propagate to the caller");
    }

    #[test]
    fn task_panic_does_not_cascade_to_sibling_workers() {
        // Regression guard for the poisoned-pool cascade: if the pool
        // mutex is ever poisoned, workers that used to die in
        // `expect("runtime pool poisoned")` fanned one failure out into a
        // panic per worker; they now recover with `into_inner` (the pool's
        // invariants hold at every unlock, and cancellation is flag-based,
        // so the poison bit carries no information). Note a task-body
        // panic alone does *not* poison the mutex — `CancelOnUnwind`
        // acquires its guard mid-unwind, and guards acquired while already
        // panicking don't poison on release — poisoning needs a panic
        // originating under the lock (debug dep-count checks, allocator
        // failure growing the ready heap). This test pins the black-box
        // contract around the injected panic: it propagates exactly once,
        // siblings shut down cleanly, and no panic mentions poison — so a
        // reintroduced `expect` shows up the moment lock scopes or std
        // poisoning semantics make it reachable.
        //
        // Panic hooks are process-global and tests run concurrently, so
        // the counters only track panics matching those two patterns; the
        // previous hook keeps handling everything else and stays
        // installed afterwards (restoring it would race other tests).
        const MARKER: &str = "solve-pool-poison-probe";
        static MARKER_PANICS: AtomicUsize = AtomicUsize::new(0);
        static POISON_PANICS: AtomicUsize = AtomicUsize::new(0);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if msg.contains(MARKER) {
                MARKER_PANICS.fetch_add(1, Ordering::SeqCst);
                return; // our own injection: counted, not printed
            }
            if msg.contains("poisoned") {
                POISON_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            prev(info);
        }));

        // Enough slow tasks that several workers are parked in `bell.wait`
        // or mid-task when the probe panics — the pre-fix cascade hit both
        // the waiters and the workers finishing their current task.
        let g = dag(192, 192, 32, 2);
        let boom = Task::PanelFinish { k: 1 };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ThreadedExecutor::new(4).execute(&g, &|t: Task| -> Result<()> {
                std::thread::sleep(std::time::Duration::from_micros(100));
                assert!(t != boom, "{MARKER}");
                Ok(())
            })
        }));
        assert!(result.is_err(), "the injected panic must propagate to the caller");
        assert_eq!(MARKER_PANICS.load(Ordering::SeqCst), 1, "exactly one task body may panic");
        assert_eq!(
            POISON_PANICS.load(Ordering::SeqCst),
            0,
            "sibling workers must recover from the poisoned pool, not cascade"
        );
    }

    /// Runner that notes every thread it runs on and holds each of the
    /// four leaf elections of panel 0 (all ready at submission) until
    /// `hands` distinct threads are inside one — so a job cannot end
    /// before that many workers have joined it. `after` is the election's
    /// result on a thread other than the caller, once the hands are in.
    struct AllHands<F> {
        hands: usize,
        seen: Mutex<HashSet<ThreadId>>,
        arrived: Condvar,
        caller: ThreadId,
        after: F,
    }

    impl<F: Fn() -> Result<()> + Sync> AllHands<F> {
        fn new(hands: usize, after: F) -> Self {
            let (seen, arrived) = (Mutex::default(), Condvar::new());
            Self { hands, seen, arrived, caller: std::thread::current().id(), after }
        }

        fn threads(self) -> HashSet<ThreadId> {
            self.seen.into_inner().unwrap()
        }
    }

    impl<F: Fn() -> Result<()> + Sync> TaskRunner for AllHands<F> {
        fn run(&self, task: Task) -> Result<()> {
            let me = std::thread::current().id();
            let mut seen = self.seen.lock().unwrap();
            seen.insert(me);
            if !matches!(task, Task::PanelElect { k: 0, .. }) {
                return Ok(());
            }
            self.arrived.notify_all();
            while seen.len() < self.hands {
                let (guard, wait) =
                    self.arrived.wait_timeout(seen, std::time::Duration::from_secs(60)).unwrap();
                assert!(
                    !wait.timed_out(),
                    "only {} of {} workers arrived",
                    guard.len(),
                    self.hands
                );
                seen = guard;
            }
            drop(seen);
            if me == self.caller {
                Ok(())
            } else {
                (self.after)()
            }
        }
    }

    // The next two tests read thread ids against a worker count of 4: no
    // test of this binary may ask the registry for more than 3 helpers.

    #[test]
    fn helpers_are_spawned_once_not_per_execute() {
        let (small, large) = (dag(64, 64, 32, 1), dag(192, 192, 32, 2));
        let seen = Mutex::new(HashSet::new());
        let note = |_t: Task| -> Result<()> {
            seen.lock().unwrap().insert(std::thread::current().id());
            Ok(())
        };
        for _ in 0..100 {
            for g in [&small, &large] {
                let rep = ThreadedExecutor::new(4).execute(g, &note).unwrap();
                assert_eq!(rep.order.len(), g.len());
            }
        }
        let threads = seen.into_inner().unwrap().len();
        assert!(threads <= 4, "200 executes at 4 workers ran on {threads} threads");
    }

    #[test]
    fn helpers_survive_a_panicking_body_and_a_cancel() {
        let g = dag(160, 160, 32, 2);
        assert_eq!(g.dep_counts().iter().filter(|&&d| d == 0).count(), 4, "four leaves");
        let all_hands = || {
            let r = AllHands::new(4, || Ok(()));
            let rep = ThreadedExecutor::new(4).execute(&g, &r).unwrap();
            assert_eq!(rep.order.len(), g.len());
            r.threads()
        };
        let before = all_hands();
        assert_eq!(before.len(), 4, "the caller and three helpers");

        // Both failures happen on helper threads, two of them inside the job.
        let r = AllHands::new(3, || panic!("injected helper panic"));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ThreadedExecutor::new(4).execute(&g, &r)
        }));
        assert!(unwound.is_err(), "the helper's panic must reach the caller");
        let r = AllHands::new(3, || Err(Error::SingularPivot { step: 7 }));
        let err = ThreadedExecutor::new(4).execute(&g, &r).unwrap_err();
        assert_eq!(err, Error::SingularPivot { step: 7 });

        assert_eq!(all_hands(), before, "the same four threads must still be serving");
    }

    #[test]
    fn concurrent_and_nested_executes_keep_the_dependence_order() {
        // Eight callers share three helpers; the ninth job is issued from
        // inside a task body of the first. Every one must terminate with
        // every task run after its predecessors.
        let g = dag(160, 160, 32, 2);
        let inner = dag(96, 96, 32, 1);
        let run_checked = |g: &LuDag| {
            let r = CheckRunner::new(g);
            let rep = ThreadedExecutor::new(4).execute(g, &r).unwrap();
            assert_eq!(r.count.load(Ordering::SeqCst), g.len());
            assert_eq!(rep.order.len(), g.len());
        };
        scope(|s| {
            s.spawn(|| {
                let r = CheckRunner::new(&g);
                let nesting = |t: Task| {
                    if t == (Task::PanelFinish { k: 1 }) {
                        run_checked(&inner);
                    }
                    r.run(t)
                };
                for _ in 0..20 {
                    ThreadedExecutor::new(4).execute(&g, &nesting).unwrap();
                    r.done.iter().for_each(|d| d.store(false, Ordering::SeqCst));
                }
            });
            for _ in 1..8 {
                s.spawn(|| (0..20).for_each(|_| run_checked(&g)));
            }
        });
    }

    #[test]
    fn replayed_spans_cover_workers_without_overlap() {
        let g = dag(96, 96, 32, 1);
        let rep = ThreadedExecutor::new(2)
            .execute(&g, &|_t| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(())
            })
            .unwrap();
        let rec = Recorder::new();
        rep.record_into(&rec, 0.0);
        let spans = rec.take();
        assert_eq!(spans.len(), g.len());
        let busy: f64 = spans.iter().map(|s| s.dur_us).sum::<f64>() / 1e6;
        assert!((busy - rep.busy()).abs() < 1e-9);
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for &w in &lanes {
            let lane: Vec<_> = spans.iter().filter(|s| s.tid == w).collect();
            for p in lane.windows(2) {
                assert!(p[0].ts_us + p[0].dur_us <= p[1].ts_us + 1e-6, "spans must not overlap");
            }
        }
        // One Gantt row per worker that ran a task.
        assert_eq!(calu_obs::render_gantt(&spans, 40).lines().count(), 1 + lanes.len());
    }

    #[test]
    fn empty_dag_is_a_no_op() {
        let g = LuDag::build(LuShape { m: 0, n: 0, nb: 8 }, 1);
        let rep = ThreadedExecutor::default().execute(&g, &|_t| Ok(())).unwrap();
        assert!(rep.order.is_empty());
    }

    #[test]
    fn traced_execution_records_one_span_per_task_on_both_executors() {
        let g = dag(96, 96, 32, 1);
        for kind in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }] {
            let rec = Recorder::new();
            let rep = kind.execute_traced(&g, &|_t| Ok(()), Some(&rec)).unwrap();
            assert_eq!(rec.len(), g.len(), "{kind:?}");
            let spans = rec.snapshot();
            // Shared-memory tasks all live in rank lane 0; tids cover the
            // worker set; spans match the report's timings 1:1.
            assert!(spans.iter().all(|s| s.pid == 0));
            assert!(spans.iter().all(|s| (s.tid as usize) < rep.workers));
            assert!(spans.iter().all(|s| s.dur_us >= 0.0));
            let names: std::collections::HashSet<_> =
                spans.iter().map(|s| s.name.clone()).collect();
            assert!(names.contains("PanelFinish(0)"));
            assert!(spans.iter().any(|s| s.cat == "gemm"));
            // The export of a live recording round-trips.
            assert!(calu_obs::parse_chrome_trace(&rec.chrome_trace()).is_ok());
        }
    }

    #[test]
    fn ready_stamps_bound_task_starts_on_both_executors() {
        let g = dag(128, 128, 32, 2);
        for kind in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }] {
            let rep = kind
                .execute(&g, &|_t| {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(())
                })
                .unwrap();
            assert_eq!(rep.timings.len(), g.len());
            for t in &rep.timings {
                assert!(t.ready >= 0.0, "{kind:?}: {} ready must be non-negative", t.task);
                assert!(
                    t.ready <= t.start + 1e-12,
                    "{kind:?}: {} cannot start before it is ready",
                    t.task
                );
                assert!(t.queue_delay() >= 0.0);
            }
            // Dependency-free tasks are ready at submission time.
            let elect0 = Task::PanelElect { k: 0, leaf: 0 };
            let first = rep.timings.iter().find(|t| t.task == elect0).unwrap();
            assert_eq!(first.ready, 0.0, "{kind:?}: PanelElect(0,0) has no dependencies");
            // The lane table covers the delays exactly (ns rounding).
            let total_ns: u64 = rep.queue_delay_ns_by_lane().iter().map(|&(_, v)| v).sum();
            assert!((total_ns as f64 / 1e9 - rep.queue_delay()).abs() < 1e-3 * g.len() as f64);
        }
    }

    #[test]
    fn record_into_replays_a_report_with_offset() {
        let g = dag(96, 96, 32, 1);
        let rep = SerialExecutor.execute(&g, &|_t| Ok(())).unwrap();
        let rec = Recorder::new();
        rep.record_into(&rec, 1.0);
        assert_eq!(rec.len(), g.len());
        let spans = rec.snapshot();
        assert!(spans.iter().all(|s| s.ts_us >= 1e6 - 1e-9), "offset must shift all spans");
        // Untraced execute() + replay equals what execute_traced records.
        let rec2 = Recorder::new();
        rep.record_into(&rec2, 0.0);
        let direct: Vec<_> = rec2.snapshot().iter().map(|s| s.name.clone()).collect();
        assert_eq!(direct.len(), g.len());
    }
}
