//! Ranks as real OS threads: the [`CommKind::Threaded`](crate::comm::CommKind::Threaded)
//! driver behind
//! [`dist_calu_factor_rt`](crate::dist_rt::dist_calu_factor_rt) /
//! [`dist_pdgetrf_factor_rt`](crate::dist_rt::dist_pdgetrf_factor_rt).
//!
//! Where the in-process driver binds one runner over **all** ranks' tile
//! storage (the shared-memory simulation), this one spawns one thread per
//! grid rank, each holding one `RankTasks` — the same rank-local task
//! bodies (`crate::dist_rank`) over **only its own** block-cyclic
//! [`TileMatrix`](calu_matrix::TileMatrix). Cross-rank data crosses the
//! [`Communicator`] seam as point-to-point messages and nothing else —
//! the configuration in which the communication the `CommLedger` counts
//! is physically real.
//!
//! # Per-rank schedules
//!
//! Each rank runs the projection of the DAG's deterministic
//! [`serial_schedule`](LuDag::serial_schedule) onto its own tasks, with
//! the two tasks whose in-process bodies touch several ranks' storage
//! run as collectives over the participating ranks — the only two bodies
//! this module defines:
//!
//! * `Swap(k, j)` — every process row of `j`'s process column
//!   participates; cross-owner pivot rows travel as paired `SWP`
//!   messages (post first, then a blocking fetch, items in pivot order
//!   on every participant — so chained pivots stay exchange-complete).
//! * `PanelGetf2(k)` — the `PDGETF2` picket fence decomposes into its
//!   real messages: per column a 3-word `GCD` candidate all-gather
//!   (folded in ascending process-row order, exactly the shared-mailbox
//!   combine), the winner's trailing row as `GUR`, and the pivot-row
//!   exchange as paired `GRX` messages.
//!
//! Every fetch is blocking with stash-first semantics (see
//! [`ThreadedComm`](crate::comm::ThreadedComm)), which makes **any**
//! per-rank topological projection deadlock-free: whichever task needs a
//! payload first pulls it from the channel into the rank's stash, and
//! later tasks re-read it there.
//!
//! # Why the factors stay bitwise identical
//!
//! Payloads are `f64` words and `T ↔ f64` round trips are exact for
//! every [`Scalar`]; the butterfly's ordered combine makes every process
//! row's final accumulator bitwise identical (so each row derives the
//! same pivot list, no extra broadcast needed); and the decomposed
//! `PDGETF2` folds candidates in the same ascending order as the
//! in-process picket fence. The property tests assert equality against
//! both the SPMD references and the in-process communicator.
//!
//! # Failure semantics
//!
//! A singular pivot on one rank thread cancels the whole grid through
//! [`Communicator::cancel`]: every blocked and future fetch on every
//! rank returns [`Error::Canceled`], rank threads unwind their queues,
//! the driver joins them all (no hang), and the drain leaves
//! `mailbox_residual_words == 0` — the failure-injection suite asserts
//! exactly this. A rank thread that **panics** (an assertion, an index
//! bug) cancels the grid the same way from an unwind guard, so its peers
//! leave with [`Error::Canceled`] within one poll interval instead of
//! waiting out the stuck-fetch timeout, and the driver re-raises the
//! original panic once every thread is joined.

use std::ops::Range;
use std::time::Instant;

use crate::comm::{
    Communicator, MAIL_GCD as GCD, MAIL_GRX as GRX, MAIL_GUR as GUR, MAIL_PIV as PIV,
    MAIL_SWP as SWP,
};
use crate::dist_rank::RankTasks;
use crate::dist_rt::DistRun;
use calu_matrix::blas1::scal;
use calu_matrix::blas2::ger;
use calu_matrix::scalar::cast_slice;
use calu_matrix::{Error, Result, Scalar};
use calu_obs::Recorder;
use calu_runtime::{DistGeom, DistKind, DistTask, ExecReport, LuDag, Task, TaskTiming};

/// Projects the DAG's deterministic serial schedule onto per-rank task
/// queues, expanding the two multi-rank bodies into collectives: every
/// participant gets the task at the same global schedule position, so the
/// queues are consistent projections of one topological order — the
/// invariant the blocking-fetch deadlock-freedom argument rests on.
fn rank_queues(dag: &LuDag, geom: &DistGeom) -> Vec<Vec<Task>> {
    let tasks = dag.tasks();
    let mut queues = vec![Vec::new(); geom.pr * geom.pc];
    for id in dag.serial_schedule() {
        let t = tasks[id];
        let Task::Dist(DistTask { kind, k, j, rank }) = t else {
            unreachable!("distributed DAGs contain only distributed tasks")
        };
        // A collective's participants: the whole process column of the
        // swapped block column / of the panel.
        let pcol = match kind {
            DistKind::Swap => geom.pcol_of(j as usize),
            DistKind::PanelGetf2 => geom.pcol_of(k as usize),
            _ => {
                queues[rank as usize].push(t);
                continue;
            }
        };
        for prow in 0..geom.pr {
            queues[geom.rank(prow, pcol)].push(t);
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

/// The message forms of the two collectives, and the queue loop. The cell
/// accesses below are sound because a rank thread is the only toucher of
/// its cell.
impl<T: Scalar> RankTasks<'_, T> {
    /// One side of a cross-owner row exchange: ship own global row `mine`
    /// over `cols` to `partner_prow`, blocking-fetch the partner's
    /// segment, overwrite in place. `tag` = `(class, k, j, who_base)` keys
    /// the message pair (`who` = `who_base` + the sender's process row).
    /// Both sides post before fetching, so the pair cannot deadlock; the
    /// `f64` round trip is exact, so the result is bitwise identical to
    /// the in-process direct copies.
    fn exchange_row(
        &self,
        (class, k, j, who_base): (u8, usize, usize, usize),
        mine: usize,
        partner_prow: usize,
        cols: Range<usize>,
    ) -> Result<()> {
        let lmine = self.ctx.glayout.local_row(mine);
        // SAFETY: this thread owns the whole local matrix.
        let mut row = unsafe { self.cell.rect(lmine..lmine + 1, cols) };
        let seg = row.gather(T::to_f64);
        self.ctx.ledger.record_send(self.rank as u32, "swap", seg.len() as u64);
        let partner_rank = self.ctx.geom.rank(partner_prow, self.pcol);
        self.post(class, k, j, who_base + self.prow, seg, &[partner_rank]);
        let theirs = self.fetch(class, k, j, who_base + partner_prow)?;
        row.scatter(&T::from_words(&theirs));
        Ok(())
    }

    /// Swaps global rows `r1 != r2` over `cols` as seen from this process
    /// row: in place if it owns both, one side of a message pair if it
    /// owns one, nothing otherwise. `tag` as in [`Self::exchange_row`].
    fn swap_rows(
        &self,
        tag: (u8, usize, usize, usize),
        (r1, r2): (usize, usize),
        cols: Range<usize>,
    ) -> Result<()> {
        let lay = &self.ctx.glayout;
        let (o1, o2) = (lay.row_owner(r1), lay.row_owner(r2));
        if o1 == o2 {
            if o1 == self.prow {
                let (l1, l2) = (lay.local_row(r1), lay.local_row(r2));
                // SAFETY: this thread owns the whole local matrix.
                let (mut row1, mut row2) = unsafe {
                    (self.cell.rect(l1..l1 + 1, cols.clone()), self.cell.rect(l2..l2 + 1, cols))
                };
                row1.swap_row_with(&mut row2);
            }
        } else if self.prow == o1 {
            self.exchange_row(tag, r1, o2, cols)?;
        } else if self.prow == o2 {
            self.exchange_row(tag, r2, o1, cols)?;
        }
        Ok(())
    }

    /// `Swap(k, j)` as a collective over `j`'s process column: each rank
    /// thread owns one cell, so a pivot row whose two owners differ
    /// travels as a pair of `SWP` messages. (In one address space it is
    /// one task copying between the cells.)
    fn run_swap(&self, k: usize, j: usize) -> Result<()> {
        self.evict_completed_steps(k);
        let gk = k * self.nb();
        let cols = self.swap_cols(k, j);
        if cols.is_empty() {
            return Ok(());
        }
        // Every participant walks the pivot items in the same order and
        // each exchange completes (blocking) before the next item starts,
        // so chained pivots through one row see the same intermediate
        // states as the in-process sweep.
        for (i, p) in self.swap_list(k)?.into_iter().enumerate() {
            if p != i {
                let tag = (SWP, k, j, i * self.ctx.geom.pr);
                self.swap_rows(tag, (gk + i, gk + p), cols.clone())?;
            }
        }
        Ok(())
    }

    /// `PanelGetf2(k)` as a collective: all process rows of the panel
    /// column walk the picket fence together, column by column, and what
    /// the in-process task reads straight out of the other ranks' cells
    /// arrives here as real messages (ledgered as `panel_getf2`, the term
    /// that exists only on this communicator). Every fold runs in
    /// ascending process-row order with the exact shared-mailbox
    /// comparison, so the elected pivots — and therefore the factors —
    /// are bitwise identical.
    fn run_panel_getf2(&self, k: usize) -> Result<()> {
        let (g, lay) = (&self.ctx.geom, &self.ctx.glayout);
        let b = self.nb();
        let (gk, jb) = (k * b, g.jb(k));
        let pl0 = lay.local_cols_below(self.pcol, gk);
        let (tjc, jc) = (pl0 / b, pl0 % b);
        let others: Vec<usize> = self.col_ranks().into_iter().filter(|&r| r != self.rank).collect();
        let recv = |raw: &[f64]| {
            self.ctx.ledger.record_recv(self.rank as u32, "panel_getf2", raw.len() as u64)
        };
        let mut li_piv = Vec::with_capacity(jb);
        for jj in 0..jb {
            let gc = gk + jj;
            // Local scan over own rows (first strict max in ascending
            // global order — identical arithmetic to the shared body).
            let r0 = lay.local_rows_below(self.prow, gc);
            // SAFETY: this thread owns the whole local matrix.
            let (ba, li, bv) =
                unsafe { self.cell.rect(r0..self.cell.rows(), pl0 + jj..pl0 + jj + 1) }.col_amax();
            let bg = if li == usize::MAX { li } else { lay.global_row(self.prow, li) };
            if !others.is_empty() {
                // 3-word candidate: [|v|, global row (−1 = no rows), v].
                let enc = if bg == usize::MAX { -1.0 } else { bg as f64 };
                self.post(GCD, k, jj, self.prow, vec![ba.to_f64(), enc, bv.to_f64()], &others);
            }
            // Fold all candidates in ascending process-row order — the
            // associative linear fold the in-process picket fence runs.
            let (mut best, mut best_g, mut best_v) = (T::NEG_INFINITY, usize::MAX, T::ZERO);
            for prow2 in 0..g.pr {
                let (ca, cg, cv) = if prow2 == self.prow {
                    (ba, bg, bv)
                } else {
                    let raw = self.fetch(GCD, k, jj, prow2)?;
                    recv(&raw);
                    let vals: Vec<T> = cast_slice(&raw);
                    let cg = if raw[1] < 0.0 { usize::MAX } else { raw[1] as usize };
                    (vals[0], cg, vals[2])
                };
                if ca > best || (ca == best && cg < best_g) {
                    best = ca;
                    best_g = cg;
                    best_v = cv;
                }
            }
            li_piv.push(best_g.wrapping_sub(gk));
            if !(best != T::ZERO && best.is_finite()) {
                // Every participant reaches the same verdict at the same
                // column (they folded identical candidate sets), so the
                // grid cancels coherently and the driver reports one step.
                return Err(Error::SingularPivot { step: gc });
            }
            // The winner's trailing row, captured before the exchange.
            let urow: Vec<T> = if jj + 1 == jb {
                Vec::new()
            } else if lay.row_owner(best_g) == self.prow {
                let lw = lay.local_row(best_g);
                // SAFETY: this thread owns the whole local matrix.
                let row =
                    unsafe { self.cell.rect(lw..lw + 1, pl0 + jj + 1..pl0 + jb) }.gather(|v| v);
                if !others.is_empty() {
                    self.post(GUR, k, jj, 0, row.iter().map(|&v| v.to_f64()).collect(), &others);
                }
                row
            } else {
                let raw = self.fetch(GUR, k, jj, 0)?;
                recv(&raw);
                cast_slice(&raw)
            };
            // Pivot-row exchange over the whole panel width.
            if best_g != gc {
                self.swap_rows((GRX, k, jj, 0), (gc, best_g), pl0..pl0 + jb)?;
            }
            // Scale + rank-1 update on own rows only.
            let inv = best_v.recip();
            let r1 = lay.local_rows_below(self.prow, gc + 1);
            for (ti, rr) in self.cell.lay.row_tile_span(r1..self.cell.rows()) {
                // SAFETY: this thread owns the whole local matrix; the
                // scaled column and the trailing block are disjoint.
                let mut col =
                    unsafe { self.cell.tile_block(ti, tjc, rr.start, jc + jj, rr.len(), 1) };
                scal(inv, col.col_mut(0));
                if jj + 1 < jb {
                    let trailing = unsafe {
                        self.cell.tile_block(ti, tjc, rr.start, jc + jj + 1, rr.len(), jb - jj - 1)
                    };
                    ger(-T::ONE, col.as_view().col(0), &urow, trailing);
                }
            }
        }
        if self.prow == g.cprow(k) {
            // SAFETY: the diagonal participant is the only writer.
            unsafe { self.ctx.ipiv.publish(gk, &li_piv) };
        }
        // This process row's copy of the swap list, along its row (its
        // own Swap tasks and the row peers' PivRecv consume it).
        let list = li_piv.iter().map(|&x| x as f64).collect();
        self.post(PIV, k, 0, self.prow, list, &self.row_ranks(self.prow));
        Ok(())
    }

    fn run_task(&self, task: Task) -> Result<()> {
        let Task::Dist(DistTask { kind, k, j, .. }) = task else {
            unreachable!("distributed runner received a shared-memory task")
        };
        let (k, j) = (k as usize, j as usize);
        match kind {
            DistKind::Swap => self.run_swap(k, j),
            DistKind::PanelGetf2 => self.run_panel_getf2(k),
            _ => self.run_local(kind, k, j),
        }
    }

    /// Drives this rank's whole queue. Returns the per-task timings plus
    /// the absolute elimination step if *this* rank hit the singular
    /// pivot (collateral [`Error::Canceled`] exits return `None` — the
    /// root cause is reported by the rank that found it).
    fn run_queue(
        &self,
        queue: &[Task],
        recorder: &Recorder,
        epoch: Instant,
    ) -> (Vec<TaskTiming>, Option<usize>) {
        let _guard = CancelOnPanic { comm: self.ctx.comm, rank: self.rank };
        let mut timings = Vec::with_capacity(queue.len());
        for &task in queue {
            let start = epoch.elapsed().as_secs_f64();
            match self.run_task(task) {
                Ok(()) => {
                    let end = epoch.elapsed().as_secs_f64();
                    let id = self.rank as u32;
                    recorder.record_interval(task.to_string(), task.cat(), id, id, start, end);
                    // Each rank replays its projection serially, so a task
                    // is "ready" the moment the rank reaches it: queue
                    // delay is zero by construction and the real waiting
                    // is inside tasks, accounted as blocked-fetch time.
                    timings.push(TaskTiming { task, worker: self.rank, ready: start, start, end });
                }
                Err(Error::SingularPivot { step }) => {
                    self.ctx.comm.cancel(self.rank);
                    return (timings, Some(step));
                }
                Err(Error::Canceled) => return (timings, None),
                Err(e) => panic!("unexpected distributed task failure: {e:?}"),
            }
        }
        (timings, None)
    }
}

/// The rank-thread driver: one scoped OS thread per grid rank, each
/// running its queue of `run`'s DAG over its own cell with payloads on
/// `comm`. Returns what the executor driver returns — the wall-clock
/// record (collectives appear once per participant; empty when a singular
/// pivot canceled the run) and the first singular step.
///
/// # Panics
/// Re-raises a rank thread's panic after every thread is joined.
pub(crate) fn run_rank_threads<T: Scalar>(
    run: &DistRun<T>,
    comm: &dyn Communicator,
) -> (ExecReport, Option<usize>) {
    let ctx = run.ctx(comm);
    let (cells, recorder) = (&run.cells[..], &run.recorder);
    let queues = rank_queues(&run.dag, &ctx.geom);
    let epoch = Instant::now();
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = queues
            .iter()
            .enumerate()
            .map(|(rank, queue)| {
                s.spawn(move || RankTasks::new(ctx, cells, rank).run_queue(queue, recorder, epoch))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    // Peers of a panicking rank left with `Canceled`, not a panic, so the
    // first payload is the original one.
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
