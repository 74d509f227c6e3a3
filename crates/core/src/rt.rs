//! CALU on the `calu-runtime` task DAG — the shared-memory parallel
//! engine: [`runtime_calu_factor`] / [`runtime_calu_inplace`] over a flat
//! column-major matrix, taking the executor and lookahead depth in
//! [`RuntimeOpts`] (the default is the threaded executor at depth 1 — HPL's
//! look-ahead schedule, the paper's "multicore" future-work direction).
//!
//! The runtime schedules; this module supplies the kernels: a
//! [`calu_runtime::TaskRunner`] whose task bodies are the *same* calls the
//! sequential sweep makes, carved into leaf / chunk / block-column
//! granularity. Why the factors are **bitwise identical** to
//! [`calu_inplace`](crate::calu::calu_inplace) under *any* topological
//! execution order:
//!
//! * the panel subgraph runs the sequential panel's four kernels
//!   ([`crate::tslu`]) over the same [`PanelPlan`](calu_runtime::PanelPlan):
//!   each leaf's election reads only its own rows, candidate sets are
//!   folded in the fixed order of
//!   [`tournament_tree`](calu_runtime::tournament_tree), the finish factors
//!   the top block exactly as the sequential panel does, and the bits of a
//!   row of `L₂₁` depend on that row and `U₁₁` only
//!   ([`lu_rows`]), so any chunking of the apply is exact;
//! * row swaps applied per block column are the same element swaps as one
//!   whole-matrix `apply_ipiv` — literally [`apply_ipiv`] on the block
//!   column, all of a panel's interchanges applied to one column before the
//!   next;
//! * the bits of a column of `U₁₂` are a function of that column, `L₁₁` and
//!   the `gemm` arm — the blocked `trsm`'s contract
//!   ([`calu_matrix::blas3`]) — so a column split changes nothing;
//! * `gemm` accumulates every `C(i,j)` along the inner (panel-width)
//!   dimension in a fixed order regardless of how `C` is partitioned, so
//!   cutting the trailing update into row chunks of block columns is exact;
//! * every read/write overlap between tasks is ordered by a DAG edge
//!   (see `calu_runtime::dag`), so there are no racy interleavings to
//!   reorder arithmetic.
//!
//! Task bodies address the matrix through `crate::blocks`: each takes
//! all of its operand blocks in one `SharedMat::blocks` call, and every
//! operand — a leaf, an apply chunk, an update chunk, a `U₁₂` block
//! column — is one block and one kernel call. The distributed runner's
//! ranks hold their local matrices the same way (`crate::dist_rank`).
//!
//! [`runtime_calu_factor`] does not clone its input up front. Its output
//! starts out zeroed (untouched pages for `f32`/`f64`) and each step-0
//! `PanelElect` copies its leaf's whole rows, all `n` columns, from the
//! input before electing on them — as in the paper's TSLU, each processor
//! reads its own block of rows. The copy is sound by existing edges: step
//! 0's leaves partition the rows, and every other task that touches a row
//! (bar the step's reduces, which touch only candidate slots) descends
//! from the elect whose leaf holds it, through `PanelFinish(0)`. So the
//! copy runs on the leaves in parallel and leaves the rows cache-warm for
//! the election; [`runtime_calu_inplace`] copies nothing.
//!
//! Each update chunk of a step's `L₂₁` is packed once for `gemm` and
//! shared by the chunk's `Gemm` tasks, one per block column right of the
//! panel, instead of being repacked by every one of them
//! (`SharedChunks`; `crate::blocks` says when and why that is sound).
//!
//! The observer is shared behind a mutex, locked per callback (so a
//! concurrent update's `on_stage` never waits out a panel task) and not at
//! all for `on_stage` when the observer does not watch values
//! ([`PivotObserver::WATCHES_VALUES`]); its
//! statistics are order-free (documented on
//! [`crate::instrument::PivotStats`]). The only ordered events, the
//! `on_pivot` thresholds, are assembled per panel in a
//! `PanelTau` and reported after the run, in step order — the order the
//! sequential sweep reports them in.

#![deny(clippy::undocumented_unsafe_blocks)]

use calu_matrix::blas3::{gemm, gemm_packed, trsm, PackedA};
use calu_matrix::lapack::lu_rows;
use calu_matrix::perm::apply_ipiv;
use calu_matrix::{
    Diag, Error, MatView, MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar, Side,
    TileMatrix, Uplo,
};
use calu_runtime::{ExecReport, ExecutorKind, LuDag, LuShape, Task, TaskRunner};
use std::sync::Mutex;

use crate::blocks::{SharedChunks, SharedIpiv, SharedMat};
use crate::calu::{CaluOpts, LuFactors};
use crate::tournament::{reduce_pair, Candidates};
use crate::tslu::{elect_candidates, finish_top, winners_to_ipiv, LocalLu, PanelTau};

/// How a runtime-scheduled factorization should execute.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOpts {
    /// Panel lookahead depth `d ≥ 1`: panels may run up to `d` steps ahead
    /// of the slowest trailing update. Depth 1 is the schedule of the old
    /// hardwired lookahead; `usize::MAX/2`-ish values mean "unthrottled".
    pub lookahead: usize,
    /// Which executor drives the DAG.
    pub executor: ExecutorKind,
}

impl Default for RuntimeOpts {
    fn default() -> Self {
        Self { lookahead: 1, executor: ExecutorKind::Threaded { threads: 0 } }
    }
}

/// Rebases a panel kernel's `SingularPivot` step (local to the panel
/// starting at row `base`) to the absolute elimination step.
fn rebase_singular(base: usize) -> impl Fn(Error) -> Error {
    move |e| match e {
        Error::SingularPivot { step } => Error::SingularPivot { step: step + base },
        other => other,
    }
}

/// Forwards observer callbacks through the shared mutex, locking per
/// event rather than per task — a concurrent `Gemm`'s `on_stage` never
/// waits out a whole panel task, only one callback.
struct MutexObs<'a, 'o, O>(&'a Mutex<&'o mut O>);

impl<T: Scalar, O: PivotObserver<T> + Send> PivotObserver<T> for MutexObs<'_, '_, O> {
    const WATCHES_VALUES: bool = O::WATCHES_VALUES;

    fn on_pivot(&mut self, step: usize, pivot: T, col_max: T) {
        self.0.lock().expect("observer mutex poisoned").on_pivot(step, pivot, col_max);
    }

    fn on_stage(&mut self, changed: &MatView<'_, T>) {
        self.0.lock().expect("observer mutex poisoned").on_stage(changed);
    }

    fn on_multipliers(&mut self, col_below_diag: &[T]) {
        self.0.lock().expect("observer mutex poisoned").on_multipliers(col_below_diag);
    }
}

/// One step's tournament in flight: a slot per leaf, walked exactly as
/// [`tournament`](crate::tournament::tournament) walks its vector — the
/// leaf's `PanelElect` fills slot `leaf`, each `PanelReduce` takes slots
/// `lo` and `hi` and leaves the winners in `lo`, `PanelFinish` takes slot
/// 0. The tree's edges order every write before its read; the per-slot
/// mutex only publishes the memory across workers.
type CandidateSlots<T> = Vec<Mutex<Option<Candidates<T>>>>;

fn take_slot<T>(slots: &CandidateSlots<T>, i: usize) -> Candidates<T> {
    slots[i]
        .lock()
        .expect("slot mutex")
        .take()
        .expect("candidate set produced by a DAG-ordered predecessor")
}

fn put_slot<T>(slots: &CandidateSlots<T>, i: usize, cand: Candidates<T>) {
    let prev = slots[i].lock().expect("slot mutex").replace(cand);
    debug_assert!(prev.is_none(), "candidate slot overwritten before it was read");
}

/// Binds the LU kernels to runtime tasks over one flat matrix.
struct LuRunner<'a, T: Scalar, O> {
    mat: SharedMat<T>,
    /// The input, when `mat` starts out unwritten: each step-0 elect copies
    /// its leaf's whole rows from here before electing on them.
    src: Option<MatView<'a, T>>,
    ipiv: SharedIpiv,
    dag: &'a LuDag,
    local: LocalLu,
    /// Candidate slots of every step's tournament.
    slots: Vec<CandidateSlots<T>>,
    /// Every step's pivots and full-column maxima, for the `on_pivot`
    /// events reported after the run.
    taus: Vec<Mutex<PanelTau<T>>>,
    /// Every step's `L₂₁` update chunks, packed once per chunk.
    chunks: SharedChunks<T>,
    obs: Mutex<&'a mut O>,
}

impl<T, O> TaskRunner for LuRunner<'_, T, O>
where
    T: Scalar,
    O: PivotObserver<T> + Send,
{
    fn run(&self, task: Task) -> Result<()> {
        let shape = self.dag.shape();
        let (m, nb) = (shape.m, shape.nb);
        let k = task.step();
        let base = k * nb;
        let jb = shape.panel_width(k);
        match task {
            Task::PanelElect { leaf, .. } => {
                let rows = &self.dag.panel_plan(k).leaves()[leaf];
                let (r0, nr) = (base + rows.start, rows.len());
                // Under a source, step 0's elect first writes its leaf's
                // whole rows (base = 0, so columns 0..n); otherwise it
                // only reads its rows of block column k.
                let copy_from = self.src.filter(|_| k == 0);
                let nc = if copy_from.is_some() { shape.n } else { jb };
                // SAFETY: at step 0 the leaves partition rows 0..m, and
                // every task that touches row r in any column other than
                // this step's elects and reduces (which read only their
                // slots) descends from the elect whose leaf holds r:
                // PanelFinish(0) follows every elect through the reduce
                // tree, and every other task of step 0 and of later steps
                // follows PanelFinish(0). So the copy owns the leaf's whole
                // rows. Without a copy the elect only reads its leaf's
                // rows of block column k (their step k-1 updates are done;
                // the next writer, PanelFinish, is DAG-ordered after it).
                let [mut leaf_rows] = unsafe { self.mat.blocks([(r0, base, nr, nc)]) };
                if let Some(a) = copy_from {
                    leaf_rows.copy_from(a.submatrix(r0, 0, nr, nc));
                }
                let src = leaf_rows.as_view().submatrix(0, 0, nr, jb);
                // The leaf's one copy is the working matrix of its local LU;
                // the winners' rows are gathered from the unfactored source.
                let cand = elect_candidates(
                    src.to_matrix(),
                    self.local,
                    |i, j| src.get(i, j),
                    |i| rows.start + i,
                );
                put_slot(&self.slots[k], leaf, cand);
                Ok(())
            }
            Task::PanelReduce { lo, hi, .. } => {
                let slots = &self.slots[k];
                let folded = reduce_pair(&take_slot(slots, lo), &take_slot(slots, hi));
                put_slot(slots, lo, folded);
                Ok(())
            }
            Task::PanelFinish { .. } => {
                let winners = take_slot(&self.slots[k], 0).rows;
                let local = winners_to_ipiv(&winners, m - base);
                // SAFETY: the finish exclusively owns rows base..m of block
                // column k: every elect is ordered before it through the
                // reduce tree, every apply and swap after it. The Swap
                // tasks handle all other columns.
                let [mut panel] = unsafe { self.mat.blocks([(base, base, m - base, jb)]) };
                apply_ipiv(panel.rb_mut(), &local);
                // The top block's rows fully determine their own
                // elimination — where a genuinely singular panel surfaces.
                let mut tau = self.taus[k].lock().expect("tau mutex");
                finish_top(panel.into_submatrix(0, 0, jb, jb), &mut tau, &mut MutexObs(&self.obs))
                    .map_err(rebase_singular(base))?;
                // SAFETY: the finish is the one writer of step k's slots,
                // and every reader, a Swap(k, ·), is ordered after it.
                unsafe { self.ipiv.publish(base, &local) };
                Ok(())
            }
            Task::PanelApply { chunk, .. } => {
                let rows = self.dag.panel_plan(k).chunk(chunk);
                // SAFETY: the apply owns its chunk's rows of block column
                // k; U₁₁ is stable under concurrent readers (sibling
                // applies and this step's trsms all read the top block).
                let [u11, l21] = unsafe {
                    self.mat
                        .blocks([(base, base, jb, jb), (base + rows.start, base, rows.len(), jb)])
                };
                let mut col_max = vec![T::ZERO; jb];
                lu_rows(u11.as_view(), l21, &mut col_max, &mut MutexObs(&self.obs))
                    .map_err(rebase_singular(base))?;
                self.taus[k].lock().expect("tau mutex").merge(&col_max);
                Ok(())
            }
            Task::Swap { j, .. } => {
                // SAFETY: Swap(k, j) follows PanelFinish(k), the writer of
                // step k's slots.
                let local = unsafe { self.ipiv.read_local(shape, k) };
                let cols = shape.update_col_range(k, j);
                // SAFETY: Swap(k,j) owns rows base..m of these columns.
                let [block] =
                    unsafe { self.mat.blocks([(base, cols.start, m - base, cols.len())]) };
                apply_ipiv(block, &local);
                Ok(())
            }
            Task::Trsm { j, .. } => {
                let cols = shape.update_col_range(k, j);
                // SAFETY: Trsm(k,j) owns rows base..base+jb of these
                // columns and (shared, read-only among readers that are
                // all ordered before the next writer) L₁₁ of column k.
                let [l11, u12] = unsafe {
                    self.mat.blocks([(base, base, jb, jb), (base, cols.start, jb, cols.len())])
                };
                trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11.as_view(), u12);
                Ok(())
            }
            Task::Gemm { i, j, .. } => {
                let rows = self.dag.panel_plan(k).update_chunk(i);
                let cols = shape.col_range(j);
                let (r0, nr) = (base + rows.start, rows.len());
                // SAFETY: Gemm(k,i,j) owns its chunk's rows of block column
                // j; L₂₁ and U₁₂ are stable until the swaps that are
                // DAG-ordered after every gemm of step k — so is the packed
                // copy of the chunk's L₂₁ that the first of them makes.
                let [u12, l21, mut c] = unsafe {
                    self.mat.blocks([
                        (base, cols.start, jb, cols.len()),
                        (r0, base, nr, jb),
                        (r0, cols.start, nr, cols.len()),
                    ])
                };
                match self.chunks.take(k, i, || PackedA::new(l21.as_view())) {
                    Some(packed) => {
                        gemm_packed(-T::ONE, &packed, u12.as_view(), T::ONE, c.rb_mut())
                    }
                    None => gemm(-T::ONE, l21.as_view(), u12.as_view(), T::ONE, c.rb_mut()),
                }
                if O::WATCHES_VALUES {
                    self.obs.lock().expect("observer mutex poisoned").on_stage(&c.as_view());
                }
                Ok(())
            }
            Task::Dist(_) | Task::Solve(_) => {
                unreachable!("factorization runner received a dist/solve task")
            }
        }
    }
}

/// In-place CALU scheduled by the task-graph runtime; same numerical
/// contract as [`calu_inplace`](crate::calu::calu_inplace) (factors and
/// pivots bitwise identical at every lookahead depth, on both executors,
/// for either `opts.panel_mode`), plus an [`ExecReport`] of what actually
/// ran where.
///
/// The observer sees the same events as the sequential sweep; only their
/// order differs (trailing-update stages arrive per update chunk, concurrent
/// with later panels; the per-step pivot thresholds arrive after the run,
/// in step order), so order-free implementations like
/// [`PivotStats`](crate::instrument::PivotStats) record identical
/// statistics.
///
/// # Errors
/// [`Error::SingularPivot`] with the **absolute** elimination step; all
/// tasks that had not started are canceled.
pub fn runtime_calu_inplace<T: Scalar, O: PivotObserver<T> + Send>(
    a: MatViewMut<'_, T>,
    opts: CaluOpts,
    rt: RuntimeOpts,
    obs: &mut O,
) -> Result<(Vec<usize>, ExecReport)> {
    factor_into(a, None, opts, rt, obs)
}

/// Factors into `a` on the runtime. With `src` (same shape) `a` may start
/// out unwritten: the step-0 elects copy `src` into it, leaf by leaf.
fn factor_into<T: Scalar, O: PivotObserver<T> + Send>(
    mut a: MatViewMut<'_, T>,
    src: Option<MatView<'_, T>>,
    opts: CaluOpts,
    rt: RuntimeOpts,
    obs: &mut O,
) -> Result<(Vec<usize>, ExecReport)> {
    assert!(opts.block > 0 && opts.p > 0, "block and p must be positive");
    debug_assert!(src.is_none_or(|s| (s.rows(), s.cols()) == (a.rows(), a.cols())));
    let shape = LuShape { m: a.rows(), n: a.cols(), nb: opts.block };
    let mut ipiv = vec![0usize; shape.m.min(shape.n)];
    let dag = LuDag::build_panels(shape, rt.lookahead, opts.panel_mode, opts.p);
    let plans = (0..shape.steps()).map(|k| dag.panel_plan(k));
    let runner = LuRunner {
        mat: SharedMat::new(&mut a),
        src,
        ipiv: SharedIpiv::new(&mut ipiv),
        dag: &dag,
        local: opts.local,
        slots: plans
            .clone()
            .map(|p| p.leaves().iter().map(|_| Mutex::new(None)).collect())
            .collect(),
        taus: plans.map(|p| Mutex::new(PanelTau::new(p.jb()))).collect(),
        chunks: SharedChunks::new(&dag),
        obs: Mutex::new(obs),
    };
    let run = rt.executor.execute(&dag, &runner);
    let LuRunner { taus, chunks, obs, .. } = runner;
    chunks.release();
    let report = run?;
    let obs = obs.into_inner().expect("observer mutex poisoned");
    for tau in taus {
        tau.into_inner().expect("tau mutex").emit(obs);
    }
    Ok((ipiv, report))
}

/// Factors a copy of `a` on the runtime; see [`runtime_calu_inplace`].
///
/// There is no up-front clone: each step-0 `PanelElect` copies its leaf's
/// whole rows from `a` into the zeroed output before electing on them, so
/// the copy runs on the leaves in parallel (the module doc says why that
/// is sound).
///
/// # Errors
/// Singular pivot (exact zero) at the reported absolute step.
pub fn runtime_calu_factor<T: Scalar>(
    a: &Matrix<T>,
    opts: CaluOpts,
    rt: RuntimeOpts,
) -> Result<(LuFactors<T>, ExecReport)> {
    let mut lu = Matrix::zeros(a.rows(), a.cols());
    let (ipiv, report) = factor_into(lu.view_mut(), Some(a.view()), opts, rt, &mut NoObs)?;
    Ok((LuFactors { lu, ipiv }, report))
}

/// [`runtime_calu_factor`], its factors returned in `opts.block`-square
/// tiles. There is no tile-backed execution path: the runtime factors the
/// flat copy and the result is converted after the run. This wrapper is
/// kept only because the repository benchmark's `Variant::Tiles`
/// (`core.rt.tiles_op_ms`) calls it; the `benchmark`-only PR of ROADMAP
/// item 0(b) removes that variant, and this function with it.
///
/// # Errors
/// Singular pivot (exact zero) at the reported absolute step.
pub fn runtime_calu_tiles_factor<T: Scalar>(
    a: &Matrix<T>,
    opts: CaluOpts,
    rt: RuntimeOpts,
) -> Result<(TileMatrix<T>, Vec<usize>, ExecReport)> {
    let (f, report) = runtime_calu_factor(a, opts, rt)?;
    Ok((TileMatrix::from_matrix(&f.lu, opts.block, opts.block), f.ipiv, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::chunk_census;
    use crate::calu::{calu_factor, calu_inplace};
    use crate::instrument::PivotStats;
    use calu_matrix::gen;
    use calu_runtime::PanelMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn executors() -> [ExecutorKind; 3] {
        [
            ExecutorKind::Serial,
            ExecutorKind::Threaded { threads: 2 },
            ExecutorKind::Threaded { threads: 4 },
        ]
    }

    /// `(m, n, block, p)`: square, ragged, wide, and — so that several
    /// leaves, a fold-in match (p = 3, 5) and several apply chunks are in
    /// play — tall-skinny shapes of more than 4096 rows per panel.
    const SHAPES: [(usize, usize, usize, usize); 12] = [
        (96, 96, 16, 4),
        (130, 130, 32, 8),
        // 256-row update chunks and a ragged last one, a tile fewer per step.
        (300, 300, 16, 4),
        // 280-row update chunks, one straddling the two 4080-row apply chunks.
        (4400, 80, 40, 5),
        (64, 64, 64, 4), // single panel: no lookahead at all
        (40, 40, 64, 4), // block bigger than the matrix
        (100, 60, 16, 4),
        (60, 100, 16, 4),
        (97, 97, 16, 3), // ragged edge tiles in both dimensions
        (4100, 40, 16, 5),
        (2050, 96, 32, 3),
        (8300, 24, 8, 1),
    ];

    /// Every shape x mode x depth x executor against the sequential sweep,
    /// bitwise.
    #[test]
    fn runtime_matches_sequential_bitwise_all_depths_and_executors() {
        let mut rng = StdRng::seed_from_u64(900);
        for &(m, n, b, p) in &SHAPES {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
                let opts = CaluOpts { block: b, p, panel_mode, ..Default::default() };
                let seq = calu_factor(&a0, opts).unwrap();
                for depth in 1..=3 {
                    for executor in executors() {
                        let rt = RuntimeOpts { lookahead: depth, executor };
                        let what =
                            format!("{m}x{n} b={b} p={p} {panel_mode:?} d={depth} {executor:?}");
                        let (f, rep) = runtime_calu_factor(&a0, opts, rt).unwrap();
                        assert_eq!(seq.ipiv, f.ipiv, "{what}");
                        assert_eq!(
                            seq.lu.max_abs_diff(&f.lu),
                            0.0,
                            "{what}: factors must be bitwise identical to sequential"
                        );
                        assert_eq!(rep.order.len(), rep.timings.len());
                    }
                }
            }
        }
    }

    /// `runtime_calu_factor` copies its input inside step 0's elects: the
    /// result must be bit for bit the in-place runtime on a clone and the
    /// sequential sweep — the same pivots and factor bits, or the same
    /// error — with `-0.0`, subnormals and a non-finite entry in the input,
    /// on every shape, fewer rows than leaves, single rows and columns, and
    /// empty matrices.
    #[test]
    fn step0_copy_is_bitwise_the_inplace_and_sequential_factor() {
        type Bits = Result<(Vec<usize>, Vec<u64>)>;
        let bits = |lu: &Matrix, ipiv: Vec<usize>| -> (Vec<usize>, Vec<u64>) {
            (ipiv, lu.as_slice().iter().map(|x| x.to_bits()).collect())
        };
        let degenerate = [
            (3, 10, 4, 8), // fewer rows than leaves
            (1, 40, 16, 4),
            (40, 1, 16, 4),
            (0, 12, 8, 4),
            (12, 0, 8, 4),
            (0, 0, 8, 4),
        ];
        let finite = [-0.0, 5e-324, -1e-310, f64::MIN_POSITIVE / 3.0];
        let non_finite = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut rng = StdRng::seed_from_u64(915);
        for (s, &(m, n, b, p)) in SHAPES.iter().chain(&degenerate).enumerate() {
            let mut a0: Matrix = gen::randn(&mut rng, m, n);
            let len = m * n;
            // Special values spread over the rows and columns; one
            // non-finite entry more in the second input.
            if len > 0 {
                for (t, &v) in finite.iter().enumerate() {
                    a0.as_mut_slice()[(t * len / finite.len() + t).min(len - 1)] = v;
                }
            }
            let mut a1 = a0.clone();
            if len > 0 {
                a1.as_mut_slice()[(s * 7919) % len] = non_finite[s % non_finite.len()];
            }
            for a in [&a0, &a1] {
                for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
                    let opts = CaluOpts { block: b, p, panel_mode, ..Default::default() };
                    let seq: Bits = calu_factor(a, opts).map(|f| bits(&f.lu, f.ipiv));
                    for executor in executors() {
                        let rt = RuntimeOpts { lookahead: 2, executor };
                        let what = format!("{m}x{n} b={b} p={p} {panel_mode:?} {executor:?}");
                        let copied: Bits =
                            runtime_calu_factor(a, opts, rt).map(|(f, _)| bits(&f.lu, f.ipiv));
                        let mut w = a.clone();
                        let inplace: Bits =
                            runtime_calu_inplace(w.view_mut(), opts, rt, &mut NoObs)
                                .map(|(ipiv, _)| bits(&w, ipiv));
                        assert_eq!(copied, seq, "{what}: copy path vs sequential");
                        assert_eq!(inplace, seq, "{what}: in place vs sequential");
                    }
                }
            }
        }
    }

    /// A packed `L₂₁` chunk lives from the first of its `Gemm` tasks to the
    /// last, and the lookahead throttle keeps at most `depth + 1` steps'
    /// updates in flight: no more than that many steps' chunks are ever
    /// live, none is held when a run completes (the last `Gemm` of each
    /// chunk released it), none is live after the call — also when a zero
    /// column in block column 3 cancels the run while chunks are held — and
    /// the factors (or the error) are the sequential ones, at every depth on
    /// both executors.
    fn check_chunk_census(rng: &mut StdRng, (m, n, b, p): (usize, usize, usize, usize)) {
        let a0: Matrix = gen::randn(rng, m, n);
        let mut singular = a0.clone();
        if 3 * b < n {
            singular.view_mut().submatrix_mut(0, 3 * b, m, 1).fill(0.0);
        }
        let opts = CaluOpts { block: b, p, ..Default::default() };
        for a in [&a0, &singular] {
            let seq = calu_factor(a, opts);
            for depth in 1..=3 {
                let dag = LuDag::build_panels(LuShape { m, n, nb: b }, depth, opts.panel_mode, p);
                let widest = (0..dag.shape().steps()).map(|k| dag.panel_plan(k).update_chunks());
                let bound = (depth + 1) * widest.max().unwrap_or(0);
                for executor in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 2 }] {
                    let rt = RuntimeOpts { lookahead: depth, executor };
                    let what = format!("{m}x{n} b={b} d={depth} {executor:?}");
                    let (f, census) =
                        chunk_census(|| runtime_calu_factor(a, opts, rt).map(|(f, _)| f));
                    assert_eq!(f, seq, "{what}");
                    assert!(census.high <= bound, "{what}: {census:?} > {bound} at once");
                    if f.is_ok() {
                        assert_eq!(census.held, 0, "{what}: chunks held after a full run");
                    }
                    assert_eq!(census.left, 0, "{what}: chunks live after the call");
                }
            }
        }
    }

    #[test]
    fn packed_chunks_are_bounded_and_released() {
        let mut rng = StdRng::seed_from_u64(916);
        for &shape in &SHAPES {
            check_chunk_census(&mut rng, shape);
        }
    }

    /// The benchmark's `square_factor` shape, where six chunks per step
    /// share 22 or fewer `Gemm` tasks each.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "about a minute unoptimized; CI runs it in release")]
    fn packed_chunks_are_bounded_and_released_at_1536() {
        check_chunk_census(&mut StdRng::seed_from_u64(917), (1536, 1536, 64, 4));
    }

    /// The benchmark's `Variant::Tiles` entry: the flat factors, bit for
    /// bit, in `block`-square tiles.
    #[test]
    fn tiles_factor_is_the_flat_factor_in_tiles() {
        let mut rng = StdRng::seed_from_u64(905);
        for &(m, n, b, p) in
            &[(97usize, 97usize, 16usize, 3usize), (100, 60, 16, 4), (4100, 40, 16, 5)]
        {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            let opts = CaluOpts { block: b, p, ..Default::default() };
            let seq = calu_factor(&a0, opts).unwrap();
            let (tiles, ipiv, _) =
                runtime_calu_tiles_factor(&a0, opts, RuntimeOpts::default()).unwrap();
            assert_eq!((tiles.layout().mb(), tiles.layout().nb()), (b, b));
            assert_eq!(seq.ipiv, ipiv, "{m}x{n}");
            assert_eq!(seq.lu, tiles.to_matrix(), "{m}x{n}: bitwise");
        }
    }

    #[test]
    fn f32_runtime_matches_sequential_bitwise() {
        let mut rng = StdRng::seed_from_u64(914);
        for &(m, n, b, p) in &[(97usize, 97usize, 16usize, 3usize), (4100, 40, 16, 5)] {
            let a0: Matrix<f32> = gen::randn(&mut rng, m, n);
            for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
                let opts = CaluOpts { block: b, p, panel_mode, ..Default::default() };
                let seq = calu_factor(&a0, opts).unwrap();
                for executor in executors() {
                    let rt = RuntimeOpts { lookahead: 2, executor };
                    let (f, _) = runtime_calu_factor(&a0, opts, rt).unwrap();
                    assert_eq!(seq, f, "{m}x{n} {panel_mode:?} {executor:?}");
                }
            }
        }
    }

    /// Sequential and runtime statistics of one matrix under `opts`.
    fn stats_pair(a0: &Matrix, opts: CaluOpts) -> (PivotStats, PivotStats) {
        let mut s_seq = PivotStats::new(a0.max_abs());
        let mut w = a0.clone();
        calu_inplace(w.view_mut(), opts, &mut s_seq).unwrap();

        let mut s_rt = PivotStats::new(a0.max_abs());
        let rt = RuntimeOpts { lookahead: 2, ..Default::default() };
        let mut w2 = a0.clone();
        runtime_calu_inplace(w2.view_mut(), opts, rt, &mut s_rt).unwrap();
        (s_seq, s_rt)
    }

    #[test]
    fn runtime_observer_stats_match_sequential() {
        let mut rng = StdRng::seed_from_u64(901);
        for &(m, n, b, p) in &[(120usize, 120usize, 24usize, 4usize), (4100, 40, 16, 3)] {
            let a0 = gen::randn(&mut rng, m, n);
            for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
                let opts = CaluOpts { block: b, p, panel_mode, ..Default::default() };
                let (s_seq, s_rt) = stats_pair(&a0, opts);
                let what = format!("{m}x{n} {panel_mode:?}");
                assert_eq!(s_seq.steps(), m.min(n), "one threshold per elimination step");
                assert_eq!(s_seq.steps(), s_rt.steps(), "{what}");
                assert_eq!(s_seq.thresholds, s_rt.thresholds, "{what}: threshold vector");
                assert_eq!(s_seq.tau_min(), s_rt.tau_min(), "{what}");
                assert_eq!(s_seq.tau_ave(), s_rt.tau_ave(), "{what}");
                assert_eq!(s_seq.max_elem, s_rt.max_elem, "{what}");
                assert_eq!(s_seq.max_l, s_rt.max_l, "{what}");
            }
        }
    }

    /// Factors and pivots of `calu_inplace`, `runtime_calu_inplace` and
    /// `tslu_factor` (on the first panel) under one observer, as bits.
    fn factors_under<O: PivotObserver + Send>(
        a0: &Matrix,
        opts: CaluOpts,
        obs: &mut O,
    ) -> [(Vec<usize>, Vec<u64>); 3] {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut seq = a0.clone();
        let seq_ipiv = calu_inplace(seq.view_mut(), opts, obs).unwrap();
        let mut rt = a0.clone();
        let rt_opts = RuntimeOpts { lookahead: 2, ..Default::default() };
        let (rt_ipiv, _) = runtime_calu_inplace(rt.view_mut(), opts, rt_opts, obs).unwrap();
        let width = opts.block.min(a0.cols()).min(a0.rows());
        let mut panel = a0.view().submatrix(0, 0, a0.rows(), width).to_matrix();
        let r = crate::tslu::tslu_factor(panel.view_mut(), opts.p, opts.local, obs).unwrap();
        let mut tslu_rows = r.ipiv;
        tslu_rows.extend(r.pivot_rows);
        [(seq_ipiv, bits(&seq)), (rt_ipiv, bits(&rt)), (tslu_rows, bits(&panel))]
    }

    /// `PivotStats` watches values, so every kernel under it keeps its
    /// column-by-column path; `NoObs` does not, so the kernels take their
    /// SIMD arm where the host has one. Same factors and pivots either way.
    #[test]
    fn observed_and_unobserved_factors_are_bitwise_equal() {
        let mut rng = StdRng::seed_from_u64(914);
        for &(m, n, b, p) in &SHAPES {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
                let opts = CaluOpts { block: b, p, panel_mode, ..Default::default() };
                let observed = factors_under(&a0, opts, &mut PivotStats::new(a0.max_abs()));
                let plain = factors_under(&a0, opts, &mut NoObs);
                for (what, (o, q)) in
                    ["calu", "runtime", "tslu"].iter().zip(observed.iter().zip(&plain))
                {
                    assert!(o == q, "{what} {m}x{n} b={b} p={p} {panel_mode:?}");
                }
            }
        }
    }

    #[test]
    fn thresholds_are_measured_against_the_full_column() {
        // tau_j = |u_jj| / max_i |a_ij^(j)| over *all* rows i >= j of the
        // panel, not just the top block the finish factors: the reported
        // minimum must equal 1 / max|L| (the largest multiplier is the
        // column maximum over its pivot), which only a full-column
        // denominator gives.
        let mut rng = StdRng::seed_from_u64(913);
        let a0 = gen::randn(&mut rng, 4100, 16);
        for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
            let opts = CaluOpts { block: 16, p: 4, panel_mode, ..Default::default() };
            let (_, s) = stats_pair(&a0, opts);
            assert!(s.max_l > 1.0, "tournament pivoting leaves some |l_ij| > 1 at this height");
            let ratio = s.tau_min() * s.max_l;
            assert!((ratio - 1.0).abs() < 1e-12, "{panel_mode:?}: tau_min * max|L| = {ratio}");
        }
    }

    #[test]
    fn runtime_singular_reports_absolute_step_and_cancels() {
        // Rank 20: every flavor must fail at absolute step 20 — the
        // failure surfaces inside PanelFinish's top-block elimination.
        let mut rng = StdRng::seed_from_u64(902);
        let b = gen::randn(&mut rng, 64, 20);
        let rank20 = Matrix::from_fn(64, 64, |i, j| if j < 20 { b[(i, j)] } else { 0.0 });
        // Rank 1 with exactly representable multipliers (the elected first
        // pivot is the last row, 32·(j+1)): the second elimination step
        // must fail whether it is discovered in the first panel or a
        // looked-ahead one.
        let rank1 = Matrix::from_fn(32, 32, |i, j| ((i + 1) * (j + 1)) as f64);
        for (a, step) in [(rank20, 20), (rank1, 1)] {
            for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
                let opts = CaluOpts { block: 8, p: 4, panel_mode, ..Default::default() };
                for depth in 1..=3 {
                    for executor in executors() {
                        let rt = RuntimeOpts { lookahead: depth, executor };
                        let err = runtime_calu_factor(&a, opts, rt).unwrap_err();
                        assert_eq!(
                            err,
                            Error::SingularPivot { step },
                            "flat {panel_mode:?} d={depth} {executor:?}: absolute step"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn runtime_unthrottled_depth_still_exact() {
        let mut rng = StdRng::seed_from_u64(903);
        let a0: Matrix = gen::randn(&mut rng, 144, 144);
        let opts = CaluOpts { block: 16, p: 4, ..Default::default() };
        let seq = calu_factor(&a0, opts).unwrap();
        let rt =
            RuntimeOpts { lookahead: 1_000_000, executor: ExecutorKind::Threaded { threads: 3 } };
        let (f, _) = runtime_calu_factor(&a0, opts, rt).unwrap();
        assert_eq!(seq.ipiv, f.ipiv);
        assert_eq!(seq.lu.max_abs_diff(&f.lu), 0.0);
    }

    #[test]
    fn runtime_report_covers_every_task() {
        let mut rng = StdRng::seed_from_u64(904);
        let a0: Matrix = gen::randn(&mut rng, 96, 96);
        let opts = CaluOpts { block: 32, p: 4, ..Default::default() };
        let (_, rep) = runtime_calu_factor(&a0, opts, RuntimeOpts::default()).unwrap();
        let dag = LuDag::build(LuShape { m: 96, n: 96, nb: 32 }, 1);
        assert_eq!(rep.order.len(), dag.len());
        assert!(rep.wall > 0.0);
        assert_eq!(rep.timings.len(), dag.len());
    }

    #[test]
    fn concurrent_and_nested_factorizations_stay_bitwise_sequential() {
        // Eight callers share the process's helper threads, and one more
        // factorization runs from inside a task body of another executor
        // run: all terminate, each on the sequential sweep's bits.
        let mut rng = StdRng::seed_from_u64(912);
        let a0: Matrix = gen::randn(&mut rng, 160, 160);
        let opts = CaluOpts { block: 16, p: 4, ..Default::default() };
        let seq = calu_factor(&a0, opts).unwrap();
        let rt = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 4 } };
        let check = || {
            let (f, _) = runtime_calu_factor(&a0, opts, rt).unwrap();
            assert_eq!(seq, f);
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| (0..10).for_each(|_| check()));
            }
            let outer = LuDag::build(LuShape { m: 64, n: 64, nb: 32 }, 1);
            let nested = |t: Task| {
                if t == (Task::PanelFinish { k: 0 }) {
                    check();
                }
                Ok(())
            };
            let rep = rt.executor.execute(&outer, &nested).unwrap();
            assert_eq!(rep.order.len(), outer.len());
        });
    }

    #[test]
    fn bits_do_not_depend_on_the_thread_count_or_the_run() {
        let mut rng = StdRng::seed_from_u64(911);
        let a0: Matrix = gen::randn(&mut rng, 2050, 48);
        for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
            let opts = CaluOpts { block: 24, p: 5, panel_mode, ..Default::default() };
            let rt1 = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 1 } };
            let (f1, _) = runtime_calu_factor(&a0, opts, rt1).unwrap();
            for threads in [2, 4, 4, 7] {
                let rt = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads } };
                let (f2, _) = runtime_calu_factor(&a0, opts, rt).unwrap();
                assert_eq!(f1, f2, "{panel_mode:?} threads={threads}");
            }
        }
    }
}
