//! The task DAG of blocked right-looking LU.
//!
//! [`LuDag::build`] emits, for any `(m, n, nb)`, the dependency graph of a
//! right-looking blocked factorization:
//!
//! * the **panel subgraph** of step `k` — TSLU on rows `k·nb..m` of block
//!   column `k`, shaped by that step's [`PanelPlan`]:
//!   [`Task::PanelElect`]`(k, leaf)` elects one tournament leaf's candidate
//!   rows, [`Task::PanelReduce`] folds two candidate sets (one per match of
//!   [`tournament_tree`](crate::tournament_tree)), [`Task::PanelFinish`]`(k)`
//!   swaps the winners to the top, factors the top `jb × jb` block and
//!   publishes the pivots, [`Task::PanelApply`]`(k, chunk)` forms a run of
//!   tiles of `L₂₁`;
//! * [`Task::Swap`]`(k, j)` — apply panel `k`'s pivot sequence to block
//!   column `j ≠ k` (rows `k·nb..m`);
//! * [`Task::Trsm`]`(k, j)` — `U₁₂ = L₁₁⁻¹ A₁₂` on block column `j > k`;
//! * [`Task::Gemm`]`(k, i, j)` — `A(i,j) -= L₂₁(i) · U₁₂(j)` on the rows
//!   of update chunk `i` ([`PanelPlan::update_chunk`]: a run of whole tiles
//!   of about 256 rows) in block column `j`. One `gemm` per task and run of
//!   storage, not one per tile: the arithmetic intensity of the task is
//!   raised, not the count of tasks.
//!
//! The edge set encodes exactly the data flow of the *sequential* sweep
//! (`calu_inplace`), including the orderings that are easy to miss:
//!
//! * **per-leaf gates**: `PanelElect(k, leaf)` waits only for the step
//!   `k − 1` update chunks its rows overlap, so elections start as the
//!   column drains; `PanelFinish(k)` — the first writer of the column — is
//!   ordered after every elect through the reduce tree, and each
//!   `Gemm(k, i, ·)` after every apply chunk that forms rows of update
//!   chunk `i`;
//! * **anti-dependence on `L`**: `Swap(k+1, k)` permutes rows of column
//!   block `k`, which every `Gemm(k, ·, ·)` still reads as `L₂₁` and every
//!   `PanelApply(k, ·)` writes — so the first left-swap of a column waits
//!   for *all* of them;
//! * **lookahead throttle**: with lookahead depth `d`, the elects of step
//!   `k` carry edges from every task of step `k − d − 1`, so panels run at
//!   most `d` steps ahead of the slowest trailing update. Depth 1 is the
//!   HPL-style schedule; larger depths let later panels start while step
//!   `k`'s bulk `gemm`s drag on.
//!
//! Any topological execution of the DAG produces **bitwise identical**
//! factors to the sequential sweep run with the same [`PanelMode`] and `p`:
//! every read/write overlap is ordered by an edge, row and column splits of
//! `gemm`/`trsm`/row-swaps are per-element reorderings that do not change
//! the fixed k-accumulation order of the kernels, candidate sets are folded
//! in the tree's fixed order, and `L₂₁` rows are bitwise independent of one
//! another (`calu_matrix::lapack::lu_rows`).

use calu_netsim::MachineConfig;

use crate::panel::{PanelMode, PanelPlan, DEFAULT_TOURNAMENT_LEAVES};

/// Identifies a node in the DAG (index into [`LuDag::tasks`]).
pub(crate) type TaskId = usize;

/// One schedulable unit of work. Indices are in units of `nb`-wide blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Tournament leaf of panel `k`: elect the `≤ jb` candidate pivot rows
    /// of one leaf of the step's [`PanelPlan`] by local LU on a copy of the
    /// leaf's rows (the panel itself is only read).
    PanelElect {
        /// Panel step.
        k: usize,
        /// Leaf index into [`PanelPlan::leaves`].
        leaf: usize,
    },
    /// One match of panel `k`'s tournament (`crate::TreeMatch`): fold the
    /// candidate set in slot `hi` into the one in slot `lo`.
    PanelReduce {
        /// Panel step.
        k: usize,
        /// Tournament round (`≥ 1`).
        round: usize,
        /// Slot of the lower candidate set, and of the result.
        lo: usize,
        /// Slot of the higher candidate set.
        hi: usize,
    },
    /// Root of panel `k`'s subgraph: swap the tournament winners to the top
    /// of the panel's block column, factor the top `jb × jb` block
    /// (`L₁₁\U₁₁`) and publish the pivot sequence — the step where a
    /// genuinely singular panel surfaces.
    PanelFinish {
        /// Panel step.
        k: usize,
    },
    /// `L₂₁` formation for one chunk of panel `k`'s rows below the top
    /// block (a run of tiles): `rows ← rows · U₁₁⁻¹`.
    PanelApply {
        /// Panel step.
        k: usize,
        /// Chunk index into [`PanelPlan::chunks`].
        chunk: usize,
    },
    /// Apply panel `k`'s pivot swaps to rows `k·nb..m` of block column `j`.
    Swap {
        /// Panel step whose pivots are applied.
        k: usize,
        /// Target block column (`j < k`: finished `L` columns; `j > k`:
        /// not-yet-factored columns; `j == k`: the remainder of the
        /// panel's own block column when the final panel is narrower than
        /// `nb` — see [`LuShape::update_col_range`]).
        j: usize,
    },
    /// Triangular solve producing the `U₁₂` slice of block column `j` for
    /// step `k` (`j > k`, or `j == k` for the ragged-panel remainder).
    Trsm {
        /// Panel step providing `L₁₁`.
        k: usize,
        /// Target block column.
        j: usize,
    },
    /// Trailing update of step `k` on the rows of update chunk `i` in block
    /// column `j` (`j > k`).
    Gemm {
        /// Panel step providing `L₂₁` and `U₁₂`.
        k: usize,
        /// Update chunk index into step `k`'s [`PanelPlan::update_chunk`].
        i: usize,
        /// Target block column.
        j: usize,
    },
    /// A distributed-memory task of the 2D block-cyclic DAG
    /// ([`LuDag::build_dist`]): per-rank compute or an explicit
    /// communication task (panel broadcast, TSLU reduce leg, pivot-row
    /// exchange, …) carrying its owning rank. Never emitted by the
    /// shared-memory [`LuDag::build`].
    Dist(DistTask),
    /// A task of the solve-phase DAG ([`LuDag::build_solve`]): blocked
    /// `laswp`/`trsm` application of completed LU factors to a block of
    /// right-hand sides. Never emitted by the factorization builders.
    Solve(SolveTask),
}

/// One task of the triangular-solve DAG ([`LuDag::build_solve`]): apply
/// completed factors `P L U` to block column `j` of a multi-RHS matrix.
/// `k` is the diagonal (row) block the task pivots around, `i` the target
/// row block of an off-diagonal update (`i == k` for diagonal tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveTask {
    /// What the task does.
    pub(crate) kind: SolveKind,
    /// Diagonal row-block index (0 for `Piv`).
    pub(crate) k: u32,
    /// Target row block of an off-diagonal update; `== k` otherwise.
    pub(crate) i: u32,
    /// RHS block column.
    pub(crate) j: u32,
}

/// Task kinds of the solve DAG, in the order a `getrs` sweep applies
/// them: row swaps, then forward substitution with unit-lower `L`
/// (diagonal `TrsmL` blocks and trailing `GemmL` updates), then backward
/// substitution with upper `U` (`TrsmU` / `GemmU`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SolveKind {
    /// Apply the factorization's full pivot sequence to RHS block
    /// column `j` (`laswp`).
    Piv,
    /// Forward-substitute the diagonal block: `X(k,j) := L(k,k)⁻¹ X(k,j)`
    /// (unit lower).
    TrsmL,
    /// Forward update of row block `i > k`:
    /// `X(i,j) -= L(i,k) · X(k,j)`.
    GemmL,
    /// Back-substitute the diagonal block: `X(k,j) := U(k,k)⁻¹ X(k,j)`
    /// (non-unit upper).
    TrsmU,
    /// Backward update of row block `i < k`:
    /// `X(i,j) -= U(i,k) · X(k,j)`.
    GemmU,
}

/// One task of the distributed (2D block-cyclic) DAG. The `rank` tag is
/// the owning rank in column-major grid order (`rank = pcol·Pr + prow`,
/// the BLACS "C" order `calu_netsim::Grid` uses); cross-rank data flow is
/// realized as send/recv task pairs whose edges are the wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DistTask {
    /// What the task does (and which side of a comm pair it is).
    pub kind: DistKind,
    /// Elimination step (block column index, units of `nb`).
    pub k: u32,
    /// Kind-specific index: target block column for
    /// `Swap`/`Trsm`/`USend`/`URecv`/`Gemm`, butterfly leg for `TsluLeg`,
    /// unused (0) otherwise.
    pub j: u32,
    /// Owning rank (column-major grid order).
    pub rank: u32,
}

/// Task kinds of the distributed DAG. Compute kinds run real kernels on
/// the owning rank's block-cyclic tiles; communication kinds carry modeled
/// `α + w·β` costs and stage/consume data across ranks (send/recv pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistKind {
    /// TSLU phase 1a: local candidate election on one member of the
    /// panel-owning process column.
    Cand,
    /// One leg of TSLU's butterfly all-reduce of candidate sets along the
    /// process column (`j` = leg index): a pairwise sendrecv plus the
    /// redundant tournament combine.
    TsluLeg,
    /// The whole `PDGETF2` panel of the `PDGETRF` baseline: per column a
    /// scan, a column-combine, a pivot-row exchange, and a rank-1 update —
    /// a serialized picket fence modeled as one task on the diagonal rank,
    /// run as a collective of every rank of the process column (which the
    /// column-barrier edges order).
    PanelGetf2,
    /// Send half of the swap-list broadcast along the owning process row.
    PivSend,
    /// Recv half of the swap-list broadcast on one non-root rank.
    PivRecv,
    /// Pivot-row exchange: apply panel `k`'s row swaps to block column `j`
    /// across the owning process column, one task per column block, run as
    /// a collective of that column's ranks.
    Swap,
    /// Send half of the post-swap `W` block broadcast down the process
    /// column (CALU second pass).
    WSend,
    /// CALU second pass on one panel-column member: redundant `W = L₁₁U₁₁`
    /// factorization plus the local `L₂₁ = A₂₁U₁₁⁻¹` solve.
    Second,
    /// Send half of the packed-panel broadcast along the process row (one
    /// per process row — each row carries its own panel rows).
    PanelSend,
    /// Recv half of the packed-panel broadcast on one non-root rank.
    PanelRecv,
    /// `U₁₂` triangular solve for block column `j` on the diagonal
    /// process row.
    Trsm,
    /// Send half of the `U₁₂` broadcast down the process column.
    USend,
    /// Recv half of the `U₁₂` broadcast on one non-diagonal process row.
    URecv,
    /// Local trailing `gemm` of block column `j` on one rank (all its
    /// owned row tiles).
    Gemm,
}

impl Task {
    /// The elimination step this task belongs to.
    pub fn step(&self) -> usize {
        match *self {
            Task::PanelElect { k, .. }
            | Task::PanelReduce { k, .. }
            | Task::PanelFinish { k }
            | Task::PanelApply { k, .. }
            | Task::Swap { k, .. }
            | Task::Trsm { k, .. }
            | Task::Gemm { k, .. } => k,
            Task::Dist(d) => d.k as usize,
            Task::Solve(s) => s.k as usize,
        }
    }

    /// The rank this task's work is attributed to — the trace exporter's
    /// `pid` lane. Distributed tasks carry their owning grid rank;
    /// shared-memory and solve tasks all run in one address space (rank 0).
    pub(crate) fn trace_rank(&self) -> u32 {
        match *self {
            Task::Dist(d) => d.rank,
            _ => 0,
        }
    }

    /// Stable kind slug for the trace exporter's `cat` field (Chrome and
    /// Perfetto group and filter events by category).
    pub fn cat(&self) -> &'static str {
        match *self {
            Task::PanelElect { .. } => "panel_elect",
            Task::PanelReduce { .. } => "panel_reduce",
            Task::PanelFinish { .. } => "panel_finish",
            Task::PanelApply { .. } => "panel_apply",
            Task::Swap { .. } => "swap",
            Task::Trsm { .. } => "trsm",
            Task::Gemm { .. } => "gemm",
            Task::Dist(d) => match d.kind {
                DistKind::Cand => "cand",
                DistKind::TsluLeg => "tslu_leg",
                DistKind::PanelGetf2 => "panel_getf2",
                DistKind::PivSend => "piv_send",
                DistKind::PivRecv => "piv_recv",
                DistKind::Swap => "swap",
                DistKind::WSend => "w_send",
                DistKind::Second => "second",
                DistKind::PanelSend => "panel_send",
                DistKind::PanelRecv => "panel_recv",
                DistKind::Trsm => "trsm",
                DistKind::USend => "u_send",
                DistKind::URecv => "u_recv",
                DistKind::Gemm => "gemm",
            },
            Task::Solve(s) => match s.kind {
                SolveKind::Piv => "solve_piv",
                SolveKind::TrsmL => "solve_trsm_l",
                SolveKind::GemmL => "solve_gemm_l",
                SolveKind::TrsmU => "solve_trsm_u",
                SolveKind::GemmU => "solve_gemm_u",
            },
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Task::PanelElect { k, leaf } => write!(f, "PanelElect({k},{leaf})"),
            Task::PanelReduce { k, round, lo, hi } => {
                write!(f, "PanelReduce({k},r{round},{lo}+{hi})")
            }
            Task::PanelFinish { k } => write!(f, "PanelFinish({k})"),
            Task::PanelApply { k, chunk } => write!(f, "PanelApply({k},{chunk})"),
            Task::Swap { k, j } => write!(f, "Swap({k},{j})"),
            Task::Trsm { k, j } => write!(f, "Trsm({k},{j})"),
            Task::Gemm { k, i, j } => write!(f, "Gemm({k},{i},{j})"),
            Task::Dist(DistTask { kind, k, j, rank }) => {
                write!(f, "{kind:?}({k},{j})@r{rank}")
            }
            Task::Solve(SolveTask { kind, k, i, j }) => match kind {
                SolveKind::Piv => write!(f, "SolvePiv({j})"),
                SolveKind::TrsmL | SolveKind::TrsmU => write!(f, "Solve{kind:?}({k},{j})"),
                SolveKind::GemmL | SolveKind::GemmU => write!(f, "Solve{kind:?}({k},{i},{j})"),
            },
        }
    }
}

/// Block geometry of an `m × n` matrix factored with panel width `nb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuShape {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Panel width (block size).
    pub nb: usize,
}

impl LuShape {
    /// Number of panel steps, `⌈min(m,n)/nb⌉`.
    pub fn steps(&self) -> usize {
        self.m.min(self.n).div_ceil(self.nb)
    }

    /// Number of block columns, `⌈n/nb⌉`.
    pub fn col_blocks(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Number of block rows, `⌈m/nb⌉`.
    pub(crate) fn row_blocks(&self) -> usize {
        self.m.div_ceil(self.nb)
    }

    /// Width of panel `k` (`nb`, except possibly the last step).
    pub fn panel_width(&self, k: usize) -> usize {
        self.nb.min(self.m.min(self.n) - k * self.nb)
    }

    /// Column range of block column `j`.
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        j * self.nb..self.n.min((j + 1) * self.nb)
    }

    /// The columns a `Swap(k, j)`/`Trsm(k, j)`/`Gemm(k, ·, j)` task
    /// touches: the whole block column for `j ≠ k`, or — when a ragged
    /// final panel leaves its block column partially unfactored — the
    /// remainder right of the panel for `j == k`.
    pub fn update_col_range(&self, k: usize, j: usize) -> std::ops::Range<usize> {
        let r = self.col_range(j);
        if j == k {
            (k * self.nb + self.panel_width(k)).min(r.end)..r.end
        } else {
            r
        }
    }
}

/// Scheduling priority: lexicographically smaller runs first among ready
/// tasks. The encoding is critical-path-first: all work on block column
/// `j` outranks work on columns right of it, so the column feeding the
/// next panel drains before the bulk — the generalization of HPL's
/// look-ahead. Left swaps (pivot fix-up of finished `L` columns) are off
/// the critical path and sort last.
pub(crate) type Prio = (u32, u8, u32, u32);

fn priority(shape: &LuShape, t: Task) -> Prio {
    let cb = shape.col_blocks() as u32;
    match t {
        // The panel subgraph comes first among step-k work; within it the
        // reduction spine drains root-ward first: finish, then reduces
        // (later round = closer to the root = smaller), then elects, then
        // the L₂₁ applies.
        Task::PanelFinish { k } => (k as u32, 0, 0, 0),
        Task::PanelReduce { k, round, .. } => (k as u32, 0, 1, u32::MAX - round as u32),
        Task::PanelElect { k, leaf } => (k as u32, 0, 2, leaf as u32),
        Task::PanelApply { k, chunk } => (k as u32, 0, 3, chunk as u32),
        Task::Swap { k, j } if j >= k => (j as u32, 1, k as u32, 0),
        Task::Trsm { k, j } => (j as u32, 2, k as u32, 0),
        Task::Gemm { k, i, j } => (j as u32, 3, k as u32, i as u32),
        Task::Swap { k, j } => (cb + k as u32, 4, j as u32, 0),
        Task::Dist(d) => dist_priority(cb, d),
        Task::Solve(s) => solve_priority(shape, s),
    }
}

/// Column-drain priorities for the solve DAG: all work on RHS block
/// column `j` outranks columns right of it (so a coalesced batch streams
/// whole solutions out instead of interleaving every column's forward
/// phase), the forward sweep outranks the backward sweep, and within a
/// sweep the diagonal chain (`TrsmL`/`TrsmU`) outranks the bulk updates
/// that hang off it — the same critical-path-first shape as the
/// factorization priorities.
fn solve_priority(shape: &LuShape, s: SolveTask) -> Prio {
    let kb = shape.row_blocks() as u32;
    let SolveTask { kind, k, i, j } = s;
    match kind {
        SolveKind::Piv => (j, 0, 0, 0),
        SolveKind::TrsmL => (j, 1, k, 0),
        SolveKind::GemmL => (j, 1, k, 1 + i),
        SolveKind::TrsmU => (j, 2, kb - 1 - k, 0),
        SolveKind::GemmU => (j, 2, kb - 1 - k, 1 + i),
    }
}

/// Critical-path-first priorities for the distributed task kinds: the
/// panel chain of step `k` (election, reduce legs, second pass, list and
/// panel broadcasts) outranks trailing work, per-column work on block
/// column `j` outranks columns right of it, left pivot fix-ups sort last —
/// the same encoding as the shared-memory DAG, with comm legs slotted into
/// their producing chain.
fn dist_priority(cb: u32, d: DistTask) -> Prio {
    use DistKind::*;
    let DistTask { kind, k, j, rank } = d;
    match kind {
        Cand | PanelGetf2 => (k, 0, 0, rank),
        TsluLeg => (k, 0, 1 + j, rank),
        WSend => (k, 1, 0, rank),
        Second => (k, 1, 1, rank),
        PivSend => (k, 1, 2, rank),
        PivRecv => (k, 1, 3, rank),
        PanelSend => (k, 1, 4, rank),
        PanelRecv => (k, 1, 5, rank),
        Swap if j >= k => (j, 2, k, 0),
        Trsm => (j, 3, k, 0),
        USend => (j, 4, k, 0),
        URecv => (j, 4, k, 1 + rank),
        Gemm => (j, 5, k, rank),
        Swap => (cb + k, 6, j, 0),
    }
}

/// The dependency DAG of one blocked LU factorization — shared-memory
/// ([`LuDag::build`]) or distributed over a 2D block-cyclic grid
/// ([`LuDag::build_dist`]), where tasks are partitioned per rank and
/// cross-rank edges run through send/recv task pairs.
#[derive(Debug, Clone)]
pub struct LuDag {
    shape: LuShape,
    lookahead: usize,
    tasks: Vec<Task>,
    prio: Vec<Prio>,
    succs: Vec<Vec<TaskId>>,
    dep_count: Vec<usize>,
    /// Number of ranks tasks are partitioned over (1 for shared memory).
    pub(crate) ranks: usize,
    /// Per-step panel geometry of a shared-memory factorization DAG (empty
    /// for distributed and solve DAGs, which have no panel subgraph).
    plans: Vec<PanelPlan>,
}

impl LuDag {
    /// Builds the DAG for an `m × n` factorization with panel width `nb`
    /// and the given panel lookahead depth (`≥ 1`; depths beyond the step
    /// count leave panels unthrottled), with [`PanelMode::Gathered`] panels
    /// over [`DEFAULT_TOURNAMENT_LEAVES`] block rows.
    ///
    /// # Panics
    /// If `nb == 0` or `lookahead == 0`.
    pub fn build(shape: LuShape, lookahead: usize) -> Self {
        Self::build_with(shape, lookahead, PanelMode::Gathered)
    }

    /// [`LuDag::build`] with an explicit [`PanelMode`].
    ///
    /// # Panics
    /// If `nb == 0` or `lookahead == 0`.
    pub fn build_with(shape: LuShape, lookahead: usize, mode: PanelMode) -> Self {
        Self::build_panels(shape, lookahead, mode, DEFAULT_TOURNAMENT_LEAVES)
    }

    /// [`LuDag::build_with`] for a tournament over `p` block rows — the
    /// builder the algorithm layer calls with its `CaluOpts::p`. Step `k`'s
    /// panel subgraph is laid out by
    /// `PanelPlan::new(m − k·nb, jb, nb, p, mode)` ([`LuDag::panel_plan`]).
    ///
    /// # Panics
    /// If `nb == 0`, `lookahead == 0` or `p == 0`.
    pub fn build_panels(shape: LuShape, lookahead: usize, mode: PanelMode, p: usize) -> Self {
        assert!(shape.nb > 0, "panel width nb must be positive");
        assert!(lookahead > 0, "lookahead depth must be at least 1");
        let steps = shape.steps();
        let cb = shape.col_blocks();
        let nb = shape.nb;
        let plans: Vec<PanelPlan> = (0..steps)
            .map(|k| PanelPlan::new(shape.m - k * nb, shape.panel_width(k), nb, p, mode))
            .collect();

        let mut tasks: Vec<Task> = Vec::new();
        let mut id_of = std::collections::HashMap::new();
        let mut by_step: Vec<Vec<TaskId>> = vec![Vec::new(); steps];
        let mut push = |t: Task, tasks: &mut Vec<Task>, by_step: &mut Vec<Vec<TaskId>>| {
            let id = tasks.len();
            tasks.push(t);
            by_step[t.step()].push(id);
            id_of.insert(t, id);
            id
        };
        // Edges as (from, to) pairs; deduped in `from_parts`. The panel
        // subgraph's internal edges are pushed as its tasks are created.
        let mut edges: Vec<(TaskId, TaskId)> = Vec::new();

        for (k, plan) in plans.iter().enumerate() {
            // `producer[slot]` is the task whose completion leaves slot's
            // current candidate set in place: the leaf's elect, then each
            // match that folds into it.
            let mut producer: Vec<TaskId> = (0..plan.leaves().len())
                .map(|leaf| push(Task::PanelElect { k, leaf }, &mut tasks, &mut by_step))
                .collect();
            for m in plan.tree() {
                let reduce = Task::PanelReduce { k, round: m.round, lo: m.lo, hi: m.hi };
                let id = push(reduce, &mut tasks, &mut by_step);
                edges.push((producer[m.lo], id));
                edges.push((producer[m.hi], id));
                producer[m.lo] = id;
            }
            // The tournament root feeds the finish; every elect reaches it
            // through the tree, so the winner swaps are exclusive.
            let finish = push(Task::PanelFinish { k }, &mut tasks, &mut by_step);
            edges.push((producer[0], finish));
            for chunk in 0..plan.chunks().len() {
                let apply = push(Task::PanelApply { k, chunk }, &mut tasks, &mut by_step);
                edges.push((finish, apply));
            }
            for j in 0..k {
                push(Task::Swap { k, j }, &mut tasks, &mut by_step);
            }
            // Right of the panel: swap, trsm, and (when trailing rows
            // exist) one gemm per update chunk. Whenever a step has both
            // trailing rows and columns its width is exactly nb, so
            // trailing rows start on the block grid at row (k+1)·nb.
            let jb = shape.panel_width(k);
            if jb < nb && k * nb + jb < shape.n {
                // Ragged final panel in a wide matrix: the rest of the
                // panel's own block column still needs swap + trsm.
                push(Task::Swap { k, j: k }, &mut tasks, &mut by_step);
                push(Task::Trsm { k, j: k }, &mut tasks, &mut by_step);
            }
            let has_rows_below = k * nb + jb < shape.m;
            for j in k + 1..cb {
                push(Task::Swap { k, j }, &mut tasks, &mut by_step);
                push(Task::Trsm { k, j }, &mut tasks, &mut by_step);
                if has_rows_below {
                    debug_assert_eq!(jb, nb, "ragged panels have no trailing block");
                    for i in 0..plan.update_chunks() {
                        push(Task::Gemm { k, i, j }, &mut tasks, &mut by_step);
                    }
                }
            }
        }

        let id = |t: Task| -> TaskId { *id_of.get(&t).expect("edge endpoint exists") };
        for (tid, &t) in tasks.iter().enumerate() {
            match t {
                Task::PanelElect { k, leaf } => {
                    // Only the update chunks this leaf's rows overlap must
                    // be done through step k-1, whose panel starts one tile
                    // above this one.
                    if k > 0 {
                        let rows = &plans[k].leaves()[leaf];
                        for i in plans[k - 1].update_chunks_of(nb + rows.start..nb + rows.end) {
                            edges.push((id(Task::Gemm { k: k - 1, i, j: k }), tid));
                        }
                    }
                    // Lookahead throttle on the subgraph's entry tasks: wait
                    // for every task of step k - lookahead - 1.
                    if k > lookahead {
                        for &p in &by_step[k - lookahead - 1] {
                            edges.push((p, tid));
                        }
                    }
                }
                // Wired at creation.
                Task::PanelReduce { .. } | Task::PanelFinish { .. } | Task::PanelApply { .. } => {}
                Task::Swap { k, j } if j >= k => {
                    edges.push((id(Task::PanelFinish { k }), tid));
                    if k > 0 {
                        // Column j fully updated through step k-1 first.
                        for i in 0..plans[k - 1].update_chunks() {
                            edges.push((id(Task::Gemm { k: k - 1, i, j }), tid));
                        }
                    }
                }
                Task::Swap { k, j } => {
                    // j < k: pivot fix-up of a finished L column.
                    edges.push((id(Task::PanelFinish { k }), tid));
                    if j < k - 1 {
                        // Swaps on the same column do not commute.
                        edges.push((id(Task::Swap { k: k - 1, j }), tid));
                    } else {
                        // First left-swap of column j = k-1: anti-dependence
                        // on every reader and every per-chunk writer of the
                        // unswapped L₂₁ of step k-1.
                        for &gid in &by_step[k - 1] {
                            if matches!(tasks[gid], Task::Gemm { .. } | Task::PanelApply { .. }) {
                                edges.push((gid, tid));
                            }
                        }
                    }
                }
                Task::Trsm { k, j } => {
                    // The swap wrote the same rows; the panel finish is
                    // covered transitively (Swap ← PanelFinish).
                    edges.push((id(Task::Swap { k, j }), tid));
                }
                Task::Gemm { k, i, j } => {
                    // Trsm(k,j) produced U₁₂; Swap(k,j) (last writer of the
                    // rows) is transitive. L₂₁ of update chunk i comes from
                    // every apply chunk its rows overlap.
                    edges.push((id(Task::Trsm { k, j }), tid));
                    let rows = plans[k].update_chunk(i);
                    for chunk in plans[k].chunk_of(rows.start)..=plans[k].chunk_of(rows.end - 1) {
                        edges.push((id(Task::PanelApply { k, chunk }), tid));
                    }
                }
                Task::Dist(_) | Task::Solve(_) => {
                    unreachable!("factorization builder emits no dist/solve tasks")
                }
            }
        }
        let mut dag = Self::from_parts(shape, lookahead, tasks, edges, 1);
        dag.plans = plans;
        dag
    }

    /// Finishes construction from a raw task/edge list (shared by the
    /// distributed builder): dedupes edges, computes successor lists,
    /// predecessor counts, and priorities.
    pub(crate) fn from_parts(
        shape: LuShape,
        lookahead: usize,
        tasks: Vec<Task>,
        mut edges: Vec<(TaskId, TaskId)>,
        ranks: usize,
    ) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); tasks.len()];
        let mut dep_count = vec![0usize; tasks.len()];
        for (from, to) in edges {
            debug_assert!(from != to, "self edge on {}", tasks[from]);
            succs[from].push(to);
            dep_count[to] += 1;
        }
        let prio = tasks.iter().map(|&t| priority(&shape, t)).collect();
        LuDag { shape, lookahead, tasks, prio, succs, dep_count, ranks, plans: Vec::new() }
    }

    /// Number of ranks the tasks are partitioned over (1 for a
    /// shared-memory DAG).
    pub(crate) fn ranks(&self) -> usize {
        self.ranks
    }

    /// Owning rank of a task (column-major grid order; 0 for every
    /// shared-memory task).
    pub(crate) fn owner(&self, id: TaskId) -> usize {
        match self.tasks[id] {
            Task::Dist(d) => d.rank as usize,
            _ => 0,
        }
    }

    /// The block geometry this DAG was built for.
    pub fn shape(&self) -> &LuShape {
        &self.shape
    }

    /// The lookahead depth the panel throttle was built with.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Leaf and chunk geometry of step `k`'s panel subgraph — what the
    /// `leaf`/`lo`/`hi`/`chunk` indices of its tasks refer to.
    ///
    /// # Panics
    /// If `k` is not a step of a shared-memory factorization DAG.
    pub fn panel_plan(&self, k: usize) -> &PanelPlan {
        &self.plans[k]
    }

    /// All tasks; a `TaskId` indexes this slice.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the factorization is empty (`min(m,n) == 0`).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Scheduling priority of a task (smaller runs first).
    pub(crate) fn priority(&self, id: TaskId) -> Prio {
        self.prio[id]
    }

    /// Successor tasks unblocked (in part) by `id`'s completion.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id]
    }

    /// Per-task predecessor counts (cloned as the executors' countdown).
    pub(crate) fn dep_counts(&self) -> &[usize] {
        &self.dep_count
    }

    /// The deterministic order the serial executor replays: a topological
    /// sort that always picks the highest-priority ready task.
    pub fn serial_schedule(&self) -> Vec<TaskId> {
        let mut deps = self.dep_count.clone();
        let mut heap = std::collections::BinaryHeap::new();
        for (id, &d) in deps.iter().enumerate() {
            if d == 0 {
                heap.push(std::cmp::Reverse((self.prio[id], id)));
            }
        }
        let mut order = Vec::with_capacity(self.len());
        while let Some(std::cmp::Reverse((_, id))) = heap.pop() {
            order.push(id);
            for &s in &self.succs[id] {
                deps[s] -= 1;
                if deps[s] == 0 {
                    heap.push(std::cmp::Reverse((self.prio[s], s)));
                }
            }
        }
        assert_eq!(order.len(), self.len(), "DAG must be acyclic");
        order
    }

    /// Longest path through the DAG under a per-task cost model — the
    /// makespan of an infinitely parallel machine.
    pub fn critical_path(&self, cost: impl Fn(Task) -> f64) -> f64 {
        let order = self.serial_schedule();
        let mut finish = vec![0.0_f64; self.len()];
        let mut best = 0.0_f64;
        for id in order {
            let f = finish[id] + cost(self.tasks[id]);
            best = best.max(f);
            for &s in &self.succs[id] {
                if f > finish[s] {
                    finish[s] = f;
                }
            }
        }
        best
    }

    /// Sum of all task costs — the makespan of a one-worker machine.
    pub fn total_cost(&self, cost: impl Fn(Task) -> f64) -> f64 {
        self.tasks.iter().map(|&t| cost(t)).sum()
    }
}

/// Modeled execution time of one task under a [`MachineConfig`]'s γ-class
/// kernel rates (the same model `calu-netsim` charges simulated ranks).
/// Panel tasks are charged what their bodies run: a recursive (`rgetf2`)
/// local LU per leaf, a `2jb × jb` `getf2` per tournament match, the winner
/// swaps plus a `jb × jb` unpivoted LU in the finish, and a BLAS-3
/// triangular solve (`jb²·rows` flops at the `gemm` rate) per apply chunk.
pub fn modeled_time(dag: &LuDag, task: Task, mch: &MachineConfig) -> f64 {
    let shape = dag.shape();
    match task {
        Task::PanelElect { k, leaf } => {
            mch.t_rgetf2(dag.panel_plan(k).leaves()[leaf].len(), shape.panel_width(k))
        }
        Task::PanelReduce { k, .. } => {
            let jb = shape.panel_width(k);
            mch.t_getf2(2 * jb, jb)
        }
        Task::PanelFinish { k } => {
            let jb = shape.panel_width(k);
            mch.t_laswp(jb, jb) + mch.t_lu_nopiv(jb, jb)
        }
        Task::PanelApply { k, chunk } => {
            mch.t_trsm_right(dag.panel_plan(k).chunk(chunk).len(), shape.panel_width(k))
        }
        Task::Swap { k, j } => {
            let jb = shape.panel_width(k);
            mch.t_laswp(jb, shape.update_col_range(k, j).len())
        }
        Task::Trsm { k, j } => {
            mch.t_trsm_left(shape.panel_width(k), shape.update_col_range(k, j).len())
        }
        Task::Gemm { k, i, j } => mch.t_gemm(
            dag.panel_plan(k).update_chunk(i).len(),
            shape.col_range(j).len(),
            shape.panel_width(k),
        ),
        // Distributed tasks are costed by `dist::DistCostModel` (compute
        // plus α/β message terms); solve-phase tasks are O(n²) work the
        // benchmark's `serve_mixed` workload measures, not modeled.
        Task::Dist(_) | Task::Solve(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dag(m: usize, n: usize, nb: usize, d: usize) -> LuDag {
        LuDag::build(LuShape { m, n, nb }, d)
    }

    fn rdag(m: usize, n: usize, nb: usize, d: usize) -> LuDag {
        LuDag::build_with(LuShape { m, n, nb }, d, PanelMode::Resident)
    }

    fn find(g: &LuDag, t: Task) -> TaskId {
        g.tasks().iter().position(|&x| x == t).unwrap_or_else(|| panic!("{t} not in the DAG"))
    }

    fn count(g: &LuDag, cat: &str) -> usize {
        g.tasks().iter().filter(|t| t.cat() == cat).count()
    }

    const CATS: [&str; 7] =
        ["panel_elect", "panel_reduce", "panel_finish", "panel_apply", "swap", "trsm", "gemm"];

    fn census(g: &LuDag) -> [usize; 7] {
        CATS.map(|cat| count(g, cat))
    }

    /// The census (in `CATS` order) the shape and the step plans call for:
    /// per step the plan's leaves, matches and apply chunks and one finish;
    /// `k` left swaps; a swap and a trsm per block column right of the panel
    /// (and for the remainder of a ragged final panel's own block column);
    /// a gemm per update chunk and block column right of the panel.
    fn planned_census(g: &LuDag) -> [usize; 7] {
        let shape = g.shape();
        let mut c = [0; 7];
        for k in 0..shape.steps() {
            let plan = g.panel_plan(k);
            let right = shape.col_blocks() - (k + 1);
            let remainder = usize::from(!shape.update_col_range(k, k).is_empty());
            c[0] += plan.leaves().len();
            c[1] += plan.tree().len();
            c[2] += 1;
            c[3] += plan.chunks().len();
            c[4] += k + right + remainder;
            c[5] += right + remainder;
            c[6] += right * plan.update_chunks();
        }
        c
    }

    #[test]
    fn counts_match_closed_form_square() {
        // Square, s block columns, update chunks of t tiles: step k has
        // r = s-1-k block rows and columns left, so r right-swaps, r trsms,
        // k left swaps and r * ceil(r/t) gemms. Each step's panel is
        // min(4, rows) elects, one reduce fewer, one finish, and one apply
        // chunk whenever rows remain below the top block (4096-row chunks:
        // one covers everything here).
        for (n, nb) in [(128, 32), (640, 64), (1536, 64)] {
            let d = dag(n, n, nb, 1);
            let (s, t) = (n / nb, d.panel_plan(0).update_chunk(0).len().div_ceil(nb));
            let pairs = s * (s - 1) / 2;
            let gemms: usize = (1..s).map(|r| r * r.div_ceil(t)).sum();
            assert_eq!(census(&d), [4 * s, 3 * s, s, s - 1, 2 * pairs, pairs, gemms], "n={n}");
            assert_eq!(census(&d), planned_census(&d), "n={n}");
            assert_eq!(d.len(), census(&d).iter().sum::<usize>());
        }
        // One 256-row chunk covers a 96-row trailing matrix; 64-row tiles
        // come four to a chunk.
        assert_eq!(count(&dag(128, 128, 32, 1), "gemm"), 3 + 2 + 1);
        assert_eq!(dag(640, 640, 64, 1).panel_plan(0).update_chunks(), 3);
        // The benchmark's `square_factor`: 1043 panel, swap and trsm tasks
        // and 1186 gemms (4324 when a gemm was a tile).
        assert_eq!(dag(1536, 1536, 64, 1).len(), 2229);
    }

    #[test]
    fn resident_counts_follow_the_tile_grid() {
        // Tile-height leaves: t = 4-k elects and t-1 reduces per step;
        // everything else as gathered.
        let d = rdag(128, 128, 32, 1);
        assert_eq!(census(&d), [4 + 3 + 2 + 1, 3 + 2 + 1, 4, 3, 12, 6, 3 + 2 + 1]);
        assert_eq!(census(&d), planned_census(&d));
    }

    #[test]
    fn tall_and_ragged_counts_derive_from_the_plans() {
        for &(m, n, nb, p) in &[
            (65536, 128, 64, 4),
            (4400, 120, 40, 5), // update chunks of 7 tiles, apply chunks of 102
            (100, 40, 16, 3),   // ragged final panel, nothing right of it
            (60, 100, 16, 4),   // wide: the final panel's own block column has a remainder
            (97, 97, 16, 3),
            (700, 300, 24, 2),
        ] {
            for mode in [PanelMode::Gathered, PanelMode::Resident] {
                let g = LuDag::build_panels(LuShape { m, n, nb }, 2, mode, p);
                assert_eq!(census(&g), planned_census(&g), "{m}x{n} nb={nb} {mode:?}");
                assert_eq!(g.len(), census(&g).iter().sum::<usize>());
            }
        }
    }

    #[test]
    fn tall_panel_counts_derive_from_the_plan() {
        // 65536 x 128, nb 64: two steps of 4 elects + 3 reduces + 1 finish
        // + 16 apply chunks, beside step 0's swap, trsm and one gemm per
        // 256-row update chunk, and step 1's left swap.
        let d = dag(65536, 128, 64, 1);
        let gemms = d.panel_plan(0).update_chunks();
        assert_eq!(gemms, (65536usize - 64).div_ceil(256));
        assert_eq!(d.len(), 3 + gemms + 2 * (4 + 3 + 1 + 16));
        assert_eq!(d.len(), 307, "the benchmark's `tall_panel` (1074 when a gemm was a tile)");
        let r = rdag(65536, 128, 64, 1);
        assert_eq!(r.len(), 3 + gemms + (1024 + 1023 + 1 + 16) + (1023 + 1022 + 1 + 16));
    }

    #[test]
    fn wide_matrix_has_final_step_trsm_but_no_gemm() {
        let d = dag(64, 128, 32, 1);
        // Step 1 is the last (kn = 64): its panel bottoms out at row 64,
        // so columns 2..4 still get swap+trsm but no gemm.
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 1, j: 2 })));
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 1, j: 3 })));
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Gemm { k: 1, .. })));
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::PanelApply { k: 1, .. })));
    }

    #[test]
    fn ragged_wide_matrix_updates_the_panel_block_remainder() {
        // m=60, n=100, nb=16: final panel (k=3) is 12 wide; columns 60..64
        // of block column 3 still need swap + trsm at step 3.
        let d = dag(60, 100, 16, 1);
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Swap { k: 3, j: 3 })));
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 3, j: 3 })));
        assert_eq!(d.shape().update_col_range(3, 3), 60..64);
        assert_eq!(d.shape().update_col_range(3, 4), 64..80);
        // Steps with full-width panels have no remainder tasks.
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Swap { k: 0, j: 0 })));
    }

    #[test]
    fn tall_matrix_final_ragged_panel_has_no_trailing_tasks() {
        let d = dag(100, 40, 16, 2);
        // steps = ceil(40/16) = 3; final panel is 8 wide, no columns right.
        assert_eq!(d.shape().steps(), 3);
        assert_eq!(d.shape().panel_width(2), 8);
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 2, .. })));
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Gemm { k: 2, .. })));
        // Its rows below the 8 x 8 top block (40..100) still become L.
        assert_eq!(d.panel_plan(2).chunks().collect::<Vec<_>>(), vec![8..68]);
        assert!(d.tasks().iter().any(|t| matches!(t, Task::PanelApply { k: 2, chunk: 0 })));
    }

    #[test]
    fn schedules_are_topological_and_complete_in_both_modes() {
        for mode in [PanelMode::Gathered, PanelMode::Resident] {
            for &(m, n, nb, d, p) in &[
                (96, 96, 16, 1, 4),
                (96, 96, 16, 3, 3),
                (130, 70, 32, 2, 5),
                (70, 130, 32, 9, 4),
                (100, 60, 16, 2, 1),
                (9000, 40, 16, 1, 5),
            ] {
                let g = LuDag::build_panels(LuShape { m, n, nb }, d, mode, p);
                let order = g.serial_schedule();
                assert_eq!(order.len(), g.len());
                let mut pos = vec![0usize; g.len()];
                for (p, &id) in order.iter().enumerate() {
                    pos[id] = p;
                }
                for id in 0..g.len() {
                    for &s in g.successors(id) {
                        assert!(
                            pos[id] < pos[s],
                            "{} must precede {}",
                            g.tasks()[id],
                            g.tasks()[s]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lookahead_throttle_orders_panels_behind_old_gemms() {
        // With depth 1, every elect of step 3 must come after every task of
        // step 1 in any topological order; with a huge depth that edge
        // disappears.
        let g1 = dag(160, 160, 32, 1);
        for leaf in 0..g1.panel_plan(3).leaves().len() {
            let e3 = find(&g1, Task::PanelElect { k: 3, leaf });
            let throttled = (0..g1.len())
                .any(|id| g1.tasks()[id].step() == 1 && g1.successors(id).contains(&e3));
            assert!(throttled, "depth-1 throttle edge missing on leaf {leaf}");
        }
        let g9 = dag(160, 160, 32, 9);
        let e3 = find(&g9, Task::PanelElect { k: 3, leaf: 0 });
        let throttled = (0..g9.len()).any(|id| {
            matches!(g9.tasks()[id], Task::Gemm { k: 1, .. }) && g9.successors(id).contains(&e3)
        });
        assert!(!throttled, "deep lookahead must not throttle step 3 on step-1 gemms");
    }

    #[test]
    fn deeper_lookahead_shortens_the_critical_path() {
        let shape = LuShape { m: 1024, n: 1024, nb: 64 };
        let mch = MachineConfig::power5();
        let cp = |d: usize| {
            let g = LuDag::build(shape, d);
            g.critical_path(|t| modeled_time(&g, t, &mch))
        };
        let (c1, c2, c4) = (cp(1), cp(2), cp(4));
        assert!(c2 <= c1 + 1e-12, "depth 2 ({c2}) must not exceed depth 1 ({c1})");
        assert!(c4 <= c2 + 1e-12);
        // And the DAG exposes real parallelism against one worker.
        let g = LuDag::build(shape, 2);
        let total = g.total_cost(|t| modeled_time(&g, t, &mch));
        assert!(total / c2 > 2.0, "modeled parallelism {}", total / c2);
    }

    #[test]
    fn first_left_swap_waits_for_all_readers_and_writers_of_l() {
        // Swap(1, 0) must depend on every Gemm(0, ·, ·) and PanelApply(0, ·).
        for g in [dag(96, 96, 32, 1), rdag(96, 96, 32, 1), dag(9000, 96, 32, 1)] {
            let target = find(&g, Task::Swap { k: 1, j: 0 });
            for id in 0..g.len() {
                if matches!(g.tasks()[id], Task::Gemm { k: 0, .. } | Task::PanelApply { k: 0, .. })
                {
                    assert!(
                        g.successors(id).contains(&target),
                        "{} must precede Swap(1,0)",
                        g.tasks()[id]
                    );
                }
            }
        }
    }

    #[test]
    fn tree_edges_fold_candidates_to_the_finish() {
        // Five leaves: leaf 4 folds into slot 0 first, then slots 0..4
        // halve — exactly `tournament_tree(5)`.
        let g = LuDag::build_panels(LuShape { m: 160, n: 128, nb: 32 }, 1, PanelMode::Gathered, 5);
        let elect = |leaf| find(&g, Task::PanelElect { k: 0, leaf });
        let reduce = |round, lo, hi| find(&g, Task::PanelReduce { k: 0, round, lo, hi });
        let (fold, r01, r23, root) =
            (reduce(1, 0, 4), reduce(2, 0, 1), reduce(2, 2, 3), reduce(3, 0, 2));
        let fin = find(&g, Task::PanelFinish { k: 0 });
        assert!(g.successors(elect(0)).contains(&fold));
        assert!(g.successors(elect(4)).contains(&fold));
        assert!(g.successors(fold).contains(&r01), "slot 0's fold-in result feeds its next match");
        assert!(g.successors(elect(1)).contains(&r01));
        assert!(!g.successors(elect(0)).contains(&r01));
        assert!(g.successors(elect(2)).contains(&r23));
        assert!(g.successors(elect(3)).contains(&r23));
        assert!(g.successors(r01).contains(&root));
        assert!(g.successors(r23).contains(&root));
        assert!(g.successors(root).contains(&fin));
        // Applies hang off the finish and feed their rows' gemms.
        let a0 = find(&g, Task::PanelApply { k: 0, chunk: 0 });
        assert!(g.successors(fin).contains(&a0));
        assert!(g.successors(a0).contains(&find(&g, Task::Gemm { k: 0, i: 0, j: 1 })));
    }

    #[test]
    fn elects_gate_on_the_tiles_their_rows_touch() {
        // Step 1 of a 900-row matrix, nb 32: panel rows 32..900, p = 3
        // leaves of 290/289/289 rows = absolute 32..322, 322..611, 611..900.
        // Step 0's update chunks are 256 rows (8 tiles) from row 32:
        // 32..288, 288..544, 544..800, 800..900.
        let g = LuDag::build_panels(LuShape { m: 900, n: 160, nb: 32 }, 1, PanelMode::Gathered, 3);
        assert_eq!(g.panel_plan(0).update_chunks(), 4);
        let gates = |g: &LuDag, leaf: usize| -> Vec<usize> {
            let e = find(g, Task::PanelElect { k: 1, leaf });
            (0..4)
                .filter(|&i| g.successors(find(g, Task::Gemm { k: 0, i, j: 1 })).contains(&e))
                .collect()
        };
        assert_eq!(gates(&g, 0), vec![0, 1]);
        assert_eq!(gates(&g, 1), vec![1, 2]);
        assert_eq!(gates(&g, 2), vec![2, 3]);
        // Resident leaves are tiles, each inside one chunk: leaf 7 is rows
        // 256..288, the last tile of chunk 0; leaf 8 the first of chunk 1.
        let r = rdag(900, 160, 32, 1);
        assert_eq!(gates(&r, 7), vec![0]);
        assert_eq!(gates(&r, 8), vec![1]);
        assert_eq!(gates(&r, 27), vec![3]);
        // Finish is the panel boundary: swaps on both sides hang off it.
        let fin = find(&g, Task::PanelFinish { k: 1 });
        assert!(g.successors(fin).contains(&find(&g, Task::Swap { k: 1, j: 2 })));
        assert!(g.successors(fin).contains(&find(&g, Task::Swap { k: 1, j: 0 })));
    }

    /// The apply chunks `Gemm(0, i, 1)` waits for directly.
    fn applies_before(g: &LuDag, i: usize) -> Vec<usize> {
        let gemm = find(g, Task::Gemm { k: 0, i, j: 1 });
        (0..g.panel_plan(0).chunks().len())
            .filter(|&chunk| {
                g.successors(find(g, Task::PanelApply { k: 0, chunk })).contains(&gemm)
            })
            .collect()
    }

    #[test]
    fn gemms_wait_for_the_apply_chunk_covering_their_tile_row() {
        // 9000 rows, nb 32: apply chunks are 4096 rows, update chunks 256,
        // both from row 32 — sixteen update chunks to an apply chunk.
        let g = dag(9000, 64, 32, 1);
        assert_eq!(g.panel_plan(0).chunks().len(), 3);
        assert_eq!(g.panel_plan(0).update_chunks(), 36);
        for (i, chunk) in [(0, 0), (15, 0), (16, 1), (31, 1), (32, 2), (35, 2)] {
            assert_eq!(applies_before(&g, i), vec![chunk], "update chunk {i}");
        }
        // nb 40: apply chunks are 102 tiles (4080 rows), update chunks 7
        // tiles (280 rows), so update chunk 14 — panel rows 3960..4240 —
        // straddles the apply boundary at row 4120 and waits for both.
        let g = dag(4400, 80, 40, 1);
        let plan = g.panel_plan(0);
        assert_eq!(plan.chunks().collect::<Vec<_>>(), vec![40..4120, 4120..4400]);
        assert_eq!(plan.update_chunk(14), 3960..4240);
        assert_eq!(plan.update_chunks(), 16);
        assert_eq!(applies_before(&g, 13), vec![0]);
        assert_eq!(applies_before(&g, 14), vec![0, 1]);
        assert_eq!(applies_before(&g, 15), vec![1]);
    }

    /// Predecessor lists: the inverse of [`LuDag::successors`].
    fn predecessors(g: &LuDag) -> Vec<Vec<TaskId>> {
        let mut preds = vec![Vec::new(); g.len()];
        for id in 0..g.len() {
            for &s in g.successors(id) {
                preds[s].push(id);
            }
        }
        preds
    }

    /// `anc[id]` for every task that must finish before `target` starts.
    fn ancestors(preds: &[Vec<TaskId>], target: TaskId) -> Vec<bool> {
        let mut anc = vec![false; preds.len()];
        let mut stack = vec![target];
        while let Some(id) = stack.pop() {
            for &p in &preds[id] {
                if !std::mem::replace(&mut anc[p], true) {
                    stack.push(p);
                }
            }
        }
        anc
    }

    #[test]
    fn every_writer_of_a_leafs_rows_and_reader_of_l21_is_an_ancestor() {
        // The data flow the chunked update must preserve, checked on row
        // ranges and not through the builder's own chunk lookup: whatever
        // wrote a leaf's rows of block column k in step k-1 precedes the
        // leaf's elect; whatever formed rows of L21(k) an update chunk
        // reads precedes its gemm; whatever reads or forms L21(k-1)
        // precedes the first swap that permutes it.
        let overlap = |a: &std::ops::Range<usize>, b: &std::ops::Range<usize>| {
            a.start < b.end && b.start < a.end
        };
        for &(m, n, nb, p, mode) in &[
            (4400, 120, 40, 5, PanelMode::Gathered),
            (900, 160, 32, 3, PanelMode::Gathered),
            (1000, 200, 40, 4, PanelMode::Resident),
            (333, 333, 24, 3, PanelMode::Gathered),
        ] {
            let g = LuDag::build_panels(LuShape { m, n, nb }, 2, mode, p);
            // Absolute rows of a panel-local range of step k.
            let abs = |k: usize, r: std::ops::Range<usize>| k * nb + r.start..k * nb + r.end;
            let preds = predecessors(&g);
            for (id, &t) in g.tasks().iter().enumerate() {
                let anc = ancestors(&preds, id);
                let must = |before: Task| {
                    assert!(anc[find(&g, before)], "{m}x{n} nb={nb}: {before} must precede {t}")
                };
                match t {
                    Task::PanelElect { k, leaf } if k > 0 => {
                        let rows = abs(k, g.panel_plan(k).leaves()[leaf].clone());
                        let prev = g.panel_plan(k - 1);
                        for i in 0..prev.update_chunks() {
                            if overlap(&abs(k - 1, prev.update_chunk(i)), &rows) {
                                must(Task::Gemm { k: k - 1, i, j: k });
                            }
                        }
                        must(Task::Swap { k: k - 1, j: k });
                    }
                    Task::Gemm { k, i, j } => {
                        let plan = g.panel_plan(k);
                        for (chunk, rows) in plan.chunks().enumerate() {
                            if overlap(&rows, &plan.update_chunk(i)) {
                                must(Task::PanelApply { k, chunk });
                            }
                        }
                        must(Task::Trsm { k, j });
                        must(Task::Swap { k, j });
                    }
                    Task::Swap { k, j } if k > 0 && j == k - 1 => {
                        for &before in g.tasks() {
                            let touches_l21 = matches!(before, Task::Gemm { k: s, .. } | Task::PanelApply { k: s, .. } if s == k - 1);
                            if touches_l21 {
                                must(before);
                            }
                        }
                    }
                    Task::Swap { k, j } if k > 0 && j >= k => {
                        // Column j is fully updated through step k-1.
                        for i in 0..g.panel_plan(k - 1).update_chunks() {
                            must(Task::Gemm { k: k - 1, i, j });
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn every_toucher_of_a_row_descends_from_the_step0_elect_holding_it() {
        // What lets step 0's elects write their leaves' whole rows (the
        // runtime's input copy): step 0's leaves partition 0..m, and every
        // task other than a step-0 elect or reduce has, for every row it
        // touches in any column, the step-0 elect whose leaf holds that
        // row as an ancestor. Rows are taken from the task definitions,
        // not from the builder's edge lookups.
        let overlap = |a: &std::ops::Range<usize>, b: &std::ops::Range<usize>| {
            a.start < b.end && b.start < a.end
        };
        let shapes = [
            (4400, 120, 40, 5), // tall, several apply chunks
            (300, 300, 16, 4),  // square
            (60, 100, 16, 4),   // wide
            (40, 100, 64, 4),   // wide, one panel with a remainder column
            (97, 97, 16, 3),    // ragged in both dimensions
            (100, 60, 16, 4),   // tall and ragged
            (40, 40, 64, 4),    // block bigger than the matrix
            (5, 5, 8, 8),       // fewer rows than leaves
        ];
        for &(m, n, nb, p) in &shapes {
            for mode in [PanelMode::Gathered, PanelMode::Resident] {
                for depth in 1..=3 {
                    let what = format!("{m}x{n} nb={nb} p={p} {mode:?} d={depth}");
                    let g = LuDag::build_panels(LuShape { m, n, nb }, depth, mode, p);
                    let shape = g.shape();
                    let leaves = g.panel_plan(0).leaves().to_vec();
                    assert_eq!(leaves[0].start, 0, "{what}");
                    assert!(leaves.windows(2).all(|w| w[0].end == w[1].start), "{what}");
                    assert_eq!(leaves.last().unwrap().end, m, "{what}");
                    let elects: Vec<TaskId> = (0..leaves.len())
                        .map(|leaf| find(&g, Task::PanelElect { k: 0, leaf }))
                        .collect();
                    let preds = predecessors(&g);
                    for (id, &t) in g.tasks().iter().enumerate() {
                        let k = t.step();
                        let (base, jb) = (k * nb, shape.panel_width(k));
                        let abs = |r: std::ops::Range<usize>| base + r.start..base + r.end;
                        let plan = g.panel_plan(k);
                        let top = base..base + jb;
                        // Up to two row ranges; `0..0` overlaps nothing.
                        let touched = match t {
                            Task::PanelElect { k: 0, .. } | Task::PanelReduce { k: 0, .. } => {
                                continue
                            }
                            Task::PanelElect { leaf, .. } => {
                                [abs(plan.leaves()[leaf].clone()), 0..0]
                            }
                            Task::PanelReduce { .. } => [0..0, 0..0],
                            Task::PanelFinish { .. } | Task::Swap { .. } => [base..m, 0..0],
                            Task::PanelApply { chunk, .. } => [top, abs(plan.chunk(chunk))],
                            Task::Trsm { .. } => [top, 0..0],
                            Task::Gemm { i, .. } => [top, abs(plan.update_chunk(i))],
                            Task::Dist(_) | Task::Solve(_) => unreachable!("factor DAG"),
                        };
                        let anc = ancestors(&preds, id);
                        for (leaf, rows) in leaves.iter().enumerate() {
                            if touched.iter().any(|r| overlap(r, rows)) {
                                assert!(
                                    anc[elects[leaf]],
                                    "{what}: elect(0,{leaf}) must precede {t}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn model_orders_gathered_and_tile_leaf_plans_like_the_stopwatch() {
        // `tall_panel` (65536 x 128, nb 64) on the benchmark's two workers:
        // the stopwatch puts gathered (4 leaves, 3 matches per panel) ahead
        // of tile-height leaves (1024 leaves, 1023 matches), see
        // EXPERIMENTS.md "Parallel panel". Tile leaves buy tournament depth
        // with ~2000 extra `2jb x jb` eliminations, so the infinite-worker
        // critical path prefers them; the two-worker bound must not.
        let shape = LuShape { m: 65536, n: 128, nb: 64 };
        for mch in [MachineConfig::power5(), MachineConfig::xt4()] {
            let bound = |mode: PanelMode, workers: usize| {
                // The longer of the critical path and an even split of
                // the total work.
                let g = LuDag::build_with(shape, 1, mode);
                let cost = |t| modeled_time(&g, t, &mch);
                g.critical_path(cost).max(g.total_cost(cost) / workers as f64)
            };
            assert!(
                bound(PanelMode::Gathered, 2) < bound(PanelMode::Resident, 2),
                "{}: two-worker model must prefer gathered leaves",
                mch.name
            );
            let cp = |mode: PanelMode| {
                let g = LuDag::build_with(shape, 1, mode);
                g.critical_path(|t| modeled_time(&g, t, &mch))
            };
            assert!(cp(PanelMode::Resident) < cp(PanelMode::Gathered), "{}", mch.name);
        }
    }

    #[test]
    fn empty_and_single_panel_shapes() {
        // One 40 x 40 panel: 4 leaves of 10 rows, 3 matches, the finish; no
        // rows below the top block.
        let g = dag(40, 40, 64, 1);
        assert_eq!(g.len(), 8);
        assert_eq!((count(&g, "panel_elect"), count(&g, "panel_reduce")), (4, 3));
        assert_eq!(count(&g, "panel_apply"), 0);
        let r = rdag(40, 40, 64, 1);
        assert_eq!(r.len(), 2);
        assert!(matches!(r.tasks()[0], Task::PanelElect { k: 0, leaf: 0 }));
        assert!(matches!(r.tasks()[1], Task::PanelFinish { k: 0 }));
        assert!(r.successors(0).contains(&1));
        let e = LuDag::build(LuShape { m: 0, n: 16, nb: 8 }, 1);
        assert!(e.is_empty());
    }
}
