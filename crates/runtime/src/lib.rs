//! # calu-runtime — dataflow task-graph runtime for tiled CALU
//!
//! The paper's future-work question (Section 7) — does ca-pivoting suit
//! parallel LU on multicore machines? — needs a schedule: HPL-style
//! executions overlap the panel factorization (the critical path of
//! right-looking LU) with trailing updates at a configurable *lookahead
//! depth*. This crate supplies that layer, between the machine layer
//! (`calu-netsim`) and the algorithms (`calu-core`):
//!
//! * [`dag`] — [`LuDag::build`] emits the dependency DAG of blocked
//!   right-looking LU for any `(m, n, nb)`: the TSLU panel subgraph
//!   (`PanelElect`/`PanelReduce`/`PanelFinish`/`PanelApply`, laid out by
//!   [`panel`]'s [`PanelPlan`]) and `Swap`/`Trsm`/`Gemm` tasks, the
//!   anti-dependences that make row-swap deferral sound, and a panel
//!   throttle for any lookahead depth `d ≥ 1`;
//! * [`exec`] — two executors behind the [`Executor`] trait: a
//!   deterministic `SerialExecutor` (priority-ordered replay) and a
//!   [`ThreadedExecutor`] (the caller as worker 0 plus process-wide
//!   long-lived helper threads over a shared critical-path-first pool,
//!   woken only when a claim leaves ready tasks behind), both recording
//!   per-task timings that replay as `calu_obs` spans.
//!
//! The runtime is algorithm-agnostic: it schedules; a [`TaskRunner`]
//! implemented by the caller supplies the kernels. `calu-core`'s
//! `rt` module binds the real TSLU/BLAS kernels and proves (in tests)
//! that every schedule the runtime can produce yields factors **bitwise
//! identical** to the sequential reference.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dag;
pub mod dist;
pub mod exec;
pub mod panel;
pub mod solve;

pub use dag::{modeled_time, DistKind, DistTask, LuDag, LuShape, Task};
pub use dist::{
    expected_mailbox_comm, simulate_dist_schedule, tslu_acc_slot, tslu_leg_count, tslu_leg_role,
    DistCostModel, DistGeom, DistPanelAlg, LegRole,
};
pub use exec::{
    host_parallelism, ExecReport, Executor, ExecutorKind, TaskRunner, TaskTiming, ThreadedExecutor,
};
pub use panel::{partition_rows, tournament_tree, PanelMode, PanelPlan, DEFAULT_TOURNAMENT_LEAVES};
pub use solve::SolveShape;
