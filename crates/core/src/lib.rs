//! # calu-core — CALU and TSLU with tournament pivoting
//!
//! The paper's primary contribution, in three execution flavors sharing one
//! set of numerics:
//!
//! * **Sequential reference** ([`calu`], [`tslu`], [`mod@tournament`]) — defines
//!   the algorithm: per panel, each of `p` block-rows elects `b` candidate
//!   pivot rows by GEPP, a binary tournament elects the `b` winners, the
//!   winners are swapped on top and the panel is factored *without*
//!   pivoting; then the usual `trsm`/`gemm` trailing update.
//! * **Shared-memory parallel** ([`rt`]) — the factorization scheduled on
//!   the `calu-runtime` task DAG (threaded executor,
//!   critical-path-first priorities) at any lookahead depth, so the next
//!   panels' TSLUs overlap the bulk trailing updates (the paper's
//!   "multicore" future-work direction and HPL's look-ahead technique,
//!   Section 4), over flat column-major storage; bitwise identical
//!   factors on every schedule.
//! * **Simulated-distributed** ([`dist`], [`dist_rt`]) — the paper's actual
//!   setting: the 2D block-cyclic layout on a `Pr x Pc` grid, with TSLU as
//!   a butterfly all-reduce, plus the ScaLAPACK `PDGETRF`/`PDGETF2`
//!   baseline. [`dist`] holds the SPMD reference loops over `calu-netsim`
//!   (real-data and cost-skeleton modes); [`dist_rt`] runs the same
//!   per-rank work as a task DAG, with one set of task bodies over the
//!   [`comm`] seam (a shared mailbox, or ranks as OS threads).
//!
//! [`instrument::PivotStats`] plugs into any of them to collect the growth
//! factor, pivot thresholds, and `|L|` bounds of the stability study
//! (Section 6.1).
//!
//! Every flavor is generic over [`calu_matrix::Scalar`] (`f32`/`f64`,
//! default `f64`), and [`solve::ir_solve`] combines the two: CALU-factor
//! in `f32` on the task-graph runtime, then iteratively refine residuals
//! in `f64` until the HPL accuracy gate passes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blocks;
pub mod calu;
pub mod comm;
pub mod dist;
mod dist_rank;
pub mod dist_rt;
pub mod gepp;
pub mod instrument;
pub mod rt;
pub mod serve;
pub mod solve;
pub mod tournament;
pub mod tslu;

pub use calu::{calu_factor, calu_inplace, CaluOpts, LuFactors};
pub use calu_runtime::PanelMode;
pub use comm::CommKind;
pub use dist_rt::{
    dist_calu_factor_rt, dist_pdgetrf_factor_rt, DistRtOpts, DistRtReport, DIST_PHASES,
};
pub use gepp::{gepp_factor, gepp_inplace};
pub use instrument::PivotStats;
pub use rt::{runtime_calu_factor, runtime_calu_inplace, runtime_calu_tiles_factor, RuntimeOpts};
pub use serve::{ServeOpts, SolverService, Ticket};
pub use solve::{ir_solve, ir_solve_batch, IrOpts};
pub use tournament::{reduce_pair, tournament, Candidates};
pub use tslu::{tslu_factor, tslu_pivots, LocalLu};
