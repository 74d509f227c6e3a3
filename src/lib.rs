//! # calu-repro — Communication Avoiding Gaussian Elimination, reproduced in Rust
//!
//! A full reproduction of *Communication Avoiding Gaussian Elimination*
//! (Laura Grigori, James W. Demmel, Hua Xiang — INRIA RR-6523 / SC 2008):
//! **CALU**, an LU factorization for dense matrices in a 2D block-cyclic
//! layout whose panel factorization (**TSLU**) replaces per-column pivot
//! search with **tournament pivoting** ("ca-pivoting"), cutting panel
//! latency cost by a factor of the block size `b`.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`matrix`] — dense column-major substrate: BLAS-1/2/3 kernels and
//!   LAPACK-style routines written from scratch (factorizations, solves,
//!   inverse, condition estimation, matrix ensembles).
//! * [`obs`] — the observability layer: structured tracing (one span type
//!   for measured, simulated and modeled runs alike, with Chrome-trace/
//!   Perfetto export and a text Gantt renderer), a deterministic
//!   metrics registry (counters, gauges, log-bucketed histograms), and
//!   the communication ledger that reconciles measured traffic against
//!   the paper's skeleton predictions — all dependency-free.
//! * [`netsim`] — a discrete-event message-passing simulator with per-rank
//!   virtual clocks and an α-β-γ cost model (machine presets for the
//!   paper's IBM POWER5 and Cray XT4 systems plus a modern cluster),
//!   collectives, event tracing into [`obs`] spans, and a deferred-compute
//!   overlap model for look-ahead studies.
//! * [`runtime`] — the dataflow task-graph runtime: the dependency DAG of
//!   blocked right-looking LU (the TSLU panel subgraph and
//!   `Swap`/`Trsm`/`Gemm` tasks at any lookahead depth) with a
//!   deterministic serial executor and a threaded executor over one shared
//!   critical-path-first pool, whose task timings replay as [`obs`] spans.
//! * [`core`] — TSLU and CALU (the sequential reference, the multicore
//!   task-graph run scheduled by [`runtime`], and simulated-distributed),
//!   plus the GEPP / ScaLAPACK `PDGETRF`/`PDGETF2` baselines in real-data
//!   and cost-skeleton form.
//! * [`stability`] — the paper's numerical-stability laboratory: growth
//!   factors, pivot thresholds, HPL accuracy tests, five matrix ensembles.
//! * [`perfmodel`] — the paper's closed-form runtime models (Equations
//!   1-3), configuration sweeps, and technology-trend extrapolation.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.
//!
//! ## Quickstart
//!
//! ```
//! use calu_repro::core::{CaluOpts, calu_factor};
//! use calu_repro::matrix::gen;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let a = gen::randn(&mut rng, 256, 256);
//! let b: Vec<f64> = (0..256).map(|i| i as f64).collect();
//!
//! // Factor with tournament pivoting: block size 32, 4-way tournament.
//! let f = calu_factor(&a, CaluOpts { block: 32, p: 4, ..Default::default() }).unwrap();
//! let x = f.solve(&b);
//!
//! // Residual is small:
//! let r = calu_repro::stability::residuals::backward_error_inf(&a, &x, &b);
//! assert!(r < 1e-12);
//! ```

#![warn(missing_docs)]

pub use calu_core as core;
pub use calu_matrix as matrix;
pub use calu_netsim as netsim;
pub use calu_obs as obs;
pub use calu_perfmodel as perfmodel;
pub use calu_runtime as runtime;
pub use calu_stability as stability;
