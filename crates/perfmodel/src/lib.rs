//! # calu-perfmodel — the paper's closed-form runtime models
//!
//! Equations (1), (2) and (3) of *Communication Avoiding Gaussian
//! Elimination* as executable functions over a
//! [`calu_netsim::MachineConfig`]:
//!
//! * [`equations::t_tslu`] — Eq. (1), the TSLU panel factorization;
//! * [`equations::t_calu`] — Eq. (2), full CALU on a `Pr x Pc` grid;
//! * [`equations::t_pdgetrf`] — Eq. (3), ScaLAPACK's `PDGETRF`;
//!
//! plus message/word/flop count breakdowns (which terms dominate —
//! latency, bandwidth, or compute), the sweep machinery behind Table 7's
//! "best CALU vs best PDGETRF" comparison, and the technology-trend
//! extrapolation ([`trend`]) behind the introduction's claim that CALU's
//! advantage grows on future machines.
//!
//! The equations use the paper's single-γ flop model; the discrete-event
//! simulator in `calu-core::dist::skeleton` refines this with per-BLAS-level
//! rates. `repro model_check` (`calu-bench`) quantifies the agreement.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod equations;
pub mod section5;
pub mod sweep;
pub mod trend;

pub use trend::{evolve, gain_crossover_size, speedup_trend, TechTrend};
