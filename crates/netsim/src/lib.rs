//! # calu-netsim — discrete-event message-passing simulator
//!
//! The paper evaluates CALU on an IBM POWER5 cluster and a Cray XT4 over
//! MPI. Neither machine (nor MPI) is available to this reproduction, so the
//! distributed algorithms run on this simulator instead:
//!
//! * every simulated rank is a real thread; numerical payloads flow through
//!   channels, so the *actual* distributed data flow executes and can be
//!   checked against sequential implementations bit for bit;
//! * time is virtual: per-rank clocks advance by modeled kernel times
//!   (γ-class flop rates in [`machine::MachineConfig`]) and by the α-β cost
//!   of each message, with receives waiting for modeled arrival — the same
//!   LogP-style "α + mβ" model the paper's own analysis (Equations 1-3)
//!   uses, so simulator and closed forms are directly comparable;
//! * [`collectives::Group`] provides binomial broadcast/reduce and the
//!   butterfly all-reduce that *is* TSLU's communication pattern;
//! * [`grid::Grid`] provides the `Pr x Pc` process grid and block-cyclic
//!   ownership maps (`numroc` and friends) of the ScaLAPACK layout;
//! * [`run_sim_traced`] records each rank's compute and sends as
//!   `calu_obs` spans in virtual time — the one span type measured runs
//!   use too, so `calu_obs::render_gantt` and `calu_obs::chrome_trace`
//!   draw both — and [`TimeBreakdown`] splits a report into compute /
//!   latency / bandwidth / idle shares.
//!
//! Performance tables are regenerated by running the *algorithm skeletons*
//! (full control flow, `Payload::Empty` messages with modeled word counts)
//! at paper scale — a simulation of a 10^6-row factorization on 64 ranks
//! takes milliseconds of real time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collectives;
pub mod comm;
pub mod grid;
pub mod machine;
pub mod runner;
pub mod trace;

pub use collectives::Group;
pub use comm::{Payload, RankStats, SimComm};
pub use grid::Grid;
pub use machine::{Link, MachineConfig};
pub use runner::{run_sim, run_sim_traced, SimReport};
pub use trace::TimeBreakdown;
