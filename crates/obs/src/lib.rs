//! # calu-obs — unified observability for the CALU reproduction
//!
//! The paper's central claims are *communication counts* — words and
//! messages per rank — and schedule quality. Every layer of the repo
//! produces evidence of both (executor timings, modeled rank traces,
//! mailbox traffic, serve-layer counters), but until this crate each
//! layer reported it in its own dialect. `calu-obs` is the shared,
//! dependency-free vocabulary:
//!
//! * [`trace`] — a lock-cheap [`Recorder`] of typed [`Span`]s (task name,
//!   rank, worker, wall-clock interval) with export to the Chrome
//!   `trace_events` JSON format (one *pid* per rank, one *tid* per
//!   worker), so any real, modeled or simulated schedule opens in
//!   `chrome://tracing` / Perfetto, and to a text Gantt chart
//!   ([`render_gantt`]) for the terminal. A parser
//!   ([`trace::parse_chrome_trace`]) validates round trips in tests and CI.
//! * [`metrics`] — counters, gauges, and **deterministic** log-bucketed
//!   histograms behind one [`Metrics`] registry with a canonical
//!   [`Metrics::snapshot`] → JSON path; the serving layer reports
//!   through it.
//! * [`ledger`] — the [`CommLedger`]: per-rank, per-term message/word
//!   counters recorded at the `dist_rt` mailbox boundary, reconciled
//!   against the paper's cost skeletons ([`CommLedgerReport::reconcile`])
//!   term by term — TSLU butterfly legs, pivot/panel/U/W broadcasts —
//!   turning "matches to first order" into asserted equality or a
//!   quantified gap.
//! * [`analyze`] — the analysis tier over the other three: ingests spans
//!   (live or parsed from a Chrome trace) plus the ledger's wait rows and
//!   the executors' queue delays and produces a [`Profile`] — per-worker
//!   wall-clock partitioned into compute / comm-wait / overhead / idle
//!   with an *exact* sum-to-wall invariant — alongside the measured
//!   critical path ([`analyze::longest_chain_ns`], optionally restricted
//!   to DAG edges via [`analyze::dag_span_chain_ns`]).
//! * [`json`] — the minimal [`JsonValue`] writer/parser everything above
//!   serializes through (the container has no serde; determinism is the
//!   point, not convenience).
//!
//! The crate depends on `std` only, so every other crate in the
//! workspace — `calu-runtime`, `calu-netsim`, `calu-core`, `calu-bench`
//! — can depend on it without cycles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod trace;

pub use analyze::{Profile, ProfileInputs};
pub use json::JsonValue;
pub use ledger::{CommDelta, CommLedger, CommLedgerReport, CommTerm};
pub use metrics::Metrics;
pub use trace::{chrome_trace, parse_chrome_trace, render_gantt, Recorder, Span};
