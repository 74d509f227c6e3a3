//! The communication ledger: exact measured comm vs the paper's skeletons.
//!
//! `CALU` and `PDGETRF` come with closed-form *communication skeletons* —
//! per-term message and word counts (TSLU butterfly legs, pivot
//! broadcasts, panel/U column broadcasts, the W block exchange) derived
//! from the α-β model in the paper. The runtime's mailbox is the single
//! choke point every distributed transfer crosses, so instrumenting it
//! yields *measured* counts for the same terms. A [`CommLedger`]
//! accumulates the measured side (per rank, per term); a
//! [`CommLedgerReport`] freezes it and [`CommLedgerReport::reconcile`]s
//! it against an expected side, producing one [`CommDelta`] per term.
//!
//! Conventions (must match on both sides for the comparison to mean
//! anything):
//!
//! * Broadcast-style transfers are counted **once per receiver** (the
//!   skeleton's `bcast_recv` convention), attributed to the receiving
//!   rank via [`CommLedger::record_recv`].
//! * TSLU butterfly legs are counted **at the sending roles** via
//!   [`CommLedger::record_send`] (the skeleton charges each exchanging /
//!   fold-sending process one message per leg).
//! * Reconciliation compares **per-term totals** across ranks, because
//!   send/recv attribution within a term is a convention; the totals are
//!   the physical word/message counts.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::JsonValue;

/// Message/word counters for one (rank, term) cell or one term total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounts {
    /// Number of messages (one per logical transfer).
    pub msgs: u64,
    /// Number of matrix words (f64 elements plus encoded headers).
    pub words: u64,
}

impl CommCounts {
    /// Component-wise sum.
    pub(crate) fn add(&mut self, other: CommCounts) {
        self.msgs += other.msgs;
        self.words += other.words;
    }
}

/// One measured row: a (rank, term, direction) cell of the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CommRow {
    /// Grid rank the traffic is attributed to.
    pub(crate) rank: u32,
    /// Term name (`tslu_leg`, `piv_bcast`, ...).
    pub(crate) term: &'static str,
    /// `true` for send-attributed traffic, `false` for recv-attributed.
    pub(crate) sent: bool,
    /// The counters.
    pub(crate) counts: CommCounts,
}

/// An expected per-term entry to reconcile the measured ledger against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommTerm {
    /// Term name, matching the measured rows' term.
    pub term: &'static str,
    /// Expected total messages across all ranks.
    pub msgs: u64,
    /// Expected total words across all ranks.
    pub words: u64,
    /// Where the expectation comes from (e.g. `"skeleton_calu"`,
    /// `"mailbox_exact"`) — reported, not compared.
    pub source: &'static str,
}

/// One blocked-wait row: nanoseconds `rank` spent blocked in a
/// `Communicator::fetch` waiting on payloads of `term`. Only backends
/// where waiting is physically real (the threaded communicator) record
/// these; synchronous mailboxes leave the table empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitRow {
    /// Grid rank that blocked.
    pub(crate) rank: u32,
    /// Term name of the payload waited for (`tslu_leg`, `piv_bcast`, ...).
    pub(crate) term: &'static str,
    /// Total blocked nanoseconds, summed over fetches.
    pub(crate) wait_ns: u64,
}

/// One reconciled term: measured total vs expected total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommDelta {
    /// Term name.
    pub term: &'static str,
    /// Expectation source label.
    pub source: &'static str,
    /// Measured total (sends + recvs) across ranks.
    pub measured: CommCounts,
    /// Expected total across ranks.
    pub expected: CommCounts,
}

impl CommDelta {
    /// Whether measured equals expected in both messages and words.
    pub fn exact(&self) -> bool {
        self.measured == self.expected
    }

    /// Signed word gap `measured - expected`.
    pub(crate) fn word_gap(&self) -> i64 {
        self.measured.words as i64 - self.expected.words as i64
    }

    /// Signed message gap `measured - expected`.
    pub(crate) fn msg_gap(&self) -> i64 {
        self.measured.msgs as i64 - self.expected.msgs as i64
    }

    /// JSON row for reports.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("term", self.term)
            .set("source", self.source)
            .set("measured_msgs", self.measured.msgs)
            .set("measured_words", self.measured.words)
            .set("expected_msgs", self.expected.msgs)
            .set("expected_words", self.expected.words)
            .set("msg_gap", self.msg_gap() as f64)
            .set("word_gap", self.word_gap() as f64)
            .set("exact", self.exact())
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    /// (rank, term, sent) → counts.
    cells: BTreeMap<(u32, &'static str, bool), CommCounts>,
    /// (rank, term) → blocked-fetch nanoseconds.
    waits: BTreeMap<(u32, &'static str), u64>,
    drained_words: u64,
    residual_words: u64,
}

/// Thread-safe accumulator for measured communication, written at the
/// mailbox boundary (and at the direct cross-rank exchange in the pivot
/// swap). All mutators take `&self`.
#[derive(Debug, Default)]
pub struct CommLedger {
    inner: Mutex<LedgerInner>,
}

impl CommLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one send of `words` words attributed to `rank` under `term`.
    pub fn record_send(&self, rank: u32, term: &'static str, words: u64) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        inner.cells.entry((rank, term, true)).or_default().add(CommCounts { msgs: 1, words });
    }

    /// Records one receive of `words` words attributed to `rank` under
    /// `term`.
    pub fn record_recv(&self, rank: u32, term: &'static str, words: u64) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        inner.cells.entry((rank, term, false)).or_default().add(CommCounts { msgs: 1, words });
    }

    /// Adds `nanos` of blocked-fetch wait attributed to `rank` under
    /// `term`. Wait time is a property of the transport, not the wire:
    /// only communicators where a fetch physically blocks record it.
    pub fn record_wait(&self, rank: u32, term: &'static str, nanos: u64) {
        if nanos == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("ledger poisoned");
        *inner.waits.entry((rank, term)).or_default() += nanos;
    }

    /// Records the mailbox end-of-run drain: `drained` words evicted
    /// during the run plus `residual` words still posted at completion
    /// (0 in the happy path).
    pub fn set_drain(&self, drained: u64, residual: u64) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        inner.drained_words = drained;
        inner.residual_words = residual;
    }

    /// Freezes the ledger into an immutable report.
    pub fn report(&self) -> CommLedgerReport {
        let inner = self.inner.lock().expect("ledger poisoned");
        CommLedgerReport {
            rows: inner
                .cells
                .iter()
                .map(|(&(rank, term, sent), &counts)| CommRow { rank, term, sent, counts })
                .collect(),
            waits: inner
                .waits
                .iter()
                .map(|(&(rank, term), &wait_ns)| WaitRow { rank, term, wait_ns })
                .collect(),
            drained_words: inner.drained_words,
            residual_words: inner.residual_words,
        }
    }
}

/// Immutable snapshot of a [`CommLedger`], carried in run reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommLedgerReport {
    /// Measured cells, sorted by (rank, term, direction).
    pub(crate) rows: Vec<CommRow>,
    /// Blocked-fetch wait rows, sorted by (rank, term); empty under
    /// synchronous backends.
    pub waits: Vec<WaitRow>,
    /// Mailbox words evicted by lookahead-window retirement during the run.
    pub drained_words: u64,
    /// Mailbox words still posted at run completion (0 in the happy path).
    pub residual_words: u64,
}

impl CommLedgerReport {
    /// Measured total for one term: sends plus recvs across all ranks.
    pub(crate) fn term_total(&self, term: &str) -> CommCounts {
        let mut total = CommCounts::default();
        for row in self.rows.iter().filter(|r| r.term == term) {
            total.add(row.counts);
        }
        total
    }

    /// Measured totals per term, sorted by term name.
    pub(crate) fn term_totals(&self) -> Vec<(&'static str, CommCounts)> {
        let mut totals: BTreeMap<&'static str, CommCounts> = BTreeMap::new();
        for row in &self.rows {
            totals.entry(row.term).or_default().add(row.counts);
        }
        totals.into_iter().collect()
    }

    /// Grand measured total across all terms and ranks.
    pub fn total(&self) -> CommCounts {
        let mut total = CommCounts::default();
        for row in &self.rows {
            total.add(row.counts);
        }
        total
    }

    /// Per-rank measured totals (rank, counts), sorted by rank.
    pub(crate) fn rank_totals(&self) -> Vec<(u32, CommCounts)> {
        let mut totals: BTreeMap<u32, CommCounts> = BTreeMap::new();
        for row in &self.rows {
            totals.entry(row.rank).or_default().add(row.counts);
        }
        totals.into_iter().collect()
    }

    /// Total blocked-fetch nanoseconds across all ranks and terms.
    pub fn wait_total_ns(&self) -> u64 {
        self.waits.iter().map(|w| w.wait_ns).sum()
    }

    /// Blocked-fetch nanoseconds per term, sorted by term name.
    pub fn wait_term_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for w in &self.waits {
            *totals.entry(w.term).or_default() += w.wait_ns;
        }
        totals.into_iter().collect()
    }

    /// Blocked-fetch nanoseconds per rank, sorted by rank.
    pub fn wait_rank_totals(&self) -> Vec<(u32, u64)> {
        let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
        for w in &self.waits {
            *totals.entry(w.rank).or_default() += w.wait_ns;
        }
        totals.into_iter().collect()
    }

    /// Reconciles the measured per-term totals against `expected`,
    /// returning one [`CommDelta`] per expected term plus one delta for
    /// every measured term the expectation is silent about (expected 0 —
    /// nothing is allowed to hide). Order follows `expected`, then
    /// leftover measured terms by name.
    pub fn reconcile(&self, expected: &[CommTerm]) -> Vec<CommDelta> {
        let mut deltas: Vec<CommDelta> = expected
            .iter()
            .map(|e| CommDelta {
                term: e.term,
                source: e.source,
                measured: self.term_total(e.term),
                expected: CommCounts { msgs: e.msgs, words: e.words },
            })
            .collect();
        for (term, counts) in self.term_totals() {
            if !expected.iter().any(|e| e.term == term) {
                deltas.push(CommDelta {
                    term,
                    source: "unmodeled",
                    measured: counts,
                    expected: CommCounts::default(),
                });
            }
        }
        deltas
    }

    /// JSON form: per-term totals, per-rank totals, drain counters, and
    /// (when `expected` is non-empty) the reconciliation table.
    pub fn to_json(&self, expected: &[CommTerm]) -> JsonValue {
        let terms: JsonValue = self
            .term_totals()
            .into_iter()
            .map(|(term, c)| {
                JsonValue::obj().set("term", term).set("msgs", c.msgs).set("words", c.words)
            })
            .collect();
        let ranks: JsonValue = self
            .rank_totals()
            .into_iter()
            .map(|(rank, c)| {
                JsonValue::obj()
                    .set("rank", u64::from(rank))
                    .set("msgs", c.msgs)
                    .set("words", c.words)
            })
            .collect();
        let mut doc = JsonValue::obj()
            .set("terms", terms)
            .set("ranks", ranks)
            .set("total_msgs", self.total().msgs)
            .set("total_words", self.total().words)
            .set("drained_words", self.drained_words)
            .set("residual_words", self.residual_words);
        if !self.waits.is_empty() {
            let waits: JsonValue = self
                .waits
                .iter()
                .map(|w| {
                    JsonValue::obj()
                        .set("rank", u64::from(w.rank))
                        .set("term", w.term)
                        .set("wait_ns", w.wait_ns)
                })
                .collect();
            doc = doc.set("waits", waits).set("wait_total_ns", self.wait_total_ns());
        }
        if !expected.is_empty() {
            let recon: JsonValue =
                self.reconcile(expected).iter().map(CommDelta::to_json).collect();
            doc = doc.set("reconcile", recon);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> CommLedger {
        let ledger = CommLedger::new();
        ledger.record_send(0, "tslu_leg", 38);
        ledger.record_send(1, "tslu_leg", 38);
        ledger.record_recv(2, "piv_bcast", 4);
        ledger.record_recv(3, "piv_bcast", 4);
        ledger.record_recv(2, "piv_bcast", 4);
        ledger.set_drain(100, 0);
        ledger
    }

    #[test]
    fn totals_aggregate_sends_and_recvs() {
        let rep = sample_ledger().report();
        assert_eq!(rep.term_total("tslu_leg"), CommCounts { msgs: 2, words: 76 });
        assert_eq!(rep.term_total("piv_bcast"), CommCounts { msgs: 3, words: 12 });
        assert_eq!(rep.term_total("absent"), CommCounts::default());
        assert_eq!(rep.total(), CommCounts { msgs: 5, words: 88 });
        assert_eq!(rep.rank_totals()[0], (0, CommCounts { msgs: 1, words: 38 }));
        assert_eq!(rep.drained_words, 100);
        assert_eq!(rep.residual_words, 0);
    }

    #[test]
    fn reconcile_flags_exact_gapped_and_unmodeled_terms() {
        let rep = sample_ledger().report();
        let expected = [
            CommTerm { term: "tslu_leg", msgs: 2, words: 76, source: "mailbox_exact" },
            CommTerm { term: "piv_bcast", msgs: 3, words: 13, source: "skeleton_calu" },
            CommTerm { term: "panel_bcast", msgs: 0, words: 0, source: "skeleton_calu" },
        ];
        let deltas = rep.reconcile(&expected);
        assert_eq!(deltas.len(), 3, "2 terms measured, both expected; panel_bcast expected-only");
        assert!(deltas[0].exact());
        assert!(!deltas[1].exact());
        assert_eq!(deltas[1].word_gap(), -1);
        assert_eq!(deltas[1].msg_gap(), 0);
        assert!(deltas[2].exact(), "0 expected, 0 measured is exact");

        // A measured term the expectation is silent about surfaces as
        // "unmodeled" with expected 0.
        let deltas = rep.reconcile(&expected[..1]);
        let piv = deltas.iter().find(|d| d.term == "piv_bcast").expect("surfaced");
        assert_eq!(piv.source, "unmodeled");
        assert!(!piv.exact());
    }

    #[test]
    fn report_is_deterministic_and_json_parses() {
        let a = sample_ledger().report();
        let b = sample_ledger().report();
        assert_eq!(a, b);
        let expected = [CommTerm { term: "tslu_leg", msgs: 2, words: 76, source: "x" }];
        let json = a.to_json(&expected);
        assert_eq!(json.to_json(), b.to_json(&expected).to_json());
        let parsed = JsonValue::parse(&json.pretty()).expect("valid JSON");
        assert_eq!(parsed.get("total_words").unwrap().as_u64(), Some(88));
        let recon = parsed.get("reconcile").unwrap().as_array().unwrap();
        assert_eq!(recon.len(), 2, "tslu_leg + unmodeled piv_bcast");
        assert_eq!(recon[0].get("exact").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn waits_accumulate_per_rank_and_term_and_serialize() {
        let ledger = sample_ledger();
        ledger.record_wait(0, "tslu_leg", 1_000);
        ledger.record_wait(0, "tslu_leg", 500);
        ledger.record_wait(2, "piv_bcast", 250);
        ledger.record_wait(3, "u_bcast", 0); // zero waits leave no row
        let rep = ledger.report();
        assert_eq!(rep.waits.len(), 2);
        assert_eq!(rep.wait_total_ns(), 1_750);
        assert_eq!(rep.wait_term_totals(), vec![("piv_bcast", 250), ("tslu_leg", 1_500)]);
        assert_eq!(rep.wait_rank_totals(), vec![(0, 1_500), (2, 250)]);
        let json = rep.to_json(&[]);
        assert_eq!(json.get("wait_total_ns").and_then(JsonValue::as_u64), Some(1_750));
        assert_eq!(json.get("waits").and_then(JsonValue::as_array).unwrap().len(), 2);
        // A wait-free ledger serializes without the wait section at all.
        let silent = sample_ledger().report();
        assert_eq!(silent.wait_total_ns(), 0);
        assert!(silent.to_json(&[]).get("waits").is_none());
    }

    #[test]
    fn empty_ledger_reconciles_to_expected_side_only() {
        let rep = CommLedger::new().report();
        assert!(rep.rows.is_empty());
        assert_eq!(rep.total(), CommCounts::default());
        let deltas =
            rep.reconcile(&[CommTerm { term: "u_bcast", msgs: 4, words: 64, source: "s" }]);
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].exact());
        assert_eq!(deltas[0].word_gap(), -64);
    }
}
