//! The communicator seam: where distributed payloads cross ranks.
//!
//! `dist_rt` moves every cross-rank payload — TSLU candidate sets, pivot
//! lists, packed panels, `W`/`U₁₂` blocks, pivot-row segments — as keyed
//! `f64`-word messages. This module cuts that boundary as a trait,
//! `Communicator`, with two implementations:
//!
//! * `InProcessComm` — the original shared mailbox: one
//!   `Mutex<HashMap>` all ranks read and write. Posts are visible to
//!   every rank immediately; the DAG's edges are the wire. This is the
//!   default.
//! * `ThreadedComm` — ranks as real OS threads: each rank owns a
//!   `std::sync::mpsc` receiver plus a local stash, sends are
//!   point-to-point, and `Communicator::fetch` *blocks* until the
//!   payload arrives.
//!
//! Under both, nothing but messages crosses the seam: every task body
//! (`crate::dist_rank`) touches only the tiles of the rank it runs for,
//! and is written once against the trait. That includes the two
//! collectives that move the matrix itself over a process column: `Swap`
//! (rows that change owner travel as one `MAIL_SWP` message per pair of
//! process rows) and `PanelGetf2` (`PDGETF2`'s per-column
//! `MAIL_GCD`/`MAIL_GUR`/`MAIL_GRX` scan / combine / exchange). The
//! trait object is also the place a test substitutes a fake (the
//! panicking-rank regression test wraps `ThreadedComm`).
//!
//! # Invariants at the seam
//!
//! * Every key is posted **exactly once** per run; the DAG (or the
//!   per-rank schedule projection) orders every post before its fetches.
//! * Payloads are `f64` words; `T ↔ f64` round trips are exact for every
//!   [`calu_matrix::Scalar`], so moving data through the seam never
//!   perturbs bits.
//! * Consumers never mutate a fetched payload (shared `Arc`).
//! * Payloads of steps older than the lookahead window are dead and may
//!   be evicted (`Communicator::evict_before`).
//! * Matrix elements and pivot lists never cross ranks except as posted
//!   payloads, under either backend.
//!
//! # Failure semantics
//!
//! `Communicator::cancel` is the one way a run ends early: after it,
//! every blocked and future `Communicator::fetch` on every rank returns
//! [`Error::Canceled`]. The rank-thread driver calls it when a rank finds
//! a singular pivot and — from an unwind guard — when a rank thread
//! panics, so no peer waits for a payload that will never be posted.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use calu_matrix::{Error, Result};

/// Mailbox message key: `(class, k, j, rank-or-prow)`. The `class` is one
/// of the `MAIL_*` constants; `k` is the elimination step the payload
/// belongs to (the eviction horizon key); `j` and the final slot
/// disambiguate within a step (leg index, block column, sender).
pub(crate) type MailKey = (u8, u32, u32, u32);

/// Butterfly accumulator slots (`j` = slot index, slot `l+1` written by
/// leg `l`; slot 0 is the local election).
pub(crate) const MAIL_ACC: u8 = 0;
/// Swap list of step `k` (`who` = the process row whose copy this is:
/// every row broadcasts its own, bitwise identical, along itself).
pub(crate) const MAIL_PIV: u8 = 1;
/// Post-swap `W` block of step `k`.
pub(crate) const MAIL_WBK: u8 = 2;
/// Packed panel rows of one process row (`who` = prow).
pub(crate) const MAIL_PAN: u8 = 3;
/// `U₁₂` of block column `j`.
pub(crate) const MAIL_U12: u8 = 4;
/// Rows of step `k`'s interchanges on block column `j` that change
/// process row (`who` = sending prow · `Pr` + receiving prow): one
/// message per such pair, the rows column-major.
pub(crate) const MAIL_SWP: u8 = 5;
/// `PDGETF2` per-column pivot candidate (`j` = panel column, `who` =
/// sender prow): 3 words `[|v|, global row (−1 = none), v]`.
pub(crate) const MAIL_GCD: u8 = 6;
/// `PDGETF2` winner's trailing row of one panel column (`j` = panel
/// column).
pub(crate) const MAIL_GUR: u8 = 7;
/// `PDGETF2` pivot-row exchange of one panel column (`j` = panel column,
/// `who` as for [`MAIL_SWP`]).
pub(crate) const MAIL_GRX: u8 = 8;

/// Number of mail classes (`MAIL_ACC..=MAIL_GRX`) — sizes the per-class
/// wait counters.
const MAIL_CLASSES: usize = 9;

/// The [`CommLedger`](calu_obs::CommLedger) term a mail class's traffic is
/// accounted under — the same attribution the senders/receivers use for
/// word counts, so blocked-fetch wait time lands next to the words that
/// explain it.
pub(crate) fn mail_class_term(class: u8) -> &'static str {
    match class {
        MAIL_ACC => "tslu_leg",
        MAIL_PIV => "piv_bcast",
        MAIL_WBK => "w_bcast",
        MAIL_PAN => "panel_bcast",
        MAIL_U12 => "u_bcast",
        MAIL_SWP => "swap",
        MAIL_GCD | MAIL_GUR | MAIL_GRX => "panel_getf2",
        _ => unreachable!("unknown mail class {class}"),
    }
}

/// Which communicator backend a distributed run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommKind {
    /// Shared in-process mailbox (the behavior-preserving default).
    #[default]
    InProcess,
    /// Ranks as OS threads over per-rank channels; point-to-point sends.
    Threaded,
}

/// The transport behind `dist_rt`'s keyed-payload mailbox. Object-safe:
/// the driver holds a `&dyn Communicator` and never knows which backend
/// moves the words.
///
/// `from`/`at` are flat grid ranks. Backends with one shared address
/// space ([`InProcessComm`]) may ignore them and `dests`; point-to-point
/// backends route on them.
pub(crate) trait Communicator: Send + Sync {
    /// Stable backend name (`"in_process"`, `"threaded"`).
    fn name(&self) -> &'static str;

    /// Posts one payload under `key` from rank `from` to every rank in
    /// `dests` (`from` itself included means "stash locally"). Keys are
    /// unique per run; posting a key twice to one destination is a
    /// schedule bug.
    fn post(&self, from: usize, key: MailKey, data: Vec<f64>, dests: &[usize]);

    /// The payload posted under `key`, as visible to rank `at`.
    /// Synchronous backends ([`InProcessComm`]) expect the post to have
    /// happened-before (a missing slot is a DAG edge bug and panics);
    /// asynchronous backends ([`ThreadedComm`]) block until the payload
    /// arrives.
    ///
    /// # Errors
    /// [`Error::Canceled`] once the run is canceled.
    fn fetch(&self, at: usize, key: MailKey) -> Result<Arc<Vec<f64>>>;

    /// Drops every payload of steps `<= cutoff` visible to rank `at` —
    /// the lookahead window proves them dead.
    fn evict_before(&self, at: usize, cutoff: u32);

    /// Cancels the run: every blocked and future [`Communicator::fetch`]
    /// on any rank returns [`Error::Canceled`] (payloads already
    /// delivered may still be served first).
    fn cancel(&self, from: usize);

    /// Empties every mailbox/stash/channel and returns how many payload
    /// words were still posted. Called once by the driver after the run.
    fn drain(&self) -> usize;

    /// Payload words still visible after [`Communicator::drain`] — the
    /// leak detector, 0 in the happy path.
    fn residual_words(&self) -> usize;
}

// ---------------------------------------------------------------------------
// InProcess
// ---------------------------------------------------------------------------

/// The original shared mailbox: one locked map every rank reads and
/// writes. Routing is implicit — the DAG's edges are the wire — so
/// `from`/`at`/`dests` are ignored.
///
/// Every lock site recovers from poisoning with
/// [`PoisonError::into_inner`]: the map holds plain `Arc`d payloads whose
/// invariants don't depend on the panicking task, so one poisoned task
/// must not cascade into every other rank's mailbox access (the same
/// hardening the threaded executor's pool uses).
#[derive(Debug, Default)]
pub(crate) struct InProcessComm {
    mail: Mutex<HashMap<MailKey, Arc<Vec<f64>>>>,
}

impl InProcessComm {
    /// An empty mailbox.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Communicator for InProcessComm {
    fn name(&self) -> &'static str {
        "in_process"
    }

    fn post(&self, _from: usize, key: MailKey, data: Vec<f64>, _dests: &[usize]) {
        let prev =
            self.mail.lock().unwrap_or_else(PoisonError::into_inner).insert(key, Arc::new(data));
        debug_assert!(prev.is_none(), "mail slot {key:?} posted twice");
    }

    fn fetch(&self, _at: usize, key: MailKey) -> Result<Arc<Vec<f64>>> {
        Ok(self
            .mail
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .unwrap_or_else(|| panic!("mail slot {key:?} missing — DAG edge bug"))
            .clone())
    }

    fn evict_before(&self, _at: usize, cutoff: u32) {
        self.mail.lock().unwrap_or_else(PoisonError::into_inner).retain(|key, _| key.1 > cutoff);
    }

    fn cancel(&self, _from: usize) {
        // The executor cancels unstarted tasks itself; the shared mailbox
        // has no blocked fetches to wake.
    }

    fn drain(&self) -> usize {
        let mut mail = self.mail.lock().unwrap_or_else(PoisonError::into_inner);
        let words = mail.values().map(|v| v.len()).sum();
        mail.clear();
        words
    }

    fn residual_words(&self) -> usize {
        self.mail.lock().unwrap_or_else(PoisonError::into_inner).values().map(|v| v.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Threaded
// ---------------------------------------------------------------------------

/// How long a blocked [`ThreadedComm::fetch`] waits between cancel-flag
/// checks.
const POLL: Duration = Duration::from_millis(20);
/// A fetch outstanding this long is a schedule bug, not a slow sender.
const STUCK: Duration = Duration::from_secs(60);

struct RankBox {
    /// Point-to-point inbox of this rank.
    rx: Mutex<Receiver<(MailKey, Arc<Vec<f64>>)>>,
    /// Payloads already received (or self-posted), keyed like the shared
    /// mailbox. Fetches never remove — later tasks of the same rank may
    /// re-read — eviction and the final drain clean up.
    stash: Mutex<HashMap<MailKey, Arc<Vec<f64>>>>,
    /// Set by [`Communicator::cancel`]; checked by every blocked fetch.
    canceled: AtomicBool,
    /// Nanoseconds this rank spent blocked in [`Communicator::fetch`],
    /// per mail class. Only misses pay: a fetch whose key is already
    /// stashed records nothing.
    wait_ns: [AtomicU64; MAIL_CLASSES],
}

/// Ranks as real OS threads: rank `r`'s thread owns inbox `r`, sends are
/// point-to-point `mpsc` messages, and a fetch blocks (draining the
/// inbox into the stash) until its key arrives. No shared matrix state —
/// this backend is what makes the distributed execution *physically*
/// parallel.
pub(crate) struct ThreadedComm {
    senders: Vec<Sender<(MailKey, Arc<Vec<f64>>)>>,
    boxes: Vec<RankBox>,
}

impl std::fmt::Debug for ThreadedComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedComm").field("ranks", &self.boxes.len()).finish()
    }
}

impl ThreadedComm {
    /// A communicator for `ranks` ranks with empty inboxes.
    pub(crate) fn new(ranks: usize) -> Self {
        let mut senders = Vec::with_capacity(ranks);
        let mut boxes = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = std::sync::mpsc::channel();
            senders.push(tx);
            boxes.push(RankBox {
                rx: Mutex::new(rx),
                stash: Mutex::new(HashMap::new()),
                canceled: AtomicBool::new(false),
                wait_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            });
        }
        Self { senders, boxes }
    }

    /// Number of ranks.
    pub(crate) fn ranks(&self) -> usize {
        self.boxes.len()
    }

    /// Nanoseconds rank `rank` spent blocked in [`Communicator::fetch`],
    /// aggregated per ledger term ([`mail_class_term`]); zero-wait terms
    /// are omitted, terms sorted. The driver folds these into the
    /// [`CommLedger`](calu_obs::CommLedger) after the run.
    pub(crate) fn wait_ns(&self, rank: usize) -> Vec<(&'static str, u64)> {
        let mut terms: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for (class, w) in self.boxes[rank].wait_ns.iter().enumerate() {
            let nanos = w.load(Ordering::Relaxed);
            if nanos > 0 {
                *terms.entry(mail_class_term(class as u8)).or_default() += nanos;
            }
        }
        terms.into_iter().collect()
    }

    fn stash_insert(
        stash: &Mutex<HashMap<MailKey, Arc<Vec<f64>>>>,
        key: MailKey,
        v: Arc<Vec<f64>>,
    ) {
        let prev = stash.lock().unwrap_or_else(PoisonError::into_inner).insert(key, v);
        debug_assert!(prev.is_none(), "mail slot {key:?} delivered twice");
    }
}

impl Communicator for ThreadedComm {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn post(&self, from: usize, key: MailKey, data: Vec<f64>, dests: &[usize]) {
        let arc = Arc::new(data);
        for &d in dests {
            if d == from {
                Self::stash_insert(&self.boxes[d].stash, key, arc.clone());
            } else {
                // The receivers live inside `self`, so a send can only
                // fail after teardown has begun; dropping the payload
                // then is exactly right.
                let _ = self.senders[d].send((key, arc.clone()));
            }
        }
    }

    fn fetch(&self, at: usize, key: MailKey) -> Result<Arc<Vec<f64>>> {
        let rb = &self.boxes[at];
        // Fast path: already stashed means no waiting — and no wait-clock
        // entry, so the ledger's wait rows measure only genuine blocking.
        if let Some(v) = rb.stash.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return Ok(v.clone());
        }
        let start = Instant::now();
        let res = loop {
            if let Some(v) = rb.stash.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
                break Ok(v.clone());
            }
            if rb.canceled.load(Ordering::Acquire) {
                break Err(Error::Canceled);
            }
            let rx = rb.rx.lock().unwrap_or_else(PoisonError::into_inner);
            match rx.recv_timeout(POLL) {
                Ok((k, v)) => {
                    Self::stash_insert(&rb.stash, k, v);
                    // Opportunistically drain whatever else already
                    // arrived so the stash stays warm for stash-only
                    // consumers. The loop re-reads from the stash
                    // (single exit path).
                    while let Ok((k2, v2)) = rx.try_recv() {
                        Self::stash_insert(&rb.stash, k2, v2);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        start.elapsed() < STUCK,
                        "rank {at}: mail slot {key:?} never delivered — schedule bug"
                    );
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // All senders dropped: only possible during teardown.
                    break Err(Error::Canceled);
                }
            }
        };
        rb.wait_ns[key.0 as usize].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        res
    }

    fn evict_before(&self, at: usize, cutoff: u32) {
        self.boxes[at]
            .stash
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|key, _| key.1 > cutoff);
    }

    fn cancel(&self, _from: usize) {
        for rb in &self.boxes {
            rb.canceled.store(true, Ordering::Release);
        }
    }

    fn drain(&self) -> usize {
        let mut words = 0usize;
        for rb in &self.boxes {
            let mut stash = rb.stash.lock().unwrap_or_else(PoisonError::into_inner);
            words += stash.values().map(|v| v.len()).sum::<usize>();
            stash.clear();
            let rx = rb.rx.lock().unwrap_or_else(PoisonError::into_inner);
            while let Ok((_, v)) = rx.try_recv() {
                words += v.len();
            }
        }
        words
    }

    fn residual_words(&self) -> usize {
        self.boxes
            .iter()
            .map(|rb| {
                rb.stash
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(|v| v.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: MailKey = (MAIL_PIV, 3, 0, 1);

    #[test]
    fn in_process_round_trips_and_drains() {
        let c = InProcessComm::new();
        c.post(0, KEY, vec![1.0, 2.0], &[]);
        assert_eq!(*c.fetch(5, KEY).unwrap(), vec![1.0, 2.0]);
        c.post(0, (MAIL_ACC, 1, 0, 0), vec![9.0], &[]);
        assert_eq!(c.residual_words(), 3);
        c.evict_before(0, 2);
        assert_eq!(c.residual_words(), 2, "old step evicted, current step kept");
        assert_eq!(*c.fetch(0, KEY).unwrap(), vec![1.0, 2.0]);
        assert_eq!(c.drain(), 2);
        assert_eq!(c.residual_words(), 0);
    }

    /// Satellite regression: one panicking task must not cascade — a
    /// poisoned mailbox lock stays usable for every subsequent post,
    /// fetch, evict, and drain.
    #[test]
    fn in_process_survives_a_poisoned_lock_without_cascading() {
        let c = InProcessComm::new();
        c.post(0, KEY, vec![4.0], &[]);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = c.mail.lock().unwrap();
            panic!("task died holding the mailbox");
        }));
        assert!(poison.is_err());
        assert!(c.mail.is_poisoned(), "the lock must actually be poisoned for this test to bite");
        // Every op still works on the poisoned lock.
        c.post(0, (MAIL_WBK, 3, 0, 0), vec![1.0, 2.0, 3.0], &[]);
        assert_eq!(*c.fetch(0, KEY).unwrap(), vec![4.0]);
        assert_eq!(c.fetch(0, (MAIL_WBK, 3, 0, 0)).unwrap().len(), 3);
        c.evict_before(0, 0);
        assert_eq!(c.drain(), 4);
        assert_eq!(c.residual_words(), 0);
    }

    #[test]
    fn threaded_routes_point_to_point_and_blocks_until_delivery() {
        let c = ThreadedComm::new(4);
        // Self-post goes straight to the sender's stash and nowhere else.
        c.post(2, KEY, vec![7.0], &[2]);
        assert_eq!(*c.fetch(2, KEY).unwrap(), vec![7.0]);
        assert_eq!(c.residual_words(), 1, "one stashed copy: not addressed to any other rank");
        // Cross-rank: rank 3 blocks until rank 0 posts.
        std::thread::scope(|s| {
            let c = &c;
            let h = s.spawn(move || c.fetch(3, (MAIL_U12, 0, 1, 0)).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            c.post(0, (MAIL_U12, 0, 1, 0), vec![1.0, 2.0, 3.0], &[1, 3]);
            assert_eq!(*h.join().unwrap(), vec![1.0, 2.0, 3.0]);
        });
        // Rank 1's copy sits in its channel until something looks for it.
        assert_eq!(c.residual_words(), 1 + 3);
        assert_eq!(*c.fetch(1, (MAIL_U12, 0, 1, 0)).unwrap(), vec![1.0, 2.0, 3.0]);
        // Repeated fetches re-read the stash.
        assert_eq!(c.fetch(3, (MAIL_U12, 0, 1, 0)).unwrap().len(), 3);
        assert_eq!(c.drain(), 1 + 3 + 3);
        assert_eq!(c.residual_words(), 0);
    }

    #[test]
    fn threaded_cancel_unblocks_fetches_everywhere() {
        let c = ThreadedComm::new(2);
        std::thread::scope(|s| {
            let c = &c;
            let h = s.spawn(move || c.fetch(1, (MAIL_PAN, 9, 0, 0)));
            std::thread::sleep(Duration::from_millis(30));
            c.cancel(0);
            assert_eq!(h.join().unwrap(), Err(Error::Canceled));
        });
        // New fetches fail fast too; already-stashed payloads still serve.
        c.post(0, KEY, vec![5.0], &[0]);
        assert_eq!(*c.fetch(0, KEY).unwrap(), vec![5.0]);
        assert_eq!(c.fetch(0, (MAIL_PAN, 9, 0, 0)), Err(Error::Canceled));
    }

    #[test]
    fn threaded_evicts_old_steps_per_rank() {
        let c = ThreadedComm::new(2);
        c.post(0, (MAIL_ACC, 1, 0, 0), vec![1.0], &[0]);
        c.post(0, (MAIL_ACC, 5, 0, 0), vec![2.0], &[0, 1]);
        assert_eq!(c.residual_words(), 2);
        c.evict_before(0, 3);
        assert_eq!(c.residual_words(), 1, "step 1 evicted from rank 0's stash");
        assert_eq!(*c.fetch(0, (MAIL_ACC, 5, 0, 0)).unwrap(), vec![2.0]);
        // Rank 1 evicts independently; its in-flight copy is untouched.
        c.evict_before(1, 3);
        assert_eq!(*c.fetch(1, (MAIL_ACC, 5, 0, 0)).unwrap(), vec![2.0]);
    }

    #[test]
    fn threaded_wait_clocks_charge_blocking_fetches_only() {
        let c = ThreadedComm::new(2);
        // Stash hit: no wait recorded.
        c.post(0, KEY, vec![1.0], &[0]);
        assert_eq!(*c.fetch(0, KEY).unwrap(), vec![1.0]);
        assert!(c.wait_ns(0).is_empty(), "stash hits must not charge the wait clock");
        // Blocked fetch: the wait lands on the key's ledger term.
        std::thread::scope(|s| {
            let c = &c;
            let h = s.spawn(move || c.fetch(1, (MAIL_U12, 0, 2, 0)).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            c.post(0, (MAIL_U12, 0, 2, 0), vec![2.0], &[1]);
            assert_eq!(*h.join().unwrap(), vec![2.0]);
        });
        let waits = c.wait_ns(1);
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].0, "u_bcast");
        assert!(waits[0].1 >= 10_000_000, "~30ms of blocking must register (got {})", waits[0].1);
        assert!(c.wait_ns(0).is_empty(), "only the blocked rank pays");
        // All nine mail classes map onto the ledger vocabulary.
        for class in 0..9u8 {
            assert!(!mail_class_term(class).is_empty());
        }
        assert_eq!(mail_class_term(MAIL_GCD), mail_class_term(MAIL_GRX));
    }
}
