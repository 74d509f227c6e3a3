//! Per-rank simulated communicator with a virtual clock.
//!
//! Every simulated process runs on a real OS thread; numerical payloads flow
//! through `mpsc` channels, so distributed algorithms execute their
//! *actual* data flow. Time, however, is virtual: each rank carries a clock
//! that advances by modeled compute time ([`SimComm::compute`]) and by the
//! α-β cost of every message. A receive waits until the message's modeled
//! arrival: `clock = max(clock, sender_departure + α + w·β)` — the standard
//! LogP-style postal semantics, matching the paper's "α + mβ" model.
//!
//! Messages are matched selectively by `(source, tag)` (MPI semantics);
//! mismatching arrivals are parked until asked for, so SPMD code can post
//! sends in any order without deadlocking the virtual schedule.

use crate::machine::{Link, MachineConfig};
use calu_obs::Recorder;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Message body: real data for numerics runs, or nothing for cost-skeleton
/// runs of paper-scale problems (the charged `words` are independent of the
/// physical payload).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// No physical data (skeleton mode).
    Empty,
    /// A vector of `f64` (dense blocks, pivot candidates, permutations…).
    Data(Vec<f64>),
}

impl Payload {
    /// Unwraps the data variant.
    ///
    /// # Panics
    /// If the payload is [`Payload::Empty`].
    pub fn into_data(self) -> Vec<f64> {
        match self {
            Payload::Data(v) => v,
            Payload::Empty => panic!("expected data payload, got Empty"),
        }
    }
}

pub(crate) struct Envelope {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    /// Modeled arrival time at the receiver (departure + α + w·β).
    pub(crate) arrive: f64,
    pub(crate) words: usize,
    pub(crate) payload: Payload,
}

/// Per-rank accounting accumulated during a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Final virtual clock (seconds).
    pub time: f64,
    /// Virtual seconds spent in modeled compute.
    pub compute_time: f64,
    /// Virtual seconds the sender spent injecting messages (α + wβ each).
    pub send_time: f64,
    /// The latency (`α`) part of [`Self::send_time`] — the component CALU
    /// attacks (paper Section 1: "CALU overcomes the latency bottleneck").
    pub alpha_time: f64,
    /// The volume (`w·β`) part of [`Self::send_time`]; CALU and `PDGETRF`
    /// move the same volume (paper Section 5), so this should match across
    /// the two algorithms.
    pub beta_time: f64,
    /// Virtual seconds spent blocked waiting for arrivals.
    pub idle_time: f64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// 8-byte words sent.
    pub words_sent: u64,
    /// Modeled flops executed.
    pub flops: f64,
}

/// The simulated communicator handed to each rank's closure by
/// [`run_sim`](crate::runner::run_sim).
pub struct SimComm {
    rank: usize,
    size: usize,
    machine: Arc<MachineConfig>,
    clock: f64,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    parked: HashMap<(usize, u64), VecDeque<Envelope>>,
    stats: RankStats,
    /// Where this rank's compute and send spans go, only under
    /// [`run_sim_traced`](crate::runner::run_sim_traced).
    trace: Option<Arc<Recorder>>,
    /// Deferrable compute (seconds) that may fill receive-wait gaps — the
    /// look-ahead overlap model. See [`SimComm::defer_compute`].
    deferred_secs: f64,
    /// Flops attached to the deferred seconds (consumed proportionally).
    deferred_flops: f64,
}

/// How long a simulated rank may block on a real channel before the harness
/// declares the SPMD program deadlocked. Generous because skeleton runs of
/// big sweeps legitimately keep ranks idle for a while (real time, not
/// virtual time).
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

impl SimComm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        machine: Arc<MachineConfig>,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        trace: Option<Arc<Recorder>>,
    ) -> Self {
        Self {
            rank,
            size,
            machine,
            clock: 0.0,
            senders,
            inbox,
            parked: HashMap::new(),
            stats: RankStats::default(),
            trace,
            deferred_secs: 0.0,
            deferred_flops: 0.0,
        }
    }

    /// Records a `"compute"` or `"send"` span over virtual seconds
    /// `start..end` in this rank's lane (pid = rank, tid 0). A wait records
    /// nothing: idle is the gap.
    #[inline]
    fn record(&self, cat: &'static str, start: f64, end: f64) {
        if let Some(rec) = &self.trace {
            if end > start {
                rec.record_interval(cat.to_string(), cat, self.rank as u32, 0, start, end);
            }
        }
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the simulation.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The machine model this simulation runs under.
    #[inline]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    pub(crate) fn into_stats(mut self) -> RankStats {
        // Deferred work that never found a gap still has to run.
        self.flush_deferred();
        self.stats.time = self.clock;
        self.stats
    }

    /// Advances the virtual clock by `seconds` of compute performing
    /// `flops` floating-point operations.
    pub fn compute(&mut self, seconds: f64, flops: f64) {
        debug_assert!(seconds >= 0.0 && flops >= 0.0);
        let t0 = self.clock;
        self.clock += seconds;
        self.stats.compute_time += seconds;
        self.stats.flops += flops;
        self.record("compute", t0, self.clock);
    }

    /// Sends `payload` to `to` with matching `tag`, charging `words` 8-byte
    /// words on `link`. The sender's clock advances by the full `α + w·β`
    /// (the paper's model treats sends as blocking steps).
    pub fn send(&mut self, to: usize, tag: u64, words: usize, payload: Payload, link: Link) {
        assert!(to < self.size, "send to rank {to} out of {}", self.size);
        assert_ne!(to, self.rank, "self-send is not modeled");
        let t = self.machine.t_msg(words, link);
        let t0 = self.clock;
        self.clock += t;
        self.stats.send_time += t;
        self.stats.alpha_time += self.machine.alpha(link);
        self.stats.beta_time += words as f64 * self.machine.beta(link);
        self.stats.msgs_sent += 1;
        self.stats.words_sent += words as u64;
        self.record("send", t0, self.clock);
        let env = Envelope { src: self.rank, tag, arrive: self.clock, words, payload };
        self.senders[to]
            .send(env)
            .unwrap_or_else(|_| panic!("rank {} vanished before receiving", to));
    }

    /// Receives the next message from `from` with `tag`, blocking the real
    /// thread as needed and advancing the virtual clock to the arrival.
    ///
    /// # Panics
    /// If no matching message shows up within a generous real-time bound
    /// (which indicates a deadlocked SPMD program).
    pub fn recv(&mut self, from: usize, tag: u64) -> (Payload, usize) {
        let env = self.take_matching(from, tag);
        if env.arrive > self.clock {
            let t0 = self.clock;
            let gap = env.arrive - self.clock;
            // Deferred compute fills the wait (look-ahead overlap model):
            // the clock still jumps to the arrival, but up to `gap` seconds
            // of the deferred pool execute "for free" during it.
            let used = gap.min(self.deferred_secs);
            if used > 0.0 {
                let flops = self.deferred_flops * (used / self.deferred_secs);
                self.deferred_secs -= used;
                self.deferred_flops -= flops;
                self.stats.compute_time += used;
                self.stats.flops += flops;
                self.record("compute", t0, t0 + used);
            }
            self.stats.idle_time += gap - used;
            self.clock = env.arrive;
        }
        (env.payload, env.words)
    }

    /// Adds compute work to the *deferred* pool: it does not advance the
    /// clock now, but fills this rank's receive-wait gaps until
    /// [`SimComm::flush_deferred`] charges whatever is left.
    ///
    /// This is the cost-model counterpart of communication/computation
    /// overlap — HPL's look-ahead defers the trailing update so the next
    /// panel's factorization (and its message waits) can proceed; the paper
    /// names exactly that technique as compatible with CALU (Section 4).
    pub fn defer_compute(&mut self, seconds: f64, flops: f64) {
        debug_assert!(seconds >= 0.0 && flops >= 0.0);
        self.deferred_secs += seconds;
        self.deferred_flops += flops;
    }

    /// Charges any deferred compute that found no wait gap to hide in.
    /// Call before the deferred work's *results* are needed.
    pub fn flush_deferred(&mut self) {
        let (s, f) = (self.deferred_secs, self.deferred_flops);
        self.deferred_secs = 0.0;
        self.deferred_flops = 0.0;
        if s > 0.0 {
            self.compute(s, f);
        }
    }

    fn take_matching(&mut self, from: usize, tag: u64) -> Envelope {
        if let Some(q) = self.parked.get_mut(&(from, tag)) {
            if let Some(env) = q.pop_front() {
                return env;
            }
        }
        loop {
            let env = self.inbox.recv_timeout(RECV_TIMEOUT).unwrap_or_else(|_| {
                panic!(
                    "rank {} timed out waiting for (src={from}, tag={tag}) — SPMD deadlock?",
                    self.rank
                )
            });
            if env.src == from && env.tag == tag {
                return env;
            }
            self.parked.entry((env.src, env.tag)).or_default().push_back(env);
        }
    }

    /// Charges `rounds` additional serialized message rounds of `words`
    /// words each on `link` — clock, message and word counters advance as
    /// if the rounds happened, but no physical channel traffic occurs.
    ///
    /// Cost skeletons use this for inner loops of *identical* exchanges
    /// (e.g. `PDLASWP`'s per-row swaps, `PDGETF2`'s per-column reductions):
    /// once a group has been coupled by one real round, every further
    /// serialized round advances each member's clock by exactly `α + w·β`
    /// per tree level — the paper's own "log₂ P identical steps" modeling
    /// assumption — so simulating the channel traffic adds nothing but
    /// wall-clock. Never use it for exchanges that *change* the relative
    /// schedule of ranks.
    pub fn charge_rounds(&mut self, rounds: usize, words: usize, link: Link) {
        let t = self.machine.t_msg(words, link) * rounds as f64;
        let t0 = self.clock;
        self.clock += t;
        self.stats.send_time += t;
        self.stats.alpha_time += rounds as f64 * self.machine.alpha(link);
        self.stats.beta_time += (rounds * words) as f64 * self.machine.beta(link);
        self.stats.msgs_sent += rounds as u64;
        self.stats.words_sent += (rounds * words) as u64;
        self.record("send", t0, self.clock);
    }

    /// Exchange with a partner (both directions, same tag/size class):
    /// send first, then receive — the butterfly step of TSLU.
    pub fn sendrecv(
        &mut self,
        peer: usize,
        tag: u64,
        words: usize,
        payload: Payload,
        link: Link,
    ) -> (Payload, usize) {
        self.send(peer, tag, words, payload, link);
        self.recv(peer, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::runner::run_sim;

    #[test]
    fn ping_pong_advances_clocks_by_alpha_beta() {
        let m = MachineConfig::power5();
        let alpha = m.alpha_col;
        let beta = m.beta_col;
        let (report, _) = run_sim(2, m, |cm| {
            if cm.rank() == 0 {
                cm.send(1, 7, 100, Payload::Data(vec![1.0; 100]), Link::Col);
                let (p, w) = cm.recv(1, 8);
                assert_eq!(w, 100);
                assert_eq!(p.into_data().len(), 100);
            } else {
                let (_p, _w) = cm.recv(0, 7);
                cm.send(0, 8, 100, Payload::Data(vec![2.0; 100]), Link::Col);
            }
        });
        let one_msg = alpha + 100.0 * beta;
        // Postal model: each hop is one message step on the critical path.
        // Rank 0's reply arrives at 2 message times (our send completes at
        // 1T; rank 1's reply departs/arrives at 2T).
        let expect = 2.0 * one_msg;
        assert!(
            (report.per_rank[0].time - expect).abs() < 1e-12,
            "got {}, want {}",
            report.per_rank[0].time,
            expect
        );
    }

    #[test]
    fn selective_receive_reorders_messages() {
        let (_report, results) = run_sim(2, MachineConfig::ideal(), |cm| {
            if cm.rank() == 0 {
                cm.send(1, 1, 1, Payload::Data(vec![1.0]), Link::Col);
                cm.send(1, 2, 1, Payload::Data(vec![2.0]), Link::Col);
                0.0
            } else {
                // Ask for tag 2 first even though tag 1 arrives first.
                let (p2, _) = cm.recv(0, 2);
                let (p1, _) = cm.recv(0, 1);
                p2.into_data()[0] * 10.0 + p1.into_data()[0]
            }
        });
        assert_eq!(results[1], 21.0);
    }

    #[test]
    fn compute_accumulates_stats() {
        let (report, _) = run_sim(1, MachineConfig::ideal(), |cm| {
            cm.compute(1.5, 300.0);
            cm.compute(0.5, 100.0);
        });
        assert_eq!(report.per_rank[0].compute_time, 2.0);
        assert_eq!(report.per_rank[0].flops, 400.0);
        assert_eq!(report.per_rank[0].time, 2.0);
    }

    #[test]
    fn deferred_compute_fills_recv_gaps() {
        let m = MachineConfig::ideal();
        let (report, _) = run_sim(2, m, |cm| {
            if cm.rank() == 0 {
                cm.compute(5.0, 0.0); // rank 0 busy 5 s
                cm.send(1, 0, 0, Payload::Empty, Link::Col);
            } else {
                cm.defer_compute(3.0, 300.0); // hides in the 5 s wait
                cm.recv(0, 0);
                cm.flush_deferred(); // nothing left to charge
            }
        });
        let r1 = &report.per_rank[1];
        assert!((r1.compute_time - 3.0).abs() < 1e-12, "overlapped work counts as compute");
        assert!((r1.idle_time - 2.0).abs() < 1e-12, "only the uncovered gap is idle");
        assert!((r1.time - 5.0).abs() < 1e-12, "clock still jumps to the arrival");
        assert!((r1.flops - 300.0).abs() < 1e-9);
    }

    #[test]
    fn deferred_compute_beyond_gap_is_charged_at_flush() {
        let m = MachineConfig::ideal();
        let (report, _) = run_sim(2, m, |cm| {
            if cm.rank() == 0 {
                cm.compute(1.0, 0.0);
                cm.send(1, 0, 0, Payload::Empty, Link::Col);
            } else {
                cm.defer_compute(4.0, 400.0);
                cm.recv(0, 0); // absorbs 1 s
                cm.flush_deferred(); // charges the remaining 3 s
            }
        });
        let r1 = &report.per_rank[1];
        assert!((r1.compute_time - 4.0).abs() < 1e-12);
        assert!((r1.time - 4.0).abs() < 1e-12, "1 s hidden + 3 s flushed");
        assert_eq!(r1.idle_time, 0.0);
    }

    #[test]
    fn unflushed_deferred_work_is_charged_at_exit() {
        let (report, _) = run_sim(1, MachineConfig::ideal(), |cm| {
            cm.defer_compute(2.0, 200.0);
            // No flush: the harness must not lose the work.
        });
        assert!((report.per_rank[0].time - 2.0).abs() < 1e-12);
        assert!((report.per_rank[0].flops - 200.0).abs() < 1e-9);
    }

    #[test]
    fn idle_time_counts_waiting() {
        let m = MachineConfig::ideal();
        let (report, _) = run_sim(2, m, |cm| {
            if cm.rank() == 0 {
                cm.compute(5.0, 0.0); // rank 0 is busy...
                cm.send(1, 0, 0, Payload::Empty, Link::Col);
            } else {
                cm.recv(0, 0); // ...so rank 1 idles 5 virtual seconds.
            }
        });
        assert!((report.per_rank[1].idle_time - 5.0).abs() < 1e-12);
        assert!((report.per_rank[1].time - 5.0).abs() < 1e-12);
    }
}
