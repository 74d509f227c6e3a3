//! Spawns one real thread per simulated rank and collects the report.

use crate::comm::{Envelope, RankStats, SimComm};
use crate::machine::MachineConfig;
use calu_obs::{Recorder, Span};
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Outcome of a simulation: per-rank accounting plus aggregates.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Accounting per rank, indexed by rank id.
    pub per_rank: Vec<RankStats>,
}

impl SimReport {
    /// Parallel completion time: the maximum rank clock (the quantity the
    /// paper's tables compare).
    pub fn makespan(&self) -> f64 {
        self.per_rank.iter().fold(0.0_f64, |m, r| m.max(r.time))
    }

    /// Total messages sent by all ranks.
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.msgs_sent).sum()
    }

    /// Total 8-byte words sent by all ranks.
    pub fn total_words(&self) -> u64 {
        self.per_rank.iter().map(|r| r.words_sent).sum()
    }

    /// Total modeled flops over all ranks.
    pub fn total_flops(&self) -> f64 {
        self.per_rank.iter().map(|r| r.flops).sum()
    }

    /// Aggregate GFLOP/s: total flops over makespan.
    pub fn gflops(&self) -> f64 {
        let t = self.makespan();
        if t <= 0.0 {
            0.0
        } else {
            self.total_flops() / t / 1e9
        }
    }
}

/// Runs `f` as an SPMD program on `p` simulated ranks over `machine`,
/// returning the report and each rank's return value (indexed by rank).
///
/// The closure receives this rank's [`SimComm`]; real data sent through the
/// communicator flows between the threads, while time is purely virtual.
///
/// ```
/// use calu_netsim::{run_sim, Link, MachineConfig, Payload};
///
/// // Rank 0 pings rank 1; the virtual clock prices the messages.
/// let (report, _) = run_sim(2, MachineConfig::power5(), |cm| {
///     if cm.rank() == 0 {
///         cm.send(1, 0, 100, Payload::Data(vec![1.0; 100]), Link::Col);
///     } else {
///         let (data, words) = cm.recv(0, 0);
///         assert_eq!(words, 100);
///         assert_eq!(data.into_data()[0], 1.0);
///     }
/// });
/// assert_eq!(report.total_msgs(), 1);
/// assert!(report.makespan() > 4.5e-6, "at least one POWER5 latency");
/// ```
///
/// # Panics
/// Propagates panics from rank closures (the first one observed).
pub fn run_sim<F, R>(p: usize, machine: MachineConfig, f: F) -> (SimReport, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Sync,
    R: Send,
{
    let (report, _spans, results) = run_sim_inner(p, machine, f, None);
    (report, results)
}

/// [`run_sim`] with tracing enabled; additionally returns every rank's
/// compute and send spans (pid = rank, tid 0, cat `"compute"`/`"send"`,
/// virtual seconds as microseconds), sorted by start, for
/// [`calu_obs::render_gantt`] and [`calu_obs::chrome_trace`]. A wait records
/// nothing: idle is the gap. Tracing allocates one span per clock advance —
/// use it on presentation-sized configurations, not paper-scale sweeps.
///
/// # Panics
/// Propagates panics from rank closures (the first one observed).
pub fn run_sim_traced<F, R>(
    p: usize,
    machine: MachineConfig,
    f: F,
) -> (SimReport, Vec<Span>, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Sync,
    R: Send,
{
    run_sim_inner(p, machine, f, Some(Arc::new(Recorder::new())))
}

fn run_sim_inner<F, R>(
    p: usize,
    machine: MachineConfig,
    f: F,
    trace: Option<Arc<Recorder>>,
) -> (SimReport, Vec<Span>, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Sync,
    R: Send,
{
    assert!(p > 0, "need at least one rank");
    let machine = Arc::new(machine);

    let mut senders = Vec::with_capacity(p);
    let mut inboxes = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel::<Envelope>();
        senders.push(tx);
        inboxes.push(rx);
    }

    let mut comms: Vec<SimComm> = inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| {
            SimComm::new(rank, p, Arc::clone(&machine), senders.clone(), inbox, trace.clone())
        })
        .collect();
    // Drop the original senders so channels close when comms drop.
    drop(senders);

    let f = &f;
    let mut out: Vec<Option<(RankStats, R)>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for mut cm in comms.drain(..) {
            handles.push(scope.spawn(move || {
                let r = f(&mut cm);
                (cm.into_stats(), r)
            }));
        }
        for (slot, h) in out.iter_mut().zip(handles) {
            match h.join() {
                Ok(tuple) => *slot = Some(tuple),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });

    let mut per_rank = Vec::with_capacity(p);
    let mut results = Vec::with_capacity(p);
    for slot in out {
        let (stats, r) = slot.expect("rank produced no result");
        per_rank.push(stats);
        results.push(r);
    }
    let spans = trace.map(|rec| rec.take()).unwrap_or_default();
    (SimReport { per_rank }, spans, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Payload;
    use crate::machine::{Link, MachineConfig};

    #[test]
    fn results_are_rank_ordered() {
        let (_r, results) = run_sim(8, MachineConfig::ideal(), |cm| cm.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn report_aggregates_messages() {
        let (report, _) = run_sim(4, MachineConfig::ideal(), |cm| {
            let next = (cm.rank() + 1) % cm.size();
            let prev = (cm.rank() + cm.size() - 1) % cm.size();
            cm.send(next, 0, 10, Payload::Empty, Link::Row);
            cm.recv(prev, 0);
        });
        assert_eq!(report.total_msgs(), 4);
        assert_eq!(report.total_words(), 40);
    }

    #[test]
    fn single_rank_runs_without_channels() {
        let (report, results) = run_sim(1, MachineConfig::ideal(), |cm| {
            cm.compute(1.0, 42.0);
            "done"
        });
        assert_eq!(results, vec!["done"]);
        assert_eq!(report.makespan(), 1.0);
        assert_eq!(report.total_flops(), 42.0);
    }

    #[test]
    fn makespan_is_max_clock() {
        let (report, _) = run_sim(3, MachineConfig::ideal(), |cm| {
            cm.compute(cm.rank() as f64, 0.0);
        });
        assert_eq!(report.makespan(), 2.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (report, _) = run_sim(4, MachineConfig::power5(), |cm| {
                // All-to-one then one-to-all with data.
                if cm.rank() == 0 {
                    for src in 1..cm.size() {
                        let (p, _) = cm.recv(src, 1);
                        assert_eq!(p.into_data().len(), 5);
                    }
                    for dst in 1..cm.size() {
                        cm.send(dst, 2, 5, Payload::Data(vec![0.0; 5]), Link::Col);
                    }
                } else {
                    cm.send(0, 1, 5, Payload::Data(vec![cm.rank() as f64; 5]), Link::Col);
                    cm.recv(0, 2);
                }
            });
            report.per_rank.iter().map(|r| r.time).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
