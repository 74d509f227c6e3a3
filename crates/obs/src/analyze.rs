//! Wait-state profiling and measured critical-path analysis.
//!
//! The recording layers ([`trace`](crate::trace), [`ledger`](crate::ledger))
//! say *what happened*; this module says *where the time went*. It ingests
//! a span timeline (live [`Recorder`](crate::Recorder) output or a parsed
//! Chrome trace) plus the wait/queue-delay side channels and produces a
//! [`Profile`]: per-worker wall-clock partitioned into **compute**,
//! **comm-wait**, **overhead**, and **idle**, with an *exact* sum-to-wall
//! invariant, plus the *measured* critical path — the longest temporal
//! chain of spans, optionally restricted to the DAG's dependency edges.
//!
//! # The exact-partition arithmetic
//!
//! All partition math happens in integer nanoseconds so the invariant is
//! equality, not tolerance. Per worker lane `(pid, tid)`:
//!
//! * `busy` — the length of the **interval union** of the lane's spans
//!   (spans may nest, e.g. the serve layer's `process` span over its task
//!   spans; summing durations would double-count).
//! * `comm_wait = min(reported blocked-fetch time, busy)` — waiting
//!   happens *inside* task spans (a blocked `fetch` runs under the task
//!   that needed the payload), so it is carved out of busy time.
//! * `compute = busy − comm_wait` — the remainder of busy time.
//! * `overhead = min(reported queue delay, wall − busy)` — ready-to-start
//!   gaps live *outside* spans, so they are carved out of non-busy time.
//! * `idle = wall − busy − overhead` — everything else.
//!
//! By construction `compute + comm_wait + overhead + idle == wall` holds
//! exactly for every worker, for any inputs — the clamps make the
//! partition total; the tests and CI assert the equality bit-for-bit.
//!
//! # Measured critical paths
//!
//! [`longest_chain_ns`] is the *temporal* critical path: the maximum
//! total duration of any chain of non-overlapping spans (each next span
//! starts at or after the previous one ends). It needs no DAG and upper-
//! bounds any dependency-constrained chain. [`dag_span_chain_ns`] chains
//! executed spans through explicit dependency edges (keeping only edges
//! the timeline is consistent with), so for a run that recorded one or
//! more spans per DAG task:
//!
//! `dag_span_chain_ns ≤ longest_chain_ns ≤ wall`
//!
//! — the sandwich `tests/observability.rs` asserts on live distributed
//! runs under both communicators.

use std::collections::BTreeMap;

use crate::json::JsonValue;
use crate::trace::Span;

/// One span as a closed integer-nanosecond interval `(start, end)`.
///
/// Chrome traces carry microsecond floats; rounding both endpoints to
/// nanoseconds keeps every downstream sum exact.
pub(crate) fn span_interval_ns(s: &Span) -> (u64, u64) {
    let start = (s.ts_us * 1e3).round().max(0.0) as u64;
    let end = ((s.ts_us + s.dur_us) * 1e3).round().max(0.0) as u64;
    (start, end.max(start))
}

/// All spans as nanosecond intervals, in span order.
pub fn intervals_ns(spans: &[Span]) -> Vec<(u64, u64)> {
    spans.iter().map(span_interval_ns).collect()
}

/// Total length of the union of `intervals` (overlaps counted once).
pub(crate) fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The measured critical path over a bare timeline: the maximum total
/// duration of any chain of non-overlapping intervals (every next
/// interval starts at or after the previous one ends). `O(n log n)`
/// weighted-interval DP; no dependency information needed, so it upper-
/// bounds every DAG-constrained chain over the same intervals.
pub fn longest_chain_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable_by_key(|&(s, e)| (e, s));
    let ends: Vec<u64> = sorted.iter().map(|&(_, e)| e).collect();
    // prefix_max[i] = best chain total using only the first i intervals.
    let mut prefix_max = vec![0u64; sorted.len() + 1];
    for (i, &(s, e)) in sorted.iter().enumerate() {
        // Intervals are sorted by end, so everything ending at or before
        // this start is a valid predecessor; take the best of them.
        let fits = ends[..i].partition_point(|&pe| pe <= s);
        let chain = (e - s) + prefix_max[fits];
        prefix_max[i + 1] = prefix_max[i].max(chain);
    }
    prefix_max[sorted.len()]
}

/// The measured critical path restricted to dependency structure: the
/// longest duration-weighted path through `edges` (pairs of indices into
/// `intervals`), keeping only edges the timeline is consistent with
/// (predecessor ends at or before successor starts). Collective tasks may
/// execute once per participant — pass one interval per *execution* and
/// fan the task-level edge out to all instance pairs; inconsistent pairs
/// drop out here.
///
/// Every retained path is a non-overlapping temporal chain, so the result
/// is `≤` [`longest_chain_ns`] over the same intervals by construction.
pub fn dag_span_chain_ns(intervals: &[(u64, u64)], edges: &[(usize, usize)]) -> u64 {
    let n = intervals.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for &(u, v) in edges {
        if u < n && v < n && u != v && intervals[u].1 <= intervals[v].0 {
            succs[u].push(v);
            indeg[v] += 1;
        }
    }
    let dur = |i: usize| intervals[i].1 - intervals[i].0;
    let mut dp: Vec<u64> = (0..n).map(dur).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(u) = queue.pop() {
        for &v in &succs[u] {
            dp[v] = dp[v].max(dp[u] + dur(v));
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    dp.into_iter().max().unwrap_or(0)
}

/// One worker lane's exact wall-clock partition. All fields are integer
/// nanoseconds; [`WorkerProfile::partition_exact`] is `true` by
/// construction (see the module docs for the arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Rank lane (Chrome `pid`).
    pub pid: u32,
    /// Worker lane within the rank (Chrome `tid`).
    pub tid: u32,
    /// The profile's wall clock (shared by every lane).
    pub wall_ns: u64,
    /// Union length of this lane's spans.
    pub(crate) busy_ns: u64,
    /// Busy time net of communication waiting.
    pub compute_ns: u64,
    /// Blocked-fetch time carved out of busy time.
    pub comm_wait_ns: u64,
    /// Scheduler queue delay carved out of non-busy time.
    pub overhead_ns: u64,
    /// Remaining non-busy, non-overhead time.
    pub idle_ns: u64,
    /// Spans recorded on this lane.
    pub(crate) spans: usize,
}

impl WorkerProfile {
    /// The sum-to-wall invariant: `compute + comm_wait + overhead + idle
    /// == wall`, exactly.
    pub fn partition_exact(&self) -> bool {
        self.compute_ns + self.comm_wait_ns + self.overhead_ns + self.idle_ns == self.wall_ns
    }

    /// JSON row (nanosecond integers plus float seconds).
    pub(crate) fn to_json(self) -> JsonValue {
        JsonValue::obj()
            .set("pid", self.pid)
            .set("tid", self.tid)
            .set("spans", self.spans)
            .set("wall_ns", self.wall_ns)
            .set("busy_ns", self.busy_ns)
            .set("compute_ns", self.compute_ns)
            .set("comm_wait_ns", self.comm_wait_ns)
            .set("overhead_ns", self.overhead_ns)
            .set("idle_ns", self.idle_ns)
            .set("compute_s", self.compute_ns as f64 / 1e9)
            .set("comm_wait_s", self.comm_wait_ns as f64 / 1e9)
            .set("overhead_s", self.overhead_ns as f64 / 1e9)
            .set("idle_s", self.idle_ns as f64 / 1e9)
    }
}

/// Side-channel inputs to [`Profile::build`] beyond the span timeline
/// itself. Both tables key on the `(pid, tid)` worker lane; lanes with no
/// entry contribute zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileInputs<'a> {
    /// Wall-clock seconds of the whole run, if the caller measured one.
    /// The profile's wall is `max(this, latest span end)`, so the busy
    /// union can never exceed it.
    pub wall_s: f64,
    /// Blocked-fetch nanoseconds per lane (e.g. the ledger's wait rows,
    /// with rank `r` mapped to lane `(r, r)` for rank-threaded runs).
    pub comm_wait_ns: &'a [((u32, u32), u64)],
    /// Scheduler queue-delay nanoseconds per lane (the executors'
    /// ready-to-start gaps, summed per worker).
    pub overhead_ns: &'a [((u32, u32), u64)],
}

/// The analysis result: per-worker exact wall-clock partitions plus the
/// measured temporal critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// The run's wall clock: `max(caller-supplied wall, latest span end)`.
    pub wall_ns: u64,
    /// Measured critical path over all spans ([`longest_chain_ns`]).
    pub measured_cp_ns: u64,
    /// One partition per `(pid, tid)` lane, sorted by lane.
    pub workers: Vec<WorkerProfile>,
    /// Total spans analyzed.
    pub spans: usize,
}

impl Profile {
    /// Builds the profile from a span timeline plus the wait/queue-delay
    /// side channels. Every returned [`WorkerProfile`] satisfies
    /// [`WorkerProfile::partition_exact`]; this method asserts it.
    pub fn build(spans: &[Span], inputs: ProfileInputs<'_>) -> Profile {
        let mut lanes: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
        let mut all = Vec::with_capacity(spans.len());
        for s in spans {
            let iv = span_interval_ns(s);
            lanes.entry((s.pid, s.tid)).or_default().push(iv);
            all.push(iv);
        }
        let span_end = all.iter().map(|&(_, e)| e).max().unwrap_or(0);
        let wall_ns = ((inputs.wall_s * 1e9).round().max(0.0) as u64).max(span_end);
        let lookup = |table: &[((u32, u32), u64)], lane: (u32, u32)| {
            table.iter().filter(|&&(l, _)| l == lane).map(|&(_, v)| v).sum::<u64>()
        };
        let workers = lanes
            .into_iter()
            .map(|((pid, tid), ivs)| {
                let busy_ns = union_ns(&ivs);
                let comm_wait_ns = lookup(inputs.comm_wait_ns, (pid, tid)).min(busy_ns);
                let overhead_ns = lookup(inputs.overhead_ns, (pid, tid)).min(wall_ns - busy_ns);
                let w = WorkerProfile {
                    pid,
                    tid,
                    wall_ns,
                    busy_ns,
                    compute_ns: busy_ns - comm_wait_ns,
                    comm_wait_ns,
                    overhead_ns,
                    idle_ns: wall_ns - busy_ns - overhead_ns,
                    spans: ivs.len(),
                };
                assert!(w.partition_exact(), "partition must sum to wall for lane ({pid},{tid})");
                w
            })
            .collect();
        Profile { wall_ns, measured_cp_ns: longest_chain_ns(&all), workers, spans: spans.len() }
    }

    /// Sum of a per-worker field across lanes.
    fn total(&self, f: impl Fn(&WorkerProfile) -> u64) -> u64 {
        self.workers.iter().map(f).sum()
    }

    /// Deterministic JSON report: run totals plus the per-worker table.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("wall_ns", self.wall_ns)
            .set("wall_s", self.wall_ns as f64 / 1e9)
            .set("measured_cp_ns", self.measured_cp_ns)
            .set("measured_cp_s", self.measured_cp_ns as f64 / 1e9)
            .set("spans", self.spans)
            .set("workers", self.workers.len())
            .set("compute_ns", self.total(|w| w.compute_ns))
            .set("comm_wait_ns", self.total(|w| w.comm_wait_ns))
            .set("overhead_ns", self.total(|w| w.overhead_ns))
            .set("idle_ns", self.total(|w| w.idle_ns))
            .set("per_worker", self.workers.iter().map(|w| w.to_json()).collect::<JsonValue>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pid: u32, tid: u32, start_us: f64, dur_us: f64) -> Span {
        Span { name: "t".into(), cat: "test", pid, tid, ts_us: start_us, dur_us }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_ns(&[]), 0);
        assert_eq!(union_ns(&[(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(&[(0, 100), (10, 20)]), 100, "nested spans collapse");
        assert_eq!(union_ns(&[(0, 10), (10, 20)]), 20, "touching intervals merge");
    }

    #[test]
    fn longest_chain_picks_the_best_non_overlapping_sequence() {
        assert_eq!(longest_chain_ns(&[]), 0);
        // One long interval beats two short chained ones...
        assert_eq!(longest_chain_ns(&[(0, 50), (0, 10), (20, 30)]), 50);
        // ...until the chain outweighs it.
        assert_eq!(longest_chain_ns(&[(0, 50), (0, 30), (30, 70)]), 70);
        // Overlapping intervals cannot chain.
        assert_eq!(longest_chain_ns(&[(0, 30), (29, 60)]), 31);
    }

    #[test]
    fn dag_chain_is_bounded_by_the_temporal_chain() {
        // Four instances; DAG edges 0→2, 1→2, 2→3, but instance 1 ends
        // after 2 starts, so its edge is temporally inconsistent and drops.
        let ivs = [(0u64, 10u64), (0, 25), (20, 40), (40, 45)];
        let edges = [(0usize, 2usize), (1, 2), (2, 3)];
        let dag = dag_span_chain_ns(&ivs, &edges);
        assert_eq!(dag, 10 + 20 + 5);
        assert!(dag <= longest_chain_ns(&ivs));
        // Edges out of range or self-loops are ignored, not fatal.
        assert_eq!(dag_span_chain_ns(&ivs, &[(0, 0), (9, 1)]), 25);
        assert_eq!(dag_span_chain_ns(&[], &[]), 0);
    }

    #[test]
    fn profile_partitions_every_lane_exactly() {
        // Lane (0,0): nested spans (busy = union = 30us); lane (1,1):
        // disjoint spans (busy = 15us). Wall supplied as 100us.
        let spans = vec![
            span(0, 0, 0.0, 30.0),
            span(0, 0, 5.0, 10.0),
            span(1, 1, 10.0, 5.0),
            span(1, 1, 50.0, 10.0),
        ];
        let waits = [((1u32, 1u32), 4_000u64), ((0, 0), 999_999_999)];
        let overheads = [((0u32, 0u32), 2_000u64), ((1, 1), 999_999_999)];
        let p = Profile::build(
            &spans,
            ProfileInputs { wall_s: 100e-6, comm_wait_ns: &waits, overhead_ns: &overheads },
        );
        assert_eq!(p.wall_ns, 100_000);
        assert_eq!(p.workers.len(), 2);
        let w0 = &p.workers[0];
        assert_eq!((w0.pid, w0.tid, w0.busy_ns), (0, 0, 30_000));
        assert_eq!(w0.comm_wait_ns, 30_000, "wait clamps to busy");
        assert_eq!(w0.compute_ns, 0);
        assert_eq!(w0.overhead_ns, 2_000);
        assert_eq!(w0.idle_ns, 68_000);
        let w1 = &p.workers[1];
        assert_eq!(w1.busy_ns, 15_000);
        assert_eq!(w1.comm_wait_ns, 4_000);
        assert_eq!(w1.compute_ns, 11_000);
        assert_eq!(w1.overhead_ns, 85_000, "overhead clamps to wall - busy");
        assert_eq!(w1.idle_ns, 0);
        for w in &p.workers {
            assert!(w.partition_exact());
        }
        // The temporal chain: (0,30) then (50,60) = 40us.
        assert_eq!(p.measured_cp_ns, 40_000);
        assert!(p.measured_cp_ns <= p.wall_ns);
        let json = p.to_json();
        assert_eq!(json.get("wall_ns").and_then(JsonValue::as_u64), Some(100_000));
        assert_eq!(json.get("per_worker").and_then(JsonValue::as_array).unwrap().len(), 2);
    }

    #[test]
    fn profile_wall_extends_to_the_latest_span() {
        let spans = vec![span(0, 0, 10.0, 10.0)];
        let p = Profile::build(&spans, ProfileInputs::default());
        assert_eq!(p.wall_ns, 20_000, "supplied wall 0 stretches to the last span end");
        assert_eq!(p.workers[0].idle_ns, 10_000, "the leading gap is idle");
        assert!(p.workers[0].partition_exact());
        let empty = Profile::build(&[], ProfileInputs::default());
        assert_eq!((empty.wall_ns, empty.spans, empty.workers.len()), (0, 0, 0));
    }
}
