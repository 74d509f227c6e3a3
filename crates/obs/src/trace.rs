//! Structured trace spans and Chrome-trace (`trace_events`) export.
//!
//! A [`Span`] is one closed interval of work attributed to a *rank*
//! (Chrome's `pid` — a grid rank for distributed runs, 0 for
//! shared-memory runs, a service id for the serve layer) and a *worker*
//! (Chrome's `tid` — the executor worker thread that ran the task). The
//! [`Recorder`] collects spans from any thread behind one short-lived
//! mutex — it is touched once per completed task, on the executor's
//! coordinator path rather than in the worker hot loop, so tracing costs
//! one lock and one `Vec` push per task.
//!
//! [`chrome_trace`] serializes spans in the Chrome `trace_events` JSON
//! format (`ph: "X"` complete events, microsecond timestamps), which
//! `chrome://tracing`, Perfetto, and Speedscope all open directly.
//! [`parse_chrome_trace`] is the inverse, used by tests, the
//! `trace_export` example, and CI to prove the export round-trips.
//! [`render_gantt`] draws the same spans as a text chart.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::JsonValue;

/// One completed interval of attributed work.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Human-readable event name (e.g. `Gemm(0,1)@r2`).
    pub name: String,
    /// Event category (Chrome groups and filters by it): a task-kind
    /// slug such as `gemm`, `tslu_leg`, `serve`.
    pub cat: &'static str,
    /// Process lane: the *rank* that owns the work.
    pub pid: u32,
    /// Thread lane within the process: the *worker* that ran it.
    pub tid: u32,
    /// Start, microseconds from the run epoch.
    pub ts_us: f64,
    /// Duration in microseconds (`>= 0`).
    pub dur_us: f64,
}

/// Thread-safe span collector; see the module docs for the locking
/// discipline.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one span.
    pub(crate) fn record(&self, span: Span) {
        self.spans.lock().expect("recorder poisoned").push(span);
    }

    /// Records a span from second-denominated interval endpoints (the
    /// executors' native unit).
    pub fn record_interval(
        &self,
        name: String,
        cat: &'static str,
        pid: u32,
        tid: u32,
        start_s: f64,
        end_s: f64,
    ) {
        self.record(Span {
            name,
            cat,
            pid,
            tid,
            ts_us: start_s * 1e6,
            dur_us: (end_s - start_s).max(0.0) * 1e6,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("recorder poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded spans, sorted by start time (then rank,
    /// then worker) — the order every consumer wants.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("recorder poisoned").clone();
        sort_spans(&mut spans);
        spans
    }

    /// Drains the recorded spans (sorted like [`Recorder::snapshot`]).
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("recorder poisoned"));
        sort_spans(&mut spans);
        spans
    }

    /// Chrome-trace JSON of the current snapshot.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.snapshot())
    }
}

fn sort_spans(spans: &mut [Span]) {
    spans.sort_by(|a, b| {
        a.ts_us.total_cmp(&b.ts_us).then(a.pid.cmp(&b.pid)).then(a.tid.cmp(&b.tid))
    });
}

/// Serializes spans as a Chrome `trace_events` document: one `ph: "X"`
/// complete event per span, `pid` = rank, `tid` = worker, timestamps in
/// microseconds, events sorted by start time (trace viewers require
/// non-decreasing `ts`). The output is deterministic for a given span
/// sequence.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut sorted = spans.to_vec();
    sort_spans(&mut sorted);
    let events: JsonValue = sorted
        .iter()
        .map(|s| {
            JsonValue::obj()
                .set("name", s.name.as_str())
                .set("cat", s.cat)
                .set("ph", "X")
                .set("pid", s.pid)
                .set("tid", s.tid)
                .set("ts", s.ts_us)
                .set("dur", s.dur_us)
        })
        .collect();
    JsonValue::obj().set("traceEvents", events).set("displayTimeUnit", "ms").pretty()
}

/// Renders spans as a text Gantt chart `width` characters wide, one row per
/// `(pid, tid)` lane: the view of the same timeline [`chrome_trace`]
/// exports, for a terminal. Simulated, modeled and measured runs all draw
/// alike — under `PDGETF2` a panel column is a picket fence of sends and
/// idles, under TSLU a handful of exchanges around solid compute.
///
/// Each cell shows what occupied most of its time: `>` spans of category
/// `"send"`, `#` spans of any other category, `.` a gap (idle is the
/// time between 0 and the lane's last end that no span covers), ` `
/// nothing. Rows are labeled `r<pid>` when every span has tid 0, and
/// `r<pid>.w<tid>` otherwise; the header carries the time scale.
///
/// # Panics
/// If `width == 0`.
pub fn render_gantt(spans: &[Span], width: usize) -> String {
    assert!(width > 0, "gantt width must be positive");
    let end_us = |s: &Span| s.ts_us + s.dur_us;
    let t_end = spans.iter().map(end_us).fold(0.0_f64, f64::max);
    let mut out = format!("time 0 .. {:.3e} s   ('#' compute, '>' send, '.' idle)\n", t_end / 1e6);
    if t_end <= 0.0 {
        return out;
    }
    let mut lanes: BTreeMap<(u32, u32), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        lanes.entry((s.pid, s.tid)).or_default().push(s);
    }
    let threads = spans.iter().any(|s| s.tid != 0);
    let label = |(p, t): (u32, u32)| if threads { format!("r{p}.w{t}") } else { format!("r{p}") };
    let pad = lanes.keys().map(|&lane| label(lane).len()).max().unwrap_or(0).max(3);
    let cell = t_end / width as f64;
    for (lane, mut lane_spans) in lanes {
        lane_spans.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        // Occupancy per cell: [compute, send, gap].
        let mut occupancy = vec![[0.0_f64; 3]; width];
        let mut add = |k: usize, start: f64, end: f64| {
            // Clip the interval onto each overlapped cell.
            let first = ((start / cell) as usize).min(width - 1);
            let last = ((end / cell) as usize).min(width - 1);
            for (c, occ) in occupancy.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = (c as f64) * cell;
                let hi = lo + cell;
                occ[k] += (end.min(hi) - start.max(lo)).max(0.0);
            }
        };
        let mut clock = 0.0_f64;
        for s in lane_spans {
            if s.ts_us > clock {
                add(2, clock, s.ts_us);
            }
            add(usize::from(s.cat == "send"), s.ts_us, end_us(s));
            clock = clock.max(end_us(s));
        }
        let row: String = occupancy
            .iter()
            .map(|occ| {
                // The first of the largest: ties go to compute, then send.
                let best = (1..3).fold(0, |b, i| if occ[i] > occ[b] { i } else { b });
                if occ[best] > 0.0 {
                    ['#', '>', '.'][best]
                } else {
                    ' '
                }
            })
            .collect();
        out.push_str(&format!("{:<pad$} |{row}|\n", label(lane)));
    }
    out
}

/// Parses and validates a Chrome `trace_events` document produced by
/// [`chrome_trace`] (or hand-written in the same dialect): every event
/// must be a complete (`ph: "X"`) event with numeric `pid`/`tid`, a
/// non-negative `dur`, and non-decreasing `ts`.
///
/// # Errors
/// A description of the first malformed event (or JSON syntax error).
pub fn parse_chrome_trace(text: &str) -> Result<Vec<Span>, String> {
    let doc = JsonValue::parse(text)?;
    let events =
        doc.get("traceEvents").and_then(JsonValue::as_array).ok_or("missing traceEvents array")?;
    let mut spans = Vec::with_capacity(events.len());
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| {
            ev.get(k).and_then(JsonValue::as_f64).ok_or(format!("event {i}: missing numeric {k}"))
        };
        match ev.get("ph").and_then(JsonValue::as_str) {
            Some("X") => {}
            other => return Err(format!("event {i}: ph must be \"X\", got {other:?}")),
        }
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing name"))?
            .to_string();
        let (pid, tid) = (field("pid")?, field("tid")?);
        if pid.fract() != 0.0 || tid.fract() != 0.0 || pid < 0.0 || tid < 0.0 {
            return Err(format!("event {i}: pid/tid must be non-negative integers"));
        }
        let (ts, dur) = (field("ts")?, field("dur")?);
        if dur < 0.0 {
            return Err(format!("event {i}: negative dur"));
        }
        if ts < last_ts {
            return Err(format!("event {i}: ts not monotone ({ts} after {last_ts})"));
        }
        last_ts = ts;
        spans.push(Span {
            name,
            // Categories parse back as owned strings conceptually; the
            // `Span` keeps a static slug, so map unknown ones to "".
            cat: "",
            pid: pid as u32,
            tid: tid as u32,
            ts_us: ts,
            dur_us: dur,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, pid: u32, tid: u32, ts: f64, dur: f64) -> Span {
        Span { name: name.to_string(), cat: "test", pid, tid, ts_us: ts, dur_us: dur }
    }

    #[test]
    fn recorder_collects_and_sorts() {
        let rec = Recorder::new();
        rec.record(span("b", 1, 0, 20.0, 5.0));
        rec.record(span("a", 0, 0, 10.0, 5.0));
        rec.record_interval("c".into(), "test", 0, 1, 1e-6, 3e-6);
        assert_eq!(rec.len(), 3);
        let spans = rec.snapshot();
        assert_eq!(spans[0].name, "c");
        assert_eq!(spans[1].name, "a");
        assert_eq!(spans[2].name, "b");
        assert!((spans[0].ts_us - 1.0).abs() < 1e-12);
        assert!((spans[0].dur_us - 2.0).abs() < 1e-12);
        assert_eq!(rec.take().len(), 3);
        assert!(rec.is_empty());
    }

    #[test]
    fn chrome_round_trip_preserves_lane_structure() {
        let rec = Recorder::new();
        for (pid, tid, ts) in [(2u32, 1u32, 30.0), (0, 0, 10.0), (1, 3, 20.0)] {
            rec.record(span(&format!("t{pid}"), pid, tid, ts, 4.0));
        }
        let text = rec.chrome_trace();
        let back = parse_chrome_trace(&text).expect("valid trace");
        assert_eq!(back.len(), 3);
        // Sorted by ts; pid/tid survive the trip.
        assert_eq!((back[0].pid, back[0].tid), (0, 0));
        assert_eq!((back[1].pid, back[1].tid), (1, 3));
        assert_eq!((back[2].pid, back[2].tid), (2, 1));
        for (a, b) in back.windows(2).map(|w| (&w[0], &w[1])) {
            assert!(a.ts_us <= b.ts_us, "export must emit monotone ts");
        }
        // Determinism: same spans, same bytes.
        assert_eq!(text, rec.chrome_trace());
    }

    #[test]
    fn parser_rejects_malformed_traces() {
        for (bad, why) in [
            (r#"{"foo": []}"#, "missing traceEvents"),
            (r#"{"traceEvents": [{"ph": "B", "name": "x"}]}"#, "non-X phase"),
            (
                r#"{"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0, "dur": 1}]}"#,
                "missing ts",
            ),
            (
                r#"{"traceEvents": [
                    {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 5, "dur": 1},
                    {"ph": "X", "name": "b", "pid": 0, "tid": 0, "ts": 4, "dur": 1}]}"#,
                "non-monotone ts",
            ),
            (
                r#"{"traceEvents": [{"ph": "X", "name": "x", "pid": 0.5, "tid": 0, "ts": 0, "dur": 1}]}"#,
                "fractional pid",
            ),
            (
                r#"{"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0, "dur": -1}]}"#,
                "negative dur",
            ),
        ] {
            assert!(parse_chrome_trace(bad).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn gantt_draws_sends_work_and_gaps_per_lane() {
        let send = Span { cat: "send", ..span("s", 0, 0, 0.0, 5.0) };
        let spans = [span("b", 1, 0, 0.0, 20.0), span("a", 0, 0, 10.0, 10.0), send];
        let g = render_gantt(&spans, 4);
        let rows: Vec<&str> = g.lines().skip(1).collect();
        assert_eq!(rows, ["r0  |>.##|", "r1  |####|"]);
        // A second worker in any lane labels every lane by rank and worker;
        // a lane ends where its last span does.
        let g = render_gantt(&[span("b", 1, 0, 0.0, 20.0), span("c", 0, 1, 0.0, 5.0)], 4);
        let rows: Vec<&str> = g.lines().skip(1).collect();
        assert_eq!(rows, ["r0.w1 |#   |", "r1.w0 |####|"]);
        assert!(render_gantt(&[], 10).starts_with("time 0"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = chrome_trace(&[]);
        assert_eq!(parse_chrome_trace(&text).unwrap(), vec![]);
    }
}
