//! Benchmark-side spans: one root span per operation and one child span
//! around each call into a layer of the program. Nothing here reaches
//! into the program; spans inside it are a later change.

use std::time::Instant;

use calu_obs::Recorder;

/// Records the spans of a traced run on one timeline.
pub struct Tracer {
    pub recorder: Recorder,
    epoch: Instant,
}

impl Tracer {
    pub fn new() -> Self {
        Self { recorder: Recorder::new(), epoch: Instant::now() }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// The spans of one operation. With no tracer behind it every method just
/// runs the closure, so traced and untraced operations share one body.
pub struct OpTrace<'a> {
    tracer: Option<&'a Tracer>,
    /// Name of the root span: `<workload>/<op number>`.
    root: String,
}

impl<'a> OpTrace<'a> {
    pub fn off() -> Self {
        Self { tracer: None, root: String::new() }
    }

    pub fn on(tracer: &'a Tracer, workload: &str, op: usize) -> Self {
        Self { tracer: Some(tracer), root: format!("{workload}/{op}") }
    }

    fn record<R>(&self, name: impl FnOnce(&str) -> String, f: impl FnOnce() -> R) -> R {
        let Some(tracer) = self.tracer else {
            return f();
        };
        let start = tracer.now();
        let out = f();
        tracer.recorder.record_interval(name(&self.root), "bench", 0, 0, start, tracer.now());
        out
    }

    /// Runs the whole operation under its root span.
    pub fn root<R>(&self, f: impl FnOnce() -> R) -> R {
        self.record(str::to_string, f)
    }

    /// Runs one call into a layer under a child span of the root.
    pub fn child<R>(&self, layer: &str, f: impl FnOnce() -> R) -> R {
        self.record(|root| format!("{root}/{layer}"), f)
    }
}
