//! `dist_grid`: `dist_calu_factor_rt` on a 2 × 2 process grid, then a
//! solve on the assembled factors: the paper's 2D block-cyclic setting. The
//! per-rank DAG, the mailbox communicator and the in-call cost-model
//! simulation do work here that no other workload touches.

use std::collections::BTreeMap;
use std::time::Instant;

use calu_core::dist::DistCaluConfig;
use calu_core::tslu::LocalLu;
use calu_core::{dist_calu_factor_rt, CommKind, DistRtOpts, DistRtReport, LuFactors};
use calu_matrix::{gen, Matrix};
use calu_netsim::MachineConfig;
use calu_runtime::ExecutorKind;

use super::{
    block, check_digest, check_residual, check_solution, digest, stream, Ledger, OpOutcome, Sizes,
    Variant, Workload,
};
use crate::host::nproc;
use crate::trace::OpTrace;

pub struct DistGrid {
    a: Matrix<f64>,
    b: Vec<f64>,
    cfg: DistCaluConfig,
    rt: DistRtOpts,
    expected: u64,
    /// Tasks, messages and words of the verified cold run; every later run
    /// must repeat them.
    counts: (usize, u64, u64),
    busy_frac: f64,
    modeled_makespan: f64,
    ledger: Option<Ledger>,
}

/// What one distributed factor-and-solve returned, and the seconds it took.
struct DistFactored {
    report: DistRtReport,
    f: LuFactors<f64>,
    x: Vec<f64>,
    secs: f64,
}

impl DistGrid {
    pub fn new(seed: u64, sizes: Sizes, ledger: Option<Ledger>) -> Result<Self, String> {
        let n = sizes.dist_n;
        let mut w = Self {
            a: gen::randn(&mut stream(seed, 0), n, n),
            b: gen::hpl_rhs(&mut stream(seed, 1), n),
            cfg: DistCaluConfig { b: block(), pr: 2, pc: 2, local: LocalLu::Recursive },
            rt: DistRtOpts {
                lookahead: 2,
                executor: ExecutorKind::Threaded { threads: 0 },
                communicator: CommKind::InProcess,
            },
            expected: 0,
            counts: (0, 0, 0),
            busy_frac: 0.0,
            modeled_makespan: 0.0,
            ledger,
        };
        let cold = w.run(w.cfg, w.rt, &OpTrace::off())?;
        check_residual(&w.a, &cold.f)?;
        check_solution(&w.a, &cold.x, &w.b)?;
        // The measured ledger equals the exact mailbox predictor term by
        // term.
        for d in cold.report.mailbox_deltas() {
            if d.source == "mailbox_exact" && !d.exact() {
                return Err(format!(
                    "comm term {}: measured {:?}, expected {:?}",
                    d.term, d.measured, d.expected
                ));
            }
        }
        let exec = &cold.report.exec;
        w.expected = digest(cold.f.lu.as_slice(), &cold.f.ipiv);
        w.counts = Self::counts(&cold.report);
        w.busy_frac = exec.busy() / (exec.wall * exec.workers as f64);
        w.modeled_makespan = cold.report.makespan;
        Ok(w)
    }

    fn counts(report: &DistRtReport) -> (usize, u64, u64) {
        let total = report.comm.total();
        (report.tasks, total.msgs, total.words)
    }

    /// The timed part of an op: distributed factor, then solve.
    fn run(
        &self,
        cfg: DistCaluConfig,
        rt: DistRtOpts,
        trace: &OpTrace<'_>,
    ) -> Result<DistFactored, String> {
        let t = Instant::now();
        let (report, factors) = trace.child("dist_factor", || {
            dist_calu_factor_rt(&self.a, cfg, rt, MachineConfig::power5())
        });
        if let Some(step) = factors.first_singular {
            return Err(format!("singular pivot at step {step}"));
        }
        let f = LuFactors { lu: factors.lu, ipiv: factors.ipiv };
        let x = trace.child("solve", || f.solve(&self.b));
        Ok(DistFactored { report, f, x, secs: t.elapsed().as_secs_f64() })
    }

    /// Seconds ranks spent blocked in fetches when each rank is an OS
    /// thread, on a 2 × 1 grid so that ranks do not outnumber hardware
    /// threads; refused (0) on a host with fewer than two.
    fn fetch_wait_s(&self) -> Result<f64, String> {
        let cfg = DistCaluConfig { pr: 2, pc: 1, ..self.cfg };
        if cfg.pr * cfg.pc > nproc() {
            return Ok(0.0);
        }
        let off = OpTrace::off();
        let in_process = self.run(cfg, self.rt, &off)?;
        let threaded =
            self.run(cfg, DistRtOpts { communicator: CommKind::Threaded, ..self.rt }, &off)?;
        if threaded.f != in_process.f {
            return Err("rank-threaded factors differ from the in-process ones".into());
        }
        Ok(threaded.report.comm.wait_total_ns() as f64 / 1e9)
    }
}

impl Workload for DistGrid {
    fn op(&mut self, trace: &OpTrace<'_>) -> OpOutcome {
        let out = match self.run(self.cfg, self.rt, trace) {
            Ok(out) => out,
            Err(e) => return OpOutcome { secs: 0.0, units: 1, error: Some(e) },
        };
        let checked = trace.child("check", || {
            check_solution(&self.a, &out.x, &self.b)?;
            check_digest(&out.f, self.expected)?;
            let counts = Self::counts(&out.report);
            if counts != self.counts {
                return Err(format!("task and message counts {counts:?} != {:?}", self.counts));
            }
            Ok(())
        });
        if let Some(ledger) = &mut self.ledger {
            ledger.add_exec(&out.report.exec);
        }
        OpOutcome { secs: out.secs, units: 1, error: checked.err() }
    }

    fn take_ledger(&mut self) -> Ledger {
        self.ledger.take().unwrap_or_default()
    }

    fn variant(&mut self, variant: Variant) -> Option<Result<f64, String>> {
        // The distributed engine has one panel mode and one storage.
        (variant == Variant::Serial).then(|| {
            let rt = DistRtOpts { executor: ExecutorKind::Serial, ..self.rt };
            self.run(self.cfg, rt, &OpTrace::off())
                .and_then(|out| check_digest(&out.f, self.expected).map(|()| out.secs))
        })
    }

    fn layer_metrics(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let (tasks, msgs, words) = self.counts;
        Ok(BTreeMap::from([
            ("core.dist_rt.tasks", tasks as f64),
            ("core.comm.msgs", msgs as f64),
            ("core.comm.words", words as f64),
            ("core.dist_rt.busy_frac", self.busy_frac),
            ("core.dist_rt.modeled_makespan_s", self.modeled_makespan),
            ("core.comm.fetch_wait_s", self.fetch_wait_s()?),
        ]))
    }
}
