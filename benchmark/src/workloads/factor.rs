//! `square_factor` and `tall_panel`: `runtime_calu_factor` on one matrix,
//! followed by `LuFactors::solve` when the matrix is square.
//!
//! `square_factor` (n = 1536) spends four fifths of its executor time in
//! the trailing `gemm` update: the workload on which `matrix::blas3` and
//! the lookahead schedule decide the result and the panel matters little.
//! `tall_panel` (65536 × 128, two panels and one rank-64 update) spends
//! four fifths in TSLU: the paper's panel regime, on which `core::tslu`,
//! `core::tournament` and `matrix::lapack` decide the result and a faster
//! `gemm` should move almost nothing.

use std::time::Instant;

use calu_core::{
    runtime_calu_factor, runtime_calu_tiles_factor, CaluOpts, LuFactors, PanelMode, RuntimeOpts,
};
use calu_matrix::{gen, Matrix};
use calu_runtime::{ExecReport, ExecutorKind};

use super::{
    block, check_digest, check_residual, check_solution, digest, stream, Ledger, OpOutcome, Sizes,
    Variant, Workload,
};
use crate::trace::OpTrace;

pub struct Factor {
    a: Matrix<f64>,
    /// HPL right-hand side; `None` for the tall matrix, which has no solve.
    b: Option<Vec<f64>>,
    calu: CaluOpts,
    rt: RuntimeOpts,
    expected: u64,
    ledger: Option<Ledger>,
}

/// What one factor-and-solve returned, and the seconds it took.
struct Factored {
    f: LuFactors<f64>,
    x: Option<Vec<f64>>,
    report: ExecReport,
    secs: f64,
}

impl Factor {
    pub fn square(seed: u64, sizes: Sizes, ledger: Option<Ledger>) -> Result<Self, String> {
        let n = sizes.square_n;
        let a = gen::randn(&mut stream(seed, 0), n, n);
        let b = gen::hpl_rhs(&mut stream(seed, 1), n);
        Self::verified(a, Some(b), ledger)
    }

    pub fn tall(seed: u64, sizes: Sizes, ledger: Option<Ledger>) -> Result<Self, String> {
        let a = gen::randn(&mut stream(seed, 0), sizes.tall_m, 2 * block());
        Self::verified(a, None, ledger)
    }

    /// Runs the cold operation and verifies it in full: `PA = LU`, and for
    /// a square system the backward error of the solution.
    fn verified(
        a: Matrix<f64>,
        b: Option<Vec<f64>>,
        ledger: Option<Ledger>,
    ) -> Result<Self, String> {
        let (calu, rt) = (CaluOpts::default(), RuntimeOpts::default());
        let mut w = Self { a, b, calu, rt, expected: 0, ledger };
        let cold = w.run(calu, rt, &OpTrace::off())?;
        check_residual(&w.a, &cold.f)?;
        w.check_solution(&cold)?;
        w.expected = digest(cold.f.lu.as_slice(), &cold.f.ipiv);
        Ok(w)
    }

    /// The timed part of an op: factor, and solve if there is a right-hand
    /// side.
    fn run(
        &self,
        calu: CaluOpts,
        rt: RuntimeOpts,
        trace: &OpTrace<'_>,
    ) -> Result<Factored, String> {
        let t = Instant::now();
        let (f, report) = trace
            .child("factor", || runtime_calu_factor(&self.a, calu, rt))
            .map_err(|e| e.to_string())?;
        let x = self.b.as_ref().map(|b| trace.child("solve", || f.solve(b)));
        Ok(Factored { f, x, report, secs: t.elapsed().as_secs_f64() })
    }

    fn check_solution(&self, out: &Factored) -> Result<(), String> {
        match (&out.x, &self.b) {
            (Some(x), Some(b)) => check_solution(&self.a, x, b),
            _ => Ok(()),
        }
    }
}

impl Workload for Factor {
    fn op(&mut self, trace: &OpTrace<'_>) -> OpOutcome {
        let out = match self.run(self.calu, self.rt, trace) {
            Ok(out) => out,
            Err(e) => return OpOutcome { secs: 0.0, units: 1, error: Some(e) },
        };
        let checked = trace.child("check", || {
            self.check_solution(&out)?;
            check_digest(&out.f, self.expected)
        });
        if let Some(ledger) = &mut self.ledger {
            ledger.add_exec(&out.report);
        }
        OpOutcome { secs: out.secs, units: 1, error: checked.err() }
    }

    fn take_ledger(&mut self) -> Ledger {
        self.ledger.take().unwrap_or_default()
    }

    fn variant(&mut self, variant: Variant) -> Option<Result<f64, String>> {
        let off = OpTrace::off();
        Some(match variant {
            // The same factors on every executor.
            Variant::Serial => self
                .run(self.calu, RuntimeOpts { executor: ExecutorKind::Serial, ..self.rt }, &off)
                .and_then(|out| check_digest(&out.f, self.expected).map(|()| out.secs)),
            // A different, equally deterministic tournament tree gives
            // other factors, so the check is the residual.
            Variant::Resident => self
                .run(CaluOpts { panel_mode: PanelMode::Resident, ..self.calu }, self.rt, &off)
                .and_then(|out| check_residual(&self.a, &out.f).map(|()| out.secs)),
            // Factor only; the conversion to tiles is inside the timer.
            Variant::Tiles => {
                let t = Instant::now();
                runtime_calu_tiles_factor(&self.a, self.calu, self.rt)
                    .map_err(|e| e.to_string())
                    .and_then(|(tiles, ipiv, _)| {
                        let secs = t.elapsed().as_secs_f64();
                        let f = LuFactors { lu: tiles.to_matrix(), ipiv };
                        check_digest(&f, self.expected).map(|()| secs)
                    })
            }
        })
    }
}
