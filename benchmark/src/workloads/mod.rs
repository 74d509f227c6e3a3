//! The four workloads. Each is one client in a closed loop: it builds its
//! inputs from the seed, then issues one operation after another, timing
//! only the calls into the program and checking every output outside the
//! timer. Program executors run at `threads: 0` (all hardware threads) and
//! every option the sizes below do not name keeps the product default, so
//! a later change of a default shows up here.

mod dist;
mod factor;
mod serve;

use std::collections::BTreeMap;

use calu_core::{CaluOpts, LuFactors};
use calu_matrix::blas3::gemm;
use calu_matrix::perm::ipiv_to_perm;
use calu_matrix::Matrix;
use calu_runtime::ExecReport;
use calu_stability::residuals::backward_error_inf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::OpTrace;

pub const WORKLOADS: [&str; 4] = ["square_factor", "tall_panel", "serve_mixed", "dist_grid"];

/// Accepted normwise backward error of a solve, and relative residual of
/// a factorization.
const TOLERANCE: f64 = 1e-12;

/// Problem sizes. `full` is what `BENCHMARK.json` measures; `quick` runs
/// the same code on sizes that finish in a moment.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub quick: bool,
    /// Order of the `square_factor` system.
    pub square_n: usize,
    /// Rows of the `tall_panel` matrix (it is `2 * block` wide).
    pub tall_m: usize,
    /// Order of the `dist_grid` system.
    pub dist_n: usize,
    /// Orders of the small and the large `serve_mixed` matrices.
    pub serve_n: (usize, usize),
    /// Bursts served while setting `serve_mixed` up.
    pub serve_warmup: usize,
    /// Bursts after which `serve_mixed` starts a fresh service.
    pub serve_epoch: usize,
    /// Leading bursts of the run over which `serve_mixed` counts cache
    /// and batch events; a fixed number, so the counts repeat exactly.
    pub serve_count_window: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            quick: false,
            square_n: 1536,
            tall_m: 65536,
            dist_n: 1024,
            serve_n: (256, 512),
            serve_warmup: 250,
            serve_epoch: 2000,
            serve_count_window: 1000,
        }
    }

    pub fn quick() -> Self {
        Self {
            quick: true,
            square_n: 256,
            tall_m: 4096,
            dist_n: 256,
            serve_n: (64, 128),
            serve_warmup: 50,
            serve_epoch: 200,
            serve_count_window: 100,
        }
    }
}

/// Panel width of every workload: the product default.
pub fn block() -> usize {
    CaluOpts::default().block
}

/// What one operation did.
pub struct OpOutcome {
    /// Seconds inside the program (checks excluded).
    pub secs: f64,
    /// Units of work delivered: factorizations, or solved right-hand
    /// sides.
    pub units: u32,
    /// Why the operation counts as failed, if it does.
    pub error: Option<String>,
}

/// Task kinds the ledger groups executor time by, and the metric that
/// reports each kind's busy time per op.
pub const KINDS: [(&str, &str); 6] = [
    ("panel", "core.rt.busy_ms.panel"),
    ("swap", "core.rt.busy_ms.swap"),
    ("trsm", "core.rt.busy_ms.trsm"),
    ("gemm", "core.rt.busy_ms.gemm"),
    ("solve", "core.rt.busy_ms.solve"),
    ("comm", "core.rt.busy_ms.comm"),
];

fn kind_index(kind: &str) -> usize {
    KINDS.iter().position(|(k, _)| *k == kind).expect("kind is listed")
}

fn kind_of(cat: &str) -> usize {
    let kind = match cat {
        "swap" => "swap",
        "trsm" => "trsm",
        "gemm" => "gemm",
        c if c.starts_with("solve_") => "solve",
        c if c.ends_with("_send") || c.ends_with("_recv") => "comm",
        // Gathered and resident panels, and the distributed panel's
        // candidate election, reduction legs and second pass.
        _ => "panel",
    };
    kind_index(kind)
}

/// Executor time of a traced run's operations, summed from the reports the
/// program returns (`ExecReport.timings`, `SolverService::spans`).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Busy seconds by task kind, in [`KINDS`] order.
    pub busy: [f64; KINDS.len()],
    /// Worker-seconds available: executor wall time times its workers.
    pub capacity: f64,
    /// Seconds tasks spent ready but not started.
    pub queue_delay: f64,
    /// Tasks executed.
    pub tasks: usize,
    /// Operations the sums above cover.
    pub ops: usize,
}

impl Ledger {
    fn add_exec(&mut self, report: &ExecReport) {
        for t in &report.timings {
            self.busy[kind_of(t.task.cat())] += t.end - t.start;
        }
        self.capacity += report.wall * report.workers as f64;
        self.queue_delay += report.queue_delay();
        self.tasks += report.timings.len();
        self.ops += 1;
    }

    pub fn busy_total(&self) -> f64 {
        self.busy.iter().sum()
    }

    /// Share of the busy time spent in tasks of `kind`.
    pub fn share(&self, kind: &str) -> f64 {
        self.busy[kind_index(kind)] / self.busy_total()
    }
}

/// The same operation run another way, for the per-layer ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// On `ExecutorKind::Serial`: the plain single-thread baseline.
    Serial,
    /// With `PanelMode::Resident`.
    Resident,
    /// On tile-major storage (`runtime_calu_tiles_factor`).
    Tiles,
}

pub trait Workload {
    /// Runs one operation: the timed calls into the program, then the
    /// check of what they returned.
    fn op(&mut self, trace: &OpTrace<'_>) -> OpOutcome;

    /// Executor time of the operations so far; all zero unless the
    /// workload was set up to keep it.
    fn take_ledger(&mut self) -> Ledger;

    /// Seconds of one operation run as `variant`, or `None` where the
    /// workload has no such variant.
    fn variant(&mut self, variant: Variant) -> Option<Result<f64, String>>;

    /// Per-layer numbers only this workload can give, by metric name.
    ///
    /// # Errors
    /// A layer's output was wrong.
    fn layer_metrics(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        Ok(BTreeMap::new())
    }
}

/// Builds a workload from the seed and runs its cold operation with the
/// full verification. Everything here is set-up time. `keep_ledger` makes
/// the workload sum the executor reports of its operations (a traced run
/// reads them; an untraced run drops them unread).
pub fn setup(
    name: &str,
    seed: u64,
    sizes: Sizes,
    keep_ledger: bool,
) -> Result<Box<dyn Workload>, String> {
    let ledger = keep_ledger.then(Ledger::default);
    Ok(match name {
        "square_factor" => Box::new(factor::Factor::square(seed, sizes, ledger)?),
        "tall_panel" => Box::new(factor::Factor::tall(seed, sizes, ledger)?),
        "serve_mixed" => Box::new(serve::ServeMixed::new(seed, sizes, ledger)?),
        "dist_grid" => Box::new(dist::DistGrid::new(seed, sizes, ledger)?),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}

/// Independent random streams of one seed.
fn stream(seed: u64, which: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(which))
}

/// Digest of packed factors and pivots. The program guarantees bitwise
/// identical factors on every schedule, so every operation after the
/// verified cold one must reproduce its digest.
fn digest(lu: &[f64], ipiv: &[usize]) -> u64 {
    let words = lu.iter().map(|x| x.to_bits()).chain(ipiv.iter().map(|&p| p as u64));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        h ^ (h >> 29)
    })
}

/// `max|PA − LU| / max|A|`, formed block by block so that the check never
/// holds more than a few MiB: the process's peak memory stays the
/// program's own.
fn plu_residual(a: &Matrix<f64>, f: &LuFactors<f64>) -> f64 {
    const CHUNK: usize = 256;
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let perm = ipiv_to_perm(&f.ipiv, m);
    let mut worst = 0.0_f64;
    for c0 in (0..n).step_by(CHUNK) {
        let cols = CHUNK.min(n - c0);
        let u = Matrix::from_fn(k, cols, |i, j| if c0 + j >= i { f.lu[(i, c0 + j)] } else { 0.0 });
        for r0 in (0..m).step_by(CHUNK) {
            let rows = CHUNK.min(m - r0);
            let l = Matrix::from_fn(rows, k, |i, j| match (r0 + i).cmp(&j) {
                std::cmp::Ordering::Greater => f.lu[(r0 + i, j)],
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Less => 0.0,
            });
            let mut prod = Matrix::zeros(rows, cols);
            gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
            for j in 0..cols {
                for i in 0..rows {
                    worst = worst.max((prod[(i, j)] - a[(perm[r0 + i], c0 + j)]).abs());
                }
            }
        }
    }
    worst / a.max_abs()
}

fn check_solution(a: &Matrix<f64>, x: &[f64], b: &[f64]) -> Result<(), String> {
    let err = backward_error_inf(a, x, b);
    // NaN fails the comparison too.
    if err <= TOLERANCE {
        Ok(())
    } else {
        Err(format!("backward error {err:.3e} above {TOLERANCE:.0e}"))
    }
}

fn check_residual(a: &Matrix<f64>, f: &LuFactors<f64>) -> Result<(), String> {
    let residual = plu_residual(a, f);
    if residual <= TOLERANCE {
        Ok(())
    } else {
        Err(format!("|PA - LU| / |A| = {residual:.3e} above {TOLERANCE:.0e}"))
    }
}

fn check_digest(f: &LuFactors<f64>, expected: u64) -> Result<(), String> {
    let got = digest(f.lu.as_slice(), &f.ipiv);
    if got == expected {
        Ok(())
    } else {
        Err(format!("factors differ from the verified first run ({got:016x} != {expected:016x})"))
    }
}
