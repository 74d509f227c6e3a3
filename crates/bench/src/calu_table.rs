//! Shared sweep logic for Tables 5-6: PDGETRF-to-CALU time ratios and CALU
//! GFLOP/s over the paper's `(m, b, grid)` sweep, and the best-vs-best
//! search of Table 7.

use crate::{f2, paper_grids, Table};
use calu_core::dist::{skeleton_calu, skeleton_pdgetrf, RowSwapScheme, SkelCfg};
use calu_core::LocalLu;
use calu_netsim::machine::flops_lu;
use calu_netsim::MachineConfig;

/// The paper's full-factorization sweep: square `m ∈ {10^3, 5·10^3, 10^4}`,
/// `b ∈ {50, 100, 150}`.
pub(crate) fn paper_sweep() -> (Vec<usize>, Vec<usize>) {
    (vec![1_000, 5_000, 10_000], vec![50, 100, 150])
}

/// Validity rule for a cell: every process row and column must own at
/// least one block (`m/b >= Pr` and `m/b >= Pc`), matching the blank cells
/// of Tables 5-6.
pub fn cell_valid(m: usize, b: usize, pr: usize, pc: usize) -> bool {
    m / b >= pr && m / b >= pc
}

/// Simulated times for one CALU-vs-PDGETRF cell: `(t_calu, t_pdgetrf)`.
/// Every such cell `repro` prints (Tables 5-7, `fig_scaling`,
/// `model_check`'s Eqs. 2-3) is this function.
pub fn cell_times(machine: &MachineConfig, m: usize, b: usize, pr: usize, pc: usize) -> (f64, f64) {
    let calu_cfg =
        SkelCfg { m, n: m, b, pr, pc, local: LocalLu::Recursive, swap: RowSwapScheme::ReduceBcast };
    let pdg_cfg = SkelCfg { local: LocalLu::Classic, swap: RowSwapScheme::PdLaswp, ..calu_cfg };
    let t_calu = skeleton_calu(calu_cfg, machine.clone()).makespan();
    let t_pdg = skeleton_pdgetrf(pdg_cfg, machine.clone()).makespan();
    (t_calu, t_pdg)
}

/// Useful-flops GFLOP/s for a factorization of an `m x m` matrix in `t`
/// seconds (the paper reports `GFlops` this way).
pub(crate) fn gflops(m: usize, t: f64) -> f64 {
    flops_lu(m, m) / t / 1e9
}

/// Builds Table 5/6: rows `(m, b)`, columns `Impvt`/`GFlops` per grid.
pub fn build(machine: &MachineConfig) -> Table {
    let (ms, bs) = paper_sweep();
    let mut headers: Vec<String> = vec!["m=n".into(), "b".into()];
    for (p, pr, pc) in paper_grids() {
        headers.push(format!("P={p} ({pr}x{pc}) Impvt"));
        headers.push(format!("P={p} GFlops"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr_refs);

    for &m in &ms {
        for &b in &bs {
            let mut row = vec![format!("{m}"), format!("{b}")];
            for (_p, pr, pc) in paper_grids() {
                if cell_valid(m, b, pr, pc) {
                    let (tc, tp) = cell_times(machine, m, b, pr, pc);
                    row.push(f2(tp / tc));
                    row.push(format!("{:.1}", gflops(m, tc)));
                } else {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
            t.row(row);
        }
    }
    t
}

/// Best configuration found by the Table 7 search.
#[derive(Debug, Clone, Copy)]
pub struct Best {
    /// Simulated runtime, seconds.
    pub(crate) time: f64,
    /// Processor count.
    pub p: usize,
    /// Block size.
    pub b: usize,
    /// GFLOP/s at the best point.
    pub gflops: f64,
}

/// Table 7: independent best over `P ∈ {8..64}` (paper grids) and
/// `b ∈ {50,100,150}` for CALU and PDGETRF. Returns `(speedup, best CALU,
/// best PDGETRF)`.
pub fn best_vs_best(machine: &MachineConfig, m: usize) -> (f64, Best, Best) {
    let mut best_c: Option<Best> = None;
    let mut best_p: Option<Best> = None;
    for (p, pr, pc) in paper_grids() {
        if p < 8 {
            continue; // the paper's Table 7 sweeps 8..64
        }
        for &b in &[50usize, 100, 150] {
            if !cell_valid(m, b, pr, pc) {
                continue;
            }
            let (tc, tp) = cell_times(machine, m, b, pr, pc);
            if best_c.is_none_or(|x| tc < x.time) {
                best_c = Some(Best { time: tc, p, b, gflops: gflops(m, tc) });
            }
            if best_p.is_none_or(|x| tp < x.time) {
                best_p = Some(Best { time: tp, p, b, gflops: gflops(m, tp) });
            }
        }
    }
    let (c, p) = (best_c.expect("valid cells"), best_p.expect("valid cells"));
    (p.time / c.time, c, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_matches_paper_blanks() {
        // Table 5: m=10^3, b=150 missing at P=32 (4x8) and 64 (8x8).
        assert!(cell_valid(1_000, 150, 4, 4));
        assert!(!cell_valid(1_000, 150, 4, 8));
        assert!(cell_valid(1_000, 100, 8, 8));
        assert!(cell_valid(10_000, 150, 8, 8));
    }
}
