//! Shared sweep logic for Tables 3-4: PDGETF2-to-TSLU time ratios over the
//! paper's `(m, n = b, P)` grid, with classic (`Cl`) and recursive (`Rec`)
//! local LU columns.

use crate::{f2, Table};
use calu_core::dist::{skeleton_pdgetf2, skeleton_tslu};
use calu_core::LocalLu;
use calu_netsim::MachineConfig;

/// The paper's panel sweep: `m ∈ {10^3, 5·10^3, 10^4, 10^5, 10^6}`,
/// `n = b ∈ {50, 100, 150}`, `P ∈ {4, 8, 16, 32, 64}`.
pub(crate) fn paper_sweep() -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    (vec![1_000, 5_000, 10_000, 100_000, 1_000_000], vec![50, 100, 150], vec![4, 8, 16, 32, 64])
}

/// A cell is reported only when every processor owns at least a block-row
/// of the panel (the paper leaves cells blank when "the input matrix is too
/// small and some processors are not involved").
pub(crate) fn cell_valid(m: usize, b: usize, p: usize) -> bool {
    m / p >= b
}

/// Ratio of `PDGETF2` to TSLU simulated time for one cell.
pub fn ratio(machine: &MachineConfig, m: usize, b: usize, p: usize, local: LocalLu) -> f64 {
    let t_tslu = skeleton_tslu(m, b, p, local, machine.clone()).makespan();
    let t_pdf2 = skeleton_pdgetf2(m, b, p, machine.clone()).makespan();
    t_pdf2 / t_tslu
}

/// Builds the full table in the paper's layout: one row per `(m, n)`, one
/// `Rec`/`Cl` column pair per processor count.
pub fn build(machine: &MachineConfig) -> Table {
    let (ms, bs, ps) = paper_sweep();
    let mut headers: Vec<String> = vec!["m".into(), "n=b".into()];
    for p in &ps {
        headers.push(format!("P={p} Rec"));
        headers.push(format!("P={p} Cl"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr_refs);

    for &m in &ms {
        for &b in &bs {
            let mut row = vec![format!("{m}"), format!("{b}")];
            for &p in &ps {
                if cell_valid(m, b, p) {
                    row.push(f2(ratio(machine, m, b, p, LocalLu::Recursive)));
                    row.push(f2(ratio(machine, m, b, p, LocalLu::Classic)));
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

/// TSLU aggregate GFLOP/s (counting, as the paper does, the total flops
/// TSLU performs — both passes over the panel) for the best-performance
/// headline (`m = 10^6, n = 150` on 64 processors).
pub fn tslu_gflops(machine: &MachineConfig, m: usize, b: usize, p: usize, local: LocalLu) -> f64 {
    let rep = skeleton_tslu(m, b, p, local, machine.clone());
    rep.total_flops() / rep.makespan() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_rule_matches_paper_blanks() {
        // Table 3: m=10^3, n=150 has entries only at P=4; n=100 up to P=8.
        assert!(cell_valid(1_000, 150, 4));
        assert!(!cell_valid(1_000, 150, 8));
        assert!(cell_valid(1_000, 100, 8));
        assert!(!cell_valid(1_000, 100, 16));
        assert!(cell_valid(1_000, 50, 16));
        assert!(!cell_valid(1_000, 50, 32));
        assert!(cell_valid(5_000, 50, 64));
    }
}
