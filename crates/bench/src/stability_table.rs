//! Shared sweep logic for the stability experiments (Figure 2, Tables 1-2).

use crate::{f2, sci, Cli, Table};
use calu_stability::suite::{hpl_sample_size, run_calu_case, run_gepp_case, StabilityRow};

/// The `(n, P, b)` cells of Table 1 / Figure 2. The reduced sweep keeps the
/// laptop run under a couple of minutes; `--full` runs the paper's sizes
/// (n up to 8192 — hours on two cores).
pub(crate) fn calu_cells(cli: &Cli) -> Vec<(usize, usize, usize)> {
    if cli.full {
        // The paper's Table 1 cells, top to bottom.
        vec![
            (8192, 256, 32),
            (8192, 256, 16),
            (8192, 128, 64),
            (8192, 128, 32),
            (8192, 128, 16),
            (8192, 64, 64),
            (8192, 64, 32),
            (8192, 64, 16),
            (4096, 256, 16),
            (4096, 128, 32),
            (4096, 128, 16),
            (4096, 64, 64),
            (4096, 64, 32),
            (4096, 64, 16),
            (2048, 128, 16),
            (2048, 64, 32),
            (2048, 64, 16),
            (1024, 64, 16),
        ]
    } else {
        // Same structure, reduced sizes; tournament height and block keep
        // their paper ratios to n.
        vec![
            (1024, 64, 16),
            (1024, 32, 16),
            (1024, 16, 32),
            (512, 32, 16),
            (512, 16, 16),
            (256, 16, 16),
            (256, 8, 16),
        ]
    }
}

/// Sizes for the GEPP control (Table 2).
pub(crate) fn gepp_cells(cli: &Cli) -> Vec<usize> {
    if cli.full {
        vec![8192, 4096, 2048, 1024]
    } else {
        vec![1024, 512, 256]
    }
}

/// Samples per cell: the paper's rule, capped at 3 in the reduced sweep.
pub(crate) fn samples_for(n: usize, cli: &Cli) -> usize {
    let s = hpl_sample_size(n);
    if cli.full {
        s
    } else {
        s.min(3)
    }
}

/// Renders Table 1 rows.
pub fn calu_table(cli: &Cli) -> Table {
    let mut t = Table::new(&[
        "n", "P", "b", "S", "gT", "tau_ave", "tau_min", "wb", "HPL1", "HPL2", "HPL3", "max|L|",
    ]);
    for (n, p, b) in calu_cells(cli) {
        let s = samples_for(n, cli);
        let row = run_calu_case(n, p, b, s, 0xCA1);
        t.row(stability_cells(&row, true));
    }
    t
}

/// Renders Table 2 rows.
pub fn gepp_table(cli: &Cli) -> Table {
    let mut t = Table::new(&["n", "S", "gT", "wb", "HPL1", "HPL2", "HPL3"]);
    for n in gepp_cells(cli) {
        let s = samples_for(n, cli);
        let row = run_gepp_case(n, 64.min(n / 4).max(1), s, 0x6E99);
        t.row(vec![
            row.n.to_string(),
            row.samples.to_string(),
            f2(row.g_t),
            sci(row.wb),
            sci(row.hpl.hpl1),
            sci(row.hpl.hpl2),
            sci(row.hpl.hpl3),
        ]);
    }
    t
}

fn stability_cells(row: &StabilityRow, with_pivot_cols: bool) -> Vec<String> {
    let mut v = vec![row.n.to_string()];
    if with_pivot_cols {
        v.push(row.p.to_string());
        v.push(row.b.to_string());
    }
    v.push(row.samples.to_string());
    v.push(f2(row.g_t));
    if with_pivot_cols {
        v.push(f2(row.tau_ave));
        v.push(f2(row.tau_min));
    }
    v.push(sci(row.wb));
    v.push(sci(row.hpl.hpl1));
    v.push(sci(row.hpl.hpl2));
    v.push(sci(row.hpl.hpl3));
    if with_pivot_cols {
        v.push(f2(row.max_l));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_sweep_is_small() {
        let cli = Cli::default();
        assert!(calu_cells(&cli).len() <= 8);
        assert!(samples_for(256, &cli) <= 3);
    }

    #[test]
    fn full_sweep_matches_paper_cells() {
        let cli = Cli { full: true, csv: false };
        let cells = calu_cells(&cli);
        assert_eq!(cells.len(), 18, "Table 1 has 18 CALU rows (19 with the duplicate block)");
        assert!(cells.contains(&(8192, 256, 32)));
        assert_eq!(samples_for(8192, &cli), 3);
        assert_eq!(samples_for(1024, &cli), 10);
    }
}
