//! # calu-bench — the paper's evaluation harness
//!
//! One binary, `repro`, regenerates the paper's tables and figures, one
//! subcommand each; its `SUBCOMMANDS` table (`src/bin/repro.rs`, printed
//! by `repro --help`) names every subcommand, the paper artifact it
//! regenerates, and whether it has a reduced sweep. `DESIGN.md`'s
//! per-experiment index and `EXPERIMENTS.md` hold the recorded results.
//! The one other binary, `bench_report`, is tooling over the
//! observability layer: `--trace` profiles a Chrome trace (sum-to-wall,
//! measured critical path), `--history` appends a `benchmark/` run to
//! `BENCH_history.jsonl`. The *engine's* wall-clock performance is not
//! measured here: that is `benchmark/` at the repository root (own
//! package, repetitions, noise bounds).
//!
//! A subcommand with a reduced sweep runs it by default and the paper's
//! sizes with `--full` (slow); the others always run the paper's sweep,
//! in seconds, and reject `--full`. All accept `--csv`.
//!
//! The `benches/` directory holds criterion microbenchmarks of the real
//! (wall-clock) kernels on the host machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calu_table;
pub mod stability_table;
pub mod tslu_table;

/// Options of a `repro` subcommand.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cli {
    /// Run the paper-scale sweep (hours) instead of the reduced one.
    pub full: bool,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

impl Cli {
    /// Parses a subcommand's options. `--full` is one only where the
    /// subcommand has a reduced sweep (`has_full`); elsewhere it is an
    /// unknown option. Exits 0 after `--help`, 2 on an unknown option.
    pub fn parse(args: impl IntoIterator<Item = String>, has_full: bool) -> Self {
        let mut cli = Cli::default();
        for a in args {
            match a.as_str() {
                "--full" if has_full => cli.full = true,
                "--csv" => cli.csv = true,
                "--help" | "-h" => {
                    let full = if has_full { "--full (paper-scale sweep), " } else { "" };
                    eprintln!("options: {full}--csv");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        cli
    }
}

/// A simple aligned-text / CSV table writer.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders to stdout, aligned text or CSV.
    pub fn print(&self, csv: bool) {
        if csv {
            println!("{}", self.headers.join(","));
            for r in &self.rows {
                println!("{}", r.join(","));
            }
            return;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{:>width$}  ", c, width = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for r in &self.rows {
            line(r);
        }
    }
}

/// Formats a ratio with two decimals (the paper's table style).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats in scientific notation with two significant decimals
/// (the paper's `4.22e-14` style).
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// The paper's processor-count-to-grid mapping used in every table.
pub fn paper_grids() -> Vec<(usize, usize, usize)> {
    vec![(4, 2, 2), (8, 2, 4), (16, 4, 4), (32, 4, 8), (64, 8, 8)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.239), "1.24");
        assert_eq!(sci(4.22e-14), "4.22e-14");
    }

    #[test]
    fn grids_match_paper() {
        let g = paper_grids();
        assert_eq!(g[0], (4, 2, 2));
        assert_eq!(g[4], (64, 8, 8));
    }
}
