//! The 2-D block-cyclic layout: print the ownership map of a ragged matrix
//! on a 2x2 process grid, deal the matrix out to the ranks as ScaLAPACK's
//! local arrays (one column-major matrix each, local row `li` = global row
//! `global_row(prow, li)`), check every local element against its global
//! one, and assemble the shares back.
//!
//! Run: `cargo run --release --example tile_layout`

use calu_repro::core::dist::{assemble_2d, scatter_2d};
use calu_repro::matrix::{gen, Matrix, TileLayout};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (m, n, b, (pr, pc)) = (10usize, 7usize, 4usize, (2usize, 2usize));
    let mut rng = StdRng::seed_from_u64(2008);
    let a: Matrix = gen::randn(&mut rng, m, n);

    // `b x b` blocks dealt round-robin: block (bi, bj) lives on process
    // (bi mod Pr, bj mod Pc), ragged at both edges.
    let layout = TileLayout::new(m, n, b, b).with_grid(pr, pc);
    println!("{m}x{n} matrix in {b}x{b} blocks on a {pr}x{pc} grid (rank = pcol*Pr + prow):");
    for bi in 0..layout.tile_rows() {
        let row: Vec<String> =
            (0..layout.tile_cols()).map(|bj| format!("r{}", layout.owner(bi, bj))).collect();
        println!("  block row {bi}: {}", row.join(" "));
    }

    // Each rank's share is one flat local matrix of its owned rows and
    // columns; scatter_2d moves b-row column segments into it.
    let parts: Vec<Matrix> =
        (0..pr * pc).map(|rank| scatter_2d(layout, &a, rank % pr, rank / pr)).collect();
    for (rank, part) in parts.iter().enumerate() {
        let (prow, pcol) = (rank % pr, rank / pr);
        let rows: Vec<usize> = (0..part.rows()).map(|li| layout.global_row(prow, li)).collect();
        let cols: Vec<usize> = (0..part.cols()).map(|lj| layout.global_col(pcol, lj)).collect();
        println!(
            "  rank {rank}: {}x{} local, global rows {rows:?}, global cols {cols:?}",
            part.rows(),
            part.cols()
        );
        for (li, &gi) in rows.iter().enumerate() {
            for (lj, &gj) in cols.iter().enumerate() {
                assert_eq!(part[(li, lj)], a[(gi, gj)], "rank {rank} ({li}, {lj})");
            }
        }
    }

    let back = assemble_2d(layout, &parts);
    println!(
        "scatter_2d -> assemble_2d on the {pr}x{pc} grid: every local element is its global one, \
         identity = {}",
        back == a
    );
    assert_eq!(back, a);
}
