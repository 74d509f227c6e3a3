//! Tile-major storage tour: convert a matrix to tiles, iterate per tile,
//! print the block-cyclic ownership map, then deal the matrix out to the
//! ranks of that grid and assemble it back — tile-major is the layout of a
//! distributed rank's cells (the shared-memory runtime factors flat
//! matrices).
//!
//! Run: `cargo run --release --example tile_layout`

use calu_repro::core::dist::{assemble_2d, scatter_2d};
use calu_repro::matrix::{gen, Matrix, TileLayout, TileMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (m, n, b) = (10usize, 7usize, 4usize);
    let mut rng = StdRng::seed_from_u64(2008);
    let a: Matrix = gen::randn(&mut rng, m, n);

    // Conversion: tiles contiguous in memory, ragged at both edges.
    let tiles = TileMatrix::from_matrix(&a, b, b);
    let layout = tiles.layout();
    println!(
        "{m}x{n} matrix in {b}x{b} tiles -> {}x{} tile grid",
        layout.tile_rows(),
        layout.tile_cols()
    );

    // Per-tile iteration: every tile is a plain contiguous MatView.
    for (ti, tj, t) in tiles.tiles() {
        println!(
            "  tile ({ti},{tj}): {}x{} at buffer offset {:5}, |max| = {:.3}",
            t.rows(),
            t.cols(),
            layout.tile_offset(ti, tj),
            t.max_abs()
        );
    }

    // The same geometry is the ScaLAPACK block-cyclic map: attach a
    // 2x2 process grid and print who owns which tile.
    let owned = TileLayout::new(m, n, b, b).with_grid(2, 2);
    println!("\nblock-cyclic owners on a 2x2 grid (rank = pcol*Pr + prow):");
    for ti in 0..owned.tile_rows() {
        let row: Vec<String> =
            (0..owned.tile_cols()).map(|tj| format!("r{}", owned.owner(ti, tj))).collect();
        println!("  tile row {ti}: {}", row.join(" "));
    }
    println!(
        "rank 0 owns {}x{} local elements (its local storage is itself a TileMatrix)",
        owned.local_rows(0),
        owned.local_cols(0)
    );

    // Where tile storage executes: each rank's share of the 2x2 deal is a
    // TileMatrix of whole copied tiles, and assembly inverts it exactly.
    let parts: Vec<TileMatrix> =
        (0..4).map(|rank| scatter_2d(owned, &a, rank % 2, rank / 2)).collect();
    let back = assemble_2d(owned, &parts);
    println!(
        "scatter_2d -> assemble_2d on the 2x2 grid: {} rank cells, identity = {}",
        parts.len(),
        back == a
    );
    assert_eq!(back, a);
}
