//! Tile-major storage tour: convert a matrix to tiles, iterate per tile,
//! print the block-cyclic ownership map, factor on the tile-backed
//! runtime path, and round-trip back — the storage layer the task-graph
//! runtime and the simulated-distributed layer now share.
//!
//! Run: `cargo run --release --example tile_layout`

use calu_repro::core::{calu_factor, runtime_calu_tiles, CaluOpts, RuntimeOpts};
use calu_repro::matrix::{gen, Matrix, NoObs, TileLayout, TileMatrix};
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

    // Factor on the tile-backed runtime path; factors convert back
    // bitwise identical to the sequential sweep on flat storage.
    let (m, n, b) = (256usize, 256usize, 32usize);
    let a: Matrix = gen::randn(&mut rng, m, n);
    let opts = CaluOpts { block: b, p: 4, ..Default::default() };
    let mut work = TileMatrix::from_matrix(&a, b, b);
    let (ipiv, _report) = runtime_calu_tiles(&mut work, opts, RuntimeOpts::default(), &mut NoObs)
        .expect("nonsingular");
    let seq = calu_factor(&a, opts).expect("nonsingular");
    let diff = work.to_matrix().max_abs_diff(&seq.lu);
    println!("\n{m}x{m} tile-backed runtime CALU vs sequential: max diff = {diff:e} (bitwise)");
    assert_eq!(diff, 0.0);
    assert_eq!(ipiv, seq.ipiv);
}
