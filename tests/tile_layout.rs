//! Block layout integration tests: the block-cyclic deal (`scatter_2d` →
//! `assemble_2d` over ScaLAPACK's flat local arrays, every local element
//! its global one), and the tile-major conversion `TileMatrix` the
//! benchmark probes — lossless `from_matrix`/`to_matrix` round trips
//! (including ragged shapes).

use calu_repro::core::dist::{assemble_2d, scatter_2d};
use calu_repro::matrix::{gen, Matrix, TileLayout, TileMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `scatter_2d` deals every rank its ScaLAPACK local array — local
    /// `(li, lj)` holds `a[(global_row(prow, li), global_col(pcol, lj))]` —
    /// and `assemble_2d` of the shares is `a`, on grids up to 4 × 3 with
    /// ragged last blocks, empty matrices, and process rows or columns that
    /// own nothing (3 block rows on 4 process rows among them).
    #[test]
    fn scatter_then_assemble_is_the_identity_on_local_arrays(
        m in 0usize..45,
        n in 0usize..40,
        b in 1usize..9,
        pr in 1usize..5,
        pc in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let a: Matrix = gen::randn(&mut StdRng::seed_from_u64(seed), m, n);
        let layout = TileLayout::new(m, n, b, b).with_grid(pr, pc);
        let parts: Vec<Matrix> =
            (0..pr * pc).map(|rank| scatter_2d(layout, &a, rank % pr, rank / pr)).collect();
        for (rank, part) in parts.iter().enumerate() {
            let (prow, pcol) = (rank % pr, rank / pr);
            let shape = (layout.local_rows(prow), layout.local_cols(pcol));
            prop_assert_eq!((part.rows(), part.cols()), shape);
            for lj in 0..part.cols() {
                for li in 0..part.rows() {
                    let at = (layout.global_row(prow, li), layout.global_col(pcol, lj));
                    prop_assert_eq!(part[(li, lj)], a[at], "rank {} ({}, {})", rank, li, lj);
                }
            }
        }
        prop_assert_eq!(assemble_2d(layout, &parts), a);
    }

    /// The same round trip with 3 block rows on 4 process rows: process
    /// row 3 owns no rows, ragged or not.
    #[test]
    fn scatter_then_assemble_survives_an_empty_process_row(
        rag in 0usize..8,
        n in 0usize..30,
        pc in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let m = 2 * 8 + rag.max(1);
        let a: Matrix = gen::randn(&mut StdRng::seed_from_u64(seed), m, n);
        let layout = TileLayout::new(m, n, 8, 8).with_grid(4, pc);
        let parts: Vec<Matrix> =
            (0..4 * pc).map(|rank| scatter_2d(layout, &a, rank % 4, rank / 4)).collect();
        prop_assert!(parts.iter().skip(3).step_by(4).all(|p| p.rows() == 0));
        prop_assert_eq!(assemble_2d(layout, &parts), a);
    }

    /// from_matrix -> to_matrix is lossless for any shape and tile size,
    /// divisible or ragged, and element addressing agrees everywhere.
    #[test]
    fn tile_round_trip_is_lossless(
        m in 1usize..40,
        n in 1usize..40,
        mb in 1usize..12,
        nb in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let a: Matrix = gen::randn(&mut StdRng::seed_from_u64(seed), m, n);
        let t = TileMatrix::from_matrix(&a, mb, nb);
        prop_assert_eq!(t.to_matrix(), a.clone());
        // Spot-check direct indexing on the corners and center.
        for &(i, j) in &[(0, 0), (m - 1, 0), (0, n - 1), (m - 1, n - 1), (m / 2, n / 2)] {
            prop_assert_eq!(t[(i, j)], a[(i, j)]);
        }
    }

}
