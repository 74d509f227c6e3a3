//! Tile-storage integration tests: lossless `from_matrix`/`to_matrix`
//! round trips (including ragged shapes), cross-tile row swaps equivalent
//! to the flat pivot application, and the precision cast. Tile-major is the
//! distributed ranks' layout; the shared-memory runtime factors flat
//! matrices (its bitwise suites are `rt::runtime_matches_sequential_*`,
//! `tests/proptests.rs` and `tests/precision.rs`).

use calu_repro::matrix::perm::apply_ipiv;
use calu_repro::matrix::{gen, Matrix, TileMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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

    /// A transposition sequence applied with the cross-tile
    /// `swap_rows_in_cols` (the primitive `core::dist` uses) == flat
    /// `apply_ipiv`, including swaps that cross tile boundaries.
    #[test]
    fn tile_laswp_matches_flat(
        m in 2usize..40,
        n in 1usize..30,
        mb in 1usize..12,
        nb in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Matrix = gen::randn(&mut rng, m, n);
        let kn = m.min(8);
        let ipiv: Vec<usize> =
            (0..kn).map(|i| i + (seed as usize * 31 + i * 17) % (m - i)).collect();
        let mut flat = a.clone();
        apply_ipiv(flat.view_mut(), &ipiv);
        let mut tiled = TileMatrix::from_matrix(&a, mb, nb);
        for (i, &p) in ipiv.iter().enumerate() {
            tiled.swap_rows_in_cols(i, p, 0..n);
        }
        prop_assert_eq!(tiled.to_matrix(), flat);
    }

    /// The shared cast helper keeps both layouts' precision ladders in
    /// lockstep: casting tiles == tiling the cast.
    #[test]
    fn tile_cast_commutes_with_matrix_cast(
        m in 1usize..24,
        n in 1usize..24,
        b in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let a: Matrix = gen::randn(&mut StdRng::seed_from_u64(seed), m, n);
        let via_tiles = TileMatrix::from_matrix(&a, b, b).cast::<f32>().to_matrix();
        let via_flat = a.cast::<f32>();
        prop_assert_eq!(via_tiles, via_flat);
    }
}
