//! Tile-storage integration tests: lossless `from_matrix`/`to_matrix`
//! round trips (including ragged shapes), cross-tile `laswp` equivalence
//! with the flat pivot application, and bitwise identity of tile-backed
//! runtime CALU against the sequential sweep at both precisions, on both
//! executors, at lookahead depths 1–3.

use calu_repro::core::{calu_factor, runtime_calu_tiles, CaluOpts, RuntimeOpts};
use calu_repro::matrix::perm::apply_ipiv;
use calu_repro::matrix::{gen, Matrix, NoObs, Scalar, TileMatrix};
use calu_repro::runtime::ExecutorKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn executors() -> [ExecutorKind; 2] {
    [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }]
}

/// Tile-backed runtime CALU vs sequential `calu_inplace`, bitwise, at one
/// precision across executors and depths.
fn check_tile_runtime_bitwise<T: Scalar>(seed: u64, m: usize, n: usize, b: usize, p: usize) {
    let a: Matrix<T> = gen::randn(&mut StdRng::seed_from_u64(seed), m, n);
    let opts = CaluOpts { block: b, p, ..Default::default() };
    let seq = calu_factor(&a, opts).expect("random normal matrices are nonsingular");
    for depth in 1..=3 {
        for executor in executors() {
            let rt = RuntimeOpts { lookahead: depth, executor };
            let mut tiles = TileMatrix::from_matrix(&a, b, b);
            let (ipiv, _rep) = runtime_calu_tiles(&mut tiles, opts, rt, &mut NoObs).unwrap();
            assert_eq!(seq.ipiv, ipiv, "{} {m}x{n} b={b} d={depth} {executor:?}", T::NAME);
            assert_eq!(
                seq.lu.max_abs_diff(&tiles.to_matrix()),
                T::ZERO,
                "{} {m}x{n} b={b} d={depth} {executor:?}: tile factors must be bitwise identical",
                T::NAME
            );
        }
    }
}

#[test]
fn tile_runtime_bitwise_f64_all_depths_and_executors() {
    for &(m, n, b, p) in &[(96usize, 96usize, 16usize, 4usize), (97, 97, 16, 3), (60, 100, 16, 4)] {
        check_tile_runtime_bitwise::<f64>(7101, m, n, b, p);
    }
}

#[test]
fn tile_runtime_bitwise_f32_all_depths_and_executors() {
    for &(m, n, b, p) in &[(96usize, 96usize, 16usize, 4usize), (97, 97, 16, 3), (100, 60, 16, 4)] {
        check_tile_runtime_bitwise::<f32>(7102, m, n, b, p);
    }
}

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

    /// Cross-tile laswp == flat apply_ipiv for random transposition
    /// sequences, including swaps that cross tile boundaries.
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
        tiled.laswp(&ipiv);
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
