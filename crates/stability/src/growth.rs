//! Growth-factor analysis (Trefethen & Schreiber 1990, the paper's
//! reference \[10\]).
//!
//! Figure 2 (left) plots the measured `gT` for ca-pivoting against the
//! empirical laws `n^(2/3)` (partial pivoting) and `2·n^(2/3)`; the growth
//! itself is tracked by `calu_core::PivotStats` during factorization.

/// The empirical reference curve `c * n^(2/3)` from Trefethen-Schreiber:
/// `c = 1` approximates partial pivoting on random normal matrices; the
/// paper observes ca-pivoting stays under `c ≈ 1.5-2`.
pub fn growth_reference(n: usize, c: f64) -> f64 {
    c * (n as f64).powf(2.0 / 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_core::{calu_inplace, CaluOpts, PivotStats};
    use calu_matrix::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_curve_values() {
        assert!((growth_reference(1024, 1.0) - 101.59).abs() < 0.1);
        assert!((growth_reference(4096, 2.0) - 2.0 * 256.0).abs() < 1.0);
    }

    #[test]
    fn calu_growth_tracks_n_two_thirds() {
        // The paper's Figure 2 (left): gT for ca-pivoting stays within a
        // small constant of n^(2/3). Test at modest n with two samples.
        let mut rng = StdRng::seed_from_u64(181);
        for &n in &[128usize, 256] {
            let mut gs = Vec::new();
            for _ in 0..2 {
                let a = gen::randn(&mut rng, n, n);
                let mut stats = PivotStats::new(a.max_abs());
                let mut work = a.clone();
                calu_inplace(
                    work.view_mut(),
                    CaluOpts { block: 32, p: 4, ..Default::default() },
                    &mut stats,
                )
                .unwrap();
                gs.push(stats.growth_factor(1.0));
            }
            let g = gs.iter().sum::<f64>() / gs.len() as f64;
            let lo = growth_reference(n, 0.3);
            let hi = growth_reference(n, 6.0);
            assert!(g > lo && g < hi, "n={n}: gT={g} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn gfpp_dial_interpolates_growth() {
        // The tunable adversary gen::gfpp(n, h) produces growth (1+h)^(n-1)
        // under partial pivoting; ca-pivoting reproduces the same curve
        // (same pivots on this structured family). A dial between benign
        // and Wilkinson-catastrophic validates the growth instrumentation
        // across orders of magnitude.
        let n = 20;
        for &h in &[0.25_f64, 0.5, 1.0] {
            let a = gen::gfpp(n, h);
            let mut stats = PivotStats::new(a.max_abs());
            let mut work = a.clone();
            calu_inplace(
                work.view_mut(),
                CaluOpts { block: 5, p: 4, ..Default::default() },
                &mut stats,
            )
            .unwrap();
            let want = (1.0 + h).powi(n as i32 - 1);
            assert!(
                stats.max_elem >= want * 0.98 && stats.max_elem <= want * 1.02,
                "h={h}: growth {} vs theory {want}",
                stats.max_elem
            );
        }
    }

    #[test]
    fn growth_increases_with_matrix_size() {
        // Sanity on the gT ~ n^(2/3) trend direction: bigger n, bigger gT
        // (in distribution; two samples averaged is enough for 4x sizes).
        let mut rng = StdRng::seed_from_u64(182);
        let g = |n: usize, rng: &mut StdRng| {
            let mut acc = 0.0;
            for _ in 0..2 {
                let a = gen::randn(rng, n, n);
                let mut stats = PivotStats::new(a.max_abs());
                let mut w = a.clone();
                calu_inplace(
                    w.view_mut(),
                    CaluOpts { block: 16, p: 4, ..Default::default() },
                    &mut stats,
                )
                .unwrap();
                acc += stats.growth_factor(1.0);
            }
            acc / 2.0
        };
        let g64 = g(64, &mut rng);
        let g256 = g(256, &mut rng);
        assert!(g256 > g64, "growth must trend up with n: {g64} -> {g256}");
    }
}
