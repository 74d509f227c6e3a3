//! Experiment drivers for Tables 1-2 and Figure 2: factor a sampled random
//! matrix with CALU or GEPP, record growth/threshold statistics, solve an
//! HPL-style system, and report one table row.

use crate::residuals::{componentwise_backward_error, hpl_tests, HplReport};
use calu_core::{calu_inplace, gepp_inplace, CaluOpts, LuFactors, PivotStats};
use calu_matrix::gen;
use calu_matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of Table 1 / Table 2 (averaged over `samples`).
#[derive(Debug, Clone)]
pub struct StabilityRow {
    /// Matrix order.
    pub n: usize,
    /// Tournament height `Pr` (0 for GEPP).
    pub p: usize,
    /// Block size `b` (the GEPP baseline uses its own blocking).
    pub b: usize,
    /// Samples averaged.
    pub samples: usize,
    /// Mean growth factor `gT`.
    pub g_t: f64,
    /// Mean average threshold `τ_ave` (1.0 for GEPP).
    pub tau_ave: f64,
    /// Minimum threshold over all samples and steps.
    pub tau_min: f64,
    /// Mean componentwise backward error before refinement.
    pub wb: f64,
    /// Mean HPL residuals.
    pub hpl: HplReport,
    /// Maximum `|L|` entry over all samples.
    pub max_l: f64,
}

/// The paper's sample-size rule for Table 1: `S = max(10 · 2^(10−k), 3)`
/// for `n = 2^k` (e.g. 10 samples at n=1024, 3 at n=8192). Non-powers of
/// two round `k` down.
pub fn hpl_sample_size(n: usize) -> usize {
    let k = (usize::BITS - 1 - n.max(1).leading_zeros()) as i32;
    let s = 10.0 * 2f64.powi(10 - k);
    (s as usize).max(3)
}

/// Runs one Table 1 cell: CALU with ca-pivoting at `(n, Pr = p, b)` over
/// `samples` seeded random normal instances.
pub fn run_calu_case(n: usize, p: usize, b: usize, samples: usize, seed0: u64) -> StabilityRow {
    run_calu_ensemble_case(Ensemble::Normal, n, p, b, samples, seed0)
}

/// Runs one Table 2 cell: GEPP at order `n` over `samples` random normal
/// instances.
pub fn run_gepp_case(n: usize, b: usize, samples: usize, seed0: u64) -> StabilityRow {
    run_gepp_ensemble_case(Ensemble::Normal, n, b, samples, seed0)
}

/// Matrix ensemble for [`run_calu_ensemble_case`] — the paper reports
/// "similar results" for ca-pivoting on "different random distributions"
/// and "dense Toeplitz matrices" (Section 6.1); the structured ensembles
/// extend the sweep to conditioning and growth stressors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ensemble {
    /// Standard normal entries (the headline ensemble).
    Normal,
    /// Uniform `[-1, 1)` entries.
    Uniform,
    /// Dense Toeplitz with N(0,1) diagonals.
    Toeplitz,
    /// Orthogonally mixed graded singular values, `κ₂ = 10^8` (`randsvd`):
    /// ill-conditioned but growth-benign.
    Graded,
    /// Sylvester Hadamard matrix (deterministic; `n` rounds down to a power
    /// of two): GEPP growth exactly `n`, a structured mid-scale control.
    Hadamard,
}

impl Ensemble {
    /// Element standard deviation for the Trefethen-Schreiber `gT`
    /// normalization (structured ensembles use 1: absolute growth).
    pub(crate) fn sigma(self) -> f64 {
        match self {
            Ensemble::Uniform => (1.0f64 / 3.0).sqrt(), // std of U[-1,1)
            _ => 1.0,
        }
    }

    /// Draws one sample of the ensemble at order `n`.
    pub(crate) fn sample(self, rng: &mut StdRng, n: usize) -> Matrix {
        match self {
            Ensemble::Normal => gen::randn(rng, n, n),
            Ensemble::Uniform => gen::uniform(rng, n, n, -1.0, 1.0),
            Ensemble::Toeplitz => gen::randn_toeplitz(rng, n),
            Ensemble::Graded => gen::randsvd(rng, n, 1e8),
            Ensemble::Hadamard => {
                let n2 = if n.is_power_of_two() { n } else { n.next_power_of_two() / 2 };
                gen::hadamard(n2.max(2))
            }
        }
    }
}

/// CALU with ca-pivoting at `(n, Pr = p, b)` over `samples` draws of a
/// chosen ensemble ([`run_calu_case`] is its `Normal` case). Growth factors
/// are normalized by the ensemble's element standard deviation.
pub fn run_calu_ensemble_case(
    ens: Ensemble,
    n: usize,
    p: usize,
    b: usize,
    samples: usize,
    seed0: u64,
) -> StabilityRow {
    let factor = move |a: &Matrix, stats: &mut PivotStats| {
        let mut lu = a.clone();
        let ipiv =
            calu_inplace(lu.view_mut(), CaluOpts { block: b, p, ..Default::default() }, stats)
                .expect("nonsingular");
        LuFactors { lu, ipiv }
    };
    aggregate_ens(ens, n, p, b, samples, seed0, factor)
}

/// GEPP over a chosen ensemble — the Table-2-style baseline for
/// [`run_calu_ensemble_case`] ([`run_gepp_case`] is its `Normal` case).
pub fn run_gepp_ensemble_case(
    ens: Ensemble,
    n: usize,
    b: usize,
    samples: usize,
    seed0: u64,
) -> StabilityRow {
    let factor = move |a: &Matrix, stats: &mut PivotStats| {
        let mut lu = a.clone();
        let ipiv = gepp_inplace(lu.view_mut(), b, stats).expect("nonsingular");
        LuFactors { lu, ipiv }
    };
    aggregate_ens(ens, n, 0, b, samples, seed0, factor)
}

/// The one sampling loop: `samples` draws of `ens` seeded `seed0`,
/// `seed0 + 1`, …, each followed by an HPL right-hand side from the same
/// stream, factored by `factor` and solved; means, minima and maxima in
/// sample order, `gT` normalized by the ensemble's σ.
fn aggregate_ens(
    ens: Ensemble,
    n: usize,
    p: usize,
    b: usize,
    samples: usize,
    seed0: u64,
    factor: impl Fn(&Matrix, &mut PivotStats) -> LuFactors,
) -> StabilityRow {
    let mut g_t = 0.0;
    let mut tau_ave = 0.0;
    let mut tau_min = f64::INFINITY;
    let mut wb_sum = 0.0;
    let (mut h1, mut h2, mut h3) = (0.0, 0.0, 0.0);
    let mut max_l = 0.0_f64;
    for s in 0..samples {
        let mut rng = StdRng::seed_from_u64(seed0 + s as u64);
        let a = ens.sample(&mut rng, n);
        let n = a.rows(); // Hadamard may round the order
        let bvec = gen::hpl_rhs(&mut rng, n);
        let mut stats = PivotStats::new(a.max_abs());
        let f = factor(&a, &mut stats);
        let x = f.solve(&bvec);
        g_t += stats.growth_factor(1.0);
        tau_ave += stats.tau_ave();
        tau_min = tau_min.min(stats.tau_min());
        max_l = max_l.max(stats.max_l);
        wb_sum += componentwise_backward_error(&a, &x, &bvec);
        let hpl = hpl_tests(&a, &x, &bvec);
        h1 += hpl.hpl1;
        h2 += hpl.hpl2;
        h3 += hpl.hpl3;
    }
    let sf = samples as f64;
    StabilityRow {
        n,
        p,
        b,
        samples,
        g_t: g_t / sf / ens.sigma(),
        tau_ave: tau_ave / sf,
        tau_min,
        wb: wb_sum / sf,
        hpl: HplReport { hpl1: h1 / sf, hpl2: h2 / sf, hpl3: h3 / sf },
        max_l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_core::{rt::runtime_calu_inplace, rt::RuntimeOpts, PanelMode};

    /// Like [`run_calu_ensemble_case`] but factoring on the task-graph
    /// runtime with tile-height tournament leaves ([`PanelMode::Resident`]:
    /// `n.div_ceil(b)` leaves at the first panel, recorded as the row's `p`)
    /// instead of `Pr` block rows. Different leaves elect different pivots, so
    /// its rows are held to the same CALU stability gates as the gathered
    /// rows, not compared bit-for-bit.
    fn run_resident_ensemble_case(
        ens: Ensemble,
        n: usize,
        b: usize,
        samples: usize,
        seed0: u64,
    ) -> StabilityRow {
        let factor = move |a: &Matrix, stats: &mut PivotStats| {
            let mut lu = a.clone();
            let (ipiv, _report) = runtime_calu_inplace(
                lu.view_mut(),
                CaluOpts { block: b, panel_mode: PanelMode::Resident, ..Default::default() },
                RuntimeOpts::default(),
                stats,
            )
            .expect("nonsingular");
            LuFactors { lu, ipiv }
        };
        aggregate_ens(ens, n, n.div_ceil(b), b, samples, seed0, factor)
    }

    #[test]
    fn sample_size_rule_matches_paper() {
        // Table 1 caption: n = 2^k -> S = max(10*2^(10-k), 3); Table 2
        // lists S = 5 at 2^11..2^13? The paper's Table 2 shows S=5 for
        // n=2^11..2^13 and S=10 at 2^10; the rule in the Table 1 caption
        // gives:
        assert_eq!(hpl_sample_size(1024), 10);
        assert_eq!(hpl_sample_size(2048), 5);
        assert_eq!(hpl_sample_size(4096), 3);
        assert_eq!(hpl_sample_size(8192), 3);
    }

    #[test]
    fn calu_row_sane_statistics() {
        let row = run_calu_case(96, 4, 16, 2, 7);
        assert_eq!(row.samples, 2);
        assert!(row.g_t > 1.0 && row.g_t < 500.0, "gT = {}", row.g_t);
        assert!(row.tau_min > 0.1 && row.tau_min <= 1.0, "tau_min = {}", row.tau_min);
        assert!(row.tau_ave >= row.tau_min && row.tau_ave <= 1.0);
        assert!(row.wb < 1e-11, "wb = {}", row.wb);
        assert!(row.hpl.passes(), "{:?}", row.hpl);
        assert!(row.max_l < 10.0);
    }

    #[test]
    fn gepp_row_has_unit_thresholds() {
        let row = run_gepp_case(96, 16, 2, 11);
        assert!((row.tau_min - 1.0).abs() < 1e-14);
        assert!((row.tau_ave - 1.0).abs() < 1e-14);
        assert!(row.max_l <= 1.0 + 1e-14);
        assert!(row.hpl.passes());
    }

    #[test]
    fn other_ensembles_behave_like_normal() {
        // Paper Section 6.1: "we have performed experiments on different
        // matrices, as matrices following different random distributions,
        // dense Toeplitz matrices, and we have obtained similar results."
        let n = 96;
        for ens in [Ensemble::Uniform, Ensemble::Toeplitz] {
            let row = run_calu_ensemble_case(ens, n, 4, 16, 2, 31);
            assert!(row.hpl.passes(), "{ens:?}: {:?}", row.hpl);
            assert!(row.tau_min > 0.1, "{ens:?}: tau_min {}", row.tau_min);
            assert!(row.max_l < 10.0, "{ens:?}: |L| {}", row.max_l);
            assert!(row.wb < 1e-10, "{ens:?}: wb {}", row.wb);
        }
    }

    #[test]
    fn graded_ensemble_is_ill_conditioned_but_growth_benign() {
        // randsvd(kappa=1e8): pivot quality and growth stay healthy —
        // conditioning, not the factorization, is the problem. HPL2 is
        // scaled by ||x||_1 and passes; HPL1 is *not* condition-robust
        // (HPL assumes its own well-conditioned random inputs) and
        // correctly blows up, which is worth pinning down as a negative
        // control. The backward error wb stays at machine level: the
        // factorization is backward stable regardless of kappa.
        let row = run_calu_ensemble_case(Ensemble::Graded, 64, 4, 16, 2, 41);
        assert!(row.tau_min > 0.1, "tau_min {}", row.tau_min);
        assert!(row.g_t < 64.0, "graded matrices do not blow up: gT {}", row.g_t);
        assert!(row.hpl.hpl2 < 16.0, "HPL2 is ||x||-scaled: {:?}", row.hpl);
        assert!(row.hpl.hpl1 > 16.0, "HPL1 must expose the conditioning: {:?}", row.hpl);
        assert!(row.wb < 1e-8, "backward error is condition-independent: {}", row.wb);
    }

    #[test]
    fn hadamard_growth_is_order_n_for_both_pivotings() {
        // GEPP growth on a Hadamard matrix is exactly n; ca-pivoting's
        // should be within a small factor (threshold pivoting bound).
        let n = 64;
        let c = run_calu_ensemble_case(Ensemble::Hadamard, n, 4, 16, 1, 51);
        let g = run_gepp_ensemble_case(Ensemble::Hadamard, n, 16, 1, 51);
        assert!(g.g_t >= n as f64 * 0.99, "GEPP Hadamard growth ~n, got {}", g.g_t);
        assert!(c.g_t >= n as f64 * 0.5 && c.g_t <= n as f64 * 8.0, "CALU growth {}", c.g_t);
        assert!(c.hpl.passes() && g.hpl.passes());
    }

    #[test]
    fn gepp_ensemble_runner_keeps_unit_thresholds() {
        for ens in [Ensemble::Uniform, Ensemble::Toeplitz, Ensemble::Graded] {
            let row = run_gepp_ensemble_case(ens, 64, 16, 2, 61);
            assert!((row.tau_min - 1.0).abs() < 1e-14, "{ens:?}");
            assert!(row.max_l <= 1.0 + 1e-14, "{ens:?}");
        }
    }

    #[test]
    fn resident_panel_growth_within_calu_gates_on_adversarial_ensembles() {
        // Tile-height leaves elect different pivots than `p` block rows;
        // their quality must stay within the same stability envelope as
        // the gathered CALU rows on the adversarial ensembles — thresholds
        // (measured, as for gathered, against the full column) bounded
        // away from zero, growth and backward error the same order of
        // magnitude.
        let n = 96;
        for ens in [Ensemble::Uniform, Ensemble::Toeplitz, Ensemble::Hadamard] {
            let g = run_calu_ensemble_case(ens, n, 4, 16, 2, 71);
            let r = run_resident_ensemble_case(ens, n, 16, 2, 71);
            assert!(r.tau_min > 0.05, "{ens:?}: resident tau_min {}", r.tau_min);
            assert!(
                r.g_t <= 8.0 * g.g_t.max(1.0),
                "{ens:?}: resident gT {} vs gathered {}",
                r.g_t,
                g.g_t
            );
            assert!(
                r.wb <= 50.0 * g.wb.max(1e-16),
                "{ens:?}: resident wb {} vs gathered {}",
                r.wb,
                g.wb
            );
            assert!(r.hpl.hpl2 < 16.0, "{ens:?}: resident HPL2 {:?}", r.hpl);
            // The same modest |L| ceiling the gathered ensembles satisfy.
            assert!(r.max_l < 10.0, "{ens:?}: resident |L| {}", r.max_l);
        }
    }

    #[test]
    fn calu_and_gepp_same_order_of_magnitude() {
        // The paper's conclusion from Tables 1-2: same orders of magnitude
        // for wb and the HPL residuals.
        let c = run_calu_case(128, 8, 16, 2, 21);
        let g = run_gepp_case(128, 16, 2, 21);
        assert!(c.wb < 50.0 * g.wb, "CALU wb {} vs GEPP wb {}", c.wb, g.wb);
        assert!(c.g_t < 8.0 * g.g_t, "CALU gT {} vs GEPP gT {}", c.g_t, g.g_t);
    }
}
