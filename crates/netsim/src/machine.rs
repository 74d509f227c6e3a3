//! Machine cost models: the α-β-γ parameters the paper's analysis uses
//! (Section 3: "one parameter to describe the time per flop, denoted γ, and
//! one parameter to count the time per divide, denoted γd. We estimate the
//! time for sending a message of m words between two processors as α + mβ"),
//! extended with per-BLAS-level flop rates so that the classic-vs-recursive
//! local LU comparison of Tables 3-4 is expressible.
//!
//! # Calibration
//!
//! Absolute constants come from the paper's hardware descriptions plus
//! public system documents; `EXPERIMENTS.md` records the provenance:
//!
//! * **IBM POWER5** (NERSC "Bassi"): 1.9 GHz, 7.6 GFLOP/s peak per
//!   processor; ESSL `dgemm` sustains ~85% of peak on large blocks; MPI
//!   point-to-point internode latency 4.5 µs, peak bandwidth 3100 MB/s
//!   (paper Section 6). BLAS-2 (`dger`-class) throughput is memory bound:
//!   2 flops per 16 bytes streamed at ~4.8 GB/s sustained per processor
//!   (eight processors share a node's memory system) ≈ 0.6 GFLOP/s.
//! * **Cray XT4** (NERSC "Franklin"): 2.6 GHz dual-core Opteron node,
//!   5.2 GFLOP/s per core; the paper runs ScaLAPACK in mixed mode (one MPI
//!   rank per node, threaded Goto BLAS on the two cores), so one "processor"
//!   in the tables is a 10.4 GFLOP/s node. Portals/SeaStar MPI latency
//!   ~7.5 µs, effective point-to-point bandwidth ~1.7 GB/s.
//!
//! BLAS-3 kernels lose efficiency on skinny blocks; we model the rate as
//! `rate(d) = rate_inf * d / (d + n_half3)` where `d` is the smallest
//! dimension of the multiply — the usual "half-performance dimension"
//! roofline form. This single knob reproduces the paper's observation that
//! recursive local LU loses to classic `getf2` on small panels (recursion
//! bottoms out in skinny `gemm`s) but wins decisively on large ones.

/// Which network direction a message travels; the paper distinguishes
/// communication "within processor columns" (`αc`, `βc`) from "within
/// processor rows" (`αr`, `βr`) as a first step toward hierarchical
/// machines (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Between processors in the same grid column (different rows).
    Col,
    /// Between processors in the same grid row (different columns).
    Row,
}

/// α-β-γ machine description used by both the discrete-event simulator and
/// the closed-form models of `calu-perfmodel`.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable system name (appears in reports).
    pub name: &'static str,
    /// Seconds per flop at asymptotic BLAS-3 rate (large `gemm`).
    pub gamma3: f64,
    /// Half-performance dimension for BLAS-3 kernels: a multiply whose
    /// smallest dimension is `d` runs at `d / (d + n_half3)` of peak.
    pub n_half3: f64,
    /// Seconds per flop for BLAS-2 kernels (`ger`, `gemv`) on blocks that
    /// stream from main memory (footprint > [`Self::cache_bytes`]).
    pub gamma2: f64,
    /// Seconds per flop for BLAS-2 kernels on cache-resident blocks (the
    /// tournament's `2b x b` GEPPs, small panels) — core bound, not
    /// bandwidth bound.
    pub gamma2_cache: f64,
    /// Effective cache capacity per processor, bytes; the BLAS-2 rate
    /// switches between the two regimes at this footprint.
    pub cache_bytes: f64,
    /// Seconds per flop for BLAS-1 kernels (`axpy`, `iamax` scans).
    pub gamma1: f64,
    /// Seconds per floating-point divide (the paper's `γd`).
    pub gamma_div: f64,
    /// Fixed overhead charged per node of the recursive LU call tree
    /// (function-call, blocking set-up, and — on the XT4's threaded Goto
    /// BLAS — thread fork/join for each small `gemm`). This is what makes
    /// classic `DGETF2` competitive on small panels in Tables 3-4.
    pub rec_call_overhead: f64,
    /// Message latency along grid columns, seconds (the paper's `αc`).
    pub alpha_col: f64,
    /// Per-word transfer time along grid columns, seconds (`βc`, 8-byte words).
    pub beta_col: f64,
    /// Message latency along grid rows (`αr`).
    pub alpha_row: f64,
    /// Per-word transfer time along grid rows (`βr`).
    pub beta_row: f64,
}

impl MachineConfig {
    /// IBM p575 POWER5 ("Bassi") — see module docs for provenance.
    pub fn power5() -> Self {
        Self {
            name: "IBM POWER5",
            gamma3: 1.0 / 6.5e9,
            n_half3: 14.0,
            // dger on tall panels streams the whole trailing block through
            // memory: 2 flops per 16 bytes at ~4.8 GB/s sustained per
            // processor (8 procs share a node's memory system) ≈ 0.6 GF/s.
            // Cache-resident blocks run core-bound at ~1.9 GF/s (36 MB L3
            // per chip ≈ 16 MB effective per processor).
            gamma2: 1.0 / 0.6e9,
            gamma2_cache: 1.0 / 1.9e9,
            cache_bytes: 16e6,
            gamma1: 1.0 / 0.5e9,
            gamma_div: 1.8e-8,
            rec_call_overhead: 0.6e-6,
            alpha_col: 4.5e-6,
            beta_col: 8.0 / 3.1e9,
            alpha_row: 4.5e-6,
            beta_row: 8.0 / 3.1e9,
        }
    }

    /// Cray XT4 ("Franklin"), one MPI rank per dual-core node — see module docs.
    pub fn xt4() -> Self {
        Self {
            name: "Cray XT4",
            gamma3: 1.0 / 9.4e9,
            n_half3: 30.0,
            // Dual-core Opteron node, DDR2: ~6.4 GB/s stream -> ~0.8 GF/s
            // for rank-1 updates; ~1.6 GF/s when the block fits the 2x1 MB
            // of L2.
            gamma2: 1.0 / 0.8e9,
            gamma2_cache: 1.0 / 1.6e9,
            cache_bytes: 2e6,
            gamma1: 1.0 / 0.6e9,
            gamma_div: 1.2e-8,
            rec_call_overhead: 8.0e-6,
            alpha_col: 7.5e-6,
            beta_col: 8.0 / 1.7e9,
            alpha_row: 7.5e-6,
            beta_row: 8.0 / 1.7e9,
        }
    }

    /// A contemporary commodity cluster a downstream user might actually
    /// run on (order-of-magnitude 2020s numbers: ~1 TF/s useful dgemm per
    /// node-socket, 200 Gb/s-class fabric at ~2 µs MPI latency). Relative
    /// to the POWER5 this machine has ~150x the flops but only ~8x the
    /// bandwidth and ~2x better latency — exactly the drift the paper's
    /// introduction predicts, which is why CALU's advantage is *larger*
    /// here (see `repro fig_trend`).
    pub fn modern_cluster() -> Self {
        Self {
            name: "modern cluster",
            gamma3: 1.0 / 1.0e12,
            n_half3: 64.0,
            gamma2: 1.0 / 25.0e9,
            gamma2_cache: 1.0 / 60.0e9,
            cache_bytes: 32e6,
            gamma1: 1.0 / 12.0e9,
            gamma_div: 2.5e-10,
            rec_call_overhead: 0.1e-6,
            alpha_col: 2.0e-6,
            beta_col: 8.0 / 24.0e9,
            alpha_row: 2.0e-6,
            beta_row: 8.0 / 24.0e9,
        }
    }

    /// A fictional zero-communication-cost machine with 1 ns/flop at every
    /// BLAS level; handy in tests because virtual times become exact flop
    /// counts.
    pub fn ideal() -> Self {
        Self {
            name: "ideal",
            gamma3: 1e-9,
            n_half3: 0.0,
            gamma2: 1e-9,
            gamma2_cache: 1e-9,
            cache_bytes: f64::INFINITY,
            gamma1: 1e-9,
            gamma_div: 1e-9,
            rec_call_overhead: 0.0,
            alpha_col: 0.0,
            beta_col: 0.0,
            alpha_row: 0.0,
            beta_row: 0.0,
        }
    }

    /// Theoretical peak of one processor in flop/s (taken as the BLAS-3
    /// asymptote; used for "percentage of peak" columns).
    pub fn peak_flops(&self) -> f64 {
        1.0 / self.gamma3
    }

    /// Latency for one message on `link`.
    #[inline]
    pub fn alpha(&self, link: Link) -> f64 {
        match link {
            Link::Col => self.alpha_col,
            Link::Row => self.alpha_row,
        }
    }

    /// Per-word cost on `link`.
    #[inline]
    pub fn beta(&self, link: Link) -> f64 {
        match link {
            Link::Col => self.beta_col,
            Link::Row => self.beta_row,
        }
    }

    /// Time to move one message of `words` 8-byte words on `link`.
    #[inline]
    pub fn t_msg(&self, words: usize, link: Link) -> f64 {
        self.alpha(link) + words as f64 * self.beta(link)
    }

    /// BLAS-3 efficiency factor for smallest dimension `d`.
    #[inline]
    pub(crate) fn eff3(&self, d: usize) -> f64 {
        let d = d.max(1) as f64;
        d / (d + self.n_half3)
    }

    /// Time for `C += A*B` with `A: m x k`, `B: k x n`.
    pub fn t_gemm(&self, m: usize, n: usize, k: usize) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let d = m.min(n).min(k);
        flops_gemm(m, n, k) * self.gamma3 / self.eff3(d)
    }

    /// Time for a triangular solve with an `t x t` triangle applied from the
    /// left to `t x n` right-hand sides (BLAS-3 class).
    pub fn t_trsm_left(&self, t: usize, n: usize) -> f64 {
        if t == 0 || n == 0 {
            return 0.0;
        }
        let d = t.min(n);
        flops_trsm_left(t, n) * self.gamma3 / self.eff3(d)
    }

    /// Time for `B <- B * T^{-1}` with `B: m x t` (right-side solve, BLAS-3).
    pub fn t_trsm_right(&self, m: usize, t: usize) -> f64 {
        if t == 0 || m == 0 {
            return 0.0;
        }
        let d = t.min(m);
        flops_trsm_right(m, t) * self.gamma3 / self.eff3(d)
    }

    /// BLAS-2 rate for an operation touching an `m x n` block: stream rate
    /// if the block spills the cache, core rate otherwise.
    #[inline]
    pub(crate) fn gamma2_for(&self, m: usize, n: usize) -> f64 {
        if (m * n * 8) as f64 > self.cache_bytes {
            self.gamma2
        } else {
            self.gamma2_cache
        }
    }

    /// Time for a rank-1 update of an `m x n` block (BLAS-2).
    pub fn t_ger(&self, m: usize, n: usize) -> f64 {
        flops_ger(m, n) * self.gamma2_for(m, n)
    }

    /// Time for classic unblocked `getf2` on an `m x n` panel:
    /// per column a pivot scan (BLAS-1), one divide + scaling, and a rank-1
    /// trailing update (BLAS-2). This is the `DGETF2` (Cl) configuration of
    /// Tables 3-4.
    pub fn t_getf2(&self, m: usize, n: usize) -> f64 {
        let kn = m.min(n);
        let mut t = 0.0;
        for j in 0..kn {
            let rows = m - j;
            t += rows as f64 * self.gamma1; // iamax scan
            t += self.gamma_div + (rows - 1) as f64 * self.gamma1; // reciprocal + scale
            if j + 1 < n {
                t += self.t_ger(rows - 1, n - j - 1);
            }
        }
        t
    }

    /// Time for recursive `rgetf2` on an `m x n` (tall) panel — evaluated by
    /// actually recursing, so the skinny-`gemm` penalty at the leaves
    /// emerges from `n_half3` just as it does on real hardware. This is the
    /// `RGETF2` (Rec) configuration of Tables 3-4.
    pub fn t_rgetf2(&self, m: usize, n: usize) -> f64 {
        const BASE: usize = 4;
        if n == 0 || m == 0 {
            return 0.0;
        }
        let n1 = n / 2;
        // Short/wide blocks (m <= n/2, e.g. a partial trailing block-row)
        // have no useful split; the real kernel falls back to getf2 there.
        if n <= BASE || m <= n1 {
            return self.rec_call_overhead + self.t_getf2(m, n);
        }
        let n2 = n - n1;
        self.rec_call_overhead
            + self.t_rgetf2(m, n1)
            + self.t_trsm_left(n1, n2)
            + self.t_gemm(m - n1, n2, n1)
            + self.t_rgetf2(m - n1, n2)
    }

    /// Time for LU with no pivoting on an `m x n` panel (CALU's second
    /// pass over the panel). Modeled as `getf2` minus the pivot scans when
    /// unblocked is used; CALU in practice uses the blocked/`trsm` form,
    /// so we charge the BLAS-3 friendly decomposition.
    pub fn t_lu_nopiv(&self, m: usize, n: usize) -> f64 {
        // L21 = A21 U11^{-1} via right trsm + small in-place LU of the top
        // n x n block (BLAS-2, low order).
        self.t_getf2(n, n) + self.t_trsm_right(m.saturating_sub(n), n)
    }

    /// Memory time to swap `nswaps` rows of width `cols` locally (BLAS-1
    /// class traffic).
    pub fn t_laswp(&self, nswaps: usize, cols: usize) -> f64 {
        (nswaps * cols) as f64 * self.gamma1
    }
}

/// Flop count for `gemm` (multiply-adds counted as 2).
pub fn flops_gemm(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Flop count for a left triangular solve (`t x t` triangle, `n` RHS).
pub fn flops_trsm_left(t: usize, n: usize) -> f64 {
    t as f64 * t as f64 * n as f64
}

/// Flop count for a right triangular solve (`m` rows, `t x t` triangle).
pub fn flops_trsm_right(m: usize, t: usize) -> f64 {
    m as f64 * t as f64 * t as f64
}

/// Flop count for a rank-1 update.
pub fn flops_ger(m: usize, n: usize) -> f64 {
    2.0 * m as f64 * n as f64
}

/// Flop count for LU of an `m x n` panel (`getf2`-style, multiply+add), the
/// standard `mn² − n³/3` pairs doubled.
pub fn flops_getf2(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    if m >= n {
        m * n * n - n * n * n / 3.0
    } else {
        // For wide inputs integrate only the m elimination steps.
        n * m * m - m * m * m / 3.0
    }
}

/// Total flop count for LU of an `m x n` matrix, the familiar
/// `mn² − n³/3` multiply-add pairs (×2 flops each) at leading order — the
/// paper's `(mn² − n³/3)/P` per-processor term uses the same count.
pub fn flops_lu(m: usize, n: usize) -> f64 {
    flops_getf2(m, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_alpha_plus_beta() {
        let m = MachineConfig::power5();
        let t = m.t_msg(1000, Link::Col);
        assert!((t - (4.5e-6 + 1000.0 * 8.0 / 3.1e9)).abs() < 1e-15);
    }

    #[test]
    fn eff3_monotone_in_dimension() {
        let m = MachineConfig::power5();
        assert!(m.eff3(4) < m.eff3(50));
        assert!(m.eff3(50) < m.eff3(500));
        assert!(m.eff3(100000) < 1.0 + 1e-12);
    }

    #[test]
    fn gemm_time_scales_with_work() {
        let m = MachineConfig::xt4();
        let t1 = m.t_gemm(100, 100, 100);
        let t2 = m.t_gemm(200, 100, 100);
        assert!(t2 > 1.9 * t1 && t2 < 2.1 * t1);
    }

    #[test]
    fn rgetf2_beats_getf2_on_large_panels_only() {
        // The crossover the paper reports: classic wins on small panels,
        // recursive wins on large ones (Tables 3-4).
        let m = MachineConfig::xt4();
        let small_cl = m.t_getf2(250, 50);
        let small_rec = m.t_rgetf2(250, 50);
        let large_cl = m.t_getf2(250_000, 150);
        let large_rec = m.t_rgetf2(250_000, 150);
        assert!(
            large_rec < 0.5 * large_cl,
            "recursive must win big on tall panels: {large_rec} vs {large_cl}"
        );
        // On tiny panels the recursion overhead makes classic competitive
        // (the XT4 columns of Table 4 even show Cl ahead for m = 10^3).
        assert!(small_rec > 0.8 * small_cl, "tiny panels: {small_rec} vs {small_cl}");
    }

    #[test]
    fn ideal_machine_times_are_flop_counts() {
        let m = MachineConfig::ideal();
        let t = m.t_gemm(10, 10, 10);
        assert!((t - 2000.0e-9).abs() < 1e-18);
        assert_eq!(m.t_msg(100, Link::Row), 0.0);
    }

    #[test]
    fn flop_counts_match_closed_forms() {
        assert_eq!(flops_gemm(2, 3, 4), 48.0);
        assert_eq!(flops_ger(5, 6), 60.0);
        // Square LU: 2n^3/3 at leading order.
        let n = 100.0;
        let f = flops_lu(100, 100);
        assert!((f - (n * n * n - n * n * n / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn presets_are_distinct_and_sane() {
        let p = MachineConfig::power5();
        let x = MachineConfig::xt4();
        assert!(p.peak_flops() > 1e9 && x.peak_flops() > 1e9);
        assert!(x.alpha_col > p.alpha_col, "XT4 has higher MPI latency");
        assert!(x.beta_col > p.beta_col, "XT4 has lower bandwidth in our calibration");
        assert!(p.gamma2 > p.gamma3, "BLAS-2 must be slower than BLAS-3");
        assert!(p.gamma2 > p.gamma2_cache, "streaming BLAS-2 slower than in-cache");
    }

    #[test]
    fn modern_cluster_is_more_latency_skewed_than_power5() {
        // flops-per-message-latency: how many flops fit in one alpha.
        let p5 = MachineConfig::power5();
        let mc = MachineConfig::modern_cluster();
        let skew = |m: &MachineConfig| m.alpha_col / m.gamma3;
        assert!(
            skew(&mc) > 10.0 * skew(&p5),
            "a modern machine wastes far more flops per message: {} vs {}",
            skew(&mc),
            skew(&p5)
        );
    }

    #[test]
    fn blas2_rate_switches_at_cache_boundary() {
        let p = MachineConfig::power5();
        // Tiny block: in cache, fast rate; huge block: streaming rate.
        assert_eq!(p.gamma2_for(100, 100), p.gamma2_cache);
        assert_eq!(p.gamma2_for(100_000, 150), p.gamma2);
        // Per-flop time reflects it.
        let t_small = p.t_ger(100, 100) / flops_ger(100, 100);
        let t_big = p.t_ger(100_000, 150) / flops_ger(100_000, 150);
        assert!(t_big > 2.0 * t_small);
    }
}
