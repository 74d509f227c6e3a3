//! The tournament (ca-pivoting) reduction operator.
//!
//! Tournament pivoting elects `b` pivot rows for a panel in a reduction
//! tree: the leaves are each block-row's `b` local GEPP pivot rows; each
//! internal node stacks two candidate sets (`2b x b`), runs GEPP on the
//! stack, and keeps the `b` winning *original* rows (values as they appear
//! in `A`, not the factored junk) together with their global indices —
//! exactly the operation the paper describes in Section 2 and Figure 1.
//!
//! [`Candidates`] is that message: it serializes to a flat `Vec<f64>` so
//! the same operator runs inside the netsim butterfly all-reduce.

use crate::tslu::{local_candidates, LocalLu};
use calu_matrix::lapack::getf2_info;
use calu_matrix::perm::apply_ipiv;
use calu_matrix::{Matrix, NoObs, Scalar};
use calu_runtime::tournament_tree;

/// A set of candidate pivot rows: the row values (as in the original
/// matrix) and their global row indices, in pivot-preference order.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidates<T = f64> {
    /// `k x b` block of candidate rows (`k <= b` — fewer when a block-row
    /// owns fewer than `b` rows).
    pub block: Matrix<T>,
    /// Global row index of each candidate row.
    pub rows: Vec<usize>,
}

impl<T: Scalar> Candidates<T> {
    /// Builds a candidate set; `rows.len()` must equal `block.rows()`.
    pub fn new(block: Matrix<T>, rows: Vec<usize>) -> Self {
        assert_eq!(block.rows(), rows.len(), "one index per candidate row");
        Self { block, rows }
    }

    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Panel width `b`.
    pub fn width(&self) -> usize {
        self.block.cols()
    }

    /// Extracts the `<= b` best candidates from a local block-row by GEPP:
    /// factor a copy, keep the first `min(rows, b)` pivot rows of the
    /// *original* values (paper: "the first b rows of `Π^T_i0 A_i`").
    ///
    /// `global_rows[i]` is the global index of local row `i`.
    ///
    /// A rank-deficient block-row is fine: the elected rows still span its
    /// row space (`getf2`'s pivot order puts the independent rows first),
    /// so the tournament never fails — only the final no-pivot panel
    /// factorization can detect a genuinely singular panel.
    pub fn from_block_row(block: &Matrix<T>, global_rows: &[usize]) -> Self {
        local_candidates(block, global_rows, LocalLu::Classic)
    }

    /// Serializes to a flat payload: `[k, b, rows..., block column-major]`.
    /// Row indices are exact in `f64` up to 2^53, and every `f32` block
    /// value widens to `f64` exactly, so the round trip is lossless at
    /// both precisions (the netsim moves `f64` words regardless of the
    /// compute precision, like an MPI datatype pinned to `MPI_DOUBLE`).
    pub(crate) fn to_payload(&self) -> Vec<f64> {
        let k = self.len();
        let b = self.width();
        let mut v = Vec::with_capacity(2 + k + k * b);
        v.push(k as f64);
        v.push(b as f64);
        v.extend(self.rows.iter().map(|&r| r as f64));
        v.extend(self.block.as_slice().iter().map(|&x| x.to_f64()));
        v
    }

    /// Deserializes a payload produced by [`Candidates::to_payload`].
    ///
    /// # Panics
    /// If the payload is malformed.
    pub(crate) fn from_payload(v: &[f64]) -> Self {
        assert!(v.len() >= 2, "payload too short");
        let k = v[0] as usize;
        let b = v[1] as usize;
        assert_eq!(v.len(), 2 + k + k * b, "payload length mismatch");
        let rows: Vec<usize> = v[2..2 + k].iter().map(|&x| x as usize).collect();
        let block =
            Matrix::from_col_major(k, b, v[2 + k..].iter().map(|&x| T::from_f64(x)).collect());
        Self::new(block, rows)
    }
}

/// One tournament match: stack `lo` over `hi`, GEPP the stack, keep the
/// first `min(b, k_lo + k_hi)` winning original rows.
///
/// The `(lo, hi)` order is significant — ties in the pivot search resolve
/// toward `lo` (LAPACK `iamax` semantics), so every caller must combine in
/// member-index order for run-to-run determinism (the netsim butterfly and
/// the sequential tree both do).
///
/// Never fails: a rank-deficient stack simply elects some dependent rows
/// after the independent ones (see [`Candidates::from_block_row`]).
pub fn reduce_pair<T: Scalar>(lo: &Candidates<T>, hi: &Candidates<T>) -> Candidates<T> {
    let b = lo.width();
    assert_eq!(hi.width(), b, "mismatched panel widths");
    let total = lo.len() + hi.len();
    let keep = total.min(b);

    let mut stacked = Matrix::zeros(total, b);
    for j in 0..b {
        let (dst_lo, dst_hi) = stacked.col_mut(j).split_at_mut(lo.len());
        dst_lo.copy_from_slice(lo.block.col(j));
        dst_hi.copy_from_slice(hi.block.col(j));
    }
    let mut idx: Vec<usize> = lo.rows.iter().chain(hi.rows.iter()).copied().collect();

    let mut work = stacked.clone();
    let mut ipiv = vec![0usize; keep];
    let _info = getf2_info(work.view_mut(), &mut ipiv, &mut NoObs);

    apply_ipiv(stacked.view_mut(), &ipiv);
    for (i, &p) in ipiv.iter().enumerate() {
        idx.swap(i, p);
    }
    let winners = stacked.view().submatrix(0, 0, keep, b).to_matrix();
    idx.truncate(keep);
    Candidates::new(winners, idx)
}

/// Runs the whole tournament sequentially over [`tournament_tree`] — the
/// combination tree of the butterfly all-reduce (fold-in of
/// non-power-of-two extras, then pairwise halving), and the one the task
/// graph's `PanelReduce` tasks are wired from — so sequential, runtime and
/// simulated-distributed TSLU elect identical pivots.
///
/// # Panics
/// If `blocks` is empty.
pub fn tournament<T: Scalar>(blocks: Vec<Candidates<T>>) -> Candidates<T> {
    let mut slots: Vec<Option<Candidates<T>>> = blocks.into_iter().map(Some).collect();
    for m in tournament_tree(slots.len()) {
        let lo = slots[m.lo].take().expect("tree reads each slot after its last write");
        let hi = slots[m.hi].take().expect("tree consumes each slot once");
        slots[m.lo] = Some(reduce_pair(&lo, &hi));
    }
    slots[0].take().expect("slot 0 holds the winners")
}

/// Flat tournament: stack *all* candidate sets at once and elect the
/// winners with a single GEPP — the pivots a gather-to-root scheme would
/// produce. The binary tree and the flat stack may elect different (both
/// valid) pivot sets; the stability ablation
/// (`repro ablation_tree_stability`) compares their threshold
/// and growth statistics, and `dist::skeleton`'s [`TsluTree::Flat`]
/// models the corresponding communication cost.
///
/// [`TsluTree::Flat`]: crate::dist::TsluTree::Flat
///
/// # Panics
/// If `blocks` is empty or widths mismatch.
pub fn tournament_flat<T: Scalar>(blocks: Vec<Candidates<T>>) -> Candidates<T> {
    assert!(!blocks.is_empty(), "tournament needs at least one candidate set");
    let b = blocks[0].width();
    let total: usize = blocks.iter().map(Candidates::len).sum();
    let keep = total.min(b);

    let mut stacked = Matrix::zeros(total, b);
    let mut idx = Vec::with_capacity(total);
    let mut at = 0;
    for blk in &blocks {
        assert_eq!(blk.width(), b, "mismatched panel widths");
        for j in 0..b {
            stacked.col_mut(j)[at..at + blk.len()].copy_from_slice(blk.block.col(j));
        }
        idx.extend_from_slice(&blk.rows);
        at += blk.len();
    }

    let mut work = stacked.clone();
    let mut ipiv = vec![0usize; keep];
    let _info = getf2_info(work.view_mut(), &mut ipiv, &mut NoObs);
    apply_ipiv(stacked.view_mut(), &ipiv);
    for (i, &p) in ipiv.iter().enumerate() {
        idx.swap(i, p);
    }
    let winners = stacked.view().submatrix(0, 0, keep, b).to_matrix();
    idx.truncate(keep);
    Candidates::new(winners, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cands_from(m: &Matrix, rows: std::ops::Range<usize>) -> Candidates {
        let block = m.view().submatrix(rows.start, 0, rows.len(), m.cols()).to_matrix();
        Candidates::from_block_row(&block, &rows.collect::<Vec<_>>())
    }

    #[test]
    fn winners_are_subset_of_inputs() {
        let mut rng = StdRng::seed_from_u64(61);
        let a = gen::randn(&mut rng, 32, 4);
        let c0 = cands_from(&a, 0..16);
        let c1 = cands_from(&a, 16..32);
        let w = reduce_pair(&c0, &c1);
        assert_eq!(w.len(), 4);
        for (k, &r) in w.rows.iter().enumerate() {
            // The winner's values equal the original row r of A.
            for j in 0..4 {
                assert_eq!(w.block[(k, j)], a[(r, j)], "row {r} values must be original");
            }
        }
        // All winner indices distinct.
        let mut sorted = w.rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn first_winner_is_column_max_of_union() {
        // The first pivot of GEPP on the stacked candidates is the largest
        // |entry| in column 0 among all candidates.
        let mut rng = StdRng::seed_from_u64(62);
        let a = gen::randn(&mut rng, 24, 3);
        let c0 = cands_from(&a, 0..12);
        let c1 = cands_from(&a, 12..24);
        let w = reduce_pair(&c0, &c1);
        let best_cand =
            c0.block.col(0).iter().chain(c1.block.col(0)).fold(0.0_f64, |m, &v| m.max(v.abs()));
        assert_eq!(a[(w.rows[0], 0)].abs(), best_cand);
    }

    #[test]
    fn payload_round_trip() {
        let mut rng = StdRng::seed_from_u64(63);
        let a = gen::randn(&mut rng, 10, 5);
        let c = cands_from(&a, 0..10);
        let p = c.to_payload();
        let c2 = Candidates::from_payload(&p);
        assert_eq!(c, c2);
    }

    #[test]
    fn tournament_single_block_is_identity() {
        let mut rng = StdRng::seed_from_u64(64);
        let a = gen::randn(&mut rng, 8, 3);
        let c = cands_from(&a, 0..8);
        let w = tournament(vec![c.clone()]);
        assert_eq!(w, c);
    }

    #[test]
    fn tournament_b1_p_any_equals_partial_pivoting() {
        // For b = 1 the tournament winner is the global column max —
        // ca-pivoting degenerates to partial pivoting (paper Section 2).
        let mut rng = StdRng::seed_from_u64(65);
        let a = gen::randn(&mut rng, 40, 1);
        for p in [2usize, 3, 4, 5, 8] {
            let chunk = 40 / p;
            let blocks: Vec<Candidates> = (0..p)
                .map(|i| {
                    let lo = i * chunk;
                    let hi = if i == p - 1 { 40 } else { lo + chunk };
                    cands_from(&a, lo..hi)
                })
                .collect();
            let w = tournament(blocks);
            let best = calu_matrix::blas1::iamax(a.col(0));
            assert_eq!(w.rows[0], best, "p={p}");
        }
    }

    #[test]
    fn uneven_candidate_sets_are_supported() {
        let mut rng = StdRng::seed_from_u64(66);
        let a = gen::randn(&mut rng, 10, 4);
        // First block-row has only 2 rows (< b).
        let c0 = cands_from(&a, 0..2);
        let c1 = cands_from(&a, 2..10);
        assert_eq!(c0.len(), 2);
        let w = reduce_pair(&c0, &c1);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn flat_and_binary_agree_on_the_first_winner() {
        // Both elect the global column-0 maximum first; later winners may
        // differ (different but equally valid pivot sets).
        let mut rng = StdRng::seed_from_u64(67);
        let a = gen::randn(&mut rng, 48, 6);
        let blocks: Vec<Candidates> =
            (0..4).map(|i| cands_from(&a, i * 12..(i + 1) * 12)).collect();
        let bin = tournament(blocks.clone());
        let flat = tournament_flat(blocks);
        assert_eq!(bin.rows[0], flat.rows[0], "first pivot is the global max either way");
        assert_eq!(flat.len(), 6);
        // Flat winners are original rows too.
        for (k, &r) in flat.rows.iter().enumerate() {
            for j in 0..6 {
                assert_eq!(flat.block[(k, j)], a[(r, j)]);
            }
        }
    }

    #[test]
    fn flat_tournament_single_block_is_identity() {
        let mut rng = StdRng::seed_from_u64(68);
        let a = gen::randn(&mut rng, 9, 3);
        let c = cands_from(&a, 0..9);
        let w = tournament_flat(vec![c.clone()]);
        assert_eq!(w, c);
    }

    #[test]
    fn tournament_and_flat_winners_are_permutation_consistent_subsets() {
        // Both tree shapes must elect b *distinct* candidate rows, each
        // carrying its original values — i.e. the winners extend to a
        // valid row permutation of the panel.
        use calu_matrix::perm::{ipiv_to_perm, is_permutation};
        let mut rng = StdRng::seed_from_u64(601);
        for &(rows, b, chunks) in &[(40usize, 5usize, 4usize), (36, 6, 3), (64, 8, 8)] {
            let a = gen::randn(&mut rng, rows, b);
            let blocks: Vec<Candidates> = (0..chunks)
                .map(|i| cands_from(&a, i * rows / chunks..(i + 1) * rows / chunks))
                .collect();
            for (label, w) in
                [("tree", tournament(blocks.clone())), ("flat", tournament_flat(blocks))]
            {
                assert_eq!(w.len(), b, "{label}");
                // Distinct winners within range...
                let mut seen = vec![false; rows];
                for &r in &w.rows {
                    assert!(r < rows, "{label}: winner {r} out of range");
                    assert!(!seen[r], "{label}: duplicate winner {r}");
                    seen[r] = true;
                }
                // ...whose swap sequence extends to a full permutation.
                let ipiv = crate::tslu::winners_to_ipiv(&w.rows, rows);
                let perm = ipiv_to_perm(&ipiv, rows);
                assert!(is_permutation(&perm), "{label}");
                assert_eq!(&perm[..b], w.rows.as_slice(), "{label}: winners on top");
                // Winner values are original panel rows, not factored junk.
                for (k, &r) in w.rows.iter().enumerate() {
                    for j in 0..b {
                        assert_eq!(w.block[(k, j)], a[(r, j)], "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_pair_is_deterministic_under_fixed_seed() {
        // Same seed -> same candidates -> bitwise identical reduction,
        // across repeated evaluations and clones (the property the
        // butterfly all-reduce relies on when both partners combine
        // redundantly).
        for trial in 0..3 {
            let mk = || {
                let mut rng = StdRng::seed_from_u64(602 + trial);
                let a = gen::randn(&mut rng, 24, 4);
                let c0 = cands_from(&a, 0..12);
                let c1 = cands_from(&a, 12..24);
                reduce_pair(&c0, &c1)
            };
            let w1 = mk();
            let w2 = mk();
            assert_eq!(w1.rows, w2.rows);
            assert_eq!(w1.block.max_abs_diff(&w2.block), 0.0, "bitwise determinism");
            // And the payload round trip preserves it exactly.
            let w3 = Candidates::from_payload(&w1.to_payload());
            assert_eq!(w1, w3);
        }
    }

    #[test]
    fn flat_tournament_handles_singular_stacks() {
        // All-zero middle block: flat election must not fail either.
        let mut rng = StdRng::seed_from_u64(69);
        let mut a = gen::randn(&mut rng, 12, 3);
        for i in 4..8 {
            for j in 0..3 {
                a[(i, j)] = 0.0;
            }
        }
        let blocks: Vec<Candidates> = (0..3).map(|i| cands_from(&a, i * 4..(i + 1) * 4)).collect();
        let w = tournament_flat(blocks);
        assert_eq!(w.len(), 3);
        for &r in &w.rows {
            assert!(!(4..8).contains(&r), "zero rows must not win");
        }
    }
}
