//! The shape of one TSLU panel: which rows each tournament leaf elects
//! over, in which order candidate sets are combined, which row chunks `L₂₁`
//! is formed in, and which row chunks of it the trailing update reads.
//!
//! A panel is factored by one task subgraph — [`Task::PanelElect`] per leaf,
//! [`Task::PanelReduce`] per tournament match, one [`Task::PanelFinish`],
//! [`Task::PanelApply`] per row chunk — and the rows below its top block are
//! then read by [`Task::Gemm`], one per update chunk and trailing block
//! column. Everything about that geometry comes from a [`PanelPlan`]: the DAG
//! builder reads it for edge endpoints, the algorithm layer's task bodies
//! read it for row ranges, the cost model for task heights, the sequential
//! sweep walks it in order. The plan is a pure function of
//! `(panel rows, jb, nb, p, mode)` — never of the worker count — so pivots
//! and factors do not depend on where or how wide a factorization runs.
//!
//! [`Task::PanelElect`]: crate::Task::PanelElect
//! [`Task::PanelReduce`]: crate::Task::PanelReduce
//! [`Task::PanelFinish`]: crate::Task::PanelFinish
//! [`Task::PanelApply`]: crate::Task::PanelApply
//! [`Task::Gemm`]: crate::Task::Gemm

use calu_netsim::collectives::prev_pow2;
use std::ops::Range;

/// Tournament height the shape-only builders ([`LuDag::build`],
/// [`LuDag::build_with`]) assume, and `calu-core`'s default `CaluOpts::p`.
///
/// [`LuDag::build`]: crate::LuDag::build
/// [`LuDag::build_with`]: crate::LuDag::build_with
pub const DEFAULT_TOURNAMENT_LEAVES: usize = 4;

/// Rows of `L₂₁` one [`Task::PanelApply`](crate::Task::PanelApply) forms
/// (rounded down to whole tiles, at least one). Per-tile applies cost several
/// times their serial busy time under the threaded executor — neighbouring
/// tiles share cache lines and a tall flat panel aliases a tile's columns to
/// one cache set — so an apply task is a run of tiles.
const APPLY_CHUNK_ROWS: usize = 4096;

/// Rows of the trailing matrix one [`Task::Gemm`](crate::Task::Gemm) updates
/// in one block column (rounded up to whole tiles). A `gemm` call packs its
/// `L₂₁` rows and the whole `nb × nb` block of `U₁₂`, and on a flat matrix
/// touches `C` as `nb` column stubs a leading dimension apart; per-tile
/// tasks pay that once per 64 rows. Swept single-threaded over the 23
/// trailing updates of a 1536² factorization at `nb = 64`, 64-row tasks take
/// 1.4–1.5× the time of whole-column updates and 256-row tasks 1.2×; end to
/// end 128 rows read slower and 512 or 1024 rows no faster than 256, which
/// keeps several tasks per block column until the last few steps
/// (EXPERIMENTS.md "Trailing update"). A constant, not a function of the
/// worker count: the DAG, and with it the schedule the serial executor
/// replays, depends on the shape alone.
const UPDATE_CHUNK_ROWS: usize = 256;

/// Which rows a panel's tournament leaves cover.
///
/// Both modes run the same task subgraph with the same kernels and the same
/// combination tree; they differ in the leaves only, so they elect different
/// (equally valid) pivots. Either is bitwise reproducible across executors,
/// lookahead depths, storage layouts and runs, and equal to the sequential
/// sweep given the same mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PanelMode {
    /// `p` nearly equal block rows ([`partition_rows`]) — the paper's TSLU.
    #[default]
    Gathered,
    /// One leaf per tile row of the panel (`p` is ignored).
    Resident,
}

/// Splits `m` rows into at most `p` non-empty, nearly equal, contiguous
/// chunks — the paper's block-row partition of the panel.
///
/// # Panics
/// If `m == 0` or `p == 0`.
pub fn partition_rows(m: usize, p: usize) -> Vec<Range<usize>> {
    assert!(m > 0 && p > 0);
    let p = p.min(m);
    let base = m / p;
    let extra = m % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, m);
    out
}

/// One match of the tournament: the candidate set in slot `hi` is folded
/// into the one in slot `lo` (`lo < hi`; ties resolve toward `lo`), and the
/// winners stay in slot `lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeMatch {
    /// Round of the tournament (`≥ 1`); matches of one round are independent.
    pub(crate) round: usize,
    /// Slot holding the lower-indexed candidate set, and the result.
    pub lo: usize,
    /// Slot holding the higher-indexed candidate set; consumed.
    pub hi: usize,
}

/// The tournament's combination tree over `leaves` candidate sets, slot `i`
/// starting as leaf `i`: the butterfly all-reduce's shape — leaves beyond
/// the largest power of two fold into the first ones, then pairwise halving
/// — listed so that every match's operands are produced by earlier entries.
/// Slot 0 ends up holding the winners. `leaves − 1` matches in
/// `⌈log₂ leaves⌉` rounds.
///
/// This is the only definition of the tree: the sequential tournament, the
/// DAG builder's reduce edges and the task bodies' slot store all walk it.
///
/// # Panics
/// If `leaves == 0`.
pub fn tournament_tree(leaves: usize) -> Vec<TreeMatch> {
    assert!(leaves > 0, "tournament needs at least one candidate set");
    let p2 = prev_pow2(leaves);
    let mut matches = Vec::with_capacity(leaves - 1);
    let mut round = 0;
    if leaves > p2 {
        round = 1;
        matches.extend((0..leaves - p2).map(|i| TreeMatch { round, lo: i, hi: p2 + i }));
    }
    let mut stride = 1;
    while stride < p2 {
        round += 1;
        matches.extend((0..p2).step_by(2 * stride).map(|lo| TreeMatch {
            round,
            lo,
            hi: lo + stride,
        }));
        stride *= 2;
    }
    matches
}

/// Leaf and chunk boundaries of one panel, in panel-local rows (row 0 is
/// the panel's first row, on the diagonal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelPlan {
    rows: usize,
    jb: usize,
    leaves: Vec<Range<usize>>,
    chunk_rows: usize,
    update_rows: usize,
}

impl PanelPlan {
    /// Plans a panel of `rows × jb` inside a factorization with tile height
    /// `nb`, for a tournament over `p` block rows (`mode` says whether `p`
    /// or the tile grid cuts the leaves).
    ///
    /// # Panics
    /// If any of `rows`, `jb`, `nb`, `p` is zero or `jb > rows`.
    pub fn new(rows: usize, jb: usize, nb: usize, p: usize, mode: PanelMode) -> Self {
        assert!(jb > 0 && nb > 0 && p > 0, "panel width, tile height and p must be positive");
        assert!(jb <= rows, "a panel is at least as tall as it is wide");
        let leaves = match mode {
            PanelMode::Gathered => partition_rows(rows, p),
            PanelMode::Resident => (0..rows).step_by(nb).map(|r| r..rows.min(r + nb)).collect(),
        };
        Self {
            rows,
            jb,
            leaves,
            chunk_rows: (APPLY_CHUNK_ROWS / nb).max(1) * nb,
            update_rows: UPDATE_CHUNK_ROWS.div_ceil(nb) * nb,
        }
    }

    /// Panel height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Panel width; the top `jb × jb` block is the finish task's.
    pub fn jb(&self) -> usize {
        self.jb
    }

    /// Row range of each tournament leaf; together they cover `0..rows`.
    pub fn leaves(&self) -> &[Range<usize>] {
        &self.leaves
    }

    /// The combination tree over this panel's leaves.
    pub fn tree(&self) -> Vec<TreeMatch> {
        tournament_tree(self.leaves.len())
    }

    /// Row range of each apply chunk; together they cover `jb..rows`. When
    /// `jb == nb` every boundary is a tile boundary.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
        (0..(self.rows - self.jb).div_ceil(self.chunk_rows)).map(|c| self.chunk(c))
    }

    /// Row range of apply chunk `c`.
    pub fn chunk(&self, c: usize) -> Range<usize> {
        let start = self.jb + c * self.chunk_rows;
        debug_assert!(start < self.rows, "chunk {c} out of range");
        start..self.rows.min(start + self.chunk_rows)
    }

    /// The apply chunk forming row `row` of `L₂₁` (`row ≥ jb`).
    pub(crate) fn chunk_of(&self, row: usize) -> usize {
        debug_assert!((self.jb..self.rows).contains(&row));
        (row - self.jb) / self.chunk_rows
    }

    /// Number of update chunks: the rows `jb..rows` below the top block —
    /// the rows of `L₂₁`, and of the trailing matrix it updates — in runs of
    /// whole tiles of about 256 rows.
    pub fn update_chunks(&self) -> usize {
        (self.rows - self.jb).div_ceil(self.update_rows)
    }

    /// Row range of update chunk `i` — what the `i` of a
    /// [`Task::Gemm`](crate::Task::Gemm) refers to. When `jb == nb` (always,
    /// when a step has a trailing matrix) every boundary is a tile boundary.
    pub fn update_chunk(&self, i: usize) -> Range<usize> {
        let start = self.jb + i * self.update_rows;
        debug_assert!(start < self.rows, "update chunk {i} out of range");
        start..self.rows.min(start + self.update_rows)
    }

    /// The update chunks whose rows meet `rows` (non-empty, inside
    /// `jb..rows`).
    pub(crate) fn update_chunks_of(&self, rows: Range<usize>) -> Range<usize> {
        debug_assert!(self.jb <= rows.start && rows.start < rows.end && rows.end <= self.rows);
        (rows.start - self.jb) / self.update_rows..(rows.end - 1 - self.jb) / self.update_rows + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_rows_covers_everything() {
        for &(m, p) in &[(16, 4), (17, 4), (5, 8), (1, 1), (100, 7)] {
            let parts = partition_rows(m, p);
            assert!(parts.len() <= p);
            assert!(parts.iter().all(|r| !r.is_empty()));
            assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), m);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn tree_is_the_butterfly_fold_in_then_halving() {
        assert!(tournament_tree(1).is_empty());
        let m = |round, lo, hi| TreeMatch { round, lo, hi };
        assert_eq!(tournament_tree(4), vec![m(1, 0, 1), m(1, 2, 3), m(2, 0, 2)]);
        // Five leaves: leaf 4 folds into slot 0 first, then 4 halve.
        assert_eq!(tournament_tree(5), vec![m(1, 0, 4), m(2, 0, 1), m(2, 2, 3), m(3, 0, 2)]);
        for leaves in 1..70 {
            let tree = tournament_tree(leaves);
            assert_eq!(tree.len(), leaves - 1);
            // Every slot but 0 is consumed exactly once, after its last write.
            let mut live = vec![true; leaves];
            for t in &tree {
                assert!(t.lo < t.hi && live[t.lo] && live[t.hi], "{leaves}: {t:?}");
                live[t.hi] = false;
            }
            assert_eq!(live.iter().filter(|&&l| l).count(), 1);
            assert!(live[0]);
            let rounds = tree.last().map_or(0, |t| t.round);
            assert_eq!(rounds, leaves.next_power_of_two().trailing_zeros() as usize);
        }
    }

    #[test]
    fn plan_covers_the_panel_once() {
        for mode in [PanelMode::Gathered, PanelMode::Resident] {
            for &(rows, jb, nb, p) in &[
                (65536, 64, 64, 4),
                (100, 16, 16, 3),
                (68, 8, 16, 4),
                (16, 16, 16, 4),
                (9000, 32, 32, 5),
            ] {
                let plan = PanelPlan::new(rows, jb, nb, p, mode);
                let mut at = 0;
                for leaf in plan.leaves() {
                    assert_eq!(leaf.start, at);
                    assert!(!leaf.is_empty());
                    at = leaf.end;
                }
                assert_eq!(at, rows);
                let mut at = jb;
                for (c, chunk) in plan.chunks().enumerate() {
                    assert_eq!(chunk.start, at);
                    assert!(!chunk.is_empty());
                    assert_eq!(plan.chunk_of(chunk.start), c);
                    assert_eq!(plan.chunk_of(chunk.end - 1), c);
                    if jb == nb {
                        assert_eq!(chunk.start % nb, 0, "chunks are runs of whole tiles");
                    }
                    at = chunk.end;
                }
                assert_eq!(at, rows);
                let mut at = jb;
                for i in 0..plan.update_chunks() {
                    let chunk = plan.update_chunk(i);
                    assert_eq!(chunk.start, at);
                    assert!(!chunk.is_empty());
                    assert_eq!(plan.update_chunks_of(chunk.clone()), i..i + 1);
                    if jb == nb {
                        assert_eq!(chunk.start % nb, 0, "update chunks are runs of whole tiles");
                    }
                    at = chunk.end;
                }
                assert_eq!(at, rows);
                if rows > jb {
                    assert_eq!(plan.update_chunks_of(jb..rows), 0..plan.update_chunks());
                }
            }
        }
    }

    #[test]
    fn update_chunks_are_whole_tiles_of_at_least_256_rows() {
        // (nb, tiles per chunk): 256 rows rounded up to whole tiles.
        for (nb, tiles) in [(8, 32), (16, 16), (40, 7), (64, 4), (100, 3), (256, 1), (300, 1)] {
            let plan = PanelPlan::new(10 * tiles * nb + nb + 5, nb, nb, 4, PanelMode::Gathered);
            assert_eq!(plan.update_chunk(0), nb..nb + tiles * nb, "nb={nb}");
            assert_eq!(plan.update_chunks(), 11, "ten whole chunks and five ragged rows");
            assert_eq!(plan.update_chunk(10).len(), 5);
            // A range across a boundary meets both neighbours.
            let cut = nb + 3 * tiles * nb;
            assert_eq!(plan.update_chunks_of(cut - 1..cut + 1), 2..4);
        }
        // No rows below the top block, no update.
        assert_eq!(PanelPlan::new(16, 16, 16, 4, PanelMode::Gathered).update_chunks(), 0);
    }

    #[test]
    fn tall_panel_plan_is_four_leaves_and_sixteen_chunks() {
        let plan = PanelPlan::new(65536, 64, 64, 4, PanelMode::Gathered);
        assert_eq!(plan.leaves().len(), 4);
        assert_eq!(plan.tree().len(), 3);
        assert_eq!(plan.chunks().len(), 16);
        let resident = PanelPlan::new(65536, 64, 64, 4, PanelMode::Resident);
        assert_eq!(resident.leaves().len(), 1024);
        assert_eq!(resident.chunks().len(), 16);
    }
}
