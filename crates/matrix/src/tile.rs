//! Block geometry: [`TileLayout`], the `b x b` block map and the
//! block-cyclic ownership map, and [`TileMatrix`], a tile-major copy of a
//! matrix.
//!
//! The paper organizes both computation and data movement around `b x b`
//! blocks. With an optional `(Pr, Pc)` grid attached, [`TileLayout`]
//! answers every owner / local-index / local-count question the
//! distributed layer asks (the math of `NUMROC` and friends); a rank stores
//! its share as ScaLAPACK does, one flat column-major local matrix
//! (`calu_core::dist::scatter_2d`). `TileMatrix` stores each tile
//! contiguously; nothing factors in it any more (the shared-memory runtime
//! and the distributed ranks both factor flat matrices), and it is kept as
//! a conversion (`from_matrix` / `to_matrix`) whose speed the benchmark
//! probes.
//!
//! Storage order: tiles are laid out column-major *by tile* (tile column
//! `tj` before `tj+1`, and within a tile column, tile row `ti` before
//! `ti+1`), and each tile is column-major inside with leading dimension
//! equal to its own height. Edge tiles are ragged when the matrix
//! dimensions are not multiples of the tile dimensions; the closed-form
//! offset arithmetic in `TileLayout::tile_offset` stays exact because
//! only the *last* tile row/column can be short.

use crate::scalar::Scalar;
use crate::Matrix;
use std::ops::Index;

/// Tile geometry of an `rows x cols` matrix cut into `mb x nb` tiles,
/// plus an optional block-cyclic `(Pr, Pc)` ownership map.
///
/// The layout is pure arithmetic (`Copy`, no allocation): every query —
/// tile counts, ragged edge shapes, contiguous storage offsets, owners,
/// local indices — is a closed form, so it can be shared freely between
/// the tile container and the distributed layer's per-rank state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLayout {
    rows: usize,
    cols: usize,
    mb: usize,
    nb: usize,
    grid: Option<(usize, usize)>,
}

impl TileLayout {
    /// Layout of an `rows x cols` matrix in `mb x nb` tiles (no ownership
    /// map; attach one with [`Self::with_grid`]).
    ///
    /// # Panics
    /// If either tile dimension is zero.
    pub fn new(rows: usize, cols: usize, mb: usize, nb: usize) -> Self {
        assert!(mb > 0 && nb > 0, "tile dimensions must be positive");
        Self { rows, cols, mb, nb, grid: None }
    }

    /// Attaches a block-cyclic `Pr x Pc` process grid: tile `(ti, tj)` is
    /// owned by process `(ti mod Pr, tj mod Pc)` — the ScaLAPACK deal.
    ///
    /// # Panics
    /// If either grid dimension is zero.
    pub fn with_grid(self, pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0, "grid dimensions must be positive");
        Self { grid: Some((pr, pc)), ..self }
    }

    /// Matrix rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile height `mb` (all tile rows but possibly the last).
    #[inline(always)]
    pub fn mb(&self) -> usize {
        self.mb
    }

    /// Tile width `nb` (all tile columns but possibly the last).
    #[inline(always)]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// The attached `(Pr, Pc)` process grid, if any.
    #[inline(always)]
    pub fn grid(&self) -> Option<(usize, usize)> {
        self.grid
    }

    /// Number of tile rows, `ceil(rows / mb)`.
    #[inline(always)]
    pub fn tile_rows(&self) -> usize {
        self.rows.div_ceil(self.mb)
    }

    /// Number of tile columns, `ceil(cols / nb)`.
    #[inline(always)]
    pub fn tile_cols(&self) -> usize {
        self.cols.div_ceil(self.nb)
    }

    /// Height of tile row `ti` (`mb`, except a ragged last row).
    #[inline(always)]
    pub fn tile_height(&self, ti: usize) -> usize {
        debug_assert!(ti < self.tile_rows());
        self.mb.min(self.rows - ti * self.mb)
    }

    /// Width of tile column `tj` (`nb`, except a ragged last column).
    #[inline(always)]
    pub(crate) fn tile_width(&self, tj: usize) -> usize {
        debug_assert!(tj < self.tile_cols());
        self.nb.min(self.cols - tj * self.nb)
    }

    /// Offset of tile `(ti, tj)` in the contiguous tile-major buffer.
    ///
    /// Tile columns are stored left to right; within one, tiles top to
    /// bottom. Every tile column before `tj` is full width and holds all
    /// `rows` rows, and every tile above `(ti, tj)` is full height, so
    /// the offset is closed-form.
    #[inline(always)]
    pub(crate) fn tile_offset(&self, ti: usize, tj: usize) -> usize {
        debug_assert!(ti < self.tile_rows() && tj < self.tile_cols());
        self.rows * (tj * self.nb) + self.tile_width(tj) * (ti * self.mb)
    }

    /// Flat-buffer index of element `(i, j)` under the tile-major order.
    #[inline(always)]
    pub(crate) fn elem_offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < self.rows && j < self.cols,
            "({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        let (ti, tj) = (i / self.mb, j / self.nb);
        self.tile_offset(ti, tj) + (j % self.nb) * self.tile_height(ti) + i % self.mb
    }

    // --- Block-cyclic ownership map (requires an attached grid). -------

    #[inline(always)]
    fn pr(&self) -> usize {
        self.grid.expect("layout has no process grid").0
    }

    #[inline(always)]
    fn pc(&self) -> usize {
        self.grid.expect("layout has no process grid").1
    }

    /// Owning process rank of tile `(ti, tj)`, column-major rank order
    /// (`rank = pcol * Pr + prow`, BLACS "C" order — matching
    /// `calu-netsim`'s `Grid::rank_of`).
    ///
    /// # Panics
    /// If no grid is attached.
    #[inline]
    pub fn owner(&self, ti: usize, tj: usize) -> usize {
        let (prow, pcol) = self.owner_coords(ti, tj);
        pcol * self.pr() + prow
    }

    /// Owning `(prow, pcol)` grid coordinates of tile `(ti, tj)`.
    ///
    /// # Panics
    /// If no grid is attached.
    #[inline]
    pub(crate) fn owner_coords(&self, ti: usize, tj: usize) -> (usize, usize) {
        (ti % self.pr(), tj % self.pc())
    }

    /// Process row owning global row `i` (`(i / mb) mod Pr`).
    #[inline]
    pub fn row_owner(&self, i: usize) -> usize {
        (i / self.mb) % self.pr()
    }

    /// Process column owning global column `j`.
    #[inline]
    pub fn col_owner(&self, j: usize) -> usize {
        (j / self.nb) % self.pc()
    }

    /// Local row index of global row `i` on its owning process row.
    #[inline]
    pub fn local_row(&self, i: usize) -> usize {
        ((i / self.mb) / self.pr()) * self.mb + i % self.mb
    }

    /// Local column index of global column `j` on its owning process
    /// column.
    #[inline]
    pub fn local_col(&self, j: usize) -> usize {
        ((j / self.nb) / self.pc()) * self.nb + j % self.nb
    }

    /// Global row index of local row `li` on process row `prow`.
    #[inline]
    pub fn global_row(&self, prow: usize, li: usize) -> usize {
        ((li / self.mb) * self.pr() + prow) * self.mb + li % self.mb
    }

    /// Global column index of local column `lj` on process column `pcol`.
    #[inline]
    pub fn global_col(&self, pcol: usize, lj: usize) -> usize {
        ((lj / self.nb) * self.pc() + pcol) * self.nb + lj % self.nb
    }

    /// Number of rows owned by process row `prow` (ScaLAPACK `NUMROC`
    /// over the row dimension).
    #[inline]
    pub fn local_rows(&self, prow: usize) -> usize {
        cyclic_count(self.rows, self.mb, prow, self.pr())
    }

    /// Number of columns owned by process column `pcol`.
    #[inline]
    pub fn local_cols(&self, pcol: usize) -> usize {
        cyclic_count(self.cols, self.nb, pcol, self.pc())
    }

    /// Number of rows with global index `< hi` owned by `prow` —
    /// equivalently, the local index of the first owned row with global
    /// index `>= hi`.
    #[inline]
    pub fn local_rows_below(&self, prow: usize, hi: usize) -> usize {
        cyclic_count(hi, self.mb, prow, self.pr())
    }

    /// Number of columns with global index `< hi` owned by `pcol`.
    #[inline]
    pub fn local_cols_below(&self, pcol: usize, hi: usize) -> usize {
        cyclic_count(hi, self.nb, pcol, self.pc())
    }
}

/// ScaLAPACK `NUMROC`: how many of `n` items, dealt in blocks of `b`
/// round-robin over `p` processes starting at process 0, land on
/// process `iproc`.
#[inline]
fn cyclic_count(n: usize, b: usize, iproc: usize, p: usize) -> usize {
    debug_assert!(iproc < p);
    let nblocks = n / b;
    let mut num = (nblocks / p) * b;
    let extra = nblocks % p;
    if iproc < extra {
        num += b;
    } else if iproc == extra {
        num += n % b;
    }
    num
}

/// Owned tile-major matrix: the tiles of a [`TileLayout`], each stored
/// contiguously (column-major inside the tile, tiles in tile-column-major
/// order) — the conversion `runtime_calu_tiles_factor` and the benchmark's
/// conversion probe use.
#[derive(Clone, PartialEq)]
pub struct TileMatrix<T = f64> {
    layout: TileLayout,
    data: Vec<T>,
}

impl<T: Scalar> TileMatrix<T> {
    /// Converts a flat column-major [`Matrix`] into `mb x nb` tiles
    /// (lossless; [`Self::to_matrix`] inverts it exactly).
    pub fn from_matrix(a: &Matrix<T>, mb: usize, nb: usize) -> Self {
        let layout = TileLayout::new(a.rows(), a.cols(), mb, nb);
        let mut data = Vec::with_capacity(a.rows() * a.cols());
        for tj in 0..layout.tile_cols() {
            for ti in 0..layout.tile_rows() {
                let (i0, h) = (ti * mb, layout.tile_height(ti));
                for j in tj * nb..tj * nb + layout.tile_width(tj) {
                    data.extend_from_slice(&a.col(j)[i0..i0 + h]);
                }
            }
        }
        Self { layout, data }
    }

    /// Converts back to a flat column-major [`Matrix`] (the exact inverse
    /// of [`Self::from_matrix`]).
    pub fn to_matrix(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        let lay = self.layout;
        for tj in 0..lay.tile_cols() {
            for ti in 0..lay.tile_rows() {
                let (i0, h, off) = (ti * lay.mb(), lay.tile_height(ti), lay.tile_offset(ti, tj));
                for c in 0..lay.tile_width(tj) {
                    let src = &self.data[off + c * h..][..h];
                    m.col_mut(tj * lay.nb() + c)[i0..i0 + h].copy_from_slice(src);
                }
            }
        }
        m
    }

    /// The layout (geometry + optional ownership map).
    #[inline(always)]
    pub fn layout(&self) -> TileLayout {
        self.layout
    }

    /// Matrix rows.
    #[inline(always)]
    pub(crate) fn rows(&self) -> usize {
        self.layout.rows()
    }

    /// Matrix columns.
    #[inline(always)]
    pub(crate) fn cols(&self) -> usize {
        self.layout.cols()
    }
}

impl<T: Scalar> Index<(usize, usize)> for TileMatrix<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[self.layout.elem_offset(i, j)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| (i * 1000 + j) as f64)
    }

    #[test]
    fn round_trip_square_and_ragged() {
        for &(m, n, mb, nb) in &[
            (8usize, 8usize, 4usize, 4usize),
            (10, 7, 4, 3),
            (7, 10, 3, 4),
            (5, 5, 8, 8), // single tile bigger than the matrix
            (1, 9, 2, 2),
            (9, 1, 2, 2),
        ] {
            let a = numbered(m, n);
            let t = TileMatrix::from_matrix(&a, mb, nb);
            assert_eq!(t.to_matrix(), a, "{m}x{n} tiles {mb}x{nb}");
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(t[(i, j)], a[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn tiles_are_contiguous_and_ragged_edges_shaped() {
        let a = numbered(10, 7);
        let t = TileMatrix::from_matrix(&a, 4, 3);
        let layout = t.layout();
        assert_eq!((layout.tile_rows(), layout.tile_cols()), (3, 3));
        assert_eq!(layout.tile_height(2), 2, "ragged bottom tile row");
        assert_eq!(layout.tile_width(2), 1, "ragged right tile column");
        // Tile (1,1) covers global (4..8, 3..6), column-major at its offset.
        let off = layout.tile_offset(1, 1);
        assert_eq!((t.data[off], t.data[off + 2 * 4 + 3]), (a[(4, 3)], a[(7, 5)]));
        // The last tile ends the buffer.
        assert_eq!(layout.tile_offset(2, 2) + 2, t.data.len());
    }

    #[test]
    fn block_cyclic_map_matches_explicit_dealing() {
        let layout = TileLayout::new(53, 37, 4, 3).with_grid(3, 2);
        let (pr, pc) = (3, 2);
        // Owner + local index agree with dealing tiles round-robin.
        let mut counts = vec![0usize; pr];
        for i in 0..53 {
            let owner = (i / 4) % pr;
            assert_eq!(layout.row_owner(i), owner);
            assert_eq!(layout.global_row(owner, layout.local_row(i)), i);
            counts[owner] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert_eq!(layout.local_rows(p), c, "row NUMROC proc {p}");
        }
        for j in 0..37 {
            let owner = (j / 3) % pc;
            assert_eq!(layout.col_owner(j), owner);
            assert_eq!(layout.global_col(owner, layout.local_col(j)), j);
        }
        // local_rows_below counts exactly the owned rows below the bound.
        for hi in [0usize, 1, 4, 11, 12, 52, 53] {
            for p in 0..pr {
                let explicit = (0..hi).filter(|&i| layout.row_owner(i) == p).count();
                assert_eq!(layout.local_rows_below(p, hi), explicit, "hi={hi} p={p}");
            }
        }
        // Ranks are BLACS column-major.
        assert_eq!(layout.owner(0, 0), 0);
        assert_eq!(layout.owner(1, 0), 1);
        assert_eq!(layout.owner(0, 1), pr);
        assert_eq!(layout.owner_coords(4, 3), (1, 1));
    }

    #[test]
    fn empty_dimensions_are_legal() {
        for (m, n) in [(0, 5), (5, 0)] {
            let t = TileMatrix::from_matrix(&Matrix::<f64>::zeros(m, n), 4, 4);
            assert_eq!(t.data.len(), 0);
            assert_eq!((t.to_matrix().rows(), t.to_matrix().cols()), (m, n));
        }
    }
}
