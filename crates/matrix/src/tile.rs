//! Tile-major storage: [`TileLayout`] geometry/ownership maps and the
//! [`TileMatrix`] container backing the block-cyclic distributed layer.
//!
//! The paper organizes both computation and data movement around `b x b`
//! blocks; a tile-major layout is the storage-side half of that bargain.
//! Where [`crate::Matrix`] keeps one flat column-major buffer (so a
//! `Gemm(k,i,j)` task strides across the whole leading dimension `m`),
//! `TileMatrix` stores each `b x b` tile contiguously — a tile *is* a
//! cache-contained unit, and cache misses are memory-hierarchy
//! communication. The same geometry doubles as the ScaLAPACK block-cyclic
//! map: with an optional `(Pr, Pc)` grid attached, [`TileLayout`] answers
//! every owner / local-index / local-count question the distributed layer
//! asks (the math of `NUMROC` and friends), so a rank's local storage is
//! itself a `TileMatrix` of the tiles it owns. (The shared-memory runtime
//! factors flat matrices: with a packed `gemm` and a blocked `trsm`, tiles
//! no longer paid for themselves there.)
//!
//! Storage order: tiles are laid out column-major *by tile* (tile column
//! `tj` before `tj+1`, and within a tile column, tile row `ti` before
//! `ti+1`), and each tile is column-major inside with leading dimension
//! equal to its own height. Edge tiles are ragged when the matrix
//! dimensions are not multiples of the tile dimensions; the closed-form
//! offset arithmetic in [`TileLayout::tile_offset`] stays exact because
//! only the *last* tile row/column can be short.

use crate::scalar::{cast_slice, Scalar};
use crate::view::{MatView, MatViewMut};
use crate::Matrix;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// Tile geometry of an `rows x cols` matrix cut into `mb x nb` tiles,
/// plus an optional block-cyclic `(Pr, Pc)` ownership map.
///
/// The layout is pure arithmetic (`Copy`, no allocation): every query —
/// tile counts, ragged edge shapes, contiguous storage offsets, owners,
/// local indices — is a closed form, so it can be shared freely between
/// the storage container, the runtime's shared cells, and the
/// distributed layer's per-rank state.
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
    pub fn tile_width(&self, tj: usize) -> usize {
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
    pub fn tile_offset(&self, ti: usize, tj: usize) -> usize {
        debug_assert!(ti < self.tile_rows() && tj < self.tile_cols());
        self.rows * (tj * self.nb) + self.tile_width(tj) * (ti * self.mb)
    }

    /// Flat-buffer index of element `(i, j)` under the tile-major order.
    #[inline(always)]
    pub fn elem_offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < self.rows && j < self.cols,
            "({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        let (ti, tj) = (i / self.mb, j / self.nb);
        self.tile_offset(ti, tj) + (j % self.nb) * self.tile_height(ti) + i % self.mb
    }

    /// Splits a global row range into `(tile row, range within tile)`
    /// pieces, in order — the loop shape every cross-tile kernel uses.
    pub fn row_tile_span(&self, r: Range<usize>) -> Vec<(usize, Range<usize>)> {
        self.span_1d(r, self.mb, self.rows)
    }

    /// Splits a global column range into `(tile column, range within
    /// tile)` pieces, in order.
    pub fn col_tile_span(&self, r: Range<usize>) -> Vec<(usize, Range<usize>)> {
        self.span_1d(r, self.nb, self.cols)
    }

    fn span_1d(&self, r: Range<usize>, b: usize, extent: usize) -> Vec<(usize, Range<usize>)> {
        assert!(r.end <= extent, "range {r:?} out of extent {extent}");
        let mut out = Vec::new();
        let mut x = r.start;
        while x < r.end {
            let t = x / b;
            let hi = r.end.min((t + 1) * b);
            out.push((t, x - t * b..hi - t * b));
            x = hi;
        }
        out
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
    pub fn owner_coords(&self, ti: usize, tj: usize) -> (usize, usize) {
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

    /// The layout of process `(prow, pcol)`'s local storage: its owned
    /// rows and columns packed dense, same tile dimensions, no grid.
    /// Local tile `(lti, ltj)` is global tile `(lti·Pr + prow, ltj·Pc +
    /// pcol)`, so the block-cyclic deal *is* a re-indexing of tiles —
    /// scatter and assembly are whole-tile copies.
    pub fn local_layout(&self, prow: usize, pcol: usize) -> TileLayout {
        TileLayout::new(self.local_rows(prow), self.local_cols(pcol), self.mb, self.nb)
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
/// order).
///
/// Kernels address single tiles through [`TileMatrix::tile`] /
/// [`TileMatrix::tile_mut`] — plain [`MatView`]/[`MatViewMut`]s, so every
/// existing BLAS/LAPACK kernel runs on a tile unchanged. Cross-tile
/// operations (row swaps for pivoting, column-segment sweeps) are
/// provided here, since a multi-tile region is not one strided view.
#[derive(Clone, PartialEq)]
pub struct TileMatrix<T = f64> {
    layout: TileLayout,
    data: Vec<T>,
}

impl<T: Scalar> TileMatrix<T> {
    /// Allocates an all-zero tile matrix with the given layout.
    pub fn zeros_with_layout(layout: TileLayout) -> Self {
        Self { layout, data: vec![T::ZERO; layout.rows() * layout.cols()] }
    }

    /// Allocates an all-zero `rows x cols` matrix in `mb x nb` tiles.
    pub fn zeros(rows: usize, cols: usize, mb: usize, nb: usize) -> Self {
        Self::zeros_with_layout(TileLayout::new(rows, cols, mb, nb))
    }

    /// Builds a tile matrix from a function of `(row, col)` (global
    /// indices), filling tiles in storage order.
    pub fn from_fn(layout: TileLayout, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(layout.rows() * layout.cols());
        for tj in 0..layout.tile_cols() {
            let (j0, w) = (tj * layout.nb(), layout.tile_width(tj));
            for ti in 0..layout.tile_rows() {
                let (i0, h) = (ti * layout.mb(), layout.tile_height(ti));
                for j in 0..w {
                    for i in 0..h {
                        data.push(f(i0 + i, j0 + j));
                    }
                }
            }
        }
        Self { layout, data }
    }

    /// Converts a flat column-major [`Matrix`] into `mb x nb` tiles
    /// (lossless; [`Self::to_matrix`] inverts it exactly).
    pub fn from_matrix(a: &Matrix<T>, mb: usize, nb: usize) -> Self {
        Self::from_view(a.view(), mb, nb)
    }

    /// Converts any strided view into tile-major storage.
    pub fn from_view(a: MatView<'_, T>, mb: usize, nb: usize) -> Self {
        let layout = TileLayout::new(a.rows(), a.cols(), mb, nb);
        Self::from_tiles(layout, |ti, tj| {
            a.submatrix(ti * mb, tj * nb, layout.tile_height(ti), layout.tile_width(tj))
        })
    }

    /// Builds a tile matrix by copying one source block per tile, in storage
    /// order: `src(ti, tj)` is what tile `(ti, tj)` holds.
    ///
    /// # Panics
    /// If a source block does not have its tile's shape.
    pub fn from_tiles<'a>(
        layout: TileLayout,
        mut src: impl FnMut(usize, usize) -> MatView<'a, T>,
    ) -> Self {
        let mut data = Vec::with_capacity(layout.rows() * layout.cols());
        for tj in 0..layout.tile_cols() {
            for ti in 0..layout.tile_rows() {
                let block = src(ti, tj);
                let shape = (layout.tile_height(ti), layout.tile_width(tj));
                assert_eq!((block.rows(), block.cols()), shape, "tile ({ti},{tj}) source shape");
                for j in 0..block.cols() {
                    data.extend_from_slice(block.col(j));
                }
            }
        }
        Self { layout, data }
    }

    /// Converts back to a flat column-major [`Matrix`] (the exact inverse
    /// of [`Self::from_matrix`]).
    pub fn to_matrix(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        for (ti, tj, t) in self.tiles() {
            let (i0, j0) = (ti * self.layout.mb(), tj * self.layout.nb());
            let mut dst = m.view_mut().into_submatrix(i0, j0, t.rows(), t.cols());
            dst.copy_from(t);
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
    pub fn rows(&self) -> usize {
        self.layout.rows()
    }

    /// Matrix columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.layout.cols()
    }

    /// `true` when either dimension is zero.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.rows() == 0 || self.cols() == 0
    }

    /// Immutable view of tile `(ti, tj)` (contiguous, `ld ==` tile
    /// height).
    pub fn tile(&self, ti: usize, tj: usize) -> MatView<'_, T> {
        let (h, w) = (self.layout.tile_height(ti), self.layout.tile_width(tj));
        let off = self.layout.tile_offset(ti, tj);
        MatView::from_slice(&self.data[off..off + h * w], h, w, h.max(1))
    }

    /// Mutable view of tile `(ti, tj)`.
    pub fn tile_mut(&mut self, ti: usize, tj: usize) -> MatViewMut<'_, T> {
        let (h, w) = (self.layout.tile_height(ti), self.layout.tile_width(tj));
        let off = self.layout.tile_offset(ti, tj);
        MatViewMut::from_slice(&mut self.data[off..off + h * w], h, w, h.max(1))
    }

    /// Iterates `(ti, tj, view)` over all tiles in storage order.
    pub fn tiles(&self) -> impl Iterator<Item = (usize, usize, MatView<'_, T>)> {
        let (tr, tc) = (self.layout.tile_rows(), self.layout.tile_cols());
        (0..tc).flat_map(move |tj| (0..tr).map(move |ti| (ti, tj, self.tile(ti, tj))))
    }

    /// The underlying tile-major buffer (tiles in storage order).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying tile-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies the `nr x nc` region at `(i, j)` (global indices, may span
    /// tiles) into an owned flat [`Matrix`].
    pub fn submatrix_copy(&self, i: usize, j: usize, nr: usize, nc: usize) -> Matrix<T> {
        assert!(i + nr <= self.rows() && j + nc <= self.cols(), "region out of range");
        Matrix::from_fn(nr, nc, |r, c| self[(i + r, j + c)])
    }

    /// Swaps global rows `i1` and `i2` across columns `cols` (crossing
    /// tile boundaries as needed). Same element swaps as
    /// [`MatViewMut::swap_rows`] on flat storage.
    pub fn swap_rows_in_cols(&mut self, i1: usize, i2: usize, cols: Range<usize>) {
        assert!(i1 < self.rows() && i2 < self.rows());
        assert!(cols.end <= self.cols());
        if i1 == i2 {
            return;
        }
        for j in cols {
            let a = self.layout.elem_offset(i1, j);
            let b = self.layout.elem_offset(i2, j);
            self.data.swap(a, b);
        }
    }

    /// Calls `f(global_row_start, segment)` for each contiguous piece of
    /// column `j` restricted to `rows`, walking down the tile rows — the
    /// cross-tile analogue of `&mut matrix.col_mut(j)[rows]`.
    pub fn for_each_col_segment_mut(
        &mut self,
        j: usize,
        rows: Range<usize>,
        mut f: impl FnMut(usize, &mut [T]),
    ) {
        assert!(j < self.cols() && rows.end <= self.rows());
        let (mb, nb) = (self.layout.mb(), self.layout.nb());
        let (tj, jc) = (j / nb, j % nb);
        let mut i = rows.start;
        while i < rows.end {
            let ti = i / mb;
            let h = self.layout.tile_height(ti);
            let lo = i - ti * mb;
            let hi = h.min(rows.end - ti * mb);
            let off = self.layout.tile_offset(ti, tj) + jc * h;
            f(i, &mut self.data[off + lo..off + hi]);
            i = ti * mb + hi;
        }
    }

    /// Rounds every element into precision `U`, preserving the layout
    /// (same tile geometry and ownership map). Shares the element
    /// conversion rule with [`Matrix::cast`] via
    /// [`crate::scalar::cast_slice`].
    pub fn cast<U: Scalar>(&self) -> TileMatrix<U> {
        TileMatrix { layout: self.layout, data: cast_slice(&self.data) }
    }

    /// Maximum absolute entry (0 for empty).
    pub fn max_abs(&self) -> T {
        self.data.iter().fold(T::ZERO, |m, &x| m.max(x.abs()))
    }
}

impl<T: Scalar> Index<(usize, usize)> for TileMatrix<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[self.layout.elem_offset(i, j)]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for TileMatrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        let off = self.layout.elem_offset(i, j);
        &mut self.data[off]
    }
}

impl<T: Scalar + fmt::Debug> fmt::Debug for TileMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TileMatrix {}x{} in {}x{} tiles ({}x{} grid of tiles)",
            self.rows(),
            self.cols(),
            self.layout.mb(),
            self.layout.nb(),
            self.layout.tile_rows(),
            self.layout.tile_cols()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::apply_ipiv;

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
        assert_eq!(layout.tile_rows(), 3);
        assert_eq!(layout.tile_cols(), 3);
        assert_eq!(layout.tile_height(2), 2, "ragged bottom tile row");
        assert_eq!(layout.tile_width(2), 1, "ragged right tile column");
        let last = t.tile(2, 2);
        assert_eq!((last.rows(), last.cols()), (2, 1));
        assert_eq!(last.ld(), 2, "tile ld == tile height (contiguous)");
        // Tile (1,1) covers global (4..8, 3..6).
        let mid = t.tile(1, 1);
        assert_eq!(mid.get(0, 0), a[(4, 3)]);
        assert_eq!(mid.get(3, 2), a[(7, 5)]);
        // Offsets tile the buffer exactly: sum of tile areas == rows*cols.
        let total: usize = t.tiles().map(|(_, _, v)| v.rows() * v.cols()).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn tile_mut_writes_land_globally() {
        let mut t = TileMatrix::<f64>::zeros(6, 6, 4, 4);
        t.tile_mut(1, 0).set(1, 2, 7.0); // global (5, 2)
        assert_eq!(t[(5, 2)], 7.0);
        assert_eq!(t.to_matrix()[(5, 2)], 7.0);
    }

    #[test]
    fn ranged_cross_tile_swaps_touch_only_requested_columns() {
        let a = numbered(8, 8);
        let local = vec![3usize, 2];
        let mut flat = a.clone();
        // Flat reference: swaps offset by base 4, columns 2..7 only.
        let sub = flat.view_mut().into_submatrix(4, 2, 4, 5);
        apply_ipiv(sub, &local);
        let mut tiled = TileMatrix::from_matrix(&a, 4, 4);
        for (i, &p) in local.iter().enumerate() {
            tiled.swap_rows_in_cols(4 + i, 4 + p, 2..7);
        }
        assert_eq!(tiled.to_matrix(), flat);
    }

    #[test]
    fn col_segments_cover_range_in_order() {
        let a = numbered(10, 4);
        let mut t = TileMatrix::from_matrix(&a, 3, 2);
        let mut seen = Vec::new();
        t.for_each_col_segment_mut(3, 2..9, |start, seg| {
            seen.push((start, seg.to_vec()));
            for v in seg.iter_mut() {
                *v = -*v;
            }
        });
        // Tiles of height 3: rows 2..3, 3..6, 6..9.
        assert_eq!(
            seen.iter().map(|(s, v)| (*s, v.len())).collect::<Vec<_>>(),
            vec![(2, 1), (3, 3), (6, 3)]
        );
        for i in 0..10 {
            let want = if (2..9).contains(&i) { -a[(i, 3)] } else { a[(i, 3)] };
            assert_eq!(t[(i, 3)], want);
        }
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
    fn local_layout_is_the_owned_tiles_packed() {
        let layout = TileLayout::new(26, 26, 4, 4).with_grid(2, 3);
        for prow in 0..2 {
            for pcol in 0..3 {
                let l = layout.local_layout(prow, pcol);
                assert_eq!(l.rows(), layout.local_rows(prow));
                assert_eq!(l.cols(), layout.local_cols(pcol));
                // Each local tile corresponds to one owned global tile of
                // the same shape.
                for lti in 0..l.tile_rows() {
                    let gti = lti * 2 + prow;
                    assert_eq!(l.tile_height(lti), layout.tile_height(gti));
                }
                for ltj in 0..l.tile_cols() {
                    let gtj = ltj * 3 + pcol;
                    assert_eq!(l.tile_width(ltj), layout.tile_width(gtj));
                }
            }
        }
    }

    #[test]
    fn row_and_col_tile_spans_partition_ranges() {
        let layout = TileLayout::new(22, 17, 5, 4);
        for &(lo, hi) in &[(0usize, 22usize), (3, 19), (5, 10), (21, 22), (7, 7)] {
            let span = layout.row_tile_span(lo..hi);
            let mut covered = Vec::new();
            for (ti, r) in &span {
                for x in r.clone() {
                    covered.push(ti * 5 + x);
                }
            }
            assert_eq!(covered, (lo..hi).collect::<Vec<_>>(), "rows {lo}..{hi}");
        }
        let span = layout.col_tile_span(2..17);
        assert_eq!(span.first().unwrap().0, 0);
        assert_eq!(span.last().unwrap(), &(4, 0..1), "ragged last column tile");
    }

    #[test]
    fn cast_round_trips_and_preserves_layout() {
        let a = Matrix::from_fn(9, 5, |i, j| 0.1 * (i as f64) + j as f64);
        let t = TileMatrix::from_matrix(&a, 4, 4);
        let lo = t.cast::<f32>();
        assert_eq!(lo.layout(), t.layout());
        assert_eq!(lo.to_matrix(), a.cast::<f32>(), "both casts share one conversion rule");
        let back = lo.cast::<f64>();
        assert_eq!(back[(3, 3)], a[(3, 3)] as f32 as f64);
    }

    #[test]
    fn empty_dimensions_are_legal() {
        let t = TileMatrix::<f64>::zeros(0, 5, 4, 4);
        assert!(t.is_empty());
        assert_eq!(t.layout().tile_rows(), 0);
        assert_eq!(t.to_matrix().rows(), 0);
        let t = TileMatrix::<f64>::zeros(5, 0, 4, 4);
        assert!(t.is_empty());
        assert_eq!(t.as_slice().len(), 0);
    }
}
