//! Owned column-major matrix storage.

use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Owned dense matrix in column-major order (`ld == rows`).
///
/// `Matrix` is deliberately minimal: algorithms operate on
/// [`MatView`]/[`MatViewMut`] obtained via [`Matrix::view`] /
/// [`Matrix::view_mut`], so that the exact same kernels run on owned
/// matrices, panels, and block-cyclic local storage.
#[derive(Clone, PartialEq)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// `madvise(MADV_HUGEPAGE)` on the 2 MiB-aligned interior of `data` when it
/// spans at least 4 MiB. Advice only: a kernel without transparent huge
/// pages refuses it, and the refusal is ignored.
#[cfg(target_os = "linux")]
fn advise_huge_pages<T>(data: &[T]) {
    use std::ffi::{c_int, c_void};
    const HUGE: usize = 2 << 20;
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    let (at, bytes) = (data.as_ptr() as usize, std::mem::size_of_val(data));
    let (start, end) = (at.next_multiple_of(HUGE), (at + bytes) / HUGE * HUGE);
    if bytes >= 2 * HUGE && start < end {
        // SAFETY: `[start, end)` is page aligned and lies inside `data`'s
        // live allocation; `MADV_HUGEPAGE` changes how the kernel backs
        // those pages, never their contents or their validity.
        let _ = unsafe { madvise(start as *mut c_void, end - start, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages<T>(_data: &[T]) {}

impl<T: Scalar> Matrix<T> {
    /// Allocates an `rows x cols` matrix of zeros. On Linux, an allocation
    /// of at least 4 MiB asks for transparent huge pages on its 2 MiB-aligned
    /// interior before anything touches it, so that filling it faults one
    /// page per 2 MiB instead of one per 4 KiB.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let data = vec![T::ZERO; rows * cols];
        advise_huge_pages(&data);
        Self { rows, cols, data }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing column-major buffer (`data.len() == rows*cols`).
    ///
    /// # Panics
    /// If the length does not match the shape.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length != rows*cols");
        Self { rows, cols, data }
    }

    /// Builds a matrix from row-major nested slices (convenient in tests and
    /// examples; the paper's Figure 1 matrix is written row by row).
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
        }
        Self::from_fn(r, c, |i, j| rows[i][j])
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the whole matrix.
    #[inline(always)]
    pub fn view(&self) -> MatView<'_, T> {
        MatView::from_slice(&self.data, self.rows, self.cols, self.rows.max(1))
    }

    /// Mutable view of the whole matrix.
    #[inline(always)]
    pub fn view_mut(&mut self) -> MatViewMut<'_, T> {
        MatViewMut::from_slice(&mut self.data, self.rows, self.cols, self.rows.max(1))
    }

    /// Column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Underlying column-major buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Underlying column-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Maximum absolute entry (0 for empty).
    pub fn max_abs(&self) -> T {
        self.data.iter().fold(T::ZERO, |m, &x| m.max(x.abs()))
    }

    /// Frobenius-style elementwise comparison: max |a_ij - b_ij|.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> T {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data.iter().zip(&other.data).fold(T::ZERO, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// The strictly-lower-triangular part with unit diagonal (the `L` factor
    /// stored in a packed LU), as an `m x min(m,n)` matrix.
    pub fn unit_lower(&self) -> Matrix<T> {
        let k = self.rows.min(self.cols);
        Matrix::from_fn(self.rows, k, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                self[(i, j)]
            } else {
                T::ZERO
            }
        })
    }

    /// The upper-triangular part (the `U` factor stored in a packed LU), as
    /// a `min(m,n) x n` matrix.
    pub fn upper(&self) -> Matrix<T> {
        let k = self.rows.min(self.cols);
        Matrix::from_fn(k, self.cols, |i, j| if j >= i { self[(i, j)] } else { T::ZERO })
    }

    /// Rounds every element into precision `U` (`f64 → f32` demotes with
    /// IEEE round-to-nearest; `f32 → f64` is exact). The mixed-precision
    /// solver uses this to hand a working copy to the fast low-precision
    /// factorization. The element conversion rule is
    /// [`crate::scalar::cast_slice`], which the distributed payloads share.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        Matrix { rows: self.rows, cols: self.cols, data: crate::scalar::cast_slice(&self.data) }
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>10.4?} ", self[(i, j)])?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_is_column_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!((m[(1, 0)], m[(1, 1)]), (3.0, 4.0));
    }

    #[test]
    fn unit_lower_and_upper_extract_lu_factors() {
        let m = Matrix::from_rows(&[&[2.0, 3.0], &[0.5, 4.0], &[0.25, 0.5]]);
        let l = m.unit_lower();
        let u = m.upper();
        assert_eq!(l.rows(), 3);
        assert_eq!(l.cols(), 2);
        assert_eq!(l[(0, 0)], 1.0);
        assert_eq!(l[(1, 0)], 0.5);
        assert_eq!(l[(1, 1)], 1.0);
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(u.rows(), 2);
        assert_eq!(u[(0, 1)], 3.0);
        assert_eq!(u[(1, 0)], 0.0);
        assert_eq!(u[(1, 1)], 4.0);
    }

    #[test]
    fn identity_is_identity() {
        let i3: Matrix = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(i3[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }
}
