//! The rows of `L` below the diagonal block of an unpivoted panel
//! factorization, as a BLAS-3 operation: `L₂₁ = A₂₁ U₁₁⁻¹`.
//!
//! After tournament pivoting has put the winners on top and the top
//! `b × b` block is factored ([`lu_nopiv`](crate::lapack::lu_nopiv)), every
//! remaining row of the panel is eliminated against `U₁₁` alone: column `j`'s
//! update of a row below the diagonal block reads that row and `U₁₁`, never
//! another trailing row. [`lu_rows`] does that elimination recursively —
//! halve the columns, left half, one `gemm` update of the right half against
//! `U₁₁`'s off-diagonal block, right half — so almost all of it runs in the
//! packed `gemm`, where the unblocked sweep is `b` memory-bound rank-1
//! updates. That recursion is [`trsm`](crate::blas3::trsm)'s
//! `Right`/`Upper`/`NonUnit` case itself; `lu_rows` adds what a panel wants
//! to know on the way (the singular-pivot check, the column maxima, the
//! observer's events) and produces `trsm`'s bits.
//!
//! # Row independence
//!
//! **The bits of an output row are a function of that row, `U₁₁` and the
//! `gemm` arm, and nothing else.** The recursion splits on the column count
//! only; `gemm` is position independent (see [`blas3`](crate::blas3)); and
//! the base case of at most eight columns is per element on every arm. On
//! the portable arm, and under an observer that watches values, it is
//! `scal` and `ger` column by column; on a SIMD arm it eliminates a vector
//! of rows across all its columns at once with the column maxima held in
//! registers — the same multiplies and adds, never fused, in the same
//! order, with the same skipped zero coefficients, so the same bits. So
//! any partition of the rows into calls —
//! one call, one per tile, one per task chunk, the cache blocks this kernel
//! walks internally — through views of any leading dimension gives the same
//! factors bit for bit. The result differs from the unblocked sweep in the
//! last place (a `gemm` subtracts a finished sum where `ger` subtracts term
//! by term).

use crate::blas3::{solve_right, Arm, Watch};
use crate::error::{Error, Result};
use crate::observer::PivotObserver;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use crate::{Diag, Uplo};

/// Forms `rows ← rows · U₁₁⁻¹` in place: the rows of `L₂₁` for a panel whose
/// top block has been factored into `u11` (only the upper triangle of `u11`
/// is read, so the packed `L₁₁\U₁₁` block can be passed as is).
///
/// `col_max[j]` is raised to the largest `|a_ij|` these rows held in column
/// `j` when that column was eliminated — the rows' share of the column
/// maximum the paper's pivot threshold `τ` is measured against. The observer
/// sees each multiplier column and each updated block; it gets no
/// `on_pivot`, the pivots belong to whoever factored `u11`.
///
/// # Errors
/// [`Error::SingularPivot`] with the first `j` whose `u_jj` is zero or
/// non-finite — the step an unblocked full-height elimination fails at. No
/// row is touched in that case.
///
/// # Panics
/// If `u11` is not square of order `rows.cols()` or `col_max` is shorter
/// than that.
pub fn lu_rows<T: Scalar, O: PivotObserver<T>>(
    u11: MatView<'_, T>,
    rows: MatViewMut<'_, T>,
    col_max: &mut [T],
    obs: &mut O,
) -> Result<()> {
    lu_rows_on(Arm::detect(), u11, rows, col_max, obs)
}

/// [`lu_rows`] on a stated `gemm` arm; tests hold every arm to the
/// row-independence contract on one host.
///
/// # Errors
/// As [`lu_rows`].
///
/// # Panics
/// As [`lu_rows`].
pub fn lu_rows_on<T: Scalar, O: PivotObserver<T>>(
    arm: Arm,
    u11: MatView<'_, T>,
    rows: MatViewMut<'_, T>,
    col_max: &mut [T],
    obs: &mut O,
) -> Result<()> {
    let b = rows.cols();
    assert_eq!((u11.rows(), u11.cols()), (b, b), "lu_rows: U11 must be square of the panel width");
    assert!(col_max.len() >= b, "lu_rows: one column maximum per panel column");
    for j in 0..b {
        let pivot = u11.get(j, j);
        if pivot == T::ZERO || !pivot.is_finite() {
            return Err(Error::SingularPivot { step: j });
        }
    }
    solve_right(arm, Uplo::Upper, Diag::NonUnit, u11, rows, &mut Panel { col_max, obs });
    Ok(())
}

/// What `lu_rows` records as the solve eliminates each column: the rows'
/// share of the column maximum, and the observer's events.
struct Panel<'a, T, O> {
    col_max: &'a mut [T],
    obs: &'a mut O,
}

impl<T: Scalar, O: PivotObserver<T>> Watch<T> for Panel<'_, T, O> {
    const WATCHES_VALUES: bool = O::WATCHES_VALUES;

    fn col_max(&mut self) -> Option<&mut [T]> {
        Some(self.col_max)
    }

    fn multipliers(&mut self, col: &[T]) {
        self.obs.on_multipliers(col);
    }

    fn stage(&mut self, changed: &MatView<'_, T>) {
        self.obs.on_stage(changed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas1::amax;
    use crate::lapack::lu_nopiv;
    use crate::{gen, Matrix, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A `m × b` panel whose top block is safely factorable without pivoting.
    fn panel(seed: u64, m: usize, b: usize) -> Matrix {
        let mut a = gen::randn(&mut StdRng::seed_from_u64(seed), m, b);
        for j in 0..b {
            a[(j, j)] += 8.0;
        }
        a
    }

    #[test]
    fn top_block_plus_rows_matches_full_height_elimination() {
        for &(m, b) in &[(40usize, 1usize), (50, 7), (64, 8), (90, 9), (3000, 64)] {
            let a0 = panel(51, m, b);
            let mut full = a0.clone();
            lu_nopiv(full.view_mut(), &mut NoObs).unwrap();

            let mut split = a0.clone();
            let (mut top, below) = split.view_mut().split_at_row_mut(b);
            lu_nopiv(top.rb_mut(), &mut NoObs).unwrap();
            let mut col_max = vec![0.0; b];
            lu_rows(top.as_view(), below, &mut col_max, &mut NoObs).unwrap();

            let tol = 64.0 * b as f64 * f64::EPSILON * a0.max_abs();
            assert!(full.max_abs_diff(&split) <= tol, "{m}x{b}: {}", full.max_abs_diff(&split));
            assert!(col_max.iter().all(|&c| c > 0.0));
        }
    }

    #[test]
    fn column_maxima_are_the_rows_share_of_the_threshold_denominator() {
        // Width 1: nothing is updated before the only column is eliminated,
        // so the recorded maximum is the plain column maximum of the rows.
        let a0 = panel(52, 30, 1);
        let mut a = a0.clone();
        let (top, below) = a.view_mut().split_at_row_mut(1);
        let mut col_max = [0.0];
        lu_rows(top.as_view(), below, &mut col_max, &mut NoObs).unwrap();
        assert_eq!(col_max[0], amax(&a0.col(0)[1..]));
    }

    #[test]
    fn singular_u11_is_reported_before_any_row_changes() {
        let mut u = Matrix::identity(5);
        u[(3, 3)] = 0.0;
        u[(4, 4)] = f64::NAN;
        let a0 = panel(53, 12, 5);
        let mut a = a0.clone();
        let err = lu_rows(u.view(), a.view_mut(), &mut [0.0; 5], &mut NoObs).unwrap_err();
        assert_eq!(err, Error::SingularPivot { step: 3 });
        assert_eq!(a, a0);
    }
}
