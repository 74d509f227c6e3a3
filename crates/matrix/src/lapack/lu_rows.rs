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
//! updates.
//!
//! # Row independence
//!
//! **The bits of an output row are a function of that row, `U₁₁` and the
//! `gemm` arm, and nothing else.** The recursion splits on the column count
//! only; `scal` and `ger` are per element; `gemm` is position independent
//! (see [`blas3`](crate::blas3)). So any partition of the rows into calls —
//! one call, one per tile, one per task chunk, the cache blocks this kernel
//! walks internally — through views of any leading dimension gives the same
//! factors bit for bit. The result differs from the unblocked sweep in the
//! last place (a `gemm` subtracts a finished sum where `ger` subtracts term
//! by term).

use crate::blas1::{amax, scal};
use crate::blas2::ger;
use crate::blas3::{gemm_on, Arm};
use crate::error::{Error, Result};
use crate::observer::PivotObserver;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};

/// Width at which the recursion bottoms out into `scal` + `ger`.
const BASE_WIDTH: usize = 8;
/// Rows eliminated at a time: a `ROW_BLOCK × 64` block of `f64` is 512 KiB
/// and stays in L2 across the whole column recursion.
const ROW_BLOCK: usize = 1024;

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
    mut rows: MatViewMut<'_, T>,
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
    let m = rows.rows();
    for i in (0..m).step_by(ROW_BLOCK) {
        let block = rows.submatrix_mut(i, 0, ROW_BLOCK.min(m - i), b);
        eliminate(arm, u11, block, &mut col_max[..b], obs);
    }
    Ok(())
}

/// One row block against the `w × w` upper-triangular `u` (`w = a.cols()`).
fn eliminate<T: Scalar, O: PivotObserver<T>>(
    arm: Arm,
    u: MatView<'_, T>,
    mut a: MatViewMut<'_, T>,
    col_max: &mut [T],
    obs: &mut O,
) {
    let w = a.cols();
    if w <= BASE_WIDTH {
        let mut urow = [T::ZERO; BASE_WIDTH];
        for (j, max) in col_max.iter_mut().enumerate() {
            *max = max.max(amax(a.col(j)));
            scal(u.get(j, j).recip(), a.col_mut(j));
            obs.on_multipliers(a.col(j));
            let width = w - j - 1;
            if width > 0 {
                for (c, t) in urow[..width].iter_mut().enumerate() {
                    *t = u.get(j, j + 1 + c);
                }
                let (left, mut right) = a.rb_mut().split_at_col_mut(j + 1);
                ger(-T::ONE, left.col(j), &urow[..width], right.rb_mut());
                obs.on_stage(&right.as_view());
            }
        }
        return;
    }
    let w1 = w / 2;
    let (mut left, mut right) = a.split_at_col_mut(w1);
    let (max_left, max_right) = col_max.split_at_mut(w1);
    eliminate(arm, u.submatrix(0, 0, w1, w1), left.rb_mut(), max_left, obs);
    gemm_on(arm, -T::ONE, left.as_view(), u.submatrix(0, w1, w1, w - w1), T::ONE, right.rb_mut());
    obs.on_stage(&right.as_view());
    eliminate(arm, u.submatrix(w1, w1, w - w1, w - w1), right, max_right, obs);
}

#[cfg(test)]
mod tests {
    use super::*;
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
