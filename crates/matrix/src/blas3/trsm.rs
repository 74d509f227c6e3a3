//! The blocked triangular solve under [`super::trsm`]: recursion on the
//! triangle's order, scalar substitution on a small diagonal block, the
//! packed `gemm` for every off-diagonal update (contract and shape: the
//! `trsm` section of `super`'s module documentation).

use super::panel_kernel::Triangle;
use super::{gemm_on, scale, Arm};
use crate::blas1::{amax, scal};
use crate::blas2::ger;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use crate::{Diag, Side, Uplo};

/// `Side::Right`: triangle order at which the recursion bottoms out into
/// `scal` + `ger` (or the SIMD arm's register-tile elimination).
pub(super) const BASE: usize = 8;
/// `Side::Left`: triangle order at which the recursion bottoms out into
/// scalar substitution.
const LEFT_BASE: usize = 16;
/// `Side::Right`: rows solved at a time — a `ROW_BLOCK × 64` block of `f64`
/// is 512 KiB and stays in L2 across the whole recursion.
const ROW_BLOCK: usize = 1024;
/// `Side::Left`: right-hand columns the base case substitutes side by side.
const GROUP: usize = 16;

/// What a caller may observe while a `Side::Right` solve eliminates the
/// columns of `B` — the events [`lu_rows`](crate::lapack::lu_rows) reports
/// as column maxima and to its pivot observer. `trsm` itself watches
/// nothing (`()`), and the calls vanish.
pub(crate) trait Watch<T: Scalar> {
    /// Whether [`Self::multipliers`] and [`Self::stage`] read the values
    /// they are shown. When not, the base case may run on the SIMD arm,
    /// which eliminates a row tile across all its columns at once and
    /// reports neither.
    const WATCHES_VALUES: bool = true;
    /// The column maxima to raise, one per column of the triangle: entry
    /// `j` to the largest `|b_ij|` of column `j` just before it is divided
    /// by the diagonal, every earlier update applied. `None`: not watched.
    fn col_max(&mut self) -> Option<&mut [T]> {
        None
    }
    /// The same column after the division: the block's entries of `X`.
    fn multipliers(&mut self, _col: &[T]) {}
    /// A block of `B` that an update just rewrote.
    fn stage(&mut self, _changed: &MatView<'_, T>) {}
}

impl<T: Scalar> Watch<T> for () {
    const WATCHES_VALUES: bool = false;
}

/// [`super::trsm`] on a stated `gemm` arm.
pub(super) fn trsm_on<T: Scalar>(
    arm: Arm,
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: T,
    a: MatView<'_, T>,
    mut b: MatViewMut<'_, T>,
) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "trsm: A must be square");
    match side {
        Side::Left => assert_eq!(b.rows(), n, "trsm: B rows != A order"),
        Side::Right => assert_eq!(b.cols(), n, "trsm: B cols != A order"),
    }
    if b.is_empty() {
        return;
    }
    scale(alpha, b.rb_mut());
    if alpha == T::ZERO {
        return;
    }
    match side {
        Side::Left => left(arm, uplo, diag, a, b),
        Side::Right => solve_right(arm, uplo, diag, a, b, &mut ()),
    }
}

/// `B ← B · op(A)⁻¹` row block by row block, reporting to `watch`.
pub(crate) fn solve_right<T: Scalar, W: Watch<T>>(
    arm: Arm,
    uplo: Uplo,
    diag: Diag,
    a: MatView<'_, T>,
    mut b: MatViewMut<'_, T>,
    watch: &mut W,
) {
    let (m, n) = (b.rows(), b.cols());
    for i in (0..m).step_by(ROW_BLOCK) {
        right(arm, uplo, diag, a, b.submatrix_mut(i, 0, ROW_BLOCK.min(m - i), n), 0, watch);
    }
}

/// `op(A) X = B`: halve the triangle, solve the half the other depends on,
/// one `gemm` update, solve the other half.
fn left<T: Scalar>(arm: Arm, uplo: Uplo, diag: Diag, a: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let n = a.rows();
    if n <= LEFT_BASE {
        let cols = b.cols();
        for j in (0..cols).step_by(GROUP) {
            substitute(uplo, diag, a, b.submatrix_mut(0, j, n, GROUP.min(cols - j)));
        }
        return;
    }
    let n1 = n / 2;
    let (a11, a22) = (a.submatrix(0, 0, n1, n1), a.submatrix(n1, n1, n - n1, n - n1));
    let (mut top, mut bottom) = b.split_at_row_mut(n1);
    match uplo {
        Uplo::Lower => {
            left(arm, uplo, diag, a11, top.rb_mut());
            let a21 = a.submatrix(n1, 0, n - n1, n1);
            gemm_on(arm, -T::ONE, a21, top.as_view(), T::ONE, bottom.rb_mut());
            left(arm, uplo, diag, a22, bottom);
        }
        Uplo::Upper => {
            left(arm, uplo, diag, a22, bottom.rb_mut());
            let a12 = a.submatrix(0, n1, n1, n - n1);
            gemm_on(arm, -T::ONE, a12, bottom.as_view(), T::ONE, top.rb_mut());
            left(arm, uplo, diag, a11, top);
        }
    }
}

/// The base of [`left`]: forward (`Lower`) or backward (`Upper`) substitution
/// of up to [`GROUP`] right-hand columns against a diagonal block. The
/// columns are held as rows of a local array, so that each substitution step
/// is one vector operation across the group instead of `GROUP` dependent
/// scalar chains; every column still sees exactly the operations of a
/// one-column substitution, in its order.
fn substitute<T: Scalar>(uplo: Uplo, diag: Diag, a: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let (n, cols) = (b.rows(), b.cols());
    let mut x = [[T::ZERO; GROUP]; LEFT_BASE];
    for c in 0..cols {
        for (row, &v) in x.iter_mut().zip(b.col(c)) {
            row[c] = v;
        }
    }
    let mut step = |k: usize, rest: std::ops::Range<usize>| {
        if let Diag::NonUnit = diag {
            let akk = a.get(k, k);
            x[k].iter_mut().for_each(|v| *v /= akk);
        }
        let xk = x[k];
        for i in rest {
            let aik = a.get(i, k);
            for (xi, &v) in x[i].iter_mut().zip(&xk) {
                *xi -= aik * v;
            }
        }
    };
    match uplo {
        Uplo::Lower => (0..n).for_each(|k| step(k, k + 1..n)),
        Uplo::Upper => (0..n).rev().for_each(|k| step(k, 0..k)),
    }
    for c in 0..cols {
        for (v, row) in b.col_mut(c).iter_mut().zip(&x) {
            *v = row[c];
        }
    }
}

/// `X op(A) = B` for one row block whose first column is column `j0` of the
/// whole triangle: the column-wise mirror of [`left`].
fn right<T: Scalar, W: Watch<T>>(
    arm: Arm,
    uplo: Uplo,
    diag: Diag,
    a: MatView<'_, T>,
    b: MatViewMut<'_, T>,
    j0: usize,
    watch: &mut W,
) {
    let w = b.cols();
    if w <= BASE {
        match T::panel_kernel(arm) {
            Some(kernel) if !W::WATCHES_VALUES => {
                let col_max = watch.col_max().map(|c| &mut c[j0..j0 + w]);
                kernel.eliminate(&Triangle::new(uplo, diag, a), b, col_max);
            }
            _ => eliminate(uplo, diag, a, b, j0, watch),
        }
        return;
    }
    let w1 = w / 2;
    let (a11, a22) = (a.submatrix(0, 0, w1, w1), a.submatrix(w1, w1, w - w1, w - w1));
    let (mut lo, mut hi) = b.split_at_col_mut(w1);
    match uplo {
        Uplo::Upper => {
            right(arm, uplo, diag, a11, lo.rb_mut(), j0, watch);
            let a12 = a.submatrix(0, w1, w1, w - w1);
            gemm_on(arm, -T::ONE, lo.as_view(), a12, T::ONE, hi.rb_mut());
            watch.stage(&hi.as_view());
            right(arm, uplo, diag, a22, hi, j0 + w1, watch);
        }
        Uplo::Lower => {
            right(arm, uplo, diag, a22, hi.rb_mut(), j0 + w1, watch);
            let a21 = a.submatrix(w1, 0, w - w1, w1);
            gemm_on(arm, -T::ONE, hi.as_view(), a21, T::ONE, lo.rb_mut());
            watch.stage(&lo.as_view());
            right(arm, uplo, diag, a11, lo, j0, watch);
        }
    }
}

/// The base of [`right`] on the portable arm, and wherever the values are
/// watched: column by column — left to right for `Upper`, right to left
/// for `Lower` — divide by the diagonal, then one rank-1 update of the
/// columns still to come.
fn eliminate<T: Scalar, W: Watch<T>>(
    uplo: Uplo,
    diag: Diag,
    a: MatView<'_, T>,
    mut b: MatViewMut<'_, T>,
    j0: usize,
    watch: &mut W,
) {
    let w = b.cols();
    let mut arow = [T::ZERO; BASE];
    let mut step = |j: usize, rest: std::ops::Range<usize>| {
        if let Some(col_max) = watch.col_max() {
            col_max[j0 + j] = col_max[j0 + j].max(amax(b.col(j)));
        }
        if let Diag::NonUnit = diag {
            scal(a.get(j, j).recip(), b.col_mut(j));
        }
        watch.multipliers(b.col(j));
        if rest.is_empty() {
            return;
        }
        let arow = &mut arow[..rest.len()];
        for (t, c) in arow.iter_mut().zip(rest) {
            *t = a.get(j, c);
        }
        // The columns still to come lie wholly on one side of column `j`.
        let (lo, hi) = b.rb_mut().split_at_col_mut(if uplo == Uplo::Upper { j + 1 } else { j });
        let (xj, mut rest) = match uplo {
            Uplo::Upper => (lo.col(j), hi),
            Uplo::Lower => (hi.col(0), lo),
        };
        ger(-T::ONE, xj, arow, rest.rb_mut());
        watch.stage(&rest.as_view());
    };
    match uplo {
        Uplo::Upper => (0..w).for_each(|j| step(j, j + 1..w)),
        Uplo::Lower => (0..w).rev().for_each(|j| step(j, 0..j)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A watch that sees values (the trait's default): every base case it
    /// takes part in stays column by column.
    struct Stepwise;

    impl<T: Scalar> Watch<T> for Stepwise {}

    fn both_paths_agree<T: Scalar>() {
        let mut rng = StdRng::seed_from_u64(343);
        let arms = [Some(Arm::portable()), Arm::avx2_fma(), Arm::avx512()];
        let special = [-0.0, 1e-40, f64::INFINITY, f64::NEG_INFINITY, f64::NAN].map(T::from_f64);
        for (w, m) in [(9, 67), (16, 1030), (64, 131), (65, 17)] {
            let mut a = gen::randn::<T>(&mut rng, w, w);
            for j in 0..w {
                a[(j, j)] += T::from_f64(2.0 * w as f64);
                a[(rng.gen_range(0..w), j)] = T::ZERO;
            }
            let mut b0 = gen::randn::<T>(&mut rng, m, w);
            for v in special {
                b0[(rng.gen_range(0..m), rng.gen_range(0..w))] = v;
            }
            for arm in arms.into_iter().flatten() {
                for uplo in [Uplo::Upper, Uplo::Lower] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        let (mut fast, mut stepwise) = (b0.clone(), b0.clone());
                        solve_right(arm, uplo, diag, a.view(), fast.view_mut(), &mut ());
                        solve_right(arm, uplo, diag, a.view(), stepwise.view_mut(), &mut Stepwise);
                        let bits = |x: &Matrix<T>| -> Vec<u64> {
                            x.as_slice()
                                .iter()
                                .map(|v| if v.is_nan() { 0 } else { v.to_f64().to_bits() })
                                .collect()
                        };
                        let at = format!("{} {} {uplo:?} {diag:?} {m}x{w}", arm.name(), T::NAME);
                        assert!(bits(&fast) == bits(&stepwise), "{at}");
                    }
                }
            }
        }
    }

    /// Above the base order the recursion runs `gemm`, so the arms differ;
    /// on each arm the register-tile base gives the column-by-column bits.
    #[test]
    fn right_base_gives_the_stepwise_bits_on_every_arm() {
        both_paths_agree::<f64>();
        both_paths_agree::<f32>();
    }
}
