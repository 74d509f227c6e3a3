//! Level-1 kernels (vector-vector), matching BLAS semantics where a BLAS
//! routine of the same name exists. Generic over [`Scalar`] (`IDAMAX`
//! becomes `ISAMAX` at `T = f32`, and so on).

use crate::blas3::Arm;
use crate::scalar::Scalar;

/// Index of the first element of maximum absolute value (BLAS `IDAMAX`
/// semantics: ties resolve to the smallest index; NaNs are ignored unless
/// every entry is NaN, in which case 0 is returned).
///
/// One pass on the arm [`gemm`](crate::blas3::gemm) runs on: on a SIMD arm
/// each lane keeps its best `|x|` and where it saw it, by strict `>`, and
/// the lanes fold to the smallest index of the largest value; the portable
/// arm compares element by element. Same index on every arm.
///
/// # Panics
/// If `x` is empty.
pub fn iamax<T: Scalar>(x: &[T]) -> usize {
    iamax_on(Arm::detect(), x)
}

/// [`iamax`] on a stated arm; tests hold every arm to one contract on one
/// host.
///
/// # Panics
/// If `x` is empty.
pub fn iamax_on<T: Scalar>(arm: Arm, x: &[T]) -> usize {
    assert!(!x.is_empty(), "iamax of empty vector");
    match T::panel_kernel(arm) {
        Some(kernel) => kernel.iamax(x),
        None => first_max(x, 0, (T::NEG_INFINITY, 0)).1,
    }
}

/// The portable arm of [`iamax`], and the scan its SIMD arms finish with:
/// from `start` on, the first `|x_i|` strictly above `best.0`, as
/// `(|x_i|, i)`.
pub(crate) fn first_max<T: Scalar>(x: &[T], start: usize, mut best: (T, usize)) -> (T, usize) {
    for (i, &v) in x.iter().enumerate().skip(start) {
        let a = v.abs();
        if a > best.0 {
            best = (a, i);
        }
    }
    best
}

/// `y += alpha * x` (BLAS `DAXPY`).
///
/// # Panics
/// If lengths differ.
#[inline]
pub(crate) fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if alpha == T::ZERO {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` (BLAS `DSCAL`).
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Dot product (BLAS `DDOT`).
///
/// # Panics
/// If lengths differ.
#[inline]
pub(crate) fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Euclidean norm (BLAS `DNRM2`), with scaling to avoid overflow.
pub(crate) fn nrm2<T: Scalar>(x: &[T]) -> T {
    let mx = x.iter().fold(T::ZERO, |m, &v| m.max(v.abs()));
    if mx == T::ZERO || !mx.is_finite() {
        return mx;
    }
    let s: T = x.iter().map(|&v| (v / mx) * (v / mx)).sum();
    mx * s.sqrt()
}

/// Sum of absolute values (BLAS `DASUM`).
#[inline]
pub(crate) fn asum<T: Scalar>(x: &[T]) -> T {
    x.iter().map(|v| v.abs()).sum()
}

/// Maximum absolute value of a vector (the `inf`-norm); 0 when empty.
#[inline]
pub fn amax<T: Scalar>(x: &[T]) -> T {
    x.iter().fold(T::ZERO, |m, &v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iamax_first_max_wins() {
        assert_eq!(iamax(&[1.0, -3.0, 3.0, 2.0]), 1);
        assert_eq!(iamax(&[0.0]), 0);
        assert_eq!(iamax(&[-1.0, 1.0]), 0);
    }

    #[test]
    fn iamax_ignores_nan_unless_all_nan() {
        assert_eq!(iamax(&[f64::NAN, 2.0, 1.0]), 1);
        assert_eq!(iamax(&[f64::NAN, f64::NAN]), 0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn nrm2_is_scale_safe() {
        let big = 1e200;
        let x = [3.0 * big, 4.0 * big];
        assert!((nrm2(&x) - 5.0 * big).abs() < 1e186);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn dot_scal_asum_amax_basic() {
        let mut x = vec![1.0, -2.0, 3.0];
        assert_eq!(dot(&x, &[2.0, 1.0, 0.0]), 0.0);
        assert_eq!(asum(&x), 6.0);
        assert_eq!(amax(&x), 3.0);
        scal(-1.0, &mut x);
        assert_eq!(x, vec![-1.0, 2.0, -3.0]);
    }
}
