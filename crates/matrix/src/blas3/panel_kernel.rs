//! The SIMD arms of the three loops under every panel task:
//! [`iamax`](crate::blas1::iamax)'s scan, `getf2`'s column step and the
//! `Side::Right` base of `trsm` (the one `lu_rows` runs). Every `unsafe`
//! block of the panel kernels lives in this file.
//!
//! They run on the arm [`super::gemm`] runs on ([`Arm::detect`]); the
//! portable arm is the scalar loops of `blas1::iamax`,
//! `lapack::getf2_info` and `blas3::trsm`'s `eliminate`, kept as they
//! were. Unlike `gemm`, **no kernel here fuses a multiply-add**: every
//! update is `y + (s · x)` with two roundings, every scaling `x · r`, and a
//! coefficient that is exactly zero skips its update as the scalar loops
//! do. Each element therefore sees the scalar loop's operations in the
//! scalar loop's order, and the bits — factors, pivots, column maxima, NaN
//! positions — are those of the portable arm on every arm (NaN payloads
//! may differ). A maximum is folded lane by lane and then across lanes,
//! with the smallest index winning a tie, which is the first maximum in
//! index order.
//!
//! * **`iamax`** — one pass, four vectors per step, each lane tracking its
//!   best `|x|` and the step it was seen at, by strict `>` (NaN never
//!   wins).
//! * **`getf2` step** — after the pivot swap, one pass over the rows per
//!   block of [`PASS_COLS`] trailing columns: the first block scales the
//!   multipliers and finds the next column's pivot among its new values,
//!   the others read the scaled multipliers back. Each column is streamed
//!   once per step, as `ger` streams it.
//! * **`eliminate`** — a register tile of rows across all (at most
//!   eight) columns of a triangle block, in elimination order, with the
//!   column maxima held in registers.
//!
//! Rows past the last whole vector run the same operations in scalar code.

#![deny(unsafe_op_in_unsafe_fn)]

use super::trsm::BASE;
use super::ukernel::Isa;
use super::Arm;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use crate::{Diag, Uplo};

/// Trailing columns one pass of a `getf2` step updates (the `pass::<K>`
/// instances of `step` go up to it).
const PASS_COLS: usize = 4;

/// A triangle block of a `Side::Right` solve in elimination order: step
/// `k` eliminates column `order[k]` of the row block, scales it by
/// `recip[k]` (`Diag::NonUnit`) and adds `coef[k][k2]` times it to column
/// `order[k2]` for every `k2 > k` whose coefficient is not zero.
pub(crate) struct Triangle<T> {
    w: usize,
    order: [usize; BASE],
    recip: Option<[T; BASE]>,
    coef: [[T; BASE]; BASE],
}

impl<T: Scalar> Triangle<T> {
    /// The block `a` (order at most [`BASE`]) as `trsm`'s scalar base walks
    /// it: left to right for `Upper`, right to left for `Lower`, with the
    /// reciprocal of the diagonal and `ger`'s `−1 · a_jc` as coefficients.
    pub(crate) fn new(uplo: Uplo, diag: Diag, a: MatView<'_, T>) -> Self {
        let w = a.rows();
        assert!(w <= BASE, "triangle block of order {w} > {BASE}");
        let order =
            std::array::from_fn(|k| if uplo == Uplo::Upper { k } else { w.saturating_sub(k + 1) });
        let recip = (diag == Diag::NonUnit).then(|| {
            std::array::from_fn(|k| if k < w { a.get(order[k], order[k]).recip() } else { T::ZERO })
        });
        let coef = std::array::from_fn(|k| {
            std::array::from_fn(|k2| {
                if k < k2 && k2 < w {
                    -T::ONE * a.get(order[k], order[k2])
                } else {
                    T::ZERO
                }
            })
        });
        Triangle { w, order, recip, coef }
    }
}

/// `iamax` over a whole slice (non-empty).
///
/// # Safety
/// The instruction-set features the kernel was compiled for are present on
/// the running CPU.
type IamaxFn<T> = unsafe fn(&[T]) -> usize;

/// One `getf2` step after its pivot swap: `l ← l · inv`, then
/// `col_c ← col_c + s_c · l` for every trailing column `c` with `s_c ≠ 0`;
/// returns the first maximum of the first trailing column's new values, if
/// there is a trailing column.
///
/// # Safety
/// As [`IamaxFn`].
type StepFn<T> = unsafe fn(&mut [T], T, MatViewMut<'_, T>, &[T]) -> Option<usize>;

/// `trsm`'s `Side::Right` base on one row block, raising `col_max[c]` (per
/// column of the block) to the largest `|x|` column `c` held when it was
/// eliminated.
///
/// # Safety
/// As [`IamaxFn`].
type EliminateFn<T> = unsafe fn(&Triangle<T>, MatViewMut<'_, T>, Option<&mut [T]>);

/// The panel kernels of one precision on one SIMD arm. Values are built
/// only by [`PanelKernel::for_arm`], which is what makes the calls safe: a
/// SIMD function implies its features were detected.
#[derive(Clone, Copy)]
pub struct PanelKernel<T: 'static> {
    iamax: IamaxFn<T>,
    step: StepFn<T>,
    eliminate: EliminateFn<T>,
}

macro_rules! impl_for_arm {
    ($t:ty, $($(#[$cfg:meta])? $isa:pat => $module:ident;)+) => {
        impl PanelKernel<$t> {
            /// The panel kernels of `arm` at this precision; `None` on the
            /// portable arm, whose kernels are the scalar loops.
            pub(crate) fn for_arm(arm: Arm) -> Option<Self> {
                match arm.0 {
                    Isa::Portable => None,
                    $($(#[$cfg])? $isa => Some(PanelKernel {
                        iamax: $module::iamax,
                        step: $module::step,
                        eliminate: $module::eliminate,
                    }),)+
                }
            }
        }
    };
}

impl_for_arm!(f64,
    #[cfg(target_arch = "x86_64")] Isa::Avx2Fma => avx2_f64;
    #[cfg(target_arch = "x86_64")] Isa::Avx512 => avx512_f64;
);
impl_for_arm!(f32,
    #[cfg(target_arch = "x86_64")] Isa::Avx2Fma => avx2_f32;
    #[cfg(target_arch = "x86_64")] Isa::Avx512 => avx512_f32;
);

impl<T: Scalar> PanelKernel<T> {
    /// Index of the first element of maximum absolute value, NaN ignored, 0
    /// when every entry is NaN (`blas1::iamax`'s contract).
    pub(crate) fn iamax(&self, x: &[T]) -> usize {
        assert!(!x.is_empty(), "iamax of empty vector");
        // SAFETY: `self` was built by `for_arm`, so the kernel's features
        // were detected on this CPU.
        unsafe { (self.iamax)(x) }
    }

    /// One `getf2` step after the pivot swap on the rows below the pivot:
    /// `l` is the pivot column, `trailing` the trailing columns and `s[c]`
    /// the `ger` coefficient `−1 · u_c` of column `c`. Returns the position
    /// in `l` of the next column's pivot, `None` without a trailing column.
    ///
    /// # Panics
    /// If `trailing` does not have `l.len()` rows and `s.len()` columns.
    pub(crate) fn step(
        &self,
        l: &mut [T],
        inv: T,
        trailing: MatViewMut<'_, T>,
        s: &[T],
    ) -> Option<usize> {
        assert_eq!((trailing.rows(), trailing.cols()), (l.len(), s.len()), "getf2 step shape");
        // SAFETY: as in `iamax`.
        unsafe { (self.step)(l, inv, trailing, s) }
    }

    /// `trsm`'s `Side::Right` base: `b ← b · op(a)⁻¹` for the triangle
    /// block `tri`, raising `col_max` (one entry per column of `b`).
    ///
    /// # Panics
    /// If `b` does not have the triangle's order of columns, or `col_max`
    /// is shorter.
    pub(crate) fn eliminate(
        &self,
        tri: &Triangle<T>,
        b: MatViewMut<'_, T>,
        col_max: Option<&mut [T]>,
    ) {
        assert_eq!(b.cols(), tri.w, "eliminate: block width != triangle order");
        assert!(
            col_max.as_ref().is_none_or(|c| c.len() >= tri.w),
            "eliminate: one maximum per column"
        );
        // SAFETY: as in `iamax`.
        unsafe { (self.eliminate)(tri, b, col_max) }
    }
}

#[cfg(target_arch = "x86_64")]
use simd::{avx2_f32, avx2_f64, avx512_f32, avx512_f64};

#[cfg(target_arch = "x86_64")]
mod simd {
    /// The vector operations of one arm and precision: `N` lanes of `$t` in
    /// a `V`, a comparison result `M`. Loads and stores address vector `v`
    /// of a slice, the `N` elements from `v·N`, through its whole `N`-element
    /// chunks: in bounds by construction (an index past them panics).
    macro_rules! vector_ops {
        (common $f:literal, $t:ty, $n:literal, $v:ty, $set1:ident, $loadu:ident, $storeu:ident,
         $add:ident, $mul:ident, $max:ident) => {
            pub(super) const N: usize = $n;
            pub(super) type V = $v;

            #[inline]
            #[target_feature(enable = $f)]
            fn splat(x: $t) -> V {
                $set1(x)
            }

            #[inline]
            #[target_feature(enable = $f)]
            fn load(x: &[$t], v: usize) -> V {
                let chunk = &x.as_chunks::<N>().0[v];
                // SAFETY: `chunk` is `N` elements, one unaligned vector.
                unsafe { $loadu(chunk.as_ptr()) }
            }

            #[inline]
            #[target_feature(enable = $f)]
            fn store(x: &mut [$t], v: usize, y: V) {
                let chunk = &mut x.as_chunks_mut::<N>().0[v];
                // SAFETY: as in `load`.
                unsafe { $storeu(chunk.as_mut_ptr(), y) }
            }

            #[inline]
            #[target_feature(enable = $f)]
            fn add(a: V, b: V) -> V {
                $add(a, b)
            }

            #[inline]
            #[target_feature(enable = $f)]
            fn mul(a: V, b: V) -> V {
                $mul(a, b)
            }

            /// `max(acc, x)` ignoring a NaN `x` (the instruction returns its
            /// second operand when either is NaN); `acc` is never NaN.
            #[inline]
            #[target_feature(enable = $f)]
            fn max_into(acc: V, x: V) -> V {
                $max(x, acc)
            }

            #[inline]
            #[target_feature(enable = $f)]
            fn lanes(v: V) -> [$t; N] {
                let mut out = [0.0; N];
                store(&mut out, 0, v);
                out
            }
        };
        (avx512 $f:literal, $t:ty, $n:literal, $v:ty, $m:ty, $set1:ident, $loadu:ident,
         $storeu:ident, $add:ident, $mul:ident, $max:ident, $abs:ident, $cmp:ident,
         $blend:ident) => {
            vector_ops!(common $f, $t, $n, $v, $set1, $loadu, $storeu, $add, $mul, $max);
            type M = $m;

            #[inline]
            #[target_feature(enable = $f)]
            fn abs(x: V) -> V {
                $abs(x)
            }

            /// Lanes where `a > b`, ordered: false where either is NaN.
            #[inline]
            #[target_feature(enable = $f)]
            fn gt(a: V, b: V) -> M {
                $cmp::<_CMP_GT_OQ>(a, b)
            }

            #[inline]
            #[target_feature(enable = $f)]
            fn select(m: M, yes: V, no: V) -> V {
                $blend(m, no, yes)
            }
        };
        (avx2 $f:literal, $t:ty, $n:literal, $v:ty, $set1:ident, $loadu:ident, $storeu:ident,
         $add:ident, $mul:ident, $max:ident, $andnot:ident, $cmp:ident, $blendv:ident) => {
            vector_ops!(common $f, $t, $n, $v, $set1, $loadu, $storeu, $add, $mul, $max);
            type M = V;

            #[inline]
            #[target_feature(enable = $f)]
            fn abs(x: V) -> V {
                $andnot($set1(-0.0), x)
            }

            /// Lanes where `a > b`, ordered: false where either is NaN.
            #[inline]
            #[target_feature(enable = $f)]
            fn gt(a: V, b: V) -> M {
                $cmp::<_CMP_GT_OQ>(a, b)
            }

            #[inline]
            #[target_feature(enable = $f)]
            fn select(m: M, yes: V, no: V) -> V {
                $blendv(no, yes, m)
            }
        };
    }

    /// The three kernels, written once over the operations `vector_ops!`
    /// put in scope.
    macro_rules! panel_kernels {
        ($f:literal, $t:ty) => {
            use super::super::{Triangle, PASS_COLS};
            use crate::blas1::first_max;
            use crate::view::MatViewMut;

            /// Positions are counted in `$t`, per segment of this many
            /// steps: exact below `2^MANTISSA_DIGITS`.
            const SEGMENT: usize = 1 << 20;

            /// Merges the first maximum over every lane of `best` into
            /// `top`, which holds only earlier indices, so a tie keeps it.
            /// Lane `lane` of vector `u` at position `p` is element
            /// `base + p·step + u·N + lane`.
            #[inline]
            #[target_feature(enable = $f)]
            fn fold<const U: usize>(
                best: [V; U],
                at: [V; U],
                (step, base): (usize, usize),
                top: ($t, usize),
            ) -> ($t, usize) {
                let mut seg = (<$t>::NEG_INFINITY, usize::MAX);
                for u in 0..U {
                    let (vals, pos) = (lanes(best[u]), lanes(at[u]));
                    for lane in 0..N {
                        let i = base + pos[lane] as usize * step + u * N + lane;
                        if vals[lane] > seg.0 || (vals[lane] == seg.0 && i < seg.1) {
                            seg = (vals[lane], i);
                        }
                    }
                }
                if seg.0 > top.0 {
                    seg
                } else {
                    top
                }
            }

            #[target_feature(enable = $f)]
            pub(in super::super) fn iamax(x: &[$t]) -> usize {
                const U: usize = 4;
                let (steps, _) = x.as_chunks::<{ U * N }>();
                let mut top = (<$t>::NEG_INFINITY, 0);
                for (s0, seg) in steps.chunks(SEGMENT).enumerate() {
                    let mut best = [splat(<$t>::NEG_INFINITY); U];
                    let mut at = [splat(0.0); U];
                    for (s, step) in seg.iter().enumerate() {
                        let pos = splat(s as $t);
                        for u in 0..U {
                            let a = abs(load(step, u));
                            let m = gt(a, best[u]);
                            best[u] = select(m, a, best[u]);
                            at[u] = select(m, pos, at[u]);
                        }
                    }
                    top = fold(best, at, (U * N, s0 * SEGMENT * U * N), top);
                }
                first_max(x, steps.len() * U * N, top).1
            }

            #[target_feature(enable = $f)]
            pub(in super::super) fn step(
                l: &mut [$t],
                inv: $t,
                mut trailing: MatViewMut<'_, $t>,
                s: &[$t],
            ) -> Option<usize> {
                if s.is_empty() {
                    return pass::<0>(l, Some(inv), trailing, s);
                }
                let mut next = None;
                for c0 in (0..s.len()).step_by(PASS_COLS) {
                    let kb = PASS_COLS.min(s.len() - c0);
                    let block = trailing.submatrix_mut(0, c0, l.len(), kb);
                    let (scale, s) = ((c0 == 0).then_some(inv), &s[c0..c0 + kb]);
                    let found = match kb {
                        1 => pass::<1>(l, scale, block, s),
                        2 => pass::<2>(l, scale, block, s),
                        3 => pass::<3>(l, scale, block, s),
                        _ => pass::<PASS_COLS>(l, scale, block, s),
                    };
                    next = next.or(found);
                }
                next
            }

            /// One pass over the rows: scale `l` (when `scale` is given),
            /// update the `K` columns of `b`, and — on the scaling pass —
            /// the first maximum of column 0's new values.
            #[target_feature(enable = $f)]
            fn pass<const K: usize>(
                l: &mut [$t],
                scale: Option<$t>,
                mut b: MatViewMut<'_, $t>,
                s: &[$t],
            ) -> Option<usize> {
                let rows = l.len();
                let track = scale.is_some() && K > 0;
                let live: [bool; K] = std::array::from_fn(|c| s[c] != 0.0);
                let vecs = rows / N;
                let mut top = (<$t>::NEG_INFINITY, 0);
                for v0 in (0..vecs).step_by(SEGMENT) {
                    let mut best = [splat(<$t>::NEG_INFINITY)];
                    let mut at = [splat(0.0)];
                    for v in v0..vecs.min(v0 + SEGMENT) {
                        let mut x = load(l, v);
                        if let Some(r) = scale {
                            x = mul(x, splat(r));
                            store(l, v, x);
                        }
                        for c in 0..K {
                            let mut y = load(b.col(c), v);
                            if live[c] {
                                y = add(y, mul(splat(s[c]), x));
                                store(b.col_mut(c), v, y);
                            }
                            if track && c == 0 {
                                let a = abs(y);
                                let m = gt(a, best[0]);
                                best[0] = select(m, a, best[0]);
                                at[0] = select(m, splat((v - v0) as $t), at[0]);
                            }
                        }
                    }
                    top = fold(best, at, (N, v0 * N), top);
                }
                for i in vecs * N..rows {
                    let mut x = l[i];
                    if let Some(r) = scale {
                        x *= r;
                        l[i] = x;
                    }
                    for c in 0..K {
                        let y = &mut b.col_mut(c)[i];
                        if live[c] {
                            *y += s[c] * x;
                        }
                        if track && c == 0 && y.abs() > top.0 {
                            top = (y.abs(), i);
                        }
                    }
                }
                track.then_some(top.1)
            }

            #[target_feature(enable = $f)]
            pub(in super::super) fn eliminate(
                tri: &Triangle<$t>,
                b: MatViewMut<'_, $t>,
                col_max: Option<&mut [$t]>,
            ) {
                match tri.w {
                    1 => block::<1>(tri, b, col_max),
                    2 => block::<2>(tri, b, col_max),
                    3 => block::<3>(tri, b, col_max),
                    4 => block::<4>(tri, b, col_max),
                    5 => block::<5>(tri, b, col_max),
                    6 => block::<6>(tri, b, col_max),
                    7 => block::<7>(tri, b, col_max),
                    8 => block::<8>(tri, b, col_max),
                    _ => {} // order 0: nothing to eliminate
                }
            }

            /// [`eliminate`] at a triangle order of `W`: one vector of rows
            /// across all `W` columns at a time, in elimination order.
            #[target_feature(enable = $f)]
            fn block<const W: usize>(
                tri: &Triangle<$t>,
                mut b: MatViewMut<'_, $t>,
                col_max: Option<&mut [$t]>,
            ) {
                let rows = b.rows();
                let order = tri.order;
                let watch = col_max.is_some();
                let live: [[bool; W]; W] =
                    std::array::from_fn(|k| std::array::from_fn(|k2| tri.coef[k][k2] != 0.0));
                let mut acc = [splat(0.0); W];
                let vecs = rows / N;
                for v in 0..vecs {
                    let mut x: [V; W] = std::array::from_fn(|k| load(b.col(order[k]), v));
                    for k in 0..W {
                        if watch {
                            acc[k] = max_into(acc[k], abs(x[k]));
                        }
                        if let Some(r) = &tri.recip {
                            x[k] = mul(x[k], splat(r[k]));
                        }
                        for k2 in k + 1..W {
                            if live[k][k2] {
                                x[k2] = add(x[k2], mul(splat(tri.coef[k][k2]), x[k]));
                            }
                        }
                    }
                    for k in 0..W {
                        store(b.col_mut(order[k]), v, x[k]);
                    }
                }
                let mut tail = [0.0 as $t; W];
                for i in vecs * N..rows {
                    let mut x: [$t; W] = std::array::from_fn(|k| b.col(order[k])[i]);
                    for k in 0..W {
                        tail[k] = tail[k].max(x[k].abs());
                        if let Some(r) = &tri.recip {
                            x[k] *= r[k];
                        }
                        for k2 in k + 1..W {
                            if live[k][k2] {
                                x[k2] += tri.coef[k][k2] * x[k];
                            }
                        }
                    }
                    for k in 0..W {
                        b.col_mut(order[k])[i] = x[k];
                    }
                }
                if let Some(cm) = col_max {
                    for k in 0..W {
                        let m = lanes(acc[k]).into_iter().fold(tail[k], <$t>::max);
                        cm[order[k]] = cm[order[k]].max(m);
                    }
                }
            }
        };
    }

    pub(super) mod avx512_f64 {
        use std::arch::x86_64::*;
        vector_ops!(avx512 "avx512f", f64, 8, __m512d, __mmask8, _mm512_set1_pd, _mm512_loadu_pd,
            _mm512_storeu_pd, _mm512_add_pd, _mm512_mul_pd, _mm512_max_pd, _mm512_abs_pd,
            _mm512_cmp_pd_mask, _mm512_mask_blend_pd);
        panel_kernels!("avx512f", f64);
    }

    pub(super) mod avx512_f32 {
        use std::arch::x86_64::*;
        vector_ops!(avx512 "avx512f", f32, 16, __m512, __mmask16, _mm512_set1_ps, _mm512_loadu_ps,
            _mm512_storeu_ps, _mm512_add_ps, _mm512_mul_ps, _mm512_max_ps, _mm512_abs_ps,
            _mm512_cmp_ps_mask, _mm512_mask_blend_ps);
        panel_kernels!("avx512f", f32);
    }

    pub(super) mod avx2_f64 {
        use std::arch::x86_64::*;
        vector_ops!(avx2 "avx2,fma", f64, 4, __m256d, _mm256_set1_pd, _mm256_loadu_pd,
            _mm256_storeu_pd, _mm256_add_pd, _mm256_mul_pd, _mm256_max_pd, _mm256_andnot_pd,
            _mm256_cmp_pd, _mm256_blendv_pd);
        panel_kernels!("avx2,fma", f64);
    }

    pub(super) mod avx2_f32 {
        use std::arch::x86_64::*;
        vector_ops!(avx2 "avx2,fma", f32, 8, __m256, _mm256_set1_ps, _mm256_loadu_ps,
            _mm256_storeu_ps, _mm256_add_ps, _mm256_mul_ps, _mm256_max_ps, _mm256_andnot_ps,
            _mm256_cmp_ps, _mm256_blendv_ps);
        panel_kernels!("avx2,fma", f32);
    }
}
