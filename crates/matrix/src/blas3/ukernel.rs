//! The register-tile micro-kernels under [`super::gemm`] and the macro-kernel
//! that drives them over one packed cache block. Every `unsafe` block of the
//! packed `gemm` lives in this file.
//!
//! A micro-kernel computes `C ← C + α·(A_p · B_p)` for one `MR × NR` tile of
//! `C`, where `A_p` is an `MR`-row packed panel (`kc` groups of `MR`
//! consecutive elements, one group per `l`) and `B_p` an `NR`-column packed
//! panel (`kc` groups of `NR`). The whole tile is accumulated from zero in
//! registers over `l = 0, 1, …, kc − 1`, then folded into `C` once.
//!
//! There are exactly two arms ([`Arm`]):
//!
//! * **AVX2+FMA** — `std::arch` kernels for `f64` (8×6) and `f32` (16×6),
//!   twelve `ymm` accumulators, every step a fused multiply-add.
//! * **portable** — one generic kernel, `a * b + c` with two roundings, for
//!   every other host. It never calls `mul_add`, which without the `fma`
//!   target feature is a libm call.
//!
//! Within one arm every element of `C` sees the same operations in the same
//! order whatever its position in a tile, and ragged tiles are computed as
//! full padded tiles in a scratch tile of which only the valid part is
//! copied back — so the bits of `gemm` depend on the input and on the arm,
//! and on nothing else (see `super`'s module documentation).

#![deny(unsafe_op_in_unsafe_fn)]

use super::PackPool;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use std::sync::OnceLock;

/// Largest `MR · NR` of any kernel below; sizes the ragged-tile scratch.
const MAX_TILE: usize = 16 * 6;

/// Which micro-kernel implementation runs: the instruction-set arm.
///
/// [`Arm::detect`] is what [`super::gemm`] uses. The other constructors exist
/// so that tests can hold both arms to the same contract on one host; an
/// `Arm` naming the AVX2+FMA kernels can only be obtained on a host that has
/// both features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

impl Arm {
    /// The arm this process runs `gemm` on: AVX2+FMA when the host has both
    /// features, the portable arm otherwise. Detected once per process.
    pub fn detect() -> Arm {
        static ARM: OnceLock<Arm> = OnceLock::new();
        *ARM.get_or_init(|| Arm::avx2_fma().unwrap_or(Arm::portable()))
    }

    /// The portable arm (runs everywhere).
    pub fn portable() -> Arm {
        Arm(Isa::Portable)
    }

    /// The AVX2+FMA arm, or `None` on a host without both features.
    pub fn avx2_fma() -> Option<Arm> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Some(Arm(Isa::Avx2Fma));
        }
        None
    }

    /// Short name for reports (`"portable"` / `"avx2+fma"`).
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => "avx2+fma",
        }
    }
}

/// `C ← C + α·(A_p · B_p)` on the full `MR × NR` tile at `c` (column stride
/// `ldc`), for the `a.len() / MR` steps the two panels hold. The panels are
/// walked as whole `MR`- and `NR`-chunks, so their lengths matter for the
/// result, not for memory safety.
///
/// # Safety
/// For every `j < NR` the range `[c + j·ldc, c + j·ldc + MR)` is valid for
/// reads and writes and not accessed by anyone else during the call, and the
/// instruction-set features the kernel was compiled for are present on the
/// running CPU.
type KernelFn<T> = unsafe fn(alpha: T, a: &[T], b: &[T], c: *mut T, ldc: usize);

/// Everything `gemm` needs that depends on the precision and the arm: the
/// register-tile shape, the packing routines that lay `A` and `B` out for
/// that shape, the pool the pack buffers come from, and the kernel itself.
///
/// Values are built only by [`Ukernel::for_arm`], which is what makes the
/// macro-kernel safe to call: the shape matches the function, and an
/// AVX2+FMA function implies a detected feature.
#[derive(Clone, Copy)]
pub struct Ukernel<T: 'static> {
    mr: usize,
    nr: usize,
    pack_a: PackFn<T>,
    pack_b: PackFn<T>,
    pool: &'static PackPool<T>,
    run: KernelFn<T>,
}

/// Packs one cache block into the front of the buffer (`super::pack_a`,
/// `super::pack_b` at a kernel's `MR`/`NR`).
type PackFn<T> = fn(MatView<'_, T>, &mut [T]);

/// `Ukernel::<$t>::for_arm` at tile shape `$mr x $nr`, with `$simd` as the
/// AVX2+FMA kernel.
macro_rules! impl_for_arm {
    ($t:ty, $mr:literal x $nr:literal, $simd:path) => {
        impl Ukernel<$t> {
            /// The micro-kernel of `arm` at this precision.
            pub fn for_arm(arm: Arm) -> Self {
                const { assert!($mr * $nr <= MAX_TILE) };
                static POOL: PackPool<$t> = PackPool::new(Vec::new());
                Ukernel {
                    mr: $mr,
                    nr: $nr,
                    pack_a: super::pack_a::<$t, $mr>,
                    pack_b: super::pack_b::<$t, $nr>,
                    pool: &POOL,
                    run: match arm.0 {
                        Isa::Portable => portable_kernel::<$t, $mr, $nr>,
                        #[cfg(target_arch = "x86_64")]
                        Isa::Avx2Fma => $simd,
                    },
                }
            }
        }
    };
}

impl_for_arm!(f64, 8 x 6, avx2::kernel_f64_8x6);
impl_for_arm!(f32, 16 x 6, avx2::kernel_f32_16x6);

impl<T: Scalar> Ukernel<T> {
    /// Rows of the register tile (`A` is packed in panels of this many rows).
    #[inline(always)]
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// Columns of the register tile (`B` is packed in panels of this many
    /// columns).
    #[inline(always)]
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// The pool this precision's pack buffers are taken from.
    #[inline(always)]
    pub(super) fn pool(&self) -> &'static PackPool<T> {
        self.pool
    }

    /// Packs the `mb × kb` block `a` into `⌈mb/MR⌉` zero-padded `MR`-row
    /// panels at the front of `buf`.
    #[inline(always)]
    pub(super) fn pack_a(&self, a: MatView<'_, T>, buf: &mut [T]) {
        (self.pack_a)(a, buf);
    }

    /// Packs the `kb × nb` block `b` into `⌈nb/NR⌉` zero-padded `NR`-column
    /// panels at the front of `buf`.
    #[inline(always)]
    pub(super) fn pack_b(&self, b: MatView<'_, T>, buf: &mut [T]) {
        (self.pack_b)(b, buf);
    }

    /// `C ← C + α·(A_blk · B_blk)` for one cache block: `a_pack` holds
    /// `⌈m/MR⌉` packed `MR`-row panels of depth `kc`, `b_pack` holds
    /// `⌈n/NR⌉` packed `NR`-column panels of depth `kc`, zero-padded at the
    /// ragged edges, and `c` is the `m × n` block they update.
    ///
    /// # Panics
    /// If a pack buffer is shorter than the panels `c`'s shape requires.
    pub(super) fn macro_kernel(
        &self,
        alpha: T,
        kc: usize,
        a_pack: &[T],
        b_pack: &[T],
        mut c: MatViewMut<'_, T>,
    ) {
        let (mr, nr) = (self.mr, self.nr);
        let (m, n, ldc) = (c.rows(), c.cols(), c.ld());
        let (a_panel, b_panel) = (kc * mr, kc * nr);
        // The panel slicing below is bounds-checked either way.
        debug_assert!(a_pack.len() >= m.div_ceil(mr) * a_panel, "gemm: packed A too short");
        debug_assert!(b_pack.len() >= n.div_ceil(nr) * b_panel, "gemm: packed B too short");
        let c_ptr = c.as_mut_ptr();

        for (jp, j) in (0..n).step_by(nr).enumerate() {
            let b = &b_pack[jp * b_panel..(jp + 1) * b_panel];
            let w = nr.min(n - j);
            for (ip, i) in (0..m).step_by(mr).enumerate() {
                let a = &a_pack[ip * a_panel..(ip + 1) * a_panel];
                let h = mr.min(m - i);
                if h == mr && w == nr {
                    debug_assert!(i + mr <= m && j + nr <= n);
                    // SAFETY: the tile `[i, i+MR) × [j, j+NR)` lies inside
                    // `c` (`h == MR`, `w == NR`), whose elements this call
                    // holds exclusively through the view; `self` was built
                    // by `for_arm`, so the shape is the kernel's own and a
                    // SIMD kernel implies its features were detected.
                    unsafe { (self.run)(alpha, a, b, c_ptr.add(j * ldc + i), ldc) };
                } else {
                    // Ragged edge: the same full-tile computation on a
                    // scratch tile holding the valid part of C, so a ragged
                    // element sees exactly what an interior element sees.
                    // The padded rows/columns (where `0 · Inf` may appear)
                    // stay in the scratch tile.
                    let mut tile = [T::ZERO; MAX_TILE];
                    for jj in 0..w {
                        tile[jj * mr..jj * mr + h].copy_from_slice(&c.col(j + jj)[i..i + h]);
                    }
                    // SAFETY: as above with the local array as the tile,
                    // column stride `MR`: `for_arm` checks at compile time
                    // that `MR · NR ≤ MAX_TILE`.
                    unsafe { (self.run)(alpha, a, b, tile.as_mut_ptr(), mr) };
                    for jj in 0..w {
                        c.col_mut(j + jj)[i..i + h].copy_from_slice(&tile[jj * mr..jj * mr + h]);
                    }
                }
            }
        }
    }
}

/// The portable arm: the `MR × NR` tile accumulated with one multiply and one
/// add per step (two roundings), at any [`Scalar`].
///
/// # Safety
/// See [`KernelFn`]; needs no CPU feature.
unsafe fn portable_kernel<T: Scalar, const MR: usize, const NR: usize>(
    alpha: T,
    a: &[T],
    b: &[T],
    c: *mut T,
    ldc: usize,
) {
    debug_assert_eq!(a.len() % MR, 0);
    debug_assert_eq!(a.len() / MR, b.len() / NR);
    let mut acc = [[T::ZERO; MR]; NR];
    for (ar, br) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for j in 0..NR {
            for i in 0..MR {
                acc[j][i] = ar[i] * br[j] + acc[j][i];
            }
        }
    }
    for (j, col) in acc.iter().enumerate() {
        for (i, &s) in col.iter().enumerate() {
            // SAFETY: `i < MR`, `j < NR`; the caller guarantees the tile's
            // columns `[c + j·ldc, c + j·ldc + MR)` are valid and exclusive.
            unsafe {
                let p = c.add(j * ldc + i);
                *p = alpha * s + *p;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Generates one AVX2+FMA kernel: `MR = 2 · lanes` rows held in two `ymm`
    /// registers per column, six columns, twelve accumulators; two loads of
    /// `A` and six broadcasts of `B` feed twelve FMAs per step.
    macro_rules! avx2_fma_kernel {
        ($name:ident, $t:ty, $lanes:literal, $zero:ident, $load:ident, $store:ident,
         $set1:ident, $fmadd:ident) => {
            /// # Safety
            /// See [`super::KernelFn`]; the CPU must support AVX2 and FMA.
            #[target_feature(enable = "avx2,fma")]
            pub(super) unsafe fn $name(alpha: $t, a: &[$t], b: &[$t], c: *mut $t, ldc: usize) {
                const MR: usize = 2 * $lanes;
                const NR: usize = 6;
                debug_assert_eq!(a.len() % MR, 0);
                debug_assert_eq!(a.len() / MR, b.len() / NR);
                let mut acc = [[$zero(); 2]; NR];
                for (ar, br) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
                    // SAFETY: `ar` is `MR = 2·lanes` elements long, so both
                    // unaligned vector loads are inside it.
                    let (a0, a1) = unsafe { ($load(ar.as_ptr()), $load(ar.as_ptr().add($lanes))) };
                    for j in 0..NR {
                        let bj = $set1(br[j]);
                        acc[j][0] = $fmadd(a0, bj, acc[j][0]);
                        acc[j][1] = $fmadd(a1, bj, acc[j][1]);
                    }
                }
                let va = $set1(alpha);
                for (j, col) in acc.iter().enumerate() {
                    // SAFETY: the caller guarantees `[c + j·ldc, +MR)` is
                    // valid and exclusive for each `j < NR`; the two vectors
                    // cover exactly those `MR` elements.
                    unsafe {
                        let p = c.add(j * ldc);
                        $store(p, $fmadd(va, col[0], $load(p)));
                        $store(p.add($lanes), $fmadd(va, col[1], $load(p.add($lanes))));
                    }
                }
            }
        };
    }

    avx2_fma_kernel!(
        kernel_f64_8x6,
        f64,
        4,
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd
    );
    avx2_fma_kernel!(
        kernel_f32_16x6,
        f32,
        8,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps
    );
}
