//! The register-tile micro-kernels under [`super::gemm`] and the macro-kernel
//! that drives them over one packed cache block. Every `unsafe` block of the
//! packed `gemm` lives in this file.
//!
//! A micro-kernel computes `C ← C + α·(A_p · B_p)` for one `MR × NR` tile of
//! `C`, where `A_p` is an `MR × kc` panel of `A` — packed, or read where it
//! lies; column `l` is the `MR` consecutive elements step `l` reads — and
//! `B_p` an `NR`-column packed panel (`kc` groups of `NR`). The whole tile
//! is accumulated from zero in registers over `l = 0, 1, …, kc − 1`, then
//! folded into `C` once.
//!
//! There are three arms ([`Arm`]), two of them expansions of one macro:
//!
//! * **AVX-512** — `std::arch` kernels for `f64` (16×8) and `f32` (32×8),
//!   sixteen `zmm` accumulators, every step a fused multiply-add.
//! * **AVX2+FMA** — the same kernel at `f64` 8×6 and `f32` 16×6, twelve
//!   `ymm` accumulators.
//! * **portable** — one generic kernel, `a * b + c` with two roundings, for
//!   every other host. It never calls `mul_add`, which without the `fma`
//!   target feature is a libm call.
//!
//! Within one arm every element of `C` sees the same operations in the same
//! order whatever its position in a tile, and ragged tiles are computed as
//! full padded tiles in a scratch tile of which only the valid part is
//! copied back. Both SIMD arms accumulate with one fused multiply-add per
//! `l` from zero and fold with `fma(α, Σ, c)`, so they produce the same
//! bits — the bits of `gemm` depend on the input and on whether the arm
//! fuses, and on nothing else (see `super`'s module documentation).
//!
//! Beside the micro-kernels, each arm has a **one-column loop** for a `B`
//! of one column, where a register tile would multiply `NR − 1` columns of
//! padding and walk `A` an `MR`-row panel at a time. It streams `A` instead:
//! per block of `ROW_BLOCK` rows, whose partial sums stay in L1, and per
//! `KC` block of `k`, it reads the block's columns of `A` front to back,
//! accumulates each row's sum from zero in increasing `l` and folds it into
//! `C` as the micro-kernel does. It is one generic loop instantiated once
//! per arm and precision: the portable instance multiplies then adds, the
//! SIMD instances are compiled for their arm's features and fuse every step
//! and the fold (`mul_add`), exactly as the micro-kernels of their arm do —
//! so a one-column call has the bits of its column in any wider call.
//!
//! An [`Arm`] also selects the panel kernels of `panel_kernel.rs` — `iamax`,
//! `getf2`'s column step and `trsm`'s `Side::Right` base — at the same
//! vector width (its AVX-512 and AVX2 instances; the portable arm keeps the
//! scalar loops). Those never fuse: they multiply, then add, so their bits
//! are the portable arm's on every arm. Only `gemm`'s micro-kernels and its
//! one-column loop fuse.

#![deny(unsafe_op_in_unsafe_fn)]

use super::{PackPool, KC, MC, NC};
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use std::sync::OnceLock;

/// Largest `MR · NR` of any kernel below (`f32` on AVX-512); sizes the
/// ragged-tile scratch.
const MAX_TILE: usize = 32 * 8;

/// Which micro-kernel implementation runs: the instruction-set arm.
///
/// [`Arm::detect`] is what [`super::gemm`] uses. The other constructors exist
/// so that tests can hold every arm to the same contract on one host; an
/// `Arm` naming SIMD kernels can only be obtained on a host that has their
/// features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm(pub(super) Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Arm {
    /// The arm this process runs `gemm` on: AVX-512 when the host has
    /// `avx512f`, else AVX2+FMA when it has both features, else the portable
    /// arm. Detected once per process.
    pub fn detect() -> Arm {
        static ARM: OnceLock<Arm> = OnceLock::new();
        *ARM.get_or_init(|| Arm::avx512().or(Arm::avx2_fma()).unwrap_or(Arm::portable()))
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

    /// The AVX-512 arm, or `None` on a host without `avx512f`.
    pub fn avx512() -> Option<Arm> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            return Some(Arm(Isa::Avx512));
        }
        None
    }

    /// Short name for reports (`"portable"` / `"avx2+fma"` / `"avx512"`).
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }
}

/// `C ← C + α·(A_p · B_p)` on the full `MR × NR` tile at `c` (column stride
/// `ldc`), for the steps both panels hold: the columns of the `MR`-row view
/// `a`, the `NR`-chunks of `b`. Each step's column is sliced to `MR` and the
/// chunks are whole, so the panels' shapes matter for the result, not for
/// memory safety.
///
/// # Safety
/// For every `j < NR` the range `[c + j·ldc, c + j·ldc + MR)` is valid for
/// reads and writes and not accessed by anyone else during the call, and the
/// instruction-set features the kernel was compiled for are present on the
/// running CPU.
type KernelFn<T> = unsafe fn(alpha: T, a: MatView<'_, T>, b: &[T], c: *mut T, ldc: usize);

/// `c ← c + α·(A · b)` for a one-column `b` (the one-column loop): `c` has
/// `A`'s rows, `b` its columns.
///
/// # Safety
/// The instruction-set features the function was compiled for are present
/// on the running CPU.
type ColumnFn<T> = unsafe fn(alpha: T, a: MatView<'_, T>, b: &[T], c: &mut [T]);

/// Everything `gemm` needs that depends on the precision and the arm: the
/// register-tile shape, the packing routines that lay `A` and `B` out for
/// that shape, the pool the pack buffers come from, the kernel itself and
/// the one-column loop beside it.
///
/// Values are built only by [`Ukernel::for_arm`], which is what makes the
/// macro-kernel safe to call: the shape matches the function, and a SIMD
/// function implies its features were detected.
#[derive(Clone, Copy)]
pub struct Ukernel<T: 'static> {
    mr: usize,
    nr: usize,
    pack_a: PackFn<T>,
    pack_b: PackFn<T>,
    pool: &'static PackPool<T>,
    run: KernelFn<T>,
    column: ColumnFn<T>,
}

/// Packs one cache block into the front of the buffer (`super::pack_a`,
/// `super::pack_b` at a kernel's `MR`/`NR`).
type PackFn<T> = fn(MatView<'_, T>, &mut [T]);

/// `Ukernel::<$t>::for_arm`: per arm, the tile shape `$mr x $nr`, the
/// kernel of that shape and the arm's one-column loop.
macro_rules! impl_for_arm {
    ($t:ty, $($(#[$cfg:meta])? $isa:pat => $mr:literal x $nr:literal, $run:expr, $column:expr;)+) => {
        impl Ukernel<$t> {
            /// The micro-kernel of `arm` at this precision.
            pub(crate) fn for_arm(arm: Arm) -> Self {
                static POOL: PackPool<$t> = PackPool::new(Vec::new());
                match arm.0 {
                    $($(#[$cfg])? $isa => {
                        // The scratch tile holds a whole register tile, and
                        // the cache blocks are cut on register-tile
                        // boundaries, so that only the last panel of a
                        // matrix is ever padded.
                        const { assert!($mr * $nr <= MAX_TILE) };
                        const { assert!(MC % $mr == 0 && NC % $nr == 0) };
                        Ukernel {
                            mr: $mr,
                            nr: $nr,
                            pack_a: super::pack_a::<$t, $mr>,
                            pack_b: super::pack_b::<$t, $nr>,
                            pool: &POOL,
                            run: $run,
                            column: $column,
                        }
                    })+
                }
            }
        }
    };
}

impl_for_arm!(f64,
    Isa::Portable => 8 x 6, portable_kernel::<f64, 8, 6>, portable_column::<f64>;
    #[cfg(target_arch = "x86_64")]
    Isa::Avx2Fma => 8 x 6, simd::avx2_f64_8x6, simd::avx2_f64_column;
    #[cfg(target_arch = "x86_64")]
    Isa::Avx512 => 16 x 8, simd::avx512_f64_16x8, simd::avx512_f64_column;
);
impl_for_arm!(f32,
    Isa::Portable => 16 x 6, portable_kernel::<f32, 16, 6>, portable_column::<f32>;
    #[cfg(target_arch = "x86_64")]
    Isa::Avx2Fma => 16 x 6, simd::avx2_f32_16x6, simd::avx2_f32_column;
    #[cfg(target_arch = "x86_64")]
    Isa::Avx512 => 32 x 8, simd::avx512_f32_32x8, simd::avx512_f32_column;
);

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

    /// `c ← c + α·(A · b)` for a one-column `b`, streaming `A` (the
    /// one-column loop of the module documentation).
    ///
    /// # Panics
    /// If `b` does not have `A`'s columns or `c` its rows.
    pub(super) fn column(&self, alpha: T, a: MatView<'_, T>, b: &[T], c: &mut [T]) {
        assert_eq!(b.len(), a.cols(), "gemm: one-column B length");
        assert_eq!(c.len(), a.rows(), "gemm: one-column C length");
        // SAFETY: `self` was built by `for_arm`, so a SIMD loop implies its
        // features were detected on this CPU.
        unsafe { (self.column)(alpha, a, b, c) }
    }

    /// `C ← C + α·(A_blk · B_blk)` for one cache block: `a_panel(i)` is the
    /// `MR × kc` panel of `A` for rows `i..i + MR` (zero-padded past the
    /// block), `b_pack` holds `⌈n/NR⌉` packed `NR`-column panels of depth
    /// `kc`, zero-padded at the ragged edge, and `c` is the `m × n` block
    /// they update.
    ///
    /// # Panics
    /// If `b_pack` is shorter than the panels `c`'s shape requires, or a
    /// panel of `A` has fewer than `MR` rows.
    pub(super) fn macro_kernel<'a>(
        &self,
        alpha: T,
        kc: usize,
        a_panel: impl Fn(usize) -> MatView<'a, T>,
        b_pack: &[T],
        mut c: MatViewMut<'_, T>,
    ) {
        let (mr, nr) = (self.mr, self.nr);
        let (m, n, ldc) = (c.rows(), c.cols(), c.ld());
        let b_panel = kc * nr;
        // The panel slicing below is bounds-checked either way.
        debug_assert!(b_pack.len() >= n.div_ceil(nr) * b_panel, "gemm: packed B too short");
        let c_ptr = c.as_mut_ptr();

        for (jp, j) in (0..n).step_by(nr).enumerate() {
            let b = &b_pack[jp * b_panel..(jp + 1) * b_panel];
            let w = nr.min(n - j);
            for i in (0..m).step_by(mr) {
                let a = a_panel(i);
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
    a: MatView<'_, T>,
    b: &[T],
    c: *mut T,
    ldc: usize,
) {
    debug_assert_eq!(a.cols(), b.len() / NR);
    let mut acc = [[T::ZERO; MR]; NR];
    for (l, br) in (0..a.cols()).zip(b.chunks_exact(NR)) {
        let ar = &a.col(l)[..MR];
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

/// Rows of `C` one pass of the one-column loop holds: the partial sums of a
/// row block, 4 KiB at `f64`, stay in L1 while `A`'s columns stream by.
const ROW_BLOCK: usize = 512;

/// The one-column loop, written once: `madd(x, y, s)` is `x·y + s`, fused
/// or not as the arm's micro-kernel is. Per row block and per `KC` block of
/// `k`, the sums start from zero and add `a_il · b_l` in increasing `l` —
/// four columns of `A` per pass over the block, each element still in
/// order — and are folded in as `c ← madd(α, Σ, c)`: the micro-kernel's
/// operations on every element, so the bits are the same.
#[inline(always)]
fn column_loop<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: &[T],
    c: &mut [T],
    madd: impl Fn(T, T, T) -> T,
) {
    let (m, k) = (a.rows(), a.cols());
    let mut sums = [T::ZERO; ROW_BLOCK];
    for i0 in (0..m).step_by(ROW_BLOCK) {
        let h = ROW_BLOCK.min(m - i0);
        let (sums, c) = (&mut sums[..h], &mut c[i0..i0 + h]);
        let col = |l: usize| &a.col(l)[i0..i0 + h];
        for pc in (0..k).step_by(KC) {
            sums.fill(T::ZERO);
            let mut quads = b[pc..pc + KC.min(k - pc)].chunks_exact(4);
            let mut l = pc;
            for bq in &mut quads {
                let (a0, a1, a2, a3) = (col(l), col(l + 1), col(l + 2), col(l + 3));
                for i in 0..h {
                    let s = madd(a1[i], bq[1], madd(a0[i], bq[0], sums[i]));
                    sums[i] = madd(a3[i], bq[3], madd(a2[i], bq[2], s));
                }
                l += 4;
            }
            for (l, &bl) in (l..).zip(quads.remainder()) {
                for (s, &x) in sums.iter_mut().zip(col(l)) {
                    *s = madd(x, bl, *s);
                }
            }
            for (ci, &s) in c.iter_mut().zip(sums.iter()) {
                *ci = madd(alpha, s, *ci);
            }
        }
    }
}

/// The portable arm's one-column loop: a multiply then an add, as
/// [`portable_kernel`].
fn portable_column<T: Scalar>(alpha: T, a: MatView<'_, T>, b: &[T], c: &mut [T]) {
    column_loop(alpha, a, b, c, |x, y, s| x * y + s);
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use crate::view::MatView;
    use std::arch::x86_64::*;

    /// Generates one arm's fused one-column loop: `super::column_loop` with
    /// a fused multiply-add, compiled for the arm's features so that it
    /// runs at their vector width.
    macro_rules! fma_column {
        ($name:ident, $features:literal, $t:ty) => {
            #[target_feature(enable = $features)]
            pub(super) fn $name(alpha: $t, a: MatView<'_, $t>, b: &[$t], c: &mut [$t]) {
                super::column_loop(alpha, a, b, c, <$t>::mul_add);
            }
        };
    }

    fma_column!(avx2_f64_column, "avx2,fma", f64);
    fma_column!(avx2_f32_column, "avx2,fma", f32);
    fma_column!(avx512_f64_column, "avx512f", f64);
    fma_column!(avx512_f32_column, "avx512f", f32);

    /// Generates one fused multiply-add kernel: `MR = vecs · lanes` rows held
    /// in `$vecs` vector registers per column, `$nr` columns, `vecs · nr`
    /// accumulators; `$vecs` loads of `A` and `$nr` broadcasts of `B` feed
    /// that many FMAs per step.
    macro_rules! fma_kernel {
        ($name:ident, $features:literal, $t:ty, $lanes:literal x $vecs:literal, $nr:literal,
         $zero:ident, $load:ident, $store:ident, $set1:ident, $fmadd:ident) => {
            /// # Safety
            /// See [`super::KernelFn`]; the CPU must support the kernel's
            /// target features.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $name(
                alpha: $t,
                a: MatView<'_, $t>,
                b: &[$t],
                c: *mut $t,
                ldc: usize,
            ) {
                const MR: usize = $vecs * $lanes;
                const NR: usize = $nr;
                debug_assert_eq!(a.cols(), b.len() / NR);
                let mut acc = [[$zero(); $vecs]; NR];
                for (l, br) in (0..a.cols()).zip(b.chunks_exact(NR)) {
                    let ar = &a.col(l)[..MR];
                    // SAFETY: `ar` is `MR = vecs·lanes` elements long, so
                    // every unaligned vector load is inside it.
                    let av: [_; $vecs] =
                        std::array::from_fn(|v| unsafe { $load(ar.as_ptr().add(v * $lanes)) });
                    for j in 0..NR {
                        let bj = $set1(br[j]);
                        for v in 0..$vecs {
                            acc[j][v] = $fmadd(av[v], bj, acc[j][v]);
                        }
                    }
                }
                let va = $set1(alpha);
                for (j, col) in acc.iter().enumerate() {
                    for (v, &s) in col.iter().enumerate() {
                        // SAFETY: the caller guarantees `[c + j·ldc, +MR)` is
                        // valid and exclusive for each `j < NR`; the `vecs`
                        // vectors cover exactly those `MR` elements.
                        unsafe {
                            let p = c.add(j * ldc + v * $lanes);
                            $store(p, $fmadd(va, s, $load(p)));
                        }
                    }
                }
            }
        };
    }

    fma_kernel!(
        avx2_f64_8x6,
        "avx2,fma",
        f64,
        4 x 2,
        6,
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd
    );
    fma_kernel!(
        avx2_f32_16x6,
        "avx2,fma",
        f32,
        8 x 2,
        6,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps
    );
    fma_kernel!(
        avx512_f64_16x8,
        "avx512f",
        f64,
        8 x 2,
        8,
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        _mm512_fmadd_pd
    );
    fma_kernel!(
        avx512_f32_32x8,
        "avx512f",
        f32,
        16 x 2,
        8,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps
    );
}
