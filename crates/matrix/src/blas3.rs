//! Level-3 kernels: a packed, register-blocked `gemm` and a blocked `trsm`
//! built on it, in the four no-transpose cases LU factorization needs.
//!
//! # `gemm`
//!
//! CALU takes the panel off the critical path so that a factorization runs
//! at the speed of its trailing update; this `gemm` is that update. It has
//! the GotoBLAS/BLIS shape: three cache-blocking loops (`NC`, `KC`, `MC`)
//! around two packing steps and a register-tile micro-kernel.
//!
//! * The `KC × NC` block of `B` is packed into `NR`-column panels and the
//!   `MC × KC` block of `A` into `MR`-row panels, both zero-padded at ragged
//!   edges. Packed panels are contiguous and read front to back, so the
//!   64 × 64 tiles of a flat `ld = 1536` matrix — whose columns are 12 KiB
//!   apart and map to eight L1 sets — stop evicting one another.
//! * A packed `A` pays off by being reread once per panel of `B`, so a
//!   narrow `B` reads `A` where it lies. When `B` is one panel (2 to `NR`
//!   columns: a batch of right-hand sides), `A`'s whole `MR`-row panels are
//!   read in place and only a ragged last one is packed. When `B` is one
//!   column (every one-right-hand-side solve), the **one-column loop**
//!   beside the micro-kernels (`ukernel.rs`) streams each column of `A`
//!   front to back in row blocks, instead of walking `MR`-row panels that
//!   touch a cache line or two per column. Same elements, same order, same
//!   bits: the loop does the micro-kernel's operations on every element.
//! * An `A` that several calls multiply — one update chunk of `L₂₁` against
//!   every block column of `U₁₂` in the task-graph runtime — is packed once
//!   into a [`PackedA`] and passed to [`gemm_packed`], which runs
//!   [`gemm_on`]'s loop nest without packing `A` again. `B` is still packed
//!   per call: packing `U₁₂` once measured no gain.
//! * The micro-kernel (`Ukernel`) keeps a whole `MR × NR` tile of `C` in
//!   registers across the `k` loop. It is reached through one hook,
//!   [`Scalar::gemm_ukernel`], with three arms ([`Arm`]): `std::arch`
//!   AVX-512 kernels for `f64` (16×8) and `f32` (32×8) and AVX2+FMA kernels
//!   (8×6, 16×6) — one macro, four expansions — the widest the host has
//!   chosen once per process, and one generic portable kernel otherwise.
//!   Nothing else selects an arm.
//! * Pack buffers come from a process-wide pool: one buffer per running
//!   call, each at most `MC·KC + KC·NC` elements for the call's blocks, plus
//!   one per live [`PackedA`], which holds all of its `A`. A request takes
//!   the smallest buffer that holds it (else grows the largest), and a
//!   buffer keeps the largest size it has held; once warm, neither a `gemm`
//!   call nor a `PackedA` allocates.

//! ## Position independence
//!
//! Every element of `C` is computed as `c ← β·c`, then for each `KC`-block
//! of `k` in order `c ← c + α·(Σ_l a_il·b_lj)`, the sum accumulated from
//! zero in increasing `l` with one operation per step — a fused multiply-add
//! on the two SIMD arms, a multiply then an add on the portable arm. The
//! `KC` splits depend on `k` alone, and a ragged tile is computed as a full
//! padded tile of which only the valid part is stored. So an element's bits
//! do not depend on `m`, `n`, leading dimensions, the register-tile shape,
//! where the element sits in a register tile or cache block, whether `A`
//! was packed before the call, or how the caller cut `C` into pieces:
//! `gemm` on a whole matrix equals `gemm` piece by piece over any partition
//! of its rows and columns, bit for bit. That is what keeps the task-graph
//! runtime's row chunks and the distributed runtime's tiles bitwise equal
//! to the sequential whole-matrix update.
//! **Bits are a function of (input, fused or not) and nothing else**: the
//! AVX-512 arm produces the AVX2+FMA arm's bits, the portable arm rounds
//! twice per step. Factors are reproducible across runs, schedules, thread
//! counts and AVX2/AVX-512 hosts, not between a SIMD host and a portable one.
//!
//! # `trsm`
//!
//! A triangular solve is a recursion on the triangle's **order** and on
//! nothing else: halve the triangle, solve the half the other depends on,
//! subtract its contribution from the other half's right-hand sides with one
//! packed [`gemm_on`], solve the other half. At order 16 (`Side::Left`) or 8
//! (`Side::Right`) it bottoms out in substitution on the diagonal block —
//! for `Left` sixteen right-hand columns side by side, so that a
//! substitution step is one vector operation and not sixteen dependent
//! scalar chains; for `Right` a `scal` and a `ger` down the columns of `B`
//! on the portable arm, and on a SIMD arm one vector of rows eliminated
//! across all the block's columns at once (`panel_kernel.rs`), with the
//! same unfused operations in the same order.
//! Three quarters (`Left`) or seven eighths (`Right`) of the arithmetic of a
//! 64 × 64 triangle is `gemm`'s. The rows of a `Right` solve are walked in
//! cache blocks of 1024 (512 KiB of a 64-column panel, resident in L2 across
//! the recursion); the columns of a `Left` solve are not blocked — it
//! measured no difference. A flat `ld = 1536` right-hand block is solved in place: measured
//! on the reference host it costs 2 µs more than a contiguous tile (17.4
//! against 15.5 µs for 64 × 64), which is what copying it into a packed
//! scratch and back would cost.
//!
//! ## Line independence
//!
//! **The bits of a right-hand column (`Side::Left`) or row (`Side::Right`)
//! of the result are a function of that column (row), the triangle, `alpha`
//! and the `gemm` arm, and of nothing else** — not of how many other lines
//! the call carried, of where the line sat among them, of the leading
//! dimensions, or of the cache blocks: the split depends on the triangle's
//! order only, the base cases are per element (on a SIMD arm too: a row's
//! lane in a vector sees what the scalar loop does), and `gemm` is position
//! independent. So any partition of the free dimension into calls gives the
//! bits of one call. That is the contract every factorization path leans on
//! — the runtime's `Trsm` tasks per block column, the tile-by-tile solves of
//! the distributed ranks, `getrf`'s full-width block row — and what keeps
//! them bitwise equal to one another.
//! [`lu_rows`](crate::lapack::lu_rows) *is* the `Right`/`Upper`/`NonUnit`
//! recursion, watched (column maxima, observer events), not a second one.
//!
//! # Which kernels fuse
//!
//! [`Arm`] picks the vector width of every kernel under a panel task, not
//! only of `gemm`: the SIMD arms also carry `iamax`, `getf2`'s column step
//! and the `Side::Right` base above (`panel_kernel.rs`). `gemm`'s
//! micro-kernels and its one-column loop fuse the multiply-add on the SIMD
//! arms, so their bits depend on the arm being fused or not; the panel
//! kernels never fuse, so theirs are the portable loops' bits on every arm.
//! The solve phase ([`getrs`](crate::lapack::getrs),
//! [`getrs_mat`](crate::lapack::getrs_mat)) is two `Left` calls, so a
//! right-hand side solved alone has the bits of the same column solved in
//! any batch.

mod panel_kernel;
mod trsm;
mod ukernel;

pub(crate) use panel_kernel::PanelKernel;
pub(crate) use trsm::{solve_right, Watch};
pub use ukernel::Arm;
pub(crate) use ukernel::Ukernel;

use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use crate::{Diag, Side, Uplo};
use std::sync::{Mutex, PoisonError};

/// Columns of `B`/`C` per outermost block: a multiple of every kernel's
/// `NR` (checked in `Ukernel::for_arm`), so only the last panel of a matrix
/// is ever padded.
const NC: usize = 504;
/// Depth of one packed block: an `MR × KC` and a `KC × NR` panel together
/// stay in L1 across a micro-kernel call.
const KC: usize = 256;
/// Rows of `A`/`C` per packed block (a multiple of every kernel's `MR`,
/// checked in `Ukernel::for_arm`): the `MC × KC` block of packed `A` stays in
/// L2 while `B`'s panels stream by.
const MC: usize = 192;

/// `C = alpha * A * B + beta * C` (BLAS `DGEMM`, no transposes), serial.
///
/// Shapes: `A: m x k`, `B: k x n`, `C: m x n`. Position independent (see the
/// module documentation): updating `C` whole or piece by piece gives the same
/// bits.
///
/// # Panics
/// On dimension mismatch.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    gemm_on(Arm::detect(), alpha, a, b, beta, c);
}

/// [`gemm`] on a stated micro-kernel arm. `gemm` is this with
/// [`Arm::detect`]; tests call it to hold every arm to one contract on one
/// host.
///
/// # Panics
/// On dimension mismatch.
pub fn gemm_on<T: Scalar>(
    arm: Arm,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm: inner dimension mismatch");
    assert_eq!(c.rows(), m, "gemm: C rows mismatch");
    assert_eq!(c.cols(), n, "gemm: C cols mismatch");

    scale(beta, c.rb_mut());
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = T::gemm_ukernel(arm);
    if n == 1 {
        kernel.column(alpha, a, b.col(0), c.col_mut(0));
    } else {
        gemm_nest(kernel, alpha, OperandA::InPlace(a), b, c);
    }
}

/// `A` packed once for many [`gemm_packed`] calls against different `B`
/// and `C`: every `KC`-column block of `A` in the zero-padded `MR`-row
/// panels `gemm_on` packs per call, on one arm. The buffer comes from the
/// arm's pack pool and goes back to it on drop.
pub struct PackedA<T: Scalar> {
    kernel: Ukernel<T>,
    rows: usize,
    cols: usize,
    buf: Vec<T>,
}

impl<T: Scalar> PackedA<T> {
    /// `a` packed for the arm [`gemm`] runs on.
    pub fn new(a: MatView<'_, T>) -> Self {
        Self::new_on(Arm::detect(), a)
    }

    /// `a` packed for `arm`'s micro-kernel.
    pub fn new_on(arm: Arm, a: MatView<'_, T>) -> Self {
        let kernel = T::gemm_ukernel(arm);
        let (rows, cols) = (a.rows(), a.cols());
        let padded = rows.next_multiple_of(kernel.mr());
        let mut buf = take_buffer(kernel.pool(), padded * cols);
        for pc in (0..cols).step_by(KC) {
            let kb = KC.min(cols - pc);
            let block = &mut buf[pc * padded..(pc + kb) * padded];
            kernel.pack_a(a.submatrix(0, pc, rows, kb), block);
        }
        PackedA { kernel, rows, cols, buf }
    }

    /// The `MR`-row panel of the `KC` block at column `pc` (of depth `kb`)
    /// that starts at row `i`, a multiple of `MR`.
    fn panel(&self, i: usize, pc: usize, kb: usize) -> MatView<'_, T> {
        let mr = self.kernel.mr();
        debug_assert!(i.is_multiple_of(mr) && i < self.rows);
        let at = pc * self.rows.next_multiple_of(mr) + i * kb;
        MatView::from_slice(&self.buf[at..at + mr * kb], mr, kb, mr)
    }
}

impl<T: Scalar> Drop for PackedA<T> {
    fn drop(&mut self) {
        give_back(self.kernel.pool(), std::mem::take(&mut self.buf));
    }
}

/// [`gemm`] with a pre-packed `A`, on the arm it was packed for: the bits
/// of `gemm_on` on that arm, without packing `A` again. `B` is packed per
/// call as `gemm_on` packs it.
///
/// # Panics
/// On dimension mismatch.
pub fn gemm_packed<T: Scalar>(
    alpha: T,
    a: &PackedA<T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k, n) = (a.rows, a.cols, b.cols());
    assert_eq!(b.rows(), k, "gemm: inner dimension mismatch");
    assert_eq!(c.rows(), m, "gemm: C rows mismatch");
    assert_eq!(c.cols(), n, "gemm: C cols mismatch");

    scale(beta, c.rb_mut());
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_nest(a.kernel, alpha, OperandA::Packed(a), b, c);
}

/// Where the cache blocks of `A` come from.
#[derive(Clone, Copy)]
enum OperandA<'a, T: Scalar> {
    /// A view, packed per block when `B` has several panels, else read where
    /// it lies (module documentation).
    InPlace(MatView<'a, T>),
    /// Packed already.
    Packed(&'a PackedA<T>),
}

/// The loop nest of [`gemm_on`] and [`gemm_packed`] after `C ← β·C`:
/// `C ← C + α·(A·B)` for non-empty operands.
fn gemm_nest<T: Scalar>(
    kernel: Ukernel<T>,
    alpha: T,
    a: OperandA<'_, T>,
    b: MatView<'_, T>,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k, n) = (c.rows(), b.rows(), c.cols());
    let (mr, nr) = (kernel.mr(), kernel.nr());
    // One panel of `B` reads each element of `A` once: packing it would only
    // copy it (module documentation).
    let a_len = match a {
        OperandA::Packed(_) => 0,
        OperandA::InPlace(_) if n > nr => MC.min(m).next_multiple_of(mr) * KC.min(k),
        OperandA::InPlace(_) => mr * KC.min(k),
    };
    let b_len = KC.min(k) * NC.min(n).next_multiple_of(nr);
    with_pack_buffer(kernel.pool(), a_len + b_len, |buf| {
        let (a_pack, b_pack) = buf.split_at_mut(a_len);
        for jc in (0..n).step_by(NC) {
            let nb = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kb = KC.min(k - pc);
                kernel.pack_b(b.submatrix(pc, jc, kb, nb), b_pack);
                for ic in (0..m).step_by(MC) {
                    let mb = MC.min(m - ic);
                    // Rows of the block read in place: whole panels, unpacked.
                    let in_place = match a {
                        OperandA::InPlace(_) if n <= nr => mb - mb % mr,
                        _ => 0,
                    };
                    if let OperandA::InPlace(a) = a {
                        if in_place < mb {
                            let rest = a.submatrix(ic + in_place, pc, mb - in_place, kb);
                            kernel.pack_a(rest, a_pack);
                        }
                    }
                    let a_pack = &*a_pack;
                    let panel = |i: usize| match a {
                        OperandA::Packed(a) => a.panel(ic + i, pc, kb),
                        OperandA::InPlace(a) if i < in_place => a.submatrix(ic + i, pc, mr, kb),
                        OperandA::InPlace(_) => {
                            let at = (i - in_place) * kb;
                            MatView::from_slice(&a_pack[at..at + mr * kb], mr, kb, mr)
                        }
                    };
                    kernel.macro_kernel(alpha, kb, panel, b_pack, c.submatrix_mut(ic, jc, mb, nb));
                }
            }
        }
    });
}

/// Pack buffers of one precision, shared by the whole process. A `gemm` call
/// takes one for its duration and a [`PackedA`] for its life, and each puts
/// it back, so at most one buffer exists per concurrently running call and
/// per live `PackedA`. Not
/// `thread_local!`: the thread that calls an executor works in it, so every
/// thread that ever factored would keep a buffer for life, and two
/// uncontended lock operations per call are not measurable.
type PackPool<T> = Mutex<Vec<Vec<T>>>;

/// Runs `body` on a pack buffer of `len` elements from `pool`.
fn with_pack_buffer<T: Scalar, R>(
    pool: &PackPool<T>,
    len: usize,
    body: impl FnOnce(&mut [T]) -> R,
) -> R {
    let mut buf = take_buffer(pool, len);
    let out = body(&mut buf[..len]);
    give_back(pool, buf);
    out
}

/// A buffer of at least `len` elements from `pool`: the smallest that
/// holds `len`, else the largest, grown. Best fit leaves the large buffers
/// to the requests that need them; handing out the last buffer pushed let
/// the small requests of [`gemm_packed`] calls (which pack only `B`) take
/// them, and the next [`PackedA`] grow a small one, until every buffer had
/// the largest size any user needed.
fn take_buffer<T: Scalar>(pool: &PackPool<T>, len: usize) -> Vec<T> {
    let mut buf = {
        // A removal or a push leaves the pool valid at every step, so a
        // poisoned lock has nothing to protect.
        let mut pool = pool.lock().unwrap_or_else(PoisonError::into_inner);
        let fit = (0..pool.len())
            .filter(|&i| pool[i].len() >= len)
            .min_by_key(|&i| pool[i].len())
            .or_else(|| (0..pool.len()).max_by_key(|&i| pool[i].len()));
        fit.map(|i| pool.swap_remove(i)).unwrap_or_default()
    };
    if buf.len() < len {
        buf.resize(len, T::ZERO);
    }
    buf
}

/// Puts a buffer taken by [`take_buffer`] back into `pool`.
fn give_back<T: Scalar>(pool: &PackPool<T>, buf: Vec<T>) {
    pool.lock().unwrap_or_else(PoisonError::into_inner).push(buf);
}

/// Packs the block `a` into `MR`-row panels: panel `p` holds rows
/// `[p·MR, (p+1)·MR)`, step `l` of it the `MR` consecutive elements at
/// `(p·kb + l)·MR`; rows past the block are zero.
fn pack_a<T: Scalar, const MR: usize>(a: MatView<'_, T>, buf: &mut [T]) {
    let panel = a.cols() * MR;
    for l in 0..a.cols() {
        let mut at = l * MR;
        let mut chunks = a.col(l).chunks_exact(MR);
        for rows in &mut chunks {
            buf[at..at + MR].copy_from_slice(rows);
            at += panel;
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let dst = &mut buf[at..at + MR];
            dst[..rest.len()].copy_from_slice(rest);
            dst[rest.len()..].fill(T::ZERO);
        }
    }
}

/// Packs the block `b` into `NR`-column panels: panel `q` holds columns
/// `[q·NR, (q+1)·NR)`, step `l` of it the `NR` consecutive elements at
/// `(q·kb + l)·NR`; columns past the block are zero.
fn pack_b<T: Scalar, const NR: usize>(b: MatView<'_, T>, buf: &mut [T]) {
    let (kb, nb) = (b.rows(), b.cols());
    for (q, j0) in (0..nb).step_by(NR).enumerate() {
        let panel = &mut buf[q * kb * NR..(q + 1) * kb * NR];
        let w = NR.min(nb - j0);
        if w == NR {
            let cols: [&[T]; NR] = std::array::from_fn(|j| &b.col(j0 + j)[..kb]);
            for (l, row) in panel.chunks_exact_mut(NR).enumerate() {
                for j in 0..NR {
                    row[j] = cols[j][l];
                }
            }
        } else {
            panel.fill(T::ZERO);
            for j in 0..w {
                for (row, &v) in panel.chunks_exact_mut(NR).zip(b.col(j0 + j)) {
                    row[j] = v;
                }
            }
        }
    }
}

fn scale<T: Scalar>(beta: T, mut c: MatViewMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    for j in 0..c.cols() {
        if beta == T::ZERO {
            c.col_mut(j).fill(T::ZERO);
        } else {
            crate::blas1::scal(beta, c.col_mut(j));
        }
    }
}

/// Triangular solve with multiple right-hand sides (BLAS `DTRSM`, no
/// transpose): overwrites `B` with `alpha * op(A)^{-1} B` (`side == Left`)
/// or `alpha * B * op(A)^{-1}` (`side == Right`). Blocked, and independent
/// per right-hand column (`Left`) or row (`Right`): see the module
/// documentation.
///
/// The four `side x uplo` combinations cover everything LU needs:
/// * `Left/Lower/Unit` — compute `U12 = L11^{-1} A12` in the trailing update;
/// * `Left/Upper/NonUnit` — back-substitution;
/// * `Right/Upper/NonUnit` — TSLU step 6, `L_i = A_i U^{-1}`;
/// * `Right/Lower/Unit` — completes the API (used in tests).
///
/// Only the named triangle of `A` is read (and not its diagonal under
/// `Diag::Unit`), so a packed `L\U` block can be passed as is. A `B` with
/// no rows or no columns is returned untouched; `alpha == 0` zeroes `B`
/// without reading `A`. There is no skip-zero guard: a zero in `B` times
/// an infinity in the triangle is a NaN, as in [`gemm`] and `lu_rows` (only
/// the `Right` base case's `ger` passes over a triangle entry that is
/// exactly zero).
/// A non-finite value in `B` stays in its right-hand column (row); one in
/// the strict triangle reaches the unknown it couples and those solved
/// after it, in every column (row), and nothing solved before.
///
/// # Panics
/// If `A` is not square or shapes mismatch.
pub fn trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: T,
    a: MatView<'_, T>,
    b: MatViewMut<'_, T>,
) {
    trsm_on(Arm::detect(), side, uplo, diag, alpha, a, b);
}

/// [`trsm`] on a stated `gemm` arm. `trsm` is this with [`Arm::detect`];
/// tests call it to hold every arm to one contract on one host.
///
/// # Panics
/// As [`trsm`].
pub fn trsm_on<T: Scalar>(
    arm: Arm,
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: T,
    a: MatView<'_, T>,
    b: MatViewMut<'_, T>,
) {
    trsm::trsm_on(arm, side, uplo, diag, alpha, a, b);
}

/// Reference `gemm` as a naive triple loop; used by tests and property checks
/// to validate the blocked kernel.
pub fn gemm_naive<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k);
    assert_eq!(c.rows(), m);
    assert_eq!(c.cols(), n);
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for l in 0..k {
                acc += a.get(i, l) * b.get(l, j);
            }
            let cur = c.get(i, j);
            c.set(i, j, alpha * acc + beta * cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        let d = a.max_abs_diff(b);
        assert!(d < tol, "matrices differ by {d}");
    }

    #[test]
    fn gemm_matches_naive_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in
            &[(1, 1, 1), (5, 3, 4), (37, 19, 23), (64, 64, 64), (129, 65, 140), (300, 17, 260)]
        {
            let a = gen::randn(&mut rng, m, k);
            let b = gen::randn(&mut rng, k, n);
            let c0 = gen::randn(&mut rng, m, n);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            gemm(1.5, a.view(), b.view(), -0.5, c1.view_mut());
            gemm_naive(1.5, a.view(), b.view(), -0.5, c2.view_mut());
            assert_close(&c1, &c2, 1e-10 * (k as f64));
        }
    }

    /// Every arm the host can run: the portable one, and each SIMD arm
    /// whose features it has.
    fn arms() -> impl Iterator<Item = Arm> {
        [Some(Arm::portable()), Arm::avx2_fma(), Arm::avx512()].into_iter().flatten()
    }

    #[test]
    fn detect_takes_the_widest_arm_the_host_offers() {
        let offered = |arm: Option<Arm>| if arm.is_some() { "yes" } else { "no" };
        // CI runs this with --nocapture so the log says which arm was tested.
        println!(
            "gemm arm: {} (host offers avx512: {}, avx2+fma: {})",
            Arm::detect().name(),
            offered(Arm::avx512()),
            offered(Arm::avx2_fma())
        );
        let want = match (Arm::avx512(), Arm::avx2_fma()) {
            (Some(_), _) => "avx512",
            (None, Some(_)) => "avx2+fma",
            (None, None) => "portable",
        };
        assert_eq!(Arm::detect().name(), want);
    }

    /// `gemm_on(arm)` against `gemm_naive` on one shape: non-finite entries
    /// must agree in kind (NaN, +Inf, -Inf), finite ones to rounding.
    fn check_against_naive<T: Scalar>(
        arm: Arm,
        (alpha, beta): (f64, f64),
        a: &Matrix<T>,
        b: &Matrix<T>,
        c0: &Matrix<T>,
    ) {
        let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
        let mut got = c0.clone();
        let mut want = c0.clone();
        gemm_on(arm, alpha, a.view(), b.view(), beta, got.view_mut());
        gemm_naive(alpha, a.view(), b.view(), beta, want.view_mut());
        let tol = 8.0 * T::EPSILON.to_f64() * (a.cols() as f64 + 2.0);
        for j in 0..c0.cols() {
            for i in 0..c0.rows() {
                let (g, w) = (got[(i, j)].to_f64(), want[(i, j)].to_f64());
                let at = format!(
                    "{} {} C({i},{j}) of {}x{}x{}",
                    arm.name(),
                    T::NAME,
                    c0.rows(),
                    a.cols(),
                    c0.cols()
                );
                if w.is_finite() {
                    assert!((g - w).abs() <= tol * (1.0 + w.abs()), "{at}: {g} vs {w}");
                } else {
                    assert!(g == w || (g.is_nan() && w.is_nan()), "{at}: {g} vs {w}");
                }
            }
        }
    }

    fn edge_shapes<T: Scalar>() {
        let mut rng = StdRng::seed_from_u64(9);
        for arm in arms() {
            let kernel = T::gemm_ukernel(arm);
            let (mr, nr) = (kernel.mr(), kernel.nr());
            let ms = [0, 1, mr - 1, mr, mr + 1];
            let ns = [0, 1, nr - 1, nr, nr + 1];
            for &m in &ms {
                for &n in &ns {
                    for &k in ms.iter().chain(&ns) {
                        let a = gen::randn::<T>(&mut rng, m, k);
                        let b = gen::randn::<T>(&mut rng, k, n);
                        let c0 = gen::randn::<T>(&mut rng, m, n);
                        check_against_naive(arm, (1.5, -0.5), &a, &b, &c0);
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_edge_shapes_match_naive_on_both_arms() {
        edge_shapes::<f64>();
        edge_shapes::<f32>();
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C, in full and in
        // ragged register tiles.
        for arm in arms() {
            let mr = f64::gemm_ukernel(arm).mr();
            for n in [2, mr + 1, 2 * mr + 1] {
                let a = Matrix::identity(n);
                let b = Matrix::identity(n);
                let mut c = Matrix::from_fn(n, n, |_, _| f64::NAN);
                gemm_on(arm, 1.0, a.view(), b.view(), 0.0, c.view_mut());
                assert_eq!(c, Matrix::identity(n), "{} n={n}", arm.name());
            }
        }
    }

    fn non_finite_stays_in_its_row_and_column<T: Scalar>() {
        // A non-finite value in the last valid row of A (column of B) sits
        // next to the zero padding of a ragged panel. It must reach row
        // `m-1` (column `n-1`) of C and nothing else: `0 * Inf` in the
        // padding may not leak.
        let mut rng = StdRng::seed_from_u64(10);
        for arm in arms() {
            let kernel = T::gemm_ukernel(arm);
            let (m, n, k) = (2 * kernel.mr() + 1, 2 * kernel.nr() + 1, 7);
            for bad in [T::INFINITY, T::NEG_INFINITY, T::from_f64(f64::NAN)] {
                let a0 = gen::randn::<T>(&mut rng, m, k);
                let b0 = gen::randn::<T>(&mut rng, k, n);
                let c0 = gen::randn::<T>(&mut rng, m, n);
                let mut a = a0.clone();
                a[(m - 1, 3)] = bad;
                check_against_naive(arm, (-1.0, 1.0), &a, &b0, &c0);
                let mut b = b0.clone();
                b[(3, n - 1)] = bad;
                check_against_naive(arm, (-1.0, 1.0), &a0, &b, &c0);

                let mut c = c0.clone();
                gemm_on(arm, -T::ONE, a.view(), b0.view(), T::ONE, c.view_mut());
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(c[(i, j)].is_finite(), i != m - 1, "{} ({i},{j})", arm.name());
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_non_finite_inputs_do_not_leak_through_padding() {
        non_finite_stays_in_its_row_and_column::<f64>();
        non_finite_stays_in_its_row_and_column::<f32>();
    }

    #[test]
    fn gemm_empty_k_scales_only() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::from_fn(3, 2, |_, _| 2.0);
        gemm(1.0, a.view(), b.view(), 0.5, c.view_mut());
        assert_eq!(c, Matrix::from_fn(3, 2, |_, _| 1.0));
    }

    fn random_lower_unit(rng: &mut StdRng, n: usize) -> Matrix {
        let mut l = gen::randn(rng, n, n);
        for i in 0..n {
            for j in 0..n {
                if j > i {
                    l[(i, j)] = 0.0;
                } else if j == i {
                    l[(i, j)] = 1.0;
                } else {
                    l[(i, j)] *= 0.3; // keep well-conditioned
                }
            }
        }
        l
    }

    fn random_upper(rng: &mut StdRng, n: usize) -> Matrix {
        let mut u = gen::randn(rng, n, n);
        for i in 0..n {
            for j in 0..n {
                if j < i {
                    u[(i, j)] = 0.0;
                } else if j == i {
                    u[(i, j)] = 2.0 + u[(i, j)].abs();
                }
            }
        }
        u
    }

    #[test]
    fn trsm_left_lower_unit_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = random_lower_unit(&mut rng, 17);
        let b0 = gen::randn(&mut rng, 17, 9);
        let mut x = b0.clone();
        trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, l.view(), x.view_mut());
        let mut back = Matrix::zeros(17, 9);
        gemm(1.0, l.view(), x.view(), 0.0, back.view_mut());
        assert_close(&back, &b0, 1e-10);
    }

    #[test]
    fn trsm_left_upper_nonunit_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let u = random_upper(&mut rng, 13);
        let b0 = gen::randn(&mut rng, 13, 5);
        let mut x = b0.clone();
        trsm(Side::Left, Uplo::Upper, Diag::NonUnit, 1.0, u.view(), x.view_mut());
        let mut back = Matrix::zeros(13, 5);
        gemm(1.0, u.view(), x.view(), 0.0, back.view_mut());
        assert_close(&back, &b0, 1e-9);
    }

    #[test]
    fn trsm_right_upper_nonunit_round_trip() {
        // TSLU step 6: L = A U^{-1}  =>  L U = A.
        let mut rng = StdRng::seed_from_u64(5);
        let u = random_upper(&mut rng, 8);
        let a0 = gen::randn(&mut rng, 20, 8);
        let mut l = a0.clone();
        trsm(Side::Right, Uplo::Upper, Diag::NonUnit, 1.0, u.view(), l.view_mut());
        let mut back = Matrix::zeros(20, 8);
        gemm(1.0, l.view(), u.view(), 0.0, back.view_mut());
        assert_close(&back, &a0, 1e-9);
    }

    #[test]
    fn trsm_right_lower_unit_round_trip() {
        let mut rng = StdRng::seed_from_u64(6);
        let l_tri = random_lower_unit(&mut rng, 7);
        let b0 = gen::randn(&mut rng, 11, 7);
        let mut x = b0.clone();
        trsm(Side::Right, Uplo::Lower, Diag::Unit, 1.0, l_tri.view(), x.view_mut());
        let mut back = Matrix::zeros(11, 7);
        gemm(1.0, x.view(), l_tri.view(), 0.0, back.view_mut());
        assert_close(&back, &b0, 1e-10);
    }

    #[test]
    fn trsm_alpha_scales_rhs() {
        let l = Matrix::identity(3);
        let mut b = Matrix::from_fn(3, 2, |_, _| 1.0);
        trsm(Side::Left, Uplo::Lower, Diag::Unit, 2.0, l.view(), b.view_mut());
        assert_eq!(b, Matrix::from_fn(3, 2, |_, _| 2.0));
    }
}
