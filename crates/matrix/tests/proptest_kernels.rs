//! Property-based tests on the kernel substrate: factorization identities,
//! triangular-solve round trips, pivot-kernel equivalences, and norm
//! inequalities over randomized shapes.

use calu_matrix::blas1::iamax_on;
use calu_matrix::blas2::{gemv, gemv_t, trmv, trsv_t};
use calu_matrix::blas3::{gemm, gemm_on, gemm_packed, trsm, trsm_on, Arm, PackedA};
use calu_matrix::lapack::{
    gecon, getf2, getf2_info, getf2_info_on, getrf, getri, getrs, getrs_t, lu_nopiv, lu_rows_on,
    rgetf2, rgetf2_info, rgetf2_info_on, GetrfOpts, PanelAlg,
};
use calu_matrix::norms::{mat_norm_1, mat_norm_inf};
use calu_matrix::perm::{ipiv_to_perm, permute_rows};
use calu_matrix::{gen, Diag, Error, MatView, Matrix, NoObs, PivotObserver, Scalar, Side, Uplo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn randn_mat(seed: u64, m: usize, n: usize) -> Matrix {
    gen::randn(&mut StdRng::seed_from_u64(seed), m, n)
}

fn plu_error(orig: &Matrix, lu: &Matrix, ipiv: &[usize]) -> f64 {
    let perm = ipiv_to_perm(ipiv, orig.rows());
    let pa = permute_rows(orig, &perm);
    let l = lu.unit_lower();
    let u = lu.upper();
    let mut prod = Matrix::zeros(orig.rows(), orig.cols());
    gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
    pa.max_abs_diff(&prod) / orig.max_abs().max(1.0)
}

/// Cuts `0..len` into consecutive pieces of arbitrary sizes `(start, size)`.
fn partition(rng: &mut StdRng, len: usize) -> Vec<(usize, usize)> {
    let mut pieces = Vec::new();
    let mut at = 0;
    while at < len {
        let size = rng.gen_range(1..(len - at).min(70) + 1);
        pieces.push((at, size));
        at += size;
    }
    pieces
}

/// The bit patterns of a matrix (every `f32` widens to `f64` exactly).
fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u64> {
    (0..m.cols()).flat_map(|j| m.col(j).iter().map(|v| v.to_f64().to_bits())).collect()
}

/// `gemm` on the whole of `C` against `gemm` piece by piece over an arbitrary
/// partition of `C`'s rows and columns, and against `gemm` one column of `C`
/// at a time (a one-panel `B`, whose `A` is read in place), on one arm,
/// through strided windows (`ld = rows + pad`) of larger matrices. Returns
/// the three results.
fn whole_and_pieces<T: Scalar>(
    arm: Arm,
    seed: u64,
    (m, n, k): (usize, usize, usize),
    (alpha, beta): (f64, f64),
    pad: usize,
) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
    let a_store = gen::randn::<T>(&mut rng, m + pad, k);
    let b_store = gen::randn::<T>(&mut rng, k + pad, n);
    let c0 = gen::randn::<T>(&mut rng, m + pad, n);
    let a = a_store.view().submatrix(pad / 2, 0, m, k);
    let b = b_store.view().submatrix(pad / 2, 0, k, n);

    let mut whole = c0.clone();
    gemm_on(arm, alpha, a, b, beta, whole.view_mut().into_submatrix(pad / 2, 0, m, n));

    let mut pieces = c0.clone();
    let cols = partition(&mut rng, n);
    for (i, h) in partition(&mut rng, m) {
        for &(j, w) in &cols {
            let c = pieces.view_mut().into_submatrix(pad / 2 + i, j, h, w);
            gemm_on(arm, alpha, a.submatrix(i, 0, h, k), b.submatrix(0, j, k, w), beta, c);
        }
    }

    let mut columns = c0;
    for j in 0..n {
        let c = columns.view_mut().into_submatrix(pad / 2, j, m, 1);
        gemm_on(arm, alpha, a, b.submatrix(0, j, k, 1), beta, c);
    }
    (whole, pieces, columns)
}

proptest! {
    // Debug builds run the micro-kernels unoptimized; a dozen cases already
    // cover full, ragged and KC-split blocks at both precisions.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_gemm_is_position_independent_on_both_arms(
        seed in 0u64..1_000_000,
        m in 1usize..200, n in 1usize..200, k in 1usize..300,
        alpha in 0usize..3, beta in 0usize..3, pad in 1usize..9,
    ) {
        // k straddles KC = 256; alpha/beta cover the identity, the LU update
        // and a general scale; the windows have ld > rows.
        let scale = ([1.0, -1.0, 1.5][alpha], [0.0, 1.0, -0.5][beta]);
        for arm in arms() {
            let (whole, pieces, cols) = whole_and_pieces::<f64>(arm, seed, (m, n, k), scale, pad);
            prop_assert!(bits(&whole) == bits(&pieces), "f64 differs on the {} arm", arm.name());
            prop_assert!(bits(&whole) == bits(&cols), "f64 columns differ on {}", arm.name());
            let (whole, pieces, cols) = whole_and_pieces::<f32>(arm, seed, (m, n, k), scale, pad);
            prop_assert!(bits(&whole) == bits(&pieces), "f32 differs on the {} arm", arm.name());
            prop_assert!(bits(&whole) == bits(&cols), "f32 columns differ on {}", arm.name());
        }
    }

    #[test]
    fn fused_arms_agree_bitwise(
        seed in 0u64..1_000_000,
        m in 1usize..200, n in 1usize..200, k in 1usize..300,
        alpha in 0usize..3, beta in 0usize..3, pad in 1usize..9,
    ) {
        // Both SIMD arms accumulate with one fused multiply-add per step
        // from zero and fold with fma(alpha, sum, c): different register
        // tiles, same bits — whole or piece by piece.
        let (Some(wide), Some(narrow)) = (Arm::avx512(), Arm::avx2_fma()) else {
            println!("fused_arms_agree_bitwise skipped: no avx512f");
            return Ok(());
        };
        let scale = ([1.0, -1.0, 1.5][alpha], [0.0, 1.0, -0.5][beta]);
        let (whole, pieces, _) = whole_and_pieces::<f64>(wide, seed, (m, n, k), scale, pad);
        let (want, _, _) = whole_and_pieces::<f64>(narrow, seed, (m, n, k), scale, pad);
        prop_assert!(bits(&whole) == bits(&want) && bits(&pieces) == bits(&want), "f64 differs");
        let (whole, pieces, _) = whole_and_pieces::<f32>(wide, seed, (m, n, k), scale, pad);
        let (want, _, _) = whole_and_pieces::<f32>(narrow, seed, (m, n, k), scale, pad);
        prop_assert!(bits(&whole) == bits(&want) && bits(&pieces) == bits(&want), "f32 differs");
    }
}

/// `gemm_packed` against `gemm_on` on the arm `A` was packed for, bit for
/// bit: one packed `A` (cut from a strided window) per shape, reused against
/// every `B` and `C`, across ragged and whole register panels, `MC` and
/// `KC` blocks, one-column and multi-panel `B`. The six `(α, β)` pairs take
/// turns over the calls; five widths of `B` per `A` and six pairs put every
/// width with every pair within 30 calls.
fn packed_is_gemm_on<T: Scalar>(arm: Arm, rng: &mut StdRng) {
    let kernel = T::gemm_ukernel(arm);
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let scalars = [-1.0, 1.5].map(|x| [(x, 0.0), (x, 1.0), (x, -0.5)]).concat();
    let mut turn = 0;
    for m in [1, mr - 1, mr, mr + 1, 191, 192, 193, 256, 300] {
        for k in [1, 63, 64, 256, 257, 600] {
            let a_store = gen::randn::<T>(rng, m + 3, k);
            let a = a_store.view().submatrix(1, 0, m, k);
            let packed = PackedA::new_on(arm, a);
            for n in [1, nr - 1, nr, nr + 1, 64] {
                let b = gen::randn::<T>(rng, k, n);
                let c0 = gen::randn::<T>(rng, m, n);
                let (alpha, beta) = scalars[turn % scalars.len()];
                turn += 1;
                let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                let mut want = c0.clone();
                gemm_on(arm, alpha, a, b.view(), beta, want.view_mut());
                let mut got = c0.clone();
                gemm_packed(alpha, &packed, b.view(), beta, got.view_mut());
                let at =
                    format!("{} {} {m}x{k}x{n} alpha={alpha} beta={beta}", arm.name(), T::NAME);
                assert!(bits(&got) == bits(&want), "{at}");
            }
        }
    }
}

#[test]
fn gemm_packed_is_gemm_on_on_every_arm() {
    simd_arms("gemm_packed_is_gemm_on_on_every_arm");
    let mut rng = StdRng::seed_from_u64(35);
    for arm in arms() {
        packed_is_gemm_on::<f64>(arm, &mut rng);
        packed_is_gemm_on::<f32>(arm, &mut rng);
    }
}

/// The one-column loop (`gemm_on` with one column of `B`) against the same
/// column of a multi-column call — `A` read in place (two columns) and
/// packed (`NR + 1`) — over several row blocks and `KC` blocks, with
/// `−0.0`, subnormals, `±∞`, NaN and exact zeros in `A`, `B` and `C`, and an
/// all-zero column of `B`: the same bits, NaN where the batch has NaN. Under
/// `α = 0` and `β = 1` the column is left untouched.
fn one_column_is_its_batch_column<T: Scalar>(arm: Arm, rng: &mut StdRng) {
    let nr = T::gemm_ukernel(arm).nr();
    for (m, k) in [(1, 1), (7, 3), (511, 5), (512, 256), (513, 257), (1100, 64), (2100, 800)] {
        let a = spiced::<T>(rng, m, k, (m * k / 4).max(1));
        for n in [2, nr + 1] {
            let mut b = spiced::<T>(rng, k, n, 2 * k);
            b.view_mut().submatrix_mut(0, n - 1, k, 1).fill(T::ZERO);
            let c0 = spiced::<T>(rng, m, n, 64);
            for (alpha, beta) in [(-1.0, 1.0), (1.5, -0.5), (1.0, 0.0), (0.0, 1.0)] {
                let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                let mut batch = c0.clone();
                gemm_on(arm, alpha, a.view(), b.view(), beta, batch.view_mut());
                for j in 0..n {
                    let mut col = c0.view().submatrix(0, j, m, 1).to_matrix();
                    gemm_on(
                        arm,
                        alpha,
                        a.view(),
                        b.view().submatrix(0, j, k, 1),
                        beta,
                        col.view_mut(),
                    );
                    let at = format!(
                        "{} {} {m}x{k} column {j} of {n} alpha={alpha} beta={beta}",
                        arm.name(),
                        T::NAME
                    );
                    assert!(nan_bits(col.col(0)) == nan_bits(batch.col(j)), "{at}");
                    if alpha == T::ZERO && beta == T::ONE {
                        assert!(
                            bits(&col) == bits(&c0.view().submatrix(0, j, m, 1).to_matrix()),
                            "{at}: C touched"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn one_column_gemm_is_its_batch_column_on_every_arm() {
    simd_arms("one_column_gemm_is_its_batch_column_on_every_arm");
    let mut rng = StdRng::seed_from_u64(36);
    for arm in arms() {
        one_column_is_its_batch_column::<f64>(arm, &mut rng);
        one_column_is_its_batch_column::<f32>(arm, &mut rng);
    }
}

/// Panel widths the `lu_rows` properties run at: one column, one short of,
/// exactly and one past the recursion's base width, and the same around the
/// benchmark's 64.
const PANEL_WIDTHS: [usize; 6] = [1, 7, 8, 9, 63, 64];

/// Every `gemm` arm this host can run.
fn arms() -> impl Iterator<Item = Arm> {
    [Some(Arm::portable()), Arm::avx2_fma(), Arm::avx512()].into_iter().flatten()
}

/// A `(jb + h) × jb` panel whose top block is diagonally dominant — the
/// shape tournament pivoting leaves behind, safe to factor unpivoted — in
/// rows `pad/2..` of a store with `ld = jb + h + pad`.
fn panel_store<T: Scalar>(seed: u64, jb: usize, h: usize, pad: usize) -> Matrix<T> {
    let mut store = gen::randn::<T>(&mut StdRng::seed_from_u64(seed), jb + h + pad, jb);
    for j in 0..jb {
        store[(pad / 2 + j, j)] += T::from_f64(2.0 * jb as f64);
    }
    store
}

/// Factors the top block of `store`'s panel, then forms the rows below it
/// with one `lu_rows_on` call per piece of `pieces` (consecutive
/// `(start, size)` over the `h` rows). Returns the column maxima.
fn split_factor<T: Scalar>(
    arm: Arm,
    store: &mut Matrix<T>,
    (jb, h, pad): (usize, usize, usize),
    pieces: &[(usize, usize)],
) -> Vec<T> {
    let panel = store.view_mut().into_submatrix(pad / 2, 0, jb + h, jb);
    let (mut top, mut below) = panel.split_at_row_mut(jb);
    lu_nopiv(top.rb_mut(), &mut NoObs).expect("dominant top block");
    let mut col_max = vec![T::ZERO; jb];
    for &(i, size) in pieces {
        lu_rows_on(
            arm,
            top.as_view(),
            below.submatrix_mut(i, 0, size, jb),
            &mut col_max,
            &mut NoObs,
        )
        .expect("nonsingular U11");
    }
    col_max
}

/// Row independence, reconstruction and fault containment of `lu_rows` at
/// one precision on one arm; `Err` names the property that failed.
fn check_lu_rows<T: Scalar>(
    arm: Arm,
    seed: u64,
    jb: usize,
    h: usize,
    pad: usize,
) -> Result<(), String> {
    let dims = (jb, h, pad);
    let store0 = panel_store::<T>(seed, jb, h, pad);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);

    // One call over all rows against arbitrary pieces, and against pieces
    // that start with single rows (all single rows when there are few).
    let mut whole = store0.clone();
    let max_whole = split_factor(arm, &mut whole, dims, &[(0, h)]);
    let singles = if h <= 40 { h } else { 3 };
    let mut ones: Vec<(usize, usize)> = (0..singles).map(|i| (i, 1)).collect();
    if singles < h {
        ones.push((singles, h - singles));
    }
    for pieces in [partition(&mut rng, h), ones] {
        let mut cut = store0.clone();
        let max_cut = split_factor(arm, &mut cut, dims, &pieces);
        if bits(&whole) != bits(&cut) {
            return Err(format!("rows depend on the chunking {pieces:?}"));
        }
        if max_whole
            .iter()
            .map(|v| v.to_f64().to_bits())
            .ne(max_cut.iter().map(|v| v.to_f64().to_bits()))
        {
            return Err(format!("column maxima depend on the chunking {pieces:?}"));
        }
    }

    // L·U gives the panel back.
    let orig = store0.view().submatrix(pad / 2, 0, jb + h, jb).to_matrix();
    let lu = whole.view().submatrix(pad / 2, 0, jb + h, jb).to_matrix();
    let mut prod = Matrix::<T>::zeros(jb + h, jb);
    gemm(
        T::ONE,
        lu.unit_lower().view(),
        lu.upper().view().submatrix(0, 0, jb, jb),
        T::ZERO,
        prod.view_mut(),
    );
    let tol = 8.0 * jb as f64 * T::EPSILON.to_f64() * orig.max_abs().to_f64();
    let err = orig.max_abs_diff(&prod).to_f64();
    if err > tol {
        return Err(format!("reconstruction error {err} > {tol}"));
    }

    // A NaN or an infinity in one row stays in that row.
    for poison in [T::from_f64(f64::NAN), T::from_f64(f64::INFINITY)] {
        let (r, c) = (rng.gen_range(0..h), rng.gen_range(0..jb));
        let mut dirty = store0.clone();
        dirty[(pad / 2 + jb + r, c)] = poison;
        split_factor(arm, &mut dirty, dims, &[(0, h)]);
        let row = |m: &Matrix<T>, i: usize| -> Vec<u64> {
            (0..jb).map(|j| m[(pad / 2 + jb + i, j)].to_f64().to_bits()).collect()
        };
        if (0..h).any(|i| i != r && row(&dirty, i) != row(&whole, i)) {
            return Err(format!("a non-finite entry in row {r} reached another row"));
        }
        if (0..jb).all(|j| dirty[(pad / 2 + jb + r, j)].is_finite()) {
            return Err(format!("the non-finite entry in row {r} vanished"));
        }
    }

    // A zero or non-finite pivot: full-height lu_nopiv, the top-block
    // factorization and lu_rows on its own all name the same step.
    let s = rng.gen_range(0..jb);
    for bad in [T::ZERO, T::from_f64(f64::NAN), T::from_f64(f64::NEG_INFINITY)] {
        let mut broken = store0.clone();
        if bad == T::ZERO {
            // A zero column stays zero under every earlier update.
            broken.col_mut(s)[pad / 2..pad / 2 + jb + h].fill(T::ZERO);
        } else {
            // Row s is only written, never read, before step s.
            broken[(pad / 2 + s, s)] = bad;
        }
        let want = Err(Error::SingularPivot { step: s });
        let mut full = broken.clone();
        if lu_nopiv(full.view_mut().into_submatrix(pad / 2, 0, jb + h, jb), &mut NoObs) != want {
            return Err(format!("full-height lu_nopiv did not fail at step {s}"));
        }
        let panel = broken.view_mut().into_submatrix(pad / 2, 0, jb + h, jb);
        let (mut top, below) = panel.split_at_row_mut(jb);
        if lu_nopiv(top.rb_mut(), &mut NoObs) != want {
            return Err(format!("top-block lu_nopiv did not fail at step {s}"));
        }
        let rows_before = below.as_view().to_matrix();
        let got = lu_rows_on(arm, top.as_view(), below, &mut vec![T::ZERO; jb], &mut NoObs);
        if got != want {
            return Err(format!("lu_rows reported {got:?}, not step {s}"));
        }
        let rows_after = broken.view().submatrix(pad / 2 + jb, 0, h, jb).to_matrix();
        if bits(&rows_before) != bits(&rows_after) {
            return Err("lu_rows changed rows before reporting a singular U11".into());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_lu_rows_is_row_independent_on_both_arms(
        seed in 0u64..1_000_000,
        width in 0usize..PANEL_WIDTHS.len(),
        h in 1usize..2400,
        pad in 1usize..9,
    ) {
        // h straddles the kernel's 1024-row cache blocks; the windows have
        // ld > rows.
        let jb = PANEL_WIDTHS[width];
        for arm in arms() {
            if let Err(why) = check_lu_rows::<f64>(arm, seed, jb, h, pad) {
                prop_assert!(false, "f64, {} arm, jb={jb} h={h}: {why}", arm.name());
            }
            if let Err(why) = check_lu_rows::<f32>(arm, seed, jb, h, pad) {
                prop_assert!(false, "f32, {} arm, jb={jb} h={h}: {why}", arm.name());
            }
        }
    }
}

/// Triangle orders the `trsm` properties run at: one row, one short of,
/// exactly and one past the width at which the recursion bottoms out, the
/// same around the benchmark's 64, and an order that is no power of two.
const TRIANGLE_ORDERS: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 100];

/// A packed `n × n` block holding a well-conditioned triangle of either
/// kind: both strict triangles populated (small), the diagonal away from
/// zero — `trsm` must read the named one only, and not the diagonal under
/// `Diag::Unit`.
fn packed_triangles<T: Scalar>(rng: &mut StdRng, n: usize) -> Matrix<T> {
    let mut a = gen::randn::<T>(rng, n, n);
    for j in 0..n {
        for i in 0..n {
            a[(i, j)] *= T::from_f64(0.5 / n as f64);
        }
        a[(j, j)] += T::from_f64(1.5);
    }
    a
}

/// `alpha · op(A)⁻¹ B` (`Left`) or `alpha · B · op(A)⁻¹` (`Right`) by plain
/// substitution, one right-hand column (row) at a time, each unknown as one
/// running difference divided by the diagonal.
fn trsm_naive<T: Scalar>(
    (side, uplo, diag): (Side, Uplo, Diag),
    alpha: T,
    a: MatView<'_, T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let n = a.rows();
    let mut x = Matrix::<T>::zeros(b.rows(), b.cols());
    let order: Vec<usize> = match (side, uplo) {
        (Side::Left, Uplo::Lower) | (Side::Right, Uplo::Upper) => (0..n).collect(),
        _ => (0..n).rev().collect(),
    };
    let free = if side == Side::Left { b.cols() } else { b.rows() };
    for f in 0..free {
        // Unknown `t` of this column (row) and the triangle entry coupling
        // it to unknown `u`.
        let at = |t: usize| if side == Side::Left { (t, f) } else { (f, t) };
        let coupling =
            |t: usize, u: usize| if side == Side::Left { a.get(t, u) } else { a.get(u, t) };
        for (done, &t) in order.iter().enumerate() {
            let mut s = alpha * b[at(t)];
            for &u in &order[..done] {
                s -= coupling(t, u) * x[at(u)];
            }
            x[at(t)] = if diag == Diag::NonUnit { s / a.get(t, t) } else { s };
        }
    }
    x
}

/// One `trsm_on` call per piece of `pieces` (consecutive `(start, size)`
/// over the free dimension of the right-hand block, which sits at
/// `(off, 0)` of `store`).
fn solve_in_pieces<T: Scalar>(
    arm: Arm,
    (side, uplo, diag): (Side, Uplo, Diag),
    alpha: T,
    a: MatView<'_, T>,
    store: &mut Matrix<T>,
    (off, rows, cols): (usize, usize, usize),
    pieces: &[(usize, usize)],
) {
    let mut b = store.view_mut().into_submatrix(off, 0, rows, cols);
    for &(at, size) in pieces {
        let piece = match side {
            Side::Left => b.submatrix_mut(0, at, rows, size),
            Side::Right => b.submatrix_mut(at, 0, size, cols),
        };
        trsm_on(arm, side, uplo, diag, alpha, a, piece);
    }
}

/// The `trsm` contract on one case, at one precision on one arm: agreement
/// with the naive reference, independence of the right-hand columns (rows)
/// from how they are cut into calls and from the leading dimension, and
/// containment of non-finite values; `Err` names the property that failed.
fn check_trsm<T: Scalar>(
    arm: Arm,
    seed: u64,
    what: (Side, Uplo, Diag),
    n: usize,
    free: usize,
    alpha: f64,
) -> Result<(), String> {
    let (side, uplo, _) = what;
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = T::from_f64(alpha);
    // The triangle as a window of a taller store, like a diagonal block of
    // a flat matrix.
    let a_store = {
        let mut s = gen::randn::<T>(&mut rng, n + 5, n);
        let tri = packed_triangles::<T>(&mut rng, n);
        s.view_mut().into_submatrix(3, 0, n, n).copy_from(tri.view());
        s
    };
    let a = a_store.view().submatrix(3, 0, n, n);
    let (rows, cols) = if side == Side::Left { (n, free) } else { (free, n) };
    let b0 = gen::randn::<T>(&mut rng, rows, cols);
    let in_store = |ld: usize, off: usize, b: &Matrix<T>| {
        let mut store =
            Matrix::from_fn(ld, cols, |i, j| T::from_f64(((i * 31 + j * 17) % 13) as f64));
        store.view_mut().into_submatrix(off, 0, rows, cols).copy_from(b.view());
        store
    };
    let block =
        |store: &Matrix<T>, off: usize| store.view().submatrix(off, 0, rows, cols).to_matrix();

    // One call on a contiguous block: the reference bits, and within
    // c·n·eps of the naive substitution.
    let mut whole = b0.clone();
    trsm_on(arm, side, what.1, what.2, alpha, a, whole.view_mut());
    let want = trsm_naive(what, alpha, a, &b0);
    let tol = 16.0 * (n as f64 + 1.0) * T::EPSILON.to_f64() * want.max_abs().to_f64().max(1.0);
    let err = whole.max_abs_diff(&want).to_f64();
    if err.is_nan() || err > tol {
        return Err(format!("differs from the naive solve by {err} > {tol}"));
    }

    // Any partition of the free dimension into calls, through a tile-like, a
    // flat-matrix-like and a ragged leading dimension, gives those bits —
    // and leaves the rest of the store alone.
    let singles = free.min(3);
    let mut ones: Vec<(usize, usize)> = (0..singles).map(|i| (i, 1)).collect();
    if singles < free {
        ones.push((singles, free - singles));
    }
    for ld in [rows.max(64), rows.max(1536), rows + 1 + (seed % 7) as usize] {
        let off = (ld - rows) / 2;
        let store0 = in_store(ld, off, &b0);
        for pieces in [vec![(0, free)], partition(&mut rng, free), ones.clone()] {
            let mut store = store0.clone();
            solve_in_pieces(arm, what, alpha, a, &mut store, (off, rows, cols), &pieces);
            if bits(&block(&store, off)) != bits(&whole) {
                return Err(format!("bits depend on ld={ld} or the chunking {pieces:?}"));
            }
            store.view_mut().into_submatrix(off, 0, rows, cols).copy_from(b0.view());
            if bits(&store) != bits(&store0) {
                return Err(format!("wrote outside the block at ld={ld}"));
            }
        }
    }
    if alpha == T::ZERO {
        return Ok(());
    }

    // A NaN or an infinity in B stays in its right-hand column (row).
    let line = |m: &Matrix<T>, f: usize| -> Vec<u64> {
        let (r, c) = if side == Side::Left { (0..rows, f..f + 1) } else { (f..f + 1, 0..cols) };
        bits(&m.view().submatrix(r.start, c.start, r.len(), c.len()).to_matrix())
    };
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(T::from_f64) {
        let (f, t) = (rng.gen_range(0..free), rng.gen_range(0..n));
        let mut dirty = b0.clone();
        dirty[if side == Side::Left { (t, f) } else { (f, t) }] = poison;
        trsm_on(arm, side, what.1, what.2, alpha, a, dirty.view_mut());
        if (0..free).any(|g| g != f && line(&dirty, g) != line(&whole, g)) {
            return Err(format!("a non-finite entry of B in line {f} reached another line"));
        }
        if line(&dirty, f) == line(&whole, f) {
            return Err(format!("the non-finite entry of B in line {f} vanished"));
        }
    }

    // A non-finite entry of the strict triangle reaches the unknown it
    // couples and nothing that is solved before it, and does not panic.
    if n > 1 {
        let (lo, hi) = {
            let x = rng.gen_range(0..n - 1);
            (x, rng.gen_range(x + 1..n))
        };
        let at = if uplo == Uplo::Lower { (hi, lo) } else { (lo, hi) };
        // The unknown whose equation holds the entry, and the ones solved
        // before it.
        let (hit, before): (usize, Vec<usize>) = match (side, uplo) {
            (Side::Left, Uplo::Lower) | (Side::Right, Uplo::Upper) => (hi, (0..hi).collect()),
            _ => (lo, (lo + 1..n).collect()),
        };
        for poison in [f64::NAN, f64::INFINITY].map(T::from_f64) {
            let mut bad = a_store.clone();
            bad[(3 + at.0, at.1)] = poison;
            let mut dirty = b0.clone();
            trsm_on(
                arm,
                side,
                what.1,
                what.2,
                alpha,
                bad.view().submatrix(3, 0, n, n),
                dirty.view_mut(),
            );
            for f in 0..free {
                let cell = |t: usize| if side == Side::Left { (t, f) } else { (f, t) };
                if dirty[cell(hit)].is_finite() {
                    return Err(format!("a non-finite a{at:?} did not reach unknown {hit}"));
                }
                if before.iter().any(|&t| {
                    dirty[cell(t)].to_f64().to_bits() != whole[cell(t)].to_f64().to_bits()
                }) {
                    return Err(format!("a non-finite a{at:?} reached an unknown solved earlier"));
                }
            }
        }
    }
    Ok(())
}

/// Zero-sized right-hand sides come back untouched, whatever the triangle.
#[test]
fn trsm_of_nothing_touches_nothing() {
    let a = packed_triangles::<f64>(&mut StdRng::seed_from_u64(1), 9);
    let store0 = randn_mat(2, 20, 9);
    for arm in arms() {
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for diag in [Diag::Unit, Diag::NonUnit] {
                    let mut store = store0.clone();
                    let (r, c) = if side == Side::Left { (9, 0) } else { (0, 9) };
                    let empty = store.view_mut().into_submatrix(5, 0, r, c);
                    trsm_on(arm, side, uplo, diag, 2.0, a.view(), empty);
                    // An empty triangle solves an empty system.
                    let (r, c) = if side == Side::Left { (0, 7) } else { (7, 0) };
                    let none = store.view_mut().into_submatrix(5, 0, r, c);
                    trsm_on(arm, side, uplo, diag, 2.0, a.view().submatrix(0, 0, 0, 0), none);
                    assert_eq!(store, store0, "{} {side:?} {uplo:?} {diag:?}", arm.name());
                }
            }
        }
    }
}

/// The eight `side × uplo × diag` cases of `trsm`.
fn trsm_cases() -> impl Iterator<Item = (Side, Uplo, Diag)> {
    [Side::Left, Side::Right].into_iter().flat_map(|side| {
        [Uplo::Lower, Uplo::Upper].into_iter().flat_map(move |uplo| {
            [Diag::Unit, Diag::NonUnit].into_iter().map(move |diag| (side, uplo, diag))
        })
    })
}

/// [`check_trsm`] at both precisions on every arm this host can run,
/// naming the arms it cannot.
fn check_trsm_on_every_arm(
    seed: u64,
    what: (Side, Uplo, Diag),
    n: usize,
    free: usize,
    alpha: f64,
) -> Result<(), String> {
    for arm in arms() {
        let at =
            |t: &str| format!("{t}, {} arm, {what:?} n={n} free={free} alpha={alpha}", arm.name());
        check_trsm::<f64>(arm, seed, what, n, free, alpha)
            .map_err(|why| format!("{}: {why}", at("f64")))?;
        check_trsm::<f32>(arm, seed, what, n, free, alpha)
            .map_err(|why| format!("{}: {why}", at("f32")))?;
    }
    Ok(())
}

/// Every case × every triangle order × every `alpha`, on a few right-hand
/// lines: the recursion's split is a function of the triangle's order
/// alone, on every arm the host offers.
#[test]
fn trsm_contract_holds_for_every_case_order_and_alpha() {
    for (missing, arm) in [("avx512f", Arm::avx512()), ("avx2+fma", Arm::avx2_fma())] {
        if arm.is_none() {
            println!("trsm on that arm skipped: no {missing}");
        }
    }
    let mut seed = 0;
    for what in trsm_cases() {
        for n in TRIANGLE_ORDERS {
            for alpha in [0.0, 1.0, -2.0] {
                seed += 1;
                let free = 1 + (seed as usize * 7) % 13;
                check_trsm_on_every_arm(seed, what, n, free, alpha)
                    .unwrap_or_else(|why| panic!("{why}"));
            }
        }
    }
}

proptest! {
    // A case is fifteen solves of a thousand lines per arm and precision;
    // the sweep above covers the cases and orders, this the cache blocks.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_trsm_is_independent_per_line_across_its_cache_blocks(
        seed in 0u64..1_000_000,
        order in 0usize..TRIANGLE_ORDERS.len(),
        case in 0usize..8,
        free in 1000usize..1100,
    ) {
        // `free` straddles the 1024-row cache blocks of a `Right` solve.
        let what = trsm_cases().nth(case).expect("eight cases");
        if let Err(why) = check_trsm_on_every_arm(seed, what, TRIANGLE_ORDERS[order], free, 1.0) {
            prop_assert!(false, "{why}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_getf2_and_rgetf2_identical(seed in 0u64..1_000_000, m in 1usize..80, nw in 1usize..40) {
        let n = nw.min(m); // rgetf2 requires tall
        let a0 = randn_mat(seed, m, n);
        let mut ac = a0.clone();
        let mut ar = a0.clone();
        let mut ic = vec![0usize; n];
        let mut ir = vec![0usize; n];
        getf2(ac.view_mut(), &mut ic, &mut NoObs).unwrap();
        rgetf2(ar.view_mut(), &mut ir, &mut NoObs).unwrap();
        prop_assert_eq!(&ic, &ir);
        prop_assert!(ac.max_abs_diff(&ar) < 1e-9, "factors differ");
        prop_assert!(plu_error(&a0, &ac, &ic) < 1e-9);
    }

    #[test]
    fn prop_getrf_any_block_size(seed in 0u64..1_000_000, n in 1usize..64, nb in 1usize..20) {
        let a0 = randn_mat(seed, n, n);
        let mut a = a0.clone();
        let mut ipiv = vec![0usize; n];
        getrf(a.view_mut(), &mut ipiv, GetrfOpts { block: nb, ..Default::default() }, &mut NoObs).unwrap();
        prop_assert!(plu_error(&a0, &a, &ipiv) < 1e-9);
    }

    #[test]
    fn prop_recursive_panel_getrf_matches_classic(
        seed in 0u64..1_000_000, n in 4usize..56, nb in 2usize..16,
    ) {
        let a0 = randn_mat(seed, n, n);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut i1 = vec![0usize; n];
        let mut i2 = vec![0usize; n];
        getrf(a1.view_mut(), &mut i1, GetrfOpts { block: nb, panel: PanelAlg::Classic }, &mut NoObs).unwrap();
        getrf(a2.view_mut(), &mut i2, GetrfOpts { block: nb, panel: PanelAlg::Recursive }, &mut NoObs).unwrap();
        prop_assert_eq!(i1, i2);
        prop_assert!(a1.max_abs_diff(&a2) < 1e-9);
    }

    #[test]
    fn prop_trsm_round_trips(seed in 0u64..1_000_000, n in 1usize..32, k in 1usize..24) {
        // Left-lower-unit: L X = B, then multiply back.
        let mut l = randn_mat(seed, n, n);
        for i in 0..n {
            l[(i, i)] = 1.0;
            for j in i + 1..n {
                l[(i, j)] = 0.0;
            }
            for j in 0..i {
                l[(i, j)] *= 0.5; // keep conditioning sane
            }
        }
        let b0 = randn_mat(seed ^ 77, n, k);
        let mut x = b0.clone();
        trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, l.view(), x.view_mut());
        let mut back = Matrix::zeros(n, k);
        gemm(1.0, l.view(), x.view(), 0.0, back.view_mut());
        prop_assert!(back.max_abs_diff(&b0) < 1e-8 * (n as f64 + 1.0));
    }

    #[test]
    fn prop_solve_inverts_matvec(seed in 0u64..1_000_000, n in 1usize..48) {
        let a0 = randn_mat(seed, n, n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut b = gen::rhs_for_solution(&a0, &x_true);
        let mut lu = a0.clone();
        let mut ipiv = vec![0usize; n];
        getf2(lu.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        getrs(lu.view(), &ipiv, &mut b);
        for (xi, ti) in b.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-6, "{xi} vs {ti}");
        }
    }

    #[test]
    fn prop_norm_inequalities(seed in 0u64..1_000_000, m in 1usize..30, n in 1usize..30) {
        // max_abs <= every norm.
        let a = randn_mat(seed, m, n);
        let mx = a.max_abs();
        prop_assert!(mat_norm_1(a.view()) + 1e-12 >= mx);
        prop_assert!(mat_norm_inf(a.view()) + 1e-12 >= mx);
    }

    #[test]
    fn prop_lu_nopiv_on_dominant(seed in 0u64..1_000_000, n in 1usize..40) {
        let a0 = gen::diag_dominant(&mut StdRng::seed_from_u64(seed), n);
        let mut a = a0.clone();
        lu_nopiv(a.view_mut(), &mut NoObs).unwrap();
        let l = a.unit_lower();
        let u = a.upper();
        let mut prod = Matrix::zeros(n, n);
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        prop_assert!(prod.max_abs_diff(&a0) / a0.max_abs() < 1e-10);
    }

    #[test]
    fn prop_getri_inverse_identity(seed in 0u64..1_000_000, n in 1usize..40) {
        let a0 = randn_mat(seed, n, n);
        let mut inv = a0.clone();
        let mut ipiv = vec![0usize; n];
        getrf(inv.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        getri(inv.view_mut(), &ipiv).unwrap();
        let mut prod = Matrix::zeros(n, n);
        gemm(1.0, a0.view(), inv.view(), 0.0, prod.view_mut());
        let d = prod.max_abs_diff(&Matrix::identity(n));
        // Random normal matrices can be moderately ill-conditioned; scale
        // the tolerance by the inverse magnitude (forward-error theory).
        let tol = 1e-11 * (n.max(2) as f64) * inv.max_abs().max(1.0);
        prop_assert!(d < tol, "||A A^-1 - I|| = {d} > {tol}");
    }

    #[test]
    fn prop_getrs_t_solves_transpose(seed in 0u64..1_000_000, n in 1usize..40) {
        let a0 = randn_mat(seed, n, n);
        let mut lu = a0.clone();
        let mut ipiv = vec![0usize; n];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        let mut x = b.clone();
        getrs_t(lu.view(), &ipiv, &mut x);
        // A^T x must reproduce b: check via gemv_t on the original.
        let mut back = vec![0.0; n];
        gemv_t(1.0, a0.view(), &x, 0.0, &mut back);
        let scale = a0.max_abs().max(1.0) * x.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (want, got) in b.iter().zip(&back) {
            prop_assert!((want - got).abs() < 1e-10 * (n as f64) * scale, "{want} vs {got}");
        }
    }

    #[test]
    fn prop_gecon_is_lower_bound_of_true_condition(seed in 0u64..1_000_000, n in 2usize..32) {
        let a = randn_mat(seed, n, n);
        let anorm = mat_norm_1(a.view());
        let mut lu = a.clone();
        let mut ipiv = vec![0usize; n];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        // True inverse norm via getri.
        let mut inv = a.clone();
        let mut ip2 = vec![0usize; n];
        getrf(inv.view_mut(), &mut ip2, GetrfOpts::default(), &mut NoObs).unwrap();
        getri(inv.view_mut(), &ip2).unwrap();
        let kappa_true = anorm * mat_norm_1(inv.view());
        let rcond = gecon(lu.view(), &ipiv, anorm);
        let kappa_est = 1.0 / rcond;
        prop_assert!(kappa_est <= kappa_true * (1.0 + 1e-8), "estimate must be a lower bound");
        prop_assert!(kappa_est >= kappa_true / 4.0, "Hager stays within a small factor");
    }

    #[test]
    fn prop_trmv_matches_gemv_on_triangles(seed in 0u64..1_000_000, n in 1usize..24) {
        let a = randn_mat(seed, n, n);
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let tri = match uplo {
                Uplo::Upper => a.upper(),
                Uplo::Lower => {
                    let mut l = a.clone();
                    for j in 0..n {
                        for i in 0..j {
                            l[(i, j)] = 0.0;
                        }
                    }
                    l
                }
            };
            let mut x = x0.clone();
            trmv(uplo, Diag::NonUnit, tri.view(), &mut x);
            let mut want = vec![0.0; n];
            gemv(1.0, tri.view(), &x0, 0.0, &mut want);
            for (got, w) in x.iter().zip(&want) {
                prop_assert!((got - w).abs() < 1e-10 * (n as f64 + 1.0), "{uplo:?}: {got} vs {w}");
            }
        }
    }

    #[test]
    fn prop_trsv_t_round_trips(seed in 0u64..1_000_000, n in 1usize..24) {
        let mut u = randn_mat(seed, n, n).upper();
        for i in 0..n {
            u[(i, i)] = u[(i, i)].abs() + 1.0; // well conditioned
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut x = b.clone();
        trsv_t(Uplo::Upper, Diag::NonUnit, u.view(), &mut x);
        let mut back = vec![0.0; n];
        gemv_t(1.0, u.view(), &x, 0.0, &mut back);
        for (want, got) in b.iter().zip(&back) {
            prop_assert!((want - got).abs() < 1e-9 * (n as f64 + 1.0));
        }
    }

    #[test]
    fn prop_info_variants_complete_on_rank_deficient(
        seed in 0u64..1_000_000, m in 2usize..32, r in 1usize..8,
    ) {
        // An m x m matrix whose trailing m - r columns are exactly zero:
        // the info variants must complete (no panic, no error), report the
        // first *exactly* zero pivot at step r, and agree with each other.
        // (A floating-point low-rank product would leave ~1e-17 residues
        // and legitimately factor "successfully" — exact zeros are the
        // case DGETF2's INFO path is for.)
        let r = r.min(m - 1);
        let b = randn_mat(seed, m, r);
        let a = Matrix::from_fn(m, m, |i, j| if j < r { b[(i, j)] } else { 0.0 });

        let mut w1 = a.clone();
        let mut ip1 = vec![0usize; m];
        let info1 = getf2_info(w1.view_mut(), &mut ip1, &mut NoObs);
        prop_assert_eq!(info1, Some(r), "first zero pivot is exactly step r");

        let mut w2 = a.clone();
        let mut ip2 = vec![0usize; m];
        let info2 = rgetf2_info(w2.view_mut(), &mut ip2, &mut NoObs);
        prop_assert_eq!(info1, info2, "classic and recursive agree on the singular step");
        // The leading r columns still factor exactly: reconstruct them.
        prop_assert!(plu_error(&a, &w1, &ip1) < 1e-9, "completed factors must reconstruct");
    }
}

// The panel kernels — `iamax`, `getf2`'s column step and `trsm`'s
// `Side::Right` base under `lu_rows` — on every arm: the SIMD arms give the
// portable arm's bits, pivots and column maxima, NaN at the same positions.

/// An observer that watches values (the trait's default) and records
/// nothing: every kernel keeps its column-by-column path for it.
struct Stepwise;

impl<T: Scalar> PivotObserver<T> for Stepwise {}

/// The SIMD arms this host offers; prints a `skipped` line for each it
/// lacks.
fn simd_arms(test: &str) -> Vec<Arm> {
    [("avx2+fma", Arm::avx2_fma()), ("avx512", Arm::avx512())]
        .into_iter()
        .filter_map(|(name, arm)| {
            if arm.is_none() {
                println!("{test} on the {name} arm skipped: the host lacks it");
            }
            arm
        })
        .collect()
}

/// Bit patterns with every NaN as one pattern: payloads may differ between
/// arms, positions may not.
fn nan_bits<T: Scalar>(xs: &[T]) -> Vec<u64> {
    xs.iter().map(|v| if v.is_nan() { u64::MAX } else { v.to_f64().to_bits() }).collect()
}

/// `−0.0`, both signs of a subnormal, `±∞` and NaN at this precision.
fn specials<T: Scalar>() -> [T; 6] {
    let tiny = if T::BYTES == 4 { 1e-40 } else { 1e-310 };
    [-0.0, tiny, -tiny, f64::INFINITY, f64::NEG_INFINITY, f64::NAN].map(T::from_f64)
}

/// A random `m × n` matrix with about one entry in `every` replaced by one
/// of [`specials`] and as many by an exact zero.
fn spiced<T: Scalar>(rng: &mut StdRng, m: usize, n: usize, every: usize) -> Matrix<T> {
    let mut a = gen::randn::<T>(rng, m, n);
    let sp = specials::<T>();
    for _ in 0..(m * n).div_ceil(every) {
        let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..n));
        a[(i, j)] = sp[rng.gen_range(0..sp.len())];
        let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..n));
        a[(i, j)] = T::ZERO;
    }
    a
}

/// `iamax` by its definition: the first index of the largest `|x_i|`
/// among the non-NaN entries, 0 when there are none.
fn iamax_by_definition<T: Scalar>(x: &[T]) -> usize {
    let top = x.iter().filter(|v| !v.is_nan()).map(|v| v.abs()).fold(None, |m: Option<T>, a| {
        Some(match m {
            Some(m) if m >= a => m,
            _ => a,
        })
    });
    top.map_or(0, |top| x.iter().position(|v| v.abs() == top).unwrap())
}

fn iamax_contract<T: Scalar>(arm: Arm) {
    let (nan, inf) = (T::from_f64(f64::NAN), T::INFINITY);
    let at = |len: usize, pairs: &[(usize, T)]| {
        let mut x = vec![T::from_f64(0.5); len];
        for &(i, v) in pairs {
            x[i % len] = v;
        }
        x
    };
    let mut rng = StdRng::seed_from_u64(34);
    for len in 1..=33 {
        let last = len - 1;
        let cases = [
            at(len, &[]),                                                       // all tied
            at(len, &[(last, T::from_f64(-2.0)), (len / 2, T::from_f64(2.0))]), // tie across signs
            at(len, &[(0, nan), (last, T::from_f64(3.0))]),                     // NaN first
            vec![nan; len],                                                     // all NaN
            at(len, &[(len / 3, -inf), (last, inf)]),                           // −∞ before +∞
            at(len, &[(last, nan), (len / 2, T::ZERO)]),
            gen::randn::<T>(&mut rng, len, 1).col(0).to_vec(),
            spiced::<T>(&mut rng, len, 1, 3).col(0).to_vec(),
        ];
        for x in &cases {
            let want = iamax_by_definition(x);
            assert_eq!(iamax_on(arm, x), want, "{} {} len {len}: {x:?}", arm.name(), T::NAME);
        }
    }
    for len in [16384, 16383, 1001] {
        let x = spiced::<T>(&mut rng, len, 1, 50).col(0).to_vec();
        assert_eq!(
            iamax_on(arm, &x),
            iamax_by_definition(&x),
            "{} {} len {len}",
            arm.name(),
            T::NAME
        );
        let x = gen::randn::<T>(&mut rng, len, 1).col(0).to_vec();
        assert_eq!(
            iamax_on(arm, &x),
            iamax_by_definition(&x),
            "{} {} len {len}",
            arm.name(),
            T::NAME
        );
    }
}

#[test]
fn iamax_keeps_its_contract_on_every_arm() {
    simd_arms("iamax_keeps_its_contract_on_every_arm");
    for arm in arms() {
        iamax_contract::<f64>(arm);
        iamax_contract::<f32>(arm);
    }
}

/// Row counts that are a multiple of no lane count (4, 8, 16) but one, and
/// the widths around `trsm`'s base, `getf2`'s column blocks and a panel.
const PANEL_ROWS: [usize; 7] = [1, 3, 5, 17, 33, 67, 131];
const PANEL_COLS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 64];

/// What a factorization returns, in comparable form: `info`, pivots, bits.
type Outcome = (Option<usize>, Vec<usize>, Vec<u64>);

fn getf2_outcome<T: Scalar, O: PivotObserver<T>>(arm: Arm, a0: &Matrix<T>, obs: &mut O) -> Outcome {
    let mut a = a0.clone();
    let mut ipiv = vec![0; a0.rows().min(a0.cols())];
    let info = getf2_info_on(arm, a.view_mut(), &mut ipiv, obs);
    (info, ipiv, nan_bits(a.as_slice()))
}

fn rgetf2_outcome<T: Scalar, O: PivotObserver<T>>(
    arm: Arm,
    a0: &Matrix<T>,
    obs: &mut O,
) -> Outcome {
    let mut a = a0.clone();
    let mut ipiv = vec![0; a0.cols()];
    let info = rgetf2_info_on(arm, a.view_mut(), &mut ipiv, obs);
    (info, ipiv, nan_bits(a.as_slice()))
}

/// The inputs the `getf2` properties run on at one shape: plain, spiced
/// with special values and exact zeros (zeros in a pivot row are skipped
/// updates), and with an exactly zero column (a skipped elimination and
/// its `info`).
fn getf2_inputs<T: Scalar>(rng: &mut StdRng, m: usize, n: usize) -> Vec<Matrix<T>> {
    let mut zero_col = gen::randn::<T>(rng, m, n);
    zero_col.col_mut(n / 2).fill(T::ZERO);
    vec![gen::randn::<T>(rng, m, n), spiced(rng, m, n, 7), zero_col]
}

fn getf2_agrees_across_arms<T: Scalar>(simd: &[Arm]) {
    let mut rng = StdRng::seed_from_u64(341);
    let shapes = PANEL_ROWS.iter().flat_map(|&m| PANEL_COLS.iter().map(move |&n| (m, n))).chain([
        (128, 64),
        (16384, 4),
        (1000, 9),
    ]);
    for (m, n) in shapes {
        for a0 in getf2_inputs::<T>(&mut rng, m, n) {
            let want = getf2_outcome(Arm::portable(), &a0, &mut NoObs);
            for &arm in simd {
                let at = format!("{} {} getf2 {m}x{n}", arm.name(), T::NAME);
                assert!(getf2_outcome(arm, &a0, &mut NoObs) == want, "{at}");
                assert!(getf2_outcome(arm, &a0, &mut Stepwise) == want, "{at}, observed");
            }
            if m < n {
                continue;
            }
            // Above a width of 4 `rgetf2` runs `gemm`, whose bits are the
            // arm's: the observed path on the same arm is the reference.
            for arm in arms() {
                let at = format!("{} {} rgetf2 {m}x{n}", arm.name(), T::NAME);
                let want = rgetf2_outcome(arm, &a0, &mut Stepwise);
                assert!(rgetf2_outcome(arm, &a0, &mut NoObs) == want, "{at}");
                if n <= 4 {
                    assert!(
                        rgetf2_outcome(Arm::portable(), &a0, &mut NoObs) == want,
                        "{at}, portable"
                    );
                }
            }
        }
    }
}

#[test]
fn getf2_and_rgetf2_give_the_portable_bits_on_every_arm() {
    let simd = simd_arms("getf2_and_rgetf2_give_the_portable_bits_on_every_arm");
    getf2_agrees_across_arms::<f64>(&simd);
    getf2_agrees_across_arms::<f32>(&simd);
}

/// An upper triangle with a dominant diagonal and exact zeros above it
/// (skipped updates), in a `w × w` block whose lower part is noise.
fn triangle_with_zeros<T: Scalar>(rng: &mut StdRng, w: usize) -> Matrix<T> {
    let mut u = gen::randn::<T>(rng, w, w);
    for j in 0..w {
        u[(j, j)] += T::from_f64(2.0 * w as f64);
        for i in 0..j {
            if rng.gen_range(0..4) == 0 {
                u[(i, j)] = T::ZERO;
            }
        }
    }
    u
}

fn lu_rows_outcome<T: Scalar, O: PivotObserver<T>>(
    arm: Arm,
    u: &Matrix<T>,
    rows0: &Matrix<T>,
    obs: &mut O,
) -> (Vec<u64>, Vec<u64>) {
    let mut rows = rows0.clone();
    let mut col_max = vec![T::ZERO; u.cols()];
    lu_rows_on(arm, u.view(), rows.view_mut(), &mut col_max, obs).expect("nonsingular U11");
    (nan_bits(rows.as_slice()), nan_bits(&col_max))
}

fn trsm_right_outcome<T: Scalar>(
    arm: Arm,
    uplo: Uplo,
    diag: Diag,
    a: &Matrix<T>,
    b0: &Matrix<T>,
) -> Vec<u64> {
    let mut b = b0.clone();
    trsm_on(arm, Side::Right, uplo, diag, T::from_f64(1.5), a.view(), b.view_mut());
    nan_bits(b.as_slice())
}

fn right_base_agrees_across_arms<T: Scalar>(simd: &[Arm]) {
    let mut rng = StdRng::seed_from_u64(342);
    let rows = PANEL_ROWS.iter().copied().chain([1000, 1030, 2100]);
    for (m, w) in rows.flat_map(|m| PANEL_COLS.iter().map(move |&w| (m, w))) {
        let u = triangle_with_zeros::<T>(&mut rng, w);
        for rows0 in [gen::randn::<T>(&mut rng, m, w), spiced(&mut rng, m, w, 7)] {
            // Above a width of 8 the recursion runs `gemm`: the observed
            // path on the same arm is the reference there.
            for arm in arms() {
                let at = format!("{} {} lu_rows {m}x{w}", arm.name(), T::NAME);
                let want = lu_rows_outcome(arm, &u, &rows0, &mut Stepwise);
                assert!(lu_rows_outcome(arm, &u, &rows0, &mut NoObs) == want, "{at}");
                if w <= 8 {
                    assert!(
                        lu_rows_outcome(Arm::portable(), &u, &rows0, &mut NoObs) == want,
                        "{at}, portable"
                    );
                }
            }
            if w > 8 {
                continue;
            }
            let a = triangle_with_zeros::<T>(&mut rng, w);
            let lower = Matrix::from_fn(w, w, |i, j| a[(j, i)]);
            for (uplo, diag) in [(Uplo::Upper, Diag::NonUnit), (Uplo::Upper, Diag::Unit)]
                .into_iter()
                .chain([(Uplo::Lower, Diag::NonUnit), (Uplo::Lower, Diag::Unit)])
            {
                let tri = if uplo == Uplo::Upper { &a } else { &lower };
                let want = trsm_right_outcome(Arm::portable(), uplo, diag, tri, &rows0);
                for &arm in simd {
                    let got = trsm_right_outcome(arm, uplo, diag, tri, &rows0);
                    assert!(
                        got == want,
                        "{} {} trsm {uplo:?} {diag:?} {m}x{w}",
                        arm.name(),
                        T::NAME
                    );
                }
            }
        }
    }
}

#[test]
fn lu_rows_and_trsm_right_give_the_portable_bits_on_every_arm() {
    let simd = simd_arms("lu_rows_and_trsm_right_give_the_portable_bits_on_every_arm");
    right_base_agrees_across_arms::<f64>(&simd);
    right_base_agrees_across_arms::<f32>(&simd);
}
