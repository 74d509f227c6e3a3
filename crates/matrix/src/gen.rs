//! Seeded matrix ensembles for the paper's experiments.
//!
//! Section 6.1 of the paper evaluates the stability of ca-pivoting on
//! "matrices from a normal distribution", "different random distributions"
//! and "dense Toeplitz matrices"; this module provides those ensembles plus
//! a classical worst-case growth matrix (for negative controls) — all
//! deterministic given an RNG seed so every table in `EXPERIMENTS.md` is
//! reproducible.
//!
//! All generators are generic over [`Scalar`]; sampling always happens in
//! `f64` and is then rounded into the requested precision, so for any
//! seed the `f32` ensemble is exactly the rounded `f64` ensemble — the
//! property the mixed-precision experiments rely on when comparing
//! factorizations of "the same" matrix at two precisions.

use crate::scalar::Scalar;
use crate::Matrix;
use rand::Rng;

/// Standard-normal entries via the Box-Muller transform.
///
/// (We generate N(0,1) ourselves rather than pulling in `rand_distr`; the
/// polar-free version below is branch-light and plenty fast for the
/// experiment sizes.)
pub fn randn<T: Scalar>(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix<T> {
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() + 2 <= n {
        let (z0, z1) = box_muller(rng);
        data.push(T::from_f64(z0));
        data.push(T::from_f64(z1));
    }
    if data.len() < n {
        data.push(T::from_f64(box_muller(rng).0));
    }
    Matrix::from_col_major(rows, cols, data)
}

#[inline]
fn box_muller(rng: &mut impl Rng) -> (f64, f64) {
    // u1 in (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Uniform entries on `[lo, hi)`.
pub fn uniform<T: Scalar>(
    rng: &mut impl Rng,
    rows: usize,
    cols: usize,
    lo: f64,
    hi: f64,
) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.gen_range(lo..hi)))
}

/// Dense Toeplitz matrix `A[i][j] = c[i - j]` for `i >= j`, `r[j - i]` for
/// `j > i`, from explicit first column `c` and first row `r`.
///
/// # Panics
/// If `c[0] != r[0]` (the shared corner must agree) or either is empty.
pub(crate) fn toeplitz<T: Scalar>(first_col: &[T], first_row: &[T]) -> Matrix<T> {
    assert!(!first_col.is_empty() && !first_row.is_empty());
    assert_eq!(first_col[0], first_row[0], "corner element must agree");
    Matrix::from_fn(first_col.len(), first_row.len(), |i, j| {
        if i >= j {
            first_col[i - j]
        } else {
            first_row[j - i]
        }
    })
}

/// Random dense Toeplitz matrix with N(0,1) diagonals (the paper's "dense
/// Toeplitz" stability ensemble).
pub fn randn_toeplitz<T: Scalar>(rng: &mut impl Rng, n: usize) -> Matrix<T> {
    let mut c: Vec<T> = (0..n).map(|_| T::from_f64(box_muller(rng).0)).collect();
    let mut r: Vec<T> = (0..n).map(|_| T::from_f64(box_muller(rng).0)).collect();
    r[0] = c[0];
    // Guard against a degenerate zero corner for tiny n.
    if c[0] == T::ZERO {
        c[0] = T::ONE;
        r[0] = T::ONE;
    }
    toeplitz(&c, &r)
}

/// Row-diagonally-dominant random matrix (always nonsingular; LU with any
/// reasonable pivoting succeeds with growth ~1). Used as an easy ensemble in
/// tests.
pub fn diag_dominant<T: Scalar>(rng: &mut impl Rng, n: usize) -> Matrix<T> {
    let mut a: Matrix<T> = randn(rng, n, n);
    for i in 0..n {
        let row_sum: T = (0..n).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] = row_sum + T::ONE;
    }
    a
}

/// The classical GEPP worst-case growth matrix of Wilkinson:
/// ones on the diagonal and last column, `-1` strictly below the diagonal.
/// Partial pivoting produces growth `2^(n-1)`; used as a stress control in
/// the growth-factor experiments.
pub fn wilkinson<T: Scalar>(n: usize) -> Matrix<T> {
    // The "identical branches" are the point: last column and diagonal are
    // both 1, but they are distinct structural features of the matrix.
    #[allow(clippy::if_same_then_else)]
    Matrix::from_fn(n, n, |i, j| {
        if j == n - 1 {
            T::ONE
        } else if i == j {
            T::ONE
        } else if i > j {
            -T::ONE
        } else {
            T::ZERO
        }
    })
}

/// A "generalized Wilkinson" growth adversary: like [`wilkinson`] but the
/// subdiagonal entries are `-h` for a tunable `h ∈ (0, 1]` — growth
/// `(1 + h)^(n-1)`, letting the growth-factor experiments sweep a dial
/// between benign and catastrophic rather than only the extreme point.
pub fn gfpp<T: Scalar>(n: usize, h: f64) -> Matrix<T> {
    assert!(h > 0.0 && h <= 1.0, "h must be in (0, 1]");
    #[allow(clippy::if_same_then_else)]
    Matrix::from_fn(n, n, |i, j| {
        if j == n - 1 {
            T::ONE
        } else if i == j {
            T::ONE
        } else if i > j {
            T::from_f64(-h)
        } else {
            T::ZERO
        }
    })
}

/// Matrix with geometrically graded singular-value profile: `Q1 D Q2` where
/// `D = diag(cond^(-k/(n-1)))` and `Q1, Q2` are products of random
/// Householder reflectors (a lightweight `randsvd` mode 3). `cond` is the
/// exact 2-norm condition number of the result.
///
/// # Panics
/// If `cond < 1` or `n == 0`.
pub fn randsvd<T: Scalar>(rng: &mut impl Rng, n: usize, cond: f64) -> Matrix<T> {
    assert!(cond >= 1.0 && n > 0);
    let mut a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            if n == 1 {
                T::ONE
            } else {
                T::from_f64(cond.powf(-(i as f64) / (n as f64 - 1.0)))
            }
        } else {
            T::ZERO
        }
    });
    // Two-sided random orthogonal mixing: A := H_k ... H_1 A G_1 ... G_k.
    let reflections = 3.min(n);
    for _ in 0..reflections {
        let v = random_unit_vector(rng, n);
        householder_left(&mut a, &v);
        let w = random_unit_vector(rng, n);
        householder_right(&mut a, &w);
    }
    a
}

/// Sylvester-construction Hadamard matrix (entries ±1, orthogonal columns);
/// `n` must be a power of two. GEPP on a Hadamard matrix produces growth
/// exactly `n` — a structured mid-scale growth control between random
/// (`~n^(2/3)`) and Wilkinson (`2^(n-1)`).
///
/// # Panics
/// If `n` is not a power of two.
pub fn hadamard<T: Scalar>(n: usize) -> Matrix<T> {
    assert!(n.is_power_of_two(), "Sylvester construction needs a power of two");
    Matrix::from_fn(n, n, |i, j| {
        // H[i][j] = (-1)^(popcount(i & j)).
        if (i & j).count_ones() % 2 == 0 {
            T::ONE
        } else {
            -T::ONE
        }
    })
}

fn random_unit_vector<T: Scalar>(rng: &mut impl Rng, n: usize) -> Vec<T> {
    loop {
        let v: Vec<f64> = (0..n).map(|_| box_muller(rng).0).collect();
        let norm = crate::blas1::nrm2(&v);
        if norm > 1e-8 {
            return v.into_iter().map(|x| T::from_f64(x / norm)).collect();
        }
    }
}

/// `A := (I - 2 v v^T) A` for unit `v`.
fn householder_left<T: Scalar>(a: &mut Matrix<T>, v: &[T]) {
    let n = a.rows();
    debug_assert_eq!(v.len(), n);
    let two = T::from_f64(2.0);
    for j in 0..a.cols() {
        let col = a.col_mut(j);
        let dot: T = col.iter().zip(v).map(|(&c, &vi)| c * vi).sum();
        for (c, &vi) in col.iter_mut().zip(v) {
            *c -= two * dot * vi;
        }
    }
}

/// `A := A (I - 2 v v^T)` for unit `v`.
fn householder_right<T: Scalar>(a: &mut Matrix<T>, v: &[T]) {
    let m = a.rows();
    let n = a.cols();
    debug_assert_eq!(v.len(), n);
    let two = T::from_f64(2.0);
    // row_dot[i] = sum_j a[i][j] v[j]
    let mut row_dot = vec![T::ZERO; m];
    for (j, &vj) in v.iter().enumerate() {
        for (rd, &aij) in row_dot.iter_mut().zip(a.col(j)) {
            *rd += aij * vj;
        }
    }
    for (j, &vj) in v.iter().enumerate() {
        for (aij, &rd) in a.col_mut(j).iter_mut().zip(&row_dot) {
            *aij -= two * rd * vj;
        }
    }
}

/// Builds `b = A * x` for a known solution `x` (HPL-style verification).
pub fn rhs_for_solution<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    let mut b = vec![T::ZERO; a.rows()];
    crate::blas2::gemv(T::ONE, a.view(), x, T::ZERO, &mut b);
    b
}

/// Uniform `[-0.5, 0.5)` right-hand side as generated by HPL's driver.
pub fn hpl_rhs<T: Scalar>(rng: &mut impl Rng, n: usize) -> Vec<T> {
    (0..n).map(|_| T::from_f64(rng.gen::<f64>() - 0.5)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = randn(&mut rng, 200, 200);
        let n = (a.rows() * a.cols()) as f64;
        let mean: f64 = a.as_slice().iter().sum::<f64>() / n;
        let var: f64 = a.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.03, "variance {var} too far from 1");
    }

    #[test]
    fn randn_is_deterministic_for_seed() {
        let a: Matrix = randn(&mut StdRng::seed_from_u64(1), 10, 10);
        let b = randn(&mut StdRng::seed_from_u64(1), 10, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn toeplitz_has_constant_diagonals() {
        let t = toeplitz(&[1.0, 2.0, 3.0], &[1.0, 7.0, 8.0, 9.0]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t[(0, 0)], t[(1, 1)]);
        assert_eq!(t[(1, 0)], t[(2, 1)]);
        assert_eq!(t[(0, 1)], t[(1, 2)]);
        assert_eq!(t[(0, 1)], 7.0);
        assert_eq!(t[(2, 0)], 3.0);
    }

    #[test]
    fn wilkinson_structure() {
        let w: Matrix = wilkinson(4);
        assert_eq!(w[(0, 3)], 1.0);
        assert_eq!(w[(2, 2)], 1.0);
        assert_eq!(w[(3, 0)], -1.0);
        assert_eq!(w[(0, 1)], 0.0);
    }

    #[test]
    fn diag_dominant_is_dominant() {
        let mut rng = StdRng::seed_from_u64(9);
        let a: Matrix = diag_dominant(&mut rng, 20);
        for i in 0..20 {
            let off: f64 = (0..20).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            assert!(a[(i, i)].abs() > off);
        }
    }

    #[test]
    fn gfpp_growth_dial() {
        use crate::lapack::getf2;
        use crate::NoObs;
        // h = 1 reproduces Wilkinson exactly.
        assert_eq!(gfpp::<f64>(6, 1.0), wilkinson(6));
        // Growth of GEPP on gfpp(n, h) is (1 + h)^(n-1) in the last column.
        let n = 12;
        let h = 0.5;
        let mut a: Matrix = gfpp(n, h);
        let mut ipiv = vec![0usize; n];
        getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        let last = a[(n - 1, n - 1)];
        let want = (1.0 + h).powi(n as i32 - 1);
        assert!((last - want).abs() < 1e-9, "{last} vs {want}");
    }

    #[test]
    fn randsvd_condition_is_exact_in_2norm() {
        // Orthogonal mixing preserves singular values; check via the
        // explicit inverse: kappa_2 bounds kappa_1 within n.
        use crate::lapack::{gecon, getrf, GetrfOpts};
        use crate::norms::mat_norm_1;
        use crate::NoObs;
        let mut rng = StdRng::seed_from_u64(77);
        let n = 16;
        let cond = 1e6;
        let a: Matrix = randsvd(&mut rng, n, cond);
        let anorm = mat_norm_1(a.view());
        let mut lu = a.clone();
        let mut ipiv = vec![0usize; n];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts::default(), &mut NoObs).unwrap();
        let rcond = gecon(lu.view(), &ipiv, anorm);
        let kappa1 = 1.0 / rcond;
        // kappa_2 <= kappa_1 <= n * kappa_2, estimator within 3x.
        assert!(kappa1 > cond / (3.0 * n as f64), "kappa1 {kappa1} too small for cond {cond}");
        assert!(kappa1 < cond * 3.0 * n as f64, "kappa1 {kappa1} too big for cond {cond}");
    }

    #[test]
    fn hadamard_columns_are_orthogonal() {
        let h: Matrix = hadamard(8);
        for i in 0..8 {
            for j in 0..8 {
                let dot: f64 = (0..8).map(|k| h[(k, i)] * h[(k, j)]).sum();
                assert_eq!(dot, if i == j { 8.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn hadamard_growth_under_gepp_is_order_n() {
        use crate::lapack::getf2;
        use crate::NoObs;
        let n = 16;
        let mut a: Matrix = hadamard(n);
        let mut ipiv = vec![0usize; n];
        getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap();
        let max_u = a.max_abs();
        assert!(max_u >= n as f64 * 0.99, "Hadamard growth must reach n, got {max_u}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hadamard_rejects_non_power_of_two() {
        let _: Matrix = hadamard(6);
    }
}
