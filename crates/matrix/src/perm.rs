//! Pivot-vector (`ipiv`) and permutation algebra.
//!
//! LAPACK expresses row pivoting as a sequence of transpositions: `ipiv[i]`
//! says "row `i` was swapped with row `ipiv[i]`" (applied in increasing `i`).
//! CALU composes several such sequences (one per panel, plus the tournament's
//! own permutations), so we also provide explicit permutation vectors:
//! `perm[i] = p` means row `i` of the permuted matrix is row `p` of the
//! original (`(P A)[i, :] = A[perm[i], :]`).

use crate::scalar::Scalar;
use crate::view::MatViewMut;

/// Applies the transposition sequence `ipiv` to the rows of `a`
/// (LAPACK `DLASWP` with increment +1): for `i` in order, swap rows
/// `i` and `ipiv[i]`.
///
/// Column by column — every interchange applied to one column before the
/// next is touched — so a column is walked while it is in cache; a row swap
/// at a time strides across columns that, in a matrix whose leading dimension
/// is a multiple of 512, all map to one L1 set. The element moves are the
/// same either way.
pub fn apply_ipiv<T: Scalar>(mut a: MatViewMut<'_, T>, ipiv: &[usize]) {
    for j in 0..a.cols() {
        apply_ipiv_vec(a.col_mut(j), ipiv);
    }
}

/// Applies the transposition sequence to a vector.
pub(crate) fn apply_ipiv_vec<T: Scalar>(x: &mut [T], ipiv: &[usize]) {
    for (i, &p) in ipiv.iter().enumerate() {
        if p != i {
            x.swap(i, p);
        }
    }
}

/// Converts a transposition sequence over `m` rows into an explicit
/// permutation vector `perm` with `(P A)[i, :] = A[perm[i], :]`.
pub fn ipiv_to_perm(ipiv: &[usize], m: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..m).collect();
    for (i, &p) in ipiv.iter().enumerate() {
        perm.swap(i, p);
    }
    perm
}

/// `true` iff `perm` is a permutation of `0..perm.len()`.
pub fn is_permutation(perm: &[usize]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Gathers rows of `src` according to `perm` into a new matrix:
/// `out[i, :] = src[perm[i], :]`.
///
/// # Panics
/// If `perm.len() != src.rows()` or `perm` indexes out of range.
pub fn permute_rows<T: Scalar>(src: &crate::Matrix<T>, perm: &[usize]) -> crate::Matrix<T> {
    assert_eq!(perm.len(), src.rows());
    crate::Matrix::from_fn(src.rows(), src.cols(), |i, j| src[(perm[i], j)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn ipiv_to_perm_matches_apply() {
        let ipiv = vec![2, 3, 2, 3];
        let m = 5;
        let perm = ipiv_to_perm(&ipiv, m);
        assert!(is_permutation(&perm));
        let a = Matrix::from_fn(m, 3, |i, j| (10 * i + j) as f64);
        let mut b = a.clone();
        apply_ipiv(b.view_mut(), &ipiv);
        let c = permute_rows(&a, &perm);
        assert_eq!(b, c);
    }

    #[test]
    fn is_permutation_detects_bad_vectors() {
        assert!(is_permutation(&[0, 1, 2]));
        assert!(!is_permutation(&[0, 0, 2]));
        assert!(!is_permutation(&[0, 1, 3]));
        assert!(is_permutation(&[]));
    }

    #[test]
    fn apply_ipiv_vec_matches_matrix_apply() {
        let ipiv = vec![1, 2, 2];
        let mut x = vec![10.0, 20.0, 30.0];
        apply_ipiv_vec(&mut x, &ipiv);
        let mut a = Matrix::from_fn(3, 1, |i, _| (10 * (i + 1)) as f64);
        apply_ipiv(a.view_mut(), &ipiv);
        assert_eq!(x, a.col(0));
    }
}
