//! Zero-cost instrumentation hooks for factorization kernels.
//!
//! The paper's stability study (Section 6.1, Figure 2, Tables 1-2) needs the
//! value of every matrix entry *during* elimination (for the
//! Trefethen-Schreiber growth factor) and the pivot-to-column-max ratio at
//! every step (for the threshold statistics). Rather than duplicating every
//! factorization with an instrumented twin, the kernels accept a
//! [`PivotObserver`]; the default [`NoObs`] has empty inlined methods that
//! compile away.

use crate::scalar::Scalar;
use crate::view::MatView;

/// Receives callbacks from factorization kernels at every elimination event.
///
/// All methods have empty defaults, so implementors override only what they
/// need. Implementations used for growth tracking should expect
/// `on_stage` to be called with the sub-block that changed at each stage
/// (after a rank-1 update or after a blocked trailing update).
pub trait PivotObserver<T: Scalar = f64> {
    /// Whether this observer reads the intermediate values it is shown
    /// ([`Self::on_stage`], [`Self::on_multipliers`]). Kernels keep their
    /// column-by-column path, which reports every such event, for an
    /// observer that does; for one that does not (false: [`NoObs`]) they
    /// may take their SIMD arm, which gives the same bits and pivots but
    /// reports only [`Self::on_pivot`]. A wrapper forwards its inner
    /// observer's value.
    const WATCHES_VALUES: bool = true;

    /// A pivot was selected at global elimination step `step`.
    ///
    /// * `pivot` — absolute value of the pivot actually used,
    /// * `col_max` — maximum absolute value in the (remaining) column at the
    ///   moment of selection. For partial pivoting `pivot == col_max`; for
    ///   CALU's ca-pivoting the ratio `pivot / col_max` is the *threshold*
    ///   the paper reports (min observed ≈ 0.33, i.e. `|L| <= 3`).
    #[inline(always)]
    fn on_pivot(&mut self, step: usize, pivot: T, col_max: T) {
        let _ = (step, pivot, col_max);
    }

    /// Part of the matrix was updated; `changed` views the entries holding
    /// freshly-computed intermediate values `a_ij^{(k)}`.
    #[inline(always)]
    fn on_stage(&mut self, changed: &MatView<'_, T>) {
        let _ = changed;
    }

    /// A multiplier column was produced (entries of `L` below the diagonal),
    /// reported so `max |L|` can be tracked.
    #[inline(always)]
    fn on_multipliers(&mut self, col_below_diag: &[T]) {
        let _ = col_below_diag;
    }
}

/// The do-nothing observer; all hooks compile to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObs;

impl<T: Scalar> PivotObserver<T> for NoObs {
    const WATCHES_VALUES: bool = false;
}

impl<T: Scalar, O: PivotObserver<T> + ?Sized> PivotObserver<T> for &mut O {
    const WATCHES_VALUES: bool = O::WATCHES_VALUES;

    #[inline(always)]
    fn on_pivot(&mut self, step: usize, pivot: T, col_max: T) {
        (**self).on_pivot(step, pivot, col_max)
    }

    #[inline(always)]
    fn on_stage(&mut self, changed: &MatView<'_, T>) {
        (**self).on_stage(changed)
    }

    #[inline(always)]
    fn on_multipliers(&mut self, col_below_diag: &[T]) {
        (**self).on_multipliers(col_below_diag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lapack::getf2;
    use crate::{gen, NoObs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Counts every callback — verifies the kernels fire the full protocol.
    #[derive(Default)]
    struct Counter {
        pivots: usize,
        stages: usize,
        mult_cols: usize,
        mult_entries: usize,
    }

    impl PivotObserver for Counter {
        fn on_pivot(&mut self, _s: usize, _p: f64, _c: f64) {
            self.pivots += 1;
        }
        fn on_stage(&mut self, changed: &MatView<'_>) {
            self.stages += 1;
            assert!(changed.rows() > 0 && changed.cols() > 0, "stage views are never empty");
        }
        fn on_multipliers(&mut self, col: &[f64]) {
            self.mult_cols += 1;
            self.mult_entries += col.len();
        }
    }

    #[test]
    fn getf2_fires_one_event_set_per_column() {
        let mut rng = StdRng::seed_from_u64(271);
        let (m, n) = (12, 8);
        let mut a = gen::randn(&mut rng, m, n);
        let mut ipiv = vec![0usize; n];
        let mut c = Counter::default();
        getf2(a.view_mut(), &mut ipiv, &mut c).unwrap();
        assert_eq!(c.pivots, n, "one pivot per column");
        assert_eq!(c.stages, n - 1, "one trailing stage per non-final column");
        assert_eq!(c.mult_cols, n);
        // Multiplier entries: (m-1) + (m-2) + ... + (m-n).
        let want: usize = (0..n).map(|j| m - j - 1).sum();
        assert_eq!(c.mult_entries, want);
    }

    #[test]
    fn observer_by_mut_ref_forwards() {
        let mut rng = StdRng::seed_from_u64(272);
        let mut a = gen::randn(&mut rng, 6, 6);
        let mut ipiv = vec![0usize; 6];
        let mut c = Counter::default();
        // Pass &mut &mut Counter through the blanket impl.
        getf2(a.view_mut(), &mut ipiv, &mut (&mut c)).unwrap();
        assert_eq!(c.pivots, 6);
    }

    #[test]
    fn noobs_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoObs>(), 0);
    }
}
