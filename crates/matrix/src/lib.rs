//! # calu-matrix — dense column-major matrix substrate
//!
//! From-scratch dense linear-algebra kernels backing the reproduction of
//! *Communication Avoiding Gaussian Elimination* (Grigori, Demmel, Xiang,
//! 2008). The paper's implementation sits on ESSL/libGoto BLAS and
//! LAPACK/ScaLAPACK; this crate provides the equivalent sequential substrate:
//!
//! * [`Matrix`] — owned, column-major storage; [`MatView`]/[`MatViewMut`] —
//!   borrowed, leading-dimension strided views so every kernel operates on
//!   sub-blocks without copying (the shape ScaLAPACK-style algorithms need).
//! * BLAS level 1/2/3: [`blas1`], [`blas2`], [`blas3`] (`iamax`, `axpy`,
//!   `ger`, `gemv`, a packed register-blocked `gemm` with AVX-512, AVX2+FMA
//!   and portable micro-kernels, the four no-transpose `trsm` cases used by
//!   LU).
//! * LAPACK-style factorizations in [`lapack`]: `getf2` (classic partial
//!   pivoting, the paper's `DGETF2`), `rgetf2` (recursive, the paper's
//!   `RGETF2` from Gustavson/Toledo), blocked `getrf` (GEPP baseline),
//!   `lu_nopiv` (panel factorization after tournament pivoting), `laswp`,
//!   and triangular solves `getrs`.
//! * [`tile`] — block geometry: [`TileLayout`] (tile geometry plus the
//!   ScaLAPACK block-cyclic ownership map a distributed rank's flat local
//!   matrix is indexed by) and [`TileMatrix`] (a tile-major conversion,
//!   tiles contiguous in memory, kept for the benchmark's conversion
//!   probe); every factorization runs on flat [`Matrix`]es.
//! * [`gen`] — seeded matrix ensembles used by the paper's experiments
//!   (normal, uniform, Toeplitz, plus worst-case growth matrices).
//! * [`perm`] — pivot-vector (`ipiv`) and permutation algebra.
//! * [`scalar`] — the [`Scalar`] trait (`f32`/`f64`): every kernel above is
//!   generic over the element type, with `f64` as the default type
//!   parameter so the classic double-precision API reads unchanged.
//! * [`observer`] — a zero-cost instrumentation hook that the stability
//!   experiments use to track element growth and pivot thresholds at every
//!   elimination stage.
//!
//! The kernels are written for clarity-first correctness; the paper's
//! performance tables are regenerated under a machine model (see
//! `calu-netsim`), not on the host. The exception is [`blas3::gemm`], the
//! trailing update every factorization spends its time in: it is a packed,
//! register-blocked kernel whose bits depend only on its input and on the
//! instruction-set arm the host takes (see [`blas3`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod error;
pub mod gen;
pub mod lapack;
pub mod mat;
pub mod norms;
pub mod observer;
pub mod perm;
pub mod scalar;
pub mod tile;
pub mod view;

pub use error::{Error, Result};
pub use mat::Matrix;
pub use observer::{NoObs, PivotObserver};
pub use scalar::Scalar;
pub use tile::{TileLayout, TileMatrix};
pub use view::{MatView, MatViewMut};

/// Side on which a triangular matrix multiplies in [`blas3::trsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A) * X = B` (A on the left).
    Left,
    /// Solve `X * op(A) = B` (A on the right).
    Right,
}

/// Which triangle of the matrix argument a triangular kernel reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

/// Whether the diagonal of a triangular matrix is assumed to be all ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are implicitly 1 and are not read.
    Unit,
    /// Diagonal entries are read from the matrix.
    NonUnit,
}
