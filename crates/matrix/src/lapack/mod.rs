//! LAPACK-style dense factorizations.
//!
//! * [`getf2`] — classic unblocked LU with partial pivoting (the paper's
//!   `DGETF2`; BLAS-2 bound).
//! * [`rgetf2`] — recursive LU (the paper's `RGETF2`, Gustavson 1997 /
//!   Toledo 1997; BLAS-3 rich). Tables 3-4 compare TSLU built on each.
//! * [`getrf`] — blocked right-looking LU with partial pivoting; the GEPP
//!   baseline whose parallel analogue is ScaLAPACK's `PDGETRF`.
//! * [`lu_nopiv`] — LU with **no** pivoting; CALU applies it to the top
//!   block of a panel after tournament pivoting has permuted the winners
//!   there.
//! * [`lu_rows`] — the panel's remaining rows, `L₂₁ = A₂₁ U₁₁⁻¹`, as a
//!   recursive `gemm`-based elimination whose output rows are bitwise
//!   independent of one another.
//! * [`getrs`] / [`getrs_t`] — triangular solves from the packed factors.
//! * [`getri`] — explicit inverse from the packed factors.
//! * [`gecon`] — Hager-Higham reciprocal condition estimate.
//!
//! All factorizations overwrite their input with the packed `L\U` factors
//! (unit lower triangle implicit) and accept a
//! [`PivotObserver`](crate::observer::PivotObserver) for the stability
//! instrumentation.

mod gecon;
mod getf2;
mod getrf;
mod getri;
mod getrs;
mod lu_nopiv;
mod lu_rows;
mod rgetf2;

pub use gecon::gecon;
pub use getf2::{getf2, getf2_info, getf2_info_on};
pub use getrf::{getrf, GetrfOpts, PanelAlg};
pub use getri::getri;
pub use getrs::{getrs, getrs_mat, getrs_t};
pub use lu_nopiv::lu_nopiv;
pub use lu_rows::{lu_rows, lu_rows_on};
pub use rgetf2::{rgetf2, rgetf2_info, rgetf2_info_on};
