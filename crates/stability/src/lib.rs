//! # calu-stability — the paper's numerical-stability laboratory
//!
//! Section 6.1 of *Communication Avoiding Gaussian Elimination* argues that
//! ca-pivoting is "as stable as Gaussian elimination with partial pivoting
//! in practice" via four instruments, all implemented here:
//!
//! * the **Trefethen-Schreiber growth factor** `gT = max |a_ij^(k)| / σ_A`
//!   ([`growth`]) — Figure 2 (left) shows `gT ≈ c·n^(2/3)` for ca-pivoting,
//!   the same law as partial pivoting;
//! * the **pivot threshold** `τ` — Figure 2 (right) shows `τ_min ≥ 0.33`,
//!   i.e. `|L| ≤ 3` (collected by `calu-core`'s `PivotStats`);
//! * the **HPL accuracy tests** `HPL1/2/3` and the componentwise backward
//!   error `wb` ([`residuals`]) — Tables 1-2;
//! * sampling drivers with the paper's sample-size rule
//!   `S = max(10·2^(10−k), 3)` for `n = 2^k` ([`suite`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod growth;
pub mod residuals;
pub mod suite;

pub use growth::growth_reference;
pub use residuals::{backward_error_inf, componentwise_backward_error, hpl_tests};
pub use suite::{
    run_calu_case, run_calu_ensemble_case, run_gepp_case, run_gepp_ensemble_case, Ensemble,
};
