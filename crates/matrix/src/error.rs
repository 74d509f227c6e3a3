//! Error type shared by the factorization kernels.

use std::fmt;

/// Errors produced by factorizations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An exactly-zero (or non-finite) pivot was encountered at the given
    /// global elimination step; the factorization cannot proceed.
    ///
    /// LAPACK's `GETF2` records this in `info` and keeps going; since every
    /// consumer in this reproduction treats a zero pivot as fatal (the CALU
    /// panel factorization after tournament pivoting must not divide by
    /// zero), we surface it as an error instead.
    SingularPivot {
        /// Zero-based elimination step (column) at which the pivot vanished.
        step: usize,
    },
    /// A matrix had an unusable shape for the requested operation
    /// (for example an empty panel).
    BadShape {
        /// Human-readable description of the violated requirement.
        what: &'static str,
    },
    /// The operation was canceled because a cooperating task failed
    /// elsewhere (a singular pivot on another rank of a distributed run).
    /// Carriers of this variant are collateral, not root causes: the
    /// originating failure is reported separately.
    Canceled,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SingularPivot { step } => {
                write!(f, "zero or non-finite pivot at elimination step {step}")
            }
            Error::BadShape { what } => write!(f, "bad matrix shape: {what}"),
            Error::Canceled => write!(f, "canceled: a cooperating task failed"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;
