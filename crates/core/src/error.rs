//! Error type for the sPCA algorithms.

use std::fmt;

use dcluster::ClusterError;
use linalg::LinalgError;

/// Failures surfaced by PCA fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum SpcaError {
    /// The input matrix has no rows or no columns.
    EmptyInput,
    /// More components requested than the data supports.
    TooManyComponents {
        /// Requested component count.
        requested: usize,
        /// min(N, D) of the input.
        available: usize,
    },
    /// A numeric routine failed (singular M, non-convergent eigensolver…).
    Numeric(LinalgError),
    /// The simulated cluster refused a resource (driver OOM — the MLlib
    /// failure mode of Figures 7–8).
    Cluster(ClusterError),
    /// The simulated driver crashed mid-run (fault injection through
    /// [`crate::SpcaConfig`]). Re-running `fit` on the same cluster
    /// resumes from the last checkpoint.
    DriverCrashed {
        /// The iteration the crash interrupted.
        iteration: usize,
    },
    /// A checkpoint blob failed to decode.
    CorruptCheckpoint {
        /// What the decoder objected to.
        reason: String,
    },
    /// A serving workload was mis-specified (a tenant serving without a
    /// fitted model, an empty request stream, a zero batch…). Rejected
    /// at validation, before any virtual time is charged.
    InvalidServing {
        /// Human-readable description of the offending spec.
        what: String,
    },
    /// A fit configuration was mis-specified (nonsensical randomized
    /// knobs: zero oversampling, no power passes on a declared-noisy
    /// spectrum, sketch wider than the input). Rejected by
    /// `SpcaConfig::validate` before any cluster work is charged.
    InvalidConfig {
        /// Human-readable description of the offending knob combination.
        what: String,
    },
    /// A pass produced a non-finite model (noise variance, components or
    /// mean), a NaN objective or a non-finite sampled error: the
    /// arithmetic overflowed (input values too large for `f64`). Returned
    /// before that pass's checkpoint is written.
    Diverged {
        /// The 1-based pass (EM iteration or randomized pass).
        pass: usize,
        /// Which quantity went non-finite.
        quantity: &'static str,
        /// Its value.
        value: f64,
    },
    /// Input rows do not match the model's width `D` (projecting data
    /// with a model fitted on a different column space).
    DimensionMismatch {
        /// The model's input dimensionality `D`.
        expected: usize,
        /// The offending input's column count.
        found: usize,
    },
}

impl fmt::Display for SpcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpcaError::EmptyInput => write!(f, "input matrix is empty"),
            SpcaError::TooManyComponents { requested, available } => write!(
                f,
                "requested {requested} principal components but the data supports at most {available}"
            ),
            SpcaError::Numeric(e) => write!(f, "numeric failure: {e}"),
            SpcaError::Cluster(e) => write!(f, "cluster failure: {e}"),
            SpcaError::DriverCrashed { iteration } => {
                write!(f, "driver crashed during EM iteration {iteration}; re-run to resume")
            }
            SpcaError::CorruptCheckpoint { reason } => {
                write!(f, "checkpoint is corrupt: {reason}")
            }
            SpcaError::InvalidServing { what } => {
                write!(f, "invalid serving spec: {what}")
            }
            SpcaError::InvalidConfig { what } => {
                write!(f, "invalid fit config: {what}")
            }
            SpcaError::Diverged { pass, quantity, value } => write!(
                f,
                "fit diverged at pass {pass}: {quantity} is {value} (input values too large?)"
            ),
            SpcaError::DimensionMismatch { expected, found } => {
                write!(f, "data has {found} columns but the model expects {expected}")
            }
        }
    }
}

impl std::error::Error for SpcaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpcaError::Numeric(e) => Some(e),
            SpcaError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for SpcaError {
    fn from(e: LinalgError) -> Self {
        SpcaError::Numeric(e)
    }
}

impl From<ClusterError> for SpcaError {
    fn from(e: ClusterError) -> Self {
        SpcaError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SpcaError::TooManyComponents { requested: 60, available: 50 };
        assert!(e.to_string().contains("60"));

        let e: SpcaError = LinalgError::Singular { routine: "lu", pivot: 0.0 }.into();
        assert!(std::error::Error::source(&e).is_some());

        let e: SpcaError =
            ClusterError::DriverOom { requested: 1, in_use: 0, limit: 0 }.into();
        assert!(e.to_string().contains("driver"));

        let e = SpcaError::InvalidServing { what: "tenant 0 has no model".into() };
        assert!(e.to_string().contains("tenant 0"));

        let e = SpcaError::InvalidConfig { what: "rpca_oversample = 0".into() };
        assert!(e.to_string().contains("invalid fit config"));
        assert!(e.to_string().contains("rpca_oversample"));

        let e = SpcaError::Diverged { pass: 2, quantity: "sampled error", value: f64::NAN };
        assert_eq!(e.to_string(), "fit diverged at pass 2: sampled error is NaN (input values too large?)");

        let e = SpcaError::DimensionMismatch { expected: 120, found: 7 };
        assert!(e.to_string().contains("7 columns") && e.to_string().contains("expects 120"));
    }
}
