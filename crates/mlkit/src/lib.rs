//! Regression models, cross-validation and random projections.
//!
//! This crate is the stand-in for the scikit-learn routines the paper's
//! implementation calls into (§4): ordinary least squares, multi-target
//! ridge regression (primal and kernel/dual form for the p ≫ n regime),
//! lasso via coordinate descent, time-series-aware k-fold cross-validation
//! with a λ grid search, and Gaussian random projections.
//!
//! The central entry point for scoring is [`cv::cross_validated_r2`], which
//! implements §3.5's protocol exactly: k = 5 contiguous folds whose
//! validation time ranges never overlap the training ranges, a grid search
//! over the ridge penalty, and an out-of-sample r² ("adjusted r²" in the
//! paper's sense) as the returned score.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // indexed loops read naturally in these math kernels

use explainit_linalg::Matrix;

pub mod cv;
pub mod lasso;
pub mod ols;
pub mod projection;
pub mod ridge;
pub mod standardize;

pub use cv::{cross_validated_r2, CvConfig, TimeSeriesSplit};
pub use lasso::LassoModel;
pub use ols::OlsModel;
pub use projection::GaussianProjection;
pub use ridge::{Residualizer, RidgeModel};
pub use standardize::Standardizer;

/// Errors surfaced by model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Design/target row counts differ.
    RowMismatch {
        /// Rows in the design matrix.
        x_rows: usize,
        /// Rows in the target matrix.
        y_rows: usize,
    },
    /// Not enough rows to fit or cross-validate.
    TooFewRows {
        /// Rows available.
        rows: usize,
        /// Rows required.
        needed: usize,
    },
    /// The design matrix contains NaN or infinite entries.
    NonFiniteInput,
    /// An inner linear solve failed (singular / not positive definite).
    SolveFailed(String),
    /// A fitting or cross-validation setting is out of range: a negative
    /// or non-finite penalty, or fewer than two folds.
    InvalidConfig(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::RowMismatch { x_rows, y_rows } => {
                write!(f, "design has {x_rows} rows but target has {y_rows}")
            }
            MlError::TooFewRows { rows, needed } => {
                write!(f, "need at least {needed} rows, got {rows}")
            }
            MlError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            MlError::SolveFailed(msg) => write!(f, "linear solve failed: {msg}"),
            MlError::InvalidConfig(msg) => write!(f, "invalid model configuration: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Result alias for model fitting.
pub type Result<T> = std::result::Result<T, MlError>;

/// Rejects a penalty that is negative, NaN or infinite.
pub(crate) fn check_lambda(lambda: f64) -> Result<()> {
    if lambda >= 0.0 && lambda.is_finite() {
        Ok(())
    } else {
        Err(MlError::InvalidConfig(format!(
            "penalty must be finite and non-negative, got {lambda}"
        )))
    }
}

/// The row, size and finiteness checks every fit applies to `(x, y)`, in
/// this order.
pub(crate) fn check_fit_inputs(x: &Matrix, y: &Matrix) -> Result<()> {
    if x.nrows() != y.nrows() {
        return Err(MlError::RowMismatch { x_rows: x.nrows(), y_rows: y.nrows() });
    }
    if x.nrows() < 2 {
        return Err(MlError::TooFewRows { rows: x.nrows(), needed: 2 });
    }
    if x.has_non_finite() || y.has_non_finite() {
        return Err(MlError::NonFiniteInput);
    }
    Ok(())
}
