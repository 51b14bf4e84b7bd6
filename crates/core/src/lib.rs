//! The ExplainIt! root-cause analysis engine.
//!
//! This crate implements the paper's primary contribution (§3–§4): given a
//! target feature family `Y`, an optional conditioning set `Z`, and a search
//! space of candidate families `X_i`, score every hypothesis triple
//! `(X_i, Y, Z)` by the degree of statistical dependence `Y ~ X_i | Z` and
//! return the top-K ranked candidates.
//!
//! * [`family::FeatureFamily`] — a named group of univariate metrics on a
//!   shared time grid (§3.2);
//! * [`hypothesis`] — hypothesis enumeration: all-families-vs-target cross
//!   product with the broadcast-join fast path (§3.3, §4.2);
//! * [`scorers`] — `CorrMean`, `CorrMax`, joint ridge (`L2`), random
//!   projection variants (`L2-P50`, `L2-P500`), `Lasso`, and the
//!   three-regression conditional procedure (§3.5, Appendix B);
//! * [`pseudocause`] — seasonal/trend pseudocauses to condition on (§3.4);
//! * [`engine::Engine`] — the interactive loop of Algorithm 1: parallel
//!   scoring over hypotheses (the paper's unit of parallelism, §4), ranking,
//!   p-values and top-K reports;
//! * [`baselines`] — the vanishing-correlation anomaly ranker from related
//!   work (§7) for comparison;
//! * [`report`] — rendering rankings and prediction overlays (Figures 14/15).
//!
//! # Quickstart
//!
//! ```
//! use explainit_core::{Engine, EngineConfig, FeatureFamily, ScorerKind};
//!
//! // Three tiny families; `y` tracks `x1` and ignores `x2`.
//! let t: Vec<i64> = (0..40).collect();
//! let base: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
//! let y = FeatureFamily::univariate("y", t.clone(), base.clone());
//! let x1 = FeatureFamily::univariate("x1", t.clone(), base.iter().map(|v| 2.0 * v).collect());
//! let x2 = FeatureFamily::univariate("x2", t.clone(), (0..40).map(|i| ((i * 37 % 11) as f64)).collect());
//! let mut engine = Engine::new(EngineConfig::default());
//! engine.add_family(y);
//! engine.add_family(x1);
//! engine.add_family(x2);
//! let ranking = engine.rank("y", &[], ScorerKind::CorrMax).unwrap();
//! assert_eq!(ranking.entries[0].family, "x1");
//! ```

#![forbid(unsafe_code)]

pub mod autoselect;
pub mod baselines;
pub mod engine;
pub mod family;
pub mod hypothesis;
pub mod lagged;
pub mod pseudocause;
pub mod report;
pub mod scorers;

pub use autoselect::{auto_select_scorer, ScorerChoice};
pub use engine::{Engine, EngineConfig, RankedHypothesis, Ranking};
pub use family::FeatureFamily;
pub use hypothesis::{Hypothesis, HypothesisSet};
pub use lagged::with_lags;
pub use pseudocause::derive_pseudocause;
pub use scorers::{score_hypothesis, ScoreDetail, ScorerKind};

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A referenced family does not exist.
    UnknownFamily(String),
    /// The target family overlaps the conditioning set (§3.3: the triple
    /// must be disjoint).
    OverlappingRoles(String),
    /// Too few shared time steps between the families involved.
    InsufficientOverlap {
        /// Rows available after alignment.
        rows: usize,
        /// Rows required.
        needed: usize,
    },
    /// Underlying model failure.
    Model(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownFamily(n) => write!(f, "unknown feature family: {n}"),
            CoreError::OverlappingRoles(n) => {
                write!(f, "family {n} cannot appear in more than one of X, Y, Z")
            }
            CoreError::InsufficientOverlap { rows, needed } => {
                write!(f, "only {rows} shared time steps, need at least {needed}")
            }
            CoreError::Model(m) => write!(f, "model failure: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<explainit_ml::MlError> for CoreError {
    fn from(e: explainit_ml::MlError) -> Self {
        CoreError::Model(e.to_string())
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, CoreError>;
