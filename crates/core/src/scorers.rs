//! Hypothesis scoring (§3.5 of the paper).
//!
//! * **Univariate**: `CorrMean` / `CorrMax` — mean / max absolute pairwise
//!   Pearson correlation between the columns of X and Y.
//! * **Joint**: `L2` — multi-target ridge regression of Y on X with k-fold
//!   time-contiguous cross-validation and a λ grid; the score is the
//!   out-of-sample percentage of variance explained, clamped to `[0, 1]`.
//! * **Random projection**: `L2P { d }` — project X (and Y/Z) to at most `d`
//!   dimensions with a fresh Gaussian projection per sample and average the
//!   `L2` score over three samples (§4.2).
//! * **Lasso**: the L1 variant the paper compared against (§3.5).
//!
//! **Conditioning** (any scorer, Z non-empty): the three-regression
//! residual procedure of §3.5/Appendix B — residualise Y and X on Z, then
//! score the residuals.

use explainit_linalg::Matrix;
use explainit_ml::cv::PenaltyKind;
use explainit_ml::projection::project_if_wide;
use explainit_ml::{cross_validated_r2, CvConfig, Residualizer};
use explainit_stats::{chebyshev_p_value, pearson};

use crate::{CoreError, Result};

/// The scoring algorithm to run (the five methods of Table 6, plus Lasso).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScorerKind {
    /// Mean absolute pairwise Pearson correlation.
    CorrMean,
    /// Max absolute pairwise Pearson correlation.
    CorrMax,
    /// Joint ridge regression with cross-validation.
    L2,
    /// Ridge after Gaussian random projection to at most `d` dims.
    L2P {
        /// Projection dimension (the paper evaluates 50 and 500).
        d: usize,
    },
    /// Joint lasso regression with cross-validation.
    Lasso,
}

impl ScorerKind {
    /// The paper's `L2 − P50`.
    pub const L2_P50: ScorerKind = ScorerKind::L2P { d: 50 };
    /// The paper's `L2 − P500`.
    pub const L2_P500: ScorerKind = ScorerKind::L2P { d: 500 };

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            ScorerKind::CorrMean => "CorrMean".into(),
            ScorerKind::CorrMax => "CorrMax".into(),
            ScorerKind::L2 => "L2".into(),
            ScorerKind::L2P { d } => format!("L2-P{d}"),
            ScorerKind::Lasso => "Lasso".into(),
        }
    }

    /// Parses a scorer name as written on the SQL / CLI surface
    /// (case-insensitive; `l2-p50` and `l2p50` both work). `auto` is not a
    /// [`ScorerKind`] — callers route it to
    /// [`crate::auto_select_scorer`].
    pub fn parse(name: &str) -> Option<ScorerKind> {
        match name.to_ascii_lowercase().replace('-', "").as_str() {
            "corrmean" => Some(ScorerKind::CorrMean),
            "corrmax" => Some(ScorerKind::CorrMax),
            "l2" => Some(ScorerKind::L2),
            "l2p50" => Some(ScorerKind::L2_P50),
            "l2p500" => Some(ScorerKind::L2_P500),
            "lasso" => Some(ScorerKind::Lasso),
            _ => None,
        }
    }

    /// All five scorers evaluated in Table 6.
    pub fn table6_set() -> Vec<ScorerKind> {
        vec![
            ScorerKind::CorrMean,
            ScorerKind::CorrMax,
            ScorerKind::L2,
            ScorerKind::L2_P50,
            ScorerKind::L2_P500,
        ]
    }
}

/// Everything a scorer reports about one hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreDetail {
    /// The dependence score in `[0, 1]`.
    pub score: f64,
    /// Ridge/lasso penalty selected by the grid search, if applicable.
    pub best_lambda: Option<f64>,
    /// Chebyshev p-value bound for the score (Appendix A.2), using the
    /// effective predictor count.
    pub p_value: f64,
    /// Number of X features that entered the regression (post projection).
    pub effective_predictors: usize,
}

/// Scoring options shared across hypotheses.
#[derive(Debug, Clone)]
pub struct ScoreConfig {
    /// Cross-validation settings for the joint scorers.
    pub cv: CvConfig,
    /// λ grid for the Lasso scorer. The soft-threshold scale of L1 differs
    /// from the L2 shrinkage scale by orders of magnitude, so Lasso gets
    /// its own (much smaller) grid.
    pub lasso_lambda_grid: Vec<f64>,
    /// Number of random projection samples to average (the paper uses 3).
    pub projection_samples: usize,
    /// Seed for projection sampling (per-hypothesis offsets are added).
    pub seed: u64,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        ScoreConfig {
            cv: CvConfig::default(),
            lasso_lambda_grid: vec![1e-4, 1e-3, 1e-2, 1e-1, 1.0],
            projection_samples: 3,
            seed: 0xC0FFEE,
        }
    }
}

/// Penalty of the Z-residualisation: vanishing, so the fit is numerically
/// OLS, which is what Appendix B's correctness proof assumes.
pub const RESIDUALIZE_LAMBDA: f64 = 1e-8;

/// Scores one hypothesis triple.
///
/// `x` is `T × nx`, `y` is `T × ny`, `z` (optional) is `T × nz`; rows must
/// already be time-aligned. Returns the score detail.
pub fn score_hypothesis(
    kind: ScorerKind,
    x: &Matrix,
    y: &Matrix,
    z: Option<&Matrix>,
    cfg: &ScoreConfig,
) -> Result<ScoreDetail> {
    check_rows(x, y, z, cfg)?;
    // Conditioning: residualise both sides on Z, then score the residuals
    // with the requested scorer (§3.5's unified treatment).
    match z {
        Some(z) if z.ncols() > 0 => {
            let residualizer = conditioning(z)?;
            let ry = residualizer.residuals(y)?;
            let rx = residualizer.residuals(x)?;
            score_residuals(kind, &rx, &ry, cfg)
        }
        _ => score_residuals(kind, x, y, cfg),
    }
}

/// Scores `y ~ x` on data already residualised on Z (or unconditioned):
/// the second half of [`score_hypothesis`], for callers that residualise
/// many candidates on one Z.
pub fn score_residuals(
    kind: ScorerKind,
    x_eff: &Matrix,
    y_eff: &Matrix,
    cfg: &ScoreConfig,
) -> Result<ScoreDetail> {
    check_rows(x_eff, y_eff, None, cfg)?;
    let n = y_eff.nrows();
    match kind {
        ScorerKind::CorrMean => corr_score(x_eff, y_eff, n, false),
        ScorerKind::CorrMax => corr_score(x_eff, y_eff, n, true),
        ScorerKind::L2 => joint_score(x_eff, y_eff, &cfg.cv, PenaltyKind::Ridge),
        ScorerKind::Lasso => {
            let cv = CvConfig { lambda_grid: cfg.lasso_lambda_grid.clone(), ..cfg.cv.clone() };
            joint_score(x_eff, y_eff, &cv, PenaltyKind::Lasso)
        }
        ScorerKind::L2P { d } => {
            if d == 0 {
                return Err(CoreError::Model("projection dimension must be positive".into()));
            }
            // No dimension exceeds d: the projection is the identity, so
            // averaging over samples would just repeat the same fit.
            if x_eff.ncols() <= d && y_eff.ncols() <= d {
                return joint_score(x_eff, y_eff, &cfg.cv, PenaltyKind::Ridge);
            }
            let samples = cfg.projection_samples.max(1);
            let mut acc = 0.0;
            let mut lambda = None;
            let mut eff = 0usize;
            for s in 0..samples {
                let seed = cfg.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s as u64);
                let xp = project_if_wide(x_eff, d, seed);
                let yp = project_if_wide(y_eff, d, seed.wrapping_add(1));
                let detail = joint_score(&xp, &yp, &cfg.cv, PenaltyKind::Ridge)?;
                acc += detail.score;
                lambda = detail.best_lambda;
                eff = detail.effective_predictors;
            }
            let score = acc / samples as f64;
            Ok(ScoreDetail {
                score,
                best_lambda: lambda,
                p_value: chebyshev_p_value(score, n, eff.max(2)),
                effective_predictors: eff,
            })
        }
    }
}

/// Rejects misaligned matrices and too few rows for the folds.
fn check_rows(x: &Matrix, y: &Matrix, z: Option<&Matrix>, cfg: &ScoreConfig) -> Result<()> {
    let n = y.nrows();
    if x.nrows() != n || z.is_some_and(|z| z.nrows() != n) {
        return Err(CoreError::Model("misaligned hypothesis matrices".into()));
    }
    if n < 2 * cfg.cv.k_folds {
        return Err(CoreError::InsufficientOverlap { rows: n, needed: 2 * cfg.cv.k_folds });
    }
    Ok(())
}

/// Standardises and factors the conditioning set Z once (ridge at
/// [`RESIDUALIZE_LAMBDA`]), so that each target residualised on it costs
/// only a solve.
pub fn conditioning(z: &Matrix) -> Result<Residualizer> {
    Ok(Residualizer::new(z, RESIDUALIZE_LAMBDA)?)
}

/// Residuals of the regression `target ~ z`: [`conditioning`] for one
/// target.
pub fn residualize(target: &Matrix, z: &Matrix) -> Result<Matrix> {
    Ok(conditioning(z)?.residuals(target)?)
}

fn corr_score(x: &Matrix, y: &Matrix, n: usize, take_max: bool) -> Result<ScoreDetail> {
    if x.ncols() == 0 || y.ncols() == 0 {
        return Err(CoreError::Model("empty feature matrix".into()));
    }
    let mut acc = 0.0f64;
    let mut max = 0.0f64;
    let mut count = 0usize;
    // Stream columns to avoid materialising both matrices twice.
    for i in 0..x.ncols() {
        let xi = x.column(i);
        for j in 0..y.ncols() {
            let yj = y.column(j);
            let r = pearson(&xi, &yj).abs();
            acc += r;
            max = max.max(r);
            count += 1;
        }
    }
    let score = if take_max { max } else { acc / count as f64 };
    Ok(ScoreDetail {
        score,
        best_lambda: None,
        // Pairwise correlation ≙ single-predictor regression (r² = ρ²);
        // bound with p = 2 predictors as the closest Chebyshev form.
        p_value: chebyshev_p_value(score * score, n, 2),
        effective_predictors: 1,
    })
}

fn joint_score(x: &Matrix, y: &Matrix, cv: &CvConfig, penalty: PenaltyKind) -> Result<ScoreDetail> {
    let cv_cfg = CvConfig { penalty, ..cv.clone() };
    let out = cross_validated_r2(x, y, &cv_cfg)?;
    // Percent variance explained on unseen data, clamped (§3.5: 0 = no
    // predictive power, 1 = perfect).
    let score = out.r2.clamp(0.0, 1.0);
    Ok(ScoreDetail {
        score,
        best_lambda: Some(out.best_lambda),
        p_value: chebyshev_p_value(score, y.nrows(), x.ncols().max(2)),
        effective_predictors: x.ncols(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn scorer_names_parse() {
        assert_eq!(ScorerKind::parse("l2"), Some(ScorerKind::L2));
        assert_eq!(ScorerKind::parse("CorrMax"), Some(ScorerKind::CorrMax));
        assert_eq!(ScorerKind::parse("L2-P50"), Some(ScorerKind::L2_P50));
        assert_eq!(ScorerKind::parse("l2p500"), Some(ScorerKind::L2_P500));
        assert_eq!(ScorerKind::parse("lasso"), Some(ScorerKind::Lasso));
        assert_eq!(ScorerKind::parse("auto"), None);
        assert_eq!(ScorerKind::parse("nope"), None);
        // Every display name round-trips.
        for kind in ScorerKind::table6_set() {
            assert_eq!(ScorerKind::parse(&kind.name()), Some(kind));
        }
    }

    fn noise(n: usize, cols: usize, seed: u64) -> Matrix {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, cols);
        for i in 0..n {
            for j in 0..cols {
                m[(i, j)] = rng.gen::<f64>() * 2.0 - 1.0;
            }
        }
        m
    }

    fn signal_pair(n: usize) -> (Matrix, Matrix) {
        let x = noise(n, 3, 1);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            y[(i, 0)] = 2.0 * x[(i, 0)] - x[(i, 1)] + 0.1 * ((i % 7) as f64 - 3.0);
        }
        (x, y)
    }

    #[test]
    fn corr_scorers_detect_linear_signal() {
        let (x, y) = signal_pair(200);
        let cfg = ScoreConfig::default();
        let mean = score_hypothesis(ScorerKind::CorrMean, &x, &y, None, &cfg).unwrap();
        let max = score_hypothesis(ScorerKind::CorrMax, &x, &y, None, &cfg).unwrap();
        assert!(max.score >= mean.score);
        assert!(max.score > 0.6, "max = {}", max.score);
    }

    #[test]
    fn corr_scorers_near_zero_on_noise() {
        let x = noise(400, 2, 2);
        let y = noise(400, 1, 3);
        let cfg = ScoreConfig::default();
        let max = score_hypothesis(ScorerKind::CorrMax, &x, &y, None, &cfg).unwrap();
        assert!(max.score < 0.2, "max = {}", max.score);
    }

    #[test]
    fn l2_detects_joint_signal_missed_by_single_pair() {
        // y = x0 + x1 with anti-correlated x0, x1: each pairwise corr is
        // weak-ish but jointly they explain y perfectly.
        let n = 300;
        let a = noise(n, 1, 4);
        let b = noise(n, 1, 5);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            let u = a[(i, 0)];
            let v = b[(i, 0)];
            x[(i, 0)] = u + v;
            x[(i, 1)] = u - v;
            y[(i, 0)] = v; // = (x0 - x1) / 2
        }
        let cfg = ScoreConfig::default();
        let l2 = score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg).unwrap();
        assert!(l2.score > 0.95, "l2 = {}", l2.score);
    }

    #[test]
    fn l2_controlled_on_noise() {
        let x = noise(300, 10, 6);
        let y = noise(300, 1, 7);
        let cfg = ScoreConfig::default();
        let l2 = score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg).unwrap();
        assert!(l2.score < 0.15, "l2 = {}", l2.score);
    }

    #[test]
    fn conditioning_removes_explained_dependence() {
        // Chain Z -> Y, Z -> X: X and Y are marginally dependent through Z
        // but conditionally independent given Z.
        let n = 400;
        let z = noise(n, 1, 8);
        let ex = noise(n, 1, 9);
        let ey = noise(n, 1, 10);
        let mut x = Matrix::zeros(n, 1);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            x[(i, 0)] = 1.5 * z[(i, 0)] + 0.4 * ex[(i, 0)];
            y[(i, 0)] = -2.0 * z[(i, 0)] + 0.4 * ey[(i, 0)];
        }
        let cfg = ScoreConfig::default();
        let marginal = score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg).unwrap();
        let conditional = score_hypothesis(ScorerKind::L2, &x, &y, Some(&z), &cfg).unwrap();
        assert!(marginal.score > 0.5, "marginal {}", marginal.score);
        assert!(conditional.score < 0.1, "conditional {}", conditional.score);
    }

    #[test]
    fn conditioning_preserves_direct_dependence() {
        // X -> Y with an irrelevant Z: conditioning must NOT kill the score.
        let n = 400;
        let x = noise(n, 1, 11);
        let z = noise(n, 1, 12);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            y[(i, 0)] = 2.0 * x[(i, 0)] + 0.2 * ((i % 5) as f64);
        }
        let cfg = ScoreConfig::default();
        let conditional = score_hypothesis(ScorerKind::L2, &x, &y, Some(&z), &cfg).unwrap();
        assert!(conditional.score > 0.8, "conditional {}", conditional.score);
    }

    #[test]
    fn projection_scorer_close_to_l2_on_wide_data() {
        // 80 features, only first 2 matter.
        let n = 250;
        let x = noise(n, 80, 13);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            y[(i, 0)] = x[(i, 0)] + x[(i, 1)];
        }
        let cfg = ScoreConfig::default();
        let l2 = score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg).unwrap();
        let p50 = score_hypothesis(ScorerKind::L2_P50, &x, &y, None, &cfg).unwrap();
        // Projection loses some signal but stays in the same regime.
        assert!(p50.score > 0.3, "p50 = {}", p50.score);
        assert!(l2.score > p50.score - 0.2);
        assert_eq!(p50.effective_predictors, 50);
    }

    #[test]
    fn projection_identity_when_narrow() {
        let (x, y) = signal_pair(150);
        let cfg = ScoreConfig::default();
        let l2 = score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg).unwrap();
        let p500 = score_hypothesis(ScorerKind::L2_P500, &x, &y, None, &cfg).unwrap();
        // x has 3 cols <= 500: identical modulo CV determinism.
        assert!((l2.score - p500.score).abs() < 1e-9);
    }

    #[test]
    fn lasso_scorer_works() {
        let (x, y) = signal_pair(200);
        let cfg = ScoreConfig {
            cv: CvConfig { lambda_grid: vec![1e-4, 1e-2, 1.0], ..CvConfig::default() },
            ..ScoreConfig::default()
        };
        let s = score_hypothesis(ScorerKind::Lasso, &x, &y, None, &cfg).unwrap();
        assert!(s.score > 0.8, "lasso = {}", s.score);
    }

    #[test]
    fn p_values_decrease_with_score() {
        let (x, y) = signal_pair(200);
        let cfg = ScoreConfig::default();
        let strong = score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg).unwrap();
        let weak = score_hypothesis(ScorerKind::L2, &noise(200, 3, 20), &y, None, &cfg).unwrap();
        assert!(strong.p_value <= weak.p_value);
    }

    #[test]
    fn misaligned_inputs_error() {
        let x = noise(100, 2, 0);
        let y = noise(90, 1, 1);
        let cfg = ScoreConfig::default();
        assert!(matches!(
            score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg),
            Err(CoreError::Model(_))
        ));
    }

    #[test]
    fn too_few_rows_error() {
        let x = noise(6, 2, 0);
        let y = noise(6, 1, 1);
        let cfg = ScoreConfig::default();
        assert!(matches!(
            score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg),
            Err(CoreError::InsufficientOverlap { .. })
        ));
    }

    #[test]
    fn scorer_names_match_paper() {
        assert_eq!(ScorerKind::CorrMean.name(), "CorrMean");
        assert_eq!(ScorerKind::L2_P50.name(), "L2-P50");
        assert_eq!(ScorerKind::L2_P500.name(), "L2-P500");
        assert_eq!(ScorerKind::table6_set().len(), 5);
    }

    #[test]
    fn constant_columns_are_harmless() {
        let n = 120;
        let mut x = noise(n, 2, 30);
        for i in 0..n {
            x[(i, 1)] = 7.0; // constant feature
        }
        let y = noise(n, 1, 31);
        let cfg = ScoreConfig::default();
        let s = score_hypothesis(ScorerKind::CorrMean, &x, &y, None, &cfg).unwrap();
        assert!(s.score.is_finite());
        let s = score_hypothesis(ScorerKind::L2, &x, &y, None, &cfg).unwrap();
        assert!(s.score.is_finite());
    }
}
