//! Time-series-aware k-fold cross-validation with penalty grid search.
//!
//! §3.5 of the paper: *"we use k-fold cross-validation for model selection
//! (with k = 5), which ensures that the r² score is an estimate of the model
//! performance on unseen data … Since we are dealing with time series data
//! that has rich auto-correlation, we ensure that the validation set's time
//! range does not overlap the training set's time range."*
//!
//! [`TimeSeriesSplit`] partitions the row range into `k` *contiguous* blocks
//! — each validation fold is one block, training is the remaining rows — so
//! validation timestamps never interleave with training timestamps.
//! [`cross_validated_r2`] runs the full protocol: for every penalty in the
//! grid, fit on each training fold, score out-of-sample r² on the held-out
//! block (against the training-mean baseline), and report the best
//! grid-point's mean.

use explainit_linalg::Matrix;

use crate::lasso::LassoPrecomputed;
use crate::ridge::{r2_columns_mean, RidgePrecomputed};
use crate::{check_lambda, MlError, Result};

/// Which penalised model the grid search fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PenaltyKind {
    /// Ridge (L2) — the paper's recommended default.
    #[default]
    Ridge,
    /// Lasso (L1) — slower; kept for the paper's Ridge-vs-Lasso comparison.
    Lasso,
}

/// Cross-validation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CvConfig {
    /// Number of contiguous folds (the paper uses 5).
    pub k_folds: usize,
    /// Penalty grid (the paper grid-searches over a handful of values).
    pub lambda_grid: Vec<f64>,
    /// Ridge or Lasso.
    pub penalty: PenaltyKind,
}

impl Default for CvConfig {
    fn default() -> Self {
        CvConfig {
            k_folds: 5,
            // Log-spaced grid; Figure 13 shows CV selecting very large λ
            // under the null, so the grid must reach high.
            lambda_grid: vec![1e-1, 1e1, 1e3, 1e5, 1e7],
            penalty: PenaltyKind::Ridge,
        }
    }
}

/// The outcome of a cross-validated fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvScore {
    /// Mean out-of-sample r² at the best grid point (can be negative; the
    /// engine clamps to `[0, 1]` when ranking).
    pub r2: f64,
    /// The penalty selected by the grid search.
    pub best_lambda: f64,
}

/// Contiguous-block splitter for time-ordered rows.
#[derive(Debug, Clone, Copy)]
pub struct TimeSeriesSplit {
    n: usize,
    k: usize,
}

impl TimeSeriesSplit {
    /// Creates a splitter over `n` rows with `k` folds.
    ///
    /// # Panics
    /// Panics if `k < 2` or `n < 2k` (each fold needs at least two rows to
    /// carry any variance signal).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 2, "need at least 2 folds");
        assert!(n >= 2 * k, "need at least {} rows for {k} folds, got {n}", 2 * k);
        TimeSeriesSplit { n, k }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The half-open row range of validation fold `fold`.
    ///
    /// # Panics
    /// Panics if `fold >= k`.
    pub fn validation_range(&self, fold: usize) -> (usize, usize) {
        assert!(fold < self.k, "fold {fold} out of range");
        let base = self.n / self.k;
        let rem = self.n % self.k;
        // First `rem` folds get one extra row.
        let start = fold * base + fold.min(rem);
        let len = base + usize::from(fold < rem);
        (start, start + len)
    }

    /// Training row indices for `fold` (everything outside the validation
    /// block, order preserved).
    pub fn training_indices(&self, fold: usize) -> Vec<usize> {
        let (vs, ve) = self.validation_range(fold);
        (0..vs).chain(ve..self.n).collect()
    }
}

/// Coordinate-descent sweep cap and tolerance of every lasso fit in the
/// grid search.
const LASSO_MAX_SWEEPS: usize = 200;
const LASSO_TOL: f64 = 1e-7;

/// Runs the paper's scoring protocol on `(X, Y)` and returns the best
/// cross-validated r².
///
/// Fold-level failures (e.g. a singular fold with λ = 0) count as r² = 0 for
/// that fold rather than aborting the whole hypothesis — one degenerate
/// block of a long time range should not zero out the entire score. A
/// configuration no fold could run — fewer than two folds, or an empty,
/// negative or non-finite penalty grid — is [`MlError::InvalidConfig`].
pub fn cross_validated_r2(x: &Matrix, y: &Matrix, cfg: &CvConfig) -> Result<CvScore> {
    cross_validate(x, y, cfg, LassoPrecomputed::new)
}

/// The λ-independent statistics of one training fold.
enum FoldStats {
    Ridge(RidgePrecomputed),
    Lasso(LassoPrecomputed),
}

/// One fold: its training statistics and its held-out block.
struct Fold {
    stats: FoldStats,
    x_val: Matrix,
    y_val: Matrix,
}

/// [`cross_validated_r2`] with the lasso statistics built by `lasso`, so
/// tests can run the grid search on the residual-update oracle.
fn cross_validate(
    x: &Matrix,
    y: &Matrix,
    cfg: &CvConfig,
    lasso: fn(&Matrix, &Matrix) -> Result<LassoPrecomputed>,
) -> Result<CvScore> {
    if x.nrows() != y.nrows() {
        return Err(MlError::RowMismatch { x_rows: x.nrows(), y_rows: y.nrows() });
    }
    if cfg.k_folds < 2 {
        return Err(MlError::InvalidConfig(format!("need at least 2 folds, got {}", cfg.k_folds)));
    }
    if cfg.lambda_grid.is_empty() {
        return Err(MlError::InvalidConfig("empty lambda grid".into()));
    }
    for &lambda in &cfg.lambda_grid {
        check_lambda(lambda)?;
    }
    let n = x.nrows();
    if n < 2 * cfg.k_folds {
        return Err(MlError::TooFewRows { rows: n, needed: 2 * cfg.k_folds });
    }
    if x.has_non_finite() || y.has_non_finite() {
        return Err(MlError::NonFiniteInput);
    }
    let split = TimeSeriesSplit::new(n, cfg.k_folds);

    // Build each fold's λ-independent statistics once and reuse them across
    // the grid: ridge then pays one Cholesky per (fold, λ), lasso one
    // coordinate descent. The training rows themselves are not kept.
    let mut folds = Vec::with_capacity(cfg.k_folds);
    for f in 0..cfg.k_folds {
        let (vs, ve) = split.validation_range(f);
        let train_idx = split.training_indices(f);
        let x_train = x.select_rows(&train_idx);
        let y_train = y.select_rows(&train_idx);
        let stats = match cfg.penalty {
            PenaltyKind::Ridge => FoldStats::Ridge(RidgePrecomputed::new(&x_train, &y_train)?),
            PenaltyKind::Lasso => FoldStats::Lasso(lasso(&x_train, &y_train)?),
        };
        folds.push(Fold { stats, x_val: x.row_range(vs, ve), y_val: y.row_range(vs, ve) });
    }

    let mut best: Option<CvScore> = None;
    for &lambda in &cfg.lambda_grid {
        let mut acc = 0.0;
        for fold in &folds {
            // The baseline predicts the training mean (§3.5).
            let fold_r2 = match &fold.stats {
                FoldStats::Ridge(pre) => pre.fit(lambda).map(|m| {
                    r2_columns_mean(&fold.y_val, &m.predict(&fold.x_val), pre.target_means())
                }),
                FoldStats::Lasso(pre) => pre.fit(lambda, LASSO_MAX_SWEEPS, LASSO_TOL).map(|m| {
                    r2_columns_mean(&fold.y_val, &m.predict(&fold.x_val), pre.target_means())
                }),
            }
            .unwrap_or(0.0);
            // The paper's score lives in [0, 1] ("percent variance
            // explained"); clamp per fold so one catastrophic
            // extrapolation fold (negative r² of large magnitude, e.g.
            // collinear features whose cancellation breaks out of fold)
            // reads as "no evidence" rather than vetoing the other folds.
            acc += fold_r2.clamp(0.0, 1.0);
        }
        let mean = acc / cfg.k_folds as f64;
        if best.is_none_or(|b| mean > b.r2) {
            best = Some(CvScore { r2: mean, best_lambda: lambda });
        }
    }
    Ok(best.expect("non-empty grid produces a score"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal_data(n: usize) -> (Matrix, Matrix) {
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.11).sin();
            let b = (i as f64 * 0.05).cos();
            rows.push([a, b]);
            ys.push(2.0 * a + b + 0.05 * ((i * 37 % 11) as f64 - 5.0));
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    fn noise_data(n: usize, p: usize) -> (Matrix, Matrix) {
        // Deterministic pseudo-random, no real relationship.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push((0..p).map(|_| next()).collect::<Vec<f64>>());
            ys.push(next());
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    #[test]
    fn split_blocks_are_contiguous_and_cover() {
        let split = TimeSeriesSplit::new(23, 5);
        let mut covered = [false; 23];
        let mut prev_end = 0;
        for f in 0..5 {
            let (s, e) = split.validation_range(f);
            assert_eq!(s, prev_end, "blocks must be contiguous");
            for c in covered[s..e].iter_mut() {
                assert!(!*c);
                *c = true;
            }
            prev_end = e;
        }
        assert_eq!(prev_end, 23);
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn training_excludes_validation() {
        let split = TimeSeriesSplit::new(20, 4);
        for f in 0..4 {
            let (vs, ve) = split.validation_range(f);
            let train = split.training_indices(f);
            assert_eq!(train.len(), 20 - (ve - vs));
            assert!(train.iter().all(|&i| i < vs || i >= ve));
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn split_rejects_tiny_n() {
        TimeSeriesSplit::new(5, 5);
    }

    #[test]
    fn real_signal_scores_high() {
        let (x, y) = signal_data(300);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).unwrap();
        assert!(score.r2 > 0.8, "score = {:?}", score);
    }

    #[test]
    fn pure_noise_scores_near_zero() {
        let (x, y) = noise_data(300, 5);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).unwrap();
        assert!(score.r2 < 0.15, "score = {:?}", score);
    }

    #[test]
    fn overfitting_controlled_with_many_features() {
        // p close to n/2: in-sample r² would be huge; CV must stay low.
        let (x, y) = noise_data(100, 40);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).unwrap();
        assert!(score.r2 < 0.3, "score = {:?}", score);
    }

    #[test]
    fn grid_prefers_small_lambda_for_clean_signal() {
        let (x, y) = signal_data(200);
        let cfg = CvConfig { lambda_grid: vec![0.01, 1e6], ..CvConfig::default() };
        let score = cross_validated_r2(&x, &y, &cfg).unwrap();
        assert_eq!(score.best_lambda, 0.01);
    }

    #[test]
    fn lasso_penalty_path_works() {
        let (x, y) = signal_data(150);
        let cfg = CvConfig {
            penalty: PenaltyKind::Lasso,
            lambda_grid: vec![1e-4, 1e-2, 1.0],
            ..CvConfig::default()
        };
        let score = cross_validated_r2(&x, &y, &cfg).unwrap();
        assert!(score.r2 > 0.7, "score = {:?}", score);
    }

    #[test]
    fn error_on_too_few_rows() {
        let x = Matrix::zeros(6, 2);
        let y = Matrix::zeros(6, 1);
        assert!(matches!(
            cross_validated_r2(&x, &y, &CvConfig::default()),
            Err(MlError::TooFewRows { .. })
        ));
    }

    #[test]
    fn error_on_empty_grid() {
        let (x, y) = signal_data(60);
        let cfg = CvConfig { lambda_grid: vec![], ..CvConfig::default() };
        assert!(cross_validated_r2(&x, &y, &cfg).is_err());
    }

    #[test]
    fn invalid_settings_are_errors_not_panics() {
        let (x, y) = signal_data(60);
        let bad_grids = [vec![], vec![1.0, -1.0], vec![f64::NAN], vec![0.1, f64::INFINITY]];
        for penalty in [PenaltyKind::Ridge, PenaltyKind::Lasso] {
            for grid in &bad_grids {
                let cfg = CvConfig { lambda_grid: grid.clone(), penalty, ..CvConfig::default() };
                assert!(
                    matches!(cross_validated_r2(&x, &y, &cfg), Err(MlError::InvalidConfig(_))),
                    "{penalty:?} {grid:?}"
                );
            }
            for k_folds in [0, 1] {
                let cfg = CvConfig { k_folds, penalty, ..CvConfig::default() };
                assert!(matches!(cross_validated_r2(&x, &y, &cfg), Err(MlError::InvalidConfig(_))));
            }
        }
    }

    #[test]
    fn lasso_grid_search_matches_residual_oracle() {
        let grid = vec![1e-4, 1e-3, 1e-2, 1e-1, 1.0];
        let cfg =
            CvConfig { penalty: PenaltyKind::Lasso, lambda_grid: grid, ..CvConfig::default() };
        for (x, y) in [signal_data(150), noise_data(120, 6), noise_data(60, 9)] {
            let fast = cross_validated_r2(&x, &y, &cfg).unwrap();
            let oracle = cross_validate(&x, &y, &cfg, LassoPrecomputed::residual_form).unwrap();
            assert_eq!(fast.best_lambda, oracle.best_lambda);
            assert!((fast.r2 - oracle.r2).abs() <= 1e-12, "{fast:?} vs {oracle:?}");
        }
    }
}
