//! Multi-target ridge regression, closed form.
//!
//! The paper's joint scorer ("L2") fits `min ‖Y − Xβ‖² + λ‖β‖²`. Two solve
//! paths are provided and selected automatically by shape:
//!
//! * **primal** — factor `X^T X + λI` (p × p) when `p <= n`;
//! * **dual / kernel** — `β = X^T (X X^T + λI)^{-1} Y` (n × n) when
//!   `p > n`, the common regime for the paper's big feature families
//!   (F up to 80 000 with T ≈ 1 440–2 880 minutes).
//!
//! Fits centre X and Y (intercept handling) and standardise X columns so the
//! penalty treats features symmetrically, matching scikit-learn's
//! `Ridge(normalize=...)`-era behaviour the paper relied on.
//!
//! Everything that depends only on X — the standardised design, its Gram
//! matrix and, at a fixed λ, its Cholesky factor — can be computed once and
//! reused across targets: [`RidgePrecomputed`] keeps the Gram for a λ grid,
//! and [`Residualizer`] keeps the factor for residualising many targets on
//! one conditioning set Z (§3.5's three-regression procedure, where Z is
//! the same for every hypothesis of a ranking).

use explainit_linalg::{Cholesky, Matrix};

use crate::standardize::Standardizer;
use crate::{check_fit_inputs, check_lambda, MlError, Result};

/// A fitted multi-target ridge model.
#[derive(Debug, Clone)]
pub struct RidgeModel {
    /// Coefficients in the *standardised* design space, `p × m`.
    beta_std: Matrix,
    /// Standardiser for the design.
    x_standardizer: Standardizer,
    /// Target column means (intercept in standardised space).
    y_means: Vec<f64>,
    lambda: f64,
}

impl RidgeModel {
    /// Fits ridge regression with penalty `lambda >= 0`.
    ///
    /// `lambda = 0` is permitted but may fail with
    /// [`MlError::SolveFailed`] on singular designs; scoring always uses
    /// positive penalties. A negative or non-finite `lambda` is
    /// [`MlError::InvalidConfig`].
    pub fn fit(x: &Matrix, y: &Matrix, lambda: f64) -> Result<Self> {
        check_fit_inputs(x, y)?;
        check_lambda(lambda)?;
        let (x_standardizer, xs) = Standardizer::fit_transform(x);
        let (y_means, yc) = centred(y);
        let primal = xs.ncols() <= xs.nrows();
        let chol = factor_regularised(gram(&xs, primal), lambda, primal)?;
        let beta_std = solve_std(&xs, primal, &chol, &rhs(&xs, primal, yc))?;
        Ok(RidgeModel { beta_std, x_standardizer, y_means, lambda })
    }

    /// The penalty this model was fitted with.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Coefficients in standardised design space (`p × m`).
    pub fn coefficients_std(&self) -> &Matrix {
        &self.beta_std
    }

    /// Squared Frobenius norm of the coefficients — used by tests to verify
    /// shrinkage monotonicity in λ.
    pub fn coefficient_norm_sq(&self) -> f64 {
        let f = self.beta_std.frobenius_norm();
        f * f
    }

    /// Predicts targets for new rows.
    ///
    /// # Panics
    /// Panics if the column count differs from the training design.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        predict_std(&self.x_standardizer.transform(x), &self.beta_std, &self.y_means)
    }

    /// Residuals `Y - Ŷ`.
    pub fn residuals(&self, x: &Matrix, y: &Matrix) -> Matrix {
        y.sub(&self.predict(x)).expect("prediction shape matches target")
    }

    /// Out-of-sample r² on held-out data, averaged over target columns.
    ///
    /// `baseline_means` are the *training* target means (§3.5: the baseline
    /// model predicts the training mean). Columns whose held-out variance is
    /// zero are skipped.
    pub fn r2_out_of_sample(&self, x: &Matrix, y: &Matrix, baseline_means: &[f64]) -> f64 {
        let pred = self.predict(x);
        r2_columns_mean(y, &pred, baseline_means)
    }
}

/// Precomputed sufficient statistics for fitting ridge models at many
/// penalties on the same training data.
///
/// The grid search of §3.5 fits `L` penalties per fold; the Gram matrix
/// (`X^T X` or `X X^T`) and `X^T Y` do not depend on λ, so computing them
/// once per fold and re-factorising per λ removes the dominant cost of the
/// grid (the paper's "optimisations deferred to the runtime system", §4.2).
#[derive(Debug, Clone)]
pub struct RidgePrecomputed {
    xs: Matrix,
    x_standardizer: Standardizer,
    y_means: Vec<f64>,
    /// Primal path: `X^T X` and `X^T Y`; dual path: `X X^T` and centred Y.
    gram: Matrix,
    rhs: Matrix,
    primal: bool,
}

impl RidgePrecomputed {
    /// Builds the λ-independent statistics.
    pub fn new(x: &Matrix, y: &Matrix) -> Result<Self> {
        check_fit_inputs(x, y)?;
        let (x_standardizer, xs) = Standardizer::fit_transform(x);
        let (y_means, yc) = centred(y);
        let primal = xs.ncols() <= xs.nrows();
        let gram = gram(&xs, primal);
        let rhs = rhs(&xs, primal, yc);
        Ok(RidgePrecomputed { xs, x_standardizer, y_means, gram, rhs, primal })
    }

    /// Column means of the training targets — the baseline predictor of
    /// an out-of-sample r².
    pub fn target_means(&self) -> &[f64] {
        &self.y_means
    }

    /// Fits a model at the given penalty, reusing the precomputed Gram.
    /// Bit-identical to [`RidgeModel::fit`] on the same data.
    pub fn fit(&self, lambda: f64) -> Result<RidgeModel> {
        check_lambda(lambda)?;
        let chol = factor_regularised(self.gram.clone(), lambda, self.primal)?;
        Ok(RidgeModel {
            beta_std: solve_std(&self.xs, self.primal, &chol, &self.rhs)?,
            x_standardizer: self.x_standardizer.clone(),
            y_means: self.y_means.clone(),
            lambda,
        })
    }
}

/// Ridge residuals of many targets on one design Z, factoring Z once.
///
/// [`Residualizer::residuals`] is bit-identical to
/// `RidgeModel::fit(z, target, lambda)?.residuals(z, target)`: it runs the
/// same operations in the same order, minus the standardisation, Gram
/// product and Cholesky factorisation of Z, which it does once in
/// [`Residualizer::new`]. Errors match too, for any target with Z's row
/// count: a Z that is short or not finite fails here; a target that is not
/// finite, and then a factorisation that failed, fail in `residuals`, the
/// order in which `fit` checks them.
#[derive(Debug, Clone)]
pub struct Residualizer {
    zs: Matrix,
    primal: bool,
    factor: Result<Cholesky>,
}

impl Residualizer {
    /// Standardises and factors `z` (`Z^T Z + λI`, or `Z Z^T + λI` when Z
    /// is wider than it is tall).
    pub fn new(z: &Matrix, lambda: f64) -> Result<Self> {
        if z.nrows() < 2 {
            return Err(MlError::TooFewRows { rows: z.nrows(), needed: 2 });
        }
        if z.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        check_lambda(lambda)?;
        let (_, zs) = Standardizer::fit_transform(z);
        let primal = zs.ncols() <= zs.nrows();
        let factor = factor_regularised(gram(&zs, primal), lambda, primal);
        Ok(Residualizer { zs, primal, factor })
    }

    /// `target − Ẑβ`, the residuals of the ridge regression of `target`
    /// on Z.
    pub fn residuals(&self, target: &Matrix) -> Result<Matrix> {
        if target.nrows() != self.zs.nrows() {
            return Err(MlError::RowMismatch { x_rows: self.zs.nrows(), y_rows: target.nrows() });
        }
        if target.has_non_finite() {
            return Err(MlError::NonFiniteInput);
        }
        let chol = self.factor.as_ref().map_err(Clone::clone)?;
        let (y_means, yc) = centred(target);
        let beta_std = solve_std(&self.zs, self.primal, chol, &rhs(&self.zs, self.primal, yc))?;
        Ok(target.sub(&predict_std(&self.zs, &beta_std, &y_means)).expect("target rows checked"))
    }
}

/// Column means of `y` and `y` centred on them.
fn centred(y: &Matrix) -> (Vec<f64>, Matrix) {
    let means = y.column_means();
    let mut yc = y.clone();
    yc.center_columns_in_place(&means);
    (means, yc)
}

/// The λ-independent Gram matrix: `X^T X` (primal) or `X X^T` (dual).
fn gram(xs: &Matrix, primal: bool) -> Matrix {
    if primal {
        xs.xtx()
    } else {
        xs.xxt()
    }
}

/// The right-hand side for centred targets: `X^T Y` (primal) or `Y`
/// itself (dual).
fn rhs(xs: &Matrix, primal: bool, yc: Matrix) -> Matrix {
    if primal {
        xs.xt_mul(&yc).expect("shapes checked")
    } else {
        yc
    }
}

/// Adds the penalty to the Gram diagonal and factors it.
fn factor_regularised(mut gram: Matrix, lambda: f64, primal: bool) -> Result<Cholesky> {
    gram.add_diagonal(if primal { lambda.max(0.0) } else { lambda.max(1e-12) });
    Cholesky::factor(&gram).map_err(|e| MlError::SolveFailed(e.to_string()))
}

/// Coefficients in standardised space from the factored system.
fn solve_std(xs: &Matrix, primal: bool, chol: &Cholesky, rhs: &Matrix) -> Result<Matrix> {
    let solved = chol.solve(rhs).map_err(|e| MlError::SolveFailed(e.to_string()))?;
    Ok(if primal { solved } else { xs.xt_mul(&solved).expect("shapes checked") })
}

/// `xs β + means`, row by row: a prediction from a standardised design.
pub(crate) fn predict_std(xs: &Matrix, beta_std: &Matrix, y_means: &[f64]) -> Matrix {
    let mut out = xs.matmul(beta_std).expect("shape checked");
    for i in 0..out.nrows() {
        let row = out.row_mut(i);
        for (v, &m) in row.iter_mut().zip(y_means.iter()) {
            *v += m;
        }
    }
    out
}

/// Mean r² over target columns: `1 - RSS_j / TSS_j` with TSS around
/// `baseline_means[j]`; degenerate columns (TSS = 0) are skipped. Returns 0
/// when every column is degenerate.
pub fn r2_columns_mean(y: &Matrix, pred: &Matrix, baseline_means: &[f64]) -> f64 {
    assert_eq!(y.shape(), pred.shape(), "r2 shape mismatch");
    assert_eq!(y.ncols(), baseline_means.len(), "baseline length mismatch");
    let mut total = 0.0;
    let mut counted = 0usize;
    for j in 0..y.ncols() {
        let mut rss = 0.0;
        let mut tss = 0.0;
        for i in 0..y.nrows() {
            let e = y[(i, j)] - pred[(i, j)];
            rss += e * e;
            let d = y[(i, j)] - baseline_means[j];
            tss += d * d;
        }
        if tss > 0.0 {
            total += 1.0 - rss / tss;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> (Matrix, Matrix) {
        // y = 3 x0 - 2 x1 + 1 with deterministic pseudo-noise.
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.7).sin();
            let b = (i as f64 * 0.3).cos();
            rows.push([a, b]);
            ys.push(3.0 * a - 2.0 * b + 1.0 + 0.01 * ((i * 7919 % 13) as f64 - 6.0));
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    #[test]
    fn small_lambda_recovers_signal() {
        let (x, y) = linear_data(200);
        let m = RidgeModel::fit(&x, &y, 1e-6).unwrap();
        let pred = m.predict(&x);
        let r2 = r2_columns_mean(&y, &pred, &y.column_means());
        assert!(r2 > 0.999, "r2 = {r2}");
    }

    #[test]
    fn shrinkage_monotone_in_lambda() {
        let (x, y) = linear_data(100);
        let mut prev = f64::INFINITY;
        for &l in &[0.01, 0.1, 1.0, 10.0, 100.0, 1000.0] {
            let m = RidgeModel::fit(&x, &y, l).unwrap();
            let norm = m.coefficient_norm_sq();
            assert!(norm <= prev + 1e-9, "norm must shrink with lambda");
            prev = norm;
        }
    }

    #[test]
    fn huge_lambda_predicts_mean() {
        let (x, y) = linear_data(100);
        let m = RidgeModel::fit(&x, &y, 1e12).unwrap();
        let pred = m.predict(&x);
        let ymean = y.column_means()[0];
        for i in 0..pred.nrows() {
            assert!((pred[(i, 0)] - ymean).abs() < 1e-3);
        }
    }

    #[test]
    fn dual_path_matches_primal() {
        // p > n triggers the kernel path; verify it agrees with the primal
        // path on a square-ish problem by comparing predictions.
        let x_tall = Matrix::from_rows(&[
            [1.0, 0.2, -0.5],
            [0.3, -1.0, 0.8],
            [-0.7, 0.5, 0.1],
            [0.9, -0.3, -0.9],
            [0.0, 1.0, 0.4],
        ]);
        let y = Matrix::column_vector(&[1.0, -0.5, 0.2, 0.8, -0.1]);
        let primal = RidgeModel::fit(&x_tall, &y, 0.5).unwrap();
        // Wide version: transpose roles by padding with zero columns so p>n.
        let x_wide = x_tall.hcat(&Matrix::zeros(5, 10)).unwrap();
        let dual = RidgeModel::fit(&x_wide, &y, 0.5).unwrap();
        let p1 = primal.predict(&x_tall);
        let p2 = dual.predict(&x_wide);
        for i in 0..5 {
            assert!((p1[(i, 0)] - p2[(i, 0)]).abs() < 1e-8, "row {i}");
        }
    }

    #[test]
    fn p_much_larger_than_n_is_stable() {
        // 10 rows, 200 features; must not error and must shrink sensibly.
        let mut rows = Vec::new();
        for i in 0..10 {
            let row: Vec<f64> =
                (0..200).map(|j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5).collect();
            rows.push(row);
        }
        let x = Matrix::from_rows(&rows);
        let y = Matrix::column_vector(&(0..10).map(|i| i as f64).collect::<Vec<_>>());
        let m = RidgeModel::fit(&x, &y, 1.0).unwrap();
        let pred = m.predict(&x);
        assert!(!pred.has_non_finite());
    }

    #[test]
    fn constant_feature_is_harmless() {
        let x = Matrix::from_rows(&[[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]]);
        let y = Matrix::column_vector(&[2.0, 4.0, 6.0, 8.0]);
        let m = RidgeModel::fit(&x, &y, 1e-6).unwrap();
        let pred = m.predict(&x);
        for i in 0..4 {
            assert!((pred[(i, 0)] - y[(i, 0)]).abs() < 1e-4);
        }
    }

    #[test]
    fn multi_target_prediction_shapes() {
        let (x, y1) = linear_data(50);
        let y = y1.hcat(&y1).unwrap();
        let m = RidgeModel::fit(&x, &y, 0.1).unwrap();
        let pred = m.predict(&x);
        assert_eq!(pred.shape(), (50, 2));
        // Identical targets get identical predictions.
        for i in 0..50 {
            assert!((pred[(i, 0)] - pred[(i, 1)]).abs() < 1e-10);
        }
    }

    #[test]
    fn error_cases() {
        let x = Matrix::zeros(3, 2);
        let y = Matrix::zeros(4, 1);
        assert!(matches!(RidgeModel::fit(&x, &y, 1.0), Err(MlError::RowMismatch { .. })));
        let x = Matrix::zeros(1, 2);
        let y = Matrix::zeros(1, 1);
        assert!(matches!(RidgeModel::fit(&x, &y, 1.0), Err(MlError::TooFewRows { .. })));
        let mut x = Matrix::zeros(4, 2);
        x[(0, 0)] = f64::INFINITY;
        let y = Matrix::zeros(4, 1);
        assert!(matches!(RidgeModel::fit(&x, &y, 1.0), Err(MlError::NonFiniteInput)));
    }

    #[test]
    fn precomputed_fit_matches_direct_fit() {
        let (x, y) = linear_data(80);
        let pre = RidgePrecomputed::new(&x, &y).unwrap();
        for &l in &[0.01, 1.0, 100.0] {
            let a = pre.fit(l).unwrap();
            let b = RidgeModel::fit(&x, &y, l).unwrap();
            let pa = a.predict(&x);
            let pb = b.predict(&x);
            for i in 0..x.nrows() {
                assert!((pa[(i, 0)] - pb[(i, 0)]).abs() < 1e-10, "λ={l} row {i}");
            }
        }
        // Dual path equivalence too.
        let x_wide = x.hcat(&Matrix::zeros(80, 100)).unwrap();
        let pre = RidgePrecomputed::new(&x_wide, &y).unwrap();
        let a = pre.fit(0.5).unwrap();
        let b = RidgeModel::fit(&x_wide, &y, 0.5).unwrap();
        let pa = a.predict(&x_wide);
        let pb = b.predict(&x_wide);
        for i in 0..80 {
            assert!((pa[(i, 0)] - pb[(i, 0)]).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_sample_r2_uses_training_baseline() {
        let (x, y) = linear_data(120);
        let x_train = x.row_range(0, 100);
        let y_train = y.row_range(0, 100);
        let x_test = x.row_range(100, 120);
        let y_test = y.row_range(100, 120);
        let m = RidgeModel::fit(&x_train, &y_train, 0.01).unwrap();
        let r2 = m.r2_out_of_sample(&x_test, &y_test, &y_train.column_means());
        assert!(r2 > 0.99, "r2 = {r2}");
    }

    #[test]
    fn invalid_lambda_is_an_error() {
        let (x, y) = linear_data(20);
        let pre = RidgePrecomputed::new(&x, &y).unwrap();
        for l in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            assert!(matches!(RidgeModel::fit(&x, &y, l), Err(MlError::InvalidConfig(_))));
            assert!(matches!(pre.fit(l), Err(MlError::InvalidConfig(_))));
            assert!(matches!(Residualizer::new(&x, l), Err(MlError::InvalidConfig(_))));
        }
    }

    #[test]
    fn residualizer_errors_match_fit() {
        let (z, y) = linear_data(20);
        let mut bad = y.clone();
        bad[(3, 0)] = f64::NAN;
        let res = Residualizer::new(&z, 1e-8).unwrap();
        assert_eq!(res.residuals(&bad).unwrap_err(), RidgeModel::fit(&z, &bad, 1e-8).unwrap_err());
        assert!(matches!(res.residuals(&Matrix::zeros(7, 1)), Err(MlError::RowMismatch { .. })));
        // A design with no columns cannot be factored: the error comes
        // with the first target, after the target's own checks.
        let empty = Matrix::zeros(20, 0);
        let res = Residualizer::new(&empty, 1e-8).unwrap();
        assert_eq!(res.residuals(&y).unwrap_err(), RidgeModel::fit(&empty, &y, 1e-8).unwrap_err());
        assert_eq!(res.residuals(&bad).unwrap_err(), MlError::NonFiniteInput);
        assert!(matches!(
            Residualizer::new(&Matrix::zeros(1, 2), 1e-8),
            Err(MlError::TooFewRows { .. })
        ));
    }
}
