//! Lasso (L1-penalised least squares) via cyclic coordinate descent.
//!
//! §3.5 of the paper: "we experimented with both L1 penalty (Lasso) and L2
//! penalty (Ridge) … it is preferable to use Ridge regression as its
//! implementation is often faster than Lasso on the same data". This module
//! exists so the repo can reproduce that comparison (the `ablation` bench),
//! and so the Lasso scorer is available as an engine option.
//!
//! Solves `min (1/2n) ‖y − Xβ‖² + λ‖β‖₁` per target column on a
//! standardised design. Each coordinate step needs
//! `rho_j = x_jᵀ(y − Xβ) + ‖x_j‖² β_j`, kept current in one of two ways,
//! chosen by shape like ridge's primal/dual split:
//!
//! * **covariance updates** when `p <= n` (glmnet; Friedman, Hastie and
//!   Tibshirani 2010): keep `G = XᵀX` and `c = Xᵀy`, and `q = Gβ` current,
//!   so `rho_j = c_j − q_j + G_jj β_j` and a coefficient change costs one
//!   row of G — O(p) per coordinate instead of two O(n) passes;
//! * **residual updates** when `p > n`: keep the residual `y − Xβ` and
//!   take `rho_j` as a dot product with column j. A p × p Gram would not
//!   fit in memory for the paper's widest families (F = 80 000 is 51 GB).
//!
//! Both statistics are λ-independent, so [`LassoPrecomputed`] builds them
//! once per training set and [`LassoPrecomputed::fit`] runs one descent
//! per penalty of the cross-validation grid.

use explainit_linalg::Matrix;

use crate::ridge::predict_std;
use crate::standardize::Standardizer;
use crate::{check_fit_inputs, check_lambda, Result};

/// A fitted multi-target lasso model.
#[derive(Debug, Clone)]
pub struct LassoModel {
    beta_std: Matrix,
    x_standardizer: Standardizer,
    y_means: Vec<f64>,
    lambda: f64,
    iterations: usize,
}

impl LassoModel {
    /// Fits with penalty `lambda >= 0`, at most `max_iter` full coordinate
    /// sweeps per target, stopping when the largest coefficient update in a
    /// sweep falls below `tol`. A negative or non-finite `lambda` is
    /// [`crate::MlError::InvalidConfig`].
    pub fn fit(x: &Matrix, y: &Matrix, lambda: f64, max_iter: usize, tol: f64) -> Result<Self> {
        LassoPrecomputed::new(x, y)?.fit(lambda, max_iter, tol)
    }

    /// The penalty this model was fitted with.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Total coordinate-descent sweeps executed across all targets.
    pub fn sweeps(&self) -> usize {
        self.iterations
    }

    /// Coefficients in standardised design space (`p × m`).
    pub fn coefficients_std(&self) -> &Matrix {
        &self.beta_std
    }

    /// Number of non-zero coefficients (sparsity diagnostic).
    pub fn nonzero_count(&self) -> usize {
        self.beta_std.as_slice().iter().filter(|&&v| v != 0.0).count()
    }

    /// Predicts targets for new rows.
    ///
    /// # Panics
    /// Panics if the column count differs from the training design.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        predict_std(&self.x_standardizer.transform(x), &self.beta_std, &self.y_means)
    }
}

/// The λ-independent statistics of a lasso fit: the standardisation, the
/// target means and what the coordinate updates read (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct LassoPrecomputed {
    x_standardizer: Standardizer,
    y_means: Vec<f64>,
    rows: usize,
    /// `‖x_j‖²` of the standardised columns, summed in row order (the
    /// diagonal of G). A zero marks a column the descent skips.
    col_sq: Vec<f64>,
    updates: Updates,
}

#[derive(Debug, Clone)]
enum Updates {
    /// `G = XᵀX` and, per target, `c = Xᵀy` on the centred targets.
    Covariance { gram: Matrix, xty: Vec<Vec<f64>> },
    /// The standardised columns and the centred target columns.
    Residual { cols: Vec<Vec<f64>>, yc: Vec<Vec<f64>> },
}

impl LassoPrecomputed {
    /// Standardises `x`, centres `y` and builds the statistics of the
    /// update form that fits the shape: covariance when `p <= n`, residual
    /// otherwise.
    pub fn new(x: &Matrix, y: &Matrix) -> Result<Self> {
        Self::build(x, y, x.ncols() <= x.nrows())
    }

    /// [`LassoPrecomputed::new`] held to residual updates whatever the
    /// shape: the oracle the covariance form is tested against.
    #[cfg(test)]
    pub(crate) fn residual_form(x: &Matrix, y: &Matrix) -> Result<Self> {
        Self::build(x, y, false)
    }

    fn build(x: &Matrix, y: &Matrix, covariance: bool) -> Result<Self> {
        check_fit_inputs(x, y)?;
        let (x_standardizer, xs) = Standardizer::fit_transform(x);
        let y_means = y.column_means();
        let mut yc = y.clone();
        yc.center_columns_in_place(&y_means);
        let (rows, p) = xs.shape();
        let (col_sq, updates) = if covariance {
            let gram = xs.xtx();
            let col_sq = (0..p).map(|j| gram[(j, j)]).collect();
            let xty = xs.xt_mul(&yc).expect("shapes checked");
            let xty = (0..xty.ncols()).map(|t| xty.column(t)).collect();
            (col_sq, Updates::Covariance { gram, xty })
        } else {
            let mut col_sq = vec![0.0; p];
            for row in xs.rows_iter() {
                for (c, &v) in col_sq.iter_mut().zip(row.iter()) {
                    *c += v * v;
                }
            }
            let cols = (0..p).map(|j| xs.column(j)).collect();
            let yc = (0..yc.ncols()).map(|t| yc.column(t)).collect();
            (col_sq, Updates::Residual { cols, yc })
        };
        Ok(LassoPrecomputed { x_standardizer, y_means, rows, col_sq, updates })
    }

    /// Column means of the training targets — the baseline predictor of
    /// an out-of-sample r².
    pub fn target_means(&self) -> &[f64] {
        &self.y_means
    }

    /// Fits at penalty `lambda`; `max_iter` and `tol` as in
    /// [`LassoModel::fit`].
    pub fn fit(&self, lambda: f64, max_iter: usize, tol: f64) -> Result<LassoModel> {
        check_lambda(lambda)?;
        // Soft threshold at n * lambda (matching the 1/2n loss).
        let thresh = self.rows as f64 * lambda;
        let p = self.col_sq.len();
        let targets = self.y_means.len();
        let mut beta_std = Matrix::zeros(p, targets);
        let mut iterations = 0usize;
        for t in 0..targets {
            let (beta, sweeps) = match &self.updates {
                Updates::Covariance { gram, xty } => {
                    let mut state = Covariance { gram, c: &xty[t], q: vec![0.0; p] };
                    descend(&mut state, &self.col_sq, thresh, max_iter, tol)
                }
                Updates::Residual { cols, yc } => {
                    let mut state = Residual { cols, resid: yc[t].clone() };
                    descend(&mut state, &self.col_sq, thresh, max_iter, tol)
                }
            };
            iterations += sweeps;
            beta_std.set_column(t, &beta);
        }
        Ok(LassoModel {
            beta_std,
            x_standardizer: self.x_standardizer.clone(),
            y_means: self.y_means.clone(),
            lambda,
            iterations,
        })
    }
}

/// What an update form keeps current while the coefficients move.
trait Partials {
    /// `x_jᵀ(y − Xβ)` at the current β.
    fn partial(&self, j: usize) -> f64;
    /// Records that `β_j` moved by `delta`.
    fn moved(&mut self, j: usize, delta: f64);
}

/// Covariance updates: `x_jᵀ(y − Xβ) = c_j − q_j` with `q = Gβ`.
struct Covariance<'a> {
    gram: &'a Matrix,
    c: &'a [f64],
    q: Vec<f64>,
}

impl Partials for Covariance<'_> {
    #[inline]
    fn partial(&self, j: usize) -> f64 {
        self.c[j] - self.q[j]
    }

    #[inline]
    fn moved(&mut self, j: usize, delta: f64) {
        for (q, &g) in self.q.iter_mut().zip(self.gram.row(j)) {
            *q += delta * g;
        }
    }
}

/// Residual updates: keep `r = y − Xβ` and take `x_jᵀ r`.
struct Residual<'a> {
    cols: &'a [Vec<f64>],
    resid: Vec<f64>,
}

impl Partials for Residual<'_> {
    #[inline]
    fn partial(&self, j: usize) -> f64 {
        let mut rho = 0.0;
        for (r, &xv) in self.resid.iter().zip(self.cols[j].iter()) {
            rho += r * xv;
        }
        rho
    }

    #[inline]
    fn moved(&mut self, j: usize, delta: f64) {
        for (r, &xv) in self.resid.iter_mut().zip(self.cols[j].iter()) {
            *r -= delta * xv;
        }
    }
}

/// One target's cyclic coordinate descent: sweeps until the largest
/// update in one falls below `tol` or `max_iter` sweeps are done. Returns
/// the coefficients and the sweeps run.
fn descend(
    partials: &mut impl Partials,
    col_sq: &[f64],
    thresh: f64,
    max_iter: usize,
    tol: f64,
) -> (Vec<f64>, usize) {
    let mut beta = vec![0.0; col_sq.len()];
    let mut sweeps = 0;
    for _ in 0..max_iter {
        sweeps += 1;
        let mut max_delta = 0.0f64;
        for (j, &sq) in col_sq.iter().enumerate() {
            if sq <= 0.0 {
                continue;
            }
            let rho = partials.partial(j) + sq * beta[j];
            let new_beta = soft_threshold(rho, thresh) / sq;
            let delta = new_beta - beta[j];
            if delta != 0.0 {
                partials.moved(j, delta);
                beta[j] = new_beta;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < tol {
            break;
        }
    }
    (beta, sweeps)
}

#[inline]
fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ridge::r2_columns_mean;
    use crate::MlError;
    use proptest::prelude::*;

    fn sparse_data(n: usize, p: usize) -> (Matrix, Matrix) {
        // Only features 0 and 3 matter.
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<f64> =
                (0..p).map(|j| ((i * 131 + j * 733) % 97) as f64 / 97.0 - 0.5).collect();
            let y = 4.0 * row[0] - 3.0 * row[3.min(p - 1)];
            ys.push(y);
            rows.push(row);
        }
        (Matrix::from_rows(&rows), Matrix::column_vector(&ys))
    }

    #[test]
    fn zero_lambda_fits_like_least_squares() {
        let (x, y) = sparse_data(80, 5);
        let m = LassoModel::fit(&x, &y, 0.0, 500, 1e-10).unwrap();
        let pred = m.predict(&x);
        let r2 = r2_columns_mean(&y, &pred, &y.column_means());
        assert!(r2 > 0.999, "r2 = {r2}");
    }

    #[test]
    fn moderate_lambda_recovers_support() {
        let (x, y) = sparse_data(120, 8);
        let m = LassoModel::fit(&x, &y, 0.01, 500, 1e-10).unwrap();
        let beta = m.coefficients_std().column(0);
        // True support {0, 3} should dominate.
        let mag: Vec<f64> = beta.iter().map(|v| v.abs()).collect();
        assert!(mag[0] > 0.1 && mag[3] > 0.1);
        for (j, &v) in mag.iter().enumerate() {
            if j != 0 && j != 3 {
                assert!(v < mag[0] / 5.0, "feature {j} should be small, got {v}");
            }
        }
    }

    #[test]
    fn large_lambda_zeroes_everything() {
        let (x, y) = sparse_data(60, 5);
        let m = LassoModel::fit(&x, &y, 1e6, 100, 1e-10).unwrap();
        assert_eq!(m.nonzero_count(), 0);
    }

    #[test]
    fn sparsity_increases_with_lambda() {
        let (x, y) = sparse_data(100, 10);
        let mut prev = usize::MAX;
        for &l in &[0.0001, 0.01, 0.1, 1.0] {
            let m = LassoModel::fit(&x, &y, l, 500, 1e-10).unwrap();
            let nz = m.nonzero_count();
            assert!(nz <= prev, "non-zeros must not grow with lambda");
            prev = nz;
        }
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.5, 2.0), 0.0);
        assert_eq!(soft_threshold(-1.5, 2.0), 0.0);
    }

    #[test]
    fn constant_feature_skipped() {
        let x = Matrix::from_rows(&[[1.0, 3.0], [2.0, 3.0], [3.0, 3.0], [4.0, 3.0]]);
        let y = Matrix::column_vector(&[1.0, 2.0, 3.0, 4.0]);
        let m = LassoModel::fit(&x, &y, 0.001, 200, 1e-10).unwrap();
        // Constant column must get zero coefficient.
        assert_eq!(m.coefficients_std()[(1, 0)], 0.0);
        let pred = m.predict(&x);
        assert!(!pred.has_non_finite());
    }

    #[test]
    fn error_cases() {
        let x = Matrix::zeros(3, 1);
        let y = Matrix::zeros(2, 1);
        assert!(matches!(LassoModel::fit(&x, &y, 0.1, 10, 1e-8), Err(MlError::RowMismatch { .. })));
    }

    #[test]
    fn multi_target_independent_columns() {
        let (x, y1) = sparse_data(60, 4);
        let zeros = Matrix::zeros(60, 1);
        let y = y1.hcat(&zeros).unwrap();
        let m = LassoModel::fit(&x, &y, 0.01, 300, 1e-10).unwrap();
        // Second target is constant zero -> all zero coefficients.
        for j in 0..4 {
            assert_eq!(m.coefficients_std()[(j, 1)], 0.0);
        }
    }

    #[test]
    fn invalid_lambda_is_an_error() {
        let (x, y) = sparse_data(30, 3);
        let pre = LassoPrecomputed::new(&x, &y).unwrap();
        for l in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(pre.fit(l, 10, 1e-8), Err(MlError::InvalidConfig(_))), "λ = {l}");
            assert!(matches!(LassoModel::fit(&x, &y, l, 10, 1e-8), Err(MlError::InvalidConfig(_))));
        }
    }

    #[test]
    fn wide_design_takes_residual_updates() {
        let (x, y) = sparse_data(8, 20);
        assert!(matches!(LassoPrecomputed::new(&x, &y).unwrap().updates, Updates::Residual { .. }));
        let (x, y) = sparse_data(20, 8);
        assert!(matches!(
            LassoPrecomputed::new(&x, &y).unwrap().updates,
            Updates::Covariance { .. }
        ));
    }

    /// Covariance updates against the residual-update oracle on the same
    /// `p <= n` data: the same sweeps, and coefficients within 1e-9
    /// relative.
    fn assert_matches_oracle(
        x: &Matrix,
        y: &Matrix,
        lambda: f64,
    ) -> std::result::Result<(), TestCaseError> {
        let fast = LassoPrecomputed::new(x, y).unwrap().fit(lambda, 200, 1e-7).unwrap();
        let oracle = LassoPrecomputed::residual_form(x, y).unwrap().fit(lambda, 200, 1e-7).unwrap();
        prop_assert_eq!(fast.sweeps(), oracle.sweeps());
        let scale = oracle.coefficients_std().max_abs().max(1.0);
        let diff = fast.coefficients_std().sub(oracle.coefficients_std()).unwrap().max_abs();
        prop_assert!(diff <= 1e-9 * scale, "λ = {lambda}: |Δβ| = {diff}, scale {scale}");
        Ok(())
    }

    fn data(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f64..10.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn covariance_updates_match_residual_oracle(
            x in data(40, 6),
            y in data(40, 2),
            lambda in 1e-4f64..1.0,
        ) {
            assert_matches_oracle(&x, &y, lambda)?;
            assert_matches_oracle(&x, &y, 0.0)?;
        }

        #[test]
        fn covariance_updates_match_oracle_with_a_constant_column(
            x in data(30, 5),
            y in data(30, 1),
            level in -5.0f64..5.0,
        ) {
            let mut x = x;
            for i in 0..x.nrows() {
                x[(i, 2)] = level;
            }
            assert_matches_oracle(&x, &y, 1e-3)?;
        }

        #[test]
        fn covariance_updates_match_oracle_when_square(x in data(12, 12), y in data(12, 1)) {
            assert_matches_oracle(&x, &y, 1e-2)?;
        }
    }
}
