//! Property tests for the ML kit: regression invariants that must hold for
//! any data, not just hand-picked fixtures.

use explainit_linalg::Matrix;
use explainit_ml::ridge::r2_columns_mean;
use explainit_ml::{
    cross_validated_r2, CvConfig, LassoModel, MlError, OlsModel, Residualizer, RidgeModel,
    Standardizer,
};
use proptest::prelude::*;

fn data_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// `Residualizer::residuals` against `RidgeModel::fit(..).residuals(..)`,
/// bit for bit, for two targets on one factored Z.
fn residuals_match_fit(z: &Matrix, targets: &[&Matrix]) -> Result<(), TestCaseError> {
    let residualizer = Residualizer::new(z, 1e-8).expect("finite Z");
    for target in targets {
        let fast = residualizer.residuals(target).expect("residuals");
        let oracle = RidgeModel::fit(z, target, 1e-8).expect("fit").residuals(z, target);
        prop_assert_eq!(fast.shape(), oracle.shape());
        for (a, b) in fast.as_slice().iter().zip(oracle.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn residualizer_is_bit_identical_to_fit_primal(
        z in data_strategy(30, 4),
        y in data_strategy(30, 2),
        x in data_strategy(30, 3),
    ) {
        residuals_match_fit(&z, &[&y, &x])?;
    }

    #[test]
    fn residualizer_is_bit_identical_to_fit_dual(
        z in data_strategy(8, 12),
        y in data_strategy(8, 1),
        x in data_strategy(8, 5),
    ) {
        residuals_match_fit(&z, &[&y, &x])?;
    }

    #[test]
    fn residualizer_is_bit_identical_with_constant_columns(
        z in data_strategy(24, 3),
        y in data_strategy(24, 2),
        level in -5.0f64..5.0,
    ) {
        let mut z = z;
        let mut y = y;
        for i in 0..24 {
            z[(i, 1)] = level;
            y[(i, 0)] = level;
        }
        residuals_match_fit(&z, &[&y])?;
    }

    #[test]
    fn residualizer_rejects_nan_like_fit(
        z in data_strategy(20, 3),
        y in data_strategy(20, 1),
        row in 0usize..20,
    ) {
        let mut bad_z = z.clone();
        bad_z[(row, 1)] = f64::NAN;
        prop_assert_eq!(Residualizer::new(&bad_z, 1e-8).unwrap_err(), MlError::NonFiniteInput);
        prop_assert_eq!(RidgeModel::fit(&bad_z, &y, 1e-8).unwrap_err(), MlError::NonFiniteInput);
        let mut bad_y = y.clone();
        bad_y[(row, 0)] = f64::NAN;
        let residualizer = Residualizer::new(&z, 1e-8).expect("finite Z");
        prop_assert_eq!(residualizer.residuals(&bad_y).unwrap_err(), MlError::NonFiniteInput);
    }

    #[test]
    fn ridge_shrinkage_is_monotone(x in data_strategy(40, 4), y in data_strategy(40, 1)) {
        let mut prev = f64::INFINITY;
        for &l in &[0.01, 1.0, 100.0, 1e4] {
            let m = RidgeModel::fit(&x, &y, l).expect("fit");
            let norm = m.coefficient_norm_sq();
            prop_assert!(norm <= prev + 1e-9, "shrinkage must be monotone in lambda");
            prev = norm;
        }
    }

    #[test]
    fn ridge_prediction_is_finite(x in data_strategy(30, 5), y in data_strategy(30, 2)) {
        let m = RidgeModel::fit(&x, &y, 1.0).expect("fit");
        prop_assert!(!m.predict(&x).has_non_finite());
    }

    #[test]
    fn ols_residuals_orthogonal_to_design(x in data_strategy(30, 3), y in data_strategy(30, 1)) {
        let m = match OlsModel::fit(&x, &y) {
            Ok(m) => m,
            Err(_) => return Ok(()), // rank-deficient draw
        };
        let resid = m.residuals(&x, &y);
        // Orthogonality to the *centred* design (fit is through centring).
        let means = x.column_means();
        let mut xc = x.clone();
        xc.center_columns_in_place(&means);
        let dot = xc.xt_mul(&resid).expect("shape");
        prop_assert!(dot.max_abs() < 1e-6 * (1.0 + x.max_abs() * y.max_abs()) * 30.0);
        // Residuals sum to ~0 per column (intercept).
        let col = resid.column(0);
        let s: f64 = col.iter().sum();
        prop_assert!(s.abs() < 1e-6 * (1.0 + y.max_abs()) * 30.0);
    }

    #[test]
    fn lasso_sparsity_monotone(x in data_strategy(40, 6), y in data_strategy(40, 1)) {
        let mut prev = usize::MAX;
        for &l in &[1e-4, 1e-2, 1.0, 100.0] {
            let m = LassoModel::fit(&x, &y, l, 300, 1e-9).expect("fit");
            let nz = m.nonzero_count();
            prop_assert!(nz <= prev, "sparsity must grow with lambda");
            prev = nz;
        }
    }

    #[test]
    fn standardizer_round_trip(x in data_strategy(20, 3)) {
        let (s, mut t) = Standardizer::fit_transform(&x);
        s.inverse_transform_in_place(&mut t);
        let diff = t.sub(&x).expect("shape");
        prop_assert!(diff.max_abs() < 1e-9 * (1.0 + x.max_abs()));
    }

    #[test]
    fn cv_score_is_clamped_to_unit_interval(x in data_strategy(40, 3), y in data_strategy(40, 1)) {
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).expect("cv");
        prop_assert!(score.r2 >= 0.0 && score.r2 <= 1.0, "score {}", score.r2);
    }

    #[test]
    fn perfect_linear_signal_scores_near_one(x in data_strategy(60, 2), b0 in 0.5f64..3.0, b1 in -3.0f64..-0.5) {
        // y constructed exactly from x: CV r² must approach 1 unless the
        // design is degenerate.
        let y_vals: Vec<f64> = (0..60).map(|i| b0 * x[(i, 0)] + b1 * x[(i, 1)]).collect();
        let std = explainit_stats::std_dev(&y_vals);
        prop_assume!(std > 1.0); // skip degenerate draws
        let y = Matrix::column_vector(&y_vals);
        let score = cross_validated_r2(&x, &y, &CvConfig::default()).expect("cv");
        prop_assert!(score.r2 > 0.9, "score {}", score.r2);
    }

    #[test]
    fn r2_of_exact_prediction_is_one(y in data_strategy(25, 2)) {
        let means = y.column_means();
        let r2 = r2_columns_mean(&y, &y, &means);
        // 1.0 unless a column is constant (skipped), in which case the other
        // column still yields 1.0, or 0.0 when all constant.
        prop_assert!(r2 == 0.0 || (r2 - 1.0).abs() < 1e-12);
    }
}
