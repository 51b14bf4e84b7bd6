//! The broadcast side of a conditioned ranking: Z factored once and Y
//! residualised once must give exactly what scoring every hypothesis on
//! its own gives — the same scores, p-values and penalties bit for bit,
//! and the same error entries.

use explainit_core::scorers::ScoreConfig;
use explainit_core::{score_hypothesis, Engine, EngineConfig, FeatureFamily, ScorerKind};
use explainit_linalg::Matrix;
use explainit_ml::CvConfig;

const ROWS: usize = 60;

/// Deterministic pseudo-noise.
fn pseudo(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((((i + 1) * (seed * 2 + 1) * 2654435761) % 10_000) as f64) / 5_000.0 - 1.0)
        .collect()
}

/// A family of `width` pseudo-noise columns on `ts`, plus `signal` scaled
/// into its first column.
fn family(name: &str, ts: &[i64], width: usize, seed: usize, signal: &[f64]) -> FeatureFamily {
    let columns: Vec<Vec<f64>> = (0..width)
        .map(|j| {
            let noise = pseudo(ts.len(), seed * 31 + j);
            let lift = if j == 0 { 1.5 } else { 0.0 };
            ts.iter().zip(noise).map(|(&t, v)| v + lift * signal[t as usize]).collect()
        })
        .collect();
    let names = (0..width).map(|j| format!("{name}_{j}")).collect();
    FeatureFamily::new(name, ts.to_vec(), names, Matrix::from_columns(&columns))
}

/// Target, two conditioning families (`z_wide` is wider than it is tall
/// when `dual`), five candidates covering every timestamp and one with
/// gaps.
fn engine(dual: bool) -> Engine {
    let ts: Vec<i64> = (0..ROWS as i64).collect();
    let cause = pseudo(ROWS, 7);
    let mut e = Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() });
    e.add_family(family("target", &ts, 2, 1, &cause));
    e.add_family(family("z_load", &ts, 2, 2, &cause));
    e.add_family(family("z_wide", &ts, if dual { ROWS + 20 } else { 3 }, 3, &cause));
    e.add_family(family("cause", &ts, 1, 4, &cause));
    for s in 0..4 {
        e.add_family(family(&format!("noise{s}"), &ts, 1 + s % 3, 10 + s, &[0.0; ROWS]));
    }
    let gappy: Vec<i64> = ts.iter().copied().filter(|t| t % 7 != 3).collect();
    e.add_family(family("gappy", &gappy, 2, 20, &cause));
    e
}

/// One hypothesis scored on its own: aligned on the timestamps X shares
/// with Y and Z, then `score_hypothesis`.
fn oracle(e: &Engine, x: &str, given: &[&str], scorer: ScorerKind) -> Result<[u64; 3], String> {
    let y = e.family("target").expect("target");
    let z_fams: Vec<&FeatureFamily> = given.iter().map(|g| e.family(g).expect("z")).collect();
    let mut shared = y.timestamps.clone();
    for z in &z_fams {
        shared = z.shared_timestamps(&shared);
    }
    let ts = e.family(x).expect("x").shared_timestamps(&shared);
    let z = FeatureFamily::side_by_side(z_fams, &ts).map_err(|err| err.to_string())?;
    let x = e.family(x).expect("x").restrict_to(&ts).data;
    let detail =
        score_hypothesis(scorer, &x, &y.restrict_to(&ts).data, Some(&z), &e.config().score)
            .map_err(|err| err.to_string())?;
    Ok([
        detail.score.to_bits(),
        detail.p_value.to_bits(),
        detail.best_lambda.map_or(0, f64::to_bits),
    ])
}

/// Ranks with `given` and checks every entry against [`oracle`]. Returns
/// the number of entries that are errors.
fn assert_ranking_matches_oracle(e: &Engine, given: &[&str], scorer: ScorerKind) -> usize {
    let ranking = e.rank("target", given, scorer).expect("ranking");
    assert_eq!(ranking.hypotheses_scored, e.family_count() - 1 - given.len());
    let mut errors = 0;
    for entry in &ranking.entries {
        let expected = oracle(e, &entry.family, given, scorer);
        let got = match &entry.error {
            Some(err) => Err(err.clone()),
            None => Ok([
                entry.score.to_bits(),
                entry.p_value.to_bits(),
                entry.best_lambda.map_or(0, f64::to_bits),
            ]),
        };
        assert_eq!(got, expected, "{scorer:?} GIVEN {given:?}: {}", entry.family);
        errors += usize::from(entry.error.is_some());
    }
    errors
}

const SCORERS: [ScorerKind; 4] =
    [ScorerKind::L2, ScorerKind::CorrMax, ScorerKind::Lasso, ScorerKind::L2P { d: 2 }];

#[test]
fn conditioned_ranking_matches_per_hypothesis_oracle() {
    let e = engine(false);
    for scorer in SCORERS {
        for given in [&["z_load"][..], &["z_load", "z_wide"]] {
            assert_eq!(assert_ranking_matches_oracle(&e, given, scorer), 0);
        }
    }
}

#[test]
fn z_wider_than_its_rows_matches_oracle() {
    let e = engine(true);
    for scorer in SCORERS {
        assert_eq!(assert_ranking_matches_oracle(&e, &["z_wide"], scorer), 0);
        assert_eq!(assert_ranking_matches_oracle(&e, &["z_wide", "z_load"], scorer), 0);
    }
}

#[test]
fn non_finite_z_gives_the_same_error_entries() {
    let mut e = engine(false);
    let z = e.family("z_load").expect("z").clone();
    let mut data = z.data.clone();
    // Row 3 is one of the gappy candidate's missing timestamps: only the
    // covering candidates meet the NaN, and the gappy one still scores.
    data[(3, 1)] = f64::NAN;
    e.add_family(FeatureFamily::new("z_load", z.timestamps, z.feature_names, data));
    for scorer in SCORERS {
        let errors = assert_ranking_matches_oracle(&e, &["z_load"], scorer);
        assert_eq!(errors, e.family_count() - 3, "{scorer:?}: all but the gappy candidate fail");
    }
}

#[test]
fn too_few_rows_for_the_folds_gives_the_same_error_entries() {
    let mut e = engine(false);
    e.config_mut().min_rows = 4;
    e.config_mut().score.cv.k_folds = ROWS;
    let errors = assert_ranking_matches_oracle(&e, &["z_load"], ScorerKind::L2);
    assert_eq!(errors, e.family_count() - 2);
}

/// Settings the grid search cannot run used to panic a scoring thread and
/// with it the whole ranking; now each hypothesis reports the error.
#[test]
fn invalid_cv_settings_give_error_entries() {
    let lambda_grids = [vec![1.0, -1.0], vec![f64::NAN], vec![f64::INFINITY, 1.0]];
    let mut configs: Vec<ScoreConfig> = lambda_grids
        .iter()
        .flat_map(|grid| {
            [
                ScoreConfig {
                    cv: CvConfig { lambda_grid: grid.clone(), ..CvConfig::default() },
                    ..ScoreConfig::default()
                },
                ScoreConfig { lasso_lambda_grid: grid.clone(), ..ScoreConfig::default() },
            ]
        })
        .collect();
    configs.push(ScoreConfig {
        cv: CvConfig { k_folds: 1, ..CvConfig::default() },
        ..ScoreConfig::default()
    });
    for score in configs {
        let mut e = engine(false);
        e.config_mut().score = score.clone();
        for scorer in [ScorerKind::L2, ScorerKind::Lasso] {
            // Only the scorer whose grid is broken (or both, for k = 1)
            // must fail.
            let broken = score.cv.k_folds < 2
                || match scorer {
                    ScorerKind::Lasso => {
                        score.lasso_lambda_grid != ScoreConfig::default().lasso_lambda_grid
                    }
                    _ => score.cv.lambda_grid != CvConfig::default().lambda_grid,
                };
            for given in [&[][..], &["z_load"]] {
                let ranking = e.rank("target", given, scorer).expect("ranking, not a panic");
                for entry in &ranking.entries {
                    match &entry.error {
                        Some(err) => {
                            assert!(broken, "{scorer:?} {}: {err}", entry.family);
                            assert!(err.contains("invalid model configuration"), "{err}");
                        }
                        None => assert!(!broken, "{scorer:?} {} scored", entry.family),
                    }
                }
            }
        }
    }
}
