//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Ridge vs Lasso** (§3.5: "it is preferable to use Ridge regression
//!    as its implementation is often faster than Lasso") — speed and score
//!    on the same hypotheses.
//! 2. **Cross-validation on/off** (Appendix A: in-sample r² overfits with
//!    many predictors) — in-sample vs CV score on pure noise.
//! 3. **Projection sample count** (§4.2: "in practice we find there is
//!    little variance in these projections") — score spread across
//!    projection seeds.
//! 4. **Conditioning** (§3.4) — the hypervisor case with and without
//!    conditioning on input load.

use std::time::Instant;

use explainit_bench::{engine_for, rank_runtime};
use explainit_core::scorers::{score_hypothesis, ScoreConfig, ScorerKind};
use explainit_core::EngineConfig;
use explainit_linalg::Matrix;
use explainit_ml::{cross_validated_r2, CvConfig, RidgeModel};
use explainit_workloads::case_studies;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn noise(t: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut m = Matrix::zeros(t, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen::<f64>() * 2.0 - 1.0;
    }
    m
}

fn main() {
    println!("=== Ablation 1: Ridge vs Lasso (speed and score) ===");
    let t = 720;
    let x = noise(t, 240, 1);
    // Sparse truth (2 of 240 features) and dense truth (all features). The
    // design is taller than it is wide, so the lasso grid search runs
    // coordinate descent with covariance updates (O(p) per coordinate,
    // after one Gram product per fold). Measured on a 2-core container:
    // Lasso ≈ 75 ms vs L2 ≈ 165 ms in both regimes; with residual updates
    // (two O(n) passes per coordinate) Lasso took ≈ 140 ms, level with L2.
    // Families wider than their time range still take residual updates —
    // the paper's production regime, hence its "Ridge is often faster".
    let mut y_sparse = Matrix::zeros(t, 1);
    let mut y_dense = Matrix::zeros(t, 1);
    for i in 0..t {
        y_sparse[(i, 0)] = x[(i, 0)] - 2.0 * x[(i, 1)] + 0.3 * ((i % 13) as f64 - 6.0);
        let row_mean: f64 = x.row(i).iter().sum::<f64>() / 240.0;
        y_dense[(i, 0)] = 12.0 * row_mean + 0.05 * ((i % 13) as f64 - 6.0);
    }
    let cfg = ScoreConfig::default();
    for (label, y) in [("sparse truth", &y_sparse), ("dense truth ", &y_dense)] {
        for kind in [ScorerKind::L2, ScorerKind::Lasso] {
            let start = Instant::now();
            let s = score_hypothesis(kind, &x, y, None, &cfg).expect("score");
            println!(
                "  [{label}] {:<6} score {:.3}  λ {:?}  in {:?}",
                kind.name(),
                s.score,
                s.best_lambda,
                start.elapsed()
            );
        }
    }
    println!("  (paper: both work; Ridge preferred for speed on their dense data)\n");

    println!("=== Ablation 2: in-sample r² vs cross-validated r² on pure noise ===");
    for &p in &[10usize, 50, 150] {
        let x = noise(300, p, p as u64);
        let yn = noise(300, 1, p as u64 + 1);
        let model = RidgeModel::fit(&x, &yn, 0.1).expect("fit");
        let pred = model.predict(&x);
        let in_sample = explainit_ml::ridge::r2_columns_mean(&yn, &pred, &yn.column_means());
        let cv = cross_validated_r2(&x, &yn, &CvConfig::default()).expect("cv").r2;
        println!("  p = {p:<4} in-sample r² = {in_sample:.3}   CV r² = {cv:+.3}");
    }
    println!("  (in-sample inflates with p; CV stays near zero — Appendix A)\n");

    println!("=== Ablation 3: variance across random projections ===");
    let x = noise(500, 300, 77);
    let mut yy = Matrix::zeros(500, 1);
    for i in 0..500 {
        yy[(i, 0)] = x[(i, 0)] + x[(i, 1)] + x[(i, 2)];
    }
    let mut scores = Vec::new();
    for seed in 0..8u64 {
        let cfg = ScoreConfig { projection_samples: 1, seed, ..ScoreConfig::default() };
        let s = score_hypothesis(ScorerKind::L2_P50, &x, &yy, None, &cfg).expect("score");
        scores.push(s.score);
    }
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    let sd =
        (scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / scores.len() as f64).sqrt();
    println!("  single-projection scores across 8 seeds: mean {mean:.3}, sd {sd:.4}");
    println!("  (paper: \"little variance... even one projection is mostly sufficient\")\n");

    println!("=== Ablation 4: conditioning in the hypervisor case (§5.2) ===");
    let (before, _) = case_studies::hypervisor();
    let engine = engine_for(&before, EngineConfig::default());
    let unconditioned = rank_runtime(&engine, &[], ScorerKind::L2);
    let conditioned = rank_runtime(&engine, &["pipeline_input_rate"], ScorerKind::L2);
    println!(
        "  tcp_retransmits rank: unconditioned {:?} -> conditioned {:?}",
        unconditioned.rank_of("tcp_retransmits"),
        conditioned.rank_of("tcp_retransmits")
    );
    println!("  (conditioning on understood load variation surfaces the network cause)");
}
