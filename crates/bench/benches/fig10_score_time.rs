//! Criterion bench behind Figure 10: whole-scenario ranking time per
//! scorer on a down-scaled evaluation scenario.
//!
//! Besides the five Table-6 scorers it times `Lasso` (its grid search runs
//! coordinate descent with covariance updates on these narrow families)
//! and `L2 GIVEN pipeline_input_rate` (every candidate residualised on
//! one Z factored once per ranking). `-- --test` runs each case once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use explainit_bench::{engine_for, rank_runtime};
use explainit_core::{EngineConfig, ScorerKind};
use explainit_workloads::{simulate, ClusterSpec, Fault};

fn small_scenario() -> explainit_workloads::SimOutput {
    simulate(&ClusterSpec {
        minutes: 480,
        datanodes: 4,
        pipelines: 3,
        service_hosts: 4,
        noise_services: 10,
        metrics_per_noise_service: 3,
        seed: 1010,
        faults: vec![Fault::PacketDrop { start_min: 200, end_min: 280, rate: 0.1 }],
        ..ClusterSpec::default()
    })
}

fn bench_ranking_per_scorer(c: &mut Criterion) {
    let sim = small_scenario();
    let engine = engine_for(&sim, EngineConfig::default());
    let mut group = c.benchmark_group("fig10/full_ranking");
    group.sample_size(10);
    let mut scorers = ScorerKind::table6_set();
    scorers.push(ScorerKind::Lasso);
    for scorer in scorers {
        group.bench_with_input(BenchmarkId::new(scorer.name(), "480min"), &scorer, |b, &s| {
            b.iter(|| rank_runtime(&engine, &[], s));
        });
    }
    let given = ["pipeline_input_rate"];
    group.bench_function(BenchmarkId::new("L2 GIVEN pipeline_input_rate", "480min"), |b| {
        b.iter(|| {
            let ranking = rank_runtime(&engine, &given, ScorerKind::L2);
            assert!(ranking.entries.iter().any(|e| e.error.is_none()), "no hypothesis scored");
            ranking
        });
    });
    group.finish();
}

fn bench_family_grouping(c: &mut Criterion) {
    let sim = small_scenario();
    let mut group = c.benchmark_group("fig10/pipeline_stages");
    group.sample_size(10);
    group.bench_function("families_by_name", |b| {
        b.iter(|| explainit_workloads::families_by_name(&sim.db, &sim.time_range(), sim.step));
    });
    group.finish();
}

criterion_group!(benches, bench_ranking_per_scorer, bench_family_grouping);
criterion_main!(benches);
