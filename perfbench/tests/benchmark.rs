//! The benchmark's own tests: seed hygiene, a smoke run of every workload
//! at a tiny horizon, and proof that the correctness gate trips.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds work too, only slower).

use std::path::PathBuf;

use explainit::query::parse_script;
use explainit::Session;
use explainit_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use explainit_perfbench::run::{run, run_with, Config};
use explainit_perfbench::workload::{setup, Inputs, Workload};

/// Small enough for debug builds, long enough for every scorer to have
/// rows and for the packet-drop cause to rank.
const SMOKE_MINUTES: usize = 240;

fn config(workload: Workload, trace: bool, tag: &str) -> Config {
    Config {
        workload,
        seed: 3,
        minutes: SMOKE_MINUTES,
        seconds: 0.0,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "perfbench-{}-{tag}-{}",
            workload.name(),
            std::process::id()
        )),
    }
}

/// Families and statements the script yields over the simulator's store.
fn script_shape(inputs: &Inputs) -> (usize, usize) {
    let mut session = Session::new();
    session.bind_tsdb("tsdb", &inputs.sim.db);
    session.execute_script(&inputs.script).expect("the script runs");
    let statements = parse_script(&inputs.script).expect("the script parses").len();
    (session.engine().family_count(), statements)
}

#[test]
fn seeds_change_values_but_not_sizes() {
    for workload in Workload::ALL {
        let a = setup(workload, 11, SMOKE_MINUTES);
        let b = setup(workload, 12, SMOKE_MINUTES);
        assert_eq!(a.sim.db.series_count(), b.sim.db.series_count(), "{}", workload.name());
        assert_eq!(a.points, b.points, "{}", workload.name());
        assert_eq!(a.points, a.sim.db.point_count(), "{}", workload.name());
        let batch_sizes = |i: &Inputs| -> Vec<usize> {
            i.batches.iter().map(|b| b.iter().map(|(_, p)| p.len()).sum()).collect()
        };
        assert_eq!(batch_sizes(&a), batch_sizes(&b), "{}", workload.name());
        assert_eq!(script_shape(&a), script_shape(&b), "{}", workload.name());
        let values = |i: &Inputs| -> Vec<u64> {
            i.batches[0].iter().flat_map(|(_, p)| p.iter().map(|(_, v)| v.to_bits())).collect()
        };
        assert_ne!(values(&a), values(&b), "{}: seeds gave the same values", workload.name());
    }
}

#[test]
fn smoke_run_prints_every_metric_with_its_unit() {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark directory");
    for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        for &(name, unit) in names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(contract.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in Workload::ALL {
            let outcome = run(&config(workload, trace, "smoke"));
            assert!(
                outcome.tally.correct(),
                "{} (trace {trace}): {:?}",
                workload.name(),
                outcome.tally.errors
            );
            let line = result_line(true, outcome.tally.attempted, 0, &outcome.metrics);
            for &(name, unit) in names {
                let printed = outcome.metrics.iter().any(|m| m.name == name && m.unit == unit);
                assert!(printed, "{}: {name} [{unit}] missing", workload.name());
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{line}");
            }
            assert_eq!(outcome.metrics.len(), names.len(), "{}", workload.name());
        }
    }
}

#[test]
fn a_wrong_expected_ranking_trips_the_gate() {
    for workload in Workload::ALL {
        let outcome = run_with(&config(workload, false, "gate"), |expected| {
            let first = &mut expected.rankings[0];
            first.swap(0, 1);
        });
        assert!(!outcome.tally.correct(), "{}: the gate did not trip", workload.name());
        assert!(outcome.tally.failed > 0);
        let line =
            result_line(false, outcome.tally.attempted, outcome.tally.failed, &outcome.metrics);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }
}
