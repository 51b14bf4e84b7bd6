//! `explainit-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a summary of every metric, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! any operation or correctness check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use explainit_perfbench::report::{result_line, summary};
use explainit_perfbench::run::{run, Config};
use explainit_perfbench::workload::Workload;

/// Environment variables that arm debugging checks in release builds; the
/// benchmark measures with both unset.
const DEBUG_SWITCHES: [&str; 2] = ["EXPLAINIT_LOCKDEP", "EXPLAINIT_VERIFY_PLANS"];

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: explainit-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == name).ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = flag("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = flag("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = flag("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Config {
        workload,
        seed,
        minutes: workload.full_minutes(),
        seconds: seconds as f64,
        trace,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("explainit-perfbench measures release builds only: build with --release");
        return ExitCode::from(2);
    }
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Cleared before any lock or query runs, so neither switch is armed.
    let mut cleared = Vec::new();
    for var in DEBUG_SWITCHES {
        if std::env::var_os(var).is_some() {
            std::env::remove_var(var);
            cleared.push(var);
        }
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# explainit-perfbench workload={} seed={} seconds={} trace={} build=release \
         EXPLAINIT_LOCKDEP=unset EXPLAINIT_VERIFY_PLANS=unset cleared={:?} threads={threads} \
         clients=1 (closed loop)",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cleared
    );

    let outcome = run(&cfg);

    if cfg.trace {
        let path = PathBuf::from(".bench_work").join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match std::fs::write(&path, outcome.trace.to_jsonl()) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    for error in &outcome.tally.errors {
        eprintln!("error: {error}");
    }
    println!("# {} iterations", outcome.iterations);
    print!("{}", summary(&outcome.metrics, &outcome.samples));
    let correct = outcome.tally.correct();
    println!(
        "{}",
        result_line(
            correct,
            outcome.tally.attempted.max(1),
            outcome.tally.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
