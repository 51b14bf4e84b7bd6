//! One benchmark run: set-up, a reference script over the simulator's
//! store, then timed iterations (and, with tracing, traced ones) until the
//! run's seconds are spent.
//!
//! An iteration ingests the inputs into a fresh store, persists it, opens
//! it again and runs the script. Untimed iterations go through the public
//! [`Session`]; traced ones call the same pipeline's public functions one
//! at a time, with a span around each call.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use explainit::core::{Engine, EngineConfig, FeatureFamily, ScorerKind};
use explainit::query::optimize::{optimize_with, OptimizeOptions};
use explainit::query::{
    check_query, parse_script, pivot_long, pivot_one, pivot_wide, plan, Catalog, CreateFamily,
    ExecOptions, ExplainFor, FamilyFrame, Statement, Table, Value,
};
use explainit::tsdb::{Snapshot, StorageOptions, Tsdb};
use explainit::Session;

use crate::check::{
    check_iteration, check_sane, rows_from_ranking, rows_from_table, Expected, Rankings, Tally,
};
use crate::report::{median, Metric, Samples, END_TO_END, PER_LAYER};
use crate::trace::Trace;
use crate::workload::{self, Batch, Inputs, StoreKind, Workload, PAGE_BUDGET_BYTES};

/// Span names. The `tsdb.*`, `query.*` and `core.*` spans are the layers;
/// the others group them.
const LOAD: &str = "tsdb.load";
const CREATE: &str = "tsdb.store.open";
const INSERT: &str = "tsdb.store.try_insert_batch";
const FLUSH: &str = "tsdb.store.flush";
const SNAPSHOT_WRITE: &str = "tsdb.snapshot.write";
const OPEN: &str = "tsdb.storage.open_read_only_with";
const SNAPSHOT_LOAD: &str = "tsdb.snapshot.load";
const SCRIPT: &str = "session.script";
const CREATE_FAMILY: &str = "session.create_family";
const EXPLAIN_FOR: &str = "session.explain_for";
const BIND: &str = "query.catalog.register_tsdb";
const PARSE: &str = "query.parser.parse_script";
const PLAN: &str = "query.plan.build";
const CHECK: &str = "query.types.check_query";
const OPTIMIZE: &str = "query.optimize.optimize_with";
const EXECUTE: &str = "query.catalog.execute_query_with";
const RELEASE: &str = "query.table.drop";
const PIVOT: &str = "query.pivot.pivot";
const FAMILY: &str = "core.family.from_frame_owned";
const RANK: &str = "core.engine.rank";

/// The layer spans directly under [`SCRIPT`] or a statement span: between
/// them they should cover the traced script's wall time.
const SCRIPT_LAYERS: [&str; 10] =
    [BIND, PARSE, PLAN, CHECK, OPTIMIZE, EXECUTE, RELEASE, PIVOT, FAMILY, RANK];

/// Least share of the traced script's wall time the layer spans must cover.
pub const MIN_COVERAGE_PCT: f64 = 95.0;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Iterations per run even when the run's seconds have passed.
const MIN_ITERATIONS: usize = 3;

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (goes into the simulator's `ClusterSpec`).
    pub seed: u64,
    /// Simulated horizon; [`Workload::full_minutes`] outside tests.
    pub minutes: usize,
    /// Keep starting iterations until this much time has passed.
    pub seconds: f64,
    /// Also run traced iterations and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for the stores; removed when the run ends.
    pub work_dir: PathBuf,
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, and failure messages.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Every sample the metrics are medians of.
    pub samples: Samples,
    /// The spans of the traced iterations (empty when untraced).
    pub trace: Trace,
    /// Iterations run.
    pub iterations: usize,
}

/// Runs the benchmark as configured.
pub fn run(cfg: &Config) -> Outcome {
    run_with(cfg, |_| {})
}

/// [`run`] with a hook that may alter the expected results before the
/// iterations are checked against them (tests use it to prove the gate
/// trips).
pub fn run_with(cfg: &Config, adjust: impl FnOnce(&mut Expected)) -> Outcome {
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut trace = if cfg.trace { Trace::enabled() } else { Trace::disabled() };
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let started = Instant::now();
        let built = workload::setup(cfg.workload, cfg.seed, cfg.minutes);
        samples.push("setup_s", started.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up ran");

    // The reference: the script over the simulator's own in-memory store.
    // It also warms up everything lazily initialised before timing starts.
    let mut iterations = 0;
    if let Some(reference) = session_script(&inputs.sim.db, &inputs.script, &mut tally) {
        let mut expected = Expected {
            rankings: reference.rankings,
            points: inputs.points,
            causes: (cfg.workload == Workload::RcaLong)
                .then(|| inputs.sim.truth.cause_families.clone()),
        };
        check_sane(&mut tally, &expected.rankings);
        adjust(&mut expected);
        let made = std::fs::create_dir_all(&cfg.work_dir);
        if tally.op("create work dir", made).is_some() {
            iterations = iterate(cfg, &inputs, &expected, &mut trace, &mut tally, &mut samples);
            tally.op("remove work dir", std::fs::remove_dir_all(&cfg.work_dir));
        }
    }

    if cfg.trace {
        if let (Some(traced), Some(plain)) =
            (samples.median("traced_script_s"), samples.median("script_s"))
        {
            samples.push("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
        }
        if let Some(coverage) = samples.median("trace.coverage_pct") {
            tally.check(coverage >= MIN_COVERAGE_PCT, || {
                format!(
                    "layer spans cover {coverage:.2}% of the traced script, \
                     under {MIN_COVERAGE_PCT}%"
                )
            });
        }
    }
    let names: &[(&'static str, &'static str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = median(samples.get(name)).filter(|v| v.is_finite());
        if tally.check(value.is_some(), || format!("no finite value for {name}")) {
            metrics.push(Metric { name, unit, value: value.expect("checked above") });
        }
    }
    Outcome { tally, metrics, samples, trace, iterations }
}

/// The timed phase: iterations until `cfg.seconds` are spent (at least
/// [`MIN_ITERATIONS`]). Returns the iteration count.
fn iterate(
    cfg: &Config,
    inputs: &Inputs,
    expected: &Expected,
    trace: &mut Trace,
    tally: &mut Tally,
    samples: &mut Samples,
) -> usize {
    let started = Instant::now();
    let mut iterations = 0;
    let mut last = 0.0;
    // Start another iteration only if one as long as the last still fits.
    while tally.correct()
        && (iterations < MIN_ITERATIONS || started.elapsed().as_secs_f64() + last <= cfg.seconds)
    {
        let iteration_started = Instant::now();
        let dir = cfg.work_dir.join(format!("iteration-{iterations}"));
        in_fresh_dir(&dir, tally, |tally| plain_iteration(inputs, expected, &dir, tally, samples));
        if cfg.trace {
            let dir = dir.with_extension("traced");
            in_fresh_dir(&dir, tally, |tally| {
                traced_iteration(inputs, expected, &dir, trace, tally, samples)
            });
        }
        iterations += 1;
        last = iteration_started.elapsed().as_secs_f64();
    }
    iterations
}

/// Runs `f` with an empty directory at `dir`, removed afterwards.
fn in_fresh_dir(dir: &Path, tally: &mut Tally, f: impl FnOnce(&mut Tally)) {
    if tally.op("create store dir", std::fs::create_dir_all(dir)).is_some() {
        f(tally);
        tally.op("remove store dir", std::fs::remove_dir_all(dir));
    }
}

/// One untraced iteration: the end-to-end metrics.
fn plain_iteration(
    inputs: &Inputs,
    expected: &Expected,
    dir: &Path,
    tally: &mut Tally,
    samples: &mut Samples,
) {
    // Memory freed before the iteration goes back to the system, and the
    // peak starts again from what is resident now (the inputs, mostly), so
    // that the iteration's peak counts only what the iteration adds.
    release_free_heap();
    if tally.op("reset peak RSS", reset_peak_rss()).is_none() {
        return;
    }
    let Some(resident_mb) = tally.op("read RSS", status_mb("VmRSS")) else { return };
    let Some(stored) = load_store(inputs, dir, &mut Trace::disabled(), tally) else { return };
    let Some(run) = session_script(&stored.db, &inputs.script, tally) else { return };
    let Some(peak_mb) = tally.op("read peak RSS", status_mb("VmHWM")) else { return };
    check_iteration(tally, "session", expected, stored.db.point_count(), &run.rankings);
    samples.push("peak_rss_mb", peak_mb - resident_mb);
    samples.push("ingest_points_per_s", inputs.points as f64 / stored.ingest_s);
    samples.push("open_s", stored.open_s);
    samples.push("script_s", run.script_s);
    samples.push("create_family_s", run.create_family_s);
    samples.push("explain_for_s", run.explain_for_s);
}

/// A store after ingest, persist and reopen.
struct Stored {
    /// The reopened store the script runs on.
    db: Tsdb,
    /// Ingest wall time, flushes or the snapshot write included.
    ingest_s: f64,
    /// Reopen wall time.
    open_s: f64,
    /// Bytes persisted: segment payload bytes or the snapshot file size.
    persisted_bytes: u64,
}

/// Inserts one batch, one series at a time.
fn insert_batch(db: &mut Tsdb, batch: &Batch) -> Result<(), String> {
    for (key, points) in batch {
        db.try_insert_batch(key, points).map_err(|e| format!("{key:?}: {e}"))?;
    }
    Ok(())
}

/// Ingests every batch into a fresh store in `dir`, persists it and opens
/// it again the way the workload's store is opened.
fn load_store(inputs: &Inputs, dir: &Path, trace: &mut Trace, tally: &mut Tally) -> Option<Stored> {
    let root = trace.open(LOAD, None);
    let snapshot = dir.join("store.snapshot");
    let started = Instant::now();
    let (writer, persisted_bytes) = match inputs.workload.store() {
        StoreKind::Snapshot => {
            let mut db = Tsdb::new();
            for batch in &inputs.batches {
                tally.op(
                    "ingest batch",
                    trace.time(INSERT, root, || insert_batch(&mut db, batch)),
                )?;
            }
            let written = trace.time(SNAPSHOT_WRITE, root, || {
                let bytes = Snapshot::capture(&db).to_bytes();
                std::fs::write(&snapshot, &bytes).map(|()| bytes.len() as u64)
            });
            let bytes = tally.op("snapshot write", written)?;
            (db, bytes)
        }
        StoreKind::Paged => {
            let mut db = tally.op("create store", trace.time(CREATE, root, || Tsdb::open(dir)))?;
            for batch in &inputs.batches {
                tally.op(
                    "ingest batch",
                    trace.time(INSERT, root, || insert_batch(&mut db, batch)),
                )?;
                tally.op("flush", trace.time(FLUSH, root, || db.flush()))?;
            }
            let bytes = db.storage_stats().map_or(0, |s| s.segment_bytes);
            (db, bytes)
        }
    };
    let ingest_s = started.elapsed().as_secs_f64();
    drop(writer);

    let started = Instant::now();
    let db = match inputs.workload.store() {
        StoreKind::Snapshot => {
            tally.op("open", trace.time(SNAPSHOT_LOAD, root, || load_snapshot(&snapshot)))?
        }
        StoreKind::Paged => {
            let options = StorageOptions {
                page_budget_bytes: Some(PAGE_BUDGET_BYTES),
                ..StorageOptions::default()
            };
            tally.op("open", trace.time(OPEN, root, || Tsdb::open_read_only_with(dir, options)))?
        }
    };
    let open_s = started.elapsed().as_secs_f64();
    trace.close(root);
    Some(Stored { db, ingest_s, open_s, persisted_bytes })
}

/// Loads a snapshot file the way `explainit sql FILE` does.
fn load_snapshot(path: &Path) -> Result<Tsdb, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let snapshot = Snapshot::from_bytes(&bytes).ok_or("not a valid snapshot")?;
    Ok(snapshot.restore())
}

/// Wall times and rankings of one script run through [`Session`].
struct SessionRun {
    script_s: f64,
    create_family_s: f64,
    explain_for_s: f64,
    rankings: Rankings,
}

/// Binds `db` into a fresh session and runs the script the way
/// `Session::execute_script` does (parse, then each statement in turn),
/// taking each statement's wall time at its boundary.
fn session_script(db: &Tsdb, script: &str, tally: &mut Tally) -> Option<SessionRun> {
    let (mut create_family, mut explain_for) = (Duration::ZERO, Duration::ZERO);
    let started = Instant::now();
    let mut session = Session::new();
    session.bind_tsdb("tsdb", db);
    let statements = match parse_script(script) {
        Ok(statements) => statements,
        Err(e) => {
            tally.check(false, || format!("parse: {e}"));
            return None;
        }
    };
    let mut tables = Vec::new();
    for statement in &statements {
        let t = Instant::now();
        let outcome = session.execute_statement(statement);
        let elapsed = t.elapsed();
        let outcome = tally.op("statement", outcome)?;
        match statement {
            Statement::CreateFamily(_) => create_family += elapsed,
            Statement::ExplainFor(_) => {
                explain_for += elapsed;
                tables.push(outcome.table);
            }
            _ => {}
        }
    }
    let script_s = started.elapsed().as_secs_f64();
    let mut rankings = Vec::with_capacity(tables.len());
    for table in &tables {
        match rows_from_table(table) {
            Ok(rows) => rankings.push(rows),
            Err(e) => {
                tally.check(false, || e);
                return None;
            }
        }
    }
    Some(SessionRun {
        script_s,
        create_family_s: create_family.as_secs_f64(),
        explain_for_s: explain_for.as_secs_f64(),
        rankings,
    })
}

/// Counts the traced decomposition collects alongside its spans.
#[derive(Debug, Default)]
struct Counters {
    rows_out: usize,
    pivot_rows_in: usize,
    pivot_cells_out: usize,
    hypotheses: usize,
    hypotheses_failed: usize,
    hypothesis_ms: Vec<f64>,
    /// Summed rank milliseconds times the workers each ranking used.
    worker_ms: f64,
}

/// One traced iteration: the per-layer metrics.
fn traced_iteration(
    inputs: &Inputs,
    expected: &Expected,
    dir: &Path,
    trace: &mut Trace,
    tally: &mut Tally,
    samples: &mut Samples,
) {
    let run = trace.begin_run();
    let Some(stored) = load_store(inputs, dir, trace, tally) else { return };
    let before = stored.db.storage_stats();
    let decodes_before = stored.db.decode_count();
    let mut counters = Counters::default();
    let Some((rankings, script)) =
        traced_script(&stored.db, &inputs.script, trace, tally, &mut counters)
    else {
        return;
    };
    let after = stored.db.storage_stats();
    let decodes = (stored.db.decode_count() - decodes_before) as f64;
    check_iteration(tally, "traced", expected, stored.db.point_count(), &rankings);

    let ms = |name: &str| trace.total_ms(run, name);
    let flushes: Vec<f64> =
        trace.of(run, FLUSH).chain(trace.of(run, SNAPSHOT_WRITE)).map(|s| s.ms()).collect();
    let script_ms = trace.spans()[script].ms();
    let layers_ms: f64 = SCRIPT_LAYERS.iter().map(|name| ms(name)).sum();
    let (plan_ms, check_ms, optimize_ms) = (ms(PLAN), ms(CHECK), ms(OPTIMIZE));
    let pivot_ms = ms(PIVOT);
    let rank_ms = ms(RANK);
    let hyp_sum: f64 = counters.hypothesis_ms.iter().sum();
    let (faults, evictions, peak_chunk_bytes, chunks) = match (&before, &after) {
        (Some(b), Some(a)) => (
            (a.page_faults - b.page_faults) as f64,
            (a.evictions - b.evictions) as f64,
            a.peak_resident_chunk_bytes as f64,
            a.chunks as f64,
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    let values = [
        ("tsdb.store.ingest_ms", ms(INSERT)),
        ("tsdb.store.flush_ms", flushes.iter().sum()),
        ("tsdb.store.flush_max_ms", flushes.iter().copied().fold(0.0, f64::max)),
        ("tsdb.store.flushes", flushes.len() as f64),
        (
            "tsdb.storage.segment_bytes_per_point",
            stored.persisted_bytes as f64 / inputs.points as f64,
        ),
        ("tsdb.storage.open_ms", ms(OPEN) + ms(SNAPSHOT_LOAD)),
        ("tsdb.pager.page_faults", faults),
        ("tsdb.pager.evictions", evictions),
        ("tsdb.pager.peak_resident_chunk_bytes", peak_chunk_bytes),
        ("tsdb.decode_count", decodes),
        ("tsdb.chunks_decoded_ratio", if chunks > 0.0 { decodes / chunks } else { 0.0 }),
        ("query.catalog.bind_ms", ms(BIND)),
        ("query.parser.parse_ms", ms(PARSE)),
        ("query.types.check_ms", check_ms),
        ("query.plan.build_ms", plan_ms),
        ("query.optimize.optimize_ms", optimize_ms),
        ("query.exec.stage_one_ms", ms(EXECUTE) + ms(RELEASE) - plan_ms - check_ms - optimize_ms),
        ("query.exec.rows_out", counters.rows_out as f64),
        ("query.pivot.pivot_ms", pivot_ms),
        ("query.pivot.rows_in", counters.pivot_rows_in as f64),
        ("query.pivot.cells_out", counters.pivot_cells_out as f64),
        ("query.pivot.rows_per_s", counters.pivot_rows_in as f64 / (pivot_ms / 1e3)),
        ("core.family.build_ms", ms(FAMILY)),
        ("core.engine.rank_ms", rank_ms),
        ("core.engine.hypotheses", counters.hypotheses as f64),
        ("core.engine.hypotheses_failed", counters.hypotheses_failed as f64),
        ("core.engine.hypothesis_ms_p50", median(&counters.hypothesis_ms).unwrap_or(0.0)),
        (
            "core.engine.hypothesis_ms_max",
            counters.hypothesis_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("core.engine.hypothesis_ms_sum", hyp_sum),
        ("core.engine.parallel_efficiency", hyp_sum / counters.worker_ms),
        ("session.unaccounted_ms", script_ms - layers_ms),
        ("trace.coverage_pct", layers_ms / script_ms * 100.0),
    ];
    for (name, value) in values {
        samples.push(name, value);
    }
    samples.push("traced_script_s", script_ms / 1e3);
}

/// Runs the script by calling the pipeline's public functions one at a
/// time, each inside a span. Returns the rankings (cut to each
/// statement's `TOP k`) and the index of the script's span.
fn traced_script(
    db: &Tsdb,
    script: &str,
    trace: &mut Trace,
    tally: &mut Tally,
    counters: &mut Counters,
) -> Option<(Rankings, usize)> {
    let root = trace.open(SCRIPT, None);
    let mut catalog = Catalog::new();
    trace.time(BIND, root, || catalog.register_tsdb("tsdb", db));
    let statements = match trace.time(PARSE, root, || parse_script(script)) {
        Ok(statements) => statements,
        Err(e) => {
            tally.check(false, || format!("parse: {e}"));
            return None;
        }
    };
    let mut engine = Engine::new(EngineConfig::default());
    let mut rankings = Vec::new();
    for statement in &statements {
        match statement {
            Statement::CreateFamily(cf) => {
                let done = create_family(&catalog, &mut engine, cf, trace, root, counters);
                tally.op("statement", done)?;
            }
            Statement::ExplainFor(e) => {
                let ranked = explain_for(&mut engine, e, trace, root, counters);
                rankings.push(tally.op("statement", ranked)?);
            }
            other => {
                tally.check(false, || format!("the traced run does not decompose {other:?}"));
                return None;
            }
        }
    }
    trace.close(root);
    Some((rankings, root.expect("the trace is enabled")))
}

/// `CREATE FAMILY`, one layer at a time.
fn create_family(
    catalog: &Catalog,
    engine: &mut Engine,
    cf: &CreateFamily,
    trace: &mut Trace,
    parent: Option<usize>,
    counters: &mut Counters,
) -> Result<(), String> {
    let span = trace.open(CREATE_FAMILY, parent);
    let plan =
        trace.time(PLAN, span, || plan::build(catalog, &cf.query)).map_err(|e| e.to_string())?;
    trace.time(CHECK, span, || check_query(catalog, &cf.query)).map_err(|e| e.to_string())?;
    let optimized =
        trace.time(OPTIMIZE, span, || optimize_with(plan, catalog, &OptimizeOptions::default()));
    optimized.map_err(|e| e.to_string())?;
    let table = trace
        .time(EXECUTE, span, || catalog.execute_query_with(&cf.query, ExecOptions::default()))
        .map_err(|e| e.to_string())?;
    counters.rows_out += table.len();
    if table.is_empty() {
        return Err(format!("CREATE FAMILY {}: the stage-one query returned no rows", cf.name));
    }
    let frames = trace.time(PIVOT, span, || pivot(cf, &table))?;
    if frames.is_empty() {
        return Err(format!("CREATE FAMILY {}: the pivot produced no families", cf.name));
    }
    counters.pivot_rows_in += table.len();
    counters.pivot_cells_out += frames.iter().map(|f| f.len() * f.width()).sum::<usize>();
    trace.time(FAMILY, span, || {
        for frame in frames {
            engine.add_family(FeatureFamily::from_frame_owned(frame));
        }
    });
    // Freeing the stage-one result is part of the statement's cost.
    trace.time(RELEASE, span, || drop(table));
    trace.close(span);
    Ok(())
}

/// The pivot `Session` picks for a `CREATE FAMILY`, called with explicit
/// column names: options name the layout and columns, and an unnamed
/// column is taken by position (timestamp, family, feature, value).
fn pivot(cf: &CreateFamily, table: &Table) -> Result<Vec<FamilyFrame>, String> {
    let option = |key: &str| {
        cf.options.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
            Value::Str(s) => s.clone(),
            other => other.render(),
        })
    };
    let column = |key: &str, index: usize| {
        option(key)
            .or_else(|| table.schema().columns().get(index).cloned())
            .ok_or_else(|| format!("no column for {key}"))
    };
    let ts = column("ts", 0)?;
    let frames = match option("layout").as_deref().map(str::to_ascii_lowercase).as_deref() {
        Some("long") => pivot_long(
            table,
            &ts,
            &column("family", 1)?,
            &column("feature", 2)?,
            &column("value", 3)?,
        ),
        None | Some("wide") => match option("family") {
            Some(family) => pivot_wide(table, &ts, &family),
            None => pivot_one(table, &ts, &cf.name).map(|frame| vec![frame]),
        },
        Some(other) => return Err(format!("unknown layout {other}")),
    };
    frames.map_err(|e| e.to_string())
}

/// `EXPLAIN FOR`, with `top_k` above the family count so that every
/// hypothesis and its duration comes back.
fn explain_for(
    engine: &mut Engine,
    e: &ExplainFor,
    trace: &mut Trace,
    parent: Option<usize>,
    counters: &mut Counters,
) -> Result<Vec<crate::check::RankRow>, String> {
    let span = trace.open(EXPLAIN_FOR, parent);
    let scorer_name = e.scorer.as_deref().unwrap_or("auto");
    let scorer = ScorerKind::parse(scorer_name)
        .ok_or_else(|| format!("the traced run needs a named scorer, not {scorer_name}"))?;
    let given: Vec<&str> = e.given.iter().map(String::as_str).collect();
    engine.config_mut().top_k = engine.family_count() + 1;
    let ranking = trace
        .time(RANK, span, || engine.rank(&e.target, &given, scorer))
        .map_err(|err| err.to_string())?;
    trace.close(span);
    if ranking.entries.len() != ranking.hypotheses_scored {
        return Err(format!(
            "{} of {} hypotheses came back",
            ranking.entries.len(),
            ranking.hypotheses_scored
        ));
    }
    let rank_ms = span.map_or(0.0, |i| trace.spans()[i].ms());
    let workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(ranking.hypotheses_scored.max(1));
    counters.hypotheses += ranking.hypotheses_scored;
    for entry in &ranking.entries {
        match entry.error {
            Some(_) => counters.hypotheses_failed += 1,
            None => counters.hypothesis_ms.push(entry.duration.as_secs_f64() * 1e3),
        }
    }
    counters.worker_ms += rank_ms * workers as f64;
    Ok(rows_from_ranking(&ranking, e.top.unwrap_or(EngineConfig::default().top_k)))
}

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Hands the heap memory the allocator holds free back to the operating
/// system.
fn release_free_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so the next reading covers only what runs after this call.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// A size field of `/proc/self/status` (`VmRSS`, or `VmHWM`, the peak
/// since the last reset), in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let value = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .ok_or_else(|| format!("no {field} line"))?;
    let kb: f64 =
        value.trim().trim_end_matches("kB").trim().parse().map_err(|e| format!("{field}: {e}"))?;
    Ok(kb / 1024.0)
}
