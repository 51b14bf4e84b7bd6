//! The three seeded workloads: which fleet each simulates, how its points
//! are batched for ingest, and the RCA script it runs.
//!
//! A seed changes the simulated values only. Sizes (series, points,
//! families, statements) depend on the workload and the horizon alone, so
//! runs under different seeds do the same amount of work.

use explainit::tsdb::SeriesKey;
use explainit::workloads::case_studies::multi_fault_spec;
use explainit::workloads::{simulate, ClusterSpec, Fault, SimOutput};

/// Page budget of the read-only reopen on `ingest_paged`: about a tenth of
/// the segment bytes the 2880-minute fleet compresses to, so the store is
/// larger than its cache.
pub const PAGE_BUDGET_BYTES: u64 = 2 << 20;

/// Simulated minutes per ingest batch; `ingest_paged` flushes after each.
pub const BATCH_MINUTES: usize = 60;

/// The targets of the `explain_loop` script.
const LOOP_TARGETS: [&str; 3] = ["pipeline_runtime", "pipeline_latency", "pipeline_save_time"];

/// Conditioning families of the `explain_loop` script; a statement takes a
/// prefix of 1, 5 or 10 of them.
const LOOP_GIVEN: [&str; 10] = [
    "pipeline_input_rate",
    "cpu_usage",
    "mem_usage",
    "load_avg",
    "disk_util",
    "namenode_gc_time",
    "namenode_rpc_rate",
    "raid_temperature",
    "svc_000_metric_0",
    "svc_001_metric_0",
];

/// The non-L2 scorers `explain_loop` runs once each.
const LOOP_SCORERS: [&str; 5] = ["corrmean", "corrmax", "l2p50", "l2p500", "lasso"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The CI case study at full scale: a long-layout pivot of every point.
    RcaLong,
    /// The interactive Algorithm-1 loop: one aggregate family statement and
    /// seventeen rankings.
    ExplainLoop,
    /// WAL, flush, compaction and a paged read-only reopen under a budget
    /// smaller than the store.
    IngestPaged,
}

/// Where a workload's store lives between ingest and the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// An in-memory store, persisted as one snapshot file and loaded back
    /// whole (the `explainit simulate --out` / `explainit sql FILE` path).
    Snapshot,
    /// The durable WAL + segment store, reopened read-only with a page
    /// budget (the `--data-dir` path).
    Paged,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] =
        [Workload::RcaLong, Workload::ExplainLoop, Workload::IngestPaged];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RcaLong => "rca_long",
            Workload::ExplainLoop => "explain_loop",
            Workload::IngestPaged => "ingest_paged",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The horizon the benchmark runs at.
    pub fn full_minutes(self) -> usize {
        match self {
            Workload::RcaLong | Workload::IngestPaged => 2880,
            Workload::ExplainLoop => 720,
        }
    }

    /// The store the workload ingests into and reopens.
    pub fn store(self) -> StoreKind {
        match self {
            Workload::RcaLong | Workload::ExplainLoop => StoreKind::Snapshot,
            Workload::IngestPaged => StoreKind::Paged,
        }
    }

    /// The simulated fleet. The seed is the only input that varies.
    pub fn spec(self, seed: u64, minutes: usize) -> ClusterSpec {
        let faults = match self {
            Workload::RcaLong | Workload::IngestPaged => vec![Fault::PacketDrop {
                start_min: minutes / 2,
                end_min: minutes / 2 + minutes / 8,
                rate: 0.1,
            }],
            Workload::ExplainLoop => multi_fault_spec(minutes).faults,
        };
        ClusterSpec { minutes, seed, faults, ..ClusterSpec::default() }
    }

    /// The RCA script, for a fleet of `minutes` starting at `start_ts`.
    pub fn script(self, minutes: usize, start_ts: i64) -> String {
        match self {
            Workload::RcaLong => {
                "CREATE FAMILY metrics WITH (layout = 'long', family = 'metric_name') \
                 AS SELECT timestamp, metric_name, tag, value FROM tsdb;\n\
                 EXPLAIN FOR pipeline_runtime USING SCORER l2 TOP 10;\n"
                    .to_string()
            }
            Workload::ExplainLoop => {
                let mut s = String::from(
                    "CREATE FAMILY stats WITH (layout = 'wide', family = 'metric_name') \
                     AS SELECT timestamp, metric_name, AVG(value) AS mean, MAX(value) AS peak, \
                     MIN(value) AS low, STDDEV(value) AS spread \
                     FROM tsdb GROUP BY timestamp, metric_name;\n",
                );
                for target in LOOP_TARGETS {
                    s.push_str(&format!("EXPLAIN FOR {target} USING SCORER l2 TOP 10;\n"));
                    for k in [1, 5, 10] {
                        let given = LOOP_GIVEN[..k].join(", ");
                        s.push_str(&format!(
                            "EXPLAIN FOR {target} GIVEN {given} USING SCORER l2 TOP 10;\n"
                        ));
                    }
                }
                for scorer in LOOP_SCORERS {
                    s.push_str(&format!(
                        "EXPLAIN FOR pipeline_runtime USING SCORER {scorer} TOP 10;\n"
                    ));
                }
                s
            }
            Workload::IngestPaged => {
                // A 12-hour window (at 2880 minutes) around the injected fault.
                let lo = start_ts + (minutes * 5 / 12) as i64 * 60;
                let hi = start_ts + (minutes * 2 / 3) as i64 * 60;
                format!(
                    "CREATE FAMILY window12h WITH (layout = 'wide', family = 'metric_name') \
                     AS SELECT timestamp, metric_name, AVG(value) AS mean, MAX(value) AS peak \
                     FROM tsdb WHERE timestamp BETWEEN {lo} AND {hi} \
                     GROUP BY timestamp, metric_name;\n\
                     EXPLAIN FOR pipeline_runtime USING SCORER corrmax TOP 10;\n"
                )
            }
        }
    }
}

/// One ingest batch: every series' points in one window of
/// [`BATCH_MINUTES`] simulated minutes.
pub type Batch = Vec<(SeriesKey, Vec<(i64, f64)>)>;

/// Everything set-up builds: the simulated fleet (whose store is also the
/// in-memory reference), the ingest batches and the script.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The simulator's output: resident store and ground truth.
    pub sim: SimOutput,
    /// Time-ordered ingest batches covering every point of `sim.db`.
    pub batches: Vec<Batch>,
    /// The RCA script.
    pub script: String,
    /// Points across all batches.
    pub points: usize,
}

/// Simulates the fleet and builds the inputs (the part `setup_s` times).
pub fn setup(workload: Workload, seed: u64, minutes: usize) -> Inputs {
    let sim = simulate(&workload.spec(seed, minutes));
    let window = BATCH_MINUTES as i64 * sim.step;
    let batch_count = minutes.div_ceil(BATCH_MINUTES);
    let mut batches: Vec<Batch> = vec![Vec::new(); batch_count];
    let mut points = 0;
    for (_, series) in sim.db.iter() {
        let mut per_batch: Vec<Vec<(i64, f64)>> = vec![Vec::new(); batch_count];
        for p in series.points() {
            let b = ((p.ts - sim.start_ts) / window) as usize;
            per_batch[b.min(batch_count - 1)].push((p.ts, p.value));
            points += 1;
        }
        for (batch, pts) in batches.iter_mut().zip(per_batch) {
            if !pts.is_empty() {
                batch.push((series.key.clone(), pts));
            }
        }
    }
    let script = workload.script(minutes, sim.start_ts);
    Inputs { workload, sim, batches, script, points }
}
