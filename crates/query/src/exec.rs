//! The columnar query executor.
//!
//! [`execute`] runs the three-stage pipeline: lower the AST to a logical
//! plan ([`crate::plan::build`]), rewrite it ([`crate::optimize::optimize`])
//! and interpret the optimized tree over typed [`Column`] vectors. Each
//! operator has one executor. The operators are vectorized where
//! [`crate::veval`] supports the expression and fall back to the row-compat
//! shim (`Table::rows`) for window functions, CASE and scalar function
//! calls — mirroring the retained row-at-a-time oracle in
//! [`crate::reference`].
//!
//! **Partition parallelism.** Two operators run morsel-parallel on a scoped
//! worker pool (the hypothesis-scoring idiom from `explainit-core`): the
//! TSDB scan gather, whose per-row column materialization and merge
//! cascade split into contiguous morsels that concatenate in order, and
//! [`LogicalPlan::ScanAggregate`], whose workers pre-aggregate
//! point-balanced spans into mergeable [`AggAcc`] states that merge in
//! morsel order. Merging is exactly fold-equivalent (error-free float
//! sums, integer counts, per-class MIN/MAX candidates, PERCENTILE value
//! gathering), so a parallel run is bit-identical to a serial one — the
//! differential suite asserts serial == parallel == reference. Every other
//! operator runs serially. Partition count comes from [`ExecOptions`];
//! `0` means one per available core.
//!
//! `EXPLAIN <query>` short-circuits after optimization and returns the
//! rendered plan as a one-column table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use explainit_sync::{LockClass, Mutex};

use explainit_tsdb::{MetricFilter, SeriesKey};

/// Per-execution pin map: held only to clone or insert an `Arc`; the
/// catalog's binding lock is always taken *before* (never under) it.
static EXEC_PINNED: LockClass = LockClass::new("query.exec.pinned", 25);

/// Morsel result collection: a leaf push after each worker's morsel
/// completes, so nothing ever nests inside it.
static EXEC_RESULTS: LockClass = LockClass::new("query.exec.results", 90);

use crate::ast::{Expr, JoinKind, Query};
use crate::catalog::{Catalog, TsdbBinding};
use crate::column::Column;
use crate::eval::{eval_group, eval_row, eval_with_rows};
use crate::functions::{is_aggregate, AggAcc};
use crate::optimize::{map_columns, optimize_with, OptimizeOptions};
use crate::plan::{build, equi_join_keys, LogicalPlan, TSDB_COLUMNS};
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::veval;
use crate::{QueryError, Result};

/// Execution options for the columnar pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Partition count for the parallel TSDB scan gather and the
    /// scan-aggregate operator; every other operator runs serially.
    ///
    /// * `0` — auto: one partition per available core, capped so each
    ///   morsel keeps at least [`MIN_PARTITION_ROWS`] rows;
    /// * `1` — serial execution (single morsel);
    /// * `k` — exactly `min(k, rows)` morsels, regardless of core count
    ///   (lets tests exercise partial-state merging deterministically).
    ///
    /// The default is `0` (auto).
    pub partitions: usize,
    /// Apply the optimizer's scan-level aggregate pushdown
    /// ([`LogicalPlan::ScanAggregate`]). On by default; the differential
    /// harness turns it off to compare the pushdown against the ordinary
    /// pipeline on identical queries.
    pub scan_aggregate: bool,
    /// Run the optimizer invariant verifier ([`crate::verify`]) after each
    /// rewrite rule. Off by default in release builds (debug builds always
    /// verify); the release-mode CI differential job forces it on via the
    /// `EXPLAINIT_VERIFY_PLANS` environment variable.
    pub verify: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { partitions: 0, scan_aggregate: true, verify: false }
    }
}

impl ExecOptions {
    /// Options with an explicit partition count and defaults elsewhere.
    pub fn with_partitions(partitions: usize) -> ExecOptions {
        ExecOptions { partitions, ..ExecOptions::default() }
    }
}

/// Auto mode keeps at least this many rows per morsel so partitioning
/// never dominates small queries.
const MIN_PARTITION_ROWS: usize = 4096;

/// One query execution's view of the catalog. Live TSDB bindings are
/// **pinned on first touch**: every scan node of one statement reads the
/// same store generation, even while ingesters advance a
/// [`explainit_tsdb::SharedTsdb`] mid-query — a self-join or UNION never
/// straddles two snapshots.
struct ExecCtx<'a> {
    catalog: &'a Catalog,
    pinned: Mutex<HashMap<String, Arc<TsdbBinding>>>,
}

impl<'a> ExecCtx<'a> {
    fn new(catalog: &'a Catalog) -> ExecCtx<'a> {
        ExecCtx { catalog, pinned: Mutex::new(&EXEC_PINNED, HashMap::new()) }
    }

    /// The pinned binding for a TSDB table (resolved once per execution).
    fn binding(&self, name: &str) -> Option<Arc<TsdbBinding>> {
        let key = name.to_lowercase();
        if let Some(b) = self.pinned.lock().get(&key) {
            return Some(b.clone());
        }
        let binding = self.catalog.tsdb_binding(name)?;
        self.pinned.lock().entry(key).or_insert(binding.clone());
        Some(binding)
    }

    /// A table by name, routing TSDB bindings through the pinned snapshot.
    fn table(&self, name: &str) -> Option<Arc<Table>> {
        if self.catalog.is_tsdb(name) {
            Some(self.binding(name)?.table())
        } else {
            self.catalog.get(name)
        }
    }
}

/// Executes a parsed query against a catalog through the
/// plan → optimize → columnar-execute pipeline with default options.
pub fn execute(catalog: &Catalog, query: &Query) -> Result<Table> {
    execute_with(catalog, query, ExecOptions::default())
}

/// [`execute`] with explicit execution options.
pub fn execute_with(catalog: &Catalog, query: &Query, opts: ExecOptions) -> Result<Table> {
    let plan = build(catalog, query)?;
    // Static analysis between planning and optimization: guaranteed-to-fail
    // statements are rejected here, with source positions, before any
    // rewrite or scan runs. Plan-building errors (unknown tables/columns,
    // scoping) keep their precedence — `build` already ran.
    crate::types::check_query(catalog, query)?;
    let plan = optimize_with(
        plan,
        catalog,
        &OptimizeOptions { scan_aggregate: opts.scan_aggregate, verify: opts.verify },
    )?;
    if query.explain {
        let text = crate::plan::render_with(&plan, Some(catalog));
        let lines: Vec<Vec<Value>> = text.lines().map(|l| vec![Value::str(l)]).collect();
        return Ok(Table::from_rows(&["plan"], lines));
    }
    run_plan(&ExecCtx::new(catalog), &plan, &opts)
}

/// Runs an (optimized) plan.
///
/// Project/Aggregate outputs may carry trailing hidden ORDER BY key
/// columns; the enclosing Sort (always directly above, by construction)
/// consumes and drops them, and the planner emits hidden keys only when a
/// Sort exists.
fn run_plan(ctx: &ExecCtx, plan: &LogicalPlan, opts: &ExecOptions) -> Result<Table> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = ctx.table(table).ok_or_else(|| QueryError::UnknownTable(table.clone()))?;
            Ok(t.as_ref().clone())
        }

        LogicalPlan::TsdbScan { table, name, tags, start, end, columns } => {
            run_tsdb_scan(ctx, table, name, tags, *start, *end, columns, opts)
        }

        LogicalPlan::ScanAggregate {
            table,
            name,
            tags,
            start,
            end,
            filters,
            group_by,
            items,
            hidden,
        } => run_scan_aggregate(
            ctx, table, name, tags, *start, *end, filters, group_by, items, hidden, opts,
        ),

        LogicalPlan::Unit => Ok(Table::unit(1)),

        LogicalPlan::Alias { input, alias } => {
            let t = run_plan(ctx, input, opts)?;
            let schema = t.schema().qualified(alias);
            Ok(t.with_schema(schema))
        }

        LogicalPlan::Filter { input, predicate } => {
            // Fully vectorizable Filter chains (the optimizer's
            // cost-ordered residuals) fuse into one selection vector over
            // the source columns, innermost first — no intermediate Table
            // or column materialization per node.
            let (filters, source) = peel_filters(plan);
            if filters.iter().all(|p| veval::supported(p)) {
                let t = run_plan(ctx, source, opts)?;
                if t.is_empty() {
                    return Ok(t);
                }
                let (schema, cols, len) = t.into_columnar_parts();
                let (cols, len) = apply_filters(&filters, &schema, cols, len)?;
                return Ok(Table::from_columnar_parts(schema, cols, len));
            }
            let t = run_plan(ctx, input, opts)?;
            if t.is_empty() {
                // Per-row semantics: an empty input never evaluates the
                // predicate (so e.g. ambiguous references cannot error),
                // matching the reference interpreter.
                return Ok(t);
            }
            if veval::supported(predicate) {
                // Supported predicate above an unsupported inner chain.
                let (schema, cols, len) = t.into_columnar_parts();
                let (cols, len) = apply_filters(&[predicate], &schema, cols, len)?;
                return Ok(Table::from_columnar_parts(schema, cols, len));
            }
            // Row fallback (window functions, CASE, scalar calls).
            let mut mask = Vec::with_capacity(t.len());
            for row in t.rows() {
                mask.push(eval_row(predicate, t.schema(), row)?.is_true());
            }
            let kept = mask.iter().filter(|&&m| m).count();
            let (schema, cols, _) = t.into_columnar_parts();
            let filtered: Vec<Column> = cols.iter().map(|c| c.filter(&mask)).collect();
            Ok(Table::from_columnar_parts(schema, filtered, kept))
        }

        LogicalPlan::Project { input, items, hidden } => {
            let t = run_plan(ctx, input, opts)?;
            run_project(&t, items, hidden)
        }

        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let t = run_plan(ctx, input, opts)?;
            run_aggregate(&t, group_by, items, hidden)
        }

        LogicalPlan::Join { left, right, kind, on, stats } => {
            let l = run_plan(ctx, left, opts)?;
            let r = run_plan(ctx, right, opts)?;
            run_join(l, r, *kind, on, stats.is_some_and(|s| s.build_left))
        }

        LogicalPlan::Sort { input, keys, output_width } => {
            let t = run_plan(ctx, input, opts)?;
            // Materialize key values once: Column::get clones (allocating
            // for strings), which must not happen per comparison.
            let key_vals: Vec<(Vec<Value>, bool)> = keys
                .iter()
                .map(|&(k, asc)| {
                    let col = t.column_at(k);
                    ((0..t.len()).map(|i| col.get(i)).collect(), asc)
                })
                .collect();
            let mut order: Vec<usize> = (0..t.len()).collect();
            order.sort_by(|&a, &b| {
                for (vals, asc) in &key_vals {
                    let cmp = vals[a].order_cmp(&vals[b]);
                    let cmp = if *asc { cmp } else { cmp.reverse() };
                    if cmp != std::cmp::Ordering::Equal {
                        return cmp;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let (schema, cols, _) = t.into_columnar_parts();
            let visible_names = schema.columns()[..*output_width].to_vec();
            let visible_cols: Vec<Column> =
                cols[..*output_width].iter().map(|c| c.gather(&order)).collect();
            Ok(Table::from_columnar_parts(Schema::new(visible_names), visible_cols, order.len()))
        }

        LogicalPlan::Limit { input, n } => {
            let t = run_plan(ctx, input, opts)?;
            Ok(t.truncated(*n))
        }

        LogicalPlan::Union { inputs } => {
            // Column-name compatibility is deliberately *not* enforced:
            // standard SQL lets branches carry different names (the seed
            // contract unions `v` with `w`), so the first branch names the
            // output and later branches match by position. Arity mismatch
            // errors name both schemas; Int/Float mixes coerce to Float.
            let mut parts = inputs.iter();
            let first = run_plan(ctx, parts.next().expect("union has inputs"), opts)?; // invariant: the planner and verifier keep Union non-empty
            let (schema, mut cols, mut len) = first.into_columnar_parts();
            for p in parts {
                let part = run_plan(ctx, p, opts)?;
                if part.schema().len() != schema.len() {
                    return Err(QueryError::Plan(format!(
                        "UNION arity mismatch: [{}] has {} columns, [{}] has {}",
                        schema.columns().join(", "),
                        schema.len(),
                        part.schema().columns().join(", "),
                        part.schema().len(),
                    )));
                }
                len += part.len();
                let (_, pcols, _) = part.into_columnar_parts();
                for (acc, pc) in cols.iter_mut().zip(pcols) {
                    acc.append_coercing(pc);
                }
            }
            Ok(Table::from_columnar_parts(schema, cols, len))
        }
    }
}

// ---------------------------------------------------------------------------
// TSDB scan
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn run_tsdb_scan(
    ctx: &ExecCtx,
    table: &str,
    name: &Option<String>,
    tags: &[explainit_tsdb::TagFilter],
    start: Option<i64>,
    end: Option<i64>,
    columns: &Option<Vec<usize>>,
    opts: &ExecOptions,
) -> Result<Table> {
    let binding = ctx.binding(table).ok_or_else(|| QueryError::UnknownTable(table.to_string()))?;
    let db = binding.db();
    // Per-snapshot dictionaries, built once: metric_name and tag columns are
    // emitted as code vectors over shared Arc dictionaries instead of
    // cloning a String / tag map per row.
    let dicts = binding.dicts();
    let wanted: Vec<usize> = match columns {
        Some(c) => c.clone(),
        None => (0..TSDB_COLUMNS.len()).collect(),
    };
    let schema = Schema::new(wanted.iter().map(|&i| TSDB_COLUMNS[i].to_string()).collect());

    // Inclusive plan bounds map straight onto the store's inclusive scan
    // range — no half-open conversion, so `timestamp == i64::MAX` points
    // survive an unbounded (or saturated) upper bound.
    let lo = start.unwrap_or(i64::MIN);
    let hi = end.unwrap_or(i64::MAX);
    if lo > hi {
        let empty: Vec<Column> = wanted
            .iter()
            .map(|&i| match i {
                0 => Column::Int(Vec::new()),
                1 => Column::dict(dicts.names.clone(), Vec::new()),
                3 => Column::Float(Vec::new()),
                _ => Column::dict(dicts.tags.clone(), Vec::new()),
            })
            .collect();
        return Ok(Table::from_columnar_parts(schema, empty, 0));
    }

    let filter = MetricFilter { name: name.clone(), tags: tags.to_vec() };
    // Canonical-key (rank) order: the tiebreak order of the observation
    // view — rows sort by timestamp with ties in canonical key order.
    let hits = db.scan_parts_ordered_between(&filter, lo, hi);

    let total: usize = hits.iter().map(|p| p.timestamps.len()).sum();
    // Side vectors over the concatenation, each built only when something
    // reads it: the timestamp concat feeds the timestamp output column; the
    // hit map feeds the dictionary columns.
    let ts_concat: Option<Vec<i64>> = wanted.contains(&0).then(|| {
        let mut v = Vec::with_capacity(total);
        for part in &hits {
            v.extend_from_slice(part.timestamps);
        }
        v
    });
    let hit_of: Option<Vec<u32>> = (wanted.contains(&1) || wanted.contains(&2)).then(|| {
        let mut v = Vec::with_capacity(total);
        for (h, part) in hits.iter().enumerate() {
            v.extend(std::iter::repeat_n(h as u32, part.timestamps.len()));
        }
        v
    });
    // Row order over the concatenation: each series' slice is already
    // timestamp-sorted, so a k-way merge keyed on `(timestamp, rank)` yields
    // the observation view's order in O(N log K). Big cascade levels use
    // the explicit partition count as their worker budget, or every core
    // in auto mode (`partitions: 1` forces the serial cascade — output is
    // identical either way).
    let workers = match opts.partitions {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        p => p,
    };
    let order = merge_gather_order(&hits, total, workers);

    // Decode per-hit dictionary codes and concatenate values once; the
    // gather below then reads pure native vectors.
    let name_code_of_hit: Option<Vec<u32>> =
        wanted.contains(&1).then(|| hits.iter().map(|p| dicts.name_code[p.id.index()]).collect());
    let tag_code_of_hit: Option<Vec<u32>> =
        wanted.contains(&2).then(|| hits.iter().map(|p| dicts.tag_code[p.id.index()]).collect());
    let vals_concat: Option<Vec<f64>> = wanted.contains(&3).then(|| {
        let mut v = Vec::with_capacity(total);
        for part in &hits {
            v.extend_from_slice(part.values);
        }
        v
    });

    // Materializes the output columns for one contiguous slice of the
    // row order — the unit of the parallel gather.
    let build_cols = |idx: &[u32]| -> Vec<Column> {
        wanted
            .iter()
            .map(|&c| match c {
                0 => {
                    let ts = ts_concat.as_ref().expect("concatenated for wanted column"); // invariant: populated above for every wanted column
                    Column::Int(idx.iter().map(|&i| ts[i as usize]).collect())
                }
                1 => {
                    let codes = name_code_of_hit.as_ref().expect("decoded for wanted column"); // invariant: populated above for every wanted column
                    let hit = hit_of.as_ref().expect("mapped for wanted column"); // invariant: populated above for every wanted column
                    Column::dict(
                        dicts.names.clone(),
                        idx.iter().map(|&i| codes[hit[i as usize] as usize]).collect(),
                    )
                }
                2 => {
                    let codes = tag_code_of_hit.as_ref().expect("decoded for wanted column"); // invariant: populated above for every wanted column
                    let hit = hit_of.as_ref().expect("mapped for wanted column"); // invariant: populated above for every wanted column
                    Column::dict(
                        dicts.tags.clone(),
                        idx.iter().map(|&i| codes[hit[i as usize] as usize]).collect(),
                    )
                }
                _ => {
                    let vals = vals_concat.as_ref().expect("concatenated for wanted column"); // invariant: populated above for every wanted column
                    Column::Float(idx.iter().map(|&i| vals[i as usize]).collect())
                }
            })
            .collect()
    };

    // Per-row column materialization runs morsel-parallel on the worker
    // pool; chunks concatenate in order, so the output is identical to the
    // single-threaded gather.
    let ranges = morsel_ranges(total, effective_partitions(opts, total));
    let out_cols: Vec<Column> = if ranges.len() <= 1 {
        build_cols(&order)
    } else {
        let parts = run_partitioned(ranges.len(), |m| {
            let (a, b) = ranges[m];
            Ok(build_cols(&order[a..b]))
        })?;
        let mut parts = parts.into_iter();
        let mut acc = parts.next().expect("at least one morsel"); // invariant: partitioning always yields at least one morsel
        for part in parts {
            for (dst, src) in acc.iter_mut().zip(part) {
                dst.append_preserving(src);
            }
        }
        acc
    };
    Ok(Table::from_columnar_parts(schema, out_cols, total))
}

/// Sort-free row ordering for the scan gather: a k-way merge over the
/// per-series sorted timestamp slices, returning indices into their
/// concatenation in `(timestamp, series rank)` order — bit-identical to a
/// global stable sort by timestamp over the rank-ordered concatenation
/// (the oracle `tests/differential.rs` checks it against), because within
/// one series timestamps are strictly increasing, making the pair a total
/// order over all rows.
///
/// Two structure fast paths make the dominant monitoring shapes O(N) with
/// no comparisons at all:
///
/// * **time-partitioned** — consecutive ranks' time windows don't overlap
///   (backfills, per-epoch series): the concatenation is already row
///   order, so the permutation is the identity;
/// * **grid-aligned** — every series carries the *same* timestamp vector
///   (one scrape interval across the fleet, the Appendix-C family shape):
///   row order is a perfect transpose, `(t, rank) → offsets[rank] + t`.
///
/// The general path is a balanced bottom-up cascade of stable two-way
/// merges — a tournament tree unrolled level by level: runs enter in rank
/// order and every merge takes the left run on timestamp ties, so each
/// intermediate run is `(timestamp, rank)`-sorted without ever storing or
/// comparing ranks. That keeps the k-way bound of N log K sequential
/// comparisons with the timestamp key carried inline, where a stable sort
/// would pay a key-extraction indirection per comparison. Within one
/// level every pair's output range is known up front (run lengths are
/// input-determined), so big levels fan the pair merges out across
/// `workers` scoped threads into disjoint slices of the double buffer —
/// the merged bytes are identical to the serial cascade by construction.
fn merge_gather_order(
    hits: &[explainit_tsdb::SeriesSlice<'_>],
    total: usize,
    workers: usize,
) -> Vec<u32> {
    // Non-empty runs in rank order: (concat offset, timestamps).
    let mut run_meta: Vec<(u32, &[i64])> = Vec::with_capacity(hits.len());
    let mut offset = 0u32;
    for part in hits {
        let n = part.timestamps.len();
        if n > 0 {
            run_meta.push((offset, part.timestamps));
        }
        offset += n as u32;
    }

    // Trivial and time-partitioned shapes: the identity permutation. A
    // boundary tie (`last == next first`) stays identity too — the stable
    // sort keeps the lower rank first, which is concatenation order.
    let partitioned = run_meta
        .windows(2)
        .all(|w| w[0].1.last().expect("non-empty run") <= w[1].1.first().expect("non-empty run")); // invariant: zero-point runs are never emitted
    if partitioned {
        let mut order: Vec<u32> = Vec::with_capacity(total);
        for &(off, ts) in &run_meta {
            order.extend(off..off + ts.len() as u32);
        }
        return order;
    }

    // Grid-aligned fleets: every run shares one timestamp vector, so row
    // order is the transpose (all ranks at ts[0], then all at ts[1], ...).
    // The check early-exits on the first differing slice.
    let grid = run_meta[0].1;
    if run_meta.iter().all(|&(_, ts)| std::ptr::eq(ts, grid) || ts == grid) {
        let mut order: Vec<u32> = Vec::with_capacity(total);
        for t in 0..grid.len() as u32 {
            order.extend(run_meta.iter().map(|&(off, _)| off + t));
        }
        return order;
    }

    // General shape: cascade of stable two-way merges over (ts, index)
    // pairs; `<=` keeps the left (lower-rank) run first on equal
    // timestamps, so rank never needs storing.
    let mut cur: Vec<(i64, u32)> = Vec::with_capacity(total);
    let mut runs: Vec<(usize, usize)> = Vec::with_capacity(run_meta.len());
    for &(off, ts) in &run_meta {
        let start = cur.len();
        cur.extend(ts.iter().enumerate().map(|(i, &t)| (t, off + i as u32)));
        runs.push((start, cur.len()));
    }
    let mut buf: Vec<(i64, u32)> = vec![(0, 0); cur.len()];
    while runs.len() > 1 {
        // Every pair's output range follows from the input run lengths
        // alone, so the level's merges are independent writes into
        // disjoint, contiguous slices of `buf`.
        let mut next_runs: Vec<(usize, usize)> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut start = 0usize;
        for pair in runs.chunks(2) {
            let len: usize = pair.iter().map(|&(a, b)| b - a).sum();
            next_runs.push((start, start + len));
            start += len;
        }
        let pairs: Vec<MergeJob<'_>> = runs.chunks(2).zip(next_runs.iter().copied()).collect();
        let nworkers = workers.min(pairs.len());
        if nworkers > 1 && cur.len() >= PARALLEL_MERGE_MIN_ROWS {
            // One contiguous batch of pairs per worker; batch output
            // regions tile `buf` in order, so `split_at_mut` hands each
            // thread exactly its region.
            let batches = morsel_ranges(pairs.len(), nworkers);
            let mut slices: Vec<&mut [(i64, u32)]> = Vec::with_capacity(batches.len());
            let mut rest: &mut [(i64, u32)] = &mut buf;
            let mut consumed = 0usize;
            for &(_, b) in &batches {
                let end = pairs[b - 1].1 .1;
                let (head, tail) = rest.split_at_mut(end - consumed);
                slices.push(head);
                rest = tail;
                consumed = end;
            }
            let (cur_ref, pairs_ref) = (&cur, &pairs);
            std::thread::scope(|scope| {
                for (&(a, b), out) in batches.iter().zip(slices) {
                    let base = pairs_ref[a].1 .0;
                    scope.spawn(move || {
                        for &(pair, (o_start, o_end)) in &pairs_ref[a..b] {
                            merge_pair(cur_ref, pair, &mut out[o_start - base..o_end - base]);
                        }
                    });
                }
            });
        } else {
            for &(pair, (o_start, o_end)) in &pairs {
                merge_pair(&cur, pair, &mut buf[o_start..o_end]);
            }
        }
        std::mem::swap(&mut cur, &mut buf);
        runs = next_runs;
    }
    cur.into_iter().map(|(_, i)| i).collect()
}

/// Below this row count a cascade level merges serially: scoped-thread
/// spawn overhead would dominate the merge itself.
const PARALLEL_MERGE_MIN_ROWS: usize = 1 << 16;

/// One cascade merge job: the one or two input runs (as `(start, end)`
/// ranges into the level's source buffer) plus the output range they
/// tile in the destination buffer.
type MergeJob<'a> = (&'a [(usize, usize)], (usize, usize));

/// Stable two-way merge of one cascade pair (or copy-through of an odd
/// trailing run) into its preassigned output slice. `<=` keeps the left
/// (lower-rank) run first on equal timestamps.
fn merge_pair(cur: &[(i64, u32)], pair: &[(usize, usize)], out: &mut [(i64, u32)]) {
    match *pair {
        [(la, lb), (ra, rb)] => {
            let (mut l, mut r, mut o) = (la, ra, 0usize);
            while l < lb && r < rb {
                if cur[l].0 <= cur[r].0 {
                    out[o] = cur[l];
                    l += 1;
                } else {
                    out[o] = cur[r];
                    r += 1;
                }
                o += 1;
            }
            out[o..o + (lb - l)].copy_from_slice(&cur[l..lb]);
            let o = o + (lb - l);
            out[o..o + (rb - r)].copy_from_slice(&cur[r..rb]);
        }
        [(la, lb)] => out.copy_from_slice(&cur[la..lb]),
        _ => unreachable!("chunks(2) yields 1..=2 runs"),
    }
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

fn project_names(items: &[(Expr, String)], hidden_count: usize) -> Schema {
    let mut names: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
    for i in 0..hidden_count {
        names.push(format!("__ord{i}"));
    }
    Schema::new(names)
}

fn run_project(t: &Table, items: &[(Expr, String)], hidden: &[Expr]) -> Result<Table> {
    let len = t.len();
    if len == 0 {
        // Per-row semantics: nothing is evaluated over an empty input.
        let cols = vec![Column::empty(); items.len() + hidden.len()];
        return Ok(Table::from_columnar_parts(project_names(items, hidden.len()), cols, 0));
    }
    let exprs: Vec<&Expr> = items.iter().map(|(e, _)| e).chain(hidden.iter()).collect();
    let mut out_cols: Vec<Column> = Vec::with_capacity(exprs.len());
    for e in exprs {
        let col = if veval::supported(e) {
            veval::eval(e, t.schema(), t.columns(), len)?.into_column(len)
        } else {
            // Row fallback: window functions see the full input rows.
            let rows = t.rows();
            let mut vals = Vec::with_capacity(len);
            for idx in 0..len {
                vals.push(eval_with_rows(e, t.schema(), rows, idx)?);
            }
            Column::from_values(vals)
        };
        out_cols.push(col);
    }
    Ok(Table::from_columnar_parts(project_names(items, hidden.len()), out_cols, len))
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// A single aggregate argument viewed as a typed minicolumn: a raw
/// `f64`/`i64` slice plus an optional validity bitmap, ready for the
/// [`AggAcc::fold_f64s`]/[`AggAcc::fold_i64s`] kernels. `Float`/`Int`
/// columns borrow in place; homogeneous `Values` columns (numeric with
/// NULL runs) extract once per operator.
enum FastArg<'a> {
    F64(std::borrow::Cow<'a, [f64]>, Option<Vec<u64>>),
    I64(std::borrow::Cow<'a, [i64]>, Option<Vec<u64>>),
}

fn fast_arg(col: &Column) -> Option<FastArg<'_>> {
    use std::borrow::Cow;
    match col {
        Column::Float(vs) => Some(FastArg::F64(Cow::Borrowed(vs), None)),
        Column::Int(vs) => Some(FastArg::I64(Cow::Borrowed(vs), None)),
        Column::Values(vs) => match crate::kernel::mini_from_values(vs)? {
            crate::kernel::Mini::F64(v, validity) => Some(FastArg::F64(Cow::Owned(v), validity)),
            crate::kernel::Mini::I64(v, validity) => Some(FastArg::I64(Cow::Owned(v), validity)),
        },
        _ => None,
    }
}

fn run_aggregate(
    t: &Table,
    group_by: &[Expr],
    items: &[(Expr, String)],
    hidden: &[Expr],
) -> Result<Table> {
    let len = t.len();
    if len == 0 {
        // Per-row semantics: no rows, no groups, no expression evaluation.
        let cols = vec![Column::empty(); items.len() + hidden.len()];
        return Ok(Table::from_columnar_parts(project_names(items, hidden.len()), cols, 0));
    }

    // Group keys, vectorized where possible.
    let mut key_cols: Vec<Column> = Vec::with_capacity(group_by.len());
    for g in group_by {
        let col = if veval::supported(g) {
            veval::eval(g, t.schema(), t.columns(), len)?.into_column(len)
        } else {
            let rows = t.rows();
            let mut vals = Vec::with_capacity(len);
            for row in rows {
                vals.push(eval_row(g, t.schema(), row)?);
            }
            Column::from_values(vals)
        };
        key_cols.push(col);
    }

    // Bucket row indices by key, preserving first-seen order. When every
    // key column is dictionary-encoded, rows group directly on dictionary
    // codes (no key-string rendering at all — the scan's `metric_name` /
    // `tag` / `tag['k']` keys all hit this path); otherwise rows bucket by
    // rendered key strings, which both slower engines share.
    let row_groups: Vec<Vec<usize>> = if group_by.is_empty() {
        // One global group over all rows (len > 0 was checked above).
        vec![(0..len).collect()]
    } else if let Some(groups) = veval::dict_group_rows(&key_cols, len) {
        groups
    } else {
        let keys = veval::group_key_strings(&key_cols, len);
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (row, key) in keys.into_iter().enumerate() {
            match index.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push(vec![row]);
                }
                std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(row),
            }
        }
        groups
    };

    let exprs: Vec<&Expr> = items.iter().map(|(e, _)| e).chain(hidden.iter()).collect();
    let mut out_cols: Vec<Column> = Vec::with_capacity(exprs.len());
    // Lazily materialized row shim for the general fallback.
    let mut fallback_rows: Option<&[Vec<Value>]> = None;

    for e in exprs {
        // Fast path (a): the expression IS one of the group keys.
        if let Some(k) = group_by.iter().position(|g| g == e) {
            let vals: Vec<Value> = row_groups.iter().map(|rows| key_cols[k].get(rows[0])).collect();
            out_cols.push(Column::from_values(vals));
            continue;
        }
        // Fast path (b): a plain aggregate call over vectorizable args —
        // feed the group's rows straight into a mergeable accumulator, no
        // per-group row-replay materialization.
        if let Expr::Function { name, args } = e {
            if is_aggregate(name) && args.iter().all(veval::supported) {
                let arg_cols: Vec<Column> = args
                    .iter()
                    .map(|a| {
                        veval::eval(a, t.schema(), t.columns(), len).map(|v| v.into_column(len))
                    })
                    .collect::<Result<_>>()?;
                // Typed fold: a single Float/Int-shaped argument folds each
                // group straight over its (slice, row-selection, validity)
                // triple — no per-row `Value` boxing (push-equivalent, and
                // single-argument pushes cannot error).
                if let [arg] = arg_cols.as_slice() {
                    if let Some(fast) = fast_arg(arg) {
                        let mut vals = Vec::with_capacity(row_groups.len());
                        for rows in &row_groups {
                            let mut acc = AggAcc::new(name).ok_or_else(|| {
                                QueryError::BadFunction(format!("unknown aggregate {name}"))
                            })?;
                            match &fast {
                                FastArg::F64(vs, validity) => {
                                    acc.fold_f64s(vs, rows.iter().copied(), validity.as_deref())
                                }
                                FastArg::I64(vs, validity) => {
                                    acc.fold_i64s(vs, rows.iter().copied(), validity.as_deref())
                                }
                            }
                            vals.push(acc.finish()?);
                        }
                        out_cols.push(Column::from_values(vals));
                        continue;
                    }
                }
                let mut vals = Vec::with_capacity(row_groups.len());
                let mut scratch: Vec<Value> = Vec::with_capacity(arg_cols.len());
                for rows in &row_groups {
                    let mut acc = AggAcc::new(name).ok_or_else(|| {
                        QueryError::BadFunction(format!("unknown aggregate {name}"))
                    })?;
                    for &r in rows {
                        scratch.clear();
                        scratch.extend(arg_cols.iter().map(|c| c.get(r)));
                        acc.push(&scratch)?;
                    }
                    vals.push(acc.finish()?);
                }
                out_cols.push(Column::from_values(vals));
                continue;
            }
        }
        // General fallback: evaluate over the group's rows.
        let rows = match fallback_rows {
            Some(r) => r,
            None => {
                fallback_rows = Some(t.rows());
                fallback_rows.expect("just set") // invariant: assigned on the previous line
            }
        };
        let mut vals = Vec::with_capacity(row_groups.len());
        for group_rows in &row_groups {
            let group: Vec<&Vec<Value>> = group_rows.iter().map(|&r| &rows[r]).collect();
            vals.push(eval_group(e, t.schema(), &group)?);
        }
        out_cols.push(Column::from_values(vals));
    }

    Ok(Table::from_columnar_parts(project_names(items, hidden.len()), out_cols, row_groups.len()))
}

// ---------------------------------------------------------------------------
// Filters and morsels
// ---------------------------------------------------------------------------

/// Splits a Filter chain off a plan: returns the predicates (outermost
/// first) and the underlying source node.
fn peel_filters(mut plan: &LogicalPlan) -> (Vec<&Expr>, &LogicalPlan) {
    let mut filters = Vec::new();
    loop {
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                filters.push(predicate);
                plan = input;
            }
            other => return (filters, other),
        }
    }
}

/// Applies a peeled filter chain (innermost first) to a table's columns: one
/// selection vector flows through every predicate (each refined in place by
/// the typed kernels) and the surviving rows gather **once** at the end —
/// no intermediate column materialization per predicate.
fn apply_filters(
    filters: &[&Expr],
    schema: &Schema,
    cols: Vec<Column>,
    len: usize,
) -> Result<(Vec<Column>, usize)> {
    let mut sel: Vec<u32> = (0..len as u32).collect();
    for pred in filters.iter().rev() {
        if sel.is_empty() {
            break; // per-row semantics: empty inputs never evaluate
        }
        veval::refine(pred, schema, &cols, &mut sel)?;
    }
    if sel.len() == len {
        return Ok((cols, len)); // nothing dropped: reuse the columns as-is
    }
    let gathered: Vec<Column> = cols.iter().map(|c| c.gather_u32(&sel)).collect();
    Ok((gathered, sel.len()))
}

/// Resolves the morsel count for `len` rows under the options.
fn effective_partitions(opts: &ExecOptions, len: usize) -> usize {
    let requested = if opts.partitions == 0 {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        cores.min(len.div_ceil(MIN_PARTITION_ROWS).max(1))
    } else {
        opts.partitions
    };
    requested.clamp(1, len.max(1))
}

/// Contiguous `[start, end)` morsel ranges covering `len` rows.
fn morsel_ranges(len: usize, partitions: usize) -> Vec<(usize, usize)> {
    let chunk = len.div_ceil(partitions.max(1)).max(1);
    (0..partitions)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(len)))
        .filter(|(a, b)| a < b)
        .collect()
}

/// Point-balanced morsels over a rank-ordered series list: cuts the
/// concatenated point sequence (series-major, `counts[i]` points each)
/// into contiguous equal-point ranges and maps every range back to
/// `(series index, point_lo, point_hi)` spans. A span may cover part of a
/// series — that is the point: one hot series holding most of the store
/// gets *split across* morsels instead of serializing the scan-aggregate
/// pipeline behind a single worker. Each morsel's spans are ascending in
/// `(series, point)` order and morsels tile the sequence exactly, so a
/// merge that folds partials in morsel order replays every series' points
/// in their original order.
fn point_balanced_spans(counts: &[usize], partitions: usize) -> Vec<Vec<(usize, usize, usize)>> {
    let total: usize = counts.iter().sum();
    let ranges = morsel_ranges(total, partitions);
    let mut out = Vec::with_capacity(ranges.len());
    // Cursor over the series list; ranges are contiguous and ascending, so
    // one forward walk suffices.
    let mut series = 0usize;
    let mut base = 0usize; // global offset of `series`' first point
    for (ga, gb) in ranges {
        while series < counts.len() && base + counts[series] <= ga {
            base += counts[series];
            series += 1;
        }
        let (mut s, mut b) = (series, base);
        let mut spans = Vec::new();
        while s < counts.len() && b < gb {
            let lo = ga.max(b) - b;
            let hi = (gb - b).min(counts[s]);
            if lo < hi {
                spans.push((s, lo, hi));
            }
            b += counts[s];
            s += 1;
        }
        out.push(spans);
    }
    out
}

/// Runs `f(morsel_index)` for every morsel on a scoped worker pool (the
/// `explainit-core` ranking idiom: shared atomic cursor, scoped threads)
/// and returns results in morsel order. Errors surface deterministically:
/// the lowest-indexed morsel's error wins.
fn run_partitioned<T: Send>(
    morsels: usize,
    f: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(morsels);
    if morsels <= 1 || workers <= 1 {
        return (0..morsels).map(&f).collect();
    }
    let results: Mutex<Vec<(usize, Result<T>)>> =
        Mutex::new(&EXEC_RESULTS, Vec::with_capacity(morsels));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= morsels {
                    break;
                }
                let r = f(i);
                results.lock().push((i, r));
            });
        }
    });
    let mut collected = results.into_inner();
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------------
// Scan-level aggregation
// ---------------------------------------------------------------------------
//
// The `ScanAggregate` operator runs the paper's hottest query shape — the
// stage-one `GROUP BY timestamp` family query — without materializing a
// single observation row. Each series' sorted point vectors come straight
// from `Tsdb::scan_parts_ordered`; a morsel of series is pre-aggregated by
// one worker into mergeable `AggAcc` states keyed by `(series tuple,
// timestamp)` composite keys (integer hashing, no per-row key-string
// rendering); and partials merge in deterministic morsel order. The
// result is value-identical to the serial pipeline: accumulators are
// order-independent by construction (error-free sums, gathered
// percentiles, totally-ordered MIN/MAX inputs — the optimizer's
// eligibility analysis guarantees the last), and the serial first-seen
// group order is reconstructed from each group's earliest `(timestamp,
// series rank)` contribution.

/// How one aggregate argument (or group key) is produced, classified once
/// per operator against the observation schema.
enum ArgSrc<'p> {
    /// The raw `value` column: read the point's f64 directly.
    Val,
    /// The raw `timestamp` column: read the point's i64 directly.
    Ts,
    /// A literal, constant for the whole query (e.g. COUNT(*)'s `1`).
    Const(Value),
    /// References only the per-series-constant columns
    /// (`metric_name`/`tag`): evaluated once per series.
    Class(&'p Expr),
    /// General expression: substituted per series, vectorized per point.
    Point(&'p Expr),
}

/// One aggregate argument prepared for a specific series.
enum PreparedArg {
    Val,
    Ts,
    Const(Value),
    /// Evaluated column over the series' *kept* points (index = position
    /// in the kept list, not the raw point index).
    Col(Column),
}

/// How a spec's arguments feed its accumulator for one series span.
/// Single-column and all-constant shapes skip the per-point `Vec<Value>`
/// scratch entirely (`AggAcc::push_f64`/`push_i64` are push-equivalent).
enum SpecPush {
    /// `AGG(value)`: push the raw f64 point.
    Val,
    /// `AGG(timestamp)`: push the raw i64 timestamp.
    Ts,
    /// Every argument is per-series constant: one pre-built arg row.
    Consts(Vec<Value>),
    /// General shape: build the arg row per point.
    General,
}

/// What a group-key slot outputs.
enum KeyKind {
    /// The timestamp key: output the group's (first-seen) timestamp.
    Ts,
    /// Index into the per-series class-key value list.
    Class(usize),
}

/// How one output expression of a scan aggregate is produced.
enum AggSlot {
    /// Index into the GROUP BY key list.
    Key(usize),
    /// Index into the aggregate-spec list.
    Agg(usize),
}

/// One group's partial state within a scan-aggregate morsel.
struct SaGroup {
    /// Morsel-local series-tuple id (resolved to its fragment at hand-off).
    tuple: u32,
    /// Group timestamp bits (`(ts as f64).to_bits()`; 0 when the group is
    /// not keyed by timestamp). Part of the merge identity.
    ts_bits: u64,
    /// The earliest `(timestamp, series rank)` contribution — the serial
    /// engine's first-seen position of this group.
    order: (i64, u32),
    /// The group's timestamp value as of `order` (output for Ts key slots;
    /// `group_key` folds i64 timestamps through f64, so distinct i64 values
    /// can share a group — the serially-first one names it).
    ts_val: i64,
    /// Class-key values as of `order`.
    class_vals: Vec<Value>,
    /// One accumulator per aggregate spec.
    accs: Vec<AggAcc>,
}

/// Replaces references to the per-series-constant observation columns
/// (`metric_name`, `tag`) with literals from the series key, leaving
/// `timestamp`/`value` references (and unresolvable names) untouched.
fn substitute_series_consts(e: &Expr, schema: &Schema, key: &SeriesKey) -> Expr {
    map_columns(e.clone(), &|name| match schema.resolve(&name) {
        Ok(1) => Expr::Literal(Value::Str(key.name.clone())),
        Ok(2) => Expr::Literal(Value::Map(key.tags.clone())),
        _ => Expr::Column(name),
    })
}

fn classify_arg<'p>(a: &'p Expr, schema: &Schema) -> ArgSrc<'p> {
    if let Expr::Literal(v) = a {
        return ArgSrc::Const(v.clone());
    }
    if let Expr::Column(c) = a {
        match schema.resolve(c) {
            Ok(0) => return ArgSrc::Ts,
            Ok(3) => return ArgSrc::Val,
            _ => {}
        }
    }
    let mut cols = Vec::new();
    crate::optimize::collect_columns(a, &mut cols);
    if cols.iter().all(|c| schema.resolve(c).is_ok_and(|i| i == 1 || i == 2)) {
        ArgSrc::Class(a)
    } else {
        ArgSrc::Point(a)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_scan_aggregate(
    ctx: &ExecCtx,
    table: &str,
    name: &Option<String>,
    tags: &[explainit_tsdb::TagFilter],
    start: Option<i64>,
    end: Option<i64>,
    filters: &[Expr],
    group_by: &[Expr],
    items: &[(Expr, String)],
    hidden: &[Expr],
    opts: &ExecOptions,
) -> Result<Table> {
    let binding = ctx.binding(table).ok_or_else(|| QueryError::UnknownTable(table.to_string()))?;
    let db = binding.db();
    let out_schema = project_names(items, hidden.len());
    let width = items.len() + hidden.len();
    let empty = |out_schema: Schema| {
        Table::from_columnar_parts(out_schema, vec![Column::empty(); width], 0)
    };

    // Inclusive plan bounds map straight onto the store's inclusive scan
    // range (points at `timestamp == i64::MAX` stay reachable).
    let lo = start.unwrap_or(i64::MIN);
    let hi = end.unwrap_or(i64::MAX);
    if lo > hi {
        return Ok(empty(out_schema));
    }

    let obs = Schema::new(TSDB_COLUMNS.iter().map(|s| s.to_string()).collect());
    let mini_schema = Schema::new(vec!["timestamp".to_string(), "value".to_string()]);
    let empty_schema = Schema::default();

    // Decompose group keys: the timestamp key (at most one, by
    // eligibility) and per-series "class" keys over the dict columns.
    let mut key_kinds: Vec<KeyKind> = Vec::with_capacity(group_by.len());
    let mut class_keys: Vec<&Expr> = Vec::new();
    for g in group_by {
        let is_ts = matches!(g, Expr::Column(c) if obs.resolve(c).is_ok_and(|i| i == 0));
        if is_ts {
            key_kinds.push(KeyKind::Ts);
        } else {
            key_kinds.push(KeyKind::Class(class_keys.len()));
            class_keys.push(g);
        }
    }
    let has_ts_key = key_kinds.iter().any(|k| matches!(k, KeyKind::Ts));

    // Decompose outputs into key references and aggregate specs.
    let mut slots: Vec<AggSlot> = Vec::with_capacity(width);
    let mut specs: Vec<(&str, Vec<ArgSrc>)> = Vec::new();
    for e in items.iter().map(|(e, _)| e).chain(hidden.iter()) {
        if let Some(k) = group_by.iter().position(|g| g == e) {
            slots.push(AggSlot::Key(k));
        } else if let Expr::Function { name, args } = e {
            debug_assert!(is_aggregate(name));
            slots.push(AggSlot::Agg(specs.len()));
            specs.push((name.as_str(), args.iter().map(|a| classify_arg(a, &obs)).collect()));
        } else {
            return Err(QueryError::Plan(
                "scan aggregate with non-mergeable output (optimizer bug)".into(),
            ));
        }
    }
    let new_accs = |specs: &[(&str, Vec<ArgSrc>)]| -> Result<Vec<AggAcc>> {
        specs
            .iter()
            .map(|(name, _)| {
                AggAcc::new(name)
                    .ok_or_else(|| QueryError::BadFunction(format!("unknown aggregate {name}")))
            })
            .collect()
    };
    // Residual filters, innermost first (the order the serial pipeline
    // applies them in), with a flag for predicates that need the per-point
    // columns at all.
    let filter_chain: Vec<(&Expr, bool)> = filters
        .iter()
        .rev()
        .map(|p| {
            let mut cols = Vec::new();
            crate::optimize::collect_columns(p, &mut cols);
            let uses_points = cols.iter().any(|c| obs.resolve(c).is_ok_and(|i| i == 0 || i == 3));
            (p, uses_points)
        })
        .collect();
    let any_point_args =
        specs.iter().any(|(_, args)| args.iter().any(|a| matches!(a, ArgSrc::Point(_))));

    let filter = MetricFilter { name: name.clone(), tags: tags.to_vec() };
    let hits = db.scan_parts_ordered_between(&filter, lo, hi);
    if hits.is_empty() {
        return Ok(empty(out_schema));
    }

    // Morsels cut the rank-ordered *point* sequence — not the series list —
    // into contiguous equal-point spans, splitting a series across workers
    // when it dominates the store (the skewed-fleet case where one hot
    // series would otherwise serialize the whole operator). Splitting is
    // sound because partials merge in morsel (= point) order, which keeps
    // every accumulator fold identical to the unsplit one. Auto mode keeps
    // at least MIN_PARTITION_ROWS points per morsel.
    let counts: Vec<usize> = hits.iter().map(|p| p.timestamps.len()).collect();
    let total_points: usize = counts.iter().sum();
    let partitions = effective_partitions(opts, total_points);
    let morsels = point_balanced_spans(&counts, partitions);

    // Phase 1: per-morsel, per-series-span pre-aggregation.
    type Partial = Vec<((String, u64), SaGroup)>;
    let partials = run_partitioned(morsels.len(), |m| -> Result<Partial> {
        let mut tuple_ids: HashMap<String, u32> = HashMap::new();
        let mut tuple_frags: Vec<String> = Vec::new();
        let mut index: HashMap<(u32, u64), usize> = HashMap::new();
        let mut groups: Vec<SaGroup> = Vec::new();
        let mut scratch: Vec<Value> = Vec::new();

        for &(h, p_lo, p_hi) in &morsels[m] {
            let part = &hits[h];
            let rank = h as u32;
            // This morsel's contiguous span of the series' sorted points
            // (the whole series unless a hot series was split).
            let span_ts = &part.timestamps[p_lo..p_hi];
            let span_vals = &part.values[p_lo..p_hi];
            let n = span_ts.len();
            if n == 0 {
                continue;
            }

            // Residual filter chain over this series' points. Class-only
            // predicates evaluate as constants (no column build);
            // kernel-refinable point predicates refine the kept-selection
            // straight off the raw point slices (no intermediate column
            // materialization); anything else falls back to gathering the
            // survivors once for the vectorized mask path.
            let mut kept: Vec<u32> = (0..n as u32).collect();
            for (pred, uses_points) in &filter_chain {
                if kept.is_empty() {
                    break;
                }
                if !*uses_points {
                    // Constant per series: one evaluation decides the span.
                    let sub = substitute_series_consts(pred, &obs, part.key);
                    let keep = match veval::eval(&sub, &mini_schema, &[], 1)? {
                        veval::VOut::Const(v) => v.is_true(),
                        veval::VOut::Col(c) => c.get(0).is_true(),
                    };
                    if !keep {
                        kept.clear();
                    }
                    continue;
                }
                if veval::span_refinable(pred, &obs) {
                    veval::refine_span(pred, &obs, span_ts, span_vals, &mut kept);
                    continue;
                }
                let sub = substitute_series_consts(pred, &obs, part.key);
                let cols = vec![
                    Column::Int(kept.iter().map(|&i| span_ts[i as usize]).collect()),
                    Column::Float(kept.iter().map(|&i| span_vals[i as usize]).collect()),
                ];
                let mask = veval::eval_mask(&sub, &mini_schema, &cols, kept.len())?;
                kept = kept
                    .iter()
                    .zip(mask.iter())
                    .filter(|(_, &keep)| keep)
                    .map(|(&i, _)| i)
                    .collect();
            }
            if kept.is_empty() {
                continue;
            }

            // Class keys: evaluated once per series, then interned into a
            // morsel-local tuple id via the rendered key fragment (once
            // per series — the per-point loop below only hashes ints).
            let mut class_vals: Vec<Value> = Vec::with_capacity(class_keys.len());
            for ck in &class_keys {
                let sub = substitute_series_consts(ck, &obs, part.key);
                class_vals.push(eval_row(&sub, &empty_schema, &[])?);
            }
            let mut frag = String::new();
            for v in &class_vals {
                frag.push_str(&v.group_key());
                frag.push('\u{1}');
            }
            let tuple = match tuple_ids.entry(frag) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    let id = tuple_frags.len() as u32;
                    tuple_frags.push(e.key().clone());
                    e.insert(id);
                    id
                }
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            };

            // Prepare this series span's aggregate arguments.
            let kept_cols = if any_point_args {
                vec![
                    Column::Int(kept.iter().map(|&i| span_ts[i as usize]).collect()),
                    Column::Float(kept.iter().map(|&i| span_vals[i as usize]).collect()),
                ]
            } else {
                Vec::new()
            };
            let prepared: Vec<Vec<PreparedArg>> = specs
                .iter()
                .map(|(_, args)| {
                    args.iter()
                        .map(|arg| {
                            Ok(match arg {
                                ArgSrc::Val => PreparedArg::Val,
                                ArgSrc::Ts => PreparedArg::Ts,
                                ArgSrc::Const(v) => PreparedArg::Const(v.clone()),
                                ArgSrc::Class(e) => {
                                    let sub = substitute_series_consts(e, &obs, part.key);
                                    PreparedArg::Const(eval_row(&sub, &empty_schema, &[])?)
                                }
                                ArgSrc::Point(e) => {
                                    let sub = substitute_series_consts(e, &obs, part.key);
                                    let col =
                                        veval::eval(&sub, &mini_schema, &kept_cols, kept.len())?
                                            .into_column(kept.len());
                                    PreparedArg::Col(col)
                                }
                            })
                        })
                        .collect::<Result<Vec<_>>>()
                })
                .collect::<Result<Vec<_>>>()?;
            let push_plans: Vec<SpecPush> = prepared
                .iter()
                .map(|pa| match pa.as_slice() {
                    [PreparedArg::Val] => SpecPush::Val,
                    [PreparedArg::Ts] => SpecPush::Ts,
                    pa if pa.iter().all(|a| matches!(a, PreparedArg::Const(_))) => {
                        SpecPush::Consts(
                            pa.iter()
                                .map(|a| match a {
                                    PreparedArg::Const(v) => v.clone(),
                                    _ => unreachable!(),
                                })
                                .collect(),
                        )
                    }
                    _ => SpecPush::General,
                })
                .collect();

            // Accumulate the kept points. With a timestamp key each point
            // lands in its `(tuple, ts)` group; otherwise the whole series
            // feeds one `(tuple,)` group.
            let slot_of = |ts: i64,
                           ts_bits: u64,
                           order: (i64, u32),
                           groups: &mut Vec<SaGroup>,
                           index: &mut HashMap<(u32, u64), usize>|
             -> Result<usize> {
                match index.entry((tuple, ts_bits)) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let slot = groups.len();
                        groups.push(SaGroup {
                            tuple,
                            ts_bits,
                            order,
                            ts_val: ts,
                            class_vals: class_vals.clone(),
                            accs: new_accs(&specs)?,
                        });
                        e.insert(slot);
                        Ok(slot)
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let slot = *e.get();
                        let g = &mut groups[slot];
                        if order < g.order {
                            g.order = order;
                            g.ts_val = ts;
                            g.class_vals = class_vals.clone();
                        }
                        Ok(slot)
                    }
                }
            };
            if has_ts_key {
                for (j, &pi) in kept.iter().enumerate() {
                    let pi = pi as usize;
                    let ts = span_ts[pi];
                    let slot =
                        slot_of(ts, (ts as f64).to_bits(), (ts, rank), &mut groups, &mut index)?;
                    let g = &mut groups[slot];
                    for ((pa, plan), acc) in
                        prepared.iter().zip(push_plans.iter()).zip(g.accs.iter_mut())
                    {
                        match plan {
                            SpecPush::Val => acc.push_f64(span_vals[pi]),
                            SpecPush::Ts => acc.push_i64(ts),
                            SpecPush::Consts(row) => acc.push(row)?,
                            SpecPush::General => {
                                scratch.clear();
                                for arg in pa {
                                    scratch.push(match arg {
                                        PreparedArg::Val => Value::Float(span_vals[pi]),
                                        PreparedArg::Ts => Value::Int(ts),
                                        PreparedArg::Const(v) => v.clone(),
                                        PreparedArg::Col(c) => c.get(j),
                                    });
                                }
                                acc.push(&scratch)?;
                            }
                        }
                    }
                }
            } else {
                // One group takes the whole span: single-column specs fold
                // the raw point slices through the kept-selection directly
                // (accumulators are independent, so folding spec-major is
                // observation-identical to the per-point push loop).
                let first_ts = span_ts[kept[0] as usize];
                let slot = slot_of(first_ts, 0, (first_ts, rank), &mut groups, &mut index)?;
                let g = &mut groups[slot];
                for ((pa, plan), acc) in
                    prepared.iter().zip(push_plans.iter()).zip(g.accs.iter_mut())
                {
                    match plan {
                        SpecPush::Val => {
                            acc.fold_f64s(span_vals, kept.iter().map(|&i| i as usize), None)
                        }
                        SpecPush::Ts => {
                            acc.fold_i64s(span_ts, kept.iter().map(|&i| i as usize), None)
                        }
                        SpecPush::Consts(row) => {
                            for _ in &kept {
                                acc.push(row)?;
                            }
                        }
                        SpecPush::General => {
                            for (j, &pi) in kept.iter().enumerate() {
                                let pi = pi as usize;
                                scratch.clear();
                                for arg in pa {
                                    scratch.push(match arg {
                                        PreparedArg::Val => Value::Float(span_vals[pi]),
                                        PreparedArg::Ts => Value::Int(span_ts[pi]),
                                        PreparedArg::Const(v) => v.clone(),
                                        PreparedArg::Col(c) => c.get(j),
                                    });
                                }
                                acc.push(&scratch)?;
                            }
                        }
                    }
                }
            }
        }
        // Hand groups off in creation order, keyed for the cross-morsel
        // merge by (class fragment, timestamp bits).
        Ok(groups
            .into_iter()
            .map(|g| ((tuple_frags[g.tuple as usize].clone(), g.ts_bits), g))
            .collect())
    })?;

    // Phase 2: merge morsel partials. Accumulator merges are exactly
    // fold-equivalent, and each group keeps its earliest (timestamp, rank)
    // contribution, which reconstructs the serial first-seen order below.
    let mut merged: HashMap<(String, u64), usize> = HashMap::new();
    let mut final_groups: Vec<SaGroup> = Vec::new();
    for partial in partials {
        for (key, gp) in partial {
            match merged.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(final_groups.len());
                    final_groups.push(gp);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let cur = &mut final_groups[*e.get()];
                    for (acc, part) in cur.accs.iter_mut().zip(gp.accs) {
                        acc.merge(part)?;
                    }
                    if gp.order < cur.order {
                        cur.order = gp.order;
                        cur.ts_val = gp.ts_val;
                        cur.class_vals = gp.class_vals;
                    }
                }
            }
        }
    }
    final_groups.sort_by_key(|g| g.order);

    // Finish accumulators and assemble output columns.
    let mut out_vals: Vec<Vec<Value>> =
        (0..width).map(|_| Vec::with_capacity(final_groups.len())).collect();
    let rows = final_groups.len();
    for g in final_groups {
        let finished: Vec<Value> = g.accs.into_iter().map(AggAcc::finish).collect::<Result<_>>()?;
        for (slot, out) in slots.iter().zip(out_vals.iter_mut()) {
            match slot {
                AggSlot::Key(k) => out.push(match key_kinds[*k] {
                    KeyKind::Ts => Value::Int(g.ts_val),
                    KeyKind::Class(j) => g.class_vals[j].clone(),
                }),
                AggSlot::Agg(i) => out.push(finished[*i].clone()),
            }
        }
    }
    let out_cols: Vec<Column> = out_vals.into_iter().map(Column::from_values).collect();
    Ok(Table::from_columnar_parts(out_schema, out_cols, rows))
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

fn join_key_at(cols: &[&Column], row: usize) -> (bool, String) {
    let mut key = String::new();
    let mut has_null = false;
    for c in cols {
        let v = c.get(row);
        if v.is_null() {
            has_null = true;
        }
        key.push_str(&v.group_key());
        key.push('\u{1}');
    }
    (has_null, key)
}

fn run_join(
    left: Table,
    right: Table,
    kind: JoinKind,
    on: &Expr,
    build_left: bool,
) -> Result<Table> {
    let mut columns = left.schema().columns().to_vec();
    columns.extend(right.schema().columns().iter().cloned());
    let combined = Schema::new(columns);

    if let Some((lk, rk)) = equi_join_keys(on, left.schema(), right.schema()) {
        // Hash join over columnar keys: build pair lists, then gather. The
        // hash index goes over whichever side the optimizer's statistics
        // picked (`build_left`; the legacy default is the right side) —
        // both branches emit exactly the same `(left row, right row)`
        // pairs in exactly the same order: all matches sorted by
        // `(left row, right row)`, LEFT/FULL null-extensions in left-row
        // position, FULL OUTER's unmatched right rows appended in right
        // order. Statistics only ever change which side pays the memory.
        let right_key_cols: Vec<&Column> = rk.iter().map(|&c| right.column_at(c)).collect();
        let left_key_cols: Vec<&Column> = lk.iter().map(|&c| left.column_at(c)).collect();

        let mut left_idx: Vec<Option<usize>> = Vec::new();
        let mut right_idx: Vec<Option<usize>> = Vec::new();
        let mut right_matched = vec![false; right.len()];
        if build_left {
            // Build on the (estimated-smaller) left side, probe with the
            // right rows, and bucket matches per left row so the emission
            // loop below can still walk in left-major order.
            let mut index: HashMap<String, Vec<usize>> = HashMap::new();
            for li in 0..left.len() {
                let (has_null, key) = join_key_at(&left_key_cols, li);
                if has_null {
                    continue; // NULL keys never match
                }
                index.entry(key).or_default().push(li);
            }
            let mut matches_of_left: Vec<Vec<u32>> = vec![Vec::new(); left.len()];
            for (ri, matched) in right_matched.iter_mut().enumerate() {
                let (has_null, key) = join_key_at(&right_key_cols, ri);
                if has_null {
                    continue;
                }
                if let Some(lis) = index.get(&key) {
                    *matched = true;
                    for &li in lis {
                        // Probed in ascending `ri`, so each left row's
                        // match list stays right-row-ordered.
                        matches_of_left[li].push(ri as u32);
                    }
                }
            }
            for (li, ris) in matches_of_left.iter().enumerate() {
                if ris.is_empty() {
                    if kind != JoinKind::Inner {
                        left_idx.push(Some(li));
                        right_idx.push(None);
                    }
                } else {
                    for &ri in ris {
                        left_idx.push(Some(li));
                        right_idx.push(Some(ri as usize));
                    }
                }
            }
        } else {
            let mut index: HashMap<String, Vec<usize>> = HashMap::new();
            for ri in 0..right.len() {
                let (has_null, key) = join_key_at(&right_key_cols, ri);
                if has_null {
                    continue; // NULL keys never match
                }
                index.entry(key).or_default().push(ri);
            }
            for li in 0..left.len() {
                let (has_null, key) = join_key_at(&left_key_cols, li);
                let matches = if has_null { None } else { index.get(&key) };
                match matches {
                    Some(ris) if !ris.is_empty() => {
                        for &ri in ris {
                            right_matched[ri] = true;
                            left_idx.push(Some(li));
                            right_idx.push(Some(ri));
                        }
                    }
                    _ => {
                        if kind != JoinKind::Inner {
                            left_idx.push(Some(li));
                            right_idx.push(None);
                        }
                    }
                }
            }
        }
        if kind == JoinKind::FullOuter {
            for (ri, matched) in right_matched.iter().enumerate() {
                if !matched {
                    left_idx.push(None);
                    right_idx.push(Some(ri));
                }
            }
        }

        let mut out: Vec<Column> = Vec::with_capacity(combined.len());
        for c in left.columns() {
            out.push(c.gather_opt(&left_idx));
        }
        for c in right.columns() {
            out.push(c.gather_opt(&right_idx));
        }
        let len = left_idx.len();
        return Ok(Table::from_columnar_parts(combined, out, len));
    }

    // General nested loop with full ON evaluation (row shim).
    let left_rows = left.rows();
    let right_rows = right.rows();
    let right_width = right.schema().len();
    let left_width = left.schema().len();
    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut right_matched = vec![false; right_rows.len()];
    for lrow in left_rows {
        let mut matched = false;
        for (ri, rrow) in right_rows.iter().enumerate() {
            let mut row = lrow.clone();
            row.extend(rrow.iter().cloned());
            if eval_row(on, &combined, &row)?.is_true() {
                matched = true;
                right_matched[ri] = true;
                out.push(row);
            }
        }
        if !matched && kind != JoinKind::Inner {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(row);
        }
    }
    if kind == JoinKind::FullOuter {
        for (ri, rrow) in right_rows.iter().enumerate() {
            if !right_matched[ri] {
                let mut row: Vec<Value> = std::iter::repeat_n(Value::Null, left_width).collect();
                row.extend(rrow.iter().cloned());
                out.push(row);
            }
        }
    }
    Ok(Table::from_parts(combined, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(
                &["ts", "host", "v"],
                vec![
                    vec![Value::Int(0), Value::str("web-1"), Value::Float(1.0)],
                    vec![Value::Int(0), Value::str("web-2"), Value::Float(3.0)],
                    vec![Value::Int(1), Value::str("web-1"), Value::Float(5.0)],
                    vec![Value::Int(1), Value::str("web-2"), Value::Float(7.0)],
                    vec![Value::Int(2), Value::str("db-1"), Value::Float(100.0)],
                ],
            ),
        );
        c.register(
            "u",
            Table::from_rows(
                &["ts", "w"],
                vec![
                    vec![Value::Int(0), Value::Float(10.0)],
                    vec![Value::Int(2), Value::Float(30.0)],
                    vec![Value::Int(9), Value::Float(90.0)],
                ],
            ),
        );
        c
    }

    fn run(sql: &str) -> Table {
        let c = catalog();
        execute(&c, &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn exec_ctx_pins_live_bindings_for_one_execution() {
        use explainit_tsdb::{SeriesKey, SharedTsdb, Tsdb};
        let mut db = Tsdb::new();
        db.insert(&SeriesKey::new("m").with_tag("host", "a"), 0, 1.0);
        let shared = SharedTsdb::new(db);
        let mut c = Catalog::new();
        c.register_tsdb_shared("tsdb", &shared);
        let ctx = ExecCtx::new(&c);
        let first = ctx.binding("tsdb").unwrap();
        // An ingest mid-execution must not change what this execution sees:
        // a self-join's second scan reads the same pinned snapshot.
        shared.insert(&SeriesKey::new("m").with_tag("host", "b"), 0, 2.0);
        let second = ctx.binding("tsdb").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "binding pinned per execution");
        // A *new* execution picks up the fresh generation.
        let fresh = ExecCtx::new(&c).binding("tsdb").unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!(fresh.db().series_count(), 2);
    }

    /// Runs with forced multi-partition execution.
    fn run_parallel(sql: &str, partitions: usize) -> Table {
        let c = catalog();
        execute_with(&c, &parse_query(sql).unwrap(), ExecOptions::with_partitions(partitions))
            .unwrap()
    }

    #[test]
    fn select_star() {
        let t = run("SELECT * FROM t");
        assert_eq!(t.len(), 5);
        assert_eq!(t.schema().columns().len(), 3);
    }

    #[test]
    fn where_filters() {
        let t = run("SELECT v FROM t WHERE host = 'web-1'");
        assert_eq!(t.len(), 2);
        let t = run("SELECT v FROM t WHERE host LIKE 'web%' AND v > 2");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn glob_operator_filters() {
        let t = run("SELECT v FROM t WHERE host GLOB 'web-*'");
        assert_eq!(t.len(), 4);
        let t = run("SELECT v FROM t WHERE host GLOB 'web-?' AND v > 2");
        assert_eq!(t.len(), 3);
        let t = run("SELECT v FROM t WHERE host NOT GLOB 'web-*'");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn group_by_avg() {
        let t = run("SELECT ts, AVG(v) AS m FROM t GROUP BY ts ORDER BY ts");
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows()[0], vec![Value::Int(0), Value::Float(2.0)]);
        assert_eq!(t.rows()[1], vec![Value::Int(1), Value::Float(6.0)]);
        assert_eq!(t.rows()[2], vec![Value::Int(2), Value::Float(100.0)]);
    }

    #[test]
    fn group_by_expression_key() {
        let t = run("SELECT SPLIT(host, '-')[0] AS grp, SUM(v) AS total FROM t \
             GROUP BY SPLIT(host, '-')[0] ORDER BY grp");
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][0], Value::str("db"));
        assert_eq!(t.rows()[0][1], Value::Float(100.0));
        assert_eq!(t.rows()[1][1], Value::Float(16.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let t = run("SELECT COUNT(*) AS n, MAX(v) AS mx FROM t");
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0], vec![Value::Int(5), Value::Float(100.0)]);
    }

    #[test]
    fn sum_keeps_int_typing_for_int_columns() {
        let t = run("SELECT SUM(ts) AS s FROM t");
        assert_eq!(t.rows()[0][0], Value::Int(4));
        let t = run("SELECT SUM(v) AS s FROM t WHERE ts = 0");
        assert_eq!(t.rows()[0][0], Value::Float(4.0));
    }

    #[test]
    fn forced_partitions_match_serial_results() {
        for parts in [1, 2, 3, 7] {
            let t = run_parallel(
                "SELECT ts, AVG(v) AS m, SUM(v) AS s, COUNT(*) AS n, MIN(host) AS h, \
                 STDDEV(v) AS sd FROM t GROUP BY ts ORDER BY ts",
                parts,
            );
            let serial =
                run("SELECT ts, AVG(v) AS m, SUM(v) AS s, COUNT(*) AS n, MIN(host) AS h, \
                 STDDEV(v) AS sd FROM t GROUP BY ts ORDER BY ts");
            assert_eq!(t.rows(), serial.rows(), "partitions={parts}");
            assert_eq!(t.schema(), serial.schema());
        }
    }

    #[test]
    fn forced_partitions_preserve_group_first_seen_order() {
        // Without ORDER BY the group order is first-seen; morsel-order
        // merging must reproduce it exactly.
        for parts in [1, 2, 3, 5] {
            let t = run_parallel("SELECT host, COUNT(*) AS n FROM t GROUP BY host", parts);
            let serial = run("SELECT host, COUNT(*) AS n FROM t GROUP BY host");
            assert_eq!(t.rows(), serial.rows(), "partitions={parts}");
        }
    }

    #[test]
    fn order_by_desc_and_limit() {
        let t = run("SELECT v FROM t ORDER BY v DESC LIMIT 2");
        assert_eq!(t.rows()[0][0], Value::Float(100.0));
        assert_eq!(t.rows()[1][0], Value::Float(7.0));
    }

    #[test]
    fn order_by_alias() {
        let t = run("SELECT v * 2 AS dv FROM t ORDER BY dv DESC LIMIT 1");
        assert_eq!(t.rows()[0][0], Value::Float(200.0));
    }

    #[test]
    fn inner_join() {
        let t = run("SELECT t.ts, v, w FROM t JOIN u ON t.ts = u.ts ORDER BY v");
        assert_eq!(t.len(), 3); // ts=0 matches twice, ts=2 once
        assert_eq!(t.rows()[2], vec![Value::Int(2), Value::Float(100.0), Value::Float(30.0)]);
    }

    #[test]
    fn left_join_null_extends() {
        let t = run("SELECT t.ts, w FROM t LEFT JOIN u ON t.ts = u.ts WHERE t.ts = 1");
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][1], Value::Null);
    }

    #[test]
    fn full_outer_join_keeps_both_sides() {
        let t = run("SELECT t.ts, u.ts FROM t FULL OUTER JOIN u ON t.ts = u.ts");
        // 3 matched (0x2, 2) + 2 unmatched-left (ts=1 x2) + 1 unmatched-right (ts=9).
        assert_eq!(t.len(), 6);
        let unmatched_right: Vec<_> = t.rows().iter().filter(|r| r[0].is_null()).collect();
        assert_eq!(unmatched_right.len(), 1);
        assert_eq!(unmatched_right[0][1], Value::Int(9));
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let t = run("SELECT t.ts, u.ts FROM t JOIN u ON t.ts < u.ts ORDER BY t.ts, u.ts");
        assert!(t.len() > 3);
        // Every pair satisfies the predicate.
        for r in t.rows() {
            let a = r[0].as_i64().unwrap();
            let b = r[1].as_i64().unwrap();
            assert!(a < b);
        }
    }

    #[test]
    fn union_all_concats() {
        let t = run("SELECT v FROM t WHERE ts = 0 UNION ALL SELECT w FROM u");
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn union_arity_mismatch_errors() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t UNION ALL SELECT ts, w FROM u").unwrap();
        assert!(matches!(execute(&c, &q), Err(QueryError::Plan(_))));
    }

    #[test]
    fn union_arity_error_names_both_schemas() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t UNION ALL SELECT ts, w FROM u").unwrap();
        let Err(QueryError::Plan(msg)) = execute(&c, &q) else { panic!("expected plan error") };
        assert!(msg.contains("[v]"), "message: {msg}");
        assert!(msg.contains("[ts, w]"), "message: {msg}");
    }

    #[test]
    fn union_coerces_int_and_float_columns() {
        let t = run("SELECT ts FROM t WHERE ts = 2 UNION ALL SELECT w FROM u WHERE ts = 0");
        assert_eq!(t.len(), 2);
        // The Int column meets a Float column: both render as floats.
        assert_eq!(t.rows()[0][0], Value::Float(2.0));
        assert_eq!(t.rows()[1][0], Value::Float(10.0));
    }

    #[test]
    fn union_keeps_first_branch_column_names() {
        let t = run("SELECT v AS reading FROM t WHERE ts = 2 UNION ALL SELECT w FROM u");
        assert_eq!(t.schema().columns(), &["reading"]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn subquery_in_from() {
        let t = run("SELECT m FROM (SELECT ts, AVG(v) AS m FROM t GROUP BY ts) s WHERE m > 3");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lag_window_function() {
        let t = run("SELECT ts, v, LAG(v, 1) AS prev FROM t WHERE host = 'web-1' ORDER BY ts");
        assert_eq!(t.rows()[0][2], Value::Null);
        assert_eq!(t.rows()[1][2], Value::Float(1.0));
    }

    #[test]
    fn constant_select_without_from() {
        let t = run("SELECT 1 + 2 AS three");
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let c = catalog();
        assert!(matches!(
            execute(&c, &parse_query("SELECT * FROM nope").unwrap()),
            Err(QueryError::UnknownTable(_))
        ));
        assert!(matches!(
            execute(&c, &parse_query("SELECT nope FROM t").unwrap()),
            Err(QueryError::UnknownColumn(_))
        ));
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        let c = catalog();
        let q = parse_query("SELECT * FROM t GROUP BY ts").unwrap();
        assert!(matches!(execute(&c, &q), Err(QueryError::Plan(_))));
    }

    #[test]
    fn percentile_aggregate_in_query() {
        let t = run("SELECT PERCENTILE(v, 0.5) AS p50 FROM t WHERE host LIKE 'web%'");
        assert_eq!(t.rows()[0][0], Value::Float(4.0));
    }

    #[test]
    fn percentile_with_non_constant_p_errors() {
        let c = catalog();
        let q = parse_query("SELECT PERCENTILE(v, ts) AS p FROM t").unwrap();
        assert!(matches!(execute(&c, &q), Err(QueryError::BadFunction(_))));
        // Same under forced parallel partitions.
        for parts in [2, 3] {
            assert!(matches!(
                execute_with(&c, &q, ExecOptions::with_partitions(parts)),
                Err(QueryError::BadFunction(_))
            ));
        }
    }

    #[test]
    fn case_in_projection() {
        let t = run("SELECT host, CASE WHEN v >= 100 THEN 'hot' ELSE 'ok' END AS status \
             FROM t ORDER BY v DESC LIMIT 1");
        assert_eq!(t.rows()[0][1], Value::str("hot"));
    }

    #[test]
    fn join_key_with_nulls_never_matches() {
        let mut c = catalog();
        c.register(
            "n",
            Table::from_rows(
                &["k", "x"],
                vec![vec![Value::Null, Value::Int(1)], vec![Value::Int(0), Value::Int(2)]],
            ),
        );
        let q = parse_query("SELECT n.x, u.w FROM n JOIN u ON n.k = u.ts").unwrap();
        let t = execute(&c, &q).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn explain_returns_one_column_plan() {
        let c = catalog();
        let q = parse_query("EXPLAIN SELECT v FROM t WHERE ts > 0 ORDER BY v LIMIT 2").unwrap();
        let t = execute(&c, &q).unwrap();
        assert_eq!(t.schema().columns(), &["plan"]);
        let text: Vec<String> = t.rows().iter().map(|r| r[0].render()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("Limit 2"), "plan:\n{joined}");
        assert!(joined.contains("Sort"), "plan:\n{joined}");
        assert!(joined.contains("Filter"), "plan:\n{joined}");
        assert!(joined.contains("Scan t"), "plan:\n{joined}");
    }

    #[test]
    fn empty_global_aggregate_returns_empty_table() {
        let t = run("SELECT COUNT(*) AS n FROM t WHERE ts > 100");
        assert_eq!(t.len(), 0);
        // Ditto under forced partitions.
        let t = run_parallel("SELECT COUNT(*) AS n FROM t WHERE ts > 100", 3);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn point_balanced_spans_tile_and_split_hot_series() {
        // One series holds ~99% of the points: series-count morsels would
        // hand almost everything to one worker; point-balanced spans cut
        // the hot series itself.
        let counts = [1000usize, 5, 5, 5];
        let morsels = point_balanced_spans(&counts, 4);
        assert_eq!(morsels.len(), 4);
        let hot_morsels =
            morsels.iter().filter(|spans| spans.iter().any(|&(s, _, _)| s == 0)).count();
        assert!(hot_morsels > 1, "hot series split across morsels: {morsels:?}");
        // Spans tile the point sequence exactly, in order, per series.
        let mut seen: Vec<Vec<(usize, usize)>> = vec![Vec::new(); counts.len()];
        for spans in &morsels {
            for &(s, lo, hi) in spans {
                assert!(lo < hi);
                seen[s].push((lo, hi));
            }
        }
        for (s, ranges) in seen.iter().enumerate() {
            let mut expect = 0;
            for &(lo, hi) in ranges {
                assert_eq!(lo, expect, "series {s} contiguous");
                expect = hi;
            }
            assert_eq!(expect, counts[s], "series {s} fully covered");
        }
        // Degenerate shapes: empty series, one partition, more partitions
        // than points.
        assert_eq!(point_balanced_spans(&[0, 3, 0], 1), vec![vec![(1, 0, 3)]]);
        let tiny = point_balanced_spans(&[1, 1], 8);
        assert_eq!(tiny.iter().flatten().count(), 2);
    }

    fn tsdb_catalog() -> Catalog {
        use explainit_tsdb::{SeriesKey, Tsdb};
        let mut db = Tsdb::new();
        for (host, off) in [("b-host", 0i64), ("a-host", 1), ("c-host", 2)] {
            let key = SeriesKey::new("cpu").with_tag("host", host);
            for t in 0..40 {
                db.insert(&key, t * 3 + off % 2, (t + off) as f64);
            }
        }
        db.insert(&SeriesKey::new("edge"), i64::MAX, 42.0);
        db.insert(&SeriesKey::new("edge"), i64::MIN, -42.0);
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db);
        c
    }

    #[test]
    fn unbounded_scans_return_i64_extreme_points() {
        let c = tsdb_catalog();
        // Regression: the old half-open conversion (`end.saturating_add(1)`)
        // silently dropped the `timestamp == i64::MAX` observation from
        // unbounded and `timestamp >= x` scans.
        let t = c.execute("SELECT value FROM tsdb WHERE metric_name = 'edge'").unwrap();
        assert_eq!(t.len(), 2);
        let sql = format!("SELECT value FROM tsdb WHERE timestamp >= {}", i64::MAX);
        let t = c.execute(&sql).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Float(42.0));
        // The scan-aggregate path honours the same bound.
        let sql = format!(
            "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'edge' AND timestamp >= {}",
            i64::MAX
        );
        let t = c.execute(&sql).unwrap();
        assert_eq!(t.rows()[0][0], Value::Int(1));
        // Unsatisfiable strict bounds at the extremes stay empty instead of
        // saturating back onto the extreme point.
        let sql = format!("SELECT value FROM tsdb WHERE timestamp > {}", i64::MAX);
        assert_eq!(c.execute(&sql).unwrap().len(), 0);
        // i64::MIN has no direct literal (the lexer sees `-` as unary
        // minus); the constant folder reduces the subtraction to it.
        let sql = format!("SELECT value FROM tsdb WHERE timestamp < {} - 1", i64::MIN + 1);
        assert_eq!(c.execute(&sql).unwrap().len(), 0);
    }

    #[test]
    fn hash_join_output_is_identical_across_build_sides() {
        let c = catalog();
        let left = c.get("t").unwrap().as_ref().clone();
        let right = c.get("u").unwrap().as_ref().clone();
        let on = crate::ast::Expr::Binary {
            op: crate::ast::BinaryOp::Eq,
            left: Box::new(crate::ast::Expr::col("t.ts")),
            right: Box::new(crate::ast::Expr::col("u.ts")),
        };
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::FullOuter] {
            let ql = left.clone().with_schema(left.schema().qualified("t"));
            let qr = right.clone().with_schema(right.schema().qualified("u"));
            let a = run_join(ql.clone(), qr.clone(), kind, &on, false).unwrap();
            let b = run_join(ql, qr, kind, &on, true).unwrap();
            assert_eq!(a.schema(), b.schema(), "{kind:?}");
            assert_eq!(a.rows(), b.rows(), "build side must not change output ({kind:?})");
        }
    }

    #[test]
    fn full_outer_join_row_order_is_deterministic() {
        // Ten runs of the same FULL OUTER join must produce byte-identical
        // row orders (matches in (left, right) order, unmatched right rows
        // appended in right order) — no HashMap iteration order leaks.
        let sql = "SELECT t.ts, u.ts, v, w FROM t FULL OUTER JOIN u ON t.ts = u.ts";
        let first = run(sql);
        for _ in 0..9 {
            assert_eq!(run(sql).rows(), first.rows());
        }
    }

    #[test]
    fn outer_join_null_padding_keeps_int_identity() {
        // ts=1 rows of t have no u match: u.ts pads with NULL while the
        // matched entries stay Value::Int — never floats or strings.
        let t = run("SELECT t.ts, u.ts FROM t LEFT JOIN u ON t.ts = u.ts ORDER BY t.ts");
        for row in t.rows() {
            assert!(matches!(row[0], Value::Int(_)), "left key typed: {row:?}");
            assert!(
                matches!(row[1], Value::Int(_) | Value::Null),
                "padded column keeps Int identity: {row:?}"
            );
        }
        assert!(t.rows().iter().any(|r| r[1].is_null()), "padding occurred");
    }
}
