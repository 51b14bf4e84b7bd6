//! The logical plan layer: SELECT statements lowered to an operator tree.
//!
//! [`build`] translates a parsed [`Query`] into a [`LogicalPlan`]:
//!
//! ```text
//! Union
//!   Limit
//!     Sort
//!       Project | Aggregate        (with hidden ORDER BY key columns)
//!         Filter                   (WHERE)
//!           Join*                  (hash or nested loop, chosen at exec)
//!             Alias                (join-scope qualification)
//!               Scan | Unit | <subquery plan>
//! ```
//!
//! The tree is what [`crate::optimize`] rewrites (predicate pushdown,
//! projection pruning, constant folding, TSDB scan extraction) and what the
//! columnar executor in [`crate::exec`] runs. [`render`] pretty-prints a
//! plan for `EXPLAIN`.

use explainit_tsdb::TagFilter;

use crate::ast::{BinaryOp, Expr, JoinKind, Query, SelectItem, SelectStmt, TableRef};
use crate::catalog::Catalog;
use crate::table::Schema;
use crate::{QueryError, Result};

/// A relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: a named catalog table.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Leaf: an index-assisted scan of a TSDB-bound virtual table with
    /// pushed-down predicates. Produced by the optimizer — the planner only
    /// emits [`LogicalPlan::Scan`].
    TsdbScan {
        /// Catalog name the TSDB is bound under.
        table: String,
        /// Pushed-down exact metric-name equality.
        name: Option<String>,
        /// Pushed-down tag predicates (conjunctive).
        tags: Vec<TagFilter>,
        /// Inclusive lower timestamp bound.
        start: Option<i64>,
        /// Inclusive upper timestamp bound.
        end: Option<i64>,
        /// Column pruning: indices into the observation schema
        /// `[timestamp, metric_name, tag, value]`; `None` keeps all.
        columns: Option<Vec<usize>>,
    },
    /// One empty row, zero columns (`SELECT 1`-style constant queries).
    Unit,
    /// Qualifies every column of the input with `alias.` (join scoping).
    Alias {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The qualifier.
        alias: String,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Kept rows satisfy this predicate.
        predicate: Expr,
    },
    /// Scalar projection (may contain window functions).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        items: Vec<(Expr, String)>,
        /// Extra ORDER BY key expressions evaluated against the *input*
        /// scope, appended as hidden columns for the enclosing Sort.
        hidden: Vec<Expr>,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// GROUP BY key expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// `(expression, output name)` pairs; expressions may mix
        /// aggregates with scalars.
        items: Vec<(Expr, String)>,
        /// Hidden ORDER BY keys evaluated per group.
        hidden: Vec<Expr>,
    },
    /// Join of two plans.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// INNER / LEFT / FULL OUTER.
        kind: JoinKind,
        /// The ON predicate.
        on: Expr,
        /// Cardinality statistics attached by the optimizer's
        /// `annotate_join_stats` rule. The executor builds the hash side on
        /// the estimated-smaller input; `None` (un-optimized plans) keeps
        /// the legacy build-on-right.
        stats: Option<JoinStats>,
    },
    /// Sorts by key columns of the (extended) child output.
    Sort {
        /// Input plan — always a Project or Aggregate carrying the hidden
        /// key columns this node references.
        input: Box<LogicalPlan>,
        /// `(extended column index, ascending)` sort keys.
        keys: Vec<(usize, bool)>,
        /// Number of visible output columns (hidden keys are dropped after
        /// the sort).
        output_width: usize,
    },
    /// Keeps the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row budget.
        n: usize,
    },
    /// Bag union of compatible inputs (with Int/Float column coercion).
    Union {
        /// Unioned plans, in order; the first defines the output names.
        inputs: Vec<LogicalPlan>,
    },
    /// Aggregation pushed *into* the scan: produced by the optimizer's
    /// `scan_aggregate` rule when an `Aggregate` (above pushed-down
    /// vectorizable `Filter`s) sits directly on a [`LogicalPlan::TsdbScan`]
    /// and every group key is the `timestamp` column or an expression over
    /// the dictionary-encoded scan columns (`metric_name`, `tag`). The
    /// executor pre-aggregates each series' sorted point vectors straight
    /// off [`explainit_tsdb::Tsdb::scan_parts_ordered`] into mergeable
    /// accumulators, grouping on `(dict class, timestamp)` composite keys —
    /// no row materialization and no per-row key-string rendering. It is
    /// the one morsel-parallel aggregate: workers fold point-balanced spans
    /// and merge their partials deterministically, so results stay
    /// bit-exact with the serial `Aggregate` and the reference engine.
    ScanAggregate {
        /// Catalog name the TSDB is bound under.
        table: String,
        /// Pushed-down metric-name pattern (exact or glob).
        name: Option<String>,
        /// Pushed-down tag predicates (conjunctive).
        tags: Vec<TagFilter>,
        /// Inclusive lower timestamp bound.
        start: Option<i64>,
        /// Inclusive upper timestamp bound.
        end: Option<i64>,
        /// Residual predicates (outermost first) the scan could not
        /// absorb; evaluated per series / per point before aggregation.
        filters: Vec<Expr>,
        /// GROUP BY key expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// `(expression, output name)` pairs: group keys or plain
        /// aggregate calls (the eligibility analysis guarantees this).
        items: Vec<(Expr, String)>,
        /// Hidden ORDER BY keys, same shape restrictions as `items`.
        hidden: Vec<Expr>,
    },
}

/// The observation schema of a TSDB-bound table.
pub const TSDB_COLUMNS: [&str; 4] = ["timestamp", "metric_name", "tag", "value"];

/// Cardinality statistics the optimizer attaches to a [`LogicalPlan::Join`]:
/// per-side row estimates (from [`estimate_rows`]) and the hash-join build
/// side they imply. Statistics never change results — the executor emits
/// the same rows in the same order whichever side it builds on — so a
/// wrong estimate costs memory, not correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinStats {
    /// Estimated left-input rows.
    pub left_rows: u64,
    /// Estimated right-input rows.
    pub right_rows: u64,
    /// True when the hash index should be built over the *left* input
    /// (the estimated-smaller side); false keeps the legacy build-on-right.
    pub build_left: bool,
}

/// Estimated output row count of a plan, from catalog metadata only —
/// exact lengths for registered in-memory tables, tag-index set sizes and
/// point-count/time-span arithmetic for TSDB scans
/// ([`explainit_tsdb::Tsdb::estimate_points`]), and documented heuristics
/// for the relational operators above them (filters keep ~1/3 of their
/// input, aggregates produce ~sqrt(input) groups). Returns `None` when a
/// referenced table is unknown. Nothing is ever scanned or materialized.
pub fn estimate_rows(plan: &LogicalPlan, catalog: &Catalog) -> Option<u64> {
    match plan {
        LogicalPlan::Scan { table } => {
            if catalog.is_tsdb(table) {
                let binding = catalog.tsdb_binding(table)?;
                Some(binding.db().point_count() as u64)
            } else {
                Some(catalog.get(table)?.len() as u64)
            }
        }
        LogicalPlan::TsdbScan { table, name, tags, start, end, .. } => {
            let binding = catalog.tsdb_binding(table)?;
            let filter = explainit_tsdb::MetricFilter { name: name.clone(), tags: tags.clone() };
            let lo = start.unwrap_or(i64::MIN);
            let hi = end.unwrap_or(i64::MAX);
            Some(binding.db().estimate_points(&filter, lo, hi))
        }
        LogicalPlan::Unit => Some(1),
        LogicalPlan::Alias { input, .. } | LogicalPlan::Sort { input, .. } => {
            estimate_rows(input, catalog)
        }
        LogicalPlan::Project { input, .. } => estimate_rows(input, catalog),
        LogicalPlan::Filter { input, .. } => {
            // Default selectivity heuristic: a WHERE clause keeps ~1/3 of
            // its input (non-zero inputs stay non-zero so join sides with
            // any data never look free). A chain of Filter nodes is one
            // clause the optimizer split per conjunct — charge the
            // selectivity once for the whole chain, not once per node, so
            // how a predicate happens to be split never skews the
            // estimate.
            let mut source = input;
            while let LogicalPlan::Filter { input, .. } = source.as_ref() {
                source = input;
            }
            let input = estimate_rows(source, catalog)?;
            Some(if input == 0 { 0 } else { (input / 3).max(1) })
        }
        LogicalPlan::Aggregate { input, group_by, .. } => {
            let input = estimate_rows(input, catalog)?;
            Some(group_estimate(input, group_by.is_empty()))
        }
        LogicalPlan::ScanAggregate { table, name, tags, start, end, group_by, .. } => {
            let binding = catalog.tsdb_binding(table)?;
            let filter = explainit_tsdb::MetricFilter { name: name.clone(), tags: tags.clone() };
            let lo = start.unwrap_or(i64::MIN);
            let hi = end.unwrap_or(i64::MAX);
            let input = binding.db().estimate_points(&filter, lo, hi);
            Some(group_estimate(input, group_by.is_empty()))
        }
        LogicalPlan::Join { left, right, .. } => {
            // Without key-distinctness statistics, assume the larger side
            // dominates (the classic |L ⋈ R| ~ max(|L|, |R|) bound for
            // foreign-key-shaped joins).
            let l = estimate_rows(left, catalog)?;
            let r = estimate_rows(right, catalog)?;
            Some(l.max(r))
        }
        LogicalPlan::Limit { input, n } => Some(estimate_rows(input, catalog)?.min(*n as u64)),
        LogicalPlan::Union { inputs } => {
            let mut total = 0u64;
            for p in inputs {
                total = total.saturating_add(estimate_rows(p, catalog)?);
            }
            Some(total)
        }
    }
}

/// Distinct-group estimate for an aggregation over `input` rows: one
/// global group without keys, ~sqrt(input) groups with them.
fn group_estimate(input: u64, global: bool) -> u64 {
    if global {
        1
    } else if input == 0 {
        0
    } else {
        ((input as f64).sqrt().ceil() as u64).max(1)
    }
}

impl LogicalPlan {
    /// The visible output schema of this plan.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            LogicalPlan::Scan { table } => {
                catalog.schema_of(table).ok_or_else(|| QueryError::UnknownTable(table.clone()))
            }
            LogicalPlan::TsdbScan { columns, .. } => {
                let names: Vec<String> = match columns {
                    None => TSDB_COLUMNS.iter().map(|s| s.to_string()).collect(),
                    Some(idx) => idx.iter().map(|&i| TSDB_COLUMNS[i].to_string()).collect(),
                };
                Ok(Schema::new(names))
            }
            LogicalPlan::Unit => Ok(Schema::default()),
            LogicalPlan::Alias { input, alias } => Ok(input.schema(catalog)?.qualified(alias)),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
                input.schema(catalog)
            }
            LogicalPlan::Project { items, .. }
            | LogicalPlan::Aggregate { items, .. }
            | LogicalPlan::ScanAggregate { items, .. } => {
                Ok(Schema::new(items.iter().map(|(_, n)| n.clone()).collect()))
            }
            LogicalPlan::Join { left, right, .. } => {
                let mut cols = left.schema(catalog)?.columns().to_vec();
                cols.extend(right.schema(catalog)?.columns().iter().cloned());
                Ok(Schema::new(cols))
            }
            LogicalPlan::Sort { input, .. } => input.schema(catalog),
            LogicalPlan::Union { inputs } => inputs
                .first()
                .ok_or_else(|| QueryError::Plan("empty UNION".into()))?
                .schema(catalog),
        }
    }
}

/// Lowers a parsed query to a logical plan (no optimization applied).
pub fn build(catalog: &Catalog, query: &Query) -> Result<LogicalPlan> {
    let mut parts = Vec::with_capacity(query.selects.len());
    for select in &query.selects {
        parts.push(build_select(catalog, select)?);
    }
    match parts.len() {
        0 => Err(QueryError::Plan("query has no SELECT".into())),
        1 => Ok(parts.pop().expect("one part")), // invariant: length checked by the match arm
        _ => Ok(LogicalPlan::Union { inputs: parts }),
    }
}

fn table_ref_plan(catalog: &Catalog, tref: &TableRef) -> Result<LogicalPlan> {
    match tref {
        TableRef::Named { name, .. } => Ok(LogicalPlan::Scan { table: name.clone() }),
        TableRef::Subquery { query, .. } => build(catalog, query),
    }
}

fn build_select(catalog: &Catalog, select: &SelectStmt) -> Result<LogicalPlan> {
    // ---- FROM + JOINs ----------------------------------------------------
    let mut plan = match &select.from {
        Some(tref) => {
            let base = table_ref_plan(catalog, tref)?;
            if select.joins.is_empty() {
                base
            } else {
                let scope = tref
                    .scope_name()
                    .ok_or_else(|| QueryError::Plan("subquery in a join needs an alias".into()))?;
                LogicalPlan::Alias { input: Box::new(base), alias: scope.to_string() }
            }
        }
        None => LogicalPlan::Unit,
    };
    for join in &select.joins {
        let right = table_ref_plan(catalog, &join.table)?;
        let scope = join
            .table
            .scope_name()
            .ok_or_else(|| QueryError::Plan("joined subquery needs an alias".into()))?;
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(LogicalPlan::Alias {
                input: Box::new(right),
                alias: scope.to_string(),
            }),
            kind: join.kind,
            on: join.on.clone(),
            stats: None,
        };
    }

    // ---- WHERE -----------------------------------------------------------
    if let Some(pred) = &select.where_clause {
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred.clone() };
    }

    // ---- projection / aggregation ----------------------------------------
    let has_aggregates = select.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard => false,
    });
    let grouped = !select.group_by.is_empty() || has_aggregates;

    let mut items: Vec<(Expr, String)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                if grouped {
                    return Err(QueryError::Plan(
                        "SELECT * cannot be combined with GROUP BY".into(),
                    ));
                }
                let input_schema = plan.schema(catalog)?;
                for c in input_schema.columns() {
                    items.push((Expr::Column(c.clone()), c.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                items.push((expr.clone(), name));
            }
        }
    }

    // ---- ORDER BY keys ---------------------------------------------------
    // An ORDER BY column that resolves in the output schema sorts on the
    // projected value; anything else becomes a hidden key evaluated against
    // the projection input (per-group for aggregates).
    let out_names = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
    let mut keys: Vec<(usize, bool)> = Vec::new();
    let mut hidden: Vec<Expr> = Vec::new();
    for ok in &select.order_by {
        let slot = match &ok.expr {
            Expr::Column(name) => out_names.resolve(name).ok(),
            _ => None,
        };
        let idx = match slot {
            Some(i) => i,
            None => {
                hidden.push(ok.expr.clone());
                items.len() + hidden.len() - 1
            }
        };
        keys.push((idx, ok.ascending));
    }
    let output_width = items.len();

    plan = if grouped {
        LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: select.group_by.clone(),
            items,
            hidden,
        }
    } else {
        LogicalPlan::Project { input: Box::new(plan), items, hidden }
    };

    if !keys.is_empty() {
        plan = LogicalPlan::Sort { input: Box::new(plan), keys, output_width };
    }
    if let Some(n) = select.limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Shared predicate helpers
// ---------------------------------------------------------------------------

/// Splits an expression on AND into its conjuncts.
pub fn collect_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { op: BinaryOp::And, left, right } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Joins conjuncts back into one AND expression (`None` when empty).
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut it = conjuncts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, c| Expr::Binary {
        op: BinaryOp::And,
        left: Box::new(acc),
        right: Box::new(c),
    }))
}

/// Tries to decompose a join ON predicate into `l1 = r1 AND l2 = r2 AND ...`
/// with each side resolving in exactly one input. Returns parallel column
/// index lists on success.
pub fn equi_join_keys(
    on: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(on, &mut conjuncts);
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    for c in conjuncts {
        match c {
            Expr::Binary { op: BinaryOp::Eq, left: a, right: b } => {
                let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) else {
                    return None;
                };
                let (la, ra) = (left.resolve(ca).ok(), right.resolve(ca).ok());
                let (lb, rb) = (left.resolve(cb).ok(), right.resolve(cb).ok());
                match (la, rb, ra, lb) {
                    // a on the left, b on the right (only unambiguous splits).
                    (Some(l), Some(r), None, None) => {
                        lk.push(l);
                        rk.push(r);
                    }
                    (None, None, Some(r), Some(l)) => {
                        lk.push(l);
                        rk.push(r);
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    if lk.is_empty() {
        None
    } else {
        Some((lk, rk))
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

/// Renders a plan as an indented tree, one node per line.
pub fn render(plan: &LogicalPlan) -> String {
    render_with(plan, None)
}

/// [`render`] with an optional catalog for static refinement annotations:
/// each `Filter` node in a scan-rooted chain is tagged with how the
/// executor will evaluate it, as decided *statically* from the inferred
/// column types ([`crate::types`]) and the vectorizer's analysis:
///
/// * `refine=dict` — references only the dictionary-encoded
///   `metric_name`/`tag` columns; evaluated once per distinct series.
/// * `refine=kernel` — refines the selection vector with typed
///   branch-free loops ([`crate::kernel`]) straight off the column
///   slices: span-refinable point predicates on a TSDB scan, or (on a
///   registered table, when the catalog is supplied) a vectorizable
///   comparison whose columns all inferred to non-null `Int`/`Float`.
/// * `refine=general` — needs the row gather + vectorized evaluator
///   fallback.
pub fn render_with(plan: &LogicalPlan, catalog: Option<&Catalog>) -> String {
    let mut out = String::new();
    render_into(plan, 0, catalog, &mut out);
    out
}

/// The `refine=` class of one filter predicate, or `None` when the chain
/// source is not a scan (derived columns — no static story to tell).
fn refine_class(predicate: &Expr, source: &LogicalPlan, catalog: &Catalog) -> Option<&'static str> {
    match source {
        LogicalPlan::TsdbScan { .. } => {
            let obs = Schema::new(TSDB_COLUMNS.iter().map(|s| s.to_string()).collect());
            let mut cols = Vec::new();
            crate::optimize::collect_columns(predicate, &mut cols);
            if cols.iter().all(|c| obs.resolve(c).is_ok_and(|i| i == 1 || i == 2)) {
                Some("dict")
            } else if crate::veval::span_refinable(predicate, &obs) {
                Some("kernel")
            } else {
                Some("general")
            }
        }
        LogicalPlan::Scan { table } => {
            let types = crate::types::base_table_types(catalog, table).ok()?;
            let mut cols = Vec::new();
            crate::optimize::collect_columns(predicate, &mut cols);
            let numeric = crate::veval::supported(predicate)
                && cols.iter().all(|c| {
                    types.resolve(c).is_ok_and(|info| !info.nullable && info.ty.is_numeric())
                });
            Some(if numeric { "kernel" } else { "general" })
        }
        _ => None,
    }
}

/// The first non-`Filter` node under a filter chain.
fn chain_source(mut plan: &LogicalPlan) -> &LogicalPlan {
    while let LogicalPlan::Filter { input, .. } = plan {
        plan = input;
    }
    plan
}

fn push_line(out: &mut String, depth: usize, line: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(line);
    out.push('\n');
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => match v {
            crate::value::Value::Str(s) => format!("'{s}'"),
            other => other.render(),
        },
        Expr::Column(c) => c.clone(),
        Expr::Binary { op, left, right } => {
            let op = match op {
                BinaryOp::Or => "OR",
                BinaryOp::And => "AND",
                BinaryOp::Eq => "=",
                BinaryOp::NotEq => "!=",
                BinaryOp::Lt => "<",
                BinaryOp::LtEq => "<=",
                BinaryOp::Gt => ">",
                BinaryOp::GtEq => ">=",
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "/",
                BinaryOp::Mod => "%",
                BinaryOp::Like => "LIKE",
                BinaryOp::Glob => "GLOB",
            };
            format!("({} {} {})", render_expr(left), op, render_expr(right))
        }
        Expr::Unary { op, operand } => match op {
            crate::ast::UnaryOp::Neg => format!("(-{})", render_expr(operand)),
            crate::ast::UnaryOp::Not => format!("(NOT {})", render_expr(operand)),
        },
        Expr::Function { name, args } => {
            let args: Vec<String> = args.iter().map(render_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::Index { container, index } => {
            format!("{}[{}]", render_expr(container), render_expr(index))
        }
        Expr::InList { expr, list, negated } => {
            let list: Vec<String> = list.iter().map(render_expr).collect();
            let not = if *negated { " NOT" } else { "" };
            format!("({}{} IN ({}))", render_expr(expr), not, list.join(", "))
        }
        Expr::Between { expr, low, high, negated } => {
            let not = if *negated { " NOT" } else { "" };
            format!(
                "({}{} BETWEEN {} AND {})",
                render_expr(expr),
                not,
                render_expr(low),
                render_expr(high)
            )
        }
        Expr::IsNull { expr, negated } => {
            let not = if *negated { " NOT" } else { "" };
            format!("({} IS{} NULL)", render_expr(expr), not)
        }
        Expr::Case { .. } => "CASE ... END".to_string(),
    }
}

/// Renders the pushed-down scan predicates shared by `TsdbScan` and
/// `ScanAggregate` lines.
fn push_scan_attrs(
    line: &mut String,
    name: &Option<String>,
    tags: &[TagFilter],
    start: &Option<i64>,
    end: &Option<i64>,
) {
    if let Some(name) = name {
        line.push_str(&format!(" name={name}"));
    }
    for t in tags {
        match t {
            TagFilter::Equals(k, v) => line.push_str(&format!(" tag[{k}]={v}")),
            TagFilter::Glob(k, p) => line.push_str(&format!(" tag[{k}]~{p}")),
            TagFilter::HasKey(k) => line.push_str(&format!(" tag[{k}] present")),
            TagFilter::Absent(k) => line.push_str(&format!(" tag[{k}] absent")),
        }
    }
    if start.is_some() || end.is_some() {
        let lo = start.map_or("-inf".to_string(), |v| v.to_string());
        let hi = end.map_or("+inf".to_string(), |v| v.to_string());
        line.push_str(&format!(" time=[{lo}, {hi}]"));
    }
}

fn render_into(plan: &LogicalPlan, depth: usize, catalog: Option<&Catalog>, out: &mut String) {
    match plan {
        LogicalPlan::Scan { table } => push_line(out, depth, &format!("Scan {table}")),
        LogicalPlan::TsdbScan { table, name, tags, start, end, columns } => {
            let mut line = format!("TsdbScan {table}");
            push_scan_attrs(&mut line, name, tags, start, end);
            if let Some(cols) = columns {
                let names: Vec<&str> = cols.iter().map(|&i| TSDB_COLUMNS[i]).collect();
                line.push_str(&format!(" columns=[{}]", names.join(", ")));
            }
            push_line(out, depth, &line);
        }
        LogicalPlan::Unit => push_line(out, depth, "Unit"),
        LogicalPlan::Alias { input, alias } => {
            push_line(out, depth, &format!("Alias {alias}"));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut line = format!("Filter {}", render_expr(predicate));
            if let Some(class) =
                catalog.and_then(|c| refine_class(predicate, chain_source(input), c))
            {
                line.push_str(&format!(" refine={class}"));
            }
            push_line(out, depth, &line);
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Project { input, items, hidden } => {
            let cols: Vec<String> =
                items.iter().map(|(e, n)| format!("{} AS {n}", render_expr(e))).collect();
            let mut line = format!("Project [{}]", cols.join(", "));
            if !hidden.is_empty() {
                let h: Vec<String> = hidden.iter().map(render_expr).collect();
                line.push_str(&format!(" hidden=[{}]", h.join(", ")));
            }
            push_line(out, depth, &line);
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let keys: Vec<String> = group_by.iter().map(render_expr).collect();
            let cols: Vec<String> =
                items.iter().map(|(e, n)| format!("{} AS {n}", render_expr(e))).collect();
            let mut line =
                format!("Aggregate group=[{}] items=[{}]", keys.join(", "), cols.join(", "));
            if !hidden.is_empty() {
                let h: Vec<String> = hidden.iter().map(render_expr).collect();
                line.push_str(&format!(" hidden=[{}]", h.join(", ")));
            }
            push_line(out, depth, &line);
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Join { left, right, kind, on, stats } => {
            let kind = match kind {
                JoinKind::Inner => "Inner",
                JoinKind::Left => "Left",
                JoinKind::FullOuter => "FullOuter",
            };
            let mut line = format!("Join {kind} on {}", render_expr(on));
            if let Some(s) = stats {
                line.push_str(&format!(
                    " rows=[l~{}, r~{}] build={}",
                    s.left_rows,
                    s.right_rows,
                    if s.build_left { "left" } else { "right" }
                ));
            }
            push_line(out, depth, &line);
            render_into(left, depth + 1, catalog, out);
            render_into(right, depth + 1, catalog, out);
        }
        LogicalPlan::Sort { input, keys, .. } => {
            let keys: Vec<String> = keys
                .iter()
                .map(|(i, asc)| format!("#{i} {}", if *asc { "ASC" } else { "DESC" }))
                .collect();
            push_line(out, depth, &format!("Sort [{}]", keys.join(", ")));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Limit { input, n } => {
            push_line(out, depth, &format!("Limit {n}"));
            render_into(input, depth + 1, catalog, out);
        }
        LogicalPlan::Union { inputs } => {
            push_line(out, depth, "Union");
            for i in inputs {
                render_into(i, depth + 1, catalog, out);
            }
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
        } => {
            let mut line = format!("ScanAggregate {table}");
            push_scan_attrs(&mut line, name, tags, start, end);
            if !filters.is_empty() {
                let f: Vec<String> = filters.iter().map(render_expr).collect();
                line.push_str(&format!(" where=[{}]", f.join(", ")));
            }
            let keys: Vec<String> = group_by.iter().map(render_expr).collect();
            let cols: Vec<String> =
                items.iter().map(|(e, n)| format!("{} AS {n}", render_expr(e))).collect();
            line.push_str(&format!(" group=[{}] items=[{}]", keys.join(", "), cols.join(", ")));
            if !hidden.is_empty() {
                let h: Vec<String> = hidden.iter().map(render_expr).collect();
                line.push_str(&format!(" hidden=[{}]", h.join(", ")));
            }
            push_line(out, depth, &line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::table::Table;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "t",
            Table::from_rows(&["ts", "v"], vec![vec![Value::Int(0), Value::Float(1.0)]]),
        );
        c
    }

    #[test]
    fn select_lowers_to_project_over_scan() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t WHERE ts > 0").unwrap();
        let p = build(&c, &q).unwrap();
        match p {
            LogicalPlan::Project { input, items, .. } => {
                assert_eq!(items.len(), 1);
                assert!(matches!(*input, LogicalPlan::Filter { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn aggregate_and_sort_nodes() {
        let c = catalog();
        let q = parse_query("SELECT ts, AVG(v) AS m FROM t GROUP BY ts ORDER BY m DESC LIMIT 3")
            .unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Limit { input, n } = p else { panic!("expected limit") };
        assert_eq!(n, 3);
        let LogicalPlan::Sort { input, keys, output_width } = *input else {
            panic!("expected sort")
        };
        assert_eq!(keys, vec![(1, false)]); // alias m resolves to output col 1
        assert_eq!(output_width, 2);
        assert!(matches!(*input, LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn order_by_non_projected_column_becomes_hidden_key() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t ORDER BY ts").unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Sort { input, keys, output_width } = p else { panic!("expected sort") };
        assert_eq!(keys, vec![(1, true)]); // hidden key appended after 1 item
        assert_eq!(output_width, 1);
        let LogicalPlan::Project { hidden, .. } = *input else { panic!("expected project") };
        assert_eq!(hidden, vec![Expr::col("ts")]);
    }

    #[test]
    fn wildcard_expands_against_input_schema() {
        let c = catalog();
        let q = parse_query("SELECT * FROM t").unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Project { items, .. } = p else { panic!("expected project") };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].1, "ts");
    }

    #[test]
    fn joins_wrap_sides_in_alias_scopes() {
        let mut c = catalog();
        c.register("u", Table::from_rows(&["ts", "w"], vec![]));
        let q = parse_query("SELECT t.v FROM t JOIN u ON t.ts = u.ts").unwrap();
        let p = build(&c, &q).unwrap();
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::Join { left, right, .. } = *input else { panic!("expected join") };
        assert!(matches!(*left, LogicalPlan::Alias { ref alias, .. } if alias == "t"));
        assert!(matches!(*right, LogicalPlan::Alias { ref alias, .. } if alias == "u"));
    }

    #[test]
    fn union_node_wraps_selects() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t UNION ALL SELECT v FROM t").unwrap();
        let p = build(&c, &q).unwrap();
        assert!(matches!(p, LogicalPlan::Union { ref inputs } if inputs.len() == 2));
    }

    #[test]
    fn render_is_indented() {
        let c = catalog();
        let q = parse_query("SELECT v FROM t WHERE ts > 0").unwrap();
        let p = build(&c, &q).unwrap();
        let s = render(&p);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Project"));
        assert!(lines[1].starts_with("  Filter"));
        assert!(lines[2].starts_with("    Scan t"));
    }
}
