//! Rule-based plan optimizer.
//!
//! Six rewrites run in this order. Each is named by the label the
//! invariant verifier ([`crate::verify`]) reports it under:
//!
//! 1. **`fold_constants`** — literal-only subexpressions are evaluated at
//!    plan time (`1 + 2` → `3`), plus boolean shortcuts (`TRUE AND x` → `x`,
//!    `FALSE AND x` → `FALSE`).
//! 2. **`convert_tsdb_scans`** — a [`LogicalPlan::Scan`] of a table bound
//!    via [`Catalog::register_tsdb`] becomes a [`LogicalPlan::TsdbScan`].
//! 3. **`pushdown`** — WHERE conjuncts sink through Alias and Project nodes
//!    (with alias substitution), into the matching side of a Join, through
//!    Aggregate group keys, and finally *into* the TSDB scan:
//!    `metric_name = '…'` becomes an inverted-index name lookup,
//!    `tag['k'] = 'v'` / `tag['k'] IS [NOT] NULL` become tag-index
//!    predicates, and `timestamp` comparisons become the scan's time range —
//!    so the store is never materialized wholesale. The residual conjuncts
//!    it leaves above a `TsdbScan` are cost-ordered so per-series-constant
//!    predicates (references to the dictionary-encoded `metric_name`/`tag`
//!    columns only) apply innermost: the scan-aggregate operator evaluates
//!    those once per series — often discarding the whole series for the
//!    cost of one comparison — before any per-point work runs.
//! 4. **`prune`** — TSDB scans only materialize the observation columns the
//!    rest of the plan references (skipping per-row tag-map clones when
//!    `tag` is never read).
//! 5. **`annotate_join_stats`** — every `Join` is annotated with per-side
//!    row estimates from [`crate::plan::estimate_rows`] (tag-index set
//!    sizes and point-count arithmetic for TSDB scans, exact lengths for
//!    registered tables) and the hash-join build side they imply: the
//!    executor builds its hash index over the estimated-smaller input
//!    while emitting rows in exactly the order the legacy build-on-right
//!    algorithm produced, so statistics can only change memory and speed,
//!    never results. `EXPLAIN` shows the estimates and the chosen side on
//!    the `Join` line.
//! 6. **`scan_aggregate`** — an `Aggregate` (above vectorizable pushed-down
//!    `Filter`s) sitting directly on a `TsdbScan` collapses into a single
//!    [`LogicalPlan::ScanAggregate`] node when every group key is the
//!    `timestamp` column or an expression over the dictionary-encoded
//!    scan columns (`metric_name`, `tag`) and every output is a group key
//!    or a plain mergeable aggregate over observation columns. The
//!    executor then pre-aggregates per series straight off the store's
//!    sorted point vectors — no row materialization at all. Joins, UNION
//!    branches, non-dict group keys and non-mergeable outputs fall back
//!    to the serial `Aggregate`. Disable with
//!    [`OptimizeOptions::scan_aggregate`] (the differential harness runs
//!    both ways).

use std::collections::HashSet;

use explainit_tsdb::TagFilter;

use crate::ast::{BinaryOp, Expr, JoinKind};
use crate::catalog::Catalog;
use crate::eval::eval_row;
use crate::functions::{is_aggregate, is_window};
use crate::plan::{collect_conjuncts, conjoin, LogicalPlan, TSDB_COLUMNS};
use crate::table::Schema;
use crate::value::Value;
use crate::veval;
use crate::Result;

/// Optimizer toggles (all rewrites that change plan *shape* but never
/// results; tests and the differential harness switch them off to compare
/// engines).
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Apply the `scan_aggregate` rule (collapse eligible aggregates into
    /// [`LogicalPlan::ScanAggregate`]). Default: on.
    pub scan_aggregate: bool,
    /// Run the [`crate::verify`] invariant checks after every rule.
    /// Default: off — but debug builds always verify, and setting the
    /// `EXPLAINIT_VERIFY_PLANS` environment variable (to anything but `0`)
    /// forces verification in release builds too.
    pub verify: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions { scan_aggregate: true, verify: false }
    }
}

/// Applies all rewrite rules with default options.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    optimize_with(plan, catalog, &OptimizeOptions::default())
}

/// Applies all rewrite rules.
pub fn optimize_with(
    plan: LogicalPlan,
    catalog: &Catalog,
    opts: &OptimizeOptions,
) -> Result<LogicalPlan> {
    let verify = opts.verify || cfg!(debug_assertions) || crate::verify::env_forced();
    let planned = if verify { plan.schema(catalog).ok() } else { None };
    let check = |rule: &'static str, plan: &LogicalPlan| -> Result<()> {
        if verify {
            crate::verify::check_after(rule, plan, planned.as_ref(), catalog)
        } else {
            Ok(())
        }
    };
    let plan = fold_plan(plan);
    check("fold_constants", &plan)?;
    let plan = convert_tsdb_scans(plan, catalog);
    check("convert_tsdb_scans", &plan)?;
    let plan = pushdown(plan, catalog)?;
    check("pushdown", &plan)?;
    let plan = prune(plan, None);
    check("prune", &plan)?;
    let plan = annotate_join_stats(plan, catalog);
    check("annotate_join_stats", &plan)?;
    let plan = if opts.scan_aggregate { push_aggregates_into_scans(plan) } else { plan };
    check("scan_aggregate", &plan)?;
    Ok(plan)
}

// ---------------------------------------------------------------------------
// fold_constants: constant folding
// ---------------------------------------------------------------------------

/// Folds constants in every expression of the plan.
fn fold_plan(plan: LogicalPlan) -> LogicalPlan {
    map_exprs(plan, &fold_expr)
}

fn map_exprs(plan: LogicalPlan, f: &impl Fn(Expr) -> Expr) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(map_exprs(*input, f)), predicate: f(predicate) }
        }
        LogicalPlan::Project { input, items, hidden } => LogicalPlan::Project {
            input: Box::new(map_exprs(*input, f)),
            items: items.into_iter().map(|(e, n)| (f(e), n)).collect(),
            hidden: hidden.into_iter().map(f).collect(),
        },
        LogicalPlan::Aggregate { input, group_by, items, hidden } => LogicalPlan::Aggregate {
            input: Box::new(map_exprs(*input, f)),
            group_by: group_by.into_iter().map(f).collect(),
            items: items.into_iter().map(|(e, n)| (f(e), n)).collect(),
            hidden: hidden.into_iter().map(f).collect(),
        },
        LogicalPlan::Join { left, right, kind, on, stats } => LogicalPlan::Join {
            left: Box::new(map_exprs(*left, f)),
            right: Box::new(map_exprs(*right, f)),
            kind,
            on: f(on),
            stats,
        },
        LogicalPlan::Alias { input, alias } => {
            LogicalPlan::Alias { input: Box::new(map_exprs(*input, f)), alias }
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            LogicalPlan::Sort { input: Box::new(map_exprs(*input, f)), keys, output_width }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(map_exprs(*input, f)), n }
        }
        LogicalPlan::Union { inputs } => {
            LogicalPlan::Union { inputs: inputs.into_iter().map(|p| map_exprs(p, f)).collect() }
        }
        // `ScanAggregate` is produced by `scan_aggregate`, which runs last; the
        // earlier passes never see it, so a leaf treatment is safe.
        leaf @ (LogicalPlan::Scan { .. }
        | LogicalPlan::TsdbScan { .. }
        | LogicalPlan::Unit
        | LogicalPlan::ScanAggregate { .. }) => leaf,
    }
}

/// True when the whole subtree is literal (safe to evaluate at plan time).
fn is_const(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column(_) => false,
        Expr::Binary { left, right, .. } => is_const(left) && is_const(right),
        Expr::Unary { operand, .. } => is_const(operand),
        Expr::Function { name, args } => {
            !is_aggregate(name) && !is_window(name) && args.iter().all(is_const)
        }
        Expr::Index { container, index } => is_const(container) && is_const(index),
        Expr::InList { expr, list, .. } => is_const(expr) && list.iter().all(is_const),
        Expr::Between { expr, low, high, .. } => is_const(expr) && is_const(low) && is_const(high),
        Expr::IsNull { expr, .. } => is_const(expr),
        Expr::Case { when_then, else_expr } => {
            when_then.iter().all(|(c, v)| is_const(c) && is_const(v))
                && else_expr.as_ref().is_none_or(|e| is_const(e))
        }
    }
}

/// Folds constants bottom-up. Expressions that error at plan time (e.g.
/// `'a' + 1`) are left intact so the runtime error surface is unchanged.
pub fn fold_expr(expr: Expr) -> Expr {
    // Fold children first.
    let expr = match expr {
        Expr::Binary { op, left, right } => {
            let left = Box::new(fold_expr(*left));
            let right = Box::new(fold_expr(*right));
            // Boolean shortcuts (sound under three-valued logic).
            match op {
                BinaryOp::And => {
                    if matches!(*left, Expr::Literal(Value::Bool(true))) {
                        return *right;
                    }
                    if matches!(*right, Expr::Literal(Value::Bool(true))) {
                        return *left;
                    }
                    if matches!(*left, Expr::Literal(Value::Bool(false)))
                        || matches!(*right, Expr::Literal(Value::Bool(false)))
                    {
                        return Expr::Literal(Value::Bool(false));
                    }
                }
                BinaryOp::Or => {
                    if matches!(*left, Expr::Literal(Value::Bool(true)))
                        || matches!(*right, Expr::Literal(Value::Bool(true)))
                    {
                        return Expr::Literal(Value::Bool(true));
                    }
                    if matches!(*left, Expr::Literal(Value::Bool(false))) {
                        return *right;
                    }
                    if matches!(*right, Expr::Literal(Value::Bool(false))) {
                        return *left;
                    }
                }
                _ => {}
            }
            Expr::Binary { op, left, right }
        }
        Expr::Unary { op, operand } => Expr::Unary { op, operand: Box::new(fold_expr(*operand)) },
        Expr::Function { name, args } => {
            Expr::Function { name, args: args.into_iter().map(fold_expr).collect() }
        }
        Expr::Index { container, index } => Expr::Index {
            container: Box::new(fold_expr(*container)),
            index: Box::new(fold_expr(*index)),
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(fold_expr(*expr)),
            low: Box::new(fold_expr(*low)),
            high: Box::new(fold_expr(*high)),
            negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(fold_expr(*expr)), negated }
        }
        Expr::Case { when_then, else_expr } => Expr::Case {
            when_then: when_then.into_iter().map(|(c, v)| (fold_expr(c), fold_expr(v))).collect(),
            else_expr: else_expr.map(|e| Box::new(fold_expr(*e))),
        },
        leaf => leaf,
    };
    if matches!(expr, Expr::Literal(_)) || !is_const(&expr) {
        return expr;
    }
    let empty = Schema::default();
    match eval_row(&expr, &empty, &[]) {
        Ok(v) => Expr::Literal(v),
        Err(_) => expr, // leave runtime errors to the runtime
    }
}

// ---------------------------------------------------------------------------
// convert_tsdb_scans: TSDB scan conversion
// ---------------------------------------------------------------------------

fn convert_tsdb_scans(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    map_plan(plan, &|node| match node {
        LogicalPlan::Scan { table } if catalog.is_tsdb(&table) => LogicalPlan::TsdbScan {
            table,
            name: None,
            tags: Vec::new(),
            start: None,
            end: None,
            columns: None,
        },
        other => other,
    })
}

/// Bottom-up structural rewrite.
fn map_plan(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let rebuilt = match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(map_plan(*input, f)), predicate }
        }
        LogicalPlan::Project { input, items, hidden } => {
            LogicalPlan::Project { input: Box::new(map_plan(*input, f)), items, hidden }
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            LogicalPlan::Aggregate { input: Box::new(map_plan(*input, f)), group_by, items, hidden }
        }
        LogicalPlan::Join { left, right, kind, on, stats } => LogicalPlan::Join {
            left: Box::new(map_plan(*left, f)),
            right: Box::new(map_plan(*right, f)),
            kind,
            on,
            stats,
        },
        LogicalPlan::Alias { input, alias } => {
            LogicalPlan::Alias { input: Box::new(map_plan(*input, f)), alias }
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            LogicalPlan::Sort { input: Box::new(map_plan(*input, f)), keys, output_width }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(map_plan(*input, f)), n }
        }
        LogicalPlan::Union { inputs } => {
            LogicalPlan::Union { inputs: inputs.into_iter().map(|p| map_plan(p, f)).collect() }
        }
        leaf => leaf,
    };
    f(rebuilt)
}

// ---------------------------------------------------------------------------
// pushdown: predicate pushdown
// ---------------------------------------------------------------------------

fn pushdown(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = pushdown(*input, catalog)?;
            sink_filter(predicate, input, catalog)
        }
        LogicalPlan::Project { input, items, hidden } => {
            Ok(LogicalPlan::Project { input: Box::new(pushdown(*input, catalog)?), items, hidden })
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => Ok(LogicalPlan::Aggregate {
            input: Box::new(pushdown(*input, catalog)?),
            group_by,
            items,
            hidden,
        }),
        LogicalPlan::Join { left, right, kind, on, stats } => Ok(LogicalPlan::Join {
            left: Box::new(pushdown(*left, catalog)?),
            right: Box::new(pushdown(*right, catalog)?),
            kind,
            on,
            stats,
        }),
        LogicalPlan::Alias { input, alias } => {
            Ok(LogicalPlan::Alias { input: Box::new(pushdown(*input, catalog)?), alias })
        }
        LogicalPlan::Sort { input, keys, output_width } => Ok(LogicalPlan::Sort {
            input: Box::new(pushdown(*input, catalog)?),
            keys,
            output_width,
        }),
        LogicalPlan::Limit { input, n } => {
            Ok(LogicalPlan::Limit { input: Box::new(pushdown(*input, catalog)?), n })
        }
        LogicalPlan::Union { inputs } => Ok(LogicalPlan::Union {
            inputs: inputs.into_iter().map(|p| pushdown(p, catalog)).collect::<Result<_>>()?,
        }),
        leaf => Ok(leaf),
    }
}

/// Collects every column name referenced by an expression.
pub(crate) fn collect_columns(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Column(c) => out.push(c.clone()),
        Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        Expr::Unary { operand, .. } => collect_columns(operand, out),
        Expr::Function { args, .. } => args.iter().for_each(|a| collect_columns(a, out)),
        Expr::Index { container, index } => {
            collect_columns(container, out);
            collect_columns(index, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_columns(expr, out);
            list.iter().for_each(|e| collect_columns(e, out));
        }
        Expr::Between { expr, low, high, .. } => {
            collect_columns(expr, out);
            collect_columns(low, out);
            collect_columns(high, out);
        }
        Expr::IsNull { expr, .. } => collect_columns(expr, out),
        Expr::Case { when_then, else_expr } => {
            for (c, v) in when_then {
                collect_columns(c, out);
                collect_columns(v, out);
            }
            if let Some(e) = else_expr {
                collect_columns(e, out);
            }
        }
    }
}

fn contains_window(expr: &Expr) -> bool {
    match expr {
        Expr::Function { name, args } => is_window(name) || args.iter().any(contains_window),
        Expr::Binary { left, right, .. } => contains_window(left) || contains_window(right),
        Expr::Unary { operand, .. } => contains_window(operand),
        Expr::Index { container, index } => contains_window(container) || contains_window(index),
        Expr::InList { expr, list, .. } => {
            contains_window(expr) || list.iter().any(contains_window)
        }
        Expr::Between { expr, low, high, .. } => {
            contains_window(expr) || contains_window(low) || contains_window(high)
        }
        Expr::IsNull { expr, .. } => contains_window(expr),
        Expr::Case { when_then, else_expr } => {
            when_then.iter().any(|(c, v)| contains_window(c) || contains_window(v))
                || else_expr.as_ref().is_some_and(|e| contains_window(e))
        }
        Expr::Literal(_) | Expr::Column(_) => false,
    }
}

/// Rewrites column references via `f` (also used by the scan-aggregate
/// operator to substitute per-series constants into expressions).
pub(crate) fn map_columns(expr: Expr, f: &impl Fn(String) -> Expr) -> Expr {
    match expr {
        Expr::Column(c) => f(c),
        Expr::Literal(_) => expr,
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(map_columns(*left, f)),
            right: Box::new(map_columns(*right, f)),
        },
        Expr::Unary { op, operand } => {
            Expr::Unary { op, operand: Box::new(map_columns(*operand, f)) }
        }
        Expr::Function { name, args } => {
            Expr::Function { name, args: args.into_iter().map(|a| map_columns(a, f)).collect() }
        }
        Expr::Index { container, index } => Expr::Index {
            container: Box::new(map_columns(*container, f)),
            index: Box::new(map_columns(*index, f)),
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(map_columns(*expr, f)),
            list: list.into_iter().map(|e| map_columns(e, f)).collect(),
            negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(map_columns(*expr, f)),
            low: Box::new(map_columns(*low, f)),
            high: Box::new(map_columns(*high, f)),
            negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(map_columns(*expr, f)), negated }
        }
        Expr::Case { when_then, else_expr } => Expr::Case {
            when_then: when_then
                .into_iter()
                .map(|(c, v)| (map_columns(c, f), map_columns(v, f)))
                .collect(),
            else_expr: else_expr.map(|e| Box::new(map_columns(*e, f))),
        },
    }
}

/// Strips a leading `alias.` qualifier from column references.
fn strip_qualifier(expr: Expr, alias: &str) -> Expr {
    map_columns(expr, &|name| {
        if let Some((head, tail)) = name.split_once('.') {
            if head.eq_ignore_ascii_case(alias) {
                return Expr::Column(tail.to_string());
            }
        }
        Expr::Column(name)
    })
}

/// Sinks a filter predicate as deep as semantics allow.
fn sink_filter(pred: Expr, input: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(&pred, &mut conjuncts);

    match input {
        // Adjacent filters merge before sinking further.
        LogicalPlan::Filter { input, predicate } => {
            collect_conjuncts(&predicate, &mut conjuncts);
            // invariant: collect_conjuncts yields at least one conjunct
            sink_filter(conjoin(conjuncts).expect("non-empty"), *input, catalog)
        }

        // Alias is a pure rename: strip the qualifier and continue below.
        LogicalPlan::Alias { input, alias } => {
            let stripped: Vec<Expr> =
                conjuncts.into_iter().map(|c| strip_qualifier(c, &alias)).collect();
            Ok(LogicalPlan::Alias {
                input: Box::new(sink_filter(
                    conjoin(stripped).expect("non-empty"), // invariant: collect_conjuncts yields at least one conjunct
                    *input,
                    catalog,
                )?),
                alias,
            })
        }

        // Joins: route side-pure conjuncts to their side.
        LogicalPlan::Join { left, right, kind, on, stats } => {
            let left_schema = left.schema(catalog)?;
            let right_schema = right.schema(catalog)?;
            let mut combined_cols = left_schema.columns().to_vec();
            combined_cols.extend(right_schema.columns().iter().cloned());
            let combined = Schema::new(combined_cols);

            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                if c.contains_aggregate() || contains_window(&c) {
                    keep.push(c);
                    continue;
                }
                let mut cols = Vec::new();
                collect_columns(&c, &mut cols);
                // Unresolvable or ambiguous references stay above the join
                // so the runtime error surface is unchanged.
                if cols.iter().any(|n| combined.resolve(n).is_err()) {
                    keep.push(c);
                    continue;
                }
                let all_left = cols.iter().all(|n| left_schema.resolve(n).is_ok());
                let all_right = cols.iter().all(|n| right_schema.resolve(n).is_ok());
                // A LEFT/FULL OUTER join null-extends, so only sides whose
                // rows cannot be fabricated by the join accept pushdown.
                let left_ok = kind != JoinKind::FullOuter;
                let right_ok = kind == JoinKind::Inner;
                if all_left && !all_right && left_ok && !cols.is_empty() {
                    to_left.push(c);
                } else if all_right && !all_left && right_ok && !cols.is_empty() {
                    to_right.push(c);
                } else {
                    keep.push(c);
                }
            }
            let mut left = *left;
            if let Some(p) = conjoin(to_left) {
                left = sink_filter(p, left, catalog)?;
            }
            let mut right = *right;
            if let Some(p) = conjoin(to_right) {
                right = sink_filter(p, right, catalog)?;
            }
            let joined =
                LogicalPlan::Join { left: Box::new(left), right: Box::new(right), kind, on, stats };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter { input: Box::new(joined), predicate: p },
                None => joined,
            })
        }

        // Projections: substitute aliases, then continue below.
        LogicalPlan::Project { input, items, hidden } => {
            // A window function anywhere in the projection reads the whole
            // input row set; filtering below it would shrink that window
            // and change its results, so nothing may sink through.
            let has_window = items.iter().map(|(e, _)| e).chain(hidden.iter()).any(contains_window);
            if has_window {
                return Ok(LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Project { input, items, hidden }),
                    predicate: conjoin(conjuncts).expect("non-empty"), // invariant: collect_conjuncts yields at least one conjunct
                });
            }
            let out_names = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
            let mut push = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                collect_columns(&c, &mut cols);
                let substitutable =
                    !cols.is_empty() && cols.iter().all(|n| out_names.resolve(n).is_ok());
                if substitutable && !c.contains_aggregate() && !contains_window(&c) {
                    let rewritten = map_columns(c, &|name| {
                        let i = out_names.resolve(&name).expect("checked resolvable"); // invariant: the substitutable filter above resolved every column
                        items[i].0.clone()
                    });
                    push.push(rewritten);
                } else {
                    keep.push(c);
                }
            }
            let mut inner = *input;
            if let Some(p) = conjoin(push) {
                inner = sink_filter(p, inner, catalog)?;
            }
            let projected = LogicalPlan::Project { input: Box::new(inner), items, hidden };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter { input: Box::new(projected), predicate: p },
                None => projected,
            })
        }

        // Aggregates: only conjuncts over pure group keys sink below.
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let out_names = Schema::new(items.iter().map(|(_, n)| n.clone()).collect());
            let mut push = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                collect_columns(&c, &mut cols);
                let key_backed = !cols.is_empty()
                    && cols.iter().all(|n| {
                        out_names
                            .resolve(n)
                            .is_ok_and(|i| group_by.iter().any(|g| *g == items[i].0))
                    });
                if key_backed && !c.contains_aggregate() && !contains_window(&c) {
                    let rewritten = map_columns(c, &|name| {
                        let i = out_names.resolve(&name).expect("checked resolvable"); // invariant: the key_backed filter above resolved every column
                        items[i].0.clone()
                    });
                    push.push(rewritten);
                } else {
                    keep.push(c);
                }
            }
            let mut inner = *input;
            if let Some(p) = conjoin(push) {
                inner = sink_filter(p, inner, catalog)?;
            }
            let agg = LogicalPlan::Aggregate { input: Box::new(inner), group_by, items, hidden };
            Ok(match conjoin(keep) {
                Some(p) => LogicalPlan::Filter { input: Box::new(agg), predicate: p },
                None => agg,
            })
        }

        // The payoff: absorb conjuncts into the TSDB scan's index lookup.
        LogicalPlan::TsdbScan { table, mut name, mut tags, mut start, mut end, columns } => {
            let schema =
                Schema::new(crate::plan::TSDB_COLUMNS.iter().map(|s| s.to_string()).collect());
            let mut residual = Vec::new();
            for c in conjuncts {
                if !absorb_tsdb_conjunct(&c, &schema, &mut name, &mut tags, &mut start, &mut end) {
                    residual.push(c);
                }
            }
            // Cost-ordered residual chain, three
            // classes innermost-out: (0) conjuncts over the per-series-
            // constant dictionary columns — the scan-aggregate operator
            // evaluates those once per series and can drop a whole series
            // before any per-point work; (1) kernel-refinable point
            // predicates — comparisons/BETWEEN/IS NULL/IN of `timestamp`/
            // `value` against literals, which refine the selection vector
            // branch-free straight off the raw point slices; (2) general
            // expressions, which pay a gather + vectorized mask. The sort
            // is stable, so equal-cost conjuncts keep their source order,
            // and conjunction commutes, so the kept row set is unchanged.
            residual.sort_by_key(|c| {
                if refs_within(c, &schema, &[1, 2]) {
                    0usize
                } else if crate::veval::span_refinable(c, &schema) {
                    1
                } else {
                    2
                }
            });
            let mut plan = LogicalPlan::TsdbScan { table, name, tags, start, end, columns };
            // Wrap innermost-first: the first residual becomes the deepest
            // Filter, which every executor path applies first.
            for predicate in residual {
                plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
            }
            Ok(plan)
        }

        other => Ok(LogicalPlan::Filter {
            input: Box::new(other),
            predicate: conjoin(conjuncts).expect("non-empty"), // invariant: collect_conjuncts yields at least one conjunct
        }),
    }
}

/// True when `expr` is a reference to the named observation column.
fn is_tsdb_col(expr: &Expr, schema: &Schema, want: usize) -> bool {
    matches!(expr, Expr::Column(c) if schema.resolve(c).is_ok_and(|i| i == want))
}

/// `tag['k']` accessor detection; returns the key.
fn tag_access<'e>(expr: &'e Expr, schema: &Schema) -> Option<&'e str> {
    if let Expr::Index { container, index } = expr {
        if is_tsdb_col(container, schema, 2) {
            if let Expr::Literal(Value::Str(k)) = index.as_ref() {
                return Some(k);
            }
        }
    }
    None
}

fn lit_int(expr: &Expr) -> Option<i64> {
    match expr {
        Expr::Literal(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

fn tighten_start(start: &mut Option<i64>, lo: i64) {
    *start = Some(start.map_or(lo, |s| s.max(lo)));
}

fn tighten_end(end: &mut Option<i64>, hi: i64) {
    *end = Some(end.map_or(hi, |e| e.min(hi)));
}

/// Tries to fold one conjunct into the scan's pushed-down predicates.
/// Returns false when the conjunct must stay as a residual filter.
fn absorb_tsdb_conjunct(
    c: &Expr,
    schema: &Schema,
    name: &mut Option<String>,
    tags: &mut Vec<TagFilter>,
    start: &mut Option<i64>,
    end: &mut Option<i64>,
) -> bool {
    match c {
        Expr::Binary { op: BinaryOp::Eq, left, right } => {
            let (col_side, lit_side) = if matches!(right.as_ref(), Expr::Literal(_)) {
                (left, right)
            } else {
                (right, left)
            };
            // metric_name = 'x'
            if is_tsdb_col(col_side, schema, 1) {
                if let Expr::Literal(Value::Str(s)) = lit_side.as_ref() {
                    if name.is_none() {
                        *name = Some(s.clone());
                        return true;
                    }
                    return false; // second name constraint stays residual
                }
            }
            // tag['k'] = 'v'
            if let Some(k) = tag_access(col_side, schema) {
                if let Expr::Literal(Value::Str(v)) = lit_side.as_ref() {
                    tags.push(TagFilter::Equals(k.to_string(), v.clone()));
                    return true;
                }
            }
            // timestamp = n
            if is_tsdb_col(col_side, schema, 0) {
                if let Some(n) = lit_int(lit_side) {
                    tighten_start(start, n);
                    tighten_end(end, n);
                    return true;
                }
            }
            false
        }
        // metric_name/tag['k'] GLOB 'pat' (and LIKE, translated to glob):
        // the store's find() range-scans the name index over the pattern's
        // literal prefix; tag globs become TagFilter::Glob predicates.
        Expr::Binary { op: op @ (BinaryOp::Like | BinaryOp::Glob), left, right } => {
            let Expr::Literal(Value::Str(pat)) = right.as_ref() else {
                return false;
            };
            let glob_pat = match op {
                BinaryOp::Glob => pat.clone(),
                _ => {
                    // LIKE: `%` ≙ `*`, `_` ≙ `?` (identical matchers).
                    // Literal glob metacharacters in the pattern would
                    // change meaning, so such patterns stay residual.
                    if pat.contains('*') || pat.contains('?') {
                        return false;
                    }
                    pat.replace('%', "*").replace('_', "?")
                }
            };
            if is_tsdb_col(left, schema, 1) {
                if name.is_none() {
                    *name = Some(glob_pat);
                    return true;
                }
                return false;
            }
            if let Some(k) = tag_access(left, schema) {
                // Row semantics match exactly: a missing tag key makes the
                // row predicate NULL (dropped), and TagFilter::Glob
                // requires the key to exist.
                tags.push(TagFilter::Glob(k.to_string(), glob_pat));
                return true;
            }
            false
        }
        // timestamp BETWEEN a AND b (inclusive)
        Expr::Between { expr, low, high, negated: false } => {
            if is_tsdb_col(expr, schema, 0) {
                if let (Some(a), Some(b)) = (lit_int(low), lit_int(high)) {
                    tighten_start(start, a);
                    tighten_end(end, b);
                    return true;
                }
            }
            false
        }
        // timestamp </<=/>/>= n, either operand order.
        Expr::Binary { op, left, right }
            if matches!(op, BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq) =>
        {
            let (col_first, col, lit) = if is_tsdb_col(left, schema, 0) {
                (true, left, right)
            } else if is_tsdb_col(right, schema, 0) {
                (false, right, left)
            } else {
                return false;
            };
            let _ = col;
            let Some(n) = lit_int(lit) else { return false };
            // Normalize to "timestamp OP n".
            let op = if col_first {
                *op
            } else {
                match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    _ => unreachable!(),
                }
            };
            match op {
                BinaryOp::GtEq => tighten_start(start, n),
                // `timestamp > i64::MAX` / `< i64::MIN` are unsatisfiable;
                // saturating the strict bound would silently re-admit the
                // extreme point, so force an inverted (empty) range instead.
                BinaryOp::Gt => match n.checked_add(1) {
                    Some(lo) => tighten_start(start, lo),
                    None => {
                        tighten_start(start, i64::MAX);
                        tighten_end(end, i64::MIN);
                    }
                },
                BinaryOp::LtEq => tighten_end(end, n),
                BinaryOp::Lt => match n.checked_sub(1) {
                    Some(hi) => tighten_end(end, hi),
                    None => {
                        tighten_start(start, i64::MAX);
                        tighten_end(end, i64::MIN);
                    }
                },
                _ => unreachable!(),
            }
            true
        }
        // tag['k'] IS NULL / IS NOT NULL -> tag-key absence / presence.
        Expr::IsNull { expr, negated } => {
            if let Some(k) = tag_access(expr, schema) {
                tags.push(if *negated {
                    TagFilter::HasKey(k.to_string())
                } else {
                    TagFilter::Absent(k.to_string())
                });
                return true;
            }
            false
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// prune: projection pruning (TSDB scans)
// ---------------------------------------------------------------------------

/// Pushes the set of referenced column names down to TSDB scans, which then
/// materialize only those observation columns. `None` = everything.
fn prune(plan: LogicalPlan, needs: Option<HashSet<String>>) -> LogicalPlan {
    match plan {
        LogicalPlan::Project { input, items, hidden } => {
            let mut cols = Vec::new();
            for (e, _) in &items {
                collect_columns(e, &mut cols);
            }
            for e in &hidden {
                collect_columns(e, &mut cols);
            }
            let needs = Some(cols.into_iter().collect());
            LogicalPlan::Project { input: Box::new(prune(*input, needs)), items, hidden }
        }
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            let mut cols = Vec::new();
            for e in group_by.iter().chain(hidden.iter()) {
                collect_columns(e, &mut cols);
            }
            for (e, _) in &items {
                collect_columns(e, &mut cols);
            }
            let needs = Some(cols.into_iter().collect());
            LogicalPlan::Aggregate {
                input: Box::new(prune(*input, needs)),
                group_by,
                items,
                hidden,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let needs = needs.map(|mut n| {
                let mut cols = Vec::new();
                collect_columns(&predicate, &mut cols);
                n.extend(cols);
                n
            });
            LogicalPlan::Filter { input: Box::new(prune(*input, needs)), predicate }
        }
        LogicalPlan::Alias { input, alias } => {
            let needs = needs.map(|n| {
                n.into_iter()
                    .map(|name| match name.split_once('.') {
                        Some((head, tail)) if head.eq_ignore_ascii_case(&alias) => tail.to_string(),
                        _ => name,
                    })
                    .collect()
            });
            LogicalPlan::Alias { input: Box::new(prune(*input, needs)), alias }
        }
        LogicalPlan::Join { left, right, kind, on, stats } => {
            let needs = needs.map(|mut n| {
                let mut cols = Vec::new();
                collect_columns(&on, &mut cols);
                n.extend(cols);
                n
            });
            LogicalPlan::Join {
                left: Box::new(prune(*left, needs.clone())),
                right: Box::new(prune(*right, needs)),
                kind,
                on,
                stats,
            }
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            LogicalPlan::Sort { input: Box::new(prune(*input, needs)), keys, output_width }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(prune(*input, needs)), n }
        }
        LogicalPlan::Union { inputs } => LogicalPlan::Union {
            // Positional name mapping across branches is fragile; keep all.
            inputs: inputs.into_iter().map(|p| prune(p, None)).collect(),
        },
        LogicalPlan::TsdbScan { table, name, tags, start, end, columns } => {
            let columns = match needs {
                None => columns,
                Some(needs) => {
                    let schema = Schema::new(
                        crate::plan::TSDB_COLUMNS.iter().map(|s| s.to_string()).collect(),
                    );
                    let mut keep: Vec<usize> =
                        needs.iter().filter_map(|n| schema.resolve(n).ok()).collect();
                    keep.sort_unstable();
                    keep.dedup();
                    if keep.len() == crate::plan::TSDB_COLUMNS.len() {
                        None
                    } else if keep.is_empty() {
                        // COUNT(*)-style plans still need the row count;
                        // keep the cheapest column.
                        Some(vec![0])
                    } else {
                        Some(keep)
                    }
                }
            };
            LogicalPlan::TsdbScan { table, name, tags, start, end, columns }
        }
        leaf @ (LogicalPlan::Scan { .. }
        | LogicalPlan::Unit
        | LogicalPlan::ScanAggregate { .. }) => leaf,
    }
}

// ---------------------------------------------------------------------------
// annotate_join_stats: join-side statistics
// ---------------------------------------------------------------------------

/// Attaches per-side row estimates (and the hash build side they imply) to
/// every `Join` node. Runs after pushdown/pruning so the estimates see the
/// final scan predicates. Purely advisory: the executor's output is
/// bit-identical whichever side it builds on.
fn annotate_join_stats(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    map_plan(plan, &|node| match node {
        LogicalPlan::Join { left, right, kind, on, .. } => {
            let stats = match (
                crate::plan::estimate_rows(&left, catalog),
                crate::plan::estimate_rows(&right, catalog),
            ) {
                (Some(l), Some(r)) => {
                    Some(crate::plan::JoinStats { left_rows: l, right_rows: r, build_left: l < r })
                }
                _ => None,
            };
            LogicalPlan::Join { left, right, kind, on, stats }
        }
        other => other,
    })
}

// ---------------------------------------------------------------------------
// scan_aggregate: scan-level aggregate pushdown
// ---------------------------------------------------------------------------

/// Walks the straight-line spine of the plan converting eligible
/// `Aggregate → Filter* → TsdbScan` chains into
/// [`LogicalPlan::ScanAggregate`]. The rewrite deliberately does *not*
/// descend into `Join` sides or `Union` branches: those contexts fall back
/// to the ordinary pipeline (asserted by the plan-shape tests).
fn push_aggregates_into_scans(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(push_aggregates_into_scans(*input)), predicate }
        }
        LogicalPlan::Project { input, items, hidden } => LogicalPlan::Project {
            input: Box::new(push_aggregates_into_scans(*input)),
            items,
            hidden,
        },
        LogicalPlan::Aggregate { input, group_by, items, hidden } => {
            if scan_aggregate_eligible(&input, &group_by, &items, &hidden) {
                convert_scan_aggregate(*input, group_by, items, hidden)
            } else {
                LogicalPlan::Aggregate {
                    input: Box::new(push_aggregates_into_scans(*input)),
                    group_by,
                    items,
                    hidden,
                }
            }
        }
        LogicalPlan::Alias { input, alias } => {
            LogicalPlan::Alias { input: Box::new(push_aggregates_into_scans(*input)), alias }
        }
        LogicalPlan::Sort { input, keys, output_width } => LogicalPlan::Sort {
            input: Box::new(push_aggregates_into_scans(*input)),
            keys,
            output_width,
        },
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(push_aggregates_into_scans(*input)), n }
        }
        other => other,
    }
}

/// Collapses an aggregate whose input [`scan_aggregate_eligible`] accepted.
fn convert_scan_aggregate(
    input: LogicalPlan,
    group_by: Vec<Expr>,
    items: Vec<(Expr, String)>,
    hidden: Vec<Expr>,
) -> LogicalPlan {
    // Peel the (vectorizable) filter chain, outermost first.
    let mut filters = Vec::new();
    let mut cur = input;
    loop {
        match cur {
            LogicalPlan::Filter { input, predicate } => {
                filters.push(predicate);
                cur = *input;
            }
            other => {
                cur = other;
                break;
            }
        }
    }
    let LogicalPlan::TsdbScan { table, name, tags, start, end, .. } = cur else {
        unreachable!("eligibility checked the source");
    };
    LogicalPlan::ScanAggregate { table, name, tags, start, end, filters, group_by, items, hidden }
}

fn tsdb_schema() -> Schema {
    Schema::new(TSDB_COLUMNS.iter().map(|s| s.to_string()).collect())
}

/// Splits a `Filter` chain off a plan without the vectorizability check.
fn peel_filter_chain(mut plan: &LogicalPlan) -> (Vec<&Expr>, &LogicalPlan) {
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

/// True when every column reference of `expr` resolves in the observation
/// schema to one of the `allowed` indices.
fn refs_within(expr: &Expr, schema: &Schema, allowed: &[usize]) -> bool {
    let mut cols = Vec::new();
    collect_columns(expr, &mut cols);
    cols.iter().all(|c| schema.resolve(c).is_ok_and(|i| allowed.contains(&i)))
}

/// True when `expr` is a bare reference to observation column `want`.
fn is_obs_column(expr: &Expr, schema: &Schema, want: usize) -> bool {
    matches!(expr, Expr::Column(c) if schema.resolve(c).is_ok_and(|i| i == want))
}

/// True when every reference to the raw `tag` map column sits under an
/// index access (`tag['k']`). A bare `tag` feeding MIN/MAX would make the
/// fold depend on accumulation order (maps are mutually incomparable under
/// `sql_cmp`), which the series-major scan aggregate cannot reproduce.
fn bare_tag_free(expr: &Expr, schema: &Schema) -> bool {
    match expr {
        Expr::Column(c) => !schema.resolve(c).is_ok_and(|i| i == 2),
        Expr::Literal(_) => true,
        Expr::Index { container, index } => {
            let container_ok = match container.as_ref() {
                Expr::Column(c) if schema.resolve(c).is_ok_and(|i| i == 2) => true,
                other => bare_tag_free(other, schema),
            };
            container_ok && bare_tag_free(index, schema)
        }
        Expr::Binary { left, right, .. } => {
            bare_tag_free(left, schema) && bare_tag_free(right, schema)
        }
        Expr::Unary { operand, .. } => bare_tag_free(operand, schema),
        Expr::Function { args, .. } => args.iter().all(|a| bare_tag_free(a, schema)),
        Expr::InList { expr, list, .. } => {
            bare_tag_free(expr, schema) && list.iter().all(|e| bare_tag_free(e, schema))
        }
        Expr::Between { expr, low, high, .. } => {
            bare_tag_free(expr, schema) && bare_tag_free(low, schema) && bare_tag_free(high, schema)
        }
        Expr::IsNull { expr, .. } => bare_tag_free(expr, schema),
        Expr::Case { when_then, else_expr } => {
            when_then.iter().all(|(c, v)| bare_tag_free(c, schema) && bare_tag_free(v, schema))
                && else_expr.as_ref().is_none_or(|e| bare_tag_free(e, schema))
        }
    }
}

/// The eligibility analysis for `scan_aggregate`: the pipeline must reach a
/// `TsdbScan` through vectorizable filters over observation columns, every
/// group key must be the `timestamp` column (at most once) or an
/// expression over the dictionary-encoded columns, and every output must
/// be a group key or a plain mergeable aggregate call whose arguments are
/// vectorizable expressions over observation columns.
pub(crate) fn scan_aggregate_eligible(
    input: &LogicalPlan,
    group_by: &[Expr],
    items: &[(Expr, String)],
    hidden: &[Expr],
) -> bool {
    let (filters, source) = peel_filter_chain(input);
    if !matches!(source, LogicalPlan::TsdbScan { .. }) {
        return false;
    }
    let schema = tsdb_schema();
    let all_cols = [0usize, 1, 2, 3];
    if !filters.iter().all(|p| veval::supported(p) && refs_within(p, &schema, &all_cols)) {
        return false;
    }
    let mut saw_ts = false;
    for g in group_by {
        if is_obs_column(g, &schema, 0) {
            if saw_ts {
                return false; // a duplicated timestamp key stays on the row engine
            }
            saw_ts = true;
            continue;
        }
        // Dictionary-encoded group key: vectorizable, referencing only
        // metric_name / tag (column-free constants also qualify).
        if !(veval::supported(g) && refs_within(g, &schema, &[1, 2])) {
            return false;
        }
    }
    items.iter().map(|(e, _)| e).chain(hidden.iter()).all(|e| {
        if group_by.iter().any(|g| g == e) {
            return true;
        }
        match e {
            Expr::Function { name, args } => {
                if !is_aggregate(name)
                    || !args
                        .iter()
                        .all(|a| veval::supported(a) && refs_within(a, &schema, &all_cols))
                {
                    return false;
                }
                if matches!(name.as_str(), "MIN" | "MAX") {
                    if !args.iter().all(|a| bare_tag_free(a, &schema)) {
                        return false;
                    }
                    // MIN/MAX folds are order-dependent when the input
                    // stream is not totally ordered (NaN values, mixed
                    // classes): the serial engines accumulate in row
                    // order, the scan aggregate series-major. With a
                    // timestamp group key the two orders coincide (each
                    // group's rows share one timestamp and arrive in
                    // series-rank order); without one, only streams with
                    // a guaranteed total order stay eligible — the Int
                    // timestamp column or per-series-constant dictionary
                    // expressions (Str/Bool/NULL, never NaN). A bare
                    // `value` (or computed float) stream falls back.
                    if !saw_ts
                        && !args.iter().all(|a| {
                            is_obs_column(a, &schema, 0) || refs_within(a, &schema, &[1, 2])
                        })
                    {
                        return false;
                    }
                }
                true
            }
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::build;
    use crate::table::Table;
    use explainit_tsdb::{SeriesKey, Tsdb};

    fn tsdb_catalog() -> Catalog {
        let mut db = Tsdb::new();
        let key = SeriesKey::new("cpu").with_tag("host", "web-1");
        db.insert(&key, 0, 1.0);
        db.insert(&key, 60, 2.0);
        let mut c = Catalog::new();
        c.register_tsdb("tsdb", &db);
        c.register("plain", Table::from_rows(&["x"], vec![vec![Value::Int(1)]]));
        c
    }

    fn optimized(c: &Catalog, sql: &str) -> LogicalPlan {
        let q = parse_query(sql).unwrap();
        optimize(build(c, &q).unwrap(), c).unwrap()
    }

    #[test]
    fn constant_folding_collapses_literals() {
        assert_eq!(
            fold_expr(Expr::Binary {
                op: BinaryOp::Add,
                left: Box::new(Expr::lit(1i64)),
                right: Box::new(Expr::lit(2i64)),
            }),
            Expr::lit(3i64)
        );
        // TRUE AND x simplifies structurally.
        assert_eq!(
            fold_expr(Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(Expr::lit(true)),
                right: Box::new(Expr::col("v")),
            }),
            Expr::col("v")
        );
        // Runtime errors are not folded away.
        let bad = Expr::Binary {
            op: BinaryOp::Add,
            left: Box::new(Expr::lit("a")),
            right: Box::new(Expr::Literal(Value::Map(Default::default()))),
        };
        assert_eq!(fold_expr(bad.clone()), bad);
    }

    #[test]
    fn tsdb_scan_absorbs_name_tag_and_time() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT value FROM tsdb WHERE metric_name = 'cpu' AND tag['host'] = 'web-1' \
             AND timestamp BETWEEN 0 AND 100",
        );
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::TsdbScan { name, tags, start, end, .. } = *input else {
            panic!("expected tsdb scan, got {input:?}")
        };
        assert_eq!(name.as_deref(), Some("cpu"));
        assert_eq!(tags, vec![TagFilter::Equals("host".into(), "web-1".into())]);
        assert_eq!((start, end), (Some(0), Some(100)));
    }

    #[test]
    fn tsdb_residual_keeps_unpushable_conjuncts() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT value FROM tsdb WHERE metric_name = 'cpu' AND value > 1.5");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::Filter { input, predicate } = *input else {
            panic!("expected residual filter, got {input:?}")
        };
        assert!(
            matches!(*input, LogicalPlan::TsdbScan { ref name, .. } if name.as_deref() == Some("cpu"))
        );
        let mut cols = Vec::new();
        collect_columns(&predicate, &mut cols);
        assert_eq!(cols, vec!["value".to_string()]);
    }

    #[test]
    fn tag_null_checks_become_index_predicates() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] IS NOT NULL");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::TsdbScan { tags, .. } = *input else { panic!("expected scan") };
        assert_eq!(tags, vec![TagFilter::HasKey("host".into())]);
    }

    #[test]
    fn timestamp_comparisons_tighten_range() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT value FROM tsdb WHERE timestamp >= 10 AND timestamp < 50 AND 20 <= timestamp",
        );
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::TsdbScan { start, end, .. } = *input else { panic!("expected scan") };
        assert_eq!((start, end), (Some(20), Some(49)));
    }

    #[test]
    fn pruning_drops_unreferenced_scan_columns() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu'");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::TsdbScan { columns, .. } = *input else { panic!("expected scan") };
        // metric_name was absorbed into the scan filter, so only
        // timestamp + value survive; the tag maps are never cloned.
        assert_eq!(columns, Some(vec![0, 3]));
    }

    #[test]
    fn filter_splits_across_inner_join() {
        let mut c = tsdb_catalog();
        c.register("l", Table::from_rows(&["k", "a"], vec![]));
        c.register("r", Table::from_rows(&["k", "b"], vec![]));
        let p = optimized(&c, "SELECT l.a FROM l JOIN r ON l.k = r.k WHERE l.a > 1 AND r.b < 2");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::Join { left, right, .. } = *input else {
            panic!("expected join on top (filters pushed), got {input:?}")
        };
        // Both sides got their conjunct (below the Alias nodes).
        let LogicalPlan::Alias { input: li, .. } = *left else { panic!("expected alias") };
        assert!(matches!(*li, LogicalPlan::Filter { .. }));
        let LogicalPlan::Alias { input: ri, .. } = *right else { panic!("expected alias") };
        assert!(matches!(*ri, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn left_join_does_not_push_into_right_side() {
        let mut c = tsdb_catalog();
        c.register("l", Table::from_rows(&["k", "a"], vec![]));
        c.register("r", Table::from_rows(&["k", "b"], vec![]));
        let p = optimized(&c, "SELECT l.a FROM l LEFT JOIN r ON l.k = r.k WHERE r.b < 2");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        assert!(
            matches!(*input, LogicalPlan::Filter { .. }),
            "right-side conjunct must stay above a LEFT join"
        );
    }

    #[test]
    fn filter_pushes_through_subquery_projection() {
        let c = tsdb_catalog();
        let p = optimized(&c, "SELECT y FROM (SELECT x AS y FROM plain) s WHERE y > 0");
        // The filter must sit below the subquery's Project, directly on the
        // scan, rewritten in terms of x.
        let LogicalPlan::Project { input: outer, .. } = p else { panic!("expected project") };
        let LogicalPlan::Project { input, .. } = *outer else { panic!("expected inner project") };
        let LogicalPlan::Filter { predicate, input } = *input else {
            panic!("expected pushed filter, got {input:?}")
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
        let mut cols = Vec::new();
        collect_columns(&predicate, &mut cols);
        assert_eq!(cols, vec!["x".to_string()]);
    }

    #[test]
    fn filter_never_sinks_through_window_projections() {
        let c = tsdb_catalog();
        // LAG reads the whole input row set; pushing `k > 0` below the
        // projection would shrink its window and change results.
        let p = optimized(
            &c,
            "SELECT prev FROM (SELECT x AS k, LAG(x) AS prev FROM plain) s WHERE k > 0",
        );
        let LogicalPlan::Project { input: outer, .. } = p else { panic!("expected project") };
        let LogicalPlan::Filter { input, .. } = *outer else {
            panic!("filter must stay above the window projection, got {outer:?}")
        };
        let LogicalPlan::Project { input, .. } = *input else { panic!("expected inner project") };
        assert!(matches!(*input, LogicalPlan::Scan { .. }), "nothing may sink below");
    }

    #[test]
    fn glob_and_like_patterns_push_into_the_scan() {
        let c = tsdb_catalog();
        // metric_name GLOB with a literal prefix becomes the scan's name
        // pattern (served by a name-index range scan in the store).
        let p = optimized(&c, "SELECT value FROM tsdb WHERE metric_name GLOB 'c*'");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::TsdbScan { name, .. } = *input else {
            panic!("expected scan, got {input:?}")
        };
        assert_eq!(name.as_deref(), Some("c*"));

        // tag['k'] LIKE translates %/_ to */? and lands in the tag filters.
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] LIKE 'web-%'");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        let LogicalPlan::TsdbScan { tags, .. } = *input else { panic!("expected scan") };
        assert_eq!(tags, vec![TagFilter::Glob("host".into(), "web-*".into())]);

        // A LIKE pattern containing literal glob metacharacters must stay
        // a residual filter (translation would change its meaning).
        let p = optimized(&c, "SELECT value FROM tsdb WHERE tag['host'] LIKE 'w*b%'");
        let LogicalPlan::Project { input, .. } = p else { panic!("expected project") };
        assert!(matches!(*input, LogicalPlan::Filter { .. }), "expected residual, got {input:?}");
    }

    #[test]
    fn scan_aggregate_collapses_mergeable_aggregates() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT timestamp, AVG(value) AS m, COUNT(*) AS n FROM tsdb \
             WHERE metric_name = 'cpu' GROUP BY timestamp",
        );
        assert!(matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
    }

    #[test]
    fn scan_aggregate_absorbs_filters_and_scan_predicates() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT timestamp, tag['host'] AS h, AVG(value) AS m FROM tsdb \
             WHERE metric_name = 'cpu' AND timestamp BETWEEN 0 AND 100 AND value > 0.5 \
             GROUP BY timestamp, tag['host']",
        );
        let LogicalPlan::ScanAggregate { name, start, end, filters, group_by, .. } = p else {
            panic!("expected scan aggregate, got {p:?}")
        };
        assert_eq!(name.as_deref(), Some("cpu"));
        assert_eq!((start, end), (Some(0), Some(100)));
        assert_eq!(filters.len(), 1, "the value conjunct stays residual");
        assert_eq!(group_by.len(), 2);
    }

    #[test]
    fn scan_aggregate_falls_back_for_ineligible_shapes() {
        let c = tsdb_catalog();
        // A `value` group key is not dictionary-encoded.
        let p = optimized(&c, "SELECT value, COUNT(*) AS n FROM tsdb GROUP BY value");
        assert!(!matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
        // Non-mergeable output expressions stay on the row engines.
        let p = optimized(&c, "SELECT AVG(value) * 2 AS m FROM tsdb GROUP BY timestamp");
        assert!(!matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
        // MIN over the raw tag map would be accumulation-order dependent.
        let p = optimized(&c, "SELECT MIN(tag) AS t FROM tsdb GROUP BY timestamp");
        assert!(!matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
        // ...but MIN over an indexed tag is fine.
        let p = optimized(&c, "SELECT MIN(tag['host']) AS h FROM tsdb GROUP BY timestamp");
        assert!(matches!(p, LogicalPlan::ScanAggregate { .. }), "got {p:?}");
    }

    #[test]
    fn aggregate_only_passes_group_key_conjuncts() {
        let c = tsdb_catalog();
        let p = optimized(
            &c,
            "SELECT m FROM (SELECT x AS k, AVG(x) AS m FROM plain GROUP BY x) s WHERE m > 0 AND k = 1",
        );
        // k = 1 (a group key) sinks below the aggregate; m > 0 stays above.
        let LogicalPlan::Project { input: outer, .. } = p else { panic!("expected project") };
        let LogicalPlan::Filter { predicate, input } = *outer else { panic!("expected filter") };
        let mut cols = Vec::new();
        collect_columns(&predicate, &mut cols);
        assert_eq!(cols, vec!["m".to_string()]);
        let LogicalPlan::Aggregate { input, .. } = *input else { panic!("expected aggregate") };
        assert!(matches!(*input, LogicalPlan::Filter { .. }), "group-key conjunct pushed below");
    }
}
