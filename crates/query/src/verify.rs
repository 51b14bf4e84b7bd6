//! Optimizer invariant verifier: structural checks that run after *each*
//! rewrite rule of [`crate::optimize`].
//!
//! Every rule in the optimizer is result-preserving by design, but that
//! contract lives in comments and in the differential suite — neither of
//! which points at the *rule* that broke it when a rewrite regresses. This
//! module closes that gap: [`check_after`] re-derives the eligibility
//! analysis each shape-changing rule relied on and fails fast, naming the
//! rule, when the rewritten tree no longer satisfies it.
//!
//! The verifier runs:
//!
//! * always under `debug_assertions` (so `cargo test` exercises it across
//!   the whole differential and plan-shape corpus),
//! * in release builds when [`crate::optimize::OptimizeOptions::verify`]
//!   is set or the `EXPLAINIT_VERIFY_PLANS` environment variable is
//!   non-`0` (the CI release-mode differential job sets it).
//!
//! Checks, in tree order:
//!
//! 1. **Schema preservation** — the optimized root must expose exactly the
//!    column names the planned root did. Skipped when either schema cannot
//!    be resolved (unit tests optimize plans over detached catalogs).
//! 2. **ScanAggregate re-eligibility** — every [`LogicalPlan::ScanAggregate`]
//!    is expanded back into the `Aggregate → Filter* → TsdbScan` chain it
//!    came from and re-run through the `scan_aggregate` eligibility
//!    analysis ([`crate::optimize::scan_aggregate_eligible`]): mergeable
//!    aggregates only, dictionary/timestamp group keys, the NaN
//!    `MIN`/`MAX` ordering rule, vectorizable filters.
//! 3. **Residual filter chains** — a `Filter` chain left directly above a
//!    `TsdbScan` must reference only columns the (possibly pruned) scan
//!    still produces, and must keep `pushdown`'s cost classes sorted:
//!    per-series dictionary predicates innermost, kernel-refinable point
//!    predicates next, general expressions outermost. (Only enforced once
//!    `pushdown` has run — the planner's raw WHERE chain predates the
//!    ordering.)
//! 4. **Sort key bounds** — every sort key indexes a real column of the
//!    extended (visible + hidden) child output, and the visible width
//!    never exceeds the extended width.
//! 5. **Union shape** — a `Union` node keeps at least one branch.
//!
//! Violations surface as [`QueryError::Plan`] with the message prefix
//! `optimizer invariant violated after <rule>:`.

use explainit_sync::{LockClass, OnceLock};

use crate::ast::Expr;
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::optimize::{collect_columns, scan_aggregate_eligible};
use crate::plan::{LogicalPlan, TSDB_COLUMNS};
use crate::table::Schema;
use crate::veval;
use crate::Result;

/// True when `EXPLAINIT_VERIFY_PLANS` forces verification on (cached — the
/// environment is read once per process).
pub(crate) fn env_forced() -> bool {
    static FORCED_CLASS: LockClass = LockClass::new("query.verify.forced", 15);
    static FORCED: OnceLock<bool> = OnceLock::new(&FORCED_CLASS);
    *FORCED.get_or_init(|| std::env::var_os("EXPLAINIT_VERIFY_PLANS").is_some_and(|v| v != "0"))
}

/// Verifies every invariant on an optimized plan, independent of any
/// particular rule. Public entry point for tests and tools; the optimizer
/// itself calls [`check_after`] with the rule name.
pub fn verify_plan(plan: &LogicalPlan, catalog: &Catalog) -> Result<()> {
    check_after("manual check", plan, None, catalog)
}

/// Runs all structural checks against the tree `rule` just produced.
/// `planned` is the root schema before any rewrite ran (`None` skips the
/// preservation check).
pub(crate) fn check_after(
    rule: &'static str,
    plan: &LogicalPlan,
    planned: Option<&Schema>,
    catalog: &Catalog,
) -> Result<()> {
    if let (Some(before), Ok(after)) = (planned, plan.schema(catalog)) {
        if before.columns() != after.columns() {
            return violation(
                rule,
                format!(
                    "root schema changed from [{}] to [{}]",
                    before.columns().join(", "),
                    after.columns().join(", ")
                ),
            );
        }
    }
    // The planner's raw WHERE chain predates `pushdown`'s cost ordering.
    let ordered = !matches!(rule, "fold_constants" | "convert_tsdb_scans");
    walk(plan, rule, ordered, false, catalog)
}

fn violation(rule: &str, message: String) -> Result<()> {
    Err(QueryError::Plan(format!("optimizer invariant violated after {rule}: {message}")))
}

fn walk(
    plan: &LogicalPlan,
    rule: &'static str,
    ordered: bool,
    under_filter: bool,
    catalog: &Catalog,
) -> Result<()> {
    match plan {
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
            // Expand the node back into the chain `scan_aggregate` collapsed and
            // re-run the eligibility analysis it must have passed.
            let mut synth = LogicalPlan::TsdbScan {
                table: table.clone(),
                name: name.clone(),
                tags: tags.clone(),
                start: *start,
                end: *end,
                columns: None,
            };
            for predicate in filters.iter().rev() {
                synth =
                    LogicalPlan::Filter { input: Box::new(synth), predicate: predicate.clone() };
            }
            if !scan_aggregate_eligible(&synth, group_by, items, hidden) {
                return violation(
                    rule,
                    format!(
                        "ScanAggregate over {table} fails re-run of scan_aggregate eligibility"
                    ),
                );
            }
            check_filter_classes(filters.iter().collect(), rule, ordered)
        }
        LogicalPlan::Filter { .. } => {
            // Check each maximal chain once, from its outermost node.
            let (filters, source) = peel(plan);
            if !under_filter && matches!(source, LogicalPlan::TsdbScan { .. }) {
                let Ok(scan_schema) = source.schema(catalog) else {
                    return Ok(());
                };
                for predicate in &filters {
                    let mut cols = Vec::new();
                    collect_columns(predicate, &mut cols);
                    for col in cols {
                        if scan_schema.resolve(&col).is_err() {
                            return violation(
                                rule,
                                format!("residual predicate references `{col}`, which the pruned scan no longer produces"),
                            );
                        }
                    }
                }
                check_filter_classes(filters, rule, ordered)?;
            }
            let LogicalPlan::Filter { input, .. } = plan else { unreachable!() };
            walk(input, rule, ordered, true, catalog)
        }
        LogicalPlan::Sort { input, keys, output_width } => {
            let extended = match input.as_ref() {
                LogicalPlan::Project { items, hidden, .. }
                | LogicalPlan::Aggregate { items, hidden, .. }
                | LogicalPlan::ScanAggregate { items, hidden, .. } => {
                    Some(items.len() + hidden.len())
                }
                _ => None,
            };
            if let Some(width) = extended {
                if let Some(&(key, _)) = keys.iter().find(|(k, _)| *k >= width) {
                    return violation(
                        rule,
                        format!("sort key #{key} out of bounds for extended width {width}"),
                    );
                }
                if *output_width > width {
                    return violation(
                        rule,
                        format!("sort output width {output_width} exceeds extended width {width}"),
                    );
                }
            }
            walk(input, rule, ordered, false, catalog)
        }
        LogicalPlan::Union { inputs } => {
            if inputs.is_empty() {
                return violation(rule, "Union lost all of its branches".to_string());
            }
            for branch in inputs {
                walk(branch, rule, ordered, false, catalog)?;
            }
            Ok(())
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Alias { input, .. }
        | LogicalPlan::Limit { input, .. } => walk(input, rule, ordered, false, catalog),
        LogicalPlan::Join { left, right, .. } => {
            walk(left, rule, ordered, false, catalog)?;
            walk(right, rule, ordered, false, catalog)
        }
        LogicalPlan::Scan { .. } | LogicalPlan::TsdbScan { .. } | LogicalPlan::Unit => Ok(()),
    }
}

/// Splits a `Filter` chain (outermost first) off a plan.
fn peel(mut plan: &LogicalPlan) -> (Vec<&Expr>, &LogicalPlan) {
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

/// `pushdown`'s cost class of one residual conjunct: 0 = per-series dictionary
/// predicate, 1 = kernel-refinable point predicate, 2 = general expression.
fn filter_class(predicate: &Expr, schema: &Schema) -> usize {
    let dict_only = {
        let mut cols = Vec::new();
        collect_columns(predicate, &mut cols);
        cols.iter().all(|c| schema.resolve(c).is_ok_and(|i| i == 1 || i == 2))
    };
    if dict_only {
        0
    } else if veval::span_refinable(predicate, schema) {
        1
    } else {
        2
    }
}

/// Checks a residual chain (outermost first) keeps `pushdown`'s non-increasing
/// cost-class order — equivalently: cheapest class innermost.
fn check_filter_classes(filters: Vec<&Expr>, rule: &str, ordered: bool) -> Result<()> {
    if !ordered || filters.len() < 2 {
        return Ok(());
    }
    let schema = Schema::new(TSDB_COLUMNS.iter().map(|s| s.to_string()).collect());
    let classes: Vec<usize> = filters.iter().map(|p| filter_class(p, &schema)).collect();
    if classes.windows(2).any(|w| w[0] < w[1]) {
        return violation(
            rule,
            format!(
                "residual filter chain out of cost order (outermost-first classes {classes:?})"
            ),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;
    use crate::value::Value;

    fn lit(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    fn cmp(left: Expr, right: Expr) -> Expr {
        Expr::Binary { op: BinaryOp::Gt, left: Box::new(left), right: Box::new(right) }
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::TsdbScan {
            table: "tsdb".to_string(),
            name: None,
            tags: Vec::new(),
            start: None,
            end: None,
            columns: None,
        }
    }

    fn filter(input: LogicalPlan, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter { input: Box::new(input), predicate }
    }

    #[test]
    fn well_formed_chain_passes() {
        let catalog = Catalog::new();
        // general outermost, dict innermost: the order `pushdown` produces.
        let plan = filter(
            filter(
                scan(),
                Expr::Binary {
                    op: BinaryOp::Eq,
                    left: Box::new(col("metric_name")),
                    right: Box::new(Expr::Literal(Value::str("cpu"))),
                },
            ),
            Expr::Function { name: "ABS".to_string(), args: vec![col("value")] },
        );
        assert!(verify_plan(&plan, &catalog).is_ok());
    }

    #[test]
    fn inverted_chain_is_flagged() {
        let catalog = Catalog::new();
        // dict predicate outermost, general innermost: inverted cost order.
        let plan = filter(
            filter(scan(), Expr::Function { name: "ABS".to_string(), args: vec![col("value")] }),
            Expr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(col("metric_name")),
                right: Box::new(Expr::Literal(Value::str("cpu"))),
            },
        );
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("cost order")), "{err}");
    }

    #[test]
    fn pruned_away_filter_column_is_flagged() {
        let catalog = Catalog::new();
        let pruned = LogicalPlan::TsdbScan {
            table: "tsdb".to_string(),
            name: None,
            tags: Vec::new(),
            start: None,
            end: None,
            columns: Some(vec![0]),
        };
        let plan = filter(pruned, cmp(col("value"), lit(1)));
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("no longer produces")), "{err}");
    }

    #[test]
    fn ineligible_scan_aggregate_is_flagged() {
        let catalog = Catalog::new();
        // MIN over the float value stream with no timestamp key: the NaN
        // ordering rule excludes it from `scan_aggregate`.
        let min_v = Expr::Function { name: "MIN".to_string(), args: vec![col("value")] };
        let plan = LogicalPlan::ScanAggregate {
            table: "tsdb".to_string(),
            name: None,
            tags: Vec::new(),
            start: None,
            end: None,
            filters: Vec::new(),
            group_by: vec![col("metric_name")],
            items: vec![(col("metric_name"), "metric_name".to_string()), (min_v, "m".to_string())],
            hidden: Vec::new(),
        };
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(
            matches!(&err, QueryError::Plan(m) if m.contains("fails re-run of scan_aggregate eligibility")),
            "{err}"
        );
    }

    #[test]
    fn eligible_scan_aggregate_passes() {
        let catalog = Catalog::new();
        let avg_v = Expr::Function { name: "AVG".to_string(), args: vec![col("value")] };
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::ScanAggregate {
                table: "tsdb".to_string(),
                name: Some("cpu".to_string()),
                tags: Vec::new(),
                start: None,
                end: None,
                filters: vec![cmp(col("value"), lit(0))],
                group_by: vec![col("timestamp")],
                items: vec![
                    (col("timestamp"), "timestamp".to_string()),
                    (avg_v, "mean_v".to_string()),
                ],
                hidden: Vec::new(),
            }),
            keys: vec![(0, true)],
            output_width: 2,
        };
        assert!(verify_plan(&plan, &catalog).is_ok());
    }

    #[test]
    fn sort_key_out_of_bounds_is_flagged() {
        let catalog = Catalog::new();
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan()),
                items: vec![(col("value"), "v".to_string())],
                hidden: Vec::new(),
            }),
            keys: vec![(3, true)],
            output_width: 1,
        };
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("out of bounds")), "{err}");
    }

    #[test]
    fn empty_union_is_flagged() {
        let catalog = Catalog::new();
        let plan = LogicalPlan::Union { inputs: Vec::new() };
        let err = verify_plan(&plan, &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("branches")), "{err}");
    }

    #[test]
    fn schema_drift_is_flagged() {
        let catalog = Catalog::new();
        let before = Schema::new(vec!["a".to_string(), "b".to_string()]);
        let after = LogicalPlan::Project {
            input: Box::new(scan()),
            items: vec![(col("value"), "a".to_string())],
            hidden: Vec::new(),
        };
        let err = check_after("prune", &after, Some(&before), &catalog).unwrap_err();
        assert!(matches!(&err, QueryError::Plan(m) if m.contains("after prune")), "{err}");
    }

    #[test]
    fn raw_where_chain_skips_order_check_before_pushdown() {
        let catalog = Catalog::new();
        // Inverted order is fine right after constant folding — the chain
        // is still the planner's, not `pushdown`'s.
        let plan = filter(
            filter(scan(), Expr::Function { name: "ABS".to_string(), args: vec![col("value")] }),
            Expr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(col("metric_name")),
                right: Box::new(Expr::Literal(Value::str("cpu"))),
            },
        );
        assert!(check_after("fold_constants", &plan, None, &catalog).is_ok());
        assert!(check_after("pushdown", &plan, None, &catalog).is_err());
    }
}
