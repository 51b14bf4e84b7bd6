//! Plan-shape tests for the scan-aggregate pushdown: `EXPLAIN` snapshots
//! asserting when `ScanAggregate` does and does not fire, so optimizer
//! eligibility regressions surface as test failures rather than silent
//! slowdowns (or silent wrong fast paths).

use explainit_query::{Catalog, Table, Value};
use explainit_tsdb::{SeriesKey, Tsdb};

fn catalog() -> Catalog {
    let mut db = Tsdb::new();
    for host in ["web-1", "web-2"] {
        let key = SeriesKey::new("cpu").with_tag("host", host).with_tag("grp", "g0");
        for t in 0..5 {
            db.insert(&key, t * 60, t as f64);
        }
    }
    db.insert(&SeriesKey::new("disk").with_tag("host", "web-1"), 0, 1.0);
    let mut c = Catalog::new();
    c.register_tsdb("tsdb", &db);
    c.register(
        "plain",
        Table::from_rows(&["ts", "v"], vec![vec![Value::Int(0), Value::Float(1.0)]]),
    );
    c
}

fn explain(c: &Catalog, sql: &str) -> String {
    let t = c.execute(&format!("EXPLAIN {sql}")).expect("explain runs");
    t.rows().iter().map(|r| r[0].render()).collect::<Vec<_>>().join("\n")
}

// ---------------------------------------------------------------------------
// Fires
// ---------------------------------------------------------------------------

#[test]
fn fires_for_the_family_query() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT timestamp, tag['grp'], AVG(value) AS m, STDDEV(value) AS sd FROM tsdb \
         WHERE metric_name = 'cpu' AND timestamp BETWEEN 0 AND 600 \
         GROUP BY timestamp, tag['grp'] ORDER BY timestamp",
    );
    assert!(plan.contains("ScanAggregate tsdb"), "plan:\n{plan}");
    assert!(plan.contains("name=cpu"), "plan:\n{plan}");
    assert!(plan.contains("time=[0, 600]"), "plan:\n{plan}");
    assert!(!plan.contains("TsdbScan"), "the scan is absorbed:\n{plan}");
}

#[test]
fn fires_for_dict_keys_and_global_aggregates() {
    let c = catalog();
    let plan = explain(&c, "SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name");
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    let plan = explain(&c, "SELECT SUM(value) AS s, MIN(tag['host']) AS h FROM tsdb");
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
}

#[test]
fn fires_with_residual_value_filter_shown_on_the_node() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT timestamp, AVG(value) AS m FROM tsdb WHERE value > 1.5 GROUP BY timestamp",
    );
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    assert!(plan.contains("where=[(value > 1.5)]"), "plan:\n{plan}");
}

#[test]
fn fires_below_a_having_style_filter_which_stays_above() {
    let c = catalog();
    // The grammar has no HAVING; its equivalent — filtering the aggregate
    // output through a subquery — must keep the aggregate-output filter
    // *above* the node while the aggregate itself still pushes into the
    // scan. The rows must agree with the unpushed pipeline either way.
    let sql = "SELECT t FROM (SELECT timestamp AS t, COUNT(*) AS n FROM tsdb \
               GROUP BY timestamp) s WHERE n > 1 ORDER BY t";
    let plan = explain(&c, sql);
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    assert!(plan.contains("Filter"), "HAVING-style filter stays above:\n{plan}");
    let filter_line = plan.lines().position(|l| l.trim_start().starts_with("Filter"));
    let sa_line = plan.lines().position(|l| l.trim_start().starts_with("ScanAggregate"));
    assert!(filter_line < sa_line, "filter above the node:\n{plan}");
    let out = c.execute(sql).expect("runs");
    assert_eq!(out.len(), 5, "every cpu timestamp has two hosts");
}

// ---------------------------------------------------------------------------
// Falls back
// ---------------------------------------------------------------------------

#[test]
fn falls_back_for_non_dict_group_keys() {
    let c = catalog();
    // `value` is not dictionary-encoded; grouping on it stays on the
    // serial aggregate.
    let plan = explain(&c, "SELECT value, COUNT(*) AS n FROM tsdb GROUP BY value");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    assert!(plan.contains("Aggregate"), "plan:\n{plan}");
    // Ditto for a computed timestamp key.
    let plan =
        explain(&c, "SELECT timestamp + 1 AS t, COUNT(*) AS n FROM tsdb GROUP BY timestamp + 1");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
}

#[test]
fn falls_back_for_non_mergeable_outputs() {
    let c = catalog();
    let plan = explain(&c, "SELECT AVG(value) * 2 AS m FROM tsdb GROUP BY timestamp");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    // MIN over the raw tag map is accumulation-order dependent.
    let plan = explain(&c, "SELECT MIN(tag) AS t FROM tsdb GROUP BY timestamp");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
}

#[test]
fn minmax_over_value_needs_a_timestamp_key() {
    let c = catalog();
    // Without a timestamp group key the scan aggregate accumulates
    // series-major; a float stream may contain NaN (incomparable), making
    // the MIN/MAX fold order-dependent — so these fall back.
    let plan = explain(&c, "SELECT MIN(value) AS lo FROM tsdb");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    let plan = explain(&c, "SELECT metric_name, MAX(value) AS hi FROM tsdb GROUP BY metric_name");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    // With the timestamp key, per-group accumulation order equals serial
    // row order, so the same aggregates stay pushed down.
    let plan = explain(&c, "SELECT timestamp, MAX(value) AS hi FROM tsdb GROUP BY timestamp");
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
    // Totally ordered streams (Int timestamps, dictionary Str values)
    // stay pushed down even without a timestamp key.
    let plan = explain(
        &c,
        "SELECT metric_name, MIN(timestamp) AS t0, MAX(tag['host']) AS h FROM tsdb \
         GROUP BY metric_name",
    );
    assert!(plan.contains("ScanAggregate"), "plan:\n{plan}");
}

#[test]
fn falls_back_inside_joins() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT s.t FROM (SELECT timestamp AS t, COUNT(*) AS n FROM tsdb GROUP BY timestamp) s \
         JOIN plain ON s.t = plain.ts",
    );
    assert!(!plan.contains("ScanAggregate"), "join sides fall back:\n{plan}");
    assert!(plan.contains("Join"), "plan:\n{plan}");
}

#[test]
fn falls_back_inside_union_branches() {
    let c = catalog();
    let plan = explain(
        &c,
        "SELECT timestamp, COUNT(*) AS n FROM tsdb GROUP BY timestamp \
         UNION ALL SELECT timestamp, COUNT(*) AS n FROM tsdb GROUP BY timestamp",
    );
    assert!(!plan.contains("ScanAggregate"), "union branches fall back:\n{plan}");
    assert!(plan.contains("Union"), "plan:\n{plan}");
}

// ---------------------------------------------------------------------------
// Join-side statistics
// ---------------------------------------------------------------------------

#[test]
fn join_lines_show_estimates_and_build_side() {
    let c = catalog();
    // tsdb holds 11 points, plain holds 1 row: the estimated-smaller side
    // must be the hash build side, and both estimates surface on the line.
    let plan = explain(&c, "SELECT value FROM tsdb JOIN plain ON tsdb.timestamp = plain.ts");
    let join_line = plan
        .lines()
        .find(|l| l.trim_start().starts_with("Join"))
        .unwrap_or_else(|| panic!("no join line in:\n{plan}"));
    assert!(join_line.contains("rows=[l~"), "estimates shown: {join_line}");
    assert!(join_line.contains("build=right"), "smaller right side builds: {join_line}");
}

#[test]
fn join_build_side_follows_the_smaller_input() {
    let c = catalog();
    // Same join, sides swapped: the one-row table is now on the left, so
    // the optimizer must flip the build side with it.
    let plan = explain(&c, "SELECT value FROM plain JOIN tsdb ON plain.ts = tsdb.timestamp");
    assert!(plan.contains("build=left"), "plan:\n{plan}");
    // Filters tighten the estimate: an aggregated (grouped) subquery side
    // shrinks below the raw point count.
    let plan = explain(
        &c,
        "SELECT s.t FROM (SELECT timestamp AS t, COUNT(*) AS n FROM tsdb GROUP BY timestamp) s \
         JOIN plain ON s.t = plain.ts",
    );
    assert!(plan.contains("rows=[l~"), "plan:\n{plan}");
}

#[test]
fn class_constant_residuals_order_innermost() {
    let c = catalog();
    // Two residual conjuncts the scan cannot absorb: one over the
    // dictionary-encoded metric_name (per-series constant), one over the
    // per-point value column. The class-constant one must sit innermost
    // (deepest Filter / first in the ScanAggregate chain) regardless of
    // source order, so a series can be discarded before any point work.
    let plan = explain(
        &c,
        "SELECT timestamp, value FROM tsdb WHERE value > 1.5 AND metric_name != 'disk'",
    );
    let filters: Vec<&str> =
        plan.lines().filter(|l| l.trim_start().starts_with("Filter")).collect();
    assert_eq!(filters.len(), 2, "two residual filters:\n{plan}");
    assert!(filters[0].contains("value"), "point filter outermost:\n{plan}");
    assert!(filters[1].contains("metric_name"), "class filter innermost:\n{plan}");
}

#[test]
fn falls_back_for_plain_tables_and_window_filters() {
    let c = catalog();
    let plan = explain(&c, "SELECT ts, AVG(v) AS m FROM plain GROUP BY ts");
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
    // A window function anywhere below keeps the whole pipeline serial.
    let plan = explain(
        &c,
        "SELECT t, COUNT(*) AS n FROM (SELECT timestamp AS t, LAG(value) AS prev FROM tsdb) s \
         GROUP BY t",
    );
    assert!(!plan.contains("ScanAggregate"), "plan:\n{plan}");
}
