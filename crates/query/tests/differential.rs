//! Differential testing: the plan → optimize → columnar-execute pipeline
//! must produce *identical* tables to the retained naive row interpreter
//! (`explainit_query::reference`) on randomly generated queries and data —
//! same schema, same rows, same row order.
//!
//! Every query runs **four** ways: the pipeline serially (one partition,
//! scan-aggregate pushdown off), the pipeline with a forced three-morsel
//! split and pushdown off (the "parallel" arm: the TSDB scan gather
//! materializes its columns per morsel and concatenates them in order,
//! while every other operator runs its one serial executor), the pipeline
//! with the **scan-aggregate pushdown** enabled (serial and forced
//! multi-morsel, so the per-series pre-aggregation and its deterministic
//! merge are exercised too), and the reference interpreter. All four must
//! agree bit-for-bit — the accumulators are built to be exactly
//! fold-equivalent (error-free sums, per-class MIN/MAX, gathered
//! PERCENTILE) and the scan-aggregate operator reconstructs the serial
//! first-seen group order from each group's earliest (timestamp, series
//! rank) contribution, so this is an equality check, not an epsilon one.

use explainit_query::reference::execute_naive;
use explainit_query::{parse_query, Catalog, ExecOptions, Table, Value};
use explainit_tsdb::{glob_match, MetricFilter, SeriesKey, Tsdb};
use proptest::prelude::*;

const HOSTS: [&str; 4] = ["web-1", "web-2", "db-1", "app-3"];
const METRICS: [&str; 3] = ["cpu", "disk_read", "pipeline_runtime"];

/// Rows for table `t(ts, host, v)`.
fn t_rows() -> impl Strategy<Value = Vec<(i64, usize, f64)>> {
    proptest::collection::vec((0i64..5, 0usize..HOSTS.len(), -50.0f64..50.0), 0..25)
}

/// Rows for table `u(ts, w)`.
fn u_rows() -> impl Strategy<Value = Vec<(i64, f64)>> {
    proptest::collection::vec((0i64..5, -50.0f64..50.0), 0..15)
}

/// Observations for the TSDB: (metric, host, ts, value).
fn tsdb_points() -> impl Strategy<Value = Vec<(usize, usize, i64, f64)>> {
    proptest::collection::vec(
        (0usize..METRICS.len(), 0usize..HOSTS.len(), 0i64..400, -10.0f64..10.0),
        0..60,
    )
}

fn build_catalog(
    t: &[(i64, usize, f64)],
    u: &[(i64, f64)],
    points: &[(usize, usize, i64, f64)],
) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(
        "t",
        Table::from_rows(
            &["ts", "host", "v"],
            t.iter()
                .map(|&(ts, h, v)| vec![Value::Int(ts), Value::str(HOSTS[h]), Value::Float(v)])
                .collect(),
        ),
    );
    catalog.register(
        "u",
        Table::from_rows(
            &["ts", "w"],
            u.iter().map(|&(ts, w)| vec![Value::Int(ts), Value::Float(w)]).collect(),
        ),
    );
    let mut db = Tsdb::new();
    for &(m, h, ts, v) in points {
        let key = SeriesKey::new(METRICS[m]).with_tag("host", HOSTS[h]);
        db.insert(&key, ts, v);
    }
    // One tag-free series so `tag['host'] IS NULL` has hits.
    db.insert(&SeriesKey::new("untagged"), 0, 1.0);
    catalog.register_tsdb("tsdb", &db);
    catalog
}

/// Runs `sql` serially, partition-parallel, with the scan-aggregate
/// pushdown, and through the reference interpreter, asserting all four
/// agree (or all four reject).
fn assert_same(catalog: &Catalog, sql: &str) -> Result<(), TestCaseError> {
    let query = match parse_query(sql) {
        Ok(q) => q,
        Err(e) => panic!("generated query must parse: {sql}: {e}"),
    };
    let serial = catalog.execute_query_with(
        &query,
        ExecOptions { partitions: 1, scan_aggregate: false, ..ExecOptions::default() },
    );
    let engines = [
        (
            "parallel",
            ExecOptions { partitions: 3, scan_aggregate: false, ..ExecOptions::default() },
        ),
        (
            "scan-aggregate serial",
            ExecOptions { partitions: 1, scan_aggregate: true, ..ExecOptions::default() },
        ),
        (
            "scan-aggregate parallel",
            ExecOptions { partitions: 3, scan_aggregate: true, ..ExecOptions::default() },
        ),
    ];
    for (label, opts) in engines {
        let other = catalog.execute_query_with(&query, opts);
        match (&serial, &other) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    a.schema().columns(),
                    b.schema().columns(),
                    "serial/{} schema mismatch for {}",
                    label,
                    sql
                );
                prop_assert_eq!(a.rows(), b.rows(), "serial/{} row mismatch for {}", label, sql);
            }
            (Err(_), Err(_)) => {}
            _ => panic!(
                "serial/{label} divergence for {sql}:\n  serial: {:?}\n  {label}: {:?}",
                serial.as_ref().map(Table::len),
                other.as_ref().map(Table::len)
            ),
        }
    }
    let naive = execute_naive(catalog, &query);
    match (serial, naive) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(
                a.schema().columns(),
                b.schema().columns(),
                "schema mismatch for {}",
                sql
            );
            prop_assert_eq!(a.rows(), b.rows(), "row mismatch for {}", sql);
        }
        (Err(a), Err(b)) => {
            // Both reject: fine (same class not enforced, message may differ).
            let _ = (a, b);
        }
        (fast, naive) => panic!(
            "divergent outcome for {sql}:\n  pipeline: {:?}\n  reference: {:?}",
            fast.map(|t| t.len()),
            naive.map(|t| t.len())
        ),
    }
    Ok(())
}

const PREDICATES: [&str; 8] = [
    "ts > 2",
    "v <= 10.0",
    "host LIKE 'web%'",
    "host = 'web-1'",
    "ts BETWEEN 1 AND 3",
    "v * 2 > -20.0",
    "ts IN (0, 2, 4)",
    "host IS NOT NULL",
];

const PROJECTIONS: [&str; 4] = ["*", "ts, v", "host, v * 2 AS dv", "ts + 1 AS t2, v"];

const ORDERS: [&str; 4] = ["", " ORDER BY ts", " ORDER BY v DESC", " ORDER BY ts DESC, v"];

/// Aggregate select lists for the aggregate-heavy generator — mixes the
/// corrected semantics (sample STDDEV/VARIANCE, Int-preserving SUM,
/// constant-p PERCENTILE) with the mergeable basics, plus outputs that are
/// not a plain aggregate call (arithmetic over an aggregate, a CASE over
/// aggregates), which the serial aggregate evaluates per group.
const AGG_ITEMS: [&str; 8] = [
    "AVG(v) AS m, COUNT(*) AS n, MAX(v) AS mx",
    "SUM(v) AS s, MIN(v) AS lo, STDDEV(v) AS sd",
    "VARIANCE(v) AS var, PERCENTILE(v, 0.5) AS med",
    "SUM(ts) AS s_int, COUNT(v) AS n",
    "PERCENTILE(v, 0.9) AS p90, STDDEV(v) AS sd, SUM(v) AS s",
    "MIN(host) AS h0, MAX(host) AS h1, VARIANCE(ts) AS vt",
    "AVG(v) + 1 AS m1, COUNT(*) AS n",
    "CASE WHEN COUNT(*) > 1 THEN MAX(v) ELSE MIN(v) END AS c",
];

/// Group keys for the aggregate-heavy generator: plain columns and a
/// scalar call.
const AGG_KEYS: [&str; 3] = ["host", "ts", "ABS(ts)"];

/// Group-key lists for the scan-aggregate generator: the timestamp
/// column, dictionary-encoded keys, and combinations of both.
const SA_KEYS: [&str; 5] =
    ["timestamp", "metric_name", "tag['host']", "timestamp, tag['host']", "metric_name, timestamp"];

/// Aggregate lists for the scan-aggregate generator: mixed mergeable
/// aggregates (SUM/AVG/STDDEV/PERCENTILE), Int-typed SUM over the
/// timestamp column, per-class MIN/MAX over dictionary expressions, and a
/// computed per-point argument.
const SA_ITEMS: [&str; 6] = [
    "AVG(value) AS m, COUNT(*) AS n, MAX(value) AS mx",
    "SUM(value) AS s, MIN(value) AS lo, STDDEV(value) AS sd",
    "VARIANCE(value) AS var, PERCENTILE(value, 0.5) AS med",
    "SUM(timestamp) AS s_int, COUNT(value) AS n",
    "PERCENTILE(value, 0.9) AS p90, MIN(tag['host']) AS h0",
    "MIN(metric_name) AS m0, MAX(tag['host']) AS h1, SUM(value * 2) AS s2",
];

/// WHERE clauses for the scan-aggregate generator: fully pushable
/// predicates, residual value filters, and mixes of both.
const SA_FILTERS: [&str; 7] = [
    "",
    " WHERE metric_name = 'cpu'",
    " WHERE timestamp BETWEEN {lo} AND {hi}",
    " WHERE value > -5.0",
    " WHERE tag['host'] GLOB 'web*'",
    " WHERE metric_name GLOB 'disk*' AND value > 0.0",
    " WHERE tag['host'] IS NULL",
];

/// The scan gather's oracle: every in-range point of the series slices in
/// canonical-key (rank) order, stably sorted by timestamp alone, so
/// timestamp ties keep rank order.
fn stable_sort_gather<'a>(
    db: &'a Tsdb,
    filter: &MetricFilter,
    lo: i64,
    hi: i64,
) -> Vec<(i64, &'a SeriesKey, f64)> {
    let mut rows = Vec::new();
    for part in db.scan_parts_ordered_between(filter, lo, hi) {
        rows.extend(part.timestamps.iter().zip(part.values).map(|(&ts, &v)| (ts, part.key, v)));
    }
    rows.sort_by_key(|&(ts, _, _)| ts);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain_selects_agree(
        t in t_rows(), u in u_rows(),
        proj in 0usize..PROJECTIONS.len(),
        p1 in 0usize..PREDICATES.len(),
        p2 in 0usize..PREDICATES.len(),
        conj in any::<bool>(),
        ord in 0usize..ORDERS.len(),
        limit in 0usize..8,
        use_limit in any::<bool>(),
    ) {
        let catalog = build_catalog(&t, &u, &[]);
        let glue = if conj { "AND" } else { "OR" };
        let mut sql = format!(
            "SELECT {} FROM t WHERE {} {glue} {}{}",
            PROJECTIONS[proj], PREDICATES[p1], PREDICATES[p2], ORDERS[ord]
        );
        if use_limit {
            sql.push_str(&format!(" LIMIT {limit}"));
        }
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn grouped_selects_agree(
        t in t_rows(), u in u_rows(),
        p in 0usize..PREDICATES.len(),
        key_is_host in any::<bool>(),
        order_by_key in any::<bool>(),
    ) {
        let catalog = build_catalog(&t, &u, &[]);
        let key = if key_is_host { "host" } else { "ts" };
        let order = if order_by_key { format!(" ORDER BY {key}") } else { String::new() };
        let sql = format!(
            "SELECT {key}, AVG(v) AS m, COUNT(*) AS n, MAX(v) AS mx FROM t \
             WHERE {} GROUP BY {key}{order}",
            PREDICATES[p]
        );
        assert_same(&catalog, &sql)?;
        // Global aggregate (no GROUP BY).
        let sql = format!("SELECT SUM(v) AS s, MIN(v) AS lo FROM t WHERE {}", PREDICATES[p]);
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn aggregate_heavy_group_bys_agree(
        t in t_rows(), u in u_rows(),
        items in 0usize..AGG_ITEMS.len(),
        p in 0usize..PREDICATES.len(),
        filtered in any::<bool>(),
        key in 0usize..AGG_KEYS.len(),
        order_by_key in any::<bool>(),
        global in any::<bool>(),
    ) {
        let catalog = build_catalog(&t, &u, &[]);
        let agg = AGG_ITEMS[items];
        let filter = if filtered { format!(" WHERE {}", PREDICATES[p]) } else { String::new() };
        let sql = if global {
            format!("SELECT {agg} FROM t{filter}")
        } else {
            let key = AGG_KEYS[key];
            let order = if order_by_key { " ORDER BY k" } else { "" };
            format!("SELECT {key} AS k, {agg} FROM t{filter} GROUP BY {key}{order}")
        };
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn joins_agree(
        t in t_rows(), u in u_rows(),
        kind in 0usize..3,
        p in 0usize..PREDICATES.len(),
        filtered in any::<bool>(),
    ) {
        let catalog = build_catalog(&t, &u, &[]);
        let join = ["JOIN", "LEFT JOIN", "FULL OUTER JOIN"][kind];
        let mut sql = format!("SELECT t.ts, v, w FROM t {join} u ON t.ts = u.ts");
        if filtered {
            sql.push_str(&format!(" WHERE {}", PREDICATES[p]));
        }
        assert_same(&catalog, &sql)?;
        // Non-equi condition exercises the nested-loop fallback in both.
        let sql = format!("SELECT t.ts, u.ts FROM t {join} u ON t.ts < u.ts");
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn unions_and_subqueries_agree(
        t in t_rows(), u in u_rows(),
        k in 0i64..5,
        thresh in -20.0f64..20.0,
    ) {
        let catalog = build_catalog(&t, &u, &[]);
        // Same-typed union partition (coercion-free so both engines agree).
        let sql = format!(
            "SELECT v FROM t WHERE ts > {k} UNION ALL SELECT v FROM t WHERE NOT (ts > {k})"
        );
        assert_same(&catalog, &sql)?;
        // Aggregating subquery with an outer filter (pushdown through
        // Project/Aggregate boundaries).
        let sql = format!(
            "SELECT m FROM (SELECT ts, AVG(v) AS m FROM t GROUP BY ts) s WHERE m > {thresh}"
        );
        assert_same(&catalog, &sql)?;
        // LAG across a filtered projection (row-shim fallback path).
        let sql = "SELECT ts, v, LAG(v, 1) AS prev FROM t WHERE host LIKE 'web%' ORDER BY ts, v";
        assert_same(&catalog, sql)?;
        // Outer filter over a window subquery: the filter must NOT sink
        // below the projection (it would shrink LAG's window).
        let sql = format!(
            "SELECT prev FROM (SELECT ts, LAG(v) AS prev FROM t) s WHERE ts > {k}"
        );
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn tsdb_pushdown_agrees_with_materialized_scans(
        points in tsdb_points(),
        m in 0usize..METRICS.len(),
        h in 0usize..HOSTS.len(),
        lo in 0i64..200,
        span in 1i64..200,
        variant in 0usize..6,
    ) {
        let catalog = build_catalog(&[], &[], &points);
        let metric = METRICS[m];
        let host = HOSTS[h];
        let hi = lo + span;
        let sql = match variant {
            0 => format!("SELECT * FROM tsdb WHERE metric_name = '{metric}'"),
            1 => format!(
                "SELECT timestamp, value FROM tsdb WHERE metric_name = '{metric}' \
                 AND timestamp BETWEEN {lo} AND {hi}"
            ),
            2 => format!(
                "SELECT timestamp, tag['host'] AS h, value FROM tsdb \
                 WHERE tag['host'] = '{host}' ORDER BY timestamp, h"
            ),
            3 => format!(
                "SELECT timestamp, AVG(value) AS mean_v FROM tsdb \
                 WHERE metric_name = '{metric}' AND timestamp >= {lo} \
                 GROUP BY timestamp ORDER BY timestamp"
            ),
            4 => "SELECT value FROM tsdb WHERE tag['host'] IS NULL".to_string(),
            _ => format!(
                "SELECT metric_name, COUNT(*) AS n, SUM(value) AS s FROM tsdb \
                 WHERE timestamp < {hi} AND value > -5.0 \
                 GROUP BY metric_name ORDER BY metric_name"
            ),
        };
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn glob_queries_agree_with_reference(
        points in tsdb_points(),
        variant in 0usize..5,
        h in 0usize..HOSTS.len(),
    ) {
        // The pipeline pushes GLOB (and translatable LIKE) patterns into
        // the scan — the glob-prefix name-index range scan and
        // TagFilter::Glob — while the reference evaluates the operator per
        // materialized row. Agreement proves the pushdown is lossless.
        let catalog = build_catalog(&[], &[], &points);
        let sql = match variant {
            0 => "SELECT timestamp, value FROM tsdb WHERE metric_name GLOB 'disk*' \
                  ORDER BY timestamp, value"
                .to_string(),
            1 => "SELECT metric_name, COUNT(*) AS n FROM tsdb \
                  WHERE metric_name GLOB '*_r?ad' GROUP BY metric_name"
                .to_string(),
            2 => format!(
                "SELECT timestamp, value FROM tsdb WHERE tag['host'] GLOB '{}*' \
                 ORDER BY timestamp, value",
                &HOSTS[h][..3]
            ),
            3 => "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name LIKE 'pipeline%'".to_string(),
            _ => "SELECT value FROM tsdb WHERE metric_name GLOB 'c?u' AND value > -5.0 \
                  ORDER BY value"
                .to_string(),
        };
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn scan_aggregate_group_bys_agree(
        points in tsdb_points(),
        keys in 0usize..SA_KEYS.len(),
        items in 0usize..SA_ITEMS.len(),
        filter in 0usize..SA_FILTERS.len(),
        lo in 0i64..200,
        span in 1i64..200,
        order_by_first_key in any::<bool>(),
    ) {
        // The scan-aggregate generator: every query here is eligible (or
        // nearly eligible) for the ScanAggregate rewrite — GROUP BY
        // timestamp / dictionary-encoded tag keys / metric_name, mixed
        // mergeable aggregates over value/timestamp (Int typing included),
        // residual value filters, tag globs and absent-tag predicates.
        let catalog = build_catalog(&[], &[], &points);
        let filter = SA_FILTERS[filter]
            .replace("{lo}", &lo.to_string())
            .replace("{hi}", &(lo + span).to_string());
        let key = SA_KEYS[keys];
        let order = if order_by_first_key {
            format!(" ORDER BY {}", key.split(',').next().expect("non-empty key list"))
        } else {
            String::new()
        };
        let sql = format!("SELECT {key}, {} FROM tsdb{filter} GROUP BY {key}{order}", SA_ITEMS[items]);
        assert_same(&catalog, &sql)?;
        // Global aggregate over the same filter (no GROUP BY).
        let sql = format!("SELECT {} FROM tsdb{filter}", SA_ITEMS[items]);
        assert_same(&catalog, &sql)?;
    }

    #[test]
    fn merge_gather_agrees_with_stable_sort_and_reference(
        points in tsdb_points(),
        dup_ts in proptest::collection::vec((0usize..HOSTS.len(), 0i64..6), 0..12),
        with_extremes in any::<bool>(),
        with_empty_in_range in any::<bool>(),
        lo in 0i64..200,
        span in 1i64..200,
        variant in 0usize..5,
    ) {
        // The k-way merge gather must be bit-identical to a global stable
        // sort (the test-local oracle) across the shapes that stress its
        // tiebreaks: duplicate timestamps across series (heap ties
        // resolved by rank), series left empty by the time range, a single
        // surviving series, and points at the i64 extremes.
        let mut db = Tsdb::new();
        for &(m, h, ts, v) in &points {
            db.insert(&SeriesKey::new(METRICS[m]).with_tag("host", HOSTS[h]), ts, v);
        }
        for &(h, ts) in &dup_ts {
            // The same few timestamps in many series: cross-series ties.
            db.insert(&SeriesKey::new("dup").with_tag("host", HOSTS[h]), ts, h as f64);
        }
        if with_extremes {
            db.insert(&SeriesKey::new("edge"), i64::MIN, -1.0);
            db.insert(&SeriesKey::new("edge"), i64::MAX, 1.0);
        }
        if with_empty_in_range {
            // All points far outside every generated time window.
            db.insert(&SeriesKey::new("cpu").with_tag("host", "off-range"), 900_000, 0.0);
        }
        db.insert(&SeriesKey::new("solo"), 3, 7.0);
        let mut catalog = Catalog::new();
        catalog.register_tsdb("tsdb", &db);

        let hi = lo + span;
        let (sql, filter, range) = match variant {
            0 => ("SELECT * FROM tsdb".to_string(), MetricFilter::all(), (i64::MIN, i64::MAX)),
            1 => (
                format!("SELECT timestamp, value FROM tsdb WHERE timestamp BETWEEN {lo} AND {hi}"),
                MetricFilter::all(),
                (lo, hi),
            ),
            2 => (
                "SELECT timestamp, value FROM tsdb WHERE metric_name = 'solo'".to_string(),
                MetricFilter::name("solo"),
                (i64::MIN, i64::MAX),
            ),
            3 => (
                format!("SELECT timestamp, tag['host'] AS h FROM tsdb WHERE timestamp >= {lo}"),
                MetricFilter::all(),
                (lo, i64::MAX),
            ),
            _ => (
                "SELECT timestamp, metric_name, value FROM tsdb WHERE metric_name GLOB 'd*'"
                    .to_string(),
                MetricFilter::name("d*"),
                (i64::MIN, i64::MAX),
            ),
        };
        let project = |&(ts, key, v): &(i64, &SeriesKey, f64)| -> Vec<Value> {
            match variant {
                0 => vec![
                    Value::Int(ts),
                    Value::str(&key.name),
                    Value::Map(key.tags.clone()),
                    Value::Float(v),
                ],
                1 | 2 => vec![Value::Int(ts), Value::Float(v)],
                3 => vec![Value::Int(ts), key.tags.get("host").map_or(Value::Null, Value::str)],
                _ => vec![Value::Int(ts), Value::str(&key.name), Value::Float(v)],
            }
        };
        let expected: Vec<Vec<Value>> =
            stable_sort_gather(&db, &filter, range.0, range.1).iter().map(project).collect();
        let query = parse_query(&sql).expect("generated query parses");
        let merged =
            catalog.execute_query_with(&query, ExecOptions::default()).expect("merge gather runs");
        prop_assert_eq!(merged.rows(), expected.as_slice(), "oracle mismatch for {}", &sql);
        let naive = execute_naive(&catalog, &query).expect("reference runs");
        prop_assert_eq!(
            merged.schema().columns(),
            naive.schema().columns(),
            "schema mismatch for {}",
            &sql
        );
        prop_assert_eq!(merged.rows(), naive.rows(), "reference mismatch for {}", &sql);
    }

    #[test]
    fn glob_prefix_find_matches_brute_force(
        points in tsdb_points(),
        pat in 0usize..6,
    ) {
        // Store-level property for the prefix range scan itself.
        let mut db = Tsdb::new();
        for &(m, h, ts, v) in &points {
            db.insert(&SeriesKey::new(METRICS[m]).with_tag("host", HOSTS[h]), ts, v);
        }
        let pattern = ["cpu*", "disk*", "disk_r?ad", "pipeline*e", "*untime", "c*p*u"][pat];
        let fast = db.find(&MetricFilter::name(pattern));
        let brute: Vec<_> = db
            .iter()
            .filter(|(_, s)| glob_match(pattern, &s.key.name))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(fast, brute, "pattern {}", pattern);
    }
}

/// Outputs that are not a plain aggregate call take the serial aggregate's
/// per-group fallback; pins that each shape the generator uses runs (so
/// the four-way comparison is never vacuously two errors) with exact
/// values.
#[test]
fn non_decomposable_aggregate_outputs_pinned() {
    let rows = vec![
        vec![Value::Int(-1), Value::str("a"), Value::Float(1.0)],
        vec![Value::Int(1), Value::str("a"), Value::Float(3.0)],
        vec![Value::Int(2), Value::str("b"), Value::Float(5.0)],
    ];
    let mut catalog = Catalog::new();
    catalog.register("t", Table::from_rows(&["ts", "host", "v"], rows));
    let cases: [(&str, Vec<Vec<Value>>); 3] = [
        (
            "SELECT host AS k, AVG(v) + 1 AS m1, COUNT(*) AS n FROM t GROUP BY host",
            vec![
                vec![Value::str("a"), Value::Float(3.0), Value::Int(2)],
                vec![Value::str("b"), Value::Float(6.0), Value::Int(1)],
            ],
        ),
        (
            "SELECT host AS k, CASE WHEN COUNT(*) > 1 THEN MAX(v) ELSE MIN(v) END AS c \
             FROM t GROUP BY host",
            vec![
                vec![Value::str("a"), Value::Float(3.0)],
                vec![Value::str("b"), Value::Float(5.0)],
            ],
        ),
        (
            "SELECT ABS(ts) AS k, SUM(v) AS s FROM t GROUP BY ABS(ts) ORDER BY k",
            // ABS is a float function, so the key is a Float.
            vec![
                vec![Value::Float(1.0), Value::Float(4.0)],
                vec![Value::Float(2.0), Value::Float(5.0)],
            ],
        ),
    ];
    for (sql, expect) in cases {
        let out = catalog.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(out.rows(), expect.as_slice(), "{sql}");
        assert_same(&catalog, sql).unwrap();
    }
}

/// Pins the corrected aggregate semantics with exact expected values, in
/// all three engines.
#[test]
fn corrected_aggregate_semantics_pinned() {
    // t(ts, host, v) with v = [2, 4, 4, 4, 5, 5, 7, 9] in one group:
    // sample variance = 32/7, stddev = sqrt(32/7) (population would be 4).
    let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    let rows: Vec<Vec<Value>> = vals
        .iter()
        .enumerate()
        .map(|(i, &v)| vec![Value::Int(i as i64), Value::str("h"), Value::Float(v)])
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Table::from_rows(&["ts", "host", "v"], rows));

    let sql = "SELECT VARIANCE(v) AS var, STDDEV(v) AS sd, SUM(ts) AS si, SUM(v) AS sf, \
               PERCENTILE(v, 0.5) AS med FROM t";
    let query = parse_query(sql).unwrap();
    let expect = vec![
        Value::Float(32.0 / 7.0),
        Value::Float((32.0f64 / 7.0).sqrt()),
        Value::Int(28),     // Int column keeps Int typing
        Value::Float(40.0), // Float column stays Float
        Value::Float(4.5),
    ];
    for parts in [1usize, 2, 3, 8] {
        let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts)).unwrap();
        assert_eq!(out.rows()[0], expect, "partitions={parts}");
    }
    let naive = execute_naive(&catalog, &query).unwrap();
    assert_eq!(naive.rows()[0], expect, "reference");
}

/// All four engines on one eligible family query, pinned (no generators):
/// the scan-aggregate result must be value-identical to serial, parallel
/// and reference execution, including group order without an ORDER BY.
#[test]
fn scan_aggregate_pinned_four_way() {
    let mut db = Tsdb::new();
    for (host, base) in [("web-1", 1.0), ("web-2", 2.0), ("db-1", 10.0)] {
        let key = SeriesKey::new("cpu").with_tag("host", host);
        for t in 0..7 {
            db.insert(&key, t * 60, base + t as f64 * 0.25);
        }
    }
    db.insert(&SeriesKey::new("untagged"), 0, 5.0);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(
        "SELECT timestamp, tag['host'] AS h, AVG(value) AS m, SUM(value) AS s, \
         COUNT(*) AS n, STDDEV(value) AS sd, PERCENTILE(value, 0.5) AS med \
         FROM tsdb WHERE metric_name = 'cpu' GROUP BY timestamp, tag['host']",
    )
    .unwrap();
    let baseline = catalog
        .execute_query_with(
            &query,
            ExecOptions { partitions: 1, scan_aggregate: false, ..ExecOptions::default() },
        )
        .unwrap();
    assert_eq!(baseline.len(), 21);
    for partitions in [1usize, 2, 3, 8] {
        let out = catalog
            .execute_query_with(
                &query,
                ExecOptions { partitions, scan_aggregate: true, ..ExecOptions::default() },
            )
            .unwrap();
        assert_eq!(out.schema(), baseline.schema());
        assert_eq!(out.rows(), baseline.rows(), "pushdown partitions={partitions}");
    }
    let naive = execute_naive(&catalog, &query).unwrap();
    assert_eq!(naive.rows(), baseline.rows(), "reference");
}

/// SUM over the Int timestamp column keeps Int typing in the scan
/// aggregate, and promotes to the exact float sum on i64 overflow —
/// identically to the row engines.
#[test]
fn scan_aggregate_int_typing_and_overflow_promotion() {
    // Small timestamps: SUM(timestamp) stays Int.
    let mut db = Tsdb::new();
    let key = SeriesKey::new("m").with_tag("host", "a");
    for t in [1i64, 2, 3] {
        db.insert(&key, t, 1.0);
    }
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query("SELECT SUM(timestamp) AS s FROM tsdb").unwrap();
    for scan_aggregate in [false, true] {
        let out = catalog
            .execute_query_with(
                &query,
                ExecOptions { partitions: 2, scan_aggregate, ..ExecOptions::default() },
            )
            .unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(6), "pushdown={scan_aggregate}");
    }

    // Near-i64::MAX timestamps: the i128-exact sum overflows i64 and
    // promotes to the error-free float sum in every engine.
    let mut db = Tsdb::new();
    let big = i64::MAX - 10;
    db.insert(&SeriesKey::new("m").with_tag("host", "a"), big, 1.0);
    db.insert(&SeriesKey::new("m").with_tag("host", "b"), big - 1, 2.0);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let naive = execute_naive(&catalog, &query).unwrap();
    let expect = naive.rows()[0][0].clone();
    assert!(matches!(expect, Value::Float(_)), "overflow must promote, got {expect:?}");
    for scan_aggregate in [false, true] {
        for partitions in [1usize, 2] {
            let out = catalog
                .execute_query_with(
                    &query,
                    ExecOptions { partitions, scan_aggregate, ..ExecOptions::default() },
                )
                .unwrap();
            assert_eq!(
                out.rows()[0][0],
                expect,
                "pushdown={scan_aggregate} partitions={partitions}"
            );
        }
    }
}

/// `group_key` folds Int keys through f64, so timestamps beyond 2^53 that
/// collapse to the same double must land in the same group — in the scan
/// aggregate exactly as in the string-keyed engines.
#[test]
fn scan_aggregate_folds_giant_timestamps_like_group_key() {
    let mut db = Tsdb::new();
    let t0 = 1i64 << 53;
    db.insert(&SeriesKey::new("m").with_tag("host", "a"), t0, 1.0);
    db.insert(&SeriesKey::new("m").with_tag("host", "b"), t0 + 1, 2.0); // same f64 as t0
    db.insert(&SeriesKey::new("m").with_tag("host", "c"), t0 + 2, 4.0); // distinct f64
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(
        "SELECT timestamp, SUM(value) AS s, COUNT(*) AS n FROM tsdb GROUP BY timestamp",
    )
    .unwrap();
    let baseline = catalog
        .execute_query_with(
            &query,
            ExecOptions { partitions: 1, scan_aggregate: false, ..ExecOptions::default() },
        )
        .unwrap();
    assert_eq!(baseline.len(), 2, "t0 and t0+1 fold into one group");
    for partitions in [1usize, 2, 3] {
        let out = catalog
            .execute_query_with(
                &query,
                ExecOptions { partitions, scan_aggregate: true, ..ExecOptions::default() },
            )
            .unwrap();
        assert_eq!(out.rows(), baseline.rows(), "partitions={partitions}");
    }
    let naive = execute_naive(&catalog, &query).unwrap();
    assert_eq!(naive.rows(), baseline.rows());
}

/// MIN/MAX over streams containing NaN are *order-dependent* folds (NaN
/// is incomparable, so `fold_minmax` keeps it as a separate class and the
/// result is the first-seen class's best). The optimizer must therefore
/// keep MIN/MAX-over-value pipelines off the series-major scan aggregate
/// unless `timestamp` is a group key (where series-rank order equals row
/// order within each group) — and either way, every engine must agree.
#[test]
fn minmax_with_nan_agrees_across_engines() {
    let mut db = Tsdb::new();
    // Rank order (canonical key order) differs from row (timestamp)
    // order: host=a scans first but its point is *later*, so a
    // series-major MIN fold would see 5.0 before the NaN that serial row
    // order sees first.
    db.insert(&SeriesKey::new("m").with_tag("host", "a"), 100, 5.0);
    db.insert(&SeriesKey::new("m").with_tag("host", "b"), 0, f64::NAN);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);

    // NaN != NaN under `PartialEq`, so identical results would still fail
    // a row comparison; compare the debug rendering instead (NaN renders
    // stably).
    let rendered = |t: &Table| format!("{:?}", t.rows());
    for sql in [
        "SELECT MIN(value) AS lo FROM tsdb",
        "SELECT MAX(value) AS hi FROM tsdb",
        "SELECT metric_name, MIN(value) AS lo FROM tsdb GROUP BY metric_name",
        "SELECT timestamp, MIN(value) AS lo FROM tsdb GROUP BY timestamp",
    ] {
        let query = parse_query(sql).unwrap();
        let baseline = catalog
            .execute_query_with(
                &query,
                ExecOptions { partitions: 1, scan_aggregate: false, ..ExecOptions::default() },
            )
            .unwrap();
        for partitions in [1usize, 2] {
            let out = catalog
                .execute_query_with(
                    &query,
                    ExecOptions { partitions, scan_aggregate: true, ..ExecOptions::default() },
                )
                .unwrap();
            assert_eq!(rendered(&out), rendered(&baseline), "{sql} partitions={partitions}");
        }
        let naive = execute_naive(&catalog, &query).unwrap();
        assert_eq!(rendered(&naive), rendered(&baseline), "{sql} reference");
    }
}

/// Mixed Int/Float comparisons must be *exact* — no rounding the Int
/// column through f64 — and identical in the vectorized kernels, the row
/// engines and the reference. Pins the cases where a lossy `as f64`
/// compare gives the wrong answer: i64 values above 2^53 against Float
/// constants, Float columns against non-round-trippable Int constants,
/// and NaN data dropping for every operator.
#[test]
fn mixed_int_float_comparisons_pinned_exact() {
    let p53 = 1i64 << 53; // 9007199254740992: the last exactly-representable step
    let rows = vec![
        vec![Value::Int(p53), Value::Float(0.5)],
        vec![Value::Int(p53 + 1), Value::Float(f64::NAN)],
        vec![Value::Int(i64::MAX), Value::Float(9_223_372_036_854_775_807i64 as f64)],
        vec![Value::Int(-3), Value::Float(f64::NEG_INFINITY)],
    ];
    let mut catalog = Catalog::new();
    catalog.register("b", Table::from_rows(&["x", "v"], rows));

    let serial = |sql: &str| {
        let query = parse_query(sql).unwrap();
        catalog
            .execute_query_with(
                &query,
                ExecOptions { partitions: 1, scan_aggregate: false, ..ExecOptions::default() },
            )
            .unwrap()
    };
    let x_of = |t: &Table| -> Vec<Value> { t.rows().iter().map(|r| r[0].clone()).collect() };

    // 2^53 + 1 rounds down to 2^53 under `as f64`; the exact compare must
    // still see it as strictly greater than the 2^53 Float constant.
    let out = serial("SELECT x FROM b WHERE x > 9007199254740992.0");
    assert_eq!(x_of(&out), vec![Value::Int(p53 + 1), Value::Int(i64::MAX)]);
    let out = serial("SELECT x FROM b WHERE x = 9007199254740992.0");
    assert_eq!(x_of(&out), vec![Value::Int(p53)], "!= under rounding, = exactly");

    // i64::MAX as f64 rounds *up* to 2^63, so the Float cell is strictly
    // greater than the Int constant i64::MAX — a lossy compare calls them
    // equal.
    let out = serial("SELECT x FROM b WHERE v <= 9223372036854775807");
    assert_eq!(x_of(&out), vec![Value::Int(p53), Value::Int(-3)]);
    let out = serial("SELECT x FROM b WHERE v > 9223372036854775807");
    assert_eq!(x_of(&out), vec![Value::Int(i64::MAX)]);

    // Fractional constants partition Int values exactly.
    let out = serial("SELECT x FROM b WHERE x <= -2.5");
    assert_eq!(x_of(&out), vec![Value::Int(-3)]);

    // NaN cells drop for EVERY comparison operator (SQL unknown), and
    // -inf compares below every finite constant.
    let out = serial("SELECT x FROM b WHERE v != 12345.0");
    assert_eq!(x_of(&out), vec![Value::Int(p53), Value::Int(i64::MAX), Value::Int(-3)]);
    let out = serial("SELECT x FROM b WHERE v < 1e308");
    assert_eq!(x_of(&out), vec![Value::Int(p53), Value::Int(i64::MAX), Value::Int(-3)]);

    // And all engines (serial/parallel/scan-agg x2/reference) agree on
    // every shape, including BETWEEN over the huge-Int boundary.
    for sql in [
        "SELECT x FROM b WHERE x > 9007199254740992.0",
        "SELECT x FROM b WHERE x = 9007199254740992.0",
        "SELECT x FROM b WHERE x != 9007199254740992.0 ORDER BY x",
        "SELECT x FROM b WHERE v <= 9223372036854775807",
        "SELECT x FROM b WHERE x <= -2.5",
        "SELECT x FROM b WHERE v != 12345.0",
        "SELECT x FROM b WHERE v < 1e308 AND x > 2.5",
        "SELECT x FROM b WHERE x BETWEEN -2.5 AND 9007199254740992.0",
        "SELECT COUNT(*) AS n FROM b WHERE v = v",
    ] {
        assert_same(&catalog, sql).unwrap();
    }
}

/// Int arithmetic at the i64 extremes promotes to Float instead of
/// wrapping or panicking, identically in the vectorized kernels, the row
/// engines and the reference (satellite: overflow audit).
#[test]
fn int_arithmetic_overflow_promotes_in_all_engines() {
    let rows = vec![
        vec![Value::Int(i64::MAX), Value::Int(1)],
        vec![Value::Int(i64::MIN), Value::Int(-1)],
        vec![Value::Int(1 << 53), Value::Int(3)],
    ];
    let mut catalog = Catalog::new();
    catalog.register("b", Table::from_rows(&["x", "k"], rows));

    let query = parse_query("SELECT x + 1 AS a, x * k AS m, x - 1 AS s FROM b").unwrap();
    let serial = catalog
        .execute_query_with(
            &query,
            ExecOptions { partitions: 1, scan_aggregate: false, ..ExecOptions::default() },
        )
        .unwrap();
    // i64::MAX + 1 promotes; (2^53) + 1 stays exact Int.
    assert_eq!(serial.rows()[0][0], Value::Float((i128::from(i64::MAX) + 1) as f64));
    assert_eq!(serial.rows()[1][0], Value::Int(i64::MIN + 1));
    assert_eq!(serial.rows()[2][0], Value::Int((1 << 53) + 1));
    // i64::MIN * -1 overflows by exactly one; the exact i128 product
    // converts to 2^63 as f64.
    assert_eq!(serial.rows()[1][1], Value::Float(9_223_372_036_854_775_808.0));
    assert_eq!(serial.rows()[1][2], Value::Float((i128::from(i64::MIN) - 1) as f64));

    for sql in [
        "SELECT x + 1 AS a, x * k AS m, x - 1 AS s FROM b",
        "SELECT x FROM b WHERE x * k > 0",
        "SELECT SUM(x) AS s FROM b",
    ] {
        assert_same(&catalog, sql).unwrap();
    }
}

/// Non-constant PERCENTILE p must error identically everywhere.
#[test]
fn non_constant_percentile_p_rejected_by_all_engines() {
    let rows = vec![
        vec![Value::Int(0), Value::str("a"), Value::Float(1.0)],
        vec![Value::Int(1), Value::str("a"), Value::Float(2.0)],
    ];
    let mut catalog = Catalog::new();
    catalog.register("t", Table::from_rows(&["ts", "host", "v"], rows));
    let query = parse_query("SELECT PERCENTILE(v, ts * 0.1) AS p FROM t").unwrap();
    for parts in [1usize, 2] {
        let out = catalog.execute_query_with(&query, ExecOptions::with_partitions(parts));
        assert!(
            matches!(out, Err(explainit_query::QueryError::BadFunction(_))),
            "partitions={parts}: {out:?}"
        );
    }
    assert!(matches!(
        execute_naive(&catalog, &query),
        Err(explainit_query::QueryError::BadFunction(_))
    ));
}
