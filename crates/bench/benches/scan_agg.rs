//! Scan-level aggregate pushdown benchmark: the Appendix-C family query
//! (GROUP BY timestamp × tag dimension over one metric's series fleet)
//! through three engines — the row pipeline (pushdown off: the scan
//! gather, then the serial aggregate), the `ScanAggregate` operator
//! (pushdown on), and the naive reference
//! interpreter. The `scan_agg_report` binary prints the full sweep; this
//! bench pins the headline comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use explainit_query::reference::execute_naive;
use explainit_query::{parse_query, Catalog, ExecOptions};
use explainit_tsdb::{SeriesKey, Tsdb};

fn build_db(fleet: usize, points: usize) -> Tsdb {
    let mut db = Tsdb::new();
    for s in 0..fleet {
        let key = SeriesKey::new("disk")
            .with_tag("host", format!("host-{s}"))
            .with_tag("grp", format!("g{}", s % 8));
        for t in 0..points {
            db.insert(&key, t as i64 * 60, ((s * points + t) % 997) as f64 * 0.1);
        }
    }
    for s in 0..fleet {
        let key = SeriesKey::new(format!("noise_{}", s % 20)).with_tag("host", format!("host-{s}"));
        for t in 0..(points / 4) {
            db.insert(&key, t as i64 * 60, t as f64);
        }
    }
    db
}

const FAMILY_QUERY: &str = "SELECT timestamp, tag['grp'], AVG(value) AS mean_v, \
     STDDEV(value) AS sd FROM tsdb WHERE metric_name = 'disk' \
     AND timestamp BETWEEN 0 AND 10000000 \
     GROUP BY timestamp, tag['grp'] ORDER BY timestamp ASC";

fn bench_family_query_pushdown(c: &mut Criterion) {
    let db = build_db(64, 2000);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(FAMILY_QUERY).expect("parse");

    let off = ExecOptions { partitions: 0, scan_aggregate: false, ..ExecOptions::default() };
    let on = ExecOptions { partitions: 0, scan_aggregate: true, ..ExecOptions::default() };
    // Sanity: both engines must agree before timing means anything.
    let a = catalog.execute_query_with(&query, off).expect("off");
    let b = catalog.execute_query_with(&query, on).expect("on");
    assert_eq!(a.rows(), b.rows(), "pushdown changed the result");

    let mut group = c.benchmark_group("scan_agg/family");
    group.sample_size(10);
    group.bench_function("row_pipeline", |bch| {
        bch.iter(|| catalog.execute_query_with(&query, off).expect("off"));
    });
    group.bench_function("scan_aggregate", |bch| {
        bch.iter(|| catalog.execute_query_with(&query, on).expect("on"));
    });
    group.bench_function("scan_aggregate_serial", |bch| {
        bch.iter(|| {
            catalog
                .execute_query_with(
                    &query,
                    ExecOptions { partitions: 1, scan_aggregate: true, ..ExecOptions::default() },
                )
                .expect("on-serial")
        });
    });
    group.finish();
}

fn bench_against_reference(c: &mut Criterion) {
    // Smaller store so the naive full-materialization interpreter finishes
    // in bench time; same query shape.
    let db = build_db(32, 400);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(FAMILY_QUERY).expect("parse");
    let _ = execute_naive(&catalog, &query).expect("naive warm-up fills the view cache");

    let mut group = c.benchmark_group("scan_agg/vs_reference");
    group.sample_size(10);
    group.bench_function("scan_aggregate_auto", |bch| {
        bch.iter(|| catalog.execute_query_with(&query, ExecOptions::default()).expect("on"));
    });
    group.bench_function("reference_naive", |bch| {
        bch.iter(|| execute_naive(&catalog, &query).expect("naive"));
    });
    group.finish();
}

criterion_group!(benches, bench_family_query_pushdown, bench_against_reference);
criterion_main!(benches);
