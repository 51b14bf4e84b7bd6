//! Scan gather benchmark: ordering the materializing TSDB scan with the
//! k-way merge over per-series sorted point vectors, on an aligned fleet
//! (the transpose fast path) and an irregular one (the general merge
//! cascade). Before timing, the output is asserted row-identical to the
//! single-partition gather and to the reference interpreter. Run in
//! `--test` mode in CI as a correctness smoke.

use criterion::{criterion_group, criterion_main, Criterion};
use explainit_query::reference::execute_naive;
use explainit_query::{parse_query, Catalog, ExecOptions, Query};
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
    db
}

/// The family *scan* (no aggregation): every in-range point of the fleet
/// materializes as a row, ordered by (timestamp, series rank).
const FAMILY_SCAN: &str = "SELECT timestamp, value FROM tsdb \
     WHERE metric_name = 'disk' AND timestamp BETWEEN 0 AND 10000000";

/// Correctness gate before any timing: the default (parallel) gather is
/// row-identical to the single-partition gather and to the reference
/// interpreter. Returns the row count.
fn gate_rows(catalog: &Catalog, query: &Query) -> usize {
    let out = catalog.execute_query_with(query, ExecOptions::default()).expect("merge");
    let serial =
        catalog.execute_query_with(query, ExecOptions::with_partitions(1)).expect("serial");
    assert_eq!(out.rows(), serial.rows(), "partitioned gather changed the scan output");
    let naive = execute_naive(catalog, query).expect("reference");
    assert_eq!(out.rows(), naive.rows(), "merge gather diverged from the reference");
    out.len()
}

fn bench_family_scan_gather(c: &mut Criterion) {
    let db = build_db(64, 2000);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(FAMILY_SCAN).expect("parse");

    assert_eq!(gate_rows(&catalog, &query), 64 * 2000);

    let mut group = c.benchmark_group("scan_gather/family_64x2000");
    group.sample_size(10);
    group.bench_function("kway_merge", |bch| {
        bch.iter(|| catalog.execute_query_with(&query, ExecOptions::default()).expect("merge"));
    });
    group.finish();
}

fn bench_irregular_fleet(c: &mut Criterion) {
    // Per-series phase-shifted grids: no two series share a timestamp
    // vector and no series is time-disjoint from the next, so neither
    // structure fast path (transpose / identity) applies — this measures
    // the general merge cascade.
    let mut db = Tsdb::new();
    let (fleet, points) = (64usize, 2000usize);
    for s in 0..fleet {
        let key = SeriesKey::new("disk")
            .with_tag("host", format!("host-{s}"))
            .with_tag("grp", format!("g{}", s % 8));
        for t in 0..points {
            db.insert(&key, t as i64 * 60 + (s as i64 % 59), (t + s) as f64);
        }
    }
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(FAMILY_SCAN).expect("parse");
    assert_eq!(gate_rows(&catalog, &query), fleet * points);

    let mut group = c.benchmark_group("scan_gather/irregular_64x2000");
    group.sample_size(10);
    group.bench_function("kway_merge", |bch| {
        bch.iter(|| catalog.execute_query_with(&query, ExecOptions::default()).expect("merge"));
    });
    group.finish();
}

criterion_group!(benches, bench_family_scan_gather, bench_irregular_fleet);
criterion_main!(benches);
