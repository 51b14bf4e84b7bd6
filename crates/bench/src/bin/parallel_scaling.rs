//! Partition-scaling report for the parallel query executor.
//!
//! Sweeps partition counts over the Appendix-C family query and prints a
//! speedup table against the single-partition pipeline and the naive
//! reference interpreter — the §4 "hypotheses per second scale with
//! cores" claim, applied to the query layer. Run with:
//!
//! ```text
//! cargo run --release -p explainit-bench --bin parallel_scaling [fleet] [points]
//! ```

use std::time::{Duration, Instant};

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
    db
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed());
    }
    best
}

fn main() {
    let mut args = std::env::args().skip(1);
    let fleet: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let points: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let db = build_db(fleet, points);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let query = parse_query(
        "SELECT timestamp, tag['grp'], AVG(value) AS mean_v, STDDEV(value) AS sd \
         FROM tsdb WHERE metric_name = 'disk' AND timestamp BETWEEN 0 AND 10000000 \
         GROUP BY timestamp, tag['grp'] ORDER BY timestamp ASC",
    )
    .expect("parse");

    println!(
        "parallel_scaling: fleet={fleet} series x {points} points \
         ({} rows), {cores} core(s)",
        fleet * points
    );

    let serial_out =
        catalog.execute_query_with(&query, ExecOptions::with_partitions(1)).expect("serial");
    let serial = best_of(3, || {
        catalog.execute_query_with(&query, ExecOptions::with_partitions(1)).expect("serial");
    });
    println!("{:<26} {:>12.3?}   (baseline, {} groups)", "partitions=1", serial, serial_out.len());

    for parts in [2usize, 4, 8, 16] {
        let out =
            catalog.execute_query_with(&query, ExecOptions::with_partitions(parts)).expect("par");
        assert_eq!(out.rows(), serial_out.rows(), "partitions={parts} diverged");
        let t = best_of(3, || {
            catalog.execute_query_with(&query, ExecOptions::with_partitions(parts)).expect("par");
        });
        println!(
            "{:<26} {:>12.3?}   {:.2}x vs serial",
            format!("partitions={parts}"),
            t,
            serial.as_secs_f64() / t.as_secs_f64()
        );
    }

    let auto = best_of(3, || {
        catalog.execute_query_with(&query, ExecOptions::with_partitions(0)).expect("auto");
    });
    println!(
        "{:<26} {:>12.3?}   {:.2}x vs serial",
        "partitions=auto",
        auto,
        serial.as_secs_f64() / auto.as_secs_f64()
    );

    // The retained seed interpreter, for the end-to-end engine-vs-engine view.
    let naive_out = execute_naive(&catalog, &query).expect("naive");
    assert_eq!(naive_out.rows(), serial_out.rows(), "reference diverged");
    let naive = best_of(2, || {
        execute_naive(&catalog, &query).expect("naive");
    });
    println!(
        "{:<26} {:>12.3?}   pipeline(auto) is {:.2}x faster",
        "reference interpreter",
        naive,
        naive.as_secs_f64() / auto.as_secs_f64()
    );

    // ---- skewed fleet ----------------------------------------------------
    // One hot series holds ~all the points. The scan-aggregate morsels are
    // point-balanced (they split the hot series), so forced partition
    // counts must stay row-identical to serial; a diff fails the run.
    let db = explainit_bench::build_skewed_db(fleet, points);
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    println!("\nskewed fleet: 1 hot series with ~all of {} points", db.point_count());
    let skew_serial_out =
        catalog.execute_query_with(&query, ExecOptions::with_partitions(1)).expect("skew serial");
    let skew_serial = best_of(3, || {
        catalog.execute_query_with(&query, ExecOptions::with_partitions(1)).expect("skew serial");
    });
    println!("{:<26} {:>12.3?}   (baseline)", "skew partitions=1", skew_serial);
    for parts in [2usize, 4, 8, 0] {
        let out = catalog
            .execute_query_with(&query, ExecOptions::with_partitions(parts))
            .expect("skew par");
        assert_eq!(out.rows(), skew_serial_out.rows(), "skew partitions={parts} diverged");
        let t = best_of(3, || {
            catalog
                .execute_query_with(&query, ExecOptions::with_partitions(parts))
                .expect("skew par");
        });
        let label = if parts == 0 { "auto".to_string() } else { parts.to_string() };
        println!(
            "{:<26} {:>12.3?}   {:.2}x vs serial",
            format!("skew partitions={label}"),
            t,
            skew_serial.as_secs_f64() / t.as_secs_f64()
        );
    }

    // ---- ordered-scan merge cascade ---------------------------------------
    // Raw ordered scan (no aggregate) over a fleet whose per-series
    // timestamps interleave irregularly: series i contributes ts = j*7+(i%5),
    // so neither the identity fast path (one series) nor the grid/transpose
    // fast path (aligned scrape grid) applies and the gather falls through
    // to the bottom-up two-way merge cascade. The partition sweep also sets
    // the cascade's worker count; every setting must stay row-identical to
    // the single-worker cascade and to the reference interpreter.
    let mut db = Tsdb::new();
    for s in 0..fleet {
        let key = SeriesKey::new("disk").with_tag("host", format!("host-{s}"));
        for t in 0..points {
            db.insert(&key, t as i64 * 7 + (s % 5) as i64, (s * points + t) as f64 * 0.25);
        }
    }
    let mut catalog = Catalog::new();
    catalog.register_tsdb("tsdb", &db);
    let scan_query = parse_query(
        "SELECT timestamp, value FROM tsdb WHERE metric_name = 'disk' ORDER BY timestamp ASC",
    )
    .expect("parse scan");
    println!(
        "\nordered-scan merge cascade: {fleet} interleaved series x {points} points \
         ({} rows)",
        fleet * points
    );
    let serial_opts = ExecOptions::with_partitions(1);
    let serial_out = catalog.execute_query_with(&scan_query, serial_opts).expect("serial");
    let naive_out = execute_naive(&catalog, &scan_query).expect("naive scan");
    assert_eq!(serial_out.rows(), naive_out.rows(), "merge cascade diverged from the reference");
    let serial_t = best_of(3, || {
        catalog.execute_query_with(&scan_query, serial_opts).expect("serial");
    });
    println!("{:<26} {:>12.3?}   (single-worker baseline)", "merge workers=1", serial_t);
    for parts in [2usize, 4, 8, 0] {
        let opts = ExecOptions::with_partitions(parts);
        let out = catalog.execute_query_with(&scan_query, opts).expect("merge");
        assert_eq!(
            out.rows(),
            serial_out.rows(),
            "merge cascade (partitions={parts}) diverged from the single-worker cascade"
        );
        let t = best_of(3, || {
            catalog.execute_query_with(&scan_query, opts).expect("merge");
        });
        let label = if parts == 0 { "auto".to_string() } else { parts.to_string() };
        println!(
            "{:<26} {:>12.3?}   {:.2}x vs one worker",
            format!("merge workers={label}"),
            t,
            serial_t.as_secs_f64() / t.as_secs_f64()
        );
    }
}
