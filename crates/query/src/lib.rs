//! A declarative SQL-subset engine over the time series store, built as a
//! three-stage **plan → optimize → columnar-execute** pipeline.
//!
//! The paper's thesis is that *databases are in a unique position to enable
//! exploratory causal analysis*: users enumerate hypotheses with SQL
//! (Appendix C lists the production queries), so hypothesis-exploration
//! throughput is bounded by query throughput. The production system leaned
//! on Spark SQL's optimizer and columnar execution; this crate implements
//! the same staging from scratch:
//!
//! 1. **Plan** ([`plan`]) — the parsed AST is lowered to a logical operator
//!    tree (`Scan`/`Filter`/`Project`/`Aggregate`/`Join`/`Sort`/`Limit`/
//!    `Union`), with ORDER BY keys resolved to output columns or hidden
//!    input-scope key columns at plan time. A static type checker
//!    ([`types`], [`check_query`]) then runs before any rewrite: every
//!    statement guaranteed to fail at runtime — string arithmetic, wrong
//!    function arity, aggregates in row contexts, a non-constant or
//!    out-of-range `PERCENTILE` p — is rejected here with the source byte
//!    position of the offending expression, and unknown columns suggest
//!    near-miss names. In debug builds (and whenever
//!    `EXPLAINIT_VERIFY_PLANS` is set, or `OptimizeOptions::verify` is
//!    on) a plan verifier ([`verify`]) additionally re-checks structural
//!    invariants after every optimizer rule, naming the rule in its error.
//! 2. **Optimize** ([`optimize`]) — rule-based rewrites, in order
//!    `fold_constants`, `convert_tsdb_scans`, `pushdown`, `prune`,
//!    `annotate_join_stats` and `scan_aggregate`: constant folding,
//!    predicate pushdown (through projections and aliases, into the
//!    matching side of joins, and through aggregate group keys), and —
//!    crucially — pushdown *into storage*: on a table bound with
//!    [`Catalog::register_tsdb`], `metric_name = '…'`, `tag['k'] = 'v'`,
//!    `tag['k'] IS [NOT] NULL` and `timestamp` range conjuncts become an
//!    inverted-tag-index scan ([`explainit_tsdb::Tsdb::scan`]) instead of a
//!    full-store materialization. Projection pruning then drops unused
//!    observation columns (skipping per-row tag-map clones entirely when
//!    `tag` is never read).
//! 3. **Execute** ([`exec`], internal) — physical operators over typed
//!    column vectors ([`Table`] is columnar with a row-compat shim):
//!    vectorized WHERE masks, hash joins and grouped aggregation gather
//!    column indices instead of materializing row vectors; window
//!    functions, CASE and scalar calls fall back to the row shim. TSDB
//!    scans emit *dictionary-encoded* `metric_name`/`tag` columns
//!    ([`Column::Dict`]: one shared `Arc` dictionary per binding plus a
//!    `u32` code per row), and predicates over them evaluate once per
//!    distinct entry. Every operator has one executor. Two of them run
//!    **partition-parallel**, with the partition count controlled via
//!    [`ExecOptions`] / [`Catalog::execute_query_with`]: the TSDB scan
//!    gather (a k-way merge over the per-series sorted point vectors, then
//!    per-morsel column materialization concatenated in order), and the
//!    stage-one hot shape — an aggregate whose group keys are `timestamp`
//!    and/or the dictionary-encoded scan columns, sitting directly on a
//!    TSDB scan — which the optimizer's `scan_aggregate` rule collapses
//!    into a single `LogicalPlan::ScanAggregate` node: the executor
//!    pre-aggregates each series' sorted point vectors straight off the
//!    store (no row materialization, grouping on `(dict class, timestamp)`
//!    integer composite keys) and merges per-morsel partials in morsel
//!    order — bit-identical to serial execution by construction
//!    (error-free float summation). Every other `Aggregate` runs the serial
//!    vectorized executor, grouping on dictionary codes where it can.
//!    `ExecOptions::scan_aggregate` turns the rewrite off; the four-way
//!    differential suite runs every generated query both ways against the
//!    reference interpreter.
//!
//! ## Reading `EXPLAIN` output
//!
//! `EXPLAIN <query>` returns the optimized plan as a one-column table —
//! the fastest way to confirm a predicate reached the scan. For the
//! paper's Appendix-C family query the whole pipeline collapses into one
//! node (under the Sort):
//!
//! ```text
//! Sort [#0 ASC]
//!   ScanAggregate tsdb name=disk time=[0, 10000000] \
//!     group=[timestamp, tag[grp]] \
//!     items=[timestamp AS timestamp, tag[grp] AS tag[grp], AVG(value) AS mean_v]
//! ```
//!
//! A `where=[...]` attribute lists residual predicates the scan indexes
//! could not absorb (evaluated per series / per point before
//! aggregation). Their order tells you how each conjunct executes — the
//! optimizer sorts the chain into three classes, and within the span
//! loop the whole chain runs as a *fused* filter over one selection
//! vector (no intermediate column is materialized between conjuncts):
//!
//! 1. predicates over `metric_name`/`tag` dictionary columns first —
//!    evaluated once per series, not per point;
//! 2. kernel-refinable point predicates next — comparisons, `BETWEEN`,
//!    `IS NULL` and literal `IN` lists over `timestamp`/`value`, which
//!    refine the selection vector in place with typed branch-free
//!    loops ([`kernel`]);
//! 3. everything else last — general expressions that need the row
//!    gather + vectorized evaluator fallback.
//!
//! When residual predicates appear as explicit `Filter` nodes instead
//! (any non-`ScanAggregate` plan), each filter line over a scan carries
//! a `refine=dict|kernel|general` annotation naming the same class, so
//! the chain order above is visible directly: reading top-down you
//! should see `general` before `kernel` before `dict` (outermost runs
//! last). A filter over a registered (non-TSDB) table shows
//! `refine=kernel` only when the static types ([`types`]) prove every
//! referenced column is dense and numeric — the precondition for the
//! typed selection-vector loops.
//!
//! If you expected the pushdown and see an `Aggregate` over a `TsdbScan`
//! instead, the `scan_aggregate` rule found the pipeline ineligible and it
//! runs on the serial `Aggregate` executor. These all fall back: a group
//! key that is not `timestamp` or a dictionary column (`metric_name`,
//! `tag`, `tag['k']`), an output that is not a plain aggregate call, a
//! join/UNION context, `MIN`/`MAX` over the raw `tag` map, or — without a
//! `timestamp` group key — `MIN`/`MAX` over a float stream (NaN is
//! incomparable, so that fold is accumulation-order dependent).
//!
//! The pre-pipeline tree-walking interpreter is retained verbatim in
//! [`reference`] as a differential-testing oracle (see
//! `tests/differential.rs`) and as the baseline the `query_exec` bench
//! measures the pipeline against.
//!
//! Supported SQL surface:
//!
//! * `SELECT` projections with aliases, arithmetic and scalar functions
//!   (`CONCAT`, `SPLIT(s, sep)[i]`, `GREATEST`, `COALESCE`, ...);
//! * `WHERE` with full boolean logic, `IN`, `BETWEEN`, `LIKE` (SQL
//!   wildcards), `GLOB` (shell wildcards — pushable to the TSDB name/tag
//!   indexes, with a literal-prefix range scan of the name index),
//!   `IS [NOT] NULL`;
//! * `GROUP BY` with `AVG`/`SUM`/`MIN`/`MAX`/`COUNT`/`STDDEV`/`VARIANCE`/
//!   `PERCENTILE(expr, p)` — `SUM` keeps Int typing over all-Int input
//!   (promoting to Float on i64 overflow), `STDDEV`/`VARIANCE` are the
//!   *sample* (n−1) statistics, and `PERCENTILE` requires `p` to be
//!   constant within each group;
//! * the window function `LAG(expr, k)` over the current row order (§3.5
//!   footnote: lagged features for time series);
//! * `UNION ALL` of compatible queries (stage-one family queries are
//!   unioned, Figure 4) with Int/Float column coercion;
//! * `INNER` / `LEFT` / `FULL OUTER JOIN ... ON` equality conditions (the
//!   hypothesis-generation join of Appendix C);
//! * `ORDER BY ... ASC|DESC`, `LIMIT`;
//! * map access `tag['host']` against the TSDB virtual table;
//! * `EXPLAIN <query>`.
//!
//! **Statements and scripts** ([`parse_statement`] / [`parse_script`]):
//! beyond plain queries, the parser understands the paper's declarative
//! RCA statements, separated by `;` in scripts:
//!
//! * `CREATE FAMILY <name> [WITH (layout = 'wide'|'long', ts = ..,
//!   family = .., feature = .., value = ..)] AS <query>` — stage one +
//!   pivot into the Feature Family Table;
//! * `EXPLAIN FOR <target> [GIVEN <fam>, ...] [USING SCORER <name>]
//!   [TOP <k>]` — hypothesis ranking (distinct from the `EXPLAIN <query>`
//!   plan dump via one token of lookahead);
//! * `SHOW FAMILIES`, `SHOW TABLES`, `DROP FAMILY <name>`.
//!
//! The statement keywords are recognised positionally, never reserved:
//! `family`, `top`, `scorer`, `create`, ... all remain valid identifiers
//! and aliases inside ordinary queries. This crate only *parses* the RCA
//! statements (and executes plain queries); the stateful executor that
//! pairs them with the ranking engine is the facade crate's `Session`.
//!
//! The query entry point is [`Catalog`]: register tables (or bind a
//! [`explainit_tsdb::Tsdb`] as the `tsdb` virtual table — or a
//! [`explainit_tsdb::SharedTsdb`] via [`Catalog::register_tsdb_shared`]
//! for a live binding that tracks ingests through its generation counter)
//! and call [`Catalog::execute`].
//!
//! ```
//! use explainit_query::{Catalog, Table, Value};
//!
//! let mut catalog = Catalog::new();
//! let table = Table::from_rows(
//!     &["ts", "host", "v"],
//!     vec![
//!         vec![Value::Int(0), Value::str("a"), Value::Float(1.0)],
//!         vec![Value::Int(0), Value::str("b"), Value::Float(3.0)],
//!     ],
//! );
//! catalog.register("m", table);
//! let out = catalog.execute("SELECT ts, AVG(v) AS mean_v FROM m GROUP BY ts").unwrap();
//! assert_eq!(out.rows()[0][1], Value::Float(2.0));
//! ```

#![forbid(unsafe_code)]

mod ast;
mod catalog;
mod column;
mod error;
mod eval;
mod exec;
mod functions;
pub mod kernel;
mod lexer;
pub mod optimize;
mod parser;
mod pivot;
pub mod plan;
pub mod reference;
mod table;
pub mod types;
mod value;
pub mod verify;
mod veval;

pub use ast::{
    BinaryOp, CreateFamily, ExplainFor, Expr, JoinKind, OrderKey, Query, SelectItem, SelectStmt,
    Statement, TableRef, UnaryOp,
};
pub use catalog::Catalog;
pub use column::Column;
pub use error::QueryError;
pub use exec::ExecOptions;
pub use functions::AggAcc;
pub use lexer::{tokenize, Token};
pub use parser::{parse_query, parse_script, parse_statement};
pub use pivot::{pivot_long, pivot_one, pivot_wide, FamilyFrame};
pub use plan::LogicalPlan;
pub use table::{Schema, Table};
pub use types::{check_query, infer_expr, ColInfo, ColType, TypedSchema};
pub use value::Value;

/// Result alias for query operations.
pub type Result<T> = std::result::Result<T, QueryError>;
