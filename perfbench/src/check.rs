//! The correctness gate: operation and failure counts, and the checks
//! every iteration's results must pass.

use std::collections::BTreeSet;
use std::fmt::Display;

use explainit::core::Ranking;
use explainit::query::{Table, Value};

/// One ranking row. Scores are kept as bits so that comparisons are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRow {
    /// Candidate family.
    pub family: String,
    /// `f64::to_bits` of the score.
    pub score_bits: u64,
    /// `f64::to_bits` of the p-value.
    pub p_value_bits: u64,
}

impl RankRow {
    fn new(family: &str, score: f64, p_value: f64) -> RankRow {
        RankRow {
            family: family.to_string(),
            score_bits: score.to_bits(),
            p_value_bits: p_value.to_bits(),
        }
    }

    /// The score.
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }

    /// The p-value.
    pub fn p_value(&self) -> f64 {
        f64::from_bits(self.p_value_bits)
    }
}

/// One ranking per `EXPLAIN FOR`, in script order.
pub type Rankings = Vec<Vec<RankRow>>;

/// Reads the rows of a ranking table as `Session` returns it
/// (`rank, family, score, p_value, features, error`).
pub fn rows_from_table(table: &Table) -> Result<Vec<RankRow>, String> {
    let family = table.schema().resolve("family").map_err(|e| e.to_string())?;
    let score = table.schema().resolve("score").map_err(|e| e.to_string())?;
    let p_value = table.schema().resolve("p_value").map_err(|e| e.to_string())?;
    table
        .rows()
        .iter()
        .map(|row| match (&row[family], &row[score], &row[p_value]) {
            (Value::Str(f), Value::Float(s), Value::Float(p)) => Ok(RankRow::new(f, *s, *p)),
            other => Err(format!("malformed ranking row: {other:?}")),
        })
        .collect()
}

/// The first `k` entries of an engine ranking.
pub fn rows_from_ranking(ranking: &Ranking, k: usize) -> Vec<RankRow> {
    ranking.entries.iter().take(k).map(|e| RankRow::new(&e.family, e.score, e.p_value)).collect()
}

/// What every iteration must reproduce.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The rankings of the script over the simulator's own in-memory store.
    pub rankings: Rankings,
    /// Points the reopened store must hold.
    pub points: usize,
    /// Families of which at least one must make the first ranking's top
    /// ten (`rca_long` only).
    pub causes: Option<BTreeSet<String>>,
}

/// Operations attempted and failed. An operation is a statement, an
/// ingest batch, a flush or snapshot write, or an open; a failed check
/// counts as one more attempted and failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns its value when it succeeded.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a check; a failing one counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.attempted += 1;
            self.fail(what());
        }
        ok
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Every ranking row has a finite score and a p-value in `[0, 1]`.
pub fn check_sane(tally: &mut Tally, rankings: &Rankings) {
    for (i, ranking) in rankings.iter().enumerate() {
        for row in ranking {
            let (s, p) = (row.score(), row.p_value());
            tally.check(s.is_finite() && (0.0..=1.0).contains(&p), || {
                format!("ranking {}: {} has score {s} and p-value {p}", i + 1, row.family)
            });
        }
    }
}

/// `got` equals the expected rankings bit for bit, comparing each ranking
/// on the expected ranking's length.
fn check_rankings(tally: &mut Tally, what: &str, got: &Rankings, expected: &Rankings) {
    if !tally.check(got.len() == expected.len(), || {
        format!("{what}: {} rankings, expected {}", got.len(), expected.len())
    }) {
        return;
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        let head = &g[..e.len().min(g.len())];
        tally.check(head == e.as_slice(), || {
            format!("{what}: ranking {} differs from the reference: {head:?} vs {e:?}", i + 1)
        });
    }
}

/// All checks on one iteration's store and the rankings its script run
/// (`what`: the `Session` run or the traced decomposition) returned.
pub fn check_iteration(
    tally: &mut Tally,
    what: &str,
    expected: &Expected,
    points: usize,
    rankings: &Rankings,
) {
    tally.check(points == expected.points, || {
        format!("reopened store holds {points} points, {} were ingested", expected.points)
    });
    check_sane(tally, rankings);
    check_rankings(tally, what, rankings, &expected.rankings);
    if let Some(causes) = &expected.causes {
        let top = rankings.first().map_or(&[][..], |r| &r[..r.len().min(10)]);
        tally.check(top.iter().any(|row| causes.contains(&row.family)), || {
            format!("no injected cause {causes:?} in the top 10")
        });
    }
}
