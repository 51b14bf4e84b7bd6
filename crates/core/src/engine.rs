//! The interactive ranking engine (Algorithm 1 of the paper).
//!
//! Holds the session's feature families, enumerates hypotheses for a
//! target + conditioning set, scores them in parallel (the hypothesis is
//! the unit of parallelism, §4), and returns the top-K ranking with
//! per-hypothesis timing — the measurements Figure 10 plots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use explainit_sync::{LockClass, Mutex};

use explainit_linalg::Matrix;
use explainit_ml::Residualizer;

/// Per-ranking worker results: a leaf push after each hypothesis is
/// scored, so nothing ever nests inside it.
static ENGINE_RESULTS: LockClass = LockClass::new("core.engine.results", 90);

use crate::family::FeatureFamily;
use crate::hypothesis::HypothesisSet;
use crate::scorers::{
    conditioning, score_hypothesis, score_residuals, ScoreConfig, ScoreDetail, ScorerKind,
};
use crate::{CoreError, Result};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of top results to return (the paper defaults to 20).
    pub top_k: usize,
    /// Worker threads for hypothesis scoring (0 = available parallelism).
    pub workers: usize,
    /// Shared scorer options.
    pub score: ScoreConfig,
    /// Minimum shared time steps required to score a hypothesis.
    pub min_rows: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { top_k: 20, workers: 0, score: ScoreConfig::default(), min_rows: 12 }
    }
}

/// Outcome of scoring one hypothesis: the detail plus its wall-clock cost,
/// or the error message.
pub type ScoreOutcome = std::result::Result<(ScoreDetail, Duration), String>;

/// One ranked hypothesis in the output.
#[derive(Debug, Clone)]
pub struct RankedHypothesis {
    /// Candidate family name (X).
    pub family: String,
    /// Dependence score in `[0, 1]` (higher = more causally relevant).
    pub score: f64,
    /// Chebyshev p-value bound for the score.
    pub p_value: f64,
    /// Penalty chosen by the grid search, when applicable.
    pub best_lambda: Option<f64>,
    /// Features in X after projection.
    pub effective_predictors: usize,
    /// Raw feature count of the family.
    pub family_width: usize,
    /// Wall-clock scoring time for this hypothesis.
    pub duration: Duration,
    /// Scoring error, if the hypothesis could not be scored (kept in the
    /// report so the user sees gaps rather than silent drops).
    pub error: Option<String>,
}

/// The result of one ranking request.
#[derive(Debug, Clone)]
pub struct Ranking {
    /// Entries sorted by decreasing score (failed hypotheses sink to the
    /// bottom), truncated to `top_k`.
    pub entries: Vec<RankedHypothesis>,
    /// Total hypotheses scored (before top-K truncation).
    pub hypotheses_scored: usize,
    /// Scorer used.
    pub scorer: ScorerKind,
    /// Target family name.
    pub target: String,
    /// Conditioning family names.
    pub conditioned_on: Vec<String>,
    /// End-to-end wall-clock time.
    pub elapsed: Duration,
}

impl Ranking {
    /// Position (1-based rank) of the named family, if it made the top-K.
    pub fn rank_of(&self, family: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.family == family).map(|i| i + 1)
    }
}

/// The ExplainIt! engine: a session-scoped set of families plus scoring
/// configuration.
#[derive(Debug, Default)]
pub struct Engine {
    families: Vec<FeatureFamily>,
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { families: Vec::new(), config }
    }

    /// Adds (or replaces, by name) a feature family.
    pub fn add_family(&mut self, family: FeatureFamily) {
        match self.families.iter_mut().find(|f| f.name == family.name) {
            Some(slot) => *slot = family,
            None => self.families.push(family),
        }
    }

    /// Removes a family by name. Returns true if it existed.
    pub fn remove_family(&mut self, name: &str) -> bool {
        let before = self.families.len();
        self.families.retain(|f| f.name != name);
        self.families.len() != before
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the configuration (e.g. a per-request `TOP k`).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// Adds every frame from a query pivot.
    pub fn add_frames(&mut self, frames: &[explainit_query::FamilyFrame]) {
        for f in frames {
            self.add_family(FeatureFamily::from_frame(f));
        }
    }

    /// Owned variant of [`Engine::add_frames`]: consumes pivot output
    /// without cloning timestamps or feature names.
    pub fn add_frames_owned(&mut self, frames: Vec<explainit_query::FamilyFrame>) {
        for f in frames {
            self.add_family(FeatureFamily::from_frame_owned(f));
        }
    }

    /// Number of registered families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Total feature count across families.
    pub fn feature_count(&self) -> usize {
        self.families.iter().map(FeatureFamily::width).sum()
    }

    /// Borrow a family by name.
    pub fn family(&self, name: &str) -> Option<&FeatureFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// All registered families in insertion order (the slice
    /// [`crate::auto_select_scorer`] inspects — no clones needed).
    pub fn families(&self) -> &[FeatureFamily] {
        &self.families
    }

    /// All family names in insertion order.
    pub fn family_names(&self) -> Vec<&str> {
        self.families.iter().map(|f| f.name.as_str()).collect()
    }

    /// Runs one iteration of Algorithm 1: score every candidate family
    /// against `target` conditioned on `condition`, in parallel, and return
    /// the top-K ranking.
    pub fn rank(&self, target: &str, condition: &[&str], scorer: ScorerKind) -> Result<Ranking> {
        self.rank_in_search_space(target, condition, &[], scorer)
    }

    /// [`Engine::rank`] restricted to a user-declared search space
    /// (Algorithm 1, line 2: "All families or user defined subset").
    pub fn rank_in_search_space(
        &self,
        target: &str,
        condition: &[&str],
        search_space: &[&str],
        scorer: ScorerKind,
    ) -> Result<Ranking> {
        let started = Instant::now();
        let set = HypothesisSet::enumerate(&self.families, target, condition, search_space)?;
        let y_family = &self.families[set.y];
        let mut shared_ts = y_family.timestamps.clone();
        for &zi in &set.z {
            shared_ts = self.families[zi].shared_timestamps(&shared_ts);
        }
        if shared_ts.len() < self.config.min_rows {
            return Err(CoreError::InsufficientOverlap {
                rows: shared_ts.len(),
                needed: self.config.min_rows,
            });
        }
        // Broadcast side: align Y with Z once (§4.2 broadcast join), factor
        // Z and residualise Y on it once for every candidate that covers
        // the shared timestamps.
        let side = self.broadcast_side(&set, &shared_ts);
        let tasks: Vec<usize> = set.xs.clone();
        let results: Mutex<Vec<(usize, ScoreOutcome)>> =
            Mutex::new(&ENGINE_RESULTS, Vec::with_capacity(tasks.len()));
        let next = AtomicUsize::new(0);
        let workers = if self.config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            self.config.workers
        }
        .min(tasks.len().max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() {
                        break;
                    }
                    let xi = tasks[i];
                    let outcome = side
                        .as_ref()
                        .and_then(|side| self.score_on_side(xi, side, &shared_ts, scorer))
                        .unwrap_or_else(|| self.score_one(xi, set.y, &set.z, &shared_ts, scorer));
                    results.lock().push((xi, outcome));
                });
            }
        });

        let mut entries: Vec<RankedHypothesis> = results
            .into_inner()
            .into_iter()
            .map(|(xi, outcome)| {
                let fam = &self.families[xi];
                match outcome {
                    Ok((detail, duration)) => RankedHypothesis {
                        family: fam.name.clone(),
                        score: detail.score,
                        p_value: detail.p_value,
                        best_lambda: detail.best_lambda,
                        effective_predictors: detail.effective_predictors,
                        family_width: fam.width(),
                        duration,
                        error: None,
                    },
                    Err(e) => RankedHypothesis {
                        family: fam.name.clone(),
                        score: 0.0,
                        p_value: 1.0,
                        best_lambda: None,
                        effective_predictors: 0,
                        family_width: fam.width(),
                        duration: Duration::ZERO,
                        error: Some(e),
                    },
                }
            })
            .collect();
        let scored = entries.len();
        entries.sort_by(|a, b| {
            // Errors sink below everything; then decreasing score; ties by
            // name for determinism.
            match (a.error.is_some(), b.error.is_some()) {
                (false, true) => return std::cmp::Ordering::Less,
                (true, false) => return std::cmp::Ordering::Greater,
                _ => {}
            }
            b.score.total_cmp(&a.score).then_with(|| a.family.cmp(&b.family))
        });
        entries.truncate(self.config.top_k);
        Ok(Ranking {
            entries,
            hypotheses_scored: scored,
            scorer,
            target: target.to_string(),
            conditioned_on: condition.iter().map(|s| s.to_string()).collect(),
            elapsed: started.elapsed(),
        })
    }

    /// Scores one hypothesis on its own: aligns X, Y and Z on the
    /// timestamps X shares with `shared_ts` and residualises both sides on
    /// Z. The ranking loop uses it for candidates with gaps in
    /// `shared_ts`; benchmarks use it for isolated per-hypothesis timings.
    pub fn score_one(
        &self,
        x_index: usize,
        y_index: usize,
        z_indices: &[usize],
        shared_ts: &[i64],
        scorer: ScorerKind,
    ) -> ScoreOutcome {
        let started = Instant::now();
        let x_fam = &self.families[x_index];
        let ts = x_fam.shared_timestamps(shared_ts);
        if ts.len() < self.config.min_rows {
            return Err(format!(
                "only {} shared time steps with target (need {})",
                ts.len(),
                self.config.min_rows
            ));
        }
        let x = x_fam.restrict_to(&ts).data;
        let y = self.families[y_index].restrict_to(&ts).data;
        let z = if z_indices.is_empty() {
            None
        } else {
            let families = z_indices.iter().map(|&zi| &self.families[zi]);
            Some(FeatureFamily::side_by_side(families, &ts).map_err(|e| e.to_string())?)
        };
        let detail = score_hypothesis(scorer, &x, &y, z.as_ref(), &self.config.score)
            .map_err(|e| e.to_string())?;
        Ok((detail, started.elapsed()))
    }

    /// The broadcast side of a conditioned ranking: Z assembled on
    /// `shared_ts`, factored once, and Y's residual on it. `None` without
    /// conditioning columns. A Z that cannot be assembled or factored is
    /// kept as the error each hypothesis reports, as if it had
    /// residualised on its own.
    fn broadcast_side(&self, set: &HypothesisSet, shared_ts: &[i64]) -> Option<BroadcastSide> {
        if set.z.is_empty() {
            return None;
        }
        let z = match FeatureFamily::side_by_side(
            set.z.iter().map(|&zi| &self.families[zi]),
            shared_ts,
        ) {
            Ok(z) if z.ncols() == 0 => return None,
            Ok(z) => z,
            Err(e) => return Some(Err(e)),
        };
        let rows = shared_ts.len();
        let needed = 2 * self.config.score.cv.k_folds;
        // The first check `score_hypothesis` makes.
        if rows < needed {
            return Some(Err(CoreError::InsufficientOverlap { rows, needed }));
        }
        Some(conditioning(&z).and_then(|residualizer| {
            let ry = residualizer.residuals(&self.families[set.y].restrict_to(shared_ts).data)?;
            Ok((residualizer, ry))
        }))
    }

    /// Scores candidate `x_index` against the broadcast side, residualising
    /// only X. `None` when X has gaps in `shared_ts`: such a candidate is
    /// scored on its own timestamps by [`Engine::score_one`].
    fn score_on_side(
        &self,
        x_index: usize,
        side: &BroadcastSide,
        shared_ts: &[i64],
        scorer: ScorerKind,
    ) -> Option<ScoreOutcome> {
        let started = Instant::now();
        let x_fam = &self.families[x_index];
        let ts = x_fam.shared_timestamps(shared_ts);
        if ts.len() != shared_ts.len() {
            return None;
        }
        let scored = side.as_ref().map_err(Clone::clone).and_then(|(residualizer, ry)| {
            let rx = residualizer.residuals(&x_fam.restrict_to(&ts).data)?;
            score_residuals(scorer, &rx, ry, &self.config.score)
        });
        Some(scored.map(|detail| (detail, started.elapsed())).map_err(|e| e.to_string()))
    }
}

/// Z's factorisation and Y's residual on the shared timestamps, or the
/// error residualising on Z meets.
type BroadcastSide = Result<(Residualizer, Matrix)>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn engine_with_signal() -> Engine {
        let n = 200usize;
        let ts: Vec<i64> = (0..n as i64).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let cause: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let target: Vec<f64> = cause.iter().map(|v| 3.0 * v + 0.5).collect();
        let noise1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let noise2: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let mut e = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        e.add_family(FeatureFamily::univariate("runtime", ts.clone(), target));
        e.add_family(FeatureFamily::univariate("tcp_retransmits", ts.clone(), cause));
        e.add_family(FeatureFamily::univariate("noise_a", ts.clone(), noise1));
        e.add_family(FeatureFamily::univariate("noise_b", ts, noise2));
        e
    }

    #[test]
    fn cause_ranks_first() {
        let e = engine_with_signal();
        for scorer in [ScorerKind::CorrMax, ScorerKind::CorrMean, ScorerKind::L2] {
            let r = e.rank("runtime", &[], scorer).unwrap();
            assert_eq!(r.entries[0].family, "tcp_retransmits", "scorer {scorer:?}");
            assert_eq!(r.rank_of("tcp_retransmits"), Some(1));
            assert_eq!(r.hypotheses_scored, 3);
        }
    }

    #[test]
    fn top_k_truncates() {
        let mut e = engine_with_signal();
        e.config.top_k = 2;
        let r = e.rank("runtime", &[], ScorerKind::CorrMax).unwrap();
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.hypotheses_scored, 3);
    }

    #[test]
    fn conditioning_excludes_family_from_candidates() {
        let e = engine_with_signal();
        let r = e.rank("runtime", &["noise_a"], ScorerKind::CorrMax).unwrap();
        assert!(r.rank_of("noise_a").is_none());
        assert_eq!(r.conditioned_on, vec!["noise_a"]);
    }

    #[test]
    fn search_space_restriction() {
        let e = engine_with_signal();
        let r = e
            .rank_in_search_space("runtime", &[], &["noise_a", "noise_b"], ScorerKind::CorrMax)
            .unwrap();
        assert_eq!(r.hypotheses_scored, 2);
        assert!(r.rank_of("tcp_retransmits").is_none());
    }

    #[test]
    fn misaligned_family_reports_error_entry() {
        let mut e = engine_with_signal();
        // A family on a disjoint grid cannot be scored.
        e.add_family(FeatureFamily::univariate(
            "other_cluster",
            (1000..1040).collect(),
            (0..40).map(|i| i as f64).collect(),
        ));
        let r = e.rank("runtime", &[], ScorerKind::CorrMax).unwrap();
        let entry = r.entries.iter().find(|x| x.family == "other_cluster").unwrap();
        assert!(entry.error.is_some());
        assert_eq!(entry.score, 0.0);
        // Errors sort last.
        assert_eq!(r.entries.last().unwrap().family, "other_cluster");
    }

    #[test]
    fn unknown_target_errors() {
        let e = engine_with_signal();
        assert!(matches!(e.rank("nope", &[], ScorerKind::L2), Err(CoreError::UnknownFamily(_))));
    }

    #[test]
    fn add_family_replaces_by_name() {
        let mut e = engine_with_signal();
        let n_before = e.family_count();
        e.add_family(FeatureFamily::univariate(
            "noise_a",
            (0..50).collect(),
            (0..50).map(|i| i as f64).collect(),
        ));
        assert_eq!(e.family_count(), n_before);
        assert_eq!(e.family("noise_a").unwrap().len(), 50);
    }

    #[test]
    fn remove_family_by_name() {
        let mut e = engine_with_signal();
        let before = e.family_count();
        assert!(e.remove_family("noise_a"));
        assert_eq!(e.family_count(), before - 1);
        assert!(e.family("noise_a").is_none());
        assert!(!e.remove_family("noise_a"));
    }

    #[test]
    fn config_mut_adjusts_top_k() {
        let mut e = engine_with_signal();
        e.config_mut().top_k = 1;
        assert_eq!(e.config().top_k, 1);
        let r = e.rank("runtime", &[], ScorerKind::CorrMax).unwrap();
        assert_eq!(r.entries.len(), 1);
    }

    #[test]
    fn durations_are_recorded() {
        let e = engine_with_signal();
        let r = e.rank("runtime", &[], ScorerKind::L2).unwrap();
        assert!(r.entries.iter().all(|x| x.error.is_some() || x.duration > Duration::ZERO));
        assert!(r.elapsed > Duration::ZERO);
    }
}
