//! The row-at-a-time pivot builder the code-keyed one replaced, kept as
//! the differential oracle: it renders both labels per row and stages
//! every cell in a per-feature `HashMap<i64, f64>`.

use std::collections::HashMap;

use super::{feature_columns, nearest_fill, ColReader, FamilyFrame};
use crate::table::Table;
use crate::{QueryError, Result};

/// Label view (family / feature names), rendered per row.
fn label(reader: &ColReader, i: usize) -> String {
    reader.col.get(i).render()
}

pub(super) fn pivot_wide(
    table: &Table,
    ts_col: &str,
    family_col: &str,
) -> Result<Vec<FamilyFrame>> {
    let ts_idx = table.schema().resolve(ts_col)?;
    let fam_idx = table.schema().resolve(family_col)?;
    let (names, features) = feature_columns(table, &[ts_idx, fam_idx]);
    if features.is_empty() {
        return Err(QueryError::Plan("pivot_wide needs at least one feature column".into()));
    }
    let ts_col = ColReader::new(table, ts_idx);
    let fam_col = ColReader::new(table, fam_idx);
    let mut builder = PivotBuilder::new();
    for i in 0..table.len() {
        let Some(ts) = ts_col.ts(i) else { continue };
        let family = label(&fam_col, i);
        for (feature, col) in names.iter().zip(&features) {
            builder.add(family.clone(), ts, feature.clone(), col.num(i));
        }
    }
    Ok(builder.finish())
}

pub(super) fn pivot_one(table: &Table, ts_col: &str, family_name: &str) -> Result<FamilyFrame> {
    let ts_idx = table.schema().resolve(ts_col)?;
    let (names, features) = feature_columns(table, &[ts_idx]);
    if features.is_empty() {
        return Err(QueryError::Plan("pivot_one needs at least one feature column".into()));
    }
    let ts_col = ColReader::new(table, ts_idx);
    let mut builder = PivotBuilder::new();
    for i in 0..table.len() {
        let Some(ts) = ts_col.ts(i) else { continue };
        for (feature, col) in names.iter().zip(&features) {
            builder.add(family_name.to_string(), ts, feature.clone(), col.num(i));
        }
    }
    let mut frames = builder.finish();
    if frames.is_empty() {
        return Ok(FamilyFrame {
            name: family_name.to_string(),
            timestamps: Vec::new(),
            columns: vec![Vec::new(); names.len()],
            feature_names: names,
        });
    }
    Ok(frames.remove(0))
}

pub(super) fn pivot_long(
    table: &Table,
    ts_col: &str,
    family_col: &str,
    feature_col: &str,
    value_col: &str,
) -> Result<Vec<FamilyFrame>> {
    let ts = ColReader::new(table, table.schema().resolve(ts_col)?);
    let fam = ColReader::new(table, table.schema().resolve(family_col)?);
    let feat = ColReader::new(table, table.schema().resolve(feature_col)?);
    let val = ColReader::new(table, table.schema().resolve(value_col)?);
    let mut builder = PivotBuilder::new();
    for i in 0..table.len() {
        let Some(t) = ts.ts(i) else { continue };
        builder.add(label(&fam, i), t, label(&feat, i), val.num(i));
    }
    Ok(builder.finish())
}

/// Accumulates sparse (family, ts, feature) → value cells and densifies.
struct PivotBuilder {
    /// family -> (feature -> (ts -> value)); insertion order preserved.
    families: Vec<(String, FamilyAcc)>,
    index: HashMap<String, usize>,
}

/// Sparse per-feature cells: timestamp -> value.
type FeatureCells = HashMap<i64, f64>;

struct FamilyAcc {
    features: Vec<(String, FeatureCells)>,
    feature_index: HashMap<String, usize>,
    timestamps: Vec<i64>,
    seen_ts: HashMap<i64, ()>,
}

impl PivotBuilder {
    fn new() -> Self {
        PivotBuilder { families: Vec::new(), index: HashMap::new() }
    }

    fn add(&mut self, family: String, ts: i64, feature: String, value: f64) {
        let fi = match self.index.get(&family) {
            Some(&i) => i,
            None => {
                let i = self.families.len();
                self.index.insert(family.clone(), i);
                self.families.push((
                    family,
                    FamilyAcc {
                        features: Vec::new(),
                        feature_index: HashMap::new(),
                        timestamps: Vec::new(),
                        seen_ts: HashMap::new(),
                    },
                ));
                i
            }
        };
        let acc = &mut self.families[fi].1;
        if acc.seen_ts.insert(ts, ()).is_none() {
            acc.timestamps.push(ts);
        }
        let col = match acc.feature_index.get(&feature) {
            Some(&i) => i,
            None => {
                let i = acc.features.len();
                acc.feature_index.insert(feature.clone(), i);
                acc.features.push((feature, HashMap::new()));
                i
            }
        };
        // Last write wins for duplicate cells.
        if value.is_finite() {
            acc.features[col].1.insert(ts, value);
        }
    }

    fn finish(self) -> Vec<FamilyFrame> {
        self.families
            .into_iter()
            .map(|(name, mut acc)| {
                acc.timestamps.sort_unstable();
                let timestamps = acc.timestamps;
                let mut feature_names = Vec::with_capacity(acc.features.len());
                let mut columns = Vec::with_capacity(acc.features.len());
                for (fname, cells) in acc.features {
                    let mut col: Vec<f64> = timestamps
                        .iter()
                        .map(|t| cells.get(t).copied().unwrap_or(f64::NAN))
                        .collect();
                    nearest_fill(&timestamps, &mut col);
                    feature_names.push(fname);
                    columns.push(col);
                }
                FamilyFrame { name, timestamps, feature_names, columns }
            })
            .collect()
    }
}
