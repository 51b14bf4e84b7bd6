//! Pivoting query results into feature families.
//!
//! The second stage of the paper's pipeline (Figure 4) turns stage-one query
//! output into the Feature Family Table: one entry per `(timestamp, family)`
//! holding a map of feature values. Three layouts are supported:
//!
//! * **wide** — `(ts, family, v1, v2, ...)`: each numeric column is a
//!   feature of the family (the paper's network-features query produces 6
//!   features per `(src, port)` family);
//! * **long** — `(ts, family, feature, value)`: each distinct feature string
//!   becomes a column (grouping all of `disk{host=...}` under family
//!   `disk`);
//! * **one** — `(ts, v1, v2, ...)`: the whole result is a single named
//!   family (target and condition queries carry no label column).
//!
//! All three share one two-pass builder keyed on interned label ids:
//!
//! 1. **Labels are rendered once per distinct entry.** A dictionary label
//!    column (the scan's `metric_name` and `tag`) renders each code on first
//!    use; a string column is looked up by `&str`; only generic columns
//!    render per row. Every rendering is interned to a `u32` id, so two
//!    entries that render the same (`NULL` and `'NULL'`, `1` and `'1'`)
//!    name the same family or feature.
//! 2. **Pass one** maps each row to a feature column with one hash on the
//!    packed `(family id, feature id)` key, and appends the row's timestamp
//!    to its family's timestamp union when it differs from the last one
//!    appended. The union is sorted and deduplicated only when it did not
//!    arrive strictly increasing (scan output is time-ordered).
//! 3. **Pass two** allocates each column NaN-filled at its family's union
//!    length and scatters the finite values in row order, so the last
//!    finite write to a `(ts, feature)` cell wins — the TSDB's overwrite
//!    semantics — with no per-cell staging.
//!
//! Families, and the features within each family, keep the order in which
//! they first appear. Only integer timestamps place a row (floats with no
//! fractional part count); any other row is skipped. Missing
//! `(ts, feature)` cells follow the paper's policy: interpolated to the
//! closest non-null observation of that feature.

use std::collections::HashMap;

use crate::column::Column;
use crate::table::Table;
use crate::value::Value;
use crate::{QueryError, Result};

/// Column accessors that read typed column vectors directly, falling back
/// to per-entry [`Value`] extraction for generic columns. This keeps the
/// pivot on the columnar fast path — no row materialization, and no `Value`
/// boxing for dense `Int`/`Float` columns.
struct ColReader<'t> {
    col: &'t Column,
}

impl<'t> ColReader<'t> {
    fn new(table: &'t Table, idx: usize) -> Self {
        ColReader { col: table.column_at(idx) }
    }

    /// Timestamp view: `None` for non-integer cells (row skipped).
    fn ts(&self, i: usize) -> Option<i64> {
        match self.col {
            Column::Int(v) => Some(v[i]),
            other => other.get(i).as_i64(),
        }
    }

    /// Numeric view: NaN marks a gap.
    fn num(&self, i: usize) -> f64 {
        match self.col {
            Column::Float(v) => v[i],
            Column::Int(v) => v[i] as f64,
            other => other.get(i).as_f64().unwrap_or(f64::NAN),
        }
    }
}

/// A dense per-family frame: shared timestamps × named feature columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyFrame {
    /// Family name (the paper's grouping key, e.g. metric name).
    pub name: String,
    /// Sorted shared timestamps.
    pub timestamps: Vec<i64>,
    /// Feature column names.
    pub feature_names: Vec<String>,
    /// One dense column per feature (parallel to `feature_names`, each of
    /// `timestamps.len()` values).
    pub columns: Vec<Vec<f64>>,
}

impl FamilyFrame {
    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.columns.len()
    }
}

/// The numeric feature columns of a wide/one pivot: every column but the
/// excluded ones, with their schema names.
fn feature_columns<'t>(table: &'t Table, exclude: &[usize]) -> (Vec<String>, Vec<ColReader<'t>>) {
    (0..table.schema().len())
        .filter(|i| !exclude.contains(i))
        .map(|i| (table.schema().columns()[i].clone(), ColReader::new(table, i)))
        .unzip()
}

/// Pivots a wide table: `ts_col` and `family_col` identify the row, every
/// *other* column is a feature (non-numeric cells become gaps, then get
/// nearest-filled).
pub fn pivot_wide(table: &Table, ts_col: &str, family_col: &str) -> Result<Vec<FamilyFrame>> {
    let ts_idx = table.schema().resolve(ts_col)?;
    let fam_idx = table.schema().resolve(family_col)?;
    let (names, values) = feature_columns(table, &[ts_idx, fam_idx]);
    if names.is_empty() {
        return Err(QueryError::Plan("pivot_wide needs at least one feature column".into()));
    }
    let ts = ColReader::new(table, ts_idx);
    let mut families = Labels::new(table.column_at(fam_idx));
    let mut pivot = Pivot::new(table.len());
    for i in 0..table.len() {
        let Some(t) = ts.ts(i) else { continue };
        let family = families.id(i, &mut pivot.families)?;
        pivot.push(t, family, 0, || names.clone())?;
    }
    Ok(pivot.finish(&ts, &values))
}

/// Pivots a wide table into a *single* family named `family_name`:
/// `ts_col` identifies the row, every other column is a feature. Used for
/// target/condition queries that aggregate to one series set per timestamp
/// and carry no family label column.
pub fn pivot_one(table: &Table, ts_col: &str, family_name: &str) -> Result<FamilyFrame> {
    let ts_idx = table.schema().resolve(ts_col)?;
    let (names, values) = feature_columns(table, &[ts_idx]);
    if names.is_empty() {
        return Err(QueryError::Plan("pivot_one needs at least one feature column".into()));
    }
    let ts = ColReader::new(table, ts_idx);
    let mut pivot = Pivot::new(table.len());
    let mut family = None;
    for i in 0..table.len() {
        let Some(t) = ts.ts(i) else { continue };
        let id = match family {
            Some(id) => id,
            None => *family.insert(pivot.families.intern(family_name)?),
        };
        pivot.push(t, id, 0, || names.clone())?;
    }
    match pivot.finish(&ts, &values).pop() {
        Some(frame) => Ok(frame),
        // No usable rows: an empty frame under the requested name.
        None => Ok(FamilyFrame {
            name: family_name.to_string(),
            timestamps: Vec::new(),
            columns: vec![Vec::new(); names.len()],
            feature_names: names,
        }),
    }
}

/// Pivots a long table: each row is `(ts, family, feature, value)`.
pub fn pivot_long(
    table: &Table,
    ts_col: &str,
    family_col: &str,
    feature_col: &str,
    value_col: &str,
) -> Result<Vec<FamilyFrame>> {
    let ts_idx = table.schema().resolve(ts_col)?;
    let fam_idx = table.schema().resolve(family_col)?;
    let feat_idx = table.schema().resolve(feature_col)?;
    let val_idx = table.schema().resolve(value_col)?;
    let ts = ColReader::new(table, ts_idx);
    let mut families = Labels::new(table.column_at(fam_idx));
    let mut features = Labels::new(table.column_at(feat_idx));
    let mut feature_names = Interner::default();
    let mut pivot = Pivot::new(table.len());
    for i in 0..table.len() {
        let Some(t) = ts.ts(i) else { continue };
        let family = families.id(i, &mut pivot.families)?;
        let feature = features.id(i, &mut feature_names)?;
        pivot.push(t, family, feature, || vec![feature_names.names[feature as usize].clone()])?;
    }
    Ok(pivot.finish(&ts, &[ColReader::new(table, val_idx)]))
}

/// A `u32` id for the `n`-th interned name or created column.
fn next_id(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| QueryError::Plan("pivot: more than 2^32 labels or columns".into()))
}

/// Rendered labels ↔ dense `u32` ids, in first-intern order.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> Result<u32> {
        if let Some(&id) = self.ids.get(name) {
            return Ok(id);
        }
        let id = next_id(self.names.len())?;
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        Ok(id)
    }
}

/// A label (family / feature name) column resolved to interned ids.
enum Labels<'t> {
    /// Dictionary codes: each entry is rendered on its first use and
    /// memoized by code.
    Dict { values: &'t [Value], codes: &'t [u32], memo: Vec<Option<u32>> },
    /// Dense strings: looked up by `&str`, cloned only when first interned.
    Str(&'t [String]),
    /// Anything else: rendered per row.
    Generic(&'t Column),
}

impl<'t> Labels<'t> {
    fn new(col: &'t Column) -> Self {
        match col {
            Column::Dict { values, codes } => {
                Labels::Dict { values, codes, memo: vec![None; values.len()] }
            }
            Column::Str(v) => Labels::Str(v),
            other => Labels::Generic(other),
        }
    }

    /// Row `i`'s label id in `names`.
    fn id(&mut self, i: usize, names: &mut Interner) -> Result<u32> {
        match self {
            Labels::Dict { values, codes, memo } => {
                let code = codes[i] as usize;
                match memo[code] {
                    Some(id) => Ok(id),
                    None => {
                        let id = names.intern(&values[code].render())?;
                        memo[code] = Some(id);
                        Ok(id)
                    }
                }
            }
            Labels::Str(v) => names.intern(&v[i]),
            Labels::Generic(col) => names.intern(&col.get(i).render()),
        }
    }
}

/// One output feature column: its family and name.
struct Slot {
    family: u32,
    name: String,
}

/// A family's timestamp union as it is collected.
#[derive(Default)]
struct Times {
    ts: Vec<i64>,
    /// Set once a timestamp arrives below the last one appended.
    unsorted: bool,
}

/// The two-pass pivot builder (see the module docs).
struct Pivot {
    /// Family labels; a family's id is its index in first-appearance order.
    families: Interner,
    /// Per family id: its timestamp union.
    times: Vec<Times>,
    /// Packed `(family id, feature id)` → the first of its slots.
    slot_of: HashMap<u64, u32>,
    /// Every output column, in creation order.
    slots: Vec<Slot>,
    /// Per placed row, in row order: its first slot.
    row_slots: Vec<u32>,
}

impl Pivot {
    fn new(rows: usize) -> Self {
        Pivot {
            families: Interner::default(),
            times: Vec::new(),
            slot_of: HashMap::new(),
            slots: Vec::new(),
            row_slots: Vec::with_capacity(rows),
        }
    }

    /// Pass one for one placed row. On the first `(family, feature)` pair,
    /// `names()` names the consecutive columns the row's values fill (one
    /// for the long layout, one per feature column for wide).
    fn push(
        &mut self,
        t: i64,
        family: u32,
        feature: u32,
        names: impl FnOnce() -> Vec<String>,
    ) -> Result<()> {
        let key = (u64::from(family) << 32) | u64::from(feature);
        let slot = match self.slot_of.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = next_id(self.slots.len())?;
                self.slots.extend(names().into_iter().map(|name| Slot { family, name }));
                self.slot_of.insert(key, slot);
                slot
            }
        };
        self.row_slots.push(slot);
        let f = family as usize;
        if self.times.len() <= f {
            self.times.resize_with(f + 1, Times::default);
        }
        let times = &mut self.times[f];
        match times.ts.last() {
            Some(&last) if last == t => {}
            Some(&last) => {
                times.unsorted |= t < last;
                times.ts.push(t);
            }
            None => times.ts.push(t),
        }
        Ok(())
    }

    /// Pass two: re-reads the placed rows (`ts` skips the same rows it
    /// skipped in pass one) and scatters `values[j]` of each into the row's
    /// slot `+ j`, then nearest-fills every column.
    fn finish(self, ts: &ColReader, values: &[ColReader]) -> Vec<FamilyFrame> {
        let times: Vec<Vec<i64>> = self
            .times
            .into_iter()
            .map(|mut times| {
                if times.unsorted {
                    times.ts.sort_unstable();
                    times.ts.dedup();
                }
                times.ts
            })
            .collect();
        let mut columns: Vec<Vec<f64>> = self
            .slots
            .iter()
            .map(|slot| vec![f64::NAN; times[slot.family as usize].len()])
            .collect();
        // Per family: the union position of its last placed row. Rows
        // arriving in time order land there or one past it, which skips
        // the binary search.
        let mut cursor = vec![0usize; times.len()];
        let placed = (0..ts.col.len()).filter_map(|i| ts.ts(i).map(|t| (i, t)));
        for ((i, t), &slot) in placed.zip(&self.row_slots) {
            let slot = slot as usize;
            let family = self.slots[slot].family as usize;
            let union = &times[family];
            let last = cursor[family];
            let pos = if union.get(last) == Some(&t) {
                last
            } else if union.get(last + 1) == Some(&t) {
                last + 1
            } else {
                union.partition_point(|&u| u < t)
            };
            cursor[family] = pos;
            for (column, reader) in columns[slot..].iter_mut().zip(values) {
                let v = reader.num(i);
                if v.is_finite() {
                    column[pos] = v;
                }
            }
        }
        let mut frames: Vec<FamilyFrame> = self
            .families
            .names
            .into_iter()
            .zip(times)
            .map(|(name, timestamps)| FamilyFrame {
                name,
                timestamps,
                feature_names: Vec::new(),
                columns: Vec::new(),
            })
            .collect();
        for (slot, mut column) in self.slots.into_iter().zip(columns) {
            let frame = &mut frames[slot.family as usize];
            nearest_fill(&frame.timestamps, &mut column);
            frame.feature_names.push(slot.name);
            frame.columns.push(column);
        }
        frames
    }
}

/// Replaces NaN gaps with the value of the nearest (in time) non-NaN
/// observation; all-NaN columns become all-zero (a constant feature the
/// scorers already treat as signal-free).
fn nearest_fill(timestamps: &[i64], col: &mut [f64]) {
    // Most columns have no gaps: skip building the index of known cells.
    if col.iter().all(|v| v.is_finite()) {
        return;
    }
    let known: Vec<(i64, f64)> = timestamps
        .iter()
        .zip(col.iter())
        .filter(|(_, v)| v.is_finite())
        .map(|(&t, &v)| (t, v))
        .collect();
    if known.is_empty() {
        for v in col.iter_mut() {
            *v = 0.0;
        }
        return;
    }
    for (i, v) in col.iter_mut().enumerate() {
        if v.is_finite() {
            continue;
        }
        let t = timestamps[i];
        // Binary search over known timestamps.
        let pos = known.partition_point(|&(kt, _)| kt < t);
        let candidate = if pos == 0 {
            known[0]
        } else if pos == known.len() {
            known[known.len() - 1]
        } else {
            let before = known[pos - 1];
            let after = known[pos];
            // Unsigned distances: a family's timestamps may span more than
            // i64::MAX, where a signed subtraction overflows.
            if t.abs_diff(before.0) <= after.0.abs_diff(t) {
                before
            } else {
                after
            }
        };
        *v = candidate.1;
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;

    fn wide_table() -> Table {
        Table::from_rows(
            &["ts", "name", "cpu", "mem"],
            vec![
                vec![Value::Int(0), Value::str("web"), Value::Float(1.0), Value::Float(10.0)],
                vec![Value::Int(60), Value::str("web"), Value::Float(2.0), Value::Float(20.0)],
                vec![Value::Int(0), Value::str("db"), Value::Float(5.0), Value::Float(50.0)],
            ],
        )
    }

    #[test]
    fn wide_pivot_produces_one_frame_per_family() {
        let frames = pivot_wide(&wide_table(), "ts", "name").unwrap();
        assert_eq!(frames.len(), 2);
        let web = frames.iter().find(|f| f.name == "web").unwrap();
        assert_eq!(web.timestamps, vec![0, 60]);
        assert_eq!(web.feature_names, vec!["cpu", "mem"]);
        assert_eq!(web.columns[0], vec![1.0, 2.0]);
        assert_eq!(web.columns[1], vec![10.0, 20.0]);
        let db = frames.iter().find(|f| f.name == "db").unwrap();
        assert_eq!(db.timestamps, vec![0]);
    }

    #[test]
    fn pivot_one_collapses_to_a_named_family() {
        let t = Table::from_rows(
            &["ts", "runtime_sec", "input_gb"],
            vec![
                vec![Value::Int(60), Value::Float(2.0), Value::Float(20.0)],
                vec![Value::Int(0), Value::Float(1.0), Value::Float(10.0)],
            ],
        );
        let f = pivot_one(&t, "ts", "pipeline_runtime").unwrap();
        assert_eq!(f.name, "pipeline_runtime");
        assert_eq!(f.timestamps, vec![0, 60]);
        assert_eq!(f.feature_names, vec!["runtime_sec", "input_gb"]);
        assert_eq!(f.columns[0], vec![1.0, 2.0]);
        assert_eq!(f.columns[1], vec![10.0, 20.0]);
    }

    #[test]
    fn pivot_one_empty_input_keeps_schema() {
        let t = Table::empty(&["ts", "v"]);
        let f = pivot_one(&t, "ts", "empty").unwrap();
        assert!(f.is_empty());
        assert_eq!(f.feature_names, vec!["v"]);
        assert!(pivot_one(&Table::empty(&["ts"]), "ts", "x").is_err());
    }

    #[test]
    fn long_pivot_spreads_features() {
        let t = Table::from_rows(
            &["ts", "fam", "feat", "v"],
            vec![
                vec![Value::Int(0), Value::str("disk"), Value::str("h1.read"), Value::Float(1.0)],
                vec![Value::Int(0), Value::str("disk"), Value::str("h2.read"), Value::Float(2.0)],
                vec![Value::Int(60), Value::str("disk"), Value::str("h1.read"), Value::Float(3.0)],
                vec![Value::Int(60), Value::str("disk"), Value::str("h2.read"), Value::Float(4.0)],
            ],
        );
        let frames = pivot_long(&t, "ts", "fam", "feat", "v").unwrap();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(f.width(), 2);
        assert_eq!(f.columns[0], vec![1.0, 3.0]);
        assert_eq!(f.columns[1], vec![2.0, 4.0]);
    }

    #[test]
    fn missing_cells_nearest_filled() {
        let t = Table::from_rows(
            &["ts", "fam", "feat", "v"],
            vec![
                vec![Value::Int(0), Value::str("f"), Value::str("a"), Value::Float(1.0)],
                vec![Value::Int(60), Value::str("f"), Value::str("b"), Value::Float(9.0)],
                vec![Value::Int(120), Value::str("f"), Value::str("a"), Value::Float(5.0)],
            ],
        );
        let frames = pivot_long(&t, "ts", "fam", "feat", "v").unwrap();
        let f = &frames[0];
        // Feature a is missing at ts=60: equidistant to 0 and 120, prefers
        // the earlier (1.0).
        let a = &f.columns[f.feature_names.iter().position(|n| n == "a").unwrap()];
        assert_eq!(a, &vec![1.0, 1.0, 5.0]);
        // Feature b only exists at 60: clamps outward.
        let b = &f.columns[f.feature_names.iter().position(|n| n == "b").unwrap()];
        assert_eq!(b, &vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn nearest_fill_spans_the_whole_i64_range() {
        // Equidistant neighbours (i64::MAX each way): the earlier wins.
        let ts = [i64::MIN + 1, 0, i64::MAX];
        let mut col = [1.0, f64::NAN, 2.0];
        nearest_fill(&ts, &mut col);
        assert_eq!(col, [1.0, 1.0, 2.0]);
        // The earlier neighbour is 2^63 away, past i64::MAX; the later one
        // is nearer by 1.
        let ts = [i64::MIN, 0, i64::MAX];
        let mut col = [1.0, f64::NAN, 2.0];
        nearest_fill(&ts, &mut col);
        assert_eq!(col, [1.0, 2.0, 2.0]);
    }

    #[test]
    fn non_numeric_values_are_gaps() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![
                vec![Value::Int(0), Value::str("f"), Value::str("oops")],
                vec![Value::Int(60), Value::str("f"), Value::Float(2.0)],
            ],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].columns[0], vec![2.0, 2.0]);
    }

    #[test]
    fn all_gap_feature_becomes_zero() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![vec![Value::Int(0), Value::str("f"), Value::Null]],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].columns[0], vec![0.0]);
    }

    #[test]
    fn null_family_becomes_null_string() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![vec![Value::Int(0), Value::Null, Value::Float(1.0)]],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].name, "NULL");
    }

    #[test]
    fn no_feature_columns_errors() {
        let t = Table::from_rows(&["ts", "fam"], vec![vec![Value::Int(0), Value::str("f")]]);
        assert!(pivot_wide(&t, "ts", "fam").is_err());
    }

    #[test]
    fn unsorted_input_timestamps_sorted() {
        let t = Table::from_rows(
            &["ts", "fam", "x"],
            vec![
                vec![Value::Int(120), Value::str("f"), Value::Float(3.0)],
                vec![Value::Int(0), Value::str("f"), Value::Float(1.0)],
                vec![Value::Int(60), Value::str("f"), Value::Float(2.0)],
            ],
        );
        let frames = pivot_wide(&t, "ts", "fam").unwrap();
        assert_eq!(frames[0].timestamps, vec![0, 60, 120]);
        assert_eq!(frames[0].columns[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dictionary_entries_that_render_alike_merge() {
        let labels =
            Arc::new(vec![Value::Null, Value::str("NULL"), Value::Int(1), Value::str("1")]);
        let table = Table::from_columns(
            crate::table::Schema::new(vec!["ts".into(), "fam".into(), "x".into()]),
            vec![
                Column::Int(vec![0, 60, 0, 60]),
                Column::dict(labels, vec![0, 1, 2, 3]),
                Column::Float(vec![1.0, 2.0, 3.0, 4.0]),
            ],
        );
        let frames = pivot_wide(&table, "ts", "fam").unwrap();
        let names: Vec<&str> = frames.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["NULL", "1"]);
        assert_eq!(frames[0].columns[0], vec![1.0, 2.0]);
        assert_eq!(frames[1].columns[0], vec![3.0, 4.0]);
    }

    // ---- differential: the code-keyed builder vs the retained oracle ----

    /// Timestamps: small integers (so cells collide), the i64 extremes,
    /// integral and fractional floats, and non-numeric cells.
    fn ts_value(k: u8) -> Value {
        match k {
            0..=7 => Value::Int(i64::from(k) * 60),
            8 => Value::Int(i64::MIN),
            9 => Value::Int(i64::MAX),
            10 => Value::Int(i64::MIN + 1),
            11 => Value::Float(120.0),
            12 => Value::Float(0.5),
            13 => Value::Null,
            _ => Value::str("noon"),
        }
    }

    /// Label dictionary: distinct entries that render the same (`NULL` /
    /// `'NULL'`, `1` / `'1'`, `1.0` / `'1.0'`) plus a map.
    fn label_pool() -> Vec<Value> {
        let mut tag = std::collections::BTreeMap::new();
        tag.insert("host".to_string(), "h1".to_string());
        vec![
            Value::str("a"),
            Value::str("b"),
            Value::Null,
            Value::str("NULL"),
            Value::Int(1),
            Value::str("1"),
            Value::Float(1.0),
            Value::str("1.0"),
            Value::Map(tag),
        ]
    }

    /// Values: finite, non-finite, NULL, integer and non-numeric cells.
    fn num_value(k: u8) -> Value {
        match k {
            0..=5 => Value::Float(f64::from(k) - 2.5),
            6 => Value::Float(f64::NAN),
            7 => Value::Float(f64::INFINITY),
            8 => Value::Float(f64::NEG_INFINITY),
            9 => Value::Null,
            10 => Value::Int(7),
            11 => Value::Bool(true),
            _ => Value::str("x"),
        }
    }

    /// A label column in representation `rep`: 0 = dictionary, 1 = dense
    /// strings (each label rendered), 2 = generic values.
    fn label_column(codes: &[u32], rep: u8) -> Column {
        let pool = label_pool();
        match rep {
            0 => Column::dict(Arc::new(pool), codes.to_vec()),
            1 => Column::Str(codes.iter().map(|&c| pool[c as usize].render()).collect()),
            _ => Column::Values(codes.iter().map(|&c| pool[c as usize].clone()).collect()),
        }
    }

    /// A numeric column: dense floats when every cell is a float, the
    /// densest representation of the values otherwise.
    fn value_column(ks: &[u8]) -> Column {
        Column::from_values(ks.iter().map(|&k| num_value(k)).collect())
    }

    fn ts_column(ks: &[u8]) -> Column {
        Column::from_values(ks.iter().map(|&k| ts_value(k)).collect())
    }

    fn table(names: &[&str], columns: Vec<Column>) -> Table {
        let schema = crate::table::Schema::new(names.iter().map(|s| s.to_string()).collect());
        Table::from_columns(schema, columns)
    }

    /// A frame with every value as its bit pattern.
    type FrameBits = (String, Vec<i64>, Vec<String>, Vec<Vec<u64>>);

    /// Frame equality with every value compared by its bit pattern.
    fn bits(frames: &[FamilyFrame]) -> Vec<FrameBits> {
        frames
            .iter()
            .map(|f| {
                let columns = f.columns.iter().map(|c| c.iter().map(|v| v.to_bits()).collect());
                (f.name.clone(), f.timestamps.clone(), f.feature_names.clone(), columns.collect())
            })
            .collect()
    }

    /// Row strategy: (ts kind, family code, feature code, value kind,
    /// second value kind).
    fn rows() -> impl Strategy<Value = Vec<(u8, u32, u32, u8, u8)>> {
        proptest::collection::vec((0u8..16, 0u32..9, 0u32..9, (0u8..14, 0u8..14)), 0..60)
            .prop_map(|rows| rows.into_iter().map(|(t, f, x, (a, b))| (t, f, x, a, b)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn code_keyed_pivot_matches_the_oracle(
            rows in rows(),
            fam_rep in 0u8..3,
            feat_rep in 0u8..3,
            dense in any::<bool>(),
        ) {
            // `dense` keeps timestamps integer and values float, so those
            // columns take their typed representations.
            let (ts_kinds, num_kinds) = if dense { (11, 9) } else { (u8::MAX, u8::MAX) };
            let ts: Vec<u8> = rows.iter().map(|r| r.0 % ts_kinds).collect();
            let fams: Vec<u32> = rows.iter().map(|r| r.1).collect();
            let feats: Vec<u32> = rows.iter().map(|r| r.2).collect();
            let a: Vec<u8> = rows.iter().map(|r| r.3 % num_kinds).collect();
            let b: Vec<u8> = rows.iter().map(|r| r.4 % num_kinds).collect();

            let long = table(
                &["ts", "fam", "feat", "v"],
                vec![
                    ts_column(&ts),
                    label_column(&fams, fam_rep),
                    label_column(&feats, feat_rep),
                    value_column(&a),
                ],
            );
            let got = pivot_long(&long, "ts", "fam", "feat", "v").unwrap();
            let want = oracle::pivot_long(&long, "ts", "fam", "feat", "v").unwrap();
            prop_assert_eq!(bits(&got), bits(&want));

            let wide = table(
                &["ts", "fam", "x", "y"],
                vec![
                    ts_column(&ts),
                    label_column(&fams, fam_rep),
                    value_column(&a),
                    value_column(&b),
                ],
            );
            let got = pivot_wide(&wide, "ts", "fam").unwrap();
            let want = oracle::pivot_wide(&wide, "ts", "fam").unwrap();
            prop_assert_eq!(bits(&got), bits(&want));

            let one = table(&["ts", "x", "y"], vec![ts_column(&ts), value_column(&a), value_column(&b)]);
            let got = pivot_one(&one, "ts", "target").unwrap();
            let want = oracle::pivot_one(&one, "ts", "target").unwrap();
            prop_assert_eq!(bits(&[got]), bits(&[want]));
        }
    }
}
