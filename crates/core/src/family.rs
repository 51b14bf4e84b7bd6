//! Feature families: named groups of univariate metrics on a shared grid.

use explainit_linalg::Matrix;
use explainit_query::FamilyFrame;
use explainit_tsdb::AlignedFrame;

use crate::{CoreError, Result};

/// A feature family (§3.2): a human-relatable group of univariate metrics —
/// all series of one metric name, one host, one service, etc. — observed on
/// a shared, sorted timestamp grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureFamily {
    /// Family name (the grouping key the user chose).
    pub name: String,
    /// Sorted timestamps, one per matrix row.
    pub timestamps: Vec<i64>,
    /// Feature (column) names.
    pub feature_names: Vec<String>,
    /// Dense `T × F` observation matrix.
    pub data: Matrix,
}

impl FeatureFamily {
    /// Builds a family from a matrix.
    ///
    /// # Panics
    /// Panics if dimensions disagree or timestamps are not strictly
    /// increasing.
    pub fn new(
        name: impl Into<String>,
        timestamps: Vec<i64>,
        feature_names: Vec<String>,
        data: Matrix,
    ) -> Self {
        assert_eq!(timestamps.len(), data.nrows(), "timestamp/row mismatch");
        assert_eq!(feature_names.len(), data.ncols(), "feature-name/column mismatch");
        assert!(
            timestamps.windows(2).all(|w| w[0] < w[1]),
            "family timestamps must be strictly increasing"
        );
        FeatureFamily { name: name.into(), timestamps, feature_names, data }
    }

    /// Builds a single-feature family.
    ///
    /// # Panics
    /// Panics on length mismatch or unsorted timestamps.
    pub fn univariate(name: impl Into<String>, timestamps: Vec<i64>, values: Vec<f64>) -> Self {
        let name = name.into();
        let data = Matrix::column_vector(&values);
        FeatureFamily::new(name.clone(), timestamps, vec![name], data)
    }

    /// Converts a query-layer [`FamilyFrame`] (pivot output).
    pub fn from_frame(frame: &FamilyFrame) -> Self {
        let data = Matrix::from_columns(&frame.columns);
        FeatureFamily::new(
            frame.name.clone(),
            frame.timestamps.clone(),
            frame.feature_names.clone(),
            data,
        )
    }

    /// Owned variant of [`FeatureFamily::from_frame`]: consumes the frame's
    /// columns directly, so the pivot-output → family handoff copies only
    /// the dense matrix data (no timestamp / name vector clones).
    pub fn from_frame_owned(frame: FamilyFrame) -> Self {
        let data = Matrix::from_columns(&frame.columns);
        FeatureFamily::new(frame.name, frame.timestamps, frame.feature_names, data)
    }

    /// Converts a TSDB [`AlignedFrame`] into a family with the given name.
    pub fn from_aligned(name: impl Into<String>, frame: &AlignedFrame) -> Self {
        let data = Matrix::from_columns(&frame.columns);
        FeatureFamily::new(name, frame.timestamps.clone(), frame.names.clone(), data)
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the family has no observations.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.data.ncols()
    }

    /// One feature column by name.
    pub fn feature(&self, name: &str) -> Option<Vec<f64>> {
        self.feature_names.iter().position(|n| n == name).map(|i| self.data.column(i))
    }

    /// The rows whose timestamps appear in `keep` (assumed sorted), together
    /// with the surviving timestamps. Used for aligning families that were
    /// built by different queries.
    pub fn restrict_to(&self, keep: &[i64]) -> FeatureFamily {
        let mut rows = Vec::new();
        let mut ts = Vec::new();
        let mut ki = 0usize;
        for (i, &t) in self.timestamps.iter().enumerate() {
            while ki < keep.len() && keep[ki] < t {
                ki += 1;
            }
            if ki < keep.len() && keep[ki] == t {
                rows.push(i);
                ts.push(t);
            }
        }
        FeatureFamily {
            name: self.name.clone(),
            timestamps: ts,
            feature_names: self.feature_names.clone(),
            data: self.data.select_rows(&rows),
        }
    }

    /// Sorted intersection of this family's timestamps with `other`.
    pub fn shared_timestamps(&self, other: &[i64]) -> Vec<i64> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.timestamps.len() && j < other.len() {
            match self.timestamps[i].cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(other[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// The families' rows at `ts`, side by side — how the conditioning
    /// matrix Z of §3.5 is assembled. `ts` must be a subset of every
    /// family's timestamps; otherwise the row counts differ and this is a
    /// [`CoreError::Model`]. No families give a `ts.len() × 0` matrix.
    pub fn side_by_side<'a>(
        families: impl IntoIterator<Item = &'a FeatureFamily>,
        ts: &[i64],
    ) -> Result<Matrix> {
        let mut z = Matrix::zeros(ts.len(), 0);
        for family in families {
            let m = family.restrict_to(ts).data;
            if m.nrows() != ts.len() {
                return Err(CoreError::Model(format!(
                    "{} has {} of the {} shared timestamps",
                    family.name,
                    m.nrows(),
                    ts.len()
                )));
            }
            z = if z.ncols() == 0 {
                m
            } else {
                z.hcat(&m).map_err(|e| CoreError::Model(e.to_string()))?
            };
        }
        Ok(z)
    }

    /// Merges several families into one wider family (same grid required),
    /// prefixing feature names with the source family name. Used when the
    /// user re-groups semantically similar families (§5.1's takeaway).
    ///
    /// # Panics
    /// Panics if grids differ.
    pub fn merge(name: impl Into<String>, parts: &[&FeatureFamily]) -> FeatureFamily {
        assert!(!parts.is_empty(), "merge needs at least one family");
        let ts = parts[0].timestamps.clone();
        for p in parts {
            assert_eq!(p.timestamps, ts, "merge requires identical time grids");
        }
        let mut feature_names = Vec::new();
        let mut data = parts[0].data.clone();
        for f in &parts[0].feature_names {
            feature_names.push(format!("{}::{}", parts[0].name, f));
        }
        for p in &parts[1..] {
            data = data.hcat(&p.data).expect("same row count");
            for f in &p.feature_names {
                feature_names.push(format!("{}::{}", p.name, f));
            }
        }
        FeatureFamily::new(name, ts, feature_names, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fam(name: &str, ts: Vec<i64>) -> FeatureFamily {
        let values: Vec<f64> = ts.iter().map(|&t| t as f64).collect();
        FeatureFamily::univariate(name, ts, values)
    }

    #[test]
    fn univariate_construction() {
        let f = fam("m", vec![0, 60, 120]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.width(), 1);
        assert_eq!(f.feature("m").unwrap(), vec![0.0, 60.0, 120.0]);
        assert!(f.feature("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_timestamps() {
        FeatureFamily::univariate("m", vec![10, 5], vec![1.0, 2.0]);
    }

    #[test]
    fn restrict_to_intersection() {
        let f = fam("m", vec![0, 60, 120, 180]);
        let r = f.restrict_to(&[60, 180, 240]);
        assert_eq!(r.timestamps, vec![60, 180]);
        assert_eq!(r.data.column(0), vec![60.0, 180.0]);
    }

    #[test]
    fn shared_timestamps_intersects() {
        let f = fam("m", vec![0, 60, 120]);
        assert_eq!(f.shared_timestamps(&[60, 90, 120, 240]), vec![60, 120]);
        assert!(f.shared_timestamps(&[7, 8]).is_empty());
    }

    #[test]
    fn merge_concatenates_features() {
        let a = fam("a", vec![0, 60]);
        let b = fam("b", vec![0, 60]);
        let m = FeatureFamily::merge("ab", &[&a, &b]);
        assert_eq!(m.width(), 2);
        assert_eq!(m.feature_names, vec!["a::a", "b::b"]);
        assert_eq!(m.name, "ab");
    }

    #[test]
    #[should_panic(expected = "identical time grids")]
    fn merge_rejects_mismatched_grids() {
        let a = fam("a", vec![0, 60]);
        let b = fam("b", vec![0, 120]);
        FeatureFamily::merge("ab", &[&a, &b]);
    }

    #[test]
    fn side_by_side_stacks_columns_or_errors() {
        let a = fam("a", vec![0, 60, 120]);
        let b = fam("b", vec![0, 60, 120, 180]);
        let z = FeatureFamily::side_by_side([&a, &b], &[60, 120]).unwrap();
        assert_eq!(z.shape(), (2, 2));
        assert_eq!(z.row(1), &[120.0, 120.0]);
        assert_eq!(FeatureFamily::side_by_side([], &[0, 60]).unwrap().shape(), (2, 0));
        // 180 is not a timestamp of `a`: its rows would not line up.
        for order in [[&a, &b], [&b, &a]] {
            assert!(matches!(
                FeatureFamily::side_by_side(order, &[60, 180]),
                Err(CoreError::Model(_))
            ));
        }
    }

    #[test]
    fn from_frame_round_trip() {
        let frame = FamilyFrame {
            name: "disk".into(),
            timestamps: vec![0, 60],
            feature_names: vec!["h1".into(), "h2".into()],
            columns: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        };
        let fam = FeatureFamily::from_frame(&frame);
        assert_eq!(fam.width(), 2);
        assert_eq!(fam.data[(1, 0)], 2.0);
        assert_eq!(fam.data[(0, 1)], 3.0);
    }
}
