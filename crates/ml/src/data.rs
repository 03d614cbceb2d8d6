//! Dense binary-classification datasets and related utilities.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors produced when constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The value buffer does not hold exactly one `width`-wide row per
    /// label.
    LengthMismatch {
        /// Number of feature values supplied.
        values: usize,
        /// Row width the values were to be read at.
        width: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// The dataset contains no rows.
    Empty,
    /// A feature value is NaN or infinite.
    NonFinite {
        /// Row index of the offending value.
        row: usize,
        /// Column index of the offending value.
        column: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch {
                values,
                width,
                labels,
            } => write!(
                f,
                "{values} feature values do not fill {labels} rows of width {width}"
            ),
            DatasetError::Empty => write!(f, "dataset contains no rows"),
            DatasetError::NonFinite { row, column } => {
                write!(f, "non-finite feature value at row {row}, column {column}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A dense binary-classification dataset: a row-major `f64` matrix with
/// one `width`-wide row per example, plus a boolean label per example
/// (`true` = positive / spam).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    values: Vec<f64>,
    width: usize,
    labels: Vec<bool>,
}

impl Dataset {
    /// Builds a dataset from a row-major value buffer holding one
    /// `width`-wide row per label, validating shape and finiteness.
    ///
    /// # Errors
    ///
    /// Returns a [`DatasetError`] when there are no labels, when `values`
    /// is not `labels.len() * width` long, or when a value is non-finite.
    pub fn new(values: Vec<f64>, width: usize, labels: Vec<bool>) -> Result<Self, DatasetError> {
        if labels.is_empty() {
            return Err(DatasetError::Empty);
        }
        if labels.len().checked_mul(width) != Some(values.len()) {
            return Err(DatasetError::LengthMismatch {
                values: values.len(),
                width,
                labels: labels.len(),
            });
        }
        if let Some(at) = values.iter().position(|v| !v.is_finite()) {
            return Err(DatasetError::NonFinite {
                row: at / width,
                column: at % width,
            });
        }
        Ok(Self {
            values,
            width,
            labels,
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no examples (unreachable for values
    /// produced by [`Dataset::new`], which rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per example.
    pub fn num_features(&self) -> usize {
        self.width
    }

    /// The whole row-major matrix: `len() * num_features()` values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Feature rows, in order: `len()` slices of `num_features()` values
    /// (empty slices at width 0).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Labels (`true` = positive class).
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// One feature row.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds and the width is nonzero.
    pub fn row(&self, index: usize) -> &[f64] {
        &self.values[index * self.width..(index + 1) * self.width]
    }

    /// One label.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn label(&self, index: usize) -> bool {
        self.labels[index]
    }

    /// Number of positive examples.
    pub fn num_positive(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Fraction of positive examples.
    pub fn positive_rate(&self) -> f64 {
        self.num_positive() as f64 / self.len() as f64
    }

    /// Selects the sub-dataset at `indices`, in that order (copying rows).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        assert!(!indices.is_empty(), "subset must be non-empty");
        let mut values = Vec::with_capacity(indices.len() * self.width);
        for &i in indices {
            values.extend_from_slice(self.row(i));
        }
        Dataset {
            values,
            width: self.width,
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// Per-feature `(mean, standard deviation)` pairs. Degenerate features
    /// (zero variance) report a standard deviation of 1 so that scaling is a
    /// no-op for them.
    pub fn feature_moments(&self) -> Vec<(f64, f64)> {
        let n = self.len() as f64;
        let d = self.num_features();
        let mut moments = vec![(0.0, 0.0); d];
        for row in self.rows() {
            for (j, &v) in row.iter().enumerate() {
                moments[j].0 += v;
            }
        }
        for m in &mut moments {
            m.0 /= n;
        }
        for row in self.rows() {
            for (j, &v) in row.iter().enumerate() {
                let d = v - moments[j].0;
                moments[j].1 += d * d;
            }
        }
        for m in &mut moments {
            let var = m.1 / n;
            m.1 = if var > 1e-24 { var.sqrt() } else { 1.0 };
        }
        moments
    }
}

/// A fitted per-feature standardizer (z-score scaling).
///
/// kNN and the linear SVM are scale-sensitive; both fit a `Standardizer` on
/// their training split and apply it at prediction time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    moments: Vec<(f64, f64)>,
}

impl Standardizer {
    /// Fits the scaler to a dataset.
    pub fn fit(data: &Dataset) -> Self {
        Self {
            moments: data.feature_moments(),
        }
    }

    /// Number of features the scaler was fitted on.
    pub fn num_features(&self) -> usize {
        self.moments.len()
    }

    /// Scales one row into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the fitted dimensionality.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.moments.len(), "feature width mismatch");
        row.iter()
            .zip(&self.moments)
            .map(|(&v, &(mean, std))| (v - mean) / std)
            .collect()
    }

    /// Scales every row of a dataset into one fresh matrix, preserving
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's width differs from the fitted
    /// dimensionality.
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        assert_eq!(
            data.num_features(),
            self.moments.len(),
            "feature width mismatch"
        );
        Dataset {
            values: data
                .values()
                .iter()
                .zip(self.moments.iter().cycle())
                .map(|(&v, &(mean, std))| (v - mean) / std)
                .collect(),
            width: data.width,
            labels: data.labels().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![0.0, 10.0, 1.0, 20.0, 2.0, 30.0, 3.0, 40.0],
            2,
            vec![false, false, true, true],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_lengths() {
        let err = Dataset::new(vec![1.0], 1, vec![true, false]).unwrap_err();
        assert_eq!(
            err,
            DatasetError::LengthMismatch {
                values: 1,
                width: 1,
                labels: 2
            }
        );
    }

    #[test]
    fn new_rejects_a_length_that_is_not_a_multiple_of_the_width() {
        let err = Dataset::new(vec![1.0, 2.0, 3.0], 2, vec![true, false]).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::LengthMismatch { values: 3, .. }
        ));
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(
            Dataset::new(vec![], 3, vec![]).unwrap_err(),
            DatasetError::Empty
        );
    }

    #[test]
    fn new_rejects_nan() {
        let err = Dataset::new(vec![f64::NAN], 1, vec![true]).unwrap_err();
        assert_eq!(err, DatasetError::NonFinite { row: 0, column: 0 });
    }

    #[test]
    fn non_finite_position_comes_from_the_flat_index() {
        let err =
            Dataset::new(vec![0.0, 1.0, 2.0, f64::INFINITY], 2, vec![true, false]).unwrap_err();
        assert_eq!(err, DatasetError::NonFinite { row: 1, column: 1 });
    }

    #[test]
    fn width_zero_dataset_yields_empty_rows() {
        let d = Dataset::new(vec![], 0, vec![true, false, true]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.num_features(), 0);
        assert_eq!(d.rows().len(), 3);
        assert!(d.rows().all(<[f64]>::is_empty));
    }

    #[test]
    fn counts_and_rates() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.num_positive(), 2);
        assert!((d.positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn subset_keeps_index_order() {
        let d = toy();
        let s = d.subset(&[2, 0, 3]);
        assert_eq!(s.values(), &[2.0, 30.0, 0.0, 10.0, 3.0, 40.0]);
        assert_eq!(s.labels(), &[true, false, true]);
        assert_eq!(s.num_features(), 2);
    }

    #[test]
    fn moments_are_mean_and_std() {
        let d = toy();
        let m = d.feature_moments();
        assert!((m[0].0 - 1.5).abs() < 1e-12);
        assert!((m[1].0 - 25.0).abs() < 1e-12);
        // Population std of [0,1,2,3] = sqrt(1.25).
        assert!((m[0].1 - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn standardizer_centers_and_scales() {
        let d = toy();
        let s = Standardizer::fit(&d);
        let t = s.transform_dataset(&d);
        let m = t.feature_moments();
        assert!(m[0].0.abs() < 1e-12);
        assert!((m[0].1 - 1.0).abs() < 1e-9);
        for (scaled, row) in t.rows().zip(d.rows()) {
            assert_eq!(scaled, s.transform(row).as_slice());
        }
    }

    #[test]
    fn standardizer_handles_constant_feature() {
        let d = Dataset::new(vec![5.0, 5.0], 1, vec![true, false]).unwrap();
        let s = Standardizer::fit(&d);
        assert_eq!(s.transform(&[5.0]), vec![0.0]);
    }
}
