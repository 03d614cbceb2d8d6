//! Quantised training matrix — the input of the CART grower.
//!
//! Every feature column is binned once per fit into `u8` codes, stored
//! column-major, so growing a tree reads one byte per (row, candidate
//! feature) and never sorts. Bins come from the column's sorted distinct
//! values:
//!
//! - a feature with at most [`MAX_BINS`] distinct values gets one bin per
//!   value, which is exact — any split between two adjacent values is
//!   still expressible;
//! - a denser feature gets at most [`MAX_BINS`] quantile bins: distinct
//!   values are grouped greedily so each bin holds about the same number
//!   of rows, re-targeting after every cut so one heavy value (a column
//!   that is mostly zeros) does not starve the rest of bins.
//!
//! Codes are monotone in value (`a <= b` implies `code(a) <= code(b)`),
//! and each bin remembers the smallest and largest training value it
//! holds. A split "code ≤ b" is written back as the `f64` threshold
//! `midpoint(largest value of bin b, smallest value of the next occupied
//! bin)`, which every training row on either side falls strictly on the
//! right side of — so the `f64` tree walk routes training rows exactly as
//! their codes did while growing.
//!
//! `-0.0` and `+0.0` compare equal and share a bin. Non-finite values
//! never reach the binner: [`Dataset::new`] refuses them.

use crate::data::Dataset;

/// Most bins one feature is quantised into (codes are `u8`).
pub const MAX_BINS: usize = 256;

/// Column-major `u8` bin codes for every training row, plus the value
/// range of every bin.
///
/// # Example
///
/// ```
/// use ph_ml::bins::BinnedMatrix;
/// use ph_ml::data::Dataset;
///
/// let data = Dataset::new(vec![3.0, -1.0, 3.0, 7.5], 1, vec![false; 4])?;
/// let bins = BinnedMatrix::new(&data);
/// assert_eq!(bins.num_bins(0), 3); // one bin per distinct value
/// assert_eq!(bins.column(0), &[1, 0, 1, 2]);
/// assert_eq!(bins.bin_range(0, 2), (7.5, 7.5));
/// # Ok::<(), ph_ml::data::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    num_rows: usize,
    num_features: usize,
    /// `codes[f * num_rows + row]` is the bin of feature `f` for `row`.
    codes: Vec<u8>,
    /// Feature `f`'s bins are `lower/upper[offsets[f]..offsets[f + 1]]`.
    offsets: Vec<usize>,
    /// Smallest training value in each bin.
    lower: Vec<f64>,
    /// Largest training value in each bin (its inclusive upper edge).
    upper: Vec<f64>,
}

impl BinnedMatrix {
    /// Bins every column of a dataset, reading each as a strided column
    /// of the row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics if the dataset holds more than `u32::MAX` rows.
    pub fn new(data: &Dataset) -> Self {
        let num_rows = data.len();
        assert!(
            u32::try_from(num_rows).is_ok(),
            "too many rows to bin: {num_rows}"
        );
        let num_features = data.num_features();
        let mut binned = Self {
            num_rows,
            num_features,
            codes: vec![0; num_rows * num_features],
            offsets: vec![0],
            lower: Vec::new(),
            upper: Vec::new(),
        };
        let mut column = Vec::with_capacity(num_rows);
        let mut sorted = Vec::with_capacity(num_rows);
        for f in 0..num_features {
            column.clear();
            column.extend(data.values().iter().skip(f).step_by(num_features));
            sorted.clear();
            sorted.extend_from_slice(&column);
            sorted.sort_unstable_by(f64::total_cmp);
            let first = binned.upper.len();
            binned.push_bins(&sorted);
            binned.offsets.push(binned.upper.len());
            let upper = &binned.upper[first..];
            let codes = &mut binned.codes[f * num_rows..(f + 1) * num_rows];
            for (code, &v) in codes.iter_mut().zip(&column) {
                *code = upper.partition_point(|&u| u < v) as u8;
            }
        }
        binned
    }

    /// Appends the bins of one ascending-sorted column to `lower`/`upper`.
    fn push_bins(&mut self, sorted: &[f64]) {
        // Distinct values with their multiplicities; `==` merges ±0.
        let mut distinct: Vec<(f64, usize)> = Vec::new();
        for &v in sorted {
            match distinct.last_mut() {
                Some((last, count)) if *last == v => *count += 1,
                _ => distinct.push((v, 1)),
            }
        }
        let mut rows_left = sorted.len();
        let mut bins_left = MAX_BINS;
        let mut in_bin = 0usize;
        let mut bin_lower = distinct[0].0;
        for (i, &(v, count)) in distinct.iter().enumerate() {
            if in_bin == 0 {
                bin_lower = v;
            }
            in_bin += count;
            let values_after = distinct.len() - i - 1;
            // Close the bin once it holds its share of the remaining rows,
            // or as soon as every remaining value can have a bin of its own
            // (always true at the last value, so the last bin closes).
            if values_after < bins_left || in_bin * bins_left >= rows_left {
                self.lower.push(bin_lower);
                self.upper.push(v);
                rows_left -= in_bin;
                bins_left -= 1;
                in_bin = 0;
            }
        }
    }

    /// Number of binned rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features (columns).
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of bins feature `feature` was quantised into (1..=256).
    pub fn num_bins(&self, feature: usize) -> usize {
        self.offsets[feature + 1] - self.offsets[feature]
    }

    /// Bin codes of one feature, one per row.
    pub fn column(&self, feature: usize) -> &[u8] {
        &self.codes[feature * self.num_rows..(feature + 1) * self.num_rows]
    }

    /// Bin code of one cell.
    pub fn code(&self, feature: usize, row: usize) -> u8 {
        self.column(feature)[row]
    }

    /// `(smallest, largest)` training value that landed in a bin.
    pub fn bin_range(&self, feature: usize, bin: u8) -> (f64, f64) {
        let at = self.offsets[feature] + bin as usize;
        (self.lower[at], self.upper[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(values: &[f64]) -> BinnedMatrix {
        let labels = vec![false; values.len()];
        BinnedMatrix::new(&Dataset::new(values.to_vec(), 1, labels).unwrap())
    }

    #[test]
    fn sparse_feature_gets_one_bin_per_value() {
        let bins = single(&[5.0, 1.0, 5.0, -2.0, 1.0]);
        assert_eq!(bins.num_bins(0), 3);
        assert_eq!(bins.column(0), &[2, 1, 2, 0, 1]);
        assert_eq!(bins.bin_range(0, 1), (1.0, 1.0));
    }

    #[test]
    fn signed_zeros_share_a_bin() {
        let bins = single(&[0.0, -0.0, 1.0]);
        assert_eq!(bins.num_bins(0), 2);
        assert_eq!(bins.code(0, 0), bins.code(0, 1));
    }

    #[test]
    fn dense_feature_is_capped_at_max_bins() {
        let values: Vec<f64> = (0..5_000).map(|i| (i as f64).sqrt()).collect();
        let bins = single(&values);
        assert_eq!(bins.num_bins(0), MAX_BINS);
        // Equal-frequency: every bin holds about 5000 / 256 rows.
        let mut counts = vec![0usize; MAX_BINS];
        for &c in bins.column(0) {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| (19..=20).contains(&c)), "{counts:?}");
    }

    #[test]
    fn heavy_value_does_not_starve_the_tail() {
        // 90 % zeros, then 1 000 distinct positives: the zeros take one bin
        // and the positives share the other 255.
        let values: Vec<f64> = (0..9_000)
            .map(|_| 0.0)
            .chain((1..=1_000).map(f64::from))
            .collect();
        let bins = single(&values);
        assert_eq!(bins.num_bins(0), MAX_BINS);
        assert_eq!(bins.bin_range(0, 0), (0.0, 0.0));
    }
}
