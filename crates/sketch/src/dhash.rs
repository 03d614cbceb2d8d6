//! Difference-hash (dHash) perceptual image hashing.
//!
//! The paper (§IV-B, "Clustering Based Method") hashes profile images as
//! follows:
//!
//! 1. Reduce the image to a constant 9×9 grayscale raster, removing high
//!    frequencies and detail.
//! 2. Compare adjacent pixels horizontally *and* vertically: emit 1 when a
//!    pixel is greater than its neighbour, 0 otherwise. Each direction yields
//!    8×8 = 64 bits; concatenated they form a 128-bit hash.
//! 3. Compare two hashes by Hamming distance; images within distance 5 fall
//!    into the same cluster.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::image::GrayImage;

/// Side length of the reduced image used for hashing.
pub const REDUCED_SIDE: u32 = 9;

/// Hamming-distance threshold below which two images are considered
/// near-duplicates (the paper uses 5).
pub const DEFAULT_THRESHOLD: u32 = 5;

/// A 128-bit dHash: 64 horizontal-gradient bits concatenated with 64
/// vertical-gradient bits.
///
/// # Example
///
/// ```
/// use ph_sketch::{DHash128, GrayImage};
///
/// let img = GrayImage::from_fn(36, 36, |x, y| ((3 * x + 7 * y) % 256) as u8);
/// let h = DHash128::of(&img);
/// assert_eq!(h.hamming_distance(h), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DHash128 {
    horizontal: u64,
    vertical: u64,
}

impl DHash128 {
    /// Computes the dHash of an image.
    pub fn of(image: &GrayImage) -> Self {
        let reduced = if image.dimensions() == (REDUCED_SIDE, REDUCED_SIDE) {
            image.clone()
        } else {
            image.resize(REDUCED_SIDE, REDUCED_SIDE)
        };
        let mut horizontal: u64 = 0;
        let mut vertical: u64 = 0;
        let mut bit = 0u32;
        for y in 0..REDUCED_SIDE - 1 {
            for x in 0..REDUCED_SIDE - 1 {
                if reduced.get(x, y) > reduced.get(x + 1, y) {
                    horizontal |= 1 << bit;
                }
                if reduced.get(x, y) > reduced.get(x, y + 1) {
                    vertical |= 1 << bit;
                }
                bit += 1;
            }
        }
        Self {
            horizontal,
            vertical,
        }
    }

    /// Builds a hash from its two 64-bit halves.
    pub fn from_parts(horizontal: u64, vertical: u64) -> Self {
        Self {
            horizontal,
            vertical,
        }
    }

    /// The horizontal-gradient half.
    pub fn horizontal_bits(self) -> u64 {
        self.horizontal
    }

    /// The vertical-gradient half.
    pub fn vertical_bits(self) -> u64 {
        self.vertical
    }

    /// Number of differing bits between the two hashes
    /// (`d(h1, h2) = Σ XOR(h1, h2)` in the paper).
    pub fn hamming_distance(self, other: Self) -> u32 {
        (self.horizontal ^ other.horizontal).count_ones()
            + (self.vertical ^ other.vertical).count_ones()
    }
}

impl fmt::Display for DHash128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.horizontal, self.vertical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image(shift: u32) -> GrayImage {
        GrayImage::from_fn(45, 45, move |x, y| ((x * 4 + y * 2 + shift) % 256) as u8)
    }

    #[test]
    fn identical_images_have_distance_zero() {
        let a = DHash128::of(&gradient_image(0));
        let b = DHash128::of(&gradient_image(0));
        assert_eq!(a, b);
        assert_eq!(a.hamming_distance(b), 0);
    }

    #[test]
    fn noisy_copy_is_near_duplicate() {
        let base = gradient_image(0);
        // Flip a few pixels slightly — perceptual hash should barely move.
        let mut noisy = base.clone();
        for i in 0..8 {
            let x = (i * 5) % 45;
            let y = (i * 7) % 45;
            let v = noisy.get(x, y);
            noisy.set(x, y, v.saturating_add(2));
        }
        let (ha, hb) = (DHash128::of(&base), DHash128::of(&noisy));
        assert!(
            ha.hamming_distance(hb) < DEFAULT_THRESHOLD,
            "distance {} too large",
            ha.hamming_distance(hb)
        );
    }

    #[test]
    fn unrelated_images_are_far() {
        let a = DHash128::of(&GrayImage::from_fn(45, 45, |x, y| {
            (x.wrapping_mul(97) ^ y.wrapping_mul(31)) as u8
        }));
        let b = DHash128::of(&GrayImage::from_fn(45, 45, |x, y| {
            (x.wrapping_mul(13) ^ y.wrapping_mul(151)).wrapping_add(91) as u8
        }));
        assert!(a.hamming_distance(b) > DEFAULT_THRESHOLD);
    }

    #[test]
    fn distance_is_symmetric_and_triangle() {
        let h1 = DHash128::from_parts(0xdead_beef, 0x1234);
        let h2 = DHash128::from_parts(0xbeef_dead, 0x4321);
        let h3 = DHash128::from_parts(0, 0);
        assert_eq!(h1.hamming_distance(h2), h2.hamming_distance(h1));
        assert!(h1.hamming_distance(h3) <= h1.hamming_distance(h2) + h2.hamming_distance(h3));
    }

    #[test]
    fn display_is_32_hex_chars() {
        let h = DHash128::from_parts(1, 2);
        assert_eq!(h.to_string().len(), 32);
        assert_eq!(h.to_string(), "00000000000000010000000000000002");
    }

    #[test]
    fn hash_of_flat_image_is_zero() {
        let img = GrayImage::from_fn(20, 20, |_, _| 128);
        let h = DHash128::of(&img);
        assert_eq!(h.horizontal_bits(), 0);
        assert_eq!(h.vertical_bits(), 0);
    }

    #[test]
    fn already_reduced_image_is_hashed_directly() {
        let img = GrayImage::from_fn(REDUCED_SIDE, REDUCED_SIDE, |x, y| (x * 9 + y) as u8);
        // Must not panic and must be deterministic.
        assert_eq!(DHash128::of(&img), DHash128::of(&img));
    }
}
