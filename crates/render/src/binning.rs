//! Screen-space bin index for tile-less sparse pixel sets.
//!
//! The Gaussian-major pixel pipeline discovers pixel–Gaussian candidates by
//! letting every projected Gaussian enumerate the samples its bounding box
//! covers. A tile-indexed set does that by direct indexing, but a set
//! without tile structure ([`PixelSet::from_pixels`]) can only scan every
//! sample per Gaussian. The bin index inverts that loop: projected Gaussians
//! are bucketed once per render into a coarse screen grid
//! ([`crate::RenderConfig::bin_size`] pixels per bin), and each sampled pixel
//! then visits only the candidates of its own bin — the GS-TG / SeeLe-style
//! coarse grouping that prunes non-overlapping Gaussians before any α math
//! runs.
//!
//! # Exactness contract
//!
//! The binned path must be **bit-identical** to the Gaussian-major path, so
//! bin membership is *conservative with respect to its candidate
//! predicate*, center containment in the bounding box: a Gaussian is
//! inserted into every bin its bounding box, widened by one pixel, touches.
//! Per-pixel filtering then applies the same predicate, so the surviving
//! pairs — and therefore the per-pixel entry lists, in the same ascending
//! projected-index order — are identical. Over-approximation only ever adds
//! `bin_candidates` visits that the predicate rejects; it can never change
//! the rendered output. Where [`crate::RenderConfig::bbox_prereject`] holds
//! (the default config), every pair that passes the α-check has its pixel
//! center inside the box, so the index also covers every contributing pair
//! of a tile-indexed set.

use crate::kernel::ProjectedGaussian;
use crate::pixelset::{PixelCoord, PixelSet};

/// Default bin edge length in pixels (matches the rasterizer tile size).
pub const DEFAULT_BIN_SIZE: usize = 16;

/// A screen-space bin grid holding per-bin candidate lists of projected
/// Gaussian indices (ascending, since insertion scans the projected set in
/// order).
#[derive(Debug, Clone)]
pub struct BinIndex {
    bin: usize,
    bins_x: usize,
    bins_y: usize,
    lists: Vec<Vec<u32>>,
    /// Total list entries (Σ over bins), for trace accounting.
    entries: u64,
}

impl BinIndex {
    /// Builds the index for `projected` over the screen of `pixels`,
    /// with `bin_size`-pixel bins (0 falls back to [`DEFAULT_BIN_SIZE`]).
    pub fn build(projected: &[ProjectedGaussian], pixels: &PixelSet, bin_size: usize) -> BinIndex {
        let bin = if bin_size == 0 {
            DEFAULT_BIN_SIZE
        } else {
            bin_size
        };
        let width = pixels.width().max(1);
        let height = pixels.height().max(1);
        let bins_x = width.div_ceil(bin);
        let bins_y = height.div_ceil(bin);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); bins_x * bins_y];
        let mut entries = 0u64;
        for (pi, pg) in projected.iter().enumerate() {
            let (lo, hi) = pg.bbox();
            // Pixel span of the center-containment predicate, widened by one
            // pixel on each side and clamped to the screen.
            let span = |a: f64, b: f64, n: usize| {
                let clamp = |v: f64| (v as isize).clamp(0, n as isize - 1) as usize;
                (clamp((a - 1.0).floor()), clamp((b + 1.0).ceil()))
            };
            let (x_lo, x_hi) = span(lo.x, hi.x, width);
            let (y_lo, y_hi) = span(lo.y, hi.y, height);
            if x_lo > x_hi || y_lo > y_hi {
                continue;
            }
            for by in (y_lo / bin)..=(y_hi / bin) {
                for bx in (x_lo / bin)..=(x_hi / bin) {
                    lists[by * bins_x + bx].push(pi as u32);
                    entries += 1;
                }
            }
        }
        BinIndex {
            bin,
            bins_x,
            bins_y,
            lists,
            entries,
        }
    }

    /// Candidate projected-Gaussian indices for the bin containing `p`
    /// (ascending projected index).
    #[inline]
    pub fn candidates(&self, p: PixelCoord) -> &[u32] {
        let bx = (p.x as usize / self.bin).min(self.bins_x - 1);
        let by = (p.y as usize / self.bin).min(self.bins_y - 1);
        &self.lists[by * self.bins_x + bx]
    }

    /// Bin edge length in pixels.
    #[inline]
    pub fn bin_size(&self) -> usize {
        self.bin
    }

    /// Grid dimensions `(bins_x, bins_y)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.bins_x, self.bins_y)
    }

    /// Total candidate entries across all bins.
    pub fn total_entries(&self) -> u64 {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{project_scene, RenderConfig};
    use splatonic_math::Vec3;
    use splatonic_scene::{Camera, Intrinsics, WorldBuilder};

    fn setup() -> (Vec<ProjectedGaussian>, PixelSet) {
        let world = WorldBuilder::new(3)
            .gaussian_spacing(0.4)
            .furniture(2)
            .build();
        let cam = Camera::look_at(
            Intrinsics::with_fov(96, 72, 1.2),
            Vec3::new(0.3, -0.1, -0.5),
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::Y,
        );
        let (projected, _) = project_scene(&world.scene, &cam, &RenderConfig::default());
        let pts = (0..96u16)
            .step_by(7)
            .flat_map(|x| (0..72u16).step_by(5).map(move |y| PixelCoord::new(x, y)))
            .collect();
        (projected, PixelSet::from_pixels(96, 72, pts))
    }

    #[test]
    fn bins_cover_every_center_in_bbox_pair() {
        let (projected, pixels) = setup();
        let index = BinIndex::build(&projected, &pixels, 16);
        let mut pairs = 0;
        for (pi, pg) in projected.iter().enumerate() {
            for p in pixels.iter_all().filter(|p| pg.bbox_contains(p.center())) {
                pairs += 1;
                assert!(
                    index.candidates(p).contains(&(pi as u32)),
                    "gaussian {pi} missing from bin of pixel {p:?}"
                );
            }
        }
        assert!(pairs > 0);
    }

    #[test]
    fn candidate_lists_are_ascending() {
        let (projected, pixels) = setup();
        let index = BinIndex::build(&projected, &pixels, 8);
        for p in pixels.iter_all() {
            let c = index.candidates(p);
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(index.total_entries() > 0);
        assert_eq!(index.bin_size(), 8);
    }

    #[test]
    fn zero_bin_size_uses_default() {
        let (projected, pixels) = setup();
        let index = BinIndex::build(&projected, &pixels, 0);
        assert_eq!(index.bin_size(), DEFAULT_BIN_SIZE);
        let (bx, by) = index.dims();
        assert_eq!(bx, 96usize.div_ceil(DEFAULT_BIN_SIZE));
        assert_eq!(by, 72usize.div_ceil(DEFAULT_BIN_SIZE));
    }
}
