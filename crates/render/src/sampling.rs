//! Adaptive sparse pixel sampling (paper Sec. IV-A) and the baselines it is
//! compared against in Fig. 10 and Fig. 24.
//!
//! **Tracking** samples one pixel per `w_t × w_t` tile:
//! * [`SamplingStrategy::RandomPerTile`] — the paper's choice: uniform random
//!   within each tile (global coverage, no redundancy).
//! * [`SamplingStrategy::HarrisPerTile`] — per-tile Harris-response argmax.
//! * [`SamplingStrategy::LowRes`] — render a downscaled image instead.
//! * [`SamplingStrategy::LossGuidedTiles`] — GauSPU-style \[77] selection of
//!   whole 16×16 tiles by previous loss (no global coverage).
//!
//! **Mapping** ([`MappingSampler`]) samples the union of
//! * *unseen* pixels: `Γ_final(p) > 0.5` (Eq. 2), stored separately so they
//!   do not disturb the projection unit's direct indexing, and
//! * one texture-weighted pixel per `w_m × w_m` tile with probability
//!   `P(p) = w_R(p)·r`, `w_R = √(Gx²+Gy²)` from Sobel filters (Eq. 3).

use crate::pixelset::{PixelCoord, PixelSet};
use splatonic_math::image::{harris_response, sobel_magnitude};
use splatonic_math::rng::{mix_seed, Rng64};
use splatonic_math::Image;
use splatonic_scene::Frame;

/// Per-tile RNG for the one-pixel-per-tile choosers.
///
/// Each tile draws from its own generator, seeded from the caller's seed and
/// the tile coordinates, so a tile's pick depends only on `(seed, tx, ty)` —
/// never on how many tiles were visited before it or in what order. That
/// keeps sampling stable when the frame size changes and safe to evaluate
/// tile-parallel.
fn tile_rng(seed: u64, tx: usize, ty: usize) -> Rng64 {
    Rng64::seed_from_u64(mix_seed(seed, ((ty as u64) << 32) | tx as u64))
}

/// Tracking-time sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingStrategy {
    /// Process every pixel (the dense baseline).
    Dense,
    /// One uniformly random pixel per `tile × tile` tile (the paper's).
    RandomPerTile {
        /// Tile edge `w_t` in pixels.
        tile: usize,
    },
    /// One pixel per tile, chosen by maximal Harris corner response.
    HarrisPerTile {
        /// Tile edge `w_t` in pixels.
        tile: usize,
    },
    /// Render a `factor×` downscaled image ("Low-Res." baseline).
    LowRes {
        /// Downscale factor per axis.
        factor: usize,
    },
    /// GauSPU-style: select whole 16×16 tiles by previous loss, matching the
    /// pixel budget of one-per-`tile×tile` sampling.
    LossGuidedTiles {
        /// Equivalent per-pixel tile edge `w_t` (sets the budget).
        tile: usize,
    },
}

impl SamplingStrategy {
    /// Fraction of pixels this strategy processes on a `width × height`
    /// frame, from the *realized* plan budget — not the nominal
    /// `1/(tile·tile)`.
    ///
    /// The distinction matters for every variant once frames stop dividing
    /// evenly: per-tile choosers pick one pixel per (possibly clipped) tile
    /// of a `⌈w/tile⌉ × ⌈h/tile⌉` grid, low-res renders
    /// `max(1, w/f) × max(1, h/f)` pixels, and loss-guided sampling rounds
    /// its budget up to whole 16×16 GPU tiles — on a 64×48 frame with
    /// `tile = 16` that is 256 pixels, more than 20× the 12 the nominal
    /// rate suggests. Exact realized counts for a concrete plan come from
    /// [`SamplingPlan::pixel_count`].
    pub fn sampling_rate(&self, width: usize, height: usize) -> f64 {
        let total = width * height;
        if total == 0 {
            return 0.0;
        }
        match *self {
            SamplingStrategy::Dense => 1.0,
            SamplingStrategy::RandomPerTile { tile } | SamplingStrategy::HarrisPerTile { tile } => {
                (width.div_ceil(tile) * height.div_ceil(tile)) as f64 / total as f64
            }
            SamplingStrategy::LowRes { factor } => {
                let f = factor.max(1);
                ((width / f).max(1) * (height / f).max(1)) as f64 / total as f64
            }
            SamplingStrategy::LossGuidedTiles { tile } => {
                loss_guided_budget(width, height, tile) as f64 / total as f64
            }
        }
    }
}

/// Pixel budget the loss-guided (GauSPU-style) baseline realizes on a
/// `width × height` frame: the nominal one-per-`tile×tile` budget rounded up
/// to whole 16×16 GPU tiles, capped at the frame (tiles are distinct, and
/// edge tiles are clipped to the frame).
fn loss_guided_budget(width: usize, height: usize, tile: usize) -> usize {
    let budget_pixels = (width * height).div_ceil(tile * tile);
    let n_tiles = budget_pixels.div_ceil(LOSS_TILE * LOSS_TILE).max(1);
    (n_tiles * LOSS_TILE * LOSS_TILE).min(width * height)
}

/// A realized sampling decision for one tracking iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingPlan {
    /// Render these pixels at full resolution.
    Pixels(PixelSet),
    /// Render a dense image at `1/factor` resolution (Low-Res. baseline).
    LowRes {
        /// Downscale factor per axis.
        factor: usize,
    },
}

impl SamplingPlan {
    /// Exact number of pixels this plan renders on a `width × height`
    /// frame. This is the count that feeds traces and run reports — unlike
    /// a nominal per-strategy rate it reflects budget rounding (loss-guided
    /// whole-tile selection) and edge clipping.
    pub fn pixel_count(&self, width: usize, height: usize) -> usize {
        match self {
            SamplingPlan::Pixels(set) => set.len(),
            SamplingPlan::LowRes { factor } => {
                let f = (*factor).max(1);
                (width / f).max(1) * (height / f).max(1)
            }
        }
    }

    /// Realized sampling rate: [`Self::pixel_count`] over the frame area.
    pub fn realized_rate(&self, width: usize, height: usize) -> f64 {
        if width * height == 0 {
            return 0.0;
        }
        self.pixel_count(width, height) as f64 / (width * height) as f64
    }
}

/// GPU tile edge used by the loss-guided (GauSPU-style) baseline.
const LOSS_TILE: usize = 16;

/// Builds the tracking pixel set for `strategy`.
///
/// `reference` is the current reference frame (needed by Harris),
/// `prev_tile_loss` is the per-16×16-tile loss map from the previous
/// iteration (needed by loss-guided sampling; pass `None` on the first
/// iteration to fall back to random tiles).
pub fn tracking_plan(
    strategy: SamplingStrategy,
    reference: &Frame,
    seed: u64,
    prev_tile_loss: Option<&[f64]>,
) -> SamplingPlan {
    let w = reference.width();
    let h = reference.height();
    match strategy {
        SamplingStrategy::Dense => SamplingPlan::Pixels(PixelSet::dense(w, h)),
        SamplingStrategy::LowRes { factor } => SamplingPlan::LowRes { factor },
        SamplingStrategy::RandomPerTile { tile } => SamplingPlan::Pixels(
            PixelSet::from_tile_chooser(w, h, tile, |tx, ty, x0, y0, tw, th| {
                let mut rng = tile_rng(seed, tx, ty);
                Some(PixelCoord::new(
                    (x0 + rng.gen_range(0..tw)) as u16,
                    (y0 + rng.gen_range(0..th)) as u16,
                ))
            }),
        ),
        SamplingStrategy::HarrisPerTile { tile } => {
            let lum = reference.luminance();
            let harris = harris_response(&lum);
            SamplingPlan::Pixels(PixelSet::from_tile_chooser(
                w,
                h,
                tile,
                |tx, ty, x0, y0, tw, th| {
                    let mut best = f64::NEG_INFINITY;
                    let mut pick = (x0, y0);
                    for dy in 0..th {
                        for dx in 0..tw {
                            let v = harris[(x0 + dx, y0 + dy)];
                            if v > best {
                                best = v;
                                pick = (x0 + dx, y0 + dy);
                            }
                        }
                    }
                    // Flat tiles (all-zero response) fall back to random so
                    // coverage never collapses onto tile corners.
                    if best <= 0.0 {
                        let mut rng = tile_rng(seed, tx, ty);
                        pick = (x0 + rng.gen_range(0..tw), y0 + rng.gen_range(0..th));
                    }
                    Some(PixelCoord::new(pick.0 as u16, pick.1 as u16))
                },
            ))
        }
        SamplingStrategy::LossGuidedTiles { tile } => {
            let budget_pixels = (w * h).div_ceil(tile * tile);
            let n_tiles_needed = budget_pixels.div_ceil(LOSS_TILE * LOSS_TILE).max(1);
            let tiles_x = w.div_ceil(LOSS_TILE);
            let tiles_y = h.div_ceil(LOSS_TILE);
            let total_tiles = tiles_x * tiles_y;
            let chosen: Vec<usize> = match prev_tile_loss {
                Some(losses) if losses.len() == total_tiles => {
                    // Highest loss first under the IEEE total order: a NaN
                    // loss ranks above +∞, and the stable sort keeps equal
                    // losses in tile order, so the pick is deterministic.
                    let mut idx: Vec<usize> = (0..total_tiles).collect();
                    idx.sort_by(|&a, &b| losses[b].total_cmp(&losses[a]));
                    idx.truncate(n_tiles_needed);
                    idx
                }
                _ => {
                    let mut rng = Rng64::seed_from_u64(seed);
                    let mut idx: Vec<usize> = (0..total_tiles).collect();
                    for i in (1..idx.len()).rev() {
                        idx.swap(i, rng.gen_range(0..=i));
                    }
                    idx.truncate(n_tiles_needed);
                    idx
                }
            };
            let mut pixels = Vec::with_capacity(n_tiles_needed * LOSS_TILE * LOSS_TILE);
            for t in chosen {
                let x0 = (t % tiles_x) * LOSS_TILE;
                let y0 = (t / tiles_x) * LOSS_TILE;
                for dy in 0..LOSS_TILE.min(h - y0) {
                    for dx in 0..LOSS_TILE.min(w - x0) {
                        pixels.push(PixelCoord::new((x0 + dx) as u16, (y0 + dy) as u16));
                    }
                }
            }
            SamplingPlan::Pixels(PixelSet::from_pixels(w, h, pixels))
        }
    }
}

/// Mapping-time strategy variants (paper Fig. 24 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingStrategy {
    /// Unseen pixels only (Eq. 2).
    UnseenOnly,
    /// Texture-weighted per-tile sampling only (Eq. 3).
    WeightedOnly,
    /// Both — the paper's choice ("Comb").
    Combined,
    /// Uniform random per tile (coverage control for the ablation).
    RandomOnly,
}

/// The mapping sampler (paper Sec. IV-A, Fig. 12).
///
/// # Examples
///
/// ```
/// use splatonic_render::{MappingSampler, sampling::MappingStrategy};
/// let sampler = MappingSampler::new(4, MappingStrategy::Combined);
/// assert_eq!(sampler.tile(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingSampler {
    tile: usize,
    strategy: MappingStrategy,
    unseen_threshold: f64,
}

impl MappingSampler {
    /// Creates a sampler with tile edge `w_m` and the given strategy.
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0`.
    pub fn new(tile: usize, strategy: MappingStrategy) -> Self {
        assert!(tile > 0, "mapping tile size must be positive");
        MappingSampler {
            tile,
            strategy,
            unseen_threshold: 0.5,
        }
    }

    /// Tile edge `w_m`.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The strategy variant.
    pub fn strategy(&self) -> MappingStrategy {
        self.strategy
    }

    /// Builds the mapping pixel set.
    ///
    /// `transmittance` is the dense `Γ_final` map from the first forward
    /// pass of this mapping invocation (Eq. 2 input); pixels with
    /// `Γ_final > 0.5` are classified unseen.
    pub fn build(&self, reference: &Frame, transmittance: &Image<f64>, seed: u64) -> PixelSet {
        let w = reference.width();
        let h = reference.height();
        assert_eq!(
            (transmittance.width(), transmittance.height()),
            (w, h),
            "transmittance map must match the frame"
        );
        let mut set = match self.strategy {
            MappingStrategy::UnseenOnly => PixelSet::from_pixels(w, h, Vec::new()),
            MappingStrategy::RandomOnly => {
                PixelSet::from_tile_chooser(w, h, self.tile, |tx, ty, x0, y0, tw, th| {
                    let mut rng = tile_rng(seed, tx, ty);
                    Some(PixelCoord::new(
                        (x0 + rng.gen_range(0..tw)) as u16,
                        (y0 + rng.gen_range(0..th)) as u16,
                    ))
                })
            }
            MappingStrategy::WeightedOnly | MappingStrategy::Combined => {
                let lum = reference.luminance();
                let weight = sobel_magnitude(&lum);
                PixelSet::from_tile_chooser(w, h, self.tile, |tx, ty, x0, y0, tw, th| {
                    let mut rng = tile_rng(seed, tx, ty);
                    // P(p) = w_R(p) · r: draw r per pixel, keep the argmax.
                    let mut best = -1.0;
                    let mut pick = (x0, y0);
                    let mut all_flat = true;
                    for dy in 0..th {
                        for dx in 0..tw {
                            let wr = weight[(x0 + dx, y0 + dy)];
                            if wr > 0.0 {
                                all_flat = false;
                            }
                            let p = wr * rng.gen_range(0.0..1.0f64);
                            if p > best {
                                best = p;
                                pick = (x0 + dx, y0 + dy);
                            }
                        }
                    }
                    if all_flat {
                        pick = (x0 + rng.gen_range(0..tw), y0 + rng.gen_range(0..th));
                    }
                    Some(PixelCoord::new(pick.0 as u16, pick.1 as u16))
                })
            }
        };
        if matches!(
            self.strategy,
            MappingStrategy::UnseenOnly | MappingStrategy::Combined
        ) {
            let chosen: std::collections::HashSet<PixelCoord> = set.samples().collect();
            let mut extras = Vec::new();
            for (x, y, &t) in transmittance.iter_pixels() {
                if t > self.unseen_threshold {
                    let p = PixelCoord::new(x as u16, y as u16);
                    if !chosen.contains(&p) {
                        extras.push(p);
                    }
                }
            }
            set.add_extra(extras);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::Vec3;

    fn frame(w: usize, h: usize) -> Frame {
        // Left half flat, right half checkered (texture-rich).
        let color = Image::from_fn(w, h, |x, y| {
            if x < w / 2 {
                Vec3::splat(0.5)
            } else if (x / 2 + y / 2) % 2 == 0 {
                Vec3::splat(0.9)
            } else {
                Vec3::splat(0.1)
            }
        });
        Frame::new(color, Image::filled(w, h, 1.0), 0)
    }

    #[test]
    fn random_per_tile_budget() {
        let f = frame(64, 64);
        let plan = tracking_plan(SamplingStrategy::RandomPerTile { tile: 16 }, &f, 1, None);
        match plan {
            SamplingPlan::Pixels(p) => {
                assert_eq!(p.len(), 16);
                assert!((p.sampling_rate() - 1.0 / 256.0).abs() < 1e-12);
            }
            _ => panic!("expected pixels"),
        }
    }

    #[test]
    fn random_per_tile_is_deterministic_per_seed() {
        let f = frame(64, 64);
        let a = tracking_plan(SamplingStrategy::RandomPerTile { tile: 8 }, &f, 7, None);
        let b = tracking_plan(SamplingStrategy::RandomPerTile { tile: 8 }, &f, 7, None);
        let c = tracking_plan(SamplingStrategy::RandomPerTile { tile: 8 }, &f, 8, None);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn per_tile_picks_are_traversal_order_independent() {
        // A tile's pick depends only on (seed, tx, ty): growing the frame
        // adds tiles without disturbing the picks of tiles that already
        // existed, which a shared sequentially-drawn RNG cannot guarantee.
        let small = frame(64, 64);
        let large = frame(128, 64);
        let strategy = SamplingStrategy::RandomPerTile { tile: 16 };
        let SamplingPlan::Pixels(a) = tracking_plan(strategy, &small, 9, None) else {
            panic!()
        };
        let SamplingPlan::Pixels(b) = tracking_plan(strategy, &large, 9, None) else {
            panic!()
        };
        let a_set: std::collections::HashSet<_> = a.samples().collect();
        for p in b.samples().filter(|p| (p.x as usize) < 64) {
            assert!(a_set.contains(&p), "pick {p:?} changed when the frame grew");
        }
    }

    #[test]
    fn harris_prefers_textured_half() {
        let f = frame(64, 64);
        let plan = tracking_plan(SamplingStrategy::HarrisPerTile { tile: 32 }, &f, 1, None);
        let SamplingPlan::Pixels(p) = plan else {
            panic!()
        };
        // Tiles fully inside the textured right half must pick a corner-ish
        // pixel; in the flat half, the fallback keeps coverage.
        assert_eq!(p.len(), 4);
        for s in p.samples() {
            assert!((s.x as usize) < 64 && (s.y as usize) < 64);
        }
    }

    #[test]
    fn lowres_plan_passes_factor() {
        let f = frame(64, 64);
        match tracking_plan(SamplingStrategy::LowRes { factor: 4 }, &f, 0, None) {
            SamplingPlan::LowRes { factor } => assert_eq!(factor, 4),
            _ => panic!("expected low-res plan"),
        }
    }

    #[test]
    fn loss_guided_selects_top_tiles() {
        let f = frame(64, 64);
        // 4x4 grid of 16px tiles; make tile 5 the lossiest.
        let mut losses = vec![0.0; 16];
        losses[5] = 10.0;
        let plan = tracking_plan(
            SamplingStrategy::LossGuidedTiles { tile: 16 },
            &f,
            1,
            Some(&losses),
        );
        let SamplingPlan::Pixels(p) = plan else {
            panic!()
        };
        // Budget: 4096/256 = 16 pixels → 1 tile of 256 pixels... budget is
        // ceil(16/256)=1 tile → 256 pixels from tile 5.
        assert_eq!(p.len(), 256);
        let tx = 5 % 4;
        let ty = 5 / 4;
        for s in p.samples() {
            assert!((s.x as usize) / 16 == tx && (s.y as usize) / 16 == ty);
        }
    }

    #[test]
    fn loss_guided_ranks_non_finite_losses_by_total_order() {
        // Budget: 4096/4 = 1024 pixels = 4 tiles of the 4x4 grid. Under the
        // total order a NaN ranks above +∞ and a negative NaN below −∞;
        // equal losses keep tile order.
        let f = frame(64, 64);
        let mut losses = vec![1.0; 16];
        losses[0] = -f64::NAN;
        losses[3] = f64::NEG_INFINITY;
        losses[6] = f64::NAN;
        losses[9] = f64::INFINITY;
        losses[12] = 7.0;
        let plan = || {
            let SamplingPlan::Pixels(p) = tracking_plan(
                SamplingStrategy::LossGuidedTiles { tile: 2 },
                &f,
                1,
                Some(&losses),
            ) else {
                panic!("expected pixels")
            };
            p
        };
        let p = plan();
        assert_eq!(p, plan(), "the pick must be deterministic");
        let mut tiles: Vec<usize> = p
            .samples()
            .map(|s| (s.y as usize / 16) * 4 + s.x as usize / 16)
            .collect();
        tiles.dedup();
        assert_eq!(tiles, vec![6, 9, 12, 1]);
        assert_eq!(p.len(), 1024);
    }

    #[test]
    fn loss_guided_without_history_is_random_but_budgeted() {
        let f = frame(64, 64);
        let plan = tracking_plan(SamplingStrategy::LossGuidedTiles { tile: 16 }, &f, 3, None);
        let SamplingPlan::Pixels(p) = plan else {
            panic!()
        };
        assert_eq!(p.len(), 256);
    }

    #[test]
    fn sampling_rates() {
        assert_eq!(SamplingStrategy::Dense.sampling_rate(64, 64), 1.0);
        assert!(
            (SamplingStrategy::RandomPerTile { tile: 16 }.sampling_rate(64, 64) - 1.0 / 256.0)
                .abs()
                < 1e-12
        );
        assert!(
            (SamplingStrategy::LowRes { factor: 16 }.sampling_rate(64, 64) - 1.0 / 256.0).abs()
                < 1e-12
        );
        // Non-divisible frames: one pick per clipped tile, so the rate is
        // tiles/area, not 1/tile².
        let r = SamplingStrategy::RandomPerTile { tile: 16 }.sampling_rate(70, 50);
        assert!((r - (5.0 * 4.0) / 3500.0).abs() < 1e-12);
        assert_eq!(SamplingStrategy::Dense.sampling_rate(0, 0), 0.0);
    }

    #[test]
    fn loss_guided_rate_reflects_whole_tile_rounding() {
        // satellite of PR 5: the realized plan rounds its budget up to whole
        // 16×16 tiles. 64×48 @ tile=16: nominal budget 12 px, realized 256.
        let strategy = SamplingStrategy::LossGuidedTiles { tile: 16 };
        let rate = strategy.sampling_rate(64, 48);
        assert!((rate - 256.0 / 3072.0).abs() < 1e-12, "rate {rate}");
        // And it matches the plan actually built for that frame.
        let f = frame(64, 48);
        let plan = tracking_plan(strategy, &f, 1, None);
        assert_eq!(plan.pixel_count(64, 48), 256);
        assert!((plan.realized_rate(64, 48) - rate).abs() < 1e-12);
    }

    #[test]
    fn plan_pixel_counts_match_realized_sets() {
        let f = frame(64, 48);
        for strategy in [
            SamplingStrategy::Dense,
            SamplingStrategy::RandomPerTile { tile: 16 },
            SamplingStrategy::HarrisPerTile { tile: 16 },
            SamplingStrategy::LossGuidedTiles { tile: 16 },
        ] {
            let plan = tracking_plan(strategy, &f, 3, None);
            let SamplingPlan::Pixels(ref p) = plan else {
                panic!()
            };
            assert_eq!(plan.pixel_count(64, 48), p.len(), "{strategy:?}");
            // The strategy-level rate agrees with the realized plan for
            // frames where clipping cannot bite (all dims divisible).
            assert!(
                (strategy.sampling_rate(64, 48) - plan.realized_rate(64, 48)).abs() < 1e-12,
                "{strategy:?}"
            );
        }
        // Low-res plans report the downscaled render's pixel count.
        let plan = tracking_plan(SamplingStrategy::LowRes { factor: 4 }, &f, 0, None);
        assert_eq!(plan.pixel_count(64, 48), 16 * 12);
    }

    #[test]
    fn mapping_combined_includes_unseen_extras() {
        let f = frame(32, 32);
        // Mark a block as unseen.
        let t = Image::from_fn(32, 32, |x, y| if x < 8 && y < 8 { 0.9 } else { 0.1 });
        let sampler = MappingSampler::new(4, MappingStrategy::Combined);
        let set = sampler.build(&f, &t, 1);
        assert_eq!(set.sample_count(), 64); // 8x8 tiles
        assert!(set.extra_count() > 0);
        for e in set.extra() {
            assert!((e.x as usize) < 8 && (e.y as usize) < 8);
        }
    }

    #[test]
    fn mapping_unseen_only_has_no_samples() {
        let f = frame(32, 32);
        let t = Image::from_fn(32, 32, |x, _| if x == 0 { 0.9 } else { 0.0 });
        let sampler = MappingSampler::new(4, MappingStrategy::UnseenOnly);
        let set = sampler.build(&f, &t, 1);
        assert_eq!(set.sample_count(), 0);
        assert_eq!(set.extra_count(), 32);
    }

    #[test]
    fn mapping_weighted_prefers_texture() {
        let f = frame(64, 64);
        let t = Image::filled(64, 64, 0.0);
        let sampler = MappingSampler::new(8, MappingStrategy::WeightedOnly);
        let set = sampler.build(&f, &t, 5);
        assert_eq!(set.sample_count(), 64);
        assert_eq!(set.extra_count(), 0);
        // In tiles straddling the texture boundary, the picked pixel should
        // lie in the textured part more often than not.
        let boundary_samples: Vec<_> = set
            .samples()
            .filter(|p| (p.x as usize) >= 24 && (p.x as usize) < 40)
            .collect();
        let textured = boundary_samples
            .iter()
            .filter(|p| (p.x as usize) >= 32)
            .count();
        assert!(
            textured * 2 >= boundary_samples.len(),
            "weighted sampling should lean textured: {textured}/{}",
            boundary_samples.len()
        );
    }

    #[test]
    fn mapping_random_only_covers_tiles() {
        let f = frame(16, 16);
        let t = Image::filled(16, 16, 0.0);
        let sampler = MappingSampler::new(4, MappingStrategy::RandomOnly);
        let set = sampler.build(&f, &t, 2);
        assert_eq!(set.sample_count(), 16);
        assert_eq!(set.extra_count(), 0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_transmittance_panics() {
        let f = frame(16, 16);
        let t = Image::filled(8, 8, 0.0);
        MappingSampler::new(4, MappingStrategy::Combined).build(&f, &t, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_panics() {
        let _ = MappingSampler::new(0, MappingStrategy::Combined);
    }
}
