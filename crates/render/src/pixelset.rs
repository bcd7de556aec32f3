//! The set of pixels selected for a render.
//!
//! A [`PixelSet`] holds the sparse samples (at most one per tile, supporting
//! the projection unit's *direct indexing*, paper Sec. V-C) plus the
//! separately-stored *unseen* pixels of the mapping sampler ("the unseen
//! pixel indices are stored separately, so that \[they] do not interrupt our
//! indexing strategy"). Pixels without a tile slot — the extras, and every
//! pixel of a tile-less set ([`PixelSet::from_pixels`]) — are bucketed into
//! a coarse cell index when the set is built, so a projected Gaussian finds
//! them by the same bounding-box indexing instead of a scan.

use splatonic_math::Vec2;

/// Sentinel marking a tile without a sample.
const NO_SAMPLE: u32 = u32::MAX;

/// Cell edge (pixels) of the index over the pixels without a tile slot.
const CELL: usize = 8;

/// The inclusive range of `edge`-pixel grid cells, clamped to `[0, count)`,
/// that the bounding-box span `[lo, hi]` touches. Truncating division, then
/// clamp: conservative for every pixel whose center lies in the span.
///
/// `count` must be positive.
#[inline]
fn cell_span(lo: f64, hi: f64, edge: usize, count: usize) -> (usize, usize) {
    let last = count as isize - 1;
    let first = ((lo.floor() as isize) / edge as isize).clamp(0, last) as usize;
    let end = ((hi.ceil() as isize) / edge as isize).clamp(0, last) as usize;
    (first, end)
}

/// Index over the pixels without a tile slot, built with the set.
///
/// Pixels are bucketed into `CELL × CELL` cells stored as compressed rows:
/// cell `c` holds `members[start[c]..start[c + 1]]`, each an
/// `(output index, coordinate)` pair in ascending output-index order. Cells
/// are row-major, so the cells of one grid row inside a bounding box form
/// one contiguous slice. Coordinates past the image edge land in the edge
/// cells, so no pixel is ever lost.
#[derive(Debug, Clone, PartialEq, Default)]
struct CellIndex {
    cells_x: usize,
    cells_y: usize,
    start: Vec<u32>,
    members: Vec<(u32, PixelCoord)>,
}

impl CellIndex {
    /// Buckets `pixels` (`(output index, coordinate)`, ascending index).
    fn build(width: usize, height: usize, pixels: &[(u32, PixelCoord)]) -> CellIndex {
        if pixels.is_empty() {
            return CellIndex::default();
        }
        let cells_x = width.div_ceil(CELL).max(1);
        let cells_y = height.div_ceil(CELL).max(1);
        let cell_of = |p: PixelCoord| {
            (p.y as usize / CELL).min(cells_y - 1) * cells_x
                + (p.x as usize / CELL).min(cells_x - 1)
        };
        let mut start = vec![0u32; cells_x * cells_y + 1];
        for &(_, p) in pixels {
            start[cell_of(p) + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut fill = start.clone();
        let mut members = vec![(0u32, PixelCoord::new(0, 0)); pixels.len()];
        for &(i, p) in pixels {
            let slot = &mut fill[cell_of(p)];
            members[*slot as usize] = (i, p);
            *slot += 1;
        }
        CellIndex {
            cells_x,
            cells_y,
            start,
            members,
        }
    }

    /// Visits every indexed pixel whose center lies in `[lo, hi]` — the
    /// exact center-containment test, so only true candidates are visited.
    #[inline]
    fn visit(&self, lo: Vec2, hi: Vec2, visit: &mut impl FnMut(usize, PixelCoord)) {
        if self.members.is_empty() {
            return;
        }
        let (cx0, cx1) = cell_span(lo.x, hi.x, CELL, self.cells_x);
        let (cy0, cy1) = cell_span(lo.y, hi.y, CELL, self.cells_y);
        for cy in cy0..=cy1 {
            let row = cy * self.cells_x;
            let run = self.start[row + cx0] as usize..self.start[row + cx1 + 1] as usize;
            for &(i, p) in &self.members[run] {
                let c = p.center();
                if c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y {
                    visit(i as usize, p);
                }
            }
        }
    }
}

/// A selected pixel (integer coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PixelCoord {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl PixelCoord {
    /// Creates a coordinate.
    #[inline]
    pub fn new(x: u16, y: u16) -> Self {
        PixelCoord { x, y }
    }

    /// Pixel-center position in continuous image coordinates.
    #[inline]
    pub fn center(self) -> Vec2 {
        Vec2::new(self.x as f64 + 0.5, self.y as f64 + 0.5)
    }
}

/// The pixels a render pass processes.
///
/// # Examples
///
/// ```
/// use splatonic_render::PixelSet;
/// let dense = PixelSet::dense(8, 4);
/// assert_eq!(dense.len(), 32);
/// assert_eq!(dense.tile_size(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PixelSet {
    width: usize,
    height: usize,
    tile: usize,
    /// The tile-structured samples.
    samples: Vec<PixelCoord>,
    /// tile index → index into `samples`, or `NO_SAMPLE`.
    tile_grid: Vec<u32>,
    /// Extra pixels (mapping's unseen set), outside the per-tile structure.
    extras: Vec<PixelCoord>,
    /// The pixels without a tile slot (a tile-less set's samples, then the
    /// extras), rebuilt whenever they change.
    untiled: CellIndex,
}

impl PixelSet {
    /// Builds a dense set covering every pixel (tile size 1).
    pub fn dense(width: usize, height: usize) -> Self {
        let samples: Vec<PixelCoord> = (0..height)
            .flat_map(|y| (0..width).map(move |x| PixelCoord::new(x as u16, y as u16)))
            .collect();
        let tile_grid = (0..samples.len() as u32).collect();
        PixelSet {
            width,
            height,
            tile: 1,
            samples,
            tile_grid,
            extras: Vec::new(),
            untiled: CellIndex::default(),
        }
    }

    /// Builds a sparse set from one chosen pixel per `tile × tile` tile.
    ///
    /// `chooser(tx, ty, x0, y0, w, h)` returns the chosen pixel within the
    /// tile spanning `[x0, x0+w) × [y0, y0+h)`, or `None` to leave the tile
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0`.
    pub fn from_tile_chooser(
        width: usize,
        height: usize,
        tile: usize,
        mut chooser: impl FnMut(usize, usize, usize, usize, usize, usize) -> Option<PixelCoord>,
    ) -> Self {
        assert!(tile > 0, "tile size must be positive");
        let tiles_x = width.div_ceil(tile);
        let tiles_y = height.div_ceil(tile);
        let mut samples = Vec::with_capacity(tiles_x * tiles_y);
        let mut tile_grid = vec![NO_SAMPLE; tiles_x * tiles_y];
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let x0 = tx * tile;
                let y0 = ty * tile;
                let w = tile.min(width - x0);
                let h = tile.min(height - y0);
                if let Some(p) = chooser(tx, ty, x0, y0, w, h) {
                    debug_assert!(
                        (p.x as usize) >= x0
                            && (p.x as usize) < x0 + w
                            && (p.y as usize) >= y0
                            && (p.y as usize) < y0 + h,
                        "chooser returned a pixel outside its tile"
                    );
                    tile_grid[ty * tiles_x + tx] = samples.len() as u32;
                    samples.push(p);
                }
            }
        }
        PixelSet {
            width,
            height,
            tile,
            samples,
            tile_grid,
            extras: Vec::new(),
            untiled: CellIndex::default(),
        }
    }

    /// Builds a set from an explicit pixel list (tile structure degenerate:
    /// every pixel goes into the cell index).
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<PixelCoord>) -> Self {
        let mut set = PixelSet {
            width,
            height,
            tile: 1,
            tile_grid: Vec::new(),
            samples: pixels,
            extras: Vec::new(),
            untiled: CellIndex::default(),
        };
        set.index_untiled();
        set
    }

    /// Appends extra (unseen) pixels stored outside the tile structure.
    pub fn add_extra(&mut self, pixels: impl IntoIterator<Item = PixelCoord>) {
        self.extras.extend(pixels);
        self.index_untiled();
    }

    /// Rebuilds the cell index over the pixels without a tile slot: the
    /// samples too when the set has no tile grid, and always the extras.
    fn index_untiled(&mut self) {
        let first = if self.tile_grid.is_empty() {
            0
        } else {
            self.sample_count()
        };
        let untiled: Vec<(u32, PixelCoord)> =
            (first as u32..).zip(self.iter_all().skip(first)).collect();
        self.untiled = CellIndex::build(self.width, self.height, &untiled);
    }

    /// Image width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sampling tile size (1 for dense sets).
    #[inline]
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Total number of selected pixels (samples + extras).
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len() + self.extras.len()
    }

    /// Returns `true` when no pixels are selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.extras.is_empty()
    }

    /// Number of tile-structured samples (excluding extras).
    #[inline]
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Number of extra (unseen) pixels.
    #[inline]
    pub fn extra_count(&self) -> usize {
        self.extras.len()
    }

    /// The tile-structured sample at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.sample_count()`.
    #[inline]
    pub fn sample(&self, i: usize) -> PixelCoord {
        self.samples[i]
    }

    /// The tile-structured samples, by value.
    #[inline]
    pub fn samples(&self) -> impl ExactSizeIterator<Item = PixelCoord> + '_ {
        self.samples.iter().copied()
    }

    /// The extra (unseen) pixels, by value.
    #[inline]
    pub fn extra(&self) -> impl ExactSizeIterator<Item = PixelCoord> + '_ {
        self.extras.iter().copied()
    }

    /// Iterates over all selected pixels: samples first, then extras.
    ///
    /// Per-pixel vectors in `ForwardResult` follow this order.
    pub fn iter_all(&self) -> impl Iterator<Item = PixelCoord> + '_ {
        self.samples().chain(self.extra())
    }

    /// Effective sampling rate: selected pixels / total pixels.
    pub fn sampling_rate(&self) -> f64 {
        if self.width * self.height == 0 {
            return 0.0;
        }
        self.len() as f64 / (self.width * self.height) as f64
    }

    /// Direct indexing (paper Sec. V-C): the candidate pixels of the
    /// pixel-space bounding box `[min, max]`, as `(index, coord)` pairs with
    /// `index` in [`PixelSet::iter_all`] order.
    ///
    /// Visits every tile-structured sample whose tile overlaps the box
    /// (the sample itself may lie outside it), then every pixel without a
    /// tile slot whose center lies inside the box.
    pub fn samples_in_bbox(&self, min: Vec2, max: Vec2, mut visit: impl FnMut(usize, PixelCoord)) {
        if !self.tile_grid.is_empty() {
            let (tiles_x, tiles_y) = self.tile_dims();
            let (tx0, tx1) = cell_span(min.x, max.x, self.tile, tiles_x);
            let (ty0, ty1) = cell_span(min.y, max.y, self.tile, tiles_y);
            for ty in ty0..=ty1 {
                for tx in tx0..=tx1 {
                    let slot = self.tile_grid[ty * tiles_x + tx];
                    if slot != NO_SAMPLE {
                        visit(slot as usize, self.sample(slot as usize));
                    }
                }
            }
        }
        self.untiled.visit(min, max, &mut visit);
    }

    /// Tile-space dimensions `(tiles_x, tiles_y)`.
    pub fn tile_dims(&self) -> (usize, usize) {
        (
            self.width.div_ceil(self.tile),
            self.height.div_ceil(self.tile),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_covers_everything() {
        let s = PixelSet::dense(4, 3);
        assert_eq!(s.len(), 12);
        assert_eq!(s.sampling_rate(), 1.0);
        assert_eq!(s.iter_all().count(), 12);
    }

    #[test]
    fn tile_chooser_one_per_tile() {
        let s = PixelSet::from_tile_chooser(32, 32, 16, |_, _, x0, y0, _, _| {
            Some(PixelCoord::new(x0 as u16, y0 as u16))
        });
        assert_eq!(s.len(), 4);
        assert!((s.sampling_rate() - 4.0 / 1024.0).abs() < 1e-12);
        assert_eq!(s.tile_size(), 16);
    }

    #[test]
    fn tile_chooser_handles_partial_tiles() {
        // 20x20 with 16-tiles → 2x2 tile grid with ragged edges.
        let s = PixelSet::from_tile_chooser(20, 20, 16, |_, _, x0, y0, w, h| {
            Some(PixelCoord::new((x0 + w - 1) as u16, (y0 + h - 1) as u16))
        });
        assert_eq!(s.len(), 4);
        for p in s.samples() {
            assert!((p.x as usize) < 20 && (p.y as usize) < 20);
        }
    }

    #[test]
    fn chooser_may_skip_tiles() {
        let s = PixelSet::from_tile_chooser(32, 32, 16, |tx, ty, x0, y0, _, _| {
            if tx == 0 && ty == 0 {
                None
            } else {
                Some(PixelCoord::new(x0 as u16, y0 as u16))
            }
        });
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn extras_are_appended_after_samples() {
        let mut s = PixelSet::from_tile_chooser(16, 16, 16, |_, _, x0, y0, _, _| {
            Some(PixelCoord::new(x0 as u16, y0 as u16))
        });
        s.add_extra([PixelCoord::new(5, 5), PixelCoord::new(6, 6)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.sample_count(), 1);
        assert_eq!(s.extra_count(), 2);
        let all: Vec<_> = s.iter_all().collect();
        assert_eq!(all[0], PixelCoord::new(0, 0));
        assert_eq!(all[2], PixelCoord::new(6, 6));
    }

    #[test]
    fn bbox_direct_indexing_finds_only_overlapping_tiles() {
        let s = PixelSet::from_tile_chooser(64, 64, 16, |_, _, x0, y0, _, _| {
            Some(PixelCoord::new((x0 + 8) as u16, (y0 + 8) as u16))
        });
        let mut hits = Vec::new();
        // Bbox covering only the top-left tile.
        s.samples_in_bbox(Vec2::new(0.0, 0.0), Vec2::new(10.0, 10.0), |i, p| {
            hits.push((i, p))
        });
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, PixelCoord::new(8, 8));
        // Bbox spanning all tiles.
        let mut all = 0;
        s.samples_in_bbox(Vec2::new(0.0, 0.0), Vec2::new(63.0, 63.0), |_, _| all += 1);
        assert_eq!(all, 16);
    }

    #[test]
    fn bbox_clamps_out_of_range() {
        let s = PixelSet::from_tile_chooser(32, 32, 16, |_, _, x0, y0, _, _| {
            Some(PixelCoord::new(x0 as u16, y0 as u16))
        });
        let mut n = 0;
        s.samples_in_bbox(
            Vec2::new(-100.0, -100.0),
            Vec2::new(-50.0, -50.0),
            |_, _| n += 1,
        );
        // Clamped to the nearest tile; the candidate is then α-checked by
        // the caller, so over-approximation is safe.
        assert!(n <= 1);
    }

    #[test]
    fn from_pixels_is_cell_indexed() {
        let mut s =
            PixelSet::from_pixels(16, 16, vec![PixelCoord::new(1, 1), PixelCoord::new(10, 10)]);
        s.add_extra([PixelCoord::new(2, 3)]);
        let mut hits = Vec::new();
        s.samples_in_bbox(Vec2::new(0.0, 0.0), Vec2::new(4.0, 4.0), |i, p| {
            hits.push((i, p))
        });
        hits.sort_by_key(|&(i, _)| i);
        assert_eq!(
            hits,
            vec![(0, PixelCoord::new(1, 1)), (2, PixelCoord::new(2, 3))]
        );
    }

    #[test]
    fn bbox_visits_match_a_brute_force_scan() {
        use splatonic_math::Rng64;
        let mut rng = Rng64::seed_from_u64(17);
        for case in 0..64 {
            let (w, h) = (rng.gen_range(1usize..60), rng.gen_range(1usize..60));
            // Coordinates up to 4 px past the edge stay indexable.
            let mut coord = || {
                PixelCoord::new(
                    rng.gen_range(0usize..w + 4) as u16,
                    rng.gen_range(0usize..h + 4) as u16,
                )
            };
            let tiled = case % 2 == 0;
            let mut s = if tiled {
                PixelSet::from_tile_chooser(w, h, 5, |_, _, x0, y0, _, _| {
                    Some(PixelCoord::new(x0 as u16, y0 as u16))
                })
            } else {
                PixelSet::from_pixels(w, h, (0..case).map(|_| coord()).collect())
            };
            s.add_extra((0..case % 7 * 9).map(|_| coord()).collect::<Vec<_>>());
            for _ in 0..32 {
                let lo = Vec2::new(rng.gen_range(-20.0..70.0), rng.gen_range(-20.0..70.0));
                let hi = lo + Vec2::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0));
                let mut got = Vec::new();
                s.samples_in_bbox(lo, hi, |i, p| got.push((i, p)));
                got.sort_by_key(|&(i, _)| i);
                let inside = |p: PixelCoord| {
                    let c = p.center();
                    c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y
                };
                // Tile slots are visited by tile overlap; check them against
                // the tile walk alone and the rest against the scan.
                let first_untiled = if tiled { s.sample_count() } else { 0 };
                let want: Vec<_> = s
                    .iter_all()
                    .enumerate()
                    .skip(first_untiled)
                    .filter(|&(_, p)| inside(p))
                    .collect();
                let untiled: Vec<_> = got
                    .iter()
                    .copied()
                    .filter(|&(i, _)| i >= first_untiled)
                    .collect();
                assert_eq!(untiled, want, "case {case}: bbox {lo:?}..{hi:?}");
                for &(i, p) in &got[..got.len() - untiled.len()] {
                    assert_eq!(s.sample(i), p);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_panics() {
        let _ = PixelSet::from_tile_chooser(8, 8, 0, |_, _, _, _, _, _| None);
    }

    #[test]
    fn pixel_center() {
        assert_eq!(PixelCoord::new(3, 4).center(), Vec2::new(3.5, 4.5));
    }
}
