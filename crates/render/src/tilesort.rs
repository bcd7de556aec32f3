//! Depth-sorted tile lists for the tile pipeline, and the counted GS-TG
//! grouped sorting schedule.
//!
//! The tile forward pass (`prepare_tiles`) projects the scene and builds
//! the lists in one cold pass. It argsorts the projected set once by
//! (depth, id) and walks that order, appending each element to every tile
//! its bbox covers, so every tile list comes out depth-sorted. The same walk counts GS-TG-style
//! grouped sorting: the 16×16 tiles are partitioned into
//! [`GROUP_SIZE`]×[`GROUP_SIZE`] groups, one shared depth sort runs per
//! group over the union candidate list, and each member tile's list is
//! *masked* from the shared order. Neighbouring tiles overlap heavily in
//! candidates (a splat's bbox usually spans several tiles), so the union is
//! much smaller than the sum of per-tile lists. The per-tile schedule
//! (every tile sorts its own list) is read from the same counters by
//! [`crate::trace::ForwardStats::per_tile_sort`]. The host runs neither
//! schedule; it only counts them.
//!
//! The tile forward pass builds the lists once and hands them, with its
//! projection, to its backward pass in [`crate::Handoff::Tile`], the way
//! the pixel pipeline hands over its compact projection. Nothing is kept
//! between renders.
//!
//! # Bit-exactness
//!
//! The depth comparator ([`crate::kernel::sort_by_depth`]: depth ascending,
//! Gaussian-id tie-break) is a **total order over unique ids**, so the
//! sorted sequence for any candidate set is *unique* — independent of the
//! algorithm that produced it. The one global sort therefore yields the
//! per-tile lists that grouped-union-sort-then-mask and per-tile sorting
//! would both produce, and the rendered output is bit-identical to the
//! per-tile oracle (enforced by the determinism suite).
//!
//! # Accounting
//!
//! The `sort_lists` / `sort_elems` / `sort_group_reuse` trace counters
//! describe the grouped sorting schedule (per-group union lists). They are
//! fully determined by (scene, camera, grid).

use crate::kernel::{project_scene, ProjectedGaussian, RenderConfig};
use crate::pixelset::{PixelCoord, PixelSet};
use crate::tile::{group_pixels_by_tile, tile_grid, TILE};
use splatonic_scene::{Camera, GaussianScene};

/// Tile-group edge length in tiles (2×2 tiles = one 32×32-pixel group, the
/// GS-TG sweet spot between union size and mask selectivity).
pub const GROUP_SIZE: usize = 2;

/// The tile forward pass's projection, depth-sorted tile lists and per-tile
/// pixel groups, which its backward pass reads ([`crate::Handoff::Tile`]).
///
/// The tile grid is the pixel set's ([`PixelSet::width`] and
/// [`PixelSet::height`] in 16×16 tiles), so the lists are read back with
/// the pixel set they were built for.
#[derive(Debug, Clone)]
pub struct PreparedTiles {
    /// Projected Gaussians in **scene-index order**. Tile lists below hold
    /// indices into this vector.
    pub(crate) projected: Vec<ProjectedGaussian>,
    /// Gaussians culled at projection.
    pub(crate) culled: u64,
    /// Per-tile candidate lists (indices into `projected`), depth-ordered,
    /// row-major over the tile grid.
    pub(crate) tile_lists: Vec<Vec<u32>>,
    /// The requested pixels of each tile with their output indices,
    /// row-major over the tile grid.
    pub(crate) pixel_groups: Vec<Vec<(PixelCoord, usize)>>,
    /// Total tile–Gaussian pairs (sum of tile-list lengths).
    pub(crate) tile_pairs: u64,
    /// Sorting-schedule counter: non-empty groups, one shared sort each.
    pub(crate) sort_lists: u64,
    /// Sorting-schedule counter: elements through sorting (union lengths).
    pub(crate) sort_elems: u64,
    /// Sorting-schedule counter: per-tile sorts avoided by group masking.
    pub(crate) sort_group_reuse: u64,
}

/// Sorted-list cache statistics, all zero: the renderer keeps no
/// sorted-list cache. This type, [`stats`] and [`clear`] exist only until
/// the benchmark driver stops reading them (ROADMAP item 7(b)), which
/// deletes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub merges: u64,
    /// Always 0.
    pub cold_elems: u64,
    /// Always 0.
    pub merged_elems: u64,
}

/// Returns zeros (see [`SortStats`]).
pub fn stats() -> SortStats {
    SortStats::default()
}

/// Does nothing (see [`SortStats`]).
pub fn clear() {}

/// The inclusive tile range `(tx0, ty0, tx1, ty1)` a projected Gaussian's
/// bbox covers (truncating `isize` division, then clamp to the grid).
#[inline]
fn tile_range(
    pg: &ProjectedGaussian,
    tiles_x: usize,
    tiles_y: usize,
) -> (usize, usize, usize, usize) {
    let (lo, hi) = pg.bbox();
    let tx0 = ((lo.x.floor() as isize) / TILE as isize).clamp(0, tiles_x as isize - 1) as usize;
    let ty0 = ((lo.y.floor() as isize) / TILE as isize).clamp(0, tiles_y as isize - 1) as usize;
    let tx1 = ((hi.x.ceil() as isize) / TILE as isize).clamp(0, tiles_x as isize - 1) as usize;
    let ty1 = ((hi.y.ceil() as isize) / TILE as isize).clamp(0, tiles_y as isize - 1) as usize;
    (tx0, ty0, tx1, ty1)
}

/// Depth comparator over indices into `projected` — the same total order as
/// [`crate::kernel::sort_by_depth`] (depth ascending, id tie-break), which
/// is what makes every sorted list unique and every build path bit-equal.
#[inline]
fn depth_cmp(projected: &[ProjectedGaussian], a: u32, b: u32) -> std::cmp::Ordering {
    let (pa, pb) = (&projected[a as usize], &projected[b as usize]);
    pa.depth.total_cmp(&pb.depth).then(pa.id.cmp(&pb.id))
}

/// Groups `pixels` by tile, projects the scene (`render/project`), then
/// builds the depth-sorted tile lists over `pixels`' tile grid
/// (`render/tile_sort`): one global argsort by (depth, id) over the
/// projected set, then a single walk in that order appends each element to
/// every tile its bbox covers — every tile list comes out depth-sorted with
/// no per-tile sort — and counts each group's union length for the
/// schedule counters.
pub(crate) fn prepare_tiles(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    config: &RenderConfig,
) -> PreparedTiles {
    let (tiles_x, tiles_y) = tile_grid(pixels);
    let pixel_groups = group_pixels_by_tile(pixels, tiles_x, tiles_y);
    let (projected, culled) = {
        let _p = crate::phase::begin("render/project");
        project_scene(scene, camera, config)
    };
    let _p = crate::phase::begin("render/tile_sort");
    let groups_x = tiles_x.div_ceil(GROUP_SIZE);
    let mut group_lens = vec![0u64; groups_x * tiles_y.div_ceil(GROUP_SIZE)];
    let mut order: Vec<u32> = (0..projected.len() as u32).collect();
    order.sort_by(|&a, &b| depth_cmp(&projected, a, b));
    let mut tile_lists: Vec<Vec<u32>> = vec![Vec::new(); tiles_x * tiles_y];
    let mut tile_pairs = 0u64;
    for &pi in &order {
        let (tx0, ty0, tx1, ty1) = tile_range(&projected[pi as usize], tiles_x, tiles_y);
        tile_pairs += ((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as u64;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                tile_lists[ty * tiles_x + tx].push(pi);
            }
        }
        for gy in (ty0 / GROUP_SIZE)..=(ty1 / GROUP_SIZE) {
            for gx in (tx0 / GROUP_SIZE)..=(tx1 / GROUP_SIZE) {
                group_lens[gy * groups_x + gx] += 1;
            }
        }
    }
    let sort_lists = group_lens.iter().filter(|&&n| n > 0).count() as u64;
    // Per-tile sorts avoided: every non-empty tile is masked from its
    // group's shared order instead of sorted.
    let nonempty_tiles = tile_lists.iter().filter(|l| !l.is_empty()).count() as u64;
    PreparedTiles {
        projected,
        culled,
        tile_lists,
        pixel_groups,
        tile_pairs,
        sort_lists,
        sort_elems: group_lens.iter().sum(),
        sort_group_reuse: nonempty_tiles - sort_lists,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::Pose;
    use splatonic_scene::{Intrinsics, WorldBuilder};

    fn setup() -> (GaussianScene, Camera) {
        let world = WorldBuilder::new(11)
            .gaussian_spacing(0.4)
            .furniture(2)
            .build();
        let cam = Camera::new(Intrinsics::with_fov(64, 48, 1.2), Pose::identity());
        (world.scene, cam)
    }

    /// Reference build: independent per-tile sorts (the oracle).
    fn oracle_tile_lists(
        projected: &[ProjectedGaussian],
        width: usize,
        height: usize,
    ) -> Vec<Vec<u32>> {
        let tiles_x = width.div_ceil(TILE);
        let tiles_y = height.div_ceil(TILE);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); tiles_x * tiles_y];
        for (pi, pg) in projected.iter().enumerate() {
            let (tx0, ty0, tx1, ty1) = tile_range(pg, tiles_x, tiles_y);
            for ty in ty0..=ty1 {
                for tx in tx0..=tx1 {
                    lists[ty * tiles_x + tx].push(pi as u32);
                }
            }
        }
        for list in &mut lists {
            list.sort_by(|&a, &b| depth_cmp(projected, a, b));
        }
        lists
    }

    #[test]
    fn grouped_lists_match_per_tile_oracle() {
        let (scene, cam) = setup();
        let pixels = PixelSet::dense(64, 48);
        let prepared = prepare_tiles(&scene, &cam, &pixels, &RenderConfig::default());
        let oracle = oracle_tile_lists(&prepared.projected, 64, 48);
        assert_eq!(prepared.tile_lists, oracle);
        assert_eq!(
            prepared.tile_pairs,
            oracle.iter().map(|l| l.len() as u64).sum::<u64>()
        );
        // The grouped counters from the oracle's lists: a group's shared
        // sort runs over the union of its member tiles' lists.
        let (tiles_x, tiles_y) = tile_grid(&pixels);
        let (mut groups, mut union_elems) = (0u64, 0u64);
        for gy in (0..tiles_y).step_by(GROUP_SIZE) {
            for gx in (0..tiles_x).step_by(GROUP_SIZE) {
                let mut union: Vec<u32> = (gy..(gy + GROUP_SIZE).min(tiles_y))
                    .flat_map(|ty| (gx..(gx + GROUP_SIZE).min(tiles_x)).map(move |tx| (tx, ty)))
                    .flat_map(|(tx, ty)| oracle[ty * tiles_x + tx].iter().copied())
                    .collect();
                union.sort_unstable();
                union.dedup();
                groups += u64::from(!union.is_empty());
                union_elems += union.len() as u64;
            }
        }
        let nonempty_tiles = oracle.iter().filter(|l| !l.is_empty()).count() as u64;
        assert_eq!(prepared.sort_lists, groups);
        assert_eq!(prepared.sort_elems, union_elems);
        assert_eq!(prepared.sort_group_reuse, nonempty_tiles - groups);
    }

    #[test]
    fn grouping_reduces_sort_elems() {
        let (scene, cam) = setup();
        let pixels = PixelSet::dense(64, 48);
        let grouped = prepare_tiles(&scene, &cam, &pixels, &RenderConfig::default());
        assert!(
            grouped.sort_elems < grouped.tile_pairs,
            "union sort ({}) must beat per-tile sort ({})",
            grouped.sort_elems,
            grouped.tile_pairs
        );
        assert!(grouped.sort_group_reuse > 0);
    }
}
