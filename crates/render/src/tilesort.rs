//! Tile grouping + frame-coherent sorted-list cache for the tile pipeline.
//!
//! The tile pipeline used to depth-sort the full projected set from scratch
//! on every pass (forward *and* backward, every Adam iteration). This module
//! replaces that with the two sort-avoidance mechanisms of GS-TG-style
//! hierarchical sorting:
//!
//! 1. **Tile grouping.** The 16×16 tiles are partitioned into
//!    [`GROUP_SIZE`]×[`GROUP_SIZE`] groups ([`RenderConfig::tile_grouping`]).
//!    One shared depth sort runs per group
//!    over the union candidate list; each member tile's list is then derived
//!    by *masking* — walking the shared order and keeping the elements whose
//!    bbox covers the tile. Neighbouring tiles overlap heavily in candidates
//!    (a splat's bbox usually spans several tiles), so the union is much
//!    smaller than the sum of per-tile lists and the redundant per-tile
//!    sorts disappear.
//! 2. **Frame-coherent reuse.** Sorted group lists are cached behind the
//!    same key discipline as [`crate::projcache`] (scene-revision counter +
//!    bitwise pose/intrinsics/knobs, extended with the tile-grid and
//!    grouping context). An exact key match — e.g. the backward pass at the
//!    pose the forward just used — replays the lists outright. A *pose-only*
//!    delta (the tracking iteration signature) re-derives candidates at the
//!    new pose but reorders them by the previous frame's sorted order first,
//!    so the final adaptive sort runs on nearly-sorted input instead of
//!    cold ([`RenderConfig::sort_cache`]).
//!
//! # Bit-exactness
//!
//! The depth comparator ([`crate::kernel::sort_by_depth`]: depth ascending,
//! Gaussian-id tie-break) is a **total order over unique ids**, so the
//! sorted sequence for any candidate set is *unique* — independent of the
//! algorithm that produced it. Grouped-union-sort-then-mask, per-tile
//! sorting, and coherent re-merge therefore all yield byte-identical
//! per-tile lists, and the rendered output is bit-identical across every
//! knob combination (enforced against the per-tile oracle by the
//! determinism suite).
//!
//! # Accounting
//!
//! The `sort_lists` / `sort_elems` / `sort_group_reuse` trace counters
//! describe the sorting schedule that *ran* (per-group union lists when
//! grouping is on, per-tile lists when off). They are fully determined by
//! (scene, camera, grid, grouping knobs) and never by cache state: an exact
//! cache hit replays the stored counters, which equal what a cold build
//! would have produced. Realized cache effectiveness (hits / merges /
//! cold-vs-merged element counts) is order-dependent — it depends on which
//! render ran before this one — so it lives in the side-band [`SortStats`]
//! (exported as `render/sort_*` counters), exactly like
//! [`crate::projcache::CacheStats`].

use crate::kernel::{ProjectedGaussian, RenderConfig};
use crate::tile::TILE;
use splatonic_scene::{Camera, GaussianScene};
use std::cell::RefCell;
use std::rc::Rc;

/// Tile-group edge length in tiles (2×2 tiles = one 32×32-pixel group, the
/// GS-TG sweet spot between union size and mask selectivity).
pub const GROUP_SIZE: usize = 2;

/// Sorted tile lists plus everything the tile passes need alongside them.
///
/// Produced once by [`prepare_tiles`] and shared (via `Rc`) between the
/// forward and backward passes of the same iteration through the cache.
pub(crate) struct PreparedTiles {
    /// Projected Gaussians in **scene-index order** (the projcache list,
    /// shared — never cloned or globally re-sorted). Tile lists below hold
    /// indices into this vector.
    pub(crate) projected: Rc<Vec<ProjectedGaussian>>,
    /// Gaussians culled at projection.
    pub(crate) culled: u64,
    /// Tile-grid width in tiles.
    pub(crate) tiles_x: usize,
    /// Tile-grid height in tiles.
    pub(crate) tiles_y: usize,
    /// Per-tile candidate lists (indices into `projected`), depth-ordered.
    pub(crate) tile_lists: Vec<Vec<u32>>,
    /// Total tile–Gaussian pairs (sum of tile-list lengths).
    pub(crate) tile_pairs: u64,
    /// Sorting-schedule counter: lists sorted (groups or tiles).
    pub(crate) sort_lists: u64,
    /// Sorting-schedule counter: elements through sorting (union lengths).
    pub(crate) sort_elems: u64,
    /// Sorting-schedule counter: per-tile sorts avoided by group masking.
    pub(crate) sort_group_reuse: u64,
    /// Per-unit sorted Gaussian *ids* — the reuse hint a pose-only merge
    /// reorders by. Only populated when the sort cache is enabled.
    unit_orders: Vec<Vec<u32>>,
}

/// Realized sorted-list cache statistics (thread-local, process lifetime).
///
/// Side-band by design — see the module docs: these depend on render
/// *order*, so they are exported as `render/sort_*` telemetry counters and
/// never folded into the [`crate::RenderTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Renders whose sorted lists were replayed from an exact key match.
    pub hits: u64,
    /// Renders that built their lists cold (no reusable entry).
    pub misses: u64,
    /// Renders that re-merged a pose-only-stale entry's nearly-sorted
    /// order instead of sorting cold.
    pub merges: u64,
    /// Elements sorted cold (sum of union-list lengths on misses).
    pub cold_elems: u64,
    /// Elements re-merged from a previous order (sum of union-list lengths
    /// on merges).
    pub merged_elems: u64,
}

impl SortStats {
    /// Counter-wise difference `self − earlier` (for per-frame deltas).
    pub fn since(&self, earlier: &SortStats) -> SortStats {
        SortStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            merges: self.merges - earlier.merges,
            cold_elems: self.cold_elems - earlier.cold_elems,
            merged_elems: self.merged_elems - earlier.merged_elems,
        }
    }

    /// Counter-wise accumulation `self += delta` — the inverse of
    /// [`SortStats::since`], used by per-frame bracket-and-accumulate
    /// session accounting.
    pub fn add(&mut self, delta: &SortStats) {
        self.hits += delta.hits;
        self.misses += delta.misses;
        self.merges += delta.merges;
        self.cold_elems += delta.cold_elems;
        self.merged_elems += delta.merged_elems;
    }
}

/// Everything the sorted lists depend on: the projection key (scene
/// revision, pose bits, intrinsics, projection knobs) extended with the
/// tile-grid and grouping context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SortKey {
    proj: crate::projcache::Key,
    grid_w: usize,
    grid_h: usize,
    tile_grouping: bool,
}

impl SortKey {
    fn new(
        scene: &GaussianScene,
        camera: &Camera,
        width: usize,
        height: usize,
        config: &RenderConfig,
    ) -> SortKey {
        SortKey {
            proj: crate::projcache::Key::new(scene, camera, config),
            grid_w: width,
            grid_h: height,
            tile_grouping: config.tile_grouping,
        }
    }

    /// True when the two keys differ only in the camera pose — the
    /// signature of a tracking iteration, where the previous frame's
    /// sorted order is a near-perfect hint for the new one.
    fn pose_only_delta(&self, other: &SortKey) -> bool {
        self.grid_w == other.grid_w
            && self.grid_h == other.grid_h
            && self.tile_grouping == other.tile_grouping
            && self.proj.pose_only_delta(&other.proj)
    }
}

struct Entry {
    key: SortKey,
    prepared: Rc<PreparedTiles>,
}

#[derive(Default)]
struct CacheState {
    /// Most-recently-used first, at most [`crate::projcache::CACHE_CAPACITY`]
    /// entries (one per interleaved session, same sizing argument).
    entries: Vec<Entry>,
    stats: SortStats,
}

thread_local! {
    static CACHE: RefCell<CacheState> = RefCell::new(CacheState::default());
}

/// The exact bbox→tile-range arithmetic of the original tile binning
/// (truncating `isize` division then clamp — kept verbatim so grouped and
/// ungrouped builds select identical candidate sets).
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

/// Unit grid: groups when grouping is on, individual tiles when off.
struct UnitGrid {
    units_x: usize,
    units_y: usize,
    /// Group edge in tiles (1 when grouping is off).
    gs: usize,
}

impl UnitGrid {
    fn new(tiles_x: usize, tiles_y: usize, config: &RenderConfig) -> UnitGrid {
        let gs = if config.tile_grouping { GROUP_SIZE } else { 1 };
        UnitGrid {
            units_x: tiles_x.div_ceil(gs),
            units_y: tiles_y.div_ceil(gs),
            gs,
        }
    }

    fn len(&self) -> usize {
        self.units_x * self.units_y
    }
}

/// Builds raw (unsorted, scene-index-order) per-unit candidate lists plus
/// the total tile-pair count.
fn build_raw_unit_lists(
    projected: &[ProjectedGaussian],
    tiles_x: usize,
    tiles_y: usize,
    grid: &UnitGrid,
) -> (Vec<Vec<u32>>, u64) {
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
    let mut tile_pairs = 0u64;
    for (pi, pg) in projected.iter().enumerate() {
        let (tx0, ty0, tx1, ty1) = tile_range(pg, tiles_x, tiles_y);
        tile_pairs += ((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as u64;
        for uy in (ty0 / grid.gs)..=(ty1 / grid.gs) {
            for ux in (tx0 / grid.gs)..=(tx1 / grid.gs) {
                lists[uy * grid.units_x + ux].push(pi as u32);
            }
        }
    }
    (lists, tile_pairs)
}

/// Derives the per-tile lists from depth-sorted unit lists, plus the
/// sorting-schedule counters. With grouping this is the masking stage: each
/// group's shared order is walked once and every element is appended to the
/// member tiles its bbox covers (appending in walk order preserves the
/// depth order, so no per-tile sort happens). Without grouping the unit
/// lists *are* the tile lists.
fn finalize(
    projected: &[ProjectedGaussian],
    tiles_x: usize,
    tiles_y: usize,
    grid: &UnitGrid,
    unit_lists: Vec<Vec<u32>>,
    keep_orders: bool,
) -> (Vec<Vec<u32>>, u64, u64, u64, Vec<Vec<u32>>) {
    let mut sort_lists = 0u64;
    let mut sort_elems = 0u64;
    for list in &unit_lists {
        if !list.is_empty() {
            sort_lists += 1;
            sort_elems += list.len() as u64;
        }
    }
    let unit_orders = if keep_orders {
        unit_lists
            .iter()
            .map(|l| l.iter().map(|&pi| projected[pi as usize].id).collect())
            .collect()
    } else {
        Vec::new()
    };
    if grid.gs == 1 {
        return (unit_lists, sort_lists, sort_elems, 0, unit_orders);
    }
    let mut tile_lists: Vec<Vec<u32>> = vec![Vec::new(); tiles_x * tiles_y];
    for (u, list) in unit_lists.iter().enumerate() {
        let ux = u % grid.units_x;
        let uy = u / grid.units_x;
        let span_x0 = ux * grid.gs;
        let span_x1 = ((ux + 1) * grid.gs - 1).min(tiles_x - 1);
        let span_y0 = uy * grid.gs;
        let span_y1 = ((uy + 1) * grid.gs - 1).min(tiles_y - 1);
        for &pi in list {
            let (tx0, ty0, tx1, ty1) = tile_range(&projected[pi as usize], tiles_x, tiles_y);
            for ty in ty0.max(span_y0)..=ty1.min(span_y1) {
                for tx in tx0.max(span_x0)..=tx1.min(span_x1) {
                    tile_lists[ty * tiles_x + tx].push(pi);
                }
            }
        }
    }
    // Per-tile sorts avoided: every non-empty tile was masked, not sorted;
    // the schedule sorted one list per non-empty unit instead.
    let nonempty_tiles = tile_lists.iter().filter(|l| !l.is_empty()).count() as u64;
    let sort_group_reuse = nonempty_tiles - sort_lists;
    (
        tile_lists,
        sort_lists,
        sort_elems,
        sort_group_reuse,
        unit_orders,
    )
}

/// Cold build: one global argsort by (depth, id) over the projected set,
/// then a single walk in that order scatters each element into its covered
/// units — every unit list comes out depth-sorted with no per-unit sort.
fn build_cold(
    projected: Rc<Vec<ProjectedGaussian>>,
    culled: u64,
    width: usize,
    height: usize,
    config: &RenderConfig,
    keep_orders: bool,
) -> (PreparedTiles, u64) {
    let _p = crate::phase::begin("render/tile_sort");
    let tiles_x = width.div_ceil(TILE);
    let tiles_y = height.div_ceil(TILE);
    let grid = UnitGrid::new(tiles_x, tiles_y, config);
    let mut order: Vec<u32> = (0..projected.len() as u32).collect();
    order.sort_by(|&a, &b| depth_cmp(&projected, a, b));
    let mut unit_lists: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
    let mut tile_pairs = 0u64;
    for &pi in &order {
        let (tx0, ty0, tx1, ty1) = tile_range(&projected[pi as usize], tiles_x, tiles_y);
        tile_pairs += ((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as u64;
        for uy in (ty0 / grid.gs)..=(ty1 / grid.gs) {
            for ux in (tx0 / grid.gs)..=(tx1 / grid.gs) {
                unit_lists[uy * grid.units_x + ux].push(pi);
            }
        }
    }
    let (tile_lists, sort_lists, sort_elems, sort_group_reuse, unit_orders) =
        finalize(&projected, tiles_x, tiles_y, &grid, unit_lists, keep_orders);
    (
        PreparedTiles {
            projected,
            culled,
            tiles_x,
            tiles_y,
            tile_lists,
            tile_pairs,
            sort_lists,
            sort_elems,
            sort_group_reuse,
            unit_orders,
        },
        sort_elems,
    )
}

/// Coherent rebuild after a pose-only delta: re-derive candidates at the
/// new pose, reorder each unit by the previous frame's sorted id order, and
/// finish with the adaptive stable sort — nearly-sorted input makes that
/// close to a linear merge, and the total order guarantees the result is
/// identical to a cold sort.
fn build_merged(
    projected: Rc<Vec<ProjectedGaussian>>,
    culled: u64,
    width: usize,
    height: usize,
    config: &RenderConfig,
    prev: &PreparedTiles,
    scene_len: usize,
) -> (PreparedTiles, u64) {
    let _p = crate::phase::begin("render/tilesort_merge");
    let tiles_x = width.div_ceil(TILE);
    let tiles_y = height.div_ceil(TILE);
    let grid = UnitGrid::new(tiles_x, tiles_y, config);
    let (mut unit_lists, tile_pairs) = build_raw_unit_lists(&projected, tiles_x, tiles_y, &grid);
    // Scratch id→(index+1) map, zeroed between units by consuming marks.
    let mut mark: Vec<u32> = vec![0; scene_len];
    for (u, list) in unit_lists.iter_mut().enumerate() {
        if list.is_empty() {
            continue;
        }
        if let Some(prev_order) = prev.unit_orders.get(u) {
            let mut reordered: Vec<u32> = Vec::with_capacity(list.len());
            for &pi in list.iter() {
                mark[projected[pi as usize].id as usize] = pi + 1;
            }
            for &id in prev_order {
                let slot = &mut mark[id as usize];
                if *slot != 0 {
                    reordered.push(*slot - 1);
                    *slot = 0;
                }
            }
            for &pi in list.iter() {
                let slot = &mut mark[projected[pi as usize].id as usize];
                if *slot != 0 {
                    reordered.push(*slot - 1);
                    *slot = 0;
                }
            }
            *list = reordered;
        }
        list.sort_by(|&a, &b| depth_cmp(&projected, a, b));
    }
    let (tile_lists, sort_lists, sort_elems, sort_group_reuse, unit_orders) =
        finalize(&projected, tiles_x, tiles_y, &grid, unit_lists, true);
    (
        PreparedTiles {
            projected,
            culled,
            tiles_x,
            tiles_y,
            tile_lists,
            tile_pairs,
            sort_lists,
            sort_elems,
            sort_group_reuse,
            unit_orders,
        },
        sort_elems,
    )
}

/// Projects the scene (through [`crate::projcache`]) and builds the
/// depth-sorted per-tile lists, serving both from the sorted-list cache
/// when the key allows it. The shared entry point of the tile forward and
/// backward passes.
///
/// With `config.sort_cache == false` every call builds cold — no lookup,
/// no store, no statistics (the grouping knob still applies).
pub(crate) fn prepare_tiles(
    scene: &GaussianScene,
    camera: &Camera,
    width: usize,
    height: usize,
    config: &RenderConfig,
) -> Rc<PreparedTiles> {
    if !config.sort_cache {
        let (projected, culled) = crate::projcache::project_scene_cached(scene, camera, config);
        let (prepared, _) = build_cold(projected, culled, width, height, config, false);
        return Rc::new(prepared);
    }
    let key = SortKey::new(scene, camera, width, height, config);
    CACHE.with(|cell| {
        let mut state = cell.borrow_mut();
        if let Some(pos) = state.entries.iter().position(|e| e.key == key) {
            let _p = crate::phase::begin("render/tilesort_hit");
            state.stats.hits += 1;
            let entry = state.entries.remove(pos);
            let prepared = Rc::clone(&entry.prepared);
            state.entries.insert(0, entry);
            return prepared;
        }
        let (projected, culled) = crate::projcache::project_scene_cached(scene, camera, config);
        // A pose-only delta supersedes its entry in place (one entry per
        // non-pose context, exactly like projcache) and seeds the merge.
        let pose_slot = state
            .entries
            .iter()
            .position(|e| e.key.pose_only_delta(&key));
        let prepared = match pose_slot {
            Some(pos) => {
                let prev = Rc::clone(&state.entries[pos].prepared);
                let (prepared, elems) =
                    build_merged(projected, culled, width, height, config, &prev, scene.len());
                state.stats.merges += 1;
                state.stats.merged_elems += elems;
                state.entries.remove(pos);
                prepared
            }
            None => {
                let (prepared, elems) = build_cold(projected, culled, width, height, config, true);
                state.stats.misses += 1;
                state.stats.cold_elems += elems;
                prepared
            }
        };
        let prepared = Rc::new(prepared);
        state.entries.insert(
            0,
            Entry {
                key,
                prepared: Rc::clone(&prepared),
            },
        );
        state.entries.truncate(crate::projcache::CACHE_CAPACITY);
        prepared
    })
}

/// Snapshot of this thread's sorted-list cache statistics.
pub fn stats() -> SortStats {
    CACHE.with(|cell| cell.borrow().stats)
}

/// Drops all cached entries and zeroes the statistics (tests and
/// benchmarks).
pub fn clear() {
    CACHE.with(|cell| {
        let mut state = cell.borrow_mut();
        state.entries.clear();
        state.stats = SortStats::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::{Pose, Vec3};
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

    fn cfg(grouping: bool, cache: bool) -> RenderConfig {
        RenderConfig {
            tile_grouping: grouping,
            sort_cache: cache,
            ..RenderConfig::default()
        }
    }

    #[test]
    fn grouped_lists_match_per_tile_oracle() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        for grouping in [false, true] {
            let config = cfg(grouping, false);
            let prepared = prepare_tiles(&scene, &cam, 64, 48, &config);
            let oracle = oracle_tile_lists(&prepared.projected, 64, 48);
            assert_eq!(prepared.tile_lists, oracle, "grouping={grouping}");
            assert_eq!(
                prepared.tile_pairs,
                oracle.iter().map(|l| l.len() as u64).sum::<u64>()
            );
        }
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn grouping_reduces_sort_elems() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let ungrouped = prepare_tiles(&scene, &cam, 64, 48, &cfg(false, false));
        let grouped = prepare_tiles(&scene, &cam, 64, 48, &cfg(true, false));
        assert_eq!(ungrouped.sort_elems, ungrouped.tile_pairs);
        assert!(
            grouped.sort_elems < ungrouped.sort_elems,
            "union sort ({}) must beat per-tile sort ({})",
            grouped.sort_elems,
            ungrouped.sort_elems
        );
        assert!(grouped.sort_lists < ungrouped.sort_lists);
        assert!(grouped.sort_group_reuse > 0);
        assert_eq!(ungrouped.sort_group_reuse, 0);
        // Masking reconstructs every pair: tile_pairs is grouping-invariant.
        assert_eq!(grouped.tile_pairs, ungrouped.tile_pairs);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn exact_repeat_hits_and_replays_counters() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let config = cfg(true, true);
        let a = prepare_tiles(&scene, &cam, 64, 48, &config);
        let b = prepare_tiles(&scene, &cam, 64, 48, &config);
        let s = stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.merges, 0);
        assert!(Rc::ptr_eq(&a, &b), "hit must replay the shared entry");
        assert_eq!(a.sort_elems, b.sort_elems);
        assert_eq!(s.cold_elems, a.sort_elems);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn pose_delta_merges_and_matches_cold() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let config = cfg(true, true);
        let _ = prepare_tiles(&scene, &cam, 64, 48, &config);
        let moved = Camera::new(
            cam.intrinsics,
            Pose {
                rotation: cam.pose.rotation,
                translation: cam.pose.translation + Vec3::new(0.03, -0.01, 0.02),
            },
        );
        let merged = prepare_tiles(&scene, &moved, 64, 48, &config);
        let s = stats();
        assert_eq!(s.merges, 1, "pose-only delta must take the merge path");
        assert_eq!(s.misses, 1);
        // The merged result must equal a cold (uncached) build bitwise.
        let cold = prepare_tiles(&scene, &moved, 64, 48, &cfg(true, false));
        assert_eq!(merged.tile_lists, cold.tile_lists);
        assert_eq!(merged.tile_pairs, cold.tile_pairs);
        assert_eq!(merged.sort_lists, cold.sort_lists);
        assert_eq!(merged.sort_elems, cold.sort_elems);
        assert_eq!(merged.sort_group_reuse, cold.sort_group_reuse);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn scene_mutation_misses_not_merges() {
        clear();
        crate::projcache::clear();
        let (mut scene, cam) = setup();
        let config = cfg(true, true);
        let _ = prepare_tiles(&scene, &cam, 64, 48, &config);
        scene.update(0, |g| g.opacity_logit += 0.25);
        let _ = prepare_tiles(&scene, &cam, 64, 48, &config);
        let s = stats();
        assert_eq!(s.misses, 2, "scene edit is a cold miss");
        assert_eq!(s.merges, 0);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn disabled_cache_bypasses_lookup_and_stats() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let config = cfg(true, false);
        let a = prepare_tiles(&scene, &cam, 64, 48, &config);
        let b = prepare_tiles(&scene, &cam, 64, 48, &config);
        assert_eq!(stats(), SortStats::default());
        assert_eq!(a.tile_lists, b.tile_lists);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn grouping_knobs_key_separate_entries() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let _ = prepare_tiles(&scene, &cam, 64, 48, &cfg(true, true));
        let _ = prepare_tiles(&scene, &cam, 64, 48, &cfg(false, true));
        let s = stats();
        assert_eq!(s.misses, 2, "grouping flag is part of the key");
        assert_eq!(s.merges, 0, "a knob change is not a pose step");
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn stats_since_add_roundtrip() {
        let early = SortStats {
            hits: 2,
            misses: 3,
            merges: 1,
            cold_elems: 100,
            merged_elems: 40,
        };
        let late = SortStats {
            hits: 7,
            misses: 4,
            merges: 3,
            cold_elems: 130,
            merged_elems: 90,
        };
        let d = late.since(&early);
        let mut roundtrip = early;
        roundtrip.add(&d);
        assert_eq!(roundtrip, late);
    }
}
