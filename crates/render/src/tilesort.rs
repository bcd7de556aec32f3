//! Depth-sorted tile lists + exact-key sorted-list cache for the tile
//! pipeline.
//!
//! 1. **One build path.** A cold build argsorts the projected set once by
//!    (depth, id) and walks that order, appending each element to every
//!    tile its bbox covers, so every tile list comes out depth-sorted.
//!    The same walk counts GS-TG-style grouped sorting: the 16×16 tiles
//!    are partitioned into [`GROUP_SIZE`]×[`GROUP_SIZE`] groups, one shared
//!    depth sort runs per group over the union candidate list, and each
//!    member tile's list is *masked* from the shared order. Neighbouring
//!    tiles overlap heavily in candidates (a splat's bbox usually spans
//!    several tiles), so the union is much smaller than the sum of
//!    per-tile lists. The per-tile schedule (every tile sorts its own list)
//!    is read from the same counters by
//!    [`crate::trace::ForwardStats::per_tile_sort`]. The host runs neither
//!    schedule; it only counts them.
//! 2. **Exact-key reuse.** Sorted lists are cached behind the same key
//!    discipline as [`crate::projcache`] (scene-revision counter + bitwise
//!    pose/intrinsics, extended with the tile-grid size).
//!    An exact key match — the backward pass at the pose the forward just
//!    used — replays the lists outright. Any other key builds cold; a
//!    *pose-only* delta (the tracking iteration signature) first drops the
//!    entry it supersedes, so there is at most one entry per non-pose
//!    context and the LRU never pins stale tile lists.
//!
//! # Bit-exactness
//!
//! The depth comparator ([`crate::kernel::sort_by_depth`]: depth ascending,
//! Gaussian-id tie-break) is a **total order over unique ids**, so the
//! sorted sequence for any candidate set is *unique* — independent of the
//! algorithm that produced it. The one global sort therefore yields the
//! per-tile lists that grouped-union-sort-then-mask and per-tile sorting
//! would both produce, and the rendered output is bit-identical to the
//! per-tile oracle with the cache warm or cold (enforced by the
//! determinism suite).
//!
//! # Accounting
//!
//! The `sort_lists` / `sort_elems` / `sort_group_reuse` trace counters
//! describe the grouped sorting schedule (per-group union lists). They
//! are fully determined by (scene, camera, grid) and never by cache state:
//! an exact cache hit replays the stored counters, which equal what a cold
//! build would have produced. Realized cache effectiveness (hits / misses / cold
//! element counts) is order-dependent — it depends on which render ran
//! before this one — so it lives in the side-band [`SortStats`]
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
    /// Sorting-schedule counter: non-empty groups, one shared sort each.
    pub(crate) sort_lists: u64,
    /// Sorting-schedule counter: elements through sorting (union lengths).
    pub(crate) sort_elems: u64,
    /// Sorting-schedule counter: per-tile sorts avoided by group masking.
    pub(crate) sort_group_reuse: u64,
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
    /// Renders that built their lists cold (no exact entry).
    pub misses: u64,
    /// Always 0: pose-step re-merging was removed. Kept because
    /// `slam_bench` reads it.
    pub merges: u64,
    /// Elements sorted cold (sum of union-list lengths on misses).
    pub cold_elems: u64,
    /// Always 0, like [`SortStats::merges`].
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
}

/// Everything the sorted lists depend on: the projection key (scene
/// revision, pose bits, intrinsics) extended with the tile-grid size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SortKey {
    proj: crate::projcache::Key,
    grid_w: usize,
    grid_h: usize,
}

impl SortKey {
    fn new(scene: &GaussianScene, camera: &Camera, width: usize, height: usize) -> SortKey {
        SortKey {
            proj: crate::projcache::Key::new(scene, camera),
            grid_w: width,
            grid_h: height,
        }
    }

    /// True when the two keys differ only in the camera pose — the
    /// signature of a tracking iteration, whose new lists supersede the
    /// old entry.
    fn pose_only_delta(&self, other: &SortKey) -> bool {
        self.grid_w == other.grid_w
            && self.grid_h == other.grid_h
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

/// Cold build: one global argsort by (depth, id) over the projected set,
/// then a single walk in that order appends each element to every tile its
/// bbox covers — every tile list comes out depth-sorted with no per-tile
/// sort — and counts each group's union length for the schedule counters.
fn build_cold(
    projected: Rc<Vec<ProjectedGaussian>>,
    culled: u64,
    width: usize,
    height: usize,
) -> PreparedTiles {
    let _p = crate::phase::begin("render/tile_sort");
    let tiles_x = width.div_ceil(TILE);
    let tiles_y = height.div_ceil(TILE);
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
        tiles_x,
        tiles_y,
        tile_lists,
        tile_pairs,
        sort_lists,
        sort_elems: group_lens.iter().sum(),
        sort_group_reuse: nonempty_tiles - sort_lists,
    }
}

/// Projects the scene (through [`crate::projcache`]) and builds the
/// depth-sorted per-tile lists, replaying them from the sorted-list cache on
/// an exact key match. The shared entry point of the tile forward and
/// backward passes.
pub(crate) fn prepare_tiles(
    scene: &GaussianScene,
    camera: &Camera,
    width: usize,
    height: usize,
    config: &RenderConfig,
) -> Rc<PreparedTiles> {
    let key = SortKey::new(scene, camera, width, height);
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
        // A pose-only delta supersedes its entry: one entry per non-pose
        // context, exactly like projcache.
        if let Some(pos) = state
            .entries
            .iter()
            .position(|e| e.key.pose_only_delta(&key))
        {
            state.entries.remove(pos);
        }
        let (projected, culled) = crate::projcache::project_scene_cached(scene, camera, config);
        let prepared = Rc::new(build_cold(projected, culled, width, height));
        state.stats.misses += 1;
        state.stats.cold_elems += prepared.sort_elems;
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

    #[test]
    fn grouped_lists_match_per_tile_oracle() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let prepared = prepare_tiles(&scene, &cam, 64, 48, &RenderConfig::default());
        let oracle = oracle_tile_lists(&prepared.projected, 64, 48);
        assert_eq!(prepared.tile_lists, oracle);
        assert_eq!(
            prepared.tile_pairs,
            oracle.iter().map(|l| l.len() as u64).sum::<u64>()
        );
        // The grouped counters from the oracle's lists: a group's shared
        // sort runs over the union of its member tiles' lists.
        let (tiles_x, tiles_y) = (prepared.tiles_x, prepared.tiles_y);
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
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn grouping_reduces_sort_elems() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let grouped = prepare_tiles(&scene, &cam, 64, 48, &RenderConfig::default());
        assert!(
            grouped.sort_elems < grouped.tile_pairs,
            "union sort ({}) must beat per-tile sort ({})",
            grouped.sort_elems,
            grouped.tile_pairs
        );
        assert!(grouped.sort_group_reuse > 0);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn exact_repeat_hits_and_replays_counters() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let config = RenderConfig::default();
        let a = prepare_tiles(&scene, &cam, 64, 48, &config);
        let b = prepare_tiles(&scene, &cam, 64, 48, &config);
        let s = stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!(Rc::ptr_eq(&a, &b), "hit must replay the shared entry");
        assert_eq!(a.sort_elems, b.sort_elems);
        assert_eq!(s.cold_elems, a.sort_elems);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn pose_step_misses_and_supersedes_its_entry() {
        clear();
        crate::projcache::clear();
        let (scene, cam) = setup();
        let config = RenderConfig::default();
        let first = prepare_tiles(&scene, &cam, 64, 48, &config);
        let moved_cam = Camera::new(
            cam.intrinsics,
            Pose {
                rotation: cam.pose.rotation,
                translation: cam.pose.translation + Vec3::new(0.03, -0.01, 0.02),
            },
        );
        let moved = prepare_tiles(&scene, &moved_cam, 64, 48, &config);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 2), "a pose step is a cold miss");
        assert_eq!(
            moved.tile_lists,
            oracle_tile_lists(&moved.projected, 64, 48)
        );
        // Returning to the first pose misses: the pose step superseded its
        // entry instead of keeping it in the LRU.
        let back = prepare_tiles(&scene, &cam, 64, 48, &config);
        assert_eq!(stats().misses, 3);
        assert!(!Rc::ptr_eq(&first, &back));
        assert_eq!(back.tile_lists, first.tile_lists);
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn scene_mutation_is_a_cold_miss() {
        clear();
        crate::projcache::clear();
        let (mut scene, cam) = setup();
        let config = RenderConfig::default();
        let _ = prepare_tiles(&scene, &cam, 64, 48, &config);
        scene.update(0, |g| g.opacity_logit += 0.25);
        let _ = prepare_tiles(&scene, &cam, 64, 48, &config);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 2), "scene edit is a cold miss");
        clear();
        crate::projcache::clear();
    }

    #[test]
    fn stats_since_subtracts_counterwise() {
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
        assert_eq!(
            late.since(&early),
            SortStats {
                hits: 5,
                misses: 1,
                merges: 2,
                cold_elems: 30,
                merged_elems: 50,
            }
        );
    }
}
