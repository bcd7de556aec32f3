//! Forward→backward projection cache of the tile pipeline (thread-local,
//! small keyed LRU).
//!
//! Only the tile pipeline ([`crate::tile`], through [`crate::tilesort`])
//! projects through this cache. The pixel pipeline projects and α-checks
//! in one pass and hands the Gaussians that kept a pair to its backward
//! pass in [`crate::ForwardResult::projected`], so it makes no lookup here.
//! Before that hand-over, a probe of a `replica-splatonic` run counted 666
//! hits in 666 pixel backward passes and 8 in 715 forward passes: the hits
//! are backward passes replaying the projection their forward pass just
//! made at the same pose, and adjacent iterations move the pose, so a
//! forward pass almost never hits.
//!
//! Tracking and mapping call the renderer many times per frame — one
//! forward and one backward pass per Adam iteration — and every tile render
//! starts by projecting the whole scene ([`crate::kernel::project_scene`]).
//! Within one iteration the backward pass projects at *exactly* the pose
//! the forward pass just used, so half of all projection work is verbatim
//! recomputation. This module caches recent projection results (projected
//! means, conics, depths, and the α-filter cull verdicts — culled Gaussians
//! are simply absent from the list) and replays one when the next render is
//! provably identical.
//!
//! # Why more than one entry
//!
//! The cache held a single entry through PR 7, which is exactly right for
//! one SLAM session: renders alternate forward/backward at one pose. But a
//! multi-session manager interleaves K sessions on the *same* thread, and
//! with one slot every session switch evicted the previous session's entry
//! — K interleaved sessions drove the hit rate to zero while K sequential
//! runs enjoyed ~50%. The cache is therefore a small LRU
//! ([`CACHE_CAPACITY`] entries, most-recent-first) keyed by scene revision
//! plus pose bits: each session's scene has a distinct revision, so K ≤
//! [`CACHE_CAPACITY`] interleaved sessions each keep their own entry and
//! the per-session hit pattern matches the sequential run exactly (the
//! cross-session thrash regression test below pins this down).
//!
//! # Invalidation bound
//!
//! Reuse must keep the output **bit-identical** to the uncached path, so
//! the pose-delta bound under which a cached projection may be reused is
//! the only conservative choice that needs no error analysis:
//! [`POSE_REUSE_BOUND`]` = 0.0` — the pose (all nine rotation entries and
//! all three translation entries) must match *bitwise*. Any nonzero pose
//! delta invalidates the entry; that event is what the
//! `cache_invalidations` statistic counts. The remaining key fields guard
//! everything else projection reads: the scene contents (via
//! [`GaussianScene::revision`], which changes on every mutation) and the
//! intrinsics. The projection's numbers (near plane, blur, bbox extent)
//! are crate constants, so they need no key field.
//!
//! # Determinism
//!
//! A hit returns the identical `Vec<ProjectedGaussian>` (shared via `Rc`)
//! that a fresh projection would produce, so downstream work — and
//! therefore the [`crate::RenderTrace`] — is unchanged. Hit/miss
//! *statistics* are intentionally kept out of the trace: whether a render
//! hits depends on which render ran before it on this thread (telemetry's
//! extra PSNR renders, for example, change the sequence without changing
//! any output), so the statistics live here and are exported to telemetry
//! as side-band counters instead.
//!
//! The cache is thread-local and entries are keyed on process-unique
//! revisions, so worker threads never observe each other's entries and
//! results stay bit-identical at every `SPLATONIC_THREADS` width (renders
//! are issued from the caller's thread; the pool only fans out *inside*
//! one projection).

use crate::kernel::{project_scene, ProjectedGaussian, RenderConfig};
use splatonic_scene::{Camera, GaussianScene};
use std::cell::RefCell;
use std::rc::Rc;

/// Maximum pose delta (any rotation or translation component, bitwise)
/// under which a cached projection may be reused. Zero: reuse requires
/// bitwise pose equality, which is what keeps the cached path bit-identical
/// to the uncached one with no approximation-error analysis.
pub const POSE_REUSE_BOUND: f64 = 0.0;

/// Everything [`crate::kernel::project_gaussian`] reads besides the
/// Gaussian itself, as bit patterns (f64 compared by `to_bits` so that the
/// key is `Eq` and NaN-safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    scene_revision: u64,
    scene_len: usize,
    rotation: [u64; 9],
    translation: [u64; 3],
    fx: u64,
    fy: u64,
    cx: u64,
    cy: u64,
    width: usize,
    height: usize,
}

impl Key {
    pub(crate) fn new(scene: &GaussianScene, camera: &Camera) -> Key {
        let mut rotation = [0u64; 9];
        for (i, slot) in rotation.iter_mut().enumerate() {
            *slot = camera.pose.rotation.m[i].to_bits();
        }
        let t = camera.pose.translation;
        let intr = &camera.intrinsics;
        Key {
            scene_revision: scene.revision(),
            scene_len: scene.len(),
            rotation,
            translation: [t.x.to_bits(), t.y.to_bits(), t.z.to_bits()],
            fx: intr.fx.to_bits(),
            fy: intr.fy.to_bits(),
            cx: intr.cx.to_bits(),
            cy: intr.cy.to_bits(),
            width: intr.width,
            height: intr.height,
        }
    }

    /// True when the two keys differ *only* in the pose — the signature of
    /// an iteration-to-iteration pose step (tracking) as opposed to a scene
    /// edit or a camera swap.
    pub(crate) fn pose_only_delta(&self, other: &Key) -> bool {
        self.scene_revision == other.scene_revision
            && self.scene_len == other.scene_len
            && self.fx == other.fx
            && self.fy == other.fy
            && self.cx == other.cx
            && self.cy == other.cy
            && self.width == other.width
            && self.height == other.height
            && (self.rotation != other.rotation || self.translation != other.translation)
    }
}

/// Cache effectiveness counters (thread-local, process lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Renders served from the cached projection.
    pub hits: u64,
    /// Renders that had to project from scratch (includes invalidations).
    pub misses: u64,
    /// Misses caused by a pose delta alone — the entry was discarded
    /// because the camera moved past [`POSE_REUSE_BOUND`] while everything
    /// else still matched.
    pub invalidations: u64,
}

impl CacheStats {
    /// Counter-wise difference `self − earlier` (for per-frame deltas).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            invalidations: self.invalidations - earlier.invalidations,
        }
    }
}

/// Entries retained per thread. Sized for a small fleet of interleaved
/// sessions (each live session occupies one slot via its unique scene
/// revision); deliberately tiny because each entry pins a full projection
/// list (`Rc<Vec<ProjectedGaussian>>`).
pub const CACHE_CAPACITY: usize = 8;

struct Entry {
    key: Key,
    projected: Rc<Vec<ProjectedGaussian>>,
    culled: u64,
}

#[derive(Default)]
struct CacheState {
    /// Most-recently-used first, at most [`CACHE_CAPACITY`] entries.
    entries: Vec<Entry>,
    stats: CacheStats,
}

thread_local! {
    static CACHE: RefCell<CacheState> = RefCell::new(CacheState::default());
}

/// Projects the scene through the cache: returns the shared projection
/// list (ordered by scene index, culled Gaussians absent) and the culled
/// count, replaying the previous result when the key matches bitwise.
pub fn project_scene_cached(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
) -> (Rc<Vec<ProjectedGaussian>>, u64) {
    let key = Key::new(scene, camera);
    CACHE.with(|cell| {
        let mut state = cell.borrow_mut();
        if let Some(pos) = state.entries.iter().position(|e| e.key == key) {
            let _p = crate::phase::begin("render/projcache_hit");
            state.stats.hits += 1;
            let entry = state.entries.remove(pos);
            let projected = Rc::clone(&entry.projected);
            let culled = entry.culled;
            state.entries.insert(0, entry);
            return (projected, culled);
        }
        // A pose-only delta supersedes its entry in place: at most one
        // entry per non-pose context ever exists, so single-session stats
        // are identical to the old single-slot cache (one invalidation per
        // pose step) and a stale pose can never pad the LRU.
        let pose_slot = state
            .entries
            .iter()
            .position(|e| e.key.pose_only_delta(&key));
        if pose_slot.is_some() {
            state.stats.invalidations += 1;
        }
        state.stats.misses += 1;
        let _p = crate::phase::begin("render/project");
        let (projected, culled) = project_scene(scene, camera, config);
        let projected = Rc::new(projected);
        if let Some(pos) = pose_slot {
            state.entries.remove(pos);
        }
        state.entries.insert(
            0,
            Entry {
                key,
                projected: Rc::clone(&projected),
                culled,
            },
        );
        state.entries.truncate(CACHE_CAPACITY);
        (projected, culled)
    })
}

/// Snapshot of this thread's cache statistics.
pub fn stats() -> CacheStats {
    CACHE.with(|cell| cell.borrow().stats)
}

/// Drops all cached entries and zeroes the statistics (tests and
/// benchmarks).
pub fn clear() {
    CACHE.with(|cell| {
        let mut state = cell.borrow_mut();
        state.entries.clear();
        state.stats = CacheStats::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::{Pose, Vec3};
    use splatonic_scene::{Intrinsics, WorldBuilder};

    fn setup() -> (GaussianScene, Camera) {
        let world = WorldBuilder::new(7)
            .gaussian_spacing(0.4)
            .furniture(2)
            .build();
        let cam = Camera::new(Intrinsics::with_fov(64, 48, 1.2), Pose::identity());
        (world.scene, cam)
    }

    #[test]
    fn repeat_projection_hits_and_matches_uncached() {
        clear();
        let (scene, cam) = setup();
        let cfg = RenderConfig::default();
        let (a, culled_a) = project_scene_cached(&scene, &cam, &cfg);
        let (b, culled_b) = project_scene_cached(&scene, &cam, &cfg);
        let s = stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.invalidations, 0);
        let (fresh, culled_fresh) = project_scene(&scene, &cam, &cfg);
        assert_eq!(*a, fresh);
        assert_eq!(*b, fresh);
        assert_eq!(culled_a, culled_fresh);
        assert_eq!(culled_b, culled_fresh);
        clear();
    }

    #[test]
    fn pose_delta_invalidates_and_reprojects() {
        clear();
        let (scene, cam) = setup();
        let cfg = RenderConfig::default();
        let _ = project_scene_cached(&scene, &cam, &cfg);
        // A large pose delta: translate the camera a full unit sideways.
        let moved = Camera::new(
            cam.intrinsics,
            Pose {
                rotation: cam.pose.rotation,
                translation: cam.pose.translation + Vec3::new(1.0, 0.0, 0.0),
            },
        );
        let (cached, culled) = project_scene_cached(&scene, &moved, &cfg);
        let s = stats();
        assert_eq!(s.misses, 2, "pose delta must force a reprojection");
        assert_eq!(s.invalidations, 1, "pose-only delta counts as invalidation");
        assert_eq!(s.hits, 0);
        let (fresh, culled_fresh) = project_scene(&scene, &moved, &cfg);
        assert_eq!(*cached, fresh, "reprojection matches the uncached path");
        assert_eq!(culled, culled_fresh);
        clear();
    }

    #[test]
    fn scene_mutation_misses_without_counting_invalidation() {
        clear();
        let (mut scene, cam) = setup();
        let cfg = RenderConfig::default();
        let _ = project_scene_cached(&scene, &cam, &cfg);
        scene.update(0, |g| g.opacity_logit += 0.25);
        let (cached, _) = project_scene_cached(&scene, &cam, &cfg);
        let s = stats();
        assert_eq!(s.misses, 2);
        assert_eq!(
            s.invalidations, 0,
            "scene edit is a miss, not a pose invalidation"
        );
        let (fresh, _) = project_scene(&scene, &cam, &cfg);
        assert_eq!(*cached, fresh);
        clear();
    }

    #[test]
    fn interleaved_sessions_do_not_thrash() {
        // Regression for the single-slot cache: two "sessions" (distinct
        // scenes, so distinct revisions) alternating on one thread used to
        // evict each other on every switch, driving hits to zero. The LRU
        // must serve both: after each session's first projection, every
        // repeat is a hit — 2N renders → 2N − 2 hits, and crucially zero
        // invalidations (a session switch is not a pose step).
        clear();
        let (scene_a, cam_a) = setup();
        let world_b = WorldBuilder::new(21)
            .gaussian_spacing(0.4)
            .furniture(2)
            .build();
        let scene_b = world_b.scene;
        let cam_b = Camera::new(Intrinsics::with_fov(64, 48, 1.2), Pose::identity());
        let cfg = RenderConfig::default();

        let n = 5u64;
        for _ in 0..n {
            let (got_a, _) = project_scene_cached(&scene_a, &cam_a, &cfg);
            let (got_b, _) = project_scene_cached(&scene_b, &cam_b, &cfg);
            let (fresh_a, _) = project_scene(&scene_a, &cam_a, &cfg);
            let (fresh_b, _) = project_scene(&scene_b, &cam_b, &cfg);
            assert_eq!(*got_a, fresh_a);
            assert_eq!(*got_b, fresh_b);
        }
        let s = stats();
        assert_eq!(s.misses, 2, "one cold miss per session");
        assert_eq!(s.hits, 2 * n - 2, "every later render is a hit");
        assert_eq!(s.invalidations, 0, "session switches are not pose steps");
        clear();
    }

    #[test]
    fn lru_evicts_the_oldest_entry_past_capacity() {
        clear();
        let (mut scene, cam) = setup();
        let cfg = RenderConfig::default();
        // Fill past capacity with distinct scene revisions.
        for _ in 0..=CACHE_CAPACITY {
            scene.update(0, |g| g.opacity_logit += 0.01);
            let _ = project_scene_cached(&scene, &cam, &cfg);
        }
        let full = stats();
        assert_eq!(full.misses as usize, CACHE_CAPACITY + 1);
        // The newest revision is still cached ...
        let _ = project_scene_cached(&scene, &cam, &cfg);
        assert_eq!(stats().hits, full.hits + 1);
        clear();
    }

    #[test]
    fn stats_since_subtracts() {
        let early = CacheStats {
            hits: 2,
            misses: 3,
            invalidations: 1,
        };
        let late = CacheStats {
            hits: 10,
            misses: 7,
            invalidations: 2,
        };
        let d = late.since(&early);
        assert_eq!(d.hits, 8);
        assert_eq!(d.misses, 4);
        assert_eq!(d.invalidations, 1);
    }
}
