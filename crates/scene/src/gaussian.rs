//! 3D Gaussian primitives and the scene container.
//!
//! Each [`Gaussian`] carries the trainable attributes of paper Sec. II-B:
//! mean position, anisotropic scale, orientation, opacity, and color. Scale
//! and opacity are stored in unconstrained form (log-scale, logit-opacity) so
//! the mapping optimizer can take raw gradient steps, matching the reference
//! 3DGS implementation.
//!
//! # Memory layout
//!
//! [`GaussianScene`] stores the attributes **structure-of-arrays** (one
//! parallel `Vec` per attribute, see DESIGN.md §13): the render hot loops
//! (projection, α-checking) stream exactly the fields they touch, and the
//! SIMD kernels in `splatonic-render` load contiguous lanes without
//! gather steps. [`Gaussian`] remains the by-value exchange type — every
//! accessor assembles or scatters one on the fly, which costs the same
//! copies the old array-of-structs layout paid per element.

use splatonic_math::{pool, Mat3, Quat, Vec3};
use std::sync::OnceLock;

/// Numerically safe sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse sigmoid; input is clamped away from {0, 1}.
#[inline]
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    (p / (1.0 - p)).ln()
}

/// A single trainable 3D Gaussian primitive.
///
/// This is the *by-value exchange type* for one scene element; the scene
/// itself stores the fields structure-of-arrays (see [`GaussianScene`]).
///
/// # Examples
///
/// ```
/// use splatonic_scene::Gaussian;
/// use splatonic_math::{Vec3, Quat};
///
/// let g = Gaussian::new(
///     Vec3::new(0.0, 0.0, 2.0),
///     Vec3::splat(0.1),
///     Quat::IDENTITY,
///     0.9,
///     Vec3::new(1.0, 0.5, 0.2),
/// );
/// assert!((g.opacity() - 0.9).abs() < 1e-9);
/// assert!((g.scale().x - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean position in world coordinates.
    pub mean: Vec3,
    /// Per-axis log-scale (standard deviation is `exp(log_scale)`).
    pub log_scale: Vec3,
    /// Orientation quaternion (may be unnormalized; normalized on use).
    pub rotation: Quat,
    /// Opacity in logit space (opacity is `sigmoid(opacity_logit)`).
    pub opacity_logit: f64,
    /// RGB color in `[0, 1]` per channel (clamped at render time).
    pub color: Vec3,
}

impl Gaussian {
    /// Creates a Gaussian from *natural* parameters.
    ///
    /// `scale` components are clamped to a small positive floor; `opacity`
    /// is clamped into `(0, 1)`.
    pub fn new(mean: Vec3, scale: Vec3, rotation: Quat, opacity: f64, color: Vec3) -> Self {
        let s = scale.max(Vec3::splat(1e-6));
        Gaussian {
            mean,
            log_scale: Vec3::new(s.x.ln(), s.y.ln(), s.z.ln()),
            rotation,
            opacity_logit: logit(opacity),
            color,
        }
    }

    /// Natural per-axis scale (standard deviations).
    #[inline]
    pub fn scale(&self) -> Vec3 {
        Vec3::new(
            self.log_scale.x.exp(),
            self.log_scale.y.exp(),
            self.log_scale.z.exp(),
        )
    }

    /// Natural opacity in `(0, 1)`.
    #[inline]
    pub fn opacity(&self) -> f64 {
        sigmoid(self.opacity_logit)
    }

    /// World-space 3D covariance `Σ = R S Sᵀ Rᵀ`.
    pub fn covariance(&self) -> Mat3 {
        let r = self.rotation.to_rotation_matrix();
        let s = self.scale();
        let d = Mat3::diag(s.x * s.x, s.y * s.y, s.z * s.z);
        r * d * r.transpose()
    }

    /// Radius of the bounding sphere at 3σ of the largest axis.
    pub fn bounding_radius(&self) -> f64 {
        3.0 * self.scale().max_component()
    }

    /// Returns `true` when every parameter is finite.
    pub fn is_finite(&self) -> bool {
        self.mean.is_finite()
            && self.log_scale.is_finite()
            && self.opacity_logit.is_finite()
            && self.color.is_finite()
            && self.rotation.norm_sq().is_finite()
    }
}

/// The pose-independent inputs of projection for one Gaussian: exactly
/// [`Gaussian::covariance`] and [`Gaussian::opacity`], bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionTerms {
    /// World-space 3D covariance `Σ = R S Sᵀ Rᵀ`.
    pub covariance: Mat3,
    /// Natural opacity `sigmoid(opacity_logit)`.
    pub opacity: f64,
}

impl ProjectionTerms {
    /// Computes the terms of `g`.
    #[inline]
    pub fn of(g: &Gaussian) -> Self {
        ProjectionTerms {
            covariance: g.covariance(),
            opacity: g.opacity(),
        }
    }
}

/// Fixed fan-out granularity for building the terms column.
const TERMS_CHUNK: usize = 512;

/// Lazily built [`ProjectionTerms`] column. It is derived from the scene's
/// contents, so it is never part of the scene's value: clones start empty,
/// equality and snapshots ignore it, and every mutation drops it.
#[derive(Default)]
struct TermsColumn(OnceLock<Vec<ProjectionTerms>>);

impl Clone for TermsColumn {
    fn clone(&self) -> Self {
        TermsColumn::default()
    }
}

impl std::fmt::Debug for TermsColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(terms) => write!(f, "TermsColumn({} built)", terms.len()),
            None => f.write_str("TermsColumn(unbuilt)"),
        }
    }
}

/// Structure-of-arrays view handed out by [`GaussianScene::fields_mut`]:
/// one mutable slice per attribute, all of equal length.
///
/// Borrowing this view conservatively drops the scene's derived
/// [`ProjectionTerms`] column (the caller may write through any slice).
/// The mapping optimizer uses it to apply per-parameter Adam deltas
/// without reassembling whole Gaussians.
#[derive(Debug)]
pub struct SceneFieldsMut<'a> {
    /// Mean positions in world coordinates.
    pub means: &'a mut [Vec3],
    /// Per-axis log-scales.
    pub log_scales: &'a mut [Vec3],
    /// Orientation quaternions.
    pub rotations: &'a mut [Quat],
    /// Logit-space opacities.
    pub opacity_logits: &'a mut [f64],
    /// RGB colors.
    pub colors: &'a mut [Vec3],
}

/// The scene representation `{G_i}`: a growable set of Gaussians, stored
/// structure-of-arrays.
///
/// Each attribute lives in its own parallel `Vec` ([`GaussianScene::means`],
/// [`GaussianScene::rotations`], …); [`GaussianScene::get`] and
/// [`GaussianScene::iter`] assemble [`Gaussian`] values on the fly. The
/// array-of-structs boundary round-trips losslessly:
/// [`GaussianScene::from_vec`] ∘ [`GaussianScene::to_vec`] is a bitwise
/// identity (property-tested in this crate's test suite).
///
/// # Examples
///
/// ```
/// use splatonic_scene::{Gaussian, GaussianScene};
/// use splatonic_math::{Vec3, Quat};
///
/// let mut scene = GaussianScene::new();
/// scene.push(Gaussian::new(Vec3::ZERO, Vec3::splat(0.1), Quat::IDENTITY, 0.8, Vec3::splat(0.5)));
/// assert_eq!(scene.len(), 1);
/// assert_eq!(scene.means()[0], Vec3::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianScene {
    means: Vec<Vec3>,
    log_scales: Vec<Vec3>,
    rotations: Vec<Quat>,
    opacity_logits: Vec<f64>,
    colors: Vec<Vec3>,
    /// Derived [`ProjectionTerms`] column for the current contents; see
    /// [`GaussianScene::projection_terms`].
    terms: TermsColumn,
}

/// Scene equality is content equality; the derived terms column is not
/// part of the value.
impl PartialEq for GaussianScene {
    fn eq(&self, other: &Self) -> bool {
        self.means == other.means
            && self.log_scales == other.log_scales
            && self.rotations == other.rotations
            && self.opacity_logits == other.opacity_logits
            && self.colors == other.colors
    }
}

impl Default for GaussianScene {
    fn default() -> Self {
        GaussianScene::new()
    }
}

impl GaussianScene {
    /// Creates an empty scene.
    pub fn new() -> Self {
        GaussianScene {
            means: Vec::new(),
            log_scales: Vec::new(),
            rotations: Vec::new(),
            opacity_logits: Vec::new(),
            colors: Vec::new(),
            terms: TermsColumn::default(),
        }
    }

    /// Creates a scene with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        GaussianScene {
            means: Vec::with_capacity(n),
            log_scales: Vec::with_capacity(n),
            rotations: Vec::with_capacity(n),
            opacity_logits: Vec::with_capacity(n),
            colors: Vec::with_capacity(n),
            terms: TermsColumn::default(),
        }
    }

    /// Builds a scene from a vector of Gaussians (array-of-structs input;
    /// scattered into the structure-of-arrays storage).
    ///
    /// Used by snapshot restore.
    pub fn from_vec(gaussians: Vec<Gaussian>) -> Self {
        let mut scene = GaussianScene::with_capacity(gaussians.len());
        for g in gaussians {
            scene.push_fields(g);
        }
        scene
    }

    /// Gathers the scene back into an array-of-structs vector (snapshot
    /// serialization). Bitwise inverse of [`GaussianScene::from_vec`].
    pub fn to_vec(&self) -> Vec<Gaussian> {
        (0..self.len()).map(|i| self.gaussian(i)).collect()
    }

    /// Drops the derived [`GaussianScene::projection_terms`] column. Every
    /// mutating accessor (`push`, `fields_mut`, `set`, `update`,
    /// `update_each`, `retain`, `extend`) calls this before it writes.
    #[inline]
    fn invalidate_terms(&mut self) {
        self.terms = TermsColumn::default();
    }

    /// The [`ProjectionTerms`] of every Gaussian, indexed by Gaussian id.
    ///
    /// Built on first use after each mutation, fanned out over
    /// `threads` pool workers (the result does not depend on `threads`),
    /// then shared by every render until the next mutation. Projecting at
    /// many poses of one scene state — the tracking loop — thus computes each
    /// covariance once instead of once per render.
    pub fn projection_terms(&self, threads: usize) -> &[ProjectionTerms] {
        self.terms.0.get_or_init(|| {
            let chunks =
                pool::par_chunks_indexed(threads, &self.means, TERMS_CHUNK, |_, offset, chunk| {
                    (offset..offset + chunk.len())
                        .map(|i| ProjectionTerms::of(&self.gaussian(i)))
                        .collect::<Vec<_>>()
                });
            chunks.concat()
        })
    }

    /// Number of Gaussians.
    #[inline]
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// Returns `true` when the scene holds no Gaussians.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// Scatters one Gaussian's fields without dropping the terms column.
    #[inline]
    fn push_fields(&mut self, g: Gaussian) {
        self.means.push(g.mean);
        self.log_scales.push(g.log_scale);
        self.rotations.push(g.rotation);
        self.opacity_logits.push(g.opacity_logit);
        self.colors.push(g.color);
    }

    /// Appends a Gaussian, returning its index.
    pub fn push(&mut self, g: Gaussian) -> usize {
        self.invalidate_terms();
        self.push_fields(g);
        self.means.len() - 1
    }

    /// Mean positions, indexed by Gaussian id.
    #[inline]
    pub fn means(&self) -> &[Vec3] {
        &self.means
    }

    /// Per-axis log-scales, indexed by Gaussian id.
    #[inline]
    pub fn log_scales(&self) -> &[Vec3] {
        &self.log_scales
    }

    /// Orientation quaternions, indexed by Gaussian id.
    #[inline]
    pub fn rotations(&self) -> &[Quat] {
        &self.rotations
    }

    /// Logit-space opacities, indexed by Gaussian id.
    #[inline]
    pub fn opacity_logits(&self) -> &[f64] {
        &self.opacity_logits
    }

    /// RGB colors, indexed by Gaussian id.
    #[inline]
    pub fn colors(&self) -> &[Vec3] {
        &self.colors
    }

    /// Mutable structure-of-arrays view (used by the mapping optimizer).
    ///
    /// Conservatively drops the derived terms column: handing out mutable
    /// access *may* change contents.
    pub fn fields_mut(&mut self) -> SceneFieldsMut<'_> {
        self.invalidate_terms();
        SceneFieldsMut {
            means: &mut self.means,
            log_scales: &mut self.log_scales,
            rotations: &mut self.rotations,
            opacity_logits: &mut self.opacity_logits,
            colors: &mut self.colors,
        }
    }

    /// Assembles the Gaussian at index `i` by value.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds; use [`GaussianScene::get`] for the
    /// fallible variant.
    #[inline]
    pub fn gaussian(&self, i: usize) -> Gaussian {
        Gaussian {
            mean: self.means[i],
            log_scale: self.log_scales[i],
            rotation: self.rotations[i],
            opacity_logit: self.opacity_logits[i],
            color: self.colors[i],
        }
    }

    /// Assembles the Gaussian at index `i` by value, or `None` when out of
    /// bounds.
    pub fn get(&self, i: usize) -> Option<Gaussian> {
        if i < self.len() {
            Some(self.gaussian(i))
        } else {
            None
        }
    }

    /// Overwrites the Gaussian at index `i` (scattering its fields).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn set(&mut self, i: usize, g: Gaussian) {
        self.invalidate_terms();
        self.means[i] = g.mean;
        self.log_scales[i] = g.log_scale;
        self.rotations[i] = g.rotation;
        self.opacity_logits[i] = g.opacity_logit;
        self.colors[i] = g.color;
    }

    /// Applies `f` to the Gaussian at index `i` (gather → mutate →
    /// scatter). Convenience for tests and perturbation-style callers.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn update(&mut self, i: usize, f: impl FnOnce(&mut Gaussian)) {
        let mut g = self.gaussian(i);
        f(&mut g);
        self.set(i, g);
    }

    /// Applies `f` to every Gaussian in index order.
    pub fn update_each(&mut self, mut f: impl FnMut(usize, &mut Gaussian)) {
        self.invalidate_terms();
        for i in 0..self.len() {
            let mut g = self.gaussian(i);
            f(i, &mut g);
            self.means[i] = g.mean;
            self.log_scales[i] = g.log_scale;
            self.rotations[i] = g.rotation;
            self.opacity_logits[i] = g.opacity_logit;
            self.colors[i] = g.color;
        }
    }

    /// Retains only Gaussians satisfying the predicate (pruning).
    ///
    /// All attribute arrays are compacted in lockstep, preserving the
    /// relative order of survivors.
    pub fn retain(&mut self, mut f: impl FnMut(&Gaussian) -> bool) {
        self.invalidate_terms();
        let n = self.len();
        let mut write = 0usize;
        for read in 0..n {
            let g = self.gaussian(read);
            if f(&g) {
                if write != read {
                    self.means[write] = self.means[read];
                    self.log_scales[write] = self.log_scales[read];
                    self.rotations[write] = self.rotations[read];
                    self.opacity_logits[write] = self.opacity_logits[read];
                    self.colors[write] = self.colors[read];
                }
                write += 1;
            }
        }
        self.means.truncate(write);
        self.log_scales.truncate(write);
        self.rotations.truncate(write);
        self.opacity_logits.truncate(write);
        self.colors.truncate(write);
    }

    /// Iterates over the Gaussians by value, in index order.
    pub fn iter(&self) -> SceneIter<'_> {
        SceneIter {
            scene: self,
            next: 0,
        }
    }

    /// Axis-aligned bounding box of all means, or `None` when empty.
    pub fn bounds(&self) -> Option<(Vec3, Vec3)> {
        let first = self.means.first()?;
        let mut lo = *first;
        let mut hi = *first;
        for m in &self.means {
            lo = lo.min(*m);
            hi = hi.max(*m);
        }
        Some((lo, hi))
    }
}

/// By-value iterator over a scene's Gaussians (see [`GaussianScene::iter`]).
#[derive(Debug, Clone)]
pub struct SceneIter<'a> {
    scene: &'a GaussianScene,
    next: usize,
}

impl Iterator for SceneIter<'_> {
    type Item = Gaussian;

    fn next(&mut self) -> Option<Gaussian> {
        let g = self.scene.get(self.next)?;
        self.next += 1;
        Some(g)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.scene.len().saturating_sub(self.next);
        (n, Some(n))
    }
}

impl ExactSizeIterator for SceneIter<'_> {}

impl FromIterator<Gaussian> for GaussianScene {
    fn from_iter<I: IntoIterator<Item = Gaussian>>(iter: I) -> Self {
        let mut scene = GaussianScene::new();
        for g in iter {
            scene.push_fields(g);
        }
        scene
    }
}

impl Extend<Gaussian> for GaussianScene {
    fn extend<I: IntoIterator<Item = Gaussian>>(&mut self, iter: I) {
        self.invalidate_terms();
        for g in iter {
            self.push_fields(g);
        }
    }
}

impl<'a> IntoIterator for &'a GaussianScene {
    type Item = Gaussian;
    type IntoIter = SceneIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Gaussian {
        Gaussian::new(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.1, 0.2, 0.05),
            Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.0), 0.6),
            0.75,
            Vec3::new(0.9, 0.1, 0.4),
        )
    }

    #[test]
    fn natural_parameter_round_trip() {
        let g = sample();
        assert!((g.opacity() - 0.75).abs() < 1e-9);
        let s = g.scale();
        assert!((s.x - 0.1).abs() < 1e-9);
        assert!((s.y - 0.2).abs() < 1e-9);
        assert!((s.z - 0.05).abs() < 1e-9);
    }

    #[test]
    fn opacity_clamped_to_open_interval() {
        let g = Gaussian::new(
            Vec3::ZERO,
            Vec3::splat(0.1),
            Quat::IDENTITY,
            1.5,
            Vec3::ZERO,
        );
        assert!(g.opacity() < 1.0);
        let g = Gaussian::new(
            Vec3::ZERO,
            Vec3::splat(0.1),
            Quat::IDENTITY,
            -0.5,
            Vec3::ZERO,
        );
        assert!(g.opacity() > 0.0);
    }

    #[test]
    fn covariance_is_symmetric_positive() {
        let g = sample();
        let c = g.covariance();
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.at(i, j) - c.at(j, i)).abs() < 1e-12);
            }
        }
        assert!(c.det() > 0.0);
        assert!(c.trace() > 0.0);
    }

    #[test]
    fn covariance_of_axis_aligned_is_diagonal() {
        let g = Gaussian::new(
            Vec3::ZERO,
            Vec3::new(0.1, 0.2, 0.3),
            Quat::IDENTITY,
            0.5,
            Vec3::ZERO,
        );
        let c = g.covariance();
        assert!((c.at(0, 0) - 0.01).abs() < 1e-9);
        assert!((c.at(1, 1) - 0.04).abs() < 1e-9);
        assert!((c.at(2, 2) - 0.09).abs() < 1e-9);
        assert!(c.at(0, 1).abs() < 1e-12);
    }

    #[test]
    fn bounding_radius_uses_largest_axis() {
        let g = Gaussian::new(
            Vec3::ZERO,
            Vec3::new(0.1, 0.5, 0.2),
            Quat::IDENTITY,
            0.5,
            Vec3::ZERO,
        );
        assert!((g.bounding_radius() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_logit_inverse() {
        for p in [0.01, 0.3, 0.5, 0.9, 0.999] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn scene_push_get_retain() {
        let mut scene = GaussianScene::new();
        assert!(scene.is_empty());
        let idx = scene.push(sample());
        assert_eq!(idx, 0);
        scene.push(Gaussian::new(
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::splat(0.1),
            Quat::IDENTITY,
            0.5,
            Vec3::ZERO,
        ));
        assert_eq!(scene.len(), 2);
        scene.retain(|g| g.mean.x < 5.0);
        assert_eq!(scene.len(), 1);
        assert!(scene.get(0).is_some());
        assert!(scene.get(1).is_none());
    }

    #[test]
    fn retain_compacts_all_arrays_in_lockstep() {
        let gs: Vec<Gaussian> = (0..6)
            .map(|i| {
                Gaussian::new(
                    Vec3::new(i as f64, -(i as f64), 1.0 + i as f64),
                    Vec3::splat(0.05 + 0.01 * i as f64),
                    Quat::from_axis_angle(Vec3::Y, 0.1 * i as f64),
                    0.3 + 0.1 * i as f64,
                    Vec3::splat(i as f64 / 6.0),
                )
            })
            .collect();
        let mut scene = GaussianScene::from_vec(gs.clone());
        scene.retain(|g| (g.mean.x as usize).is_multiple_of(2));
        assert_eq!(scene.len(), 3);
        for (k, want_idx) in [0usize, 2, 4].iter().enumerate() {
            assert_eq!(scene.gaussian(k), gs[*want_idx]);
        }
    }

    #[test]
    fn scene_bounds() {
        let mut scene = GaussianScene::new();
        assert!(scene.bounds().is_none());
        scene.push(Gaussian::new(
            Vec3::new(-1.0, 0.0, 2.0),
            Vec3::splat(0.1),
            Quat::IDENTITY,
            0.5,
            Vec3::ZERO,
        ));
        scene.push(Gaussian::new(
            Vec3::new(3.0, -2.0, 1.0),
            Vec3::splat(0.1),
            Quat::IDENTITY,
            0.5,
            Vec3::ZERO,
        ));
        let (lo, hi) = scene.bounds().unwrap();
        assert_eq!(lo, Vec3::new(-1.0, -2.0, 1.0));
        assert_eq!(hi, Vec3::new(3.0, 0.0, 2.0));
    }

    #[test]
    fn scene_from_iterator_and_extend() {
        let mut scene: GaussianScene = (0..3)
            .map(|i| {
                Gaussian::new(
                    Vec3::new(i as f64, 0.0, 0.0),
                    Vec3::splat(0.1),
                    Quat::IDENTITY,
                    0.5,
                    Vec3::ZERO,
                )
            })
            .collect();
        assert_eq!(scene.len(), 3);
        scene.extend(std::iter::once(sample()));
        assert_eq!(scene.len(), 4);
        assert_eq!(scene.iter().count(), 4);
    }

    #[test]
    fn every_mutation_invalidates_projection_terms() {
        // The column must always equal a fresh per-Gaussian computation,
        // however the scene was last changed.
        fn assert_fresh(scene: &GaussianScene, what: &str) {
            let terms = scene.projection_terms(2);
            assert_eq!(terms.len(), scene.len(), "{what}: column length");
            for (i, t) in terms.iter().enumerate() {
                assert_eq!(
                    *t,
                    ProjectionTerms::of(&scene.gaussian(i)),
                    "{what}: row {i}"
                );
            }
        }
        let mut scene = GaussianScene::from_vec(vec![sample(); 3]);
        assert_fresh(&scene, "from_vec");
        scene.push(Gaussian::new(
            Vec3::ZERO,
            Vec3::splat(0.3),
            Quat::IDENTITY,
            0.2,
            Vec3::ZERO,
        ));
        assert_fresh(&scene, "push");
        scene.fields_mut().log_scales[0].x += 0.5;
        assert_fresh(&scene, "fields_mut");
        let mut g = sample();
        g.rotation = Quat::from_axis_angle(Vec3::Z, 1.1);
        scene.set(1, g);
        assert_fresh(&scene, "set");
        scene.update(2, |g| g.opacity_logit -= 2.0);
        assert_fresh(&scene, "update");
        scene.update_each(|i, g| g.log_scale.y -= 0.1 * i as f64);
        assert_fresh(&scene, "update_each");
        scene.retain(|g| g.opacity_logit > logit(0.3));
        assert_fresh(&scene, "retain");
        scene.extend([sample()]);
        assert_fresh(&scene, "extend");
        let copy = scene.clone();
        assert_fresh(&copy, "clone");
        let rebuilt = GaussianScene::from_vec(copy.to_vec()[1..].to_vec());
        assert_fresh(&rebuilt, "from_vec of a subset");
    }

    #[test]
    fn projection_terms_are_width_independent() {
        let gs: Vec<Gaussian> = (0..1100)
            .map(|i| {
                Gaussian::new(
                    Vec3::splat(0.01 * i as f64),
                    Vec3::new(0.02 + 1e-4 * i as f64, 0.05, 0.07),
                    Quat::from_axis_angle(Vec3::new(1.0, 0.5, -0.25), 0.01 * i as f64),
                    0.5,
                    Vec3::ZERO,
                )
            })
            .collect();
        let one = GaussianScene::from_vec(gs.clone());
        let four = GaussianScene::from_vec(gs);
        assert_eq!(one.projection_terms(1), four.projection_terms(4));
    }

    #[test]
    fn fields_mut_writes_through() {
        let mut scene = GaussianScene::from_vec(vec![sample(), sample()]);
        {
            let fields = scene.fields_mut();
            fields.means[1].x = 42.0;
            fields.opacity_logits[0] = -1.25;
            fields.colors[1].z = 0.125;
        }
        assert_eq!(scene.gaussian(1).mean.x, 42.0);
        assert_eq!(scene.gaussian(0).opacity_logit, -1.25);
        assert_eq!(scene.gaussian(1).color.z, 0.125);
    }

    #[test]
    fn soa_aos_round_trip_is_bitwise() {
        let gs: Vec<Gaussian> = (0..32)
            .map(|i| {
                Gaussian::new(
                    Vec3::new(0.31 * i as f64, -0.17 * i as f64, 1.0 + 0.09 * i as f64),
                    Vec3::new(0.02 + 0.003 * i as f64, 0.05, 0.07),
                    Quat::from_axis_angle(Vec3::new(1.0, 0.5, -0.25), 0.13 * i as f64),
                    0.2 + 0.02 * i as f64,
                    Vec3::new(0.1, 0.5, 0.9),
                )
            })
            .collect();
        let scene = GaussianScene::from_vec(gs.clone());
        let back = scene.to_vec();
        assert_eq!(back.len(), gs.len());
        for (a, b) in gs.iter().zip(&back) {
            // Bitwise, not approximate: SoA↔AoS must be lossless.
            assert_eq!(a.mean.x.to_bits(), b.mean.x.to_bits());
            assert_eq!(a.log_scale.z.to_bits(), b.log_scale.z.to_bits());
            assert_eq!(a.opacity_logit.to_bits(), b.opacity_logit.to_bits());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn finite_check() {
        let mut g = sample();
        assert!(g.is_finite());
        g.mean.x = f64::NAN;
        assert!(!g.is_finite());
    }
}
