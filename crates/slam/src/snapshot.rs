//! Versioned, bit-exact binary snapshots of the SLAM run state.
//!
//! A [`Snapshot`] captures everything [`crate::system::SlamSystem`] needs to
//! continue a run mid-sequence with results **bitwise identical** to the
//! uninterrupted run (DESIGN.md §12): the Gaussian scene, the estimated
//! trajectory, the keyframe window (as frame indices + poses — the RGB-D
//! images are rebuilt from the dataset at resume time), the mapping
//! optimizer's Adam moments and step count, the aggregated trace counters,
//! and the per-frame seed derivation point (`seed`, `next_frame` — per-frame
//! seeds are pure functions of these, so no RNG state exists to save).
//!
//! The wire format is dependency-free and versioned: an 8-byte magic, a
//! `u32` format version, the payload length, and an FNV-1a checksum of the
//! payload. Corrupt, truncated, or incompatible snapshots are rejected with
//! a typed [`SnapshotError`] instead of producing garbage state. All scalars
//! are little-endian; every `f64` travels via `to_bits`/`from_bits`, so the
//! round trip is bit-exact by construction (NaN payloads and signed zeros
//! included).
//!
//! Deliberately **not** captured: pool worker state and the scene's derived
//! projection-terms column (rebuilt on first use after restore).

use crate::adam::{AdamScalar, AdamVector};
use splatonic_math::stats::Summary;
use splatonic_math::{Mat3, Pose, Quat, Vec3};
use splatonic_render::trace::{BackwardStats, ForwardStats};
use splatonic_render::RenderTrace;
use splatonic_scene::{Gaussian, GaussianScene};
use std::fmt;
use std::path::Path;

/// Magic bytes identifying a SPLATONIC snapshot file.
pub const MAGIC: [u8; 8] = *b"SPLTSNAP";

/// Current snapshot format version. Bump on any wire-format change; old
/// readers reject newer versions with [`SnapshotError::UnsupportedVersion`].
/// Version 2 added the `sort_group_reuse` trace counter; version 3 dropped
/// the two `u32` lists that versions 1 and 2 carried after each trace.
pub const FORMAT_VERSION: u32 = 3;

/// Fixed header size: magic (8) + version (4) + payload length (8) +
/// checksum (8).
pub const HEADER_LEN: usize = 28;

/// Typed failure modes of snapshot decoding and resume validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The buffer ends before the announced payload does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload checksum does not match the header — bit rot or a
    /// partial/interrupted write.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the payload as read.
        computed: u64,
    },
    /// The payload decoded cleanly but bytes remain after the last field —
    /// the writer and reader disagree about the format.
    TrailingBytes(usize),
    /// A decoded count is implausibly large for the buffer that carries it
    /// (corruption the checksum caught too late to blame a single field).
    Malformed(&'static str),
    /// The snapshot is internally valid but stale for the given resume
    /// context: the named configuration aspect differs from the one the
    /// snapshot was taken under, so continuing would silently diverge.
    ConfigMismatch(&'static str),
    /// A keyframe or trajectory index points past the resume dataset.
    FrameOutOfRange {
        /// The offending frame index.
        frame: usize,
        /// Length of the dataset given to resume.
        dataset_len: usize,
    },
    /// Filesystem failure while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a SPLATONIC snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads <= {FORMAT_VERSION})")
            }
            SnapshotError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, have {available}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing bytes after the last field")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::ConfigMismatch(what) => {
                write!(f, "snapshot is stale for this configuration: {what} differs")
            }
            SnapshotError::FrameOutOfRange { frame, dataset_len } => write!(
                f,
                "snapshot references frame {frame} but the resume dataset has {dataset_len} frames"
            ),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash — the payload checksum. Not cryptographic; it guards
/// against bit rot and partial writes, which is all a checkpoint needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A decoded snapshot: the complete resumable state of a SLAM run.
///
/// Fields are public so the bench harness can build synthetic snapshots for
/// encode/decode micro-benchmarks; [`crate::system::SlamSystem::checkpoint`]
/// and [`crate::system::SlamSystem::resume`] are the real producers and
/// consumers.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Master seed of the run (per-frame seeds derive from it and the frame
    /// index alone).
    pub seed: u64,
    /// Fingerprint of the result-affecting configuration, so resuming under
    /// a different algorithm/sampling setup is rejected as stale.
    pub config_fingerprint: u64,
    /// Index of the first frame not yet processed.
    pub next_frame: usize,
    /// Reserved 8-byte slot: [`SlamSystem::checkpoint`](crate::SlamSystem::checkpoint)
    /// writes 0 and restore ignores it. The slot keeps the wire format,
    /// and with it the committed v1/v2 fixtures, unchanged.
    pub scene_revision: u64,
    /// The reconstructed scene's Gaussians.
    pub gaussians: Vec<Gaussian>,
    /// Estimated world-to-camera poses for frames `0..next_frame`.
    pub est_poses: Vec<Pose>,
    /// Keyframe window as (dataset frame index, estimated pose) — the RGB-D
    /// images are cloned back out of the dataset at resume time.
    pub keyframes: Vec<(usize, Pose)>,
    /// Mapping optimizer step count.
    pub adam_t: u64,
    /// Mapping optimizer first/second moment pairs, in parameter order.
    pub adam_moments: Vec<(f64, f64)>,
    /// Total tracking iterations executed so far.
    pub tracking_iters: usize,
    /// Total mapping iterations executed so far.
    pub mapping_iters: usize,
    /// Mapping invocations executed so far.
    pub mapping_invocations: usize,
    /// Aggregated tracking workload trace so far.
    pub tracking_trace: RenderTrace,
    /// Aggregated mapping workload trace so far.
    pub mapping_trace: RenderTrace,
}

impl Snapshot {
    /// Serializes to the versioned wire format (header + payload) at the
    /// current [`FORMAT_VERSION`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_versioned(FORMAT_VERSION)
    }

    /// Serializes at a specific still-supported format version
    /// (`1..=FORMAT_VERSION`); see [`FORMAT_VERSION`] for what each omits
    /// or adds (versions 1 and 2 get their trace lists written empty).
    /// Production code always writes the current version; this exists so
    /// the compatibility tests exercise real encoder code instead of
    /// hand-patched bytes.
    ///
    /// # Panics
    ///
    /// Panics if `version` is 0 or newer than [`FORMAT_VERSION`].
    pub fn to_bytes_versioned(&self, version: u32) -> Vec<u8> {
        assert!(
            (1..=FORMAT_VERSION).contains(&version),
            "cannot encode snapshot version {version}"
        );
        // One exactly sized buffer: the small traces are encoded first so
        // the size is known (12 `u64` scalars, the records, the traces);
        // the header's length and checksum are patched in last.
        let mut traces = Vec::new();
        put_trace(&mut traces, &self.tracking_trace, version);
        put_trace(&mut traces, &self.mapping_trace, version);
        let payload_len = 12 * 8
            + self.gaussians.len() * 14 * 8
            + self.est_poses.len() * 12 * 8
            + self.keyframes.len() * 13 * 8
            + self.adam_moments.len() * 16
            + traces.len();
        let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&[0; 16]);
        let w = &mut out;
        put_u64(w, self.seed);
        put_u64(w, self.config_fingerprint);
        put_u64(w, self.next_frame as u64);
        put_u64(w, self.scene_revision);
        put_u64(w, self.gaussians.len() as u64);
        for g in &self.gaussians {
            put_gaussian(w, g);
        }
        put_u64(w, self.est_poses.len() as u64);
        for p in &self.est_poses {
            put_pose(w, p);
        }
        put_u64(w, self.keyframes.len() as u64);
        for (idx, pose) in &self.keyframes {
            put_u64(w, *idx as u64);
            put_pose(w, pose);
        }
        put_u64(w, self.adam_t);
        put_u64(w, self.adam_moments.len() as u64);
        for &(m, v) in &self.adam_moments {
            put_f64(w, m);
            put_f64(w, v);
        }
        put_u64(w, self.tracking_iters as u64);
        put_u64(w, self.mapping_iters as u64);
        put_u64(w, self.mapping_invocations as u64);
        w.extend_from_slice(&traces);
        debug_assert_eq!(out.len(), HEADER_LEN + payload_len);

        let len = (out.len() - HEADER_LEN) as u64;
        let checksum = fnv1a(&out[HEADER_LEN..]);
        out[12..20].copy_from_slice(&len.to_le_bytes());
        out[20..28].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a snapshot, validating magic, version, length, and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        // Older still-supported versions decode with their missing fields
        // defaulted (see `Cursor::trace`); only version 0 (never shipped)
        // and versions newer than this build are rejected, which makes the
        // `UnsupportedVersion` message ("reads <= {FORMAT_VERSION}") true.
        if version == 0 || version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let stored = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let available = bytes.len() - HEADER_LEN;
        if available < payload_len {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN + payload_len,
                available: bytes.len(),
            });
        }
        if available > payload_len {
            return Err(SnapshotError::TrailingBytes(available - payload_len));
        }
        let payload = &bytes[HEADER_LEN..];
        let computed = fnv1a(payload);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        let mut c = Cursor::new(payload);
        let seed = c.u64()?;
        let config_fingerprint = c.u64()?;
        let next_frame = c.u64()? as usize;
        let scene_revision = c.u64()?;
        let n_gaussians = c.len_field("gaussians", 14 * 8)?;
        let mut gaussians = Vec::with_capacity(n_gaussians);
        for _ in 0..n_gaussians {
            gaussians.push(c.gaussian()?);
        }
        let n_poses = c.len_field("est_poses", 12 * 8)?;
        let mut est_poses = Vec::with_capacity(n_poses);
        for _ in 0..n_poses {
            est_poses.push(c.pose()?);
        }
        let n_keyframes = c.len_field("keyframes", 13 * 8)?;
        let mut keyframes = Vec::with_capacity(n_keyframes);
        for _ in 0..n_keyframes {
            let idx = c.u64()? as usize;
            keyframes.push((idx, c.pose()?));
        }
        let adam_t = c.u64()?;
        let n_moments = c.len_field("adam_moments", 16)?;
        let mut adam_moments = Vec::with_capacity(n_moments);
        for _ in 0..n_moments {
            adam_moments.push((c.f64()?, c.f64()?));
        }
        let tracking_iters = c.u64()? as usize;
        let mapping_iters = c.u64()? as usize;
        let mapping_invocations = c.u64()? as usize;
        let tracking_trace = c.trace(version)?;
        let mapping_trace = c.trace(version)?;
        if c.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(c.remaining()));
        }
        Ok(Snapshot {
            seed,
            config_fingerprint,
            next_frame,
            scene_revision,
            gaussians,
            est_poses,
            keyframes,
            adam_t,
            adam_moments,
            tracking_iters,
            mapping_iters,
            mapping_invocations,
            tracking_trace,
            mapping_trace,
        })
    }

    /// Writes the snapshot atomically: encode to `<path>.tmp`, then rename.
    /// A crash mid-write leaves either the previous snapshot or a `.tmp`
    /// orphan — never a torn file that decodes.
    pub fn write_file(&self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Reads and decodes a snapshot file.
    pub fn read_file(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Snapshot::from_bytes(&bytes)
    }

    /// Rebuilds the scene: contents restored bitwise (see
    /// [`GaussianScene::from_vec`]).
    pub fn restore_scene(&self) -> GaussianScene {
        GaussianScene::from_vec(self.gaussians.clone())
    }

    /// Rebuilds the mapping optimizer state bitwise.
    pub fn restore_adam(&self) -> AdamVector {
        AdamVector::from_parts(
            self.adam_t,
            self.adam_moments
                .iter()
                .map(|&(m, v)| AdamScalar::from_moments(m, v))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives. Everything below is little-endian; f64 travels as
// raw IEEE-754 bits.

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(w: &mut Vec<u8>, v: f64) {
    w.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_vec3(w: &mut Vec<u8>, v: Vec3) {
    put_f64(w, v.x);
    put_f64(w, v.y);
    put_f64(w, v.z);
}

fn put_gaussian(w: &mut Vec<u8>, g: &Gaussian) {
    put_vec3(w, g.mean);
    put_vec3(w, g.log_scale);
    put_f64(w, g.rotation.w);
    put_f64(w, g.rotation.x);
    put_f64(w, g.rotation.y);
    put_f64(w, g.rotation.z);
    put_f64(w, g.opacity_logit);
    put_vec3(w, g.color);
}

fn put_pose(w: &mut Vec<u8>, p: &Pose) {
    for &m in &p.rotation.m {
        put_f64(w, m);
    }
    put_vec3(w, p.translation);
}

fn put_summary(w: &mut Vec<u8>, s: &Summary) {
    put_u64(w, s.count() as u64);
    put_f64(w, s.sum());
    put_f64(w, s.sum_sq());
    put_f64(w, s.raw_min());
    put_f64(w, s.raw_max());
}

/// Serializes a trace. The destructuring is deliberately exhaustive (no
/// `..`), mirroring [`RenderTrace::merge`]: adding a counter to the trace
/// structs fails compilation here until the snapshot format handles it (and
/// [`FORMAT_VERSION`] is bumped). `version` selects which fields are on the
/// wire: `sort_group_reuse` joined in version 2, and versions before 3 end
/// with two `u32` lists, written here as empty (length-0) lists.
fn put_trace(w: &mut Vec<u8>, t: &RenderTrace, version: u32) {
    let RenderTrace { forward, backward } = t;
    let ForwardStats {
        gaussians_input,
        gaussians_culled,
        gaussians_projected,
        tile_pairs,
        proj_alpha_checks,
        bin_candidates,
        proj_pairs_kept,
        sort_elems,
        sort_lists,
        sort_group_reuse,
        raster_alpha_checks,
        pairs_integrated,
        pixels_shaded,
        exp_evals,
        warp_steps,
        warp_active,
        pixel_list_len,
        bytes_read,
        bytes_written,
    } = forward;
    for v in [
        gaussians_input,
        gaussians_culled,
        gaussians_projected,
        tile_pairs,
        proj_alpha_checks,
        bin_candidates,
        proj_pairs_kept,
        sort_elems,
        sort_lists,
    ] {
        put_u64(w, *v);
    }
    if version >= 2 {
        put_u64(w, *sort_group_reuse);
    }
    for v in [
        raster_alpha_checks,
        pairs_integrated,
        pixels_shaded,
        exp_evals,
        warp_steps,
        warp_active,
        bytes_read,
        bytes_written,
    ] {
        put_u64(w, *v);
    }
    put_summary(w, pixel_list_len);
    let BackwardStats {
        alpha_checks,
        pairs_grad,
        reduction_ops,
        atomic_adds,
        exp_evals,
        warp_steps,
        warp_active,
        gaussian_touches,
        gaussians_touched,
        reprojections,
        bytes_read,
        bytes_written,
    } = backward;
    for v in [
        alpha_checks,
        pairs_grad,
        reduction_ops,
        atomic_adds,
        exp_evals,
        warp_steps,
        warp_active,
        gaussians_touched,
        reprojections,
        bytes_read,
        bytes_written,
    ] {
        put_u64(w, *v);
    }
    put_summary(w, gaussian_touches);
    if version < 3 {
        put_u64(w, 0);
        put_u64(w, 0);
    }
}

/// Bounds-checked payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN + self.pos + n,
                available: HEADER_LEN + self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix and sanity-checks it against the bytes left:
    /// a count whose elements (each at least `elem_bytes` wide) cannot fit
    /// in the remaining payload is corruption, reported before a huge
    /// `Vec::with_capacity` can abort the process.
    fn len_field(&mut self, what: &'static str, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n.checked_mul(elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(SnapshotError::Malformed(what));
        }
        Ok(n)
    }

    fn vec3(&mut self) -> Result<Vec3, SnapshotError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    fn gaussian(&mut self) -> Result<Gaussian, SnapshotError> {
        let mean = self.vec3()?;
        let log_scale = self.vec3()?;
        let rotation = Quat {
            w: self.f64()?,
            x: self.f64()?,
            y: self.f64()?,
            z: self.f64()?,
        };
        let opacity_logit = self.f64()?;
        let color = self.vec3()?;
        Ok(Gaussian {
            mean,
            log_scale,
            rotation,
            opacity_logit,
            color,
        })
    }

    fn pose(&mut self) -> Result<Pose, SnapshotError> {
        let mut m = [0.0; 9];
        for v in &mut m {
            *v = self.f64()?;
        }
        let translation = self.vec3()?;
        Ok(Pose {
            rotation: Mat3 { m },
            translation,
        })
    }

    fn summary(&mut self) -> Result<Summary, SnapshotError> {
        let count = self.u64()? as usize;
        let sum = self.f64()?;
        let sum_sq = self.f64()?;
        let min = self.f64()?;
        let max = self.f64()?;
        Ok(Summary::from_parts(count, sum, sum_sq, min, max))
    }

    /// Skips a length-prefixed `u32` list, bounds-checked like any field.
    fn skip_u32_list(&mut self) -> Result<(), SnapshotError> {
        let n = self.len_field("u32 list", 4)?;
        self.take(n * 4).map(|_| ())
    }

    /// Decodes a trace written at `version`: snapshots older than version 2
    /// predate `sort_group_reuse`, so the field defaults to zero (the value
    /// the build that wrote them observed), and the two per-render `u32`
    /// lists that versions before 3 carry are skipped.
    fn trace(&mut self, version: u32) -> Result<RenderTrace, SnapshotError> {
        let mut t = RenderTrace::new();
        {
            let f = &mut t.forward;
            f.gaussians_input = self.u64()?;
            f.gaussians_culled = self.u64()?;
            f.gaussians_projected = self.u64()?;
            f.tile_pairs = self.u64()?;
            f.proj_alpha_checks = self.u64()?;
            f.bin_candidates = self.u64()?;
            f.proj_pairs_kept = self.u64()?;
            f.sort_elems = self.u64()?;
            f.sort_lists = self.u64()?;
            f.sort_group_reuse = if version >= 2 { self.u64()? } else { 0 };
            f.raster_alpha_checks = self.u64()?;
            f.pairs_integrated = self.u64()?;
            f.pixels_shaded = self.u64()?;
            f.exp_evals = self.u64()?;
            f.warp_steps = self.u64()?;
            f.warp_active = self.u64()?;
            f.bytes_read = self.u64()?;
            f.bytes_written = self.u64()?;
            f.pixel_list_len = self.summary()?;
        }
        {
            let b = &mut t.backward;
            b.alpha_checks = self.u64()?;
            b.pairs_grad = self.u64()?;
            b.reduction_ops = self.u64()?;
            b.atomic_adds = self.u64()?;
            b.exp_evals = self.u64()?;
            b.warp_steps = self.u64()?;
            b.warp_active = self.u64()?;
            b.gaussians_touched = self.u64()?;
            b.reprojections = self.u64()?;
            b.bytes_read = self.u64()?;
            b.bytes_written = self.u64()?;
            b.gaussian_touches = self.summary()?;
        }
        if version < 3 {
            self.skip_u32_list()?;
            self.skip_u32_list()?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut tracking_trace = RenderTrace::new();
        tracking_trace.forward.pixels_shaded = 123;
        tracking_trace.forward.pixel_list_len.push(3.0);
        tracking_trace.forward.pixel_list_len.push(7.5);
        tracking_trace.backward.atomic_adds = 9;
        let g = Gaussian::new(
            Vec3::new(0.5, -1.25, 2.0),
            Vec3::splat(0.1),
            Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), 0.3),
            0.8,
            Vec3::new(0.9, 0.1, 0.4),
        );
        Snapshot {
            seed: 42,
            config_fingerprint: 0xDEAD_BEEF,
            next_frame: 5,
            scene_revision: 17,
            gaussians: vec![g; 3],
            est_poses: vec![Pose::identity(); 5],
            keyframes: vec![(0, Pose::identity()), (4, Pose::identity())],
            adam_t: 11,
            adam_moments: vec![(0.25, -0.5), (1e-9, 3.0)],
            tracking_iters: 40,
            mapping_iters: 30,
            mapping_invocations: 2,
            tracking_trace,
            mapping_trace: RenderTrace::new(),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let s = sample_snapshot();
        let bytes = s.to_bytes();
        let d = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(d, s);
        // Empty summaries keep their ±∞ sentinels bitwise.
        assert_eq!(
            d.mapping_trace.forward.pixel_list_len.raw_min().to_bits(),
            f64::INFINITY.to_bits()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&bytes), Err(SnapshotError::BadMagic));
        assert_eq!(Snapshot::from_bytes(b"short"), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        );
        // Version 0 never shipped — it is not "older", it is garbage.
        let mut zero = sample_snapshot().to_bytes();
        zero[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&zero),
            Err(SnapshotError::UnsupportedVersion(0))
        );
    }

    /// The state the committed v1 and v2 fixtures hold (minus the two
    /// per-trace `u32` lists those files also carry, `[1, 2, 3]` and
    /// `[4, 5]` on the tracking trace, which decoding skips). The fixtures
    /// were written by builds that still kept those lists, so they are
    /// frozen: no current encoder reproduces their bytes.
    /// `sort_group_reuse` is deliberately nonzero: version 1 cannot carry
    /// it, so decoding must zero it.
    fn v1_fixture_snapshot() -> Snapshot {
        let mut s = sample_snapshot();
        s.tracking_trace.forward.sort_group_reuse = 777;
        s.mapping_trace.forward.sort_group_reuse = 31;
        s
    }

    /// What a v1 decode of [`v1_fixture_snapshot`] must produce: identical
    /// state with the post-v1 counters at zero.
    fn v1_expected_snapshot() -> Snapshot {
        let mut s = v1_fixture_snapshot();
        s.tracking_trace.forward.sort_group_reuse = 0;
        s.mapping_trace.forward.sort_group_reuse = 0;
        s
    }

    fn fixture_path(version: u32) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../../plans/fixtures/snapshot_v{version}.snap"))
    }

    #[test]
    fn v1_snapshot_decodes_with_defaulted_sort_counters() {
        let s = v1_fixture_snapshot();
        let bytes = s.to_bytes_versioned(1);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        // Per trace, v1 lacks one u64 counter but carries two (empty) list
        // length prefixes: 16 bytes more over the two traces.
        assert_eq!(bytes.len(), s.to_bytes().len() + 16);
        let decoded = Snapshot::from_bytes(&bytes).expect("v1 must decode");
        assert_eq!(decoded, v1_expected_snapshot());
    }

    #[test]
    fn v1_decode_still_validates_checksum_and_truncation() {
        let bytes = v1_fixture_snapshot().to_bytes_versioned(1);
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 40] ^= 0x10;
        assert!(matches!(
            Snapshot::from_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn committed_v1_fixture_decodes() {
        // Regression gate for the compatibility promise: a v1 snapshot
        // file (committed at plans/fixtures/snapshot_v1.snap, with
        // non-empty trace lists) keeps decoding on every future build.
        let bytes = std::fs::read(fixture_path(1))
            .expect("committed fixture plans/fixtures/snapshot_v1.snap must exist");
        let decoded = Snapshot::from_bytes(&bytes).expect("committed v1 fixture must decode");
        assert_eq!(decoded, v1_expected_snapshot());
    }

    #[test]
    fn committed_v2_fixture_decodes() {
        // Every eviction file and checkpoint written before version 3 is
        // v2; plans/fixtures/snapshot_v2.snap (non-empty trace lists
        // included) must keep decoding, its counters intact.
        let bytes = std::fs::read(fixture_path(2))
            .expect("committed fixture plans/fixtures/snapshot_v2.snap must exist");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
        let decoded = Snapshot::from_bytes(&bytes).expect("committed v2 fixture must decode");
        assert_eq!(decoded, v1_fixture_snapshot());
    }

    #[test]
    fn encoding_fills_one_exactly_sized_buffer() {
        let s = v1_fixture_snapshot();
        for version in 1..=FORMAT_VERSION {
            let bytes = s.to_bytes_versioned(version);
            assert_eq!(bytes.len(), bytes.capacity(), "version {version}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot encode snapshot version")]
    fn encoding_a_future_version_panics() {
        let _ = sample_snapshot().to_bytes_versioned(FORMAT_VERSION + 1);
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let bytes = sample_snapshot().to_bytes();
        for cut in [
            8,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 9,
            bytes.len() - 1,
        ] {
            let err = Snapshot::from_bytes(&bytes[..cut]).expect_err("must reject");
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "cut at {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_payload_rejected_by_checksum() {
        let mut bytes = sample_snapshot().to_bytes();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes.push(0);
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::TrailingBytes(1))
        );
    }

    #[test]
    fn restored_adam_is_bitwise_equal() {
        let s = sample_snapshot();
        let adam = s.restore_adam();
        assert_eq!(adam.step_count(), s.adam_t);
        let roundtrip: Vec<(f64, f64)> = adam.scalars().iter().map(|x| x.moments()).collect();
        for (a, b) in roundtrip.iter().zip(s.adam_moments.iter()) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn file_round_trip_and_io_error() {
        let dir = std::env::temp_dir().join("splatonic-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let s = sample_snapshot();
        s.write_file(&path).unwrap();
        assert_eq!(Snapshot::read_file(&path).unwrap(), s);
        let missing = dir.join("does-not-exist.snap");
        assert!(matches!(
            Snapshot::read_file(&missing),
            Err(SnapshotError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
