//! Scene primitives and synthetic-world generation for SPLATONIC.
//!
//! This crate defines the data the SLAM system operates on:
//!
//! * [`Gaussian`] / [`GaussianScene`] — the 3D Gaussian primitives `{G_i}`
//!   that represent the reconstructed scene (paper Sec. II-B),
//! * [`Camera`] / [`Intrinsics`] — the pinhole camera and pose `{C_t}`,
//! * [`Frame`] — RGB-D reference frames,
//! * [`world`] — procedural ground-truth worlds standing in for the Replica
//!   and TUM RGB-D datasets (see DESIGN.md §2 for the substitution argument),
//! * [`trajectory`] — smooth (Replica-like) and fast-motion (TUM-like)
//!   camera trajectories,
//! * [`ply`] — standard 3DGS `.ply` import/export (reconstructions become
//!   inspectable artifacts, external captures become workloads),
//! * [`lod`] — opacity/scale-aware level-of-detail decimation.
//!
//! # Examples
//!
//! ```
//! use splatonic_scene::world::{WorldBuilder, WorldStyle};
//!
//! let world = WorldBuilder::new(7)
//!     .style(WorldStyle::ReplicaLike)
//!     .gaussian_spacing(0.4)
//!     .build();
//! assert!(world.scene.len() > 100);
//! ```

// Every public item must carry a doc comment; config knobs additionally
// document their default and bit-exactness contract (DESIGN.md §13).
#![warn(missing_docs)]

pub mod camera;
pub mod frame;
pub mod gaussian;
pub mod lod;
pub mod ply;
pub mod trajectory;
pub mod world;

pub use camera::{Camera, Intrinsics};
pub use frame::{ColorImage, DepthImage, Frame};
pub use gaussian::{Gaussian, GaussianScene, ProjectionTerms};
pub use lod::{decimate, decimate_fraction, LodStats};
pub use ply::{decode_ply, encode_ply, read_ply_file, write_ply_file, PlyError};
pub use trajectory::{Trajectory, TrajectoryKind};
pub use world::{SyntheticWorld, WorldBuilder, WorldStyle};
