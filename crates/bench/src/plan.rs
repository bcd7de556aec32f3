//! Headless multi-step bench plans (`figures --plan <file>`).
//!
//! A plan is a small JSON script that chains a SLAM run with asset and
//! snapshot operations — run → checkpoint → export `.ply` → decimate →
//! re-import → re-evaluate PSNR — so CI pipelines are one committed file
//! plus one binary invocation instead of shell glue (DESIGN.md §17). The
//! committed `plans/roundtrip.json` is the reference example and the CI
//! smoke gate.
//!
//! # Schema
//!
//! ```json
//! {
//!   "name": "roundtrip",
//!   "steps": [
//!     {"op": "run"},
//!     {"op": "export_ply", "path": "scene.ply"},
//!     {"op": "assert_ply_roundtrip", "path": "scene.ply"},
//!     {"op": "eval_psnr"},
//!     {"op": "decimate", "keep_fraction": 0.5},
//!     {"op": "eval_psnr", "max_drop_db": 2.0},
//!     {"op": "decode_snapshot", "path": "fixtures/snapshot_v1.snap"}
//!   ]
//! }
//! ```
//!
//! Every step takes an optional `"note"` string (logged verbatim). The
//! ops, in the order a typical plan uses them:
//!
//! * `run` (optional `seed`, `checkpoint_every`) — the SLAM pass; must
//!   precede every op that needs a scene or trajectory.
//! * `checkpoint {path}` — writes the run's last snapshot cut to `path`.
//! * `export_ply {path}` / `import_ply {path}` — scene ↔ 3DGS `.ply`,
//!   via [`splatonic_slam::assets`] so the `assets/*` counters accrue.
//!   Import *replaces* the working scene; estimated poses are kept.
//! * `assert_ply_roundtrip {path}` — decodes the file and re-encodes it,
//!   failing unless the bytes match exactly (the codec's f32-projection
//!   guarantee: an exported file re-encodes bit-identically).
//! * `decimate {budget | keep_fraction}` — LOD pass on the working scene
//!   ([`splatonic_scene::lod`]).
//! * `eval_psnr {min_db?, max_drop_db?}` — re-renders the working scene
//!   along the estimated trajectory and compares: `min_db` is an absolute
//!   floor; `max_drop_db` bounds the drop against the *first* `eval_psnr`
//!   of the plan (the reference). A bare `eval_psnr` just records.
//! * `decode_snapshot {path}` — decodes a snapshot file (any supported
//!   format version), failing the plan on a decode error. This is how CI
//!   keeps the committed v1 and v2 fixtures decodable forever.
//!
//! # Path resolution
//!
//! Relative paths are tried against the plan file's directory first (for
//! committed fixtures riding next to the plan); if nothing exists there
//! they resolve into the artifact directory (`--plan-dir`, where writes
//! always land). Absolute paths are used verbatim.

use crate::Settings;
use splatonic::telemetry::json::{self, Json};
use splatonic_scene::{lod, ply, GaussianScene};
use splatonic_slam::prelude::*;
use splatonic_slam::{assets, Snapshot};
use splatonic_telemetry::Telemetry;
use std::fmt;
use std::path::{Path, PathBuf};

/// Everything that can go wrong loading or executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A file could not be read or written.
    Io(String),
    /// The plan file is not valid JSON.
    Parse(String),
    /// The JSON is valid but violates the plan schema.
    Schema(String),
    /// A step ran before the state it needs existed (e.g. `export_ply`
    /// before `run`).
    State(String),
    /// An explicit plan assertion failed (roundtrip mismatch, PSNR below
    /// floor).
    Assertion(String),
    /// A `.ply` or snapshot codec error while executing a step.
    Codec(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Io(m) => write!(f, "plan I/O error: {m}"),
            PlanError::Parse(m) => write!(f, "plan parse error: {m}"),
            PlanError::Schema(m) => write!(f, "plan schema error: {m}"),
            PlanError::State(m) => write!(f, "plan state error: {m}"),
            PlanError::Assertion(m) => write!(f, "plan assertion failed: {m}"),
            PlanError::Codec(m) => write!(f, "plan codec error: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One parsed plan step. Parsing is eager and strict (unknown ops and
/// unknown fields are schema errors) so a typo fails before the expensive
/// SLAM run, not after it.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Execute the SLAM pass that later steps operate on.
    Run {
        /// Master seed (default 7, the instrumented-report seed).
        seed: u64,
        /// Checkpoint cadence in frames (default 4).
        checkpoint_every: usize,
    },
    /// Write the run's last snapshot cut to a file.
    Checkpoint {
        /// Destination path (resolved into the artifact directory).
        path: String,
    },
    /// Export the working scene as 3DGS `.ply`.
    ExportPly {
        /// Destination path (resolved into the artifact directory).
        path: String,
    },
    /// Replace the working scene with a `.ply` file's contents.
    ImportPly {
        /// Source path.
        path: String,
    },
    /// Decode + re-encode a `.ply` file and require bit-identical bytes.
    AssertPlyRoundtrip {
        /// File to check.
        path: String,
    },
    /// Decimate the working scene to a budget or a kept fraction.
    Decimate {
        /// Absolute Gaussian budget (exclusive with `keep_fraction`).
        budget: Option<usize>,
        /// Fraction of the scene to keep (exclusive with `budget`).
        keep_fraction: Option<f64>,
    },
    /// Re-render the working scene along the estimated trajectory and
    /// check the PSNR against the given bounds.
    EvalPsnr {
        /// Absolute floor in dB.
        min_db: Option<f64>,
        /// Maximum allowed drop versus the plan's first `eval_psnr`.
        max_drop_db: Option<f64>,
    },
    /// Decode a snapshot file (any supported format version).
    DecodeSnapshot {
        /// File to decode.
        path: String,
    },
}

/// A loaded plan: name, steps, and the directory the plan file lives in
/// (used for fixture-relative path resolution).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Plan name (from the file, falling back to the file stem).
    pub name: String,
    /// Directory of the plan file; committed fixtures resolve against it.
    pub base_dir: PathBuf,
    /// The steps, with their optional notes, in execution order.
    pub steps: Vec<(Step, Option<String>)>,
}

/// What a completed plan reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// Plan name.
    pub name: String,
    /// One human-readable line per executed step.
    pub log: Vec<String>,
    /// PSNR of the SLAM run itself (set by `run`).
    pub run_psnr_db: Option<f64>,
    /// The last `eval_psnr` result.
    pub final_psnr_db: Option<f64>,
}

fn str_field(obj: &Json, key: &str, op: &str, idx: usize) -> Result<String, PlanError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or_else(|| {
            PlanError::Schema(format!("step {idx} ({op}): missing string field \"{key}\""))
        })
}

fn opt_f64_field(obj: &Json, key: &str, op: &str, idx: usize) -> Result<Option<f64>, PlanError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| {
            PlanError::Schema(format!(
                "step {idx} ({op}): field \"{key}\" must be a number"
            ))
        }),
    }
}

fn opt_usize_field(
    obj: &Json,
    key: &str,
    op: &str,
    idx: usize,
) -> Result<Option<usize>, PlanError> {
    match opt_f64_field(obj, key, op, idx)? {
        None => Ok(None),
        Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => Ok(Some(v as usize)),
        Some(v) => Err(PlanError::Schema(format!(
            "step {idx} ({op}): field \"{key}\" must be a non-negative integer, got {v}"
        ))),
    }
}

/// Rejects fields outside `allowed` (plus `op`/`note`) so plan typos fail
/// loudly instead of silently no-opting.
fn check_keys(obj: &Json, allowed: &[&str], op: &str, idx: usize) -> Result<(), PlanError> {
    let Json::Obj(fields) = obj else {
        return Err(PlanError::Schema(format!("step {idx}: not an object")));
    };
    for (k, _) in fields {
        if k != "op" && k != "note" && !allowed.contains(&k.as_str()) {
            return Err(PlanError::Schema(format!(
                "step {idx} ({op}): unknown field \"{k}\""
            )));
        }
    }
    Ok(())
}

fn parse_step(obj: &Json, idx: usize) -> Result<(Step, Option<String>), PlanError> {
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| PlanError::Schema(format!("step {idx}: missing \"op\"")))?
        .to_string();
    let note = obj.get("note").and_then(Json::as_str).map(String::from);
    let step = match op.as_str() {
        "run" => {
            check_keys(obj, &["seed", "checkpoint_every"], &op, idx)?;
            Step::Run {
                seed: opt_usize_field(obj, "seed", &op, idx)?.unwrap_or(7) as u64,
                checkpoint_every: opt_usize_field(obj, "checkpoint_every", &op, idx)?.unwrap_or(4),
            }
        }
        "checkpoint" => {
            check_keys(obj, &["path"], &op, idx)?;
            Step::Checkpoint {
                path: str_field(obj, "path", &op, idx)?,
            }
        }
        "export_ply" => {
            check_keys(obj, &["path"], &op, idx)?;
            Step::ExportPly {
                path: str_field(obj, "path", &op, idx)?,
            }
        }
        "import_ply" => {
            check_keys(obj, &["path"], &op, idx)?;
            Step::ImportPly {
                path: str_field(obj, "path", &op, idx)?,
            }
        }
        "assert_ply_roundtrip" => {
            check_keys(obj, &["path"], &op, idx)?;
            Step::AssertPlyRoundtrip {
                path: str_field(obj, "path", &op, idx)?,
            }
        }
        "decimate" => {
            check_keys(obj, &["budget", "keep_fraction"], &op, idx)?;
            let budget = opt_usize_field(obj, "budget", &op, idx)?;
            let keep_fraction = opt_f64_field(obj, "keep_fraction", &op, idx)?;
            if budget.is_some() == keep_fraction.is_some() {
                return Err(PlanError::Schema(format!(
                    "step {idx} (decimate): exactly one of \"budget\" or \
                     \"keep_fraction\" is required"
                )));
            }
            if let Some(f) = keep_fraction {
                if !(0.0..=1.0).contains(&f) {
                    return Err(PlanError::Schema(format!(
                        "step {idx} (decimate): keep_fraction {f} outside [0, 1]"
                    )));
                }
            }
            Step::Decimate {
                budget,
                keep_fraction,
            }
        }
        "eval_psnr" => {
            check_keys(obj, &["min_db", "max_drop_db"], &op, idx)?;
            Step::EvalPsnr {
                min_db: opt_f64_field(obj, "min_db", &op, idx)?,
                max_drop_db: opt_f64_field(obj, "max_drop_db", &op, idx)?,
            }
        }
        "decode_snapshot" => {
            check_keys(obj, &["path"], &op, idx)?;
            Step::DecodeSnapshot {
                path: str_field(obj, "path", &op, idx)?,
            }
        }
        other => {
            return Err(PlanError::Schema(format!(
                "step {idx}: unknown op \"{other}\""
            )))
        }
    };
    Ok((step, note))
}

/// Parses a plan document. `base_dir` is the plan file's directory and
/// `fallback_name` the file stem (used when the document has no `name`).
pub fn parse_plan(input: &str, base_dir: &Path, fallback_name: &str) -> Result<Plan, PlanError> {
    let doc = json::parse(input).map_err(|e| PlanError::Parse(format!("{e:?}")))?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or(fallback_name)
        .to_string();
    let steps_json = doc
        .get("steps")
        .and_then(Json::as_arr)
        .ok_or_else(|| PlanError::Schema("plan must carry a \"steps\" array".into()))?;
    if steps_json.is_empty() {
        return Err(PlanError::Schema("plan has no steps".into()));
    }
    let steps = steps_json
        .iter()
        .enumerate()
        .map(|(i, s)| parse_step(s, i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Plan {
        name,
        base_dir: base_dir.to_path_buf(),
        steps,
    })
}

/// Loads and parses a plan file.
pub fn load_plan(path: &Path) -> Result<Plan, PlanError> {
    let input = std::fs::read_to_string(path)
        .map_err(|e| PlanError::Io(format!("read {}: {e}", path.display())))?;
    let base_dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("plan");
    parse_plan(&input, &base_dir, stem)
}

/// State threaded between steps of one plan execution.
struct PlanContext {
    dataset: Option<Dataset>,
    result: Option<SlamResult>,
    scene: Option<GaussianScene>,
    render_cfg: splatonic_render::RenderConfig,
    last_snapshot: Option<Vec<u8>>,
    reference_psnr: Option<f64>,
    last_eval_psnr: Option<f64>,
}

impl PlanContext {
    fn dataset(&self, op: &str) -> Result<&Dataset, PlanError> {
        self.dataset
            .as_ref()
            .ok_or_else(|| PlanError::State(format!("{op} requires a completed \"run\" step")))
    }

    fn scene_mut(&mut self, op: &str) -> Result<&mut GaussianScene, PlanError> {
        self.scene
            .as_mut()
            .ok_or_else(|| PlanError::State(format!("{op} requires a completed \"run\" step")))
    }
}

/// Resolves a step path: absolute verbatim; otherwise plan-file-relative
/// when that file exists (committed fixtures), else into the artifact dir.
fn resolve_read(plan: &Plan, plan_dir: &Path, rel: &str) -> PathBuf {
    let p = Path::new(rel);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    let fixture = plan.base_dir.join(p);
    if fixture.exists() {
        fixture
    } else {
        plan_dir.join(p)
    }
}

/// Resolves a write path: absolute verbatim, otherwise into the artifact
/// directory (writes never land next to the committed plan).
fn resolve_write(plan_dir: &Path, rel: &str) -> Result<PathBuf, PlanError> {
    let p = Path::new(rel);
    let full = if p.is_absolute() {
        p.to_path_buf()
    } else {
        plan_dir.join(p)
    };
    if let Some(parent) = full.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| PlanError::Io(format!("create {}: {e}", parent.display())))?;
    }
    Ok(full)
}

/// Executes a loaded plan. Artifacts (exports, checkpoints) land in
/// `plan_dir`; the SLAM pass uses `settings` (so `--quick` scales the plan
/// run the same way it scales experiments). The returned outcome carries a
/// per-step log; the first failing step aborts the plan with its error.
pub fn run_plan(
    plan: &Plan,
    settings: &Settings,
    plan_dir: &Path,
) -> Result<PlanOutcome, PlanError> {
    let telemetry = Telemetry::enabled();
    let mut ctx = PlanContext {
        dataset: None,
        result: None,
        scene: None,
        render_cfg: splatonic_render::RenderConfig::default(),
        last_snapshot: None,
        reference_psnr: None,
        last_eval_psnr: None,
    };
    let mut outcome = PlanOutcome {
        name: plan.name.clone(),
        log: Vec::new(),
        run_psnr_db: None,
        final_psnr_db: None,
    };
    for (idx, (step, note)) in plan.steps.iter().enumerate() {
        let line = execute_step(step, idx, plan, plan_dir, settings, &telemetry, &mut ctx)?;
        let line = match note {
            Some(n) => format!("{line} ({n})"),
            None => line,
        };
        outcome.log.push(line);
        if let Step::Run { .. } = step {
            outcome.run_psnr_db = ctx.result.as_ref().map(|r| r.psnr_db);
        }
        if let Step::EvalPsnr { .. } = step {
            outcome.final_psnr_db = ctx.last_eval_psnr;
        }
    }
    Ok(outcome)
}

fn execute_step(
    step: &Step,
    idx: usize,
    plan: &Plan,
    plan_dir: &Path,
    settings: &Settings,
    telemetry: &Telemetry,
    ctx: &mut PlanContext,
) -> Result<String, PlanError> {
    match step {
        Step::Run {
            seed,
            checkpoint_every,
        } => {
            let dataset = Dataset::replica_like("plan-room", *seed, settings.dataset_config());
            let mut cfg = SlamConfig::splatonic(AlgorithmConfig::default());
            cfg.seed = *seed;
            cfg.checkpoint_every = *checkpoint_every;
            ctx.render_cfg = cfg.render;
            let mut system = SlamSystem::new(cfg, dataset.intrinsics);
            let mut last_snapshot = None;
            let result = system
                .run_with_checkpoints(&dataset, telemetry, &mut |_, bytes| {
                    last_snapshot = Some(bytes.to_vec());
                    Ok(())
                })
                .map_err(|e| PlanError::Codec(format!("step {idx} (run): {e}")))?;
            let line = format!(
                "run: {} frames, PSNR {:.2} dB, ATE {:.2} cm, {} gaussians",
                result.frames,
                result.psnr_db,
                result.ate_cm,
                system.scene().len()
            );
            ctx.scene = Some(system.scene().clone());
            ctx.dataset = Some(dataset);
            ctx.result = Some(result);
            ctx.last_snapshot = last_snapshot;
            Ok(line)
        }
        Step::Checkpoint { path } => {
            let bytes = ctx.last_snapshot.as_ref().ok_or_else(|| {
                PlanError::State(format!(
                    "step {idx} (checkpoint): the run cut no snapshot \
                     (checkpoint_every 0?)"
                ))
            })?;
            let full = resolve_write(plan_dir, path)?;
            std::fs::write(&full, bytes)
                .map_err(|e| PlanError::Io(format!("write {}: {e}", full.display())))?;
            Ok(format!(
                "checkpoint: {} bytes -> {}",
                bytes.len(),
                full.display()
            ))
        }
        Step::ExportPly { path } => {
            let full = resolve_write(plan_dir, path)?;
            let scene = ctx.scene_mut(&format!("step {idx} (export_ply)"))?;
            let n = scene.len();
            assets::write_scene_ply(scene, &full, telemetry)
                .map_err(|e| PlanError::Codec(format!("step {idx} (export_ply): {e}")))?;
            Ok(format!("export_ply: {n} gaussians -> {}", full.display()))
        }
        Step::ImportPly { path } => {
            let full = resolve_read(plan, plan_dir, path);
            let scene = assets::read_scene_ply(&full, telemetry)
                .map_err(|e| PlanError::Codec(format!("step {idx} (import_ply): {e}")))?;
            let n = scene.len();
            ctx.scene = Some(scene);
            Ok(format!("import_ply: {n} gaussians <- {}", full.display()))
        }
        Step::AssertPlyRoundtrip { path } => {
            let full = resolve_read(plan, plan_dir, path);
            let bytes = std::fs::read(&full)
                .map_err(|e| PlanError::Io(format!("read {}: {e}", full.display())))?;
            let scene = ply::decode_ply(&bytes)
                .map_err(|e| PlanError::Codec(format!("step {idx} (assert_ply_roundtrip): {e}")))?;
            let reencoded = ply::encode_ply(&scene);
            if reencoded != bytes {
                return Err(PlanError::Assertion(format!(
                    "step {idx} (assert_ply_roundtrip): {} re-encodes to {} \
                     bytes != original {} bytes (or content differs)",
                    full.display(),
                    reencoded.len(),
                    bytes.len()
                )));
            }
            Ok(format!(
                "assert_ply_roundtrip: {} is bit-stable ({} gaussians, {} bytes)",
                full.display(),
                scene.len(),
                bytes.len()
            ))
        }
        Step::Decimate {
            budget,
            keep_fraction,
        } => {
            let scene = ctx.scene_mut(&format!("step {idx} (decimate)"))?;
            let stats = match (budget, keep_fraction) {
                (Some(b), None) => lod::decimate(scene, *b),
                (None, Some(f)) => lod::decimate_fraction(scene, *f),
                _ => unreachable!("parser enforces exactly one"),
            };
            telemetry.counter_add("lod/pruned", stats.pruned as u64);
            Ok(format!(
                "decimate: kept {} / pruned {}",
                stats.kept, stats.pruned
            ))
        }
        Step::EvalPsnr {
            min_db,
            max_drop_db,
        } => {
            let op = format!("step {idx} (eval_psnr)");
            let dataset = ctx.dataset(&op)?;
            let result = ctx.result.as_ref().ok_or_else(|| {
                PlanError::State(format!("{op} requires a completed \"run\" step"))
            })?;
            let scene = ctx.scene.as_ref().ok_or_else(|| {
                PlanError::State(format!("{op} requires a completed \"run\" step"))
            })?;
            let psnr = evaluate_scene_psnr(
                scene,
                dataset.intrinsics,
                &ctx.render_cfg,
                dataset,
                &result.est_poses,
                1,
            );
            if let Some(floor) = min_db {
                if psnr < *floor {
                    return Err(PlanError::Assertion(format!(
                        "{op}: PSNR {psnr:.2} dB below floor {floor:.2} dB"
                    )));
                }
            }
            if let Some(max_drop) = max_drop_db {
                let reference = ctx.reference_psnr.ok_or_else(|| {
                    PlanError::State(format!(
                        "{op}: max_drop_db needs an earlier bare eval_psnr as reference"
                    ))
                })?;
                let drop = reference - psnr;
                if drop > *max_drop {
                    return Err(PlanError::Assertion(format!(
                        "{op}: PSNR dropped {drop:.2} dB (from {reference:.2} to \
                         {psnr:.2}), allowed {max_drop:.2}"
                    )));
                }
            }
            if ctx.reference_psnr.is_none() {
                ctx.reference_psnr = Some(psnr);
            }
            ctx.last_eval_psnr = Some(psnr);
            Ok(format!(
                "eval_psnr: {psnr:.2} dB over {} gaussians",
                scene.len()
            ))
        }
        Step::DecodeSnapshot { path } => {
            let full = resolve_read(plan, plan_dir, path);
            let bytes = std::fs::read(&full)
                .map_err(|e| PlanError::Io(format!("read {}: {e}", full.display())))?;
            let snap = Snapshot::from_bytes(&bytes)
                .map_err(|e| PlanError::Codec(format!("step {idx} (decode_snapshot): {e:?}")))?;
            Ok(format!(
                "decode_snapshot: {} ok ({} gaussians, next_frame {})",
                full.display(),
                snap.gaussians.len(),
                snap.next_frame
            ))
        }
    }
}

/// [`load_plan`] + [`run_plan`] in one call (what `figures --plan` does).
pub fn run_plan_file(
    path: &Path,
    settings: &Settings,
    plan_dir: &Path,
) -> Result<PlanOutcome, PlanError> {
    let plan = load_plan(path)?;
    run_plan(&plan, settings, plan_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(body: &str) -> Result<Plan, PlanError> {
        parse_plan(
            &format!(r#"{{"name": "t", "steps": [{body}]}}"#),
            Path::new("/plans"),
            "t",
        )
    }

    #[test]
    fn roundtrip_plan_parses() {
        let plan = parse_one(
            r#"{"op": "run", "seed": 3},
               {"op": "export_ply", "path": "s.ply", "note": "full map"},
               {"op": "decimate", "keep_fraction": 0.5},
               {"op": "eval_psnr", "min_db": 10.0, "max_drop_db": 2.0},
               {"op": "decode_snapshot", "path": "fixtures/v1.snap"}"#,
        )
        .unwrap();
        assert_eq!(plan.steps.len(), 5);
        assert_eq!(
            plan.steps[0].0,
            Step::Run {
                seed: 3,
                checkpoint_every: 4
            }
        );
        assert_eq!(plan.steps[1].1.as_deref(), Some("full map"));
    }

    #[test]
    fn unknown_op_and_field_are_schema_errors() {
        assert!(matches!(
            parse_one(r#"{"op": "frobnicate"}"#),
            Err(PlanError::Schema(_))
        ));
        assert!(matches!(
            parse_one(r#"{"op": "run", "sede": 3}"#),
            Err(PlanError::Schema(_))
        ));
        assert!(matches!(
            parse_one(r#"{"op": "export_ply"}"#),
            Err(PlanError::Schema(_))
        ));
    }

    #[test]
    fn decimate_needs_exactly_one_knob() {
        for body in [
            r#"{"op": "decimate"}"#,
            r#"{"op": "decimate", "budget": 10, "keep_fraction": 0.5}"#,
            r#"{"op": "decimate", "keep_fraction": 1.5}"#,
            r#"{"op": "decimate", "budget": -3}"#,
        ] {
            assert!(
                matches!(parse_one(body), Err(PlanError::Schema(_))),
                "{body} must be rejected"
            );
        }
        assert!(parse_one(r#"{"op": "decimate", "budget": 10}"#).is_ok());
    }

    #[test]
    fn empty_and_invalid_documents_are_rejected() {
        assert!(matches!(
            parse_plan("{", Path::new("."), "x"),
            Err(PlanError::Parse(_))
        ));
        assert!(matches!(
            parse_plan(r#"{"steps": []}"#, Path::new("."), "x"),
            Err(PlanError::Schema(_))
        ));
        assert!(matches!(
            parse_plan(r#"{"name": "n"}"#, Path::new("."), "x"),
            Err(PlanError::Schema(_))
        ));
    }

    #[test]
    fn steps_before_run_are_state_errors() {
        let plan = parse_one(r#"{"op": "export_ply", "path": "s.ply"}"#).unwrap();
        let dir = std::env::temp_dir().join(format!("splatonic-plan-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_plan(&plan, &Settings::quick(), &dir).unwrap_err();
        assert!(matches!(err, PlanError::State(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_paths_prefer_plan_file_relative_fixtures() {
        let base = std::env::temp_dir().join(format!("splatonic-plan-res-{}", std::process::id()));
        let plans = base.join("plans");
        let artifacts = base.join("artifacts");
        std::fs::create_dir_all(&plans).unwrap();
        std::fs::create_dir_all(&artifacts).unwrap();
        std::fs::write(plans.join("fixture.bin"), b"x").unwrap();
        let plan = Plan {
            name: "t".into(),
            base_dir: plans.clone(),
            steps: Vec::new(),
        };
        // Exists next to the plan: resolved there.
        assert_eq!(
            resolve_read(&plan, &artifacts, "fixture.bin"),
            plans.join("fixture.bin")
        );
        // Does not: resolved into the artifact dir.
        assert_eq!(
            resolve_read(&plan, &artifacts, "out.ply"),
            artifacts.join("out.ply")
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn full_roundtrip_plan_executes() {
        // The committed plan's shape end to end on the quick dataset:
        // run -> checkpoint -> export -> stability assert -> reference
        // eval -> import -> decimate -> bounded eval -> v1 fixture decode.
        let dir = std::env::temp_dir().join(format!("splatonic-plan-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = parse_plan(
            r#"{"name": "e2e", "steps": [
                 {"op": "run"},
                 {"op": "checkpoint", "path": "last.snap"},
                 {"op": "export_ply", "path": "full.ply"},
                 {"op": "assert_ply_roundtrip", "path": "full.ply"},
                 {"op": "import_ply", "path": "full.ply"},
                 {"op": "eval_psnr"},
                 {"op": "decimate", "keep_fraction": 0.5},
                 {"op": "eval_psnr", "min_db": 8.0, "max_drop_db": 28.0},
                 {"op": "decode_snapshot", "path": "last.snap"}
               ]}"#,
            &dir,
            "e2e",
        )
        .unwrap();
        let outcome = run_plan(&plan, &Settings::quick(), &dir).unwrap();
        assert_eq!(outcome.log.len(), 9);
        assert!(outcome.run_psnr_db.unwrap() > 10.0);
        assert!(outcome.final_psnr_db.is_some());
        assert!(dir.join("full.ply").exists());
        assert!(dir.join("last.snap").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decimate_step_emits_pruned_counter() {
        // The plan's `decimate` op is the only producer of `lod/pruned`.
        let mut scene = GaussianScene::new();
        for i in 0..10 {
            scene.push(splatonic_scene::Gaussian::new(
                splatonic_math::Vec3::new(0.1 * i as f64, 0.0, 2.0),
                splatonic_math::Vec3::splat(0.02 + 0.01 * i as f64),
                splatonic_math::Quat::IDENTITY,
                0.5,
                splatonic_math::Vec3::splat(0.5),
            ));
        }
        let mut ctx = PlanContext {
            dataset: None,
            result: None,
            scene: Some(scene),
            render_cfg: splatonic_render::RenderConfig::default(),
            last_snapshot: None,
            reference_psnr: None,
            last_eval_psnr: None,
        };
        let plan = parse_one(r#"{"op": "decimate", "budget": 4}"#).unwrap();
        let telemetry = Telemetry::enabled();
        let line = execute_step(
            &plan.steps[0].0,
            0,
            &plan,
            Path::new("."),
            &Settings::quick(),
            &telemetry,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(line, "decimate: kept 4 / pruned 6");
        assert_eq!(ctx.scene.as_ref().map(GaussianScene::len), Some(4));
        let report = telemetry.finish("decimate", Default::default());
        let pruned = report
            .counters
            .iter()
            .find(|(name, _)| name == "lod/pruned")
            .map(|(_, v)| *v);
        assert_eq!(pruned, Some(6));
    }

    #[test]
    fn psnr_floor_violation_fails_the_plan() {
        let dir = std::env::temp_dir().join(format!("splatonic-plan-floor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = parse_plan(
            r#"{"name": "floor", "steps": [
                 {"op": "run"},
                 {"op": "eval_psnr", "min_db": 99.0}
               ]}"#,
            &dir,
            "floor",
        )
        .unwrap();
        let err = run_plan(&plan, &Settings::quick(), &dir).unwrap_err();
        assert!(matches!(err, PlanError::Assertion(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
