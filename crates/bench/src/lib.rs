//! Benchmark harness regenerating every table and figure of the SPLATONIC
//! paper's evaluation (see DESIGN.md §4 for the experiment index).
//!
//! Run `cargo run --release -p splatonic-bench --bin figures -- all` to
//! print every figure's rows; pass individual ids (`fig04`, `fig10`, …,
//! `area`) to regenerate one, and `--quick` for a scaled-down pass.

#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod experiments;
pub mod record;
pub mod report;
pub mod tables;

pub use tables::Table;

/// Harness-wide settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// Scaled-down mode: fewer/shorter sequences at lower resolution.
    pub quick: bool,
}

impl Settings {
    /// Full-evaluation settings.
    pub fn full() -> Self {
        Settings { quick: false }
    }

    /// Quick settings for smoke runs.
    pub fn quick() -> Self {
        Settings { quick: true }
    }

    /// Dataset configuration for accuracy experiments.
    pub fn dataset_config(&self) -> splatonic_slam::DatasetConfig {
        if self.quick {
            splatonic_slam::DatasetConfig {
                width: 96,
                height: 72,
                frames: 12,
                spacing: 0.24,
                fov: 1.25,
                furniture: 3,
                depth_dropout_coverage: 0.9,
            }
        } else {
            splatonic_slam::DatasetConfig {
                width: 128,
                height: 96,
                frames: 20,
                spacing: 0.2,
                fov: 1.25,
                furniture: 4,
                depth_dropout_coverage: 0.9,
            }
        }
    }

    /// Replica-like sequences to evaluate.
    pub fn replica_sequences(&self) -> Vec<(&'static str, u64)> {
        let all = splatonic_scene::world::replica_sequences();
        if self.quick {
            all.into_iter().take(2).collect()
        } else {
            all
        }
    }

    /// TUM-like sequences to evaluate.
    pub fn tum_sequences(&self) -> Vec<(&'static str, u64)> {
        let all = splatonic_scene::world::tum_sequences();
        if self.quick {
            all.into_iter().take(1).collect()
        } else {
            all
        }
    }
}

impl Default for Settings {
    fn default() -> Self {
        Settings::full()
    }
}

/// All experiment ids, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "fig04", "fig05", "fig07", "fig08", "fig09", "fig10", "fig11", "fig14", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "fig27", "area",
];

/// Runs one experiment by id, returning its tables.
///
/// # Panics
///
/// Panics on an unknown experiment id.
pub fn run_experiment(id: &str, settings: &Settings) -> Vec<Table> {
    match id {
        "fig04" => experiments::characterization::fig04(settings),
        "fig05" => experiments::characterization::fig05(settings),
        "fig07" => experiments::characterization::fig07(settings),
        "fig08" => experiments::characterization::fig08(settings),
        "fig09" => experiments::characterization::fig09(settings),
        "fig10" => experiments::accuracy::fig10(settings),
        "fig11" => experiments::performance::fig11(settings),
        "fig14" => experiments::performance::fig14(settings),
        "fig17" => experiments::accuracy::fig17(settings),
        "fig18" => experiments::accuracy::fig18(settings),
        "fig19" => experiments::performance::fig19(settings),
        "fig20" => experiments::performance::fig20(settings),
        "fig21" => experiments::performance::fig21(settings),
        "fig22" => experiments::hardware::fig22(settings),
        "fig23" => experiments::hardware::fig23(settings),
        "fig24" => experiments::accuracy::fig24(settings),
        "fig25" => experiments::hardware::fig25(settings),
        "fig26" => experiments::accuracy::fig26(settings),
        "fig27" => experiments::hardware::fig27(settings),
        "area" => experiments::hardware::area(settings),
        "ablations" => experiments::ablations::all(settings),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_dispatch() {
        // `area` is cheap enough to actually run here.
        let t = run_experiment("area", &Settings::quick());
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("fig99", &Settings::quick());
    }

    #[test]
    fn quick_settings_are_smaller() {
        let q = Settings::quick().dataset_config();
        let f = Settings::full().dataset_config();
        assert!(q.width < f.width);
        assert!(q.frames < f.frames);
        assert!(Settings::quick().replica_sequences().len() < 8);
    }
}
