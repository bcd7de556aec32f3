//! GPU performance experiments (paper Fig. 11, 14, 19, 20, 21).

use crate::experiments::{canonical_scenario, measurements, MeasurementSet};
use crate::tables::{fmt_time, fmt_x, Table};
use crate::Settings;
use splatonic_gpusim::{GpuConfig, GpuEnergyModel};
use splatonic_slam::algorithm::AlgorithmPreset;

/// Stage latencies of interest: (rasterization, reverse rasterization incl.
/// aggregation — the paper's "reverse rasterization" contains the
/// aggregation stage, see Fig. 8).
fn stage_latencies(m: &splatonic::harness::IterationMeasurement) -> (f64, f64) {
    let r = GpuConfig::orin_like().price(&m.trace, m.pipeline);
    (
        r.forward.rasterization,
        r.backward.reverse_raster + r.backward.aggregation,
    )
}

/// End-to-end iteration cost on the GPU.
fn iteration_cost(m: &splatonic::harness::IterationMeasurement) -> (f64, f64) {
    let cfg = GpuConfig::orin_like();
    let r = cfg.price(&m.trace, m.pipeline);
    let e = GpuEnergyModel::orin_like().price(&m.trace, &r);
    (r.total_seconds(), e.total_j())
}

/// Fig. 11 — rasterization / reverse-rasterization latency during tracking:
/// Org., Org.+S, Ours (paper speedups: ~4.2×/5.2× then ~103×/95×).
pub fn fig11(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let (org_r, org_rr) = stage_latencies(&ms.dense_tile);
    let (s_r, s_rr) = stage_latencies(&ms.sparse_tile);
    let (ours_r, ours_rr) = stage_latencies(&ms.sparse_pixel);
    let mut t = Table::new(
        "Fig. 11 — bottleneck-stage latency during tracking (GPU model)",
        &["variant", "raster", "speedup", "rev-raster", "speedup"],
    );
    t.row(["Org.", &fmt_time(org_r), "1.0x", &fmt_time(org_rr), "1.0x"]);
    t.row([
        "Org.+S".to_string(),
        fmt_time(s_r),
        fmt_x(org_r / s_r),
        fmt_time(s_rr),
        fmt_x(org_rr / s_rr),
    ]);
    t.row([
        "Ours".to_string(),
        fmt_time(ours_r),
        fmt_x(org_r / ours_r),
        fmt_time(ours_rr),
        fmt_x(org_rr / ours_rr),
    ]);
    vec![t]
}

/// Fig. 14 — bottleneck shift after pixel-based rendering: projection's
/// share of forward time rises (paper: 2.1% → 63.8%); reverse
/// rasterization's share of backward time falls (98.7% → ~49%).
pub fn fig14(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let gpu = GpuConfig::orin_like();
    let mut t = Table::new(
        "Fig. 14 — bottleneck shift with pixel-based rendering (tracking)",
        &[
            "variant",
            "projection share (fwd)",
            "rev-raster share (bwd)",
        ],
    );
    for (name, m) in [("Org.+S", &ms.sparse_tile), ("Ours", &ms.sparse_pixel)] {
        let r = gpu.price(&m.trace, m.pipeline);
        let fwd = r.forward.total().max(1e-12);
        let bwd = r.backward.total().max(1e-12);
        t.row([
            name.to_string(),
            format!("{:.1}%", 100.0 * r.forward.projection / fwd),
            format!(
                "{:.1}%",
                100.0 * (r.backward.reverse_raster + r.backward.aggregation) / bwd
            ),
        ]);
    }
    vec![t]
}

/// The algorithm label of Fig. 19/21's one row. The workload shape (and
/// thus the per-iteration ratio) is shared by every preset; algorithms
/// differ in budgets, which cancel in the ratio, so a row per preset would
/// repeat the same numbers.
fn all_presets_label() -> String {
    let names: Vec<&str> = AlgorithmPreset::all().iter().map(|p| p.name()).collect();
    format!("all ({})", names.join(", "))
}

/// Shared engine for Fig. 19/21: e2e tracking speedups.
fn tracking_speedups(ms: &MeasurementSet) -> [(f64, f64); 2] {
    let (org_t, org_e) = iteration_cost(&ms.dense_tile);
    let (s_t, s_e) = iteration_cost(&ms.sparse_tile);
    let (ours_t, ours_e) = iteration_cost(&ms.sparse_pixel);
    [
        (org_t / s_t, 1.0 - s_e / org_e),
        (org_t / ours_t, 1.0 - ours_e / org_e),
    ]
}

/// Fig. 19 — end-to-end GPU speedup and energy saving, one row for all
/// four algorithms (paper: ORG.+S ≈3.4× / 55.5%; SPLATONIC ≈14.6× /
/// 86.1%). The end-to-end speedup equals the tracking speedup because
/// mapping is hidden behind tracking (paper Sec. VII-B).
pub fn fig19(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let [(s_speed, s_save), (ours_speed, ours_save)] = tracking_speedups(&ms);
    let mut t = Table::new(
        "Fig. 19 — end-to-end GPU speedup & energy savings vs dense baseline",
        &[
            "algorithm",
            "ORG.+S speedup",
            "ORG.+S energy saved",
            "SPLATONIC speedup",
            "SPLATONIC energy saved",
        ],
    );
    t.row([
        all_presets_label(),
        fmt_x(s_speed),
        format!("{:.1}%", 100.0 * s_save),
        fmt_x(ours_speed),
        format!("{:.1}%", 100.0 * ours_save),
    ]);
    vec![t]
}

/// Fig. 20 — standalone mapping speedup & energy saving (paper: ≈3.2×,
/// 60.0%): mapping renders ~one pixel per 4×4 tile plus unseen pixels, so
/// the sparse win is smaller than tracking's.
pub fn fig20(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let (org_t, org_e) = iteration_cost(&ms.dense_tile);
    let (ours_t, ours_e) = iteration_cost(&ms.mapping_pixel);
    let mut t = Table::new(
        "Fig. 20 — mapping speedup & energy savings (GPU model)",
        &["variant", "speedup", "energy saved"],
    );
    t.row(["dense mapping (Org.)", "1.0x", "0.0%"]);
    t.row([
        "SPLATONIC mapping (w_m=4)".to_string(),
        fmt_x(org_t / ours_t),
        format!("{:.1}%", 100.0 * (1.0 - ours_e / org_e)),
    ]);
    t.row(["paper".to_string(), "3.2x".to_string(), "60.0%".to_string()]);
    vec![t]
}

/// Fig. 21 — bottleneck-stage speedups during tracking, one row for all
/// four algorithms (paper: sampling alone 4.1×/4.3×; ours 64.4×/77.2×).
pub fn fig21(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let (org_r, org_rr) = stage_latencies(&ms.dense_tile);
    let (s_r, s_rr) = stage_latencies(&ms.sparse_tile);
    let (o_r, o_rr) = stage_latencies(&ms.sparse_pixel);
    let mut t = Table::new(
        "Fig. 21 — bottleneck-stage speedups during tracking",
        &[
            "algorithm",
            "Org.+S raster",
            "Org.+S rev-raster",
            "Ours raster",
            "Ours rev-raster",
        ],
    );
    t.row([
        all_presets_label(),
        fmt_x(org_r / s_r),
        fmt_x(org_rr / s_rr),
        fmt_x(org_r / o_r),
        fmt_x(org_rr / o_rr),
    ]);
    vec![t]
}
