//! Ablations of SPLATONIC's design choices (DESIGN.md §7): items the paper
//! motivates in prose (LUT size, preemptive α-checking, the Γ/C cache, the
//! aggregation unit's channel count) quantified on measured workloads.

use crate::experiments::{canonical_scenario, measurements};
use crate::tables::{fmt_f, fmt_x, Table};
use crate::Settings;
use splatonic_accel::aggregation::{simulate, AggregationConfig};
use splatonic_accel::{DramModel, SplatonicAccel};
use splatonic_math::ExpLut;

/// LUT-size sweep (paper Sec. V-C: "a LUT with a size of 64 entries is
/// sufficient"): maximum α error versus the 1/255 α-check quantum.
pub fn lut_sweep(_settings: &Settings) -> Vec<Table> {
    let mut t = Table::new(
        "Ablation — exp-LUT size vs alpha error (threshold quantum = 1/255 = 3.9e-3)",
        &["entries", "max |exp error|", "below quantum"],
    );
    for entries in [8usize, 16, 32, 64, 128, 256] {
        let err = ExpLut::with_entries(entries).max_abs_error();
        t.row([
            entries.to_string(),
            format!("{err:.2e}"),
            if err < 1.0 / 255.0 { "yes" } else { "no" }.to_string(),
        ]);
    }
    vec![t]
}

/// Aggregation-channel sweep on the real mapping gradient stream: cycles
/// and stall fraction per channel count.
pub fn aggregation_sweep(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let stream = &ms.mapping_pixel.workload.grad_stream;
    let dram = DramModel::lpddr3_1600_x4();
    let mut t = Table::new(
        "Ablation — aggregation-unit channels (mapping gradient stream)",
        &["channels", "cycles", "stall fraction", "speedup vs 1ch"],
    );
    let base = simulate(
        stream,
        &AggregationConfig {
            channels: 1,
            retire_per_cycle: 1,
            ..AggregationConfig::paper()
        },
        &dram,
        500e6,
    );
    for channels in [1usize, 2, 4, 8] {
        let cfg = AggregationConfig {
            channels,
            retire_per_cycle: channels,
            ..AggregationConfig::paper()
        };
        let r = simulate(stream, &cfg, &dram, 500e6);
        t.row([
            channels.to_string(),
            r.cycles.to_string(),
            fmt_f(r.stall_fraction(), 3),
            fmt_x(base.cycles as f64 / r.cycles as f64),
        ]);
    }
    vec![t]
}

/// Preemptive α-checking ablation: without it, the render units must
/// α-check every candidate pair in the rasterization stage (paper Sec. V-B:
/// the simplified render unit exists because preemption guarantees every
/// list entry contributes).
pub fn preemptive_alpha(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let accel = SplatonicAccel::paper();
    let w = &ms.sparse_pixel.workload;
    let with = accel.price(w);
    // Without preemption: every candidate flows into rasterization, where
    // it is α-checked (1 extra unit-cycle each) and mostly discarded.
    let candidates = w.proj_alpha_checks as f64;
    let without_raster = candidates * 2.0 / accel.config.blend_rate() + w.pixels as f64;
    let mut t = Table::new(
        "Ablation — preemptive alpha-checking (forward rasterization cycles)",
        &["variant", "raster cycles", "note"],
    );
    t.row([
        "with preemption (paper)".to_string(),
        format!("{:.0}", with.raster_cycles),
        "render units blend contributing pairs only".to_string(),
    ]);
    t.row([
        "without preemption".to_string(),
        format!("{without_raster:.0}"),
        "render units alpha-check every candidate".to_string(),
    ]);
    t.row([
        "saving".to_string(),
        fmt_x(without_raster / with.raster_cycles.max(1.0)),
        String::new(),
    ]);
    vec![t]
}

/// Γ/C caching ablation: without the per-pixel forward cache, the reverse
/// render units need the first cross-thread reduction (a serial prefix
/// product over each pixel's list) before any gradient can be computed
/// (paper Sec. V-B).
pub fn gamma_cache(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let ms = measurements(&scenario);
    let accel = SplatonicAccel::paper();
    let w = &ms.sparse_pixel.workload;
    let with = accel.price(w);
    // Without the cache: per pixel, recompute α for every pair (LUT unit)
    // and run a serial prefix product (1 cycle per element, not
    // parallelizable across lanes) before the gradient pass.
    let prefix: f64 = w.pixel_lists.iter().map(|&l| l as f64).sum();
    let alpha_recompute = prefix / accel.config.alpha_check_rate();
    let without =
        with.reverse_cycles + prefix / accel.config.raster_engines as f64 + alpha_recompute;
    let mut t = Table::new(
        "Ablation — forward Gamma/C caching (reverse-render cycles)",
        &["variant", "reverse cycles", "note"],
    );
    t.row([
        "with Gamma/C buffer (paper)".to_string(),
        format!("{:.0}", with.reverse_cycles),
        "gradients computed directly from cached prefixes".to_string(),
    ]);
    t.row([
        "without buffer".to_string(),
        format!("{without:.0}"),
        "serial prefix reduction + alpha recompute first".to_string(),
    ]);
    t.row([
        "saving".to_string(),
        fmt_x(without / with.reverse_cycles.max(1.0)),
        String::new(),
    ]);
    vec![t]
}

/// All ablations.
pub fn all(settings: &Settings) -> Vec<Table> {
    let mut out = lut_sweep(settings);
    out.extend(aggregation_sweep(settings));
    out.extend(preemptive_alpha(settings));
    out.extend(gamma_cache(settings));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_table_has_paper_row() {
        let t = &lut_sweep(&Settings::quick())[0];
        let row64 = t.rows.iter().find(|r| r[0] == "64").unwrap();
        assert_eq!(row64[2], "yes", "64 entries must be below the quantum");
        let row8 = t.rows.iter().find(|r| r[0] == "8").unwrap();
        assert_eq!(row8[2], "no", "8 entries must be insufficient");
    }
}
