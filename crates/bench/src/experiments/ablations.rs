//! Ablations of SPLATONIC's design choices (DESIGN.md §7): items the paper
//! motivates in prose (LUT size, preemptive α-checking, the Γ/C cache, the
//! aggregation unit's channel count) quantified on measured workloads.

use crate::experiments::{canonical_scenario, measurements};
use crate::tables::{fmt_f, fmt_x, Table};
use crate::Settings;
use splatonic::harness::measure_dense_iteration;
use splatonic_accel::aggregation::{simulate, AggregationConfig};
use splatonic_accel::{DramModel, SplatonicAccel, SplatonicConfig};
use splatonic_math::ExpLut;
use splatonic_render::Pipeline;

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

/// Tile-grouping ablation (DESIGN.md §16): one dense tile frame priced on
/// SPLATONIC's hierarchical sorters with the conventional per-tile sort
/// schedule versus the GS-TG-style grouped schedule (one shared sort per
/// tile group, per-tile lists derived by masking). The trace counts the
/// grouped schedule and carries the per-tile one
/// ([`splatonic_render::trace::ForwardStats::per_tile_sort`]), so one
/// render prices both. The grouped row uses the grouping-aware hardware
/// config, which additionally charges the mask/scatter stream pass — the
/// win reported is net of that cost.
pub fn tile_grouping(settings: &Settings) -> Vec<Table> {
    let scenario = canonical_scenario(settings);
    let m = measure_dense_iteration(&scenario, Pipeline::TileBased);
    let f = &m.trace.forward;
    let (per_tile_lists, per_tile_elems) = f.per_tile_sort();
    let base_report = SplatonicAccel::paper().price(&m.workload);
    let mut grouped_accel = SplatonicAccel::paper();
    grouped_accel.config = SplatonicConfig::paper().with_tile_grouping(true);
    let grouped_report = grouped_accel.price(&m.workload);

    let mut t = Table::new(
        "Ablation — tile grouping in the hierarchical sorters (dense tile frame)",
        &[
            "variant",
            "sort elems",
            "sort lists",
            "sorting cycles",
            "total (s)",
        ],
    );
    t.row([
        "SPLATONIC".to_string(),
        per_tile_elems.to_string(),
        per_tile_lists.to_string(),
        format!("{:.0}", base_report.sorting_cycles),
        format!("{:.2e}", base_report.total_seconds()),
    ]);
    t.row([
        "SPLATONIC+tile-grouping".to_string(),
        f.sort_elems.to_string(),
        f.sort_lists.to_string(),
        format!("{:.0}", grouped_report.sorting_cycles),
        format!("{:.2e}", grouped_report.total_seconds()),
    ]);
    t.row([
        "sorting-cycle saving".to_string(),
        fmt_x(per_tile_elems as f64 / f.sort_elems.max(1) as f64),
        format!("group reuse: {}", f.sort_group_reuse),
        fmt_x(base_report.sorting_cycles / grouped_report.sorting_cycles.max(1.0)),
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
    out.extend(tile_grouping(settings));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_grouping_row_shows_sorting_win() {
        let t = &tile_grouping(&Settings::quick())[0];
        let row = |name: &str| &t.rows.iter().find(|r| r[0] == name).unwrap()[1..4];
        // The grouped schedule compares fewer elements in fewer, larger
        // shared sorts. (The ≥2× acceptance bar is on sort_elems with the
        // frame-coherent cache included — measured by the kernels A/B run
        // into BENCH_sort.json, not by this single cold frame.) Sort
        // elements, lists and sorting cycles are pinned to the values each
        // schedule gave when it was rendered on its own.
        assert_eq!(row("SPLATONIC"), ["13396", "30", "3685"]);
        assert_eq!(row("SPLATONIC+tile-grouping"), ["9558", "9", "3421"]);
        assert_eq!(t.rows[2][2], "group reuse: 21");
    }

    #[test]
    fn lut_table_has_paper_row() {
        let t = &lut_sweep(&Settings::quick())[0];
        let row64 = t.rows.iter().find(|r| r[0] == "64").unwrap();
        assert_eq!(row64[2], "yes", "64 entries must be below the quantum");
        let row8 = t.rows.iter().find(|r| r[0] == "8").unwrap();
        assert_eq!(row8[2], "no", "8 entries must be insufficient");
    }
}
