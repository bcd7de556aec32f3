//! SPLATONIC hardware configuration (paper Sec. VI).

/// The accelerator's unit counts and buffer sizes.
///
/// Defaults match the paper: *"SPLATONIC consists of eight projection
/// units, four hierarchical sorting units, four rasterization engines, and
/// one aggregation unit. We augment each projection unit with four α-filter
/// units. Each rasterization engine has 2×2 render units and 2×2 reverse
/// render units … an 8 KB double buffer … a 64 KB global double buffer …
/// the aggregation unit is designed with four channels … with a 32 KB
/// Gaussian cache and a 8 KB scoreboard."* Clocked at 500 MHz.
///
/// # Examples
///
/// ```
/// use splatonic_accel::SplatonicConfig;
/// let cfg = SplatonicConfig::paper();
/// assert_eq!(cfg.projection_units, 8);
/// assert_eq!(cfg.render_units_per_engine, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplatonicConfig {
    /// Number of projection units.
    pub projection_units: usize,
    /// α-filter (LUT-exp) units per projection unit.
    pub alpha_filters_per_unit: usize,
    /// Hierarchical sorting units.
    pub sorting_units: usize,
    /// Rasterization engines.
    pub raster_engines: usize,
    /// Render units per engine (2×2 in the paper).
    pub render_units_per_engine: usize,
    /// Reverse render units per engine (2×2 in the paper).
    pub reverse_units_per_engine: usize,
    /// Aggregation-unit channels.
    pub aggregation_channels: usize,
    /// Γ/C double buffer per engine, bytes.
    pub engine_buffer_bytes: usize,
    /// Global double buffer, bytes.
    pub global_buffer_bytes: usize,
    /// Aggregation Gaussian cache, bytes.
    pub gaussian_cache_bytes: usize,
    /// Aggregation scoreboard, bytes.
    pub scoreboard_bytes: usize,
    /// Clock in MHz.
    pub clock_mhz: f64,
    /// Cycles for one Gaussian's projection (transform + conic).
    pub projection_cycles: f64,
    /// Candidate α-checks per α-filter unit per cycle (LUT-based exp).
    pub alpha_checks_per_filter_cycle: f64,
    /// Sort throughput: elements merged per sorter per cycle (the
    /// hierarchical sorters are bitonic merge networks handling several
    /// elements per cycle).
    pub sort_elems_per_unit_cycle: f64,
    /// Pairs blended per render unit per cycle (a blend is ~5 MACs —
    /// three color channels, depth, and the Γ update — on a compact unit).
    pub blend_per_unit_cycle: f64,
    /// Pairs differentiated per reverse render unit per cycle.
    pub grad_per_unit_cycle: f64,
    /// Cycles per re-projection (per touched Gaussian, on projection units).
    pub reprojection_cycles: f64,
    /// Pipeline fill/drain overhead per pass, cycles.
    pub pipeline_fill_cycles: f64,
}

impl SplatonicConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        SplatonicConfig {
            projection_units: 8,
            alpha_filters_per_unit: 4,
            sorting_units: 4,
            raster_engines: 4,
            render_units_per_engine: 4,
            reverse_units_per_engine: 4,
            aggregation_channels: 4,
            engine_buffer_bytes: 8 * 1024,
            global_buffer_bytes: 64 * 1024,
            gaussian_cache_bytes: 32 * 1024,
            scoreboard_bytes: 8 * 1024,
            clock_mhz: 500.0,
            projection_cycles: 4.0,
            alpha_checks_per_filter_cycle: 1.0,
            sort_elems_per_unit_cycle: 8.0,
            blend_per_unit_cycle: 0.5,
            grad_per_unit_cycle: 0.5,
            reprojection_cycles: 8.0,
            pipeline_fill_cycles: 64.0,
        }
    }

    /// A variant with different projection / render unit counts (for the
    /// paper's Fig. 27 sensitivity study). Buffer sizes scale with the PE
    /// counts, as the paper couples them for double buffering.
    pub fn with_units(mut self, projection_units: usize, render_units: usize) -> Self {
        let scale = render_units as f64 / self.render_units_per_engine as f64;
        self.projection_units = projection_units;
        self.render_units_per_engine = render_units;
        self.reverse_units_per_engine = render_units;
        self.engine_buffer_bytes = (self.engine_buffer_bytes as f64 * scale) as usize;
        self
    }

    /// Clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_mhz * 1e6
    }

    /// Seconds per cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.clock_hz()
    }

    /// Total α-check throughput per cycle.
    pub fn alpha_check_rate(&self) -> f64 {
        self.projection_units as f64
            * self.alpha_filters_per_unit as f64
            * self.alpha_checks_per_filter_cycle
    }

    /// Total blend throughput per cycle.
    pub fn blend_rate(&self) -> f64 {
        self.raster_engines as f64 * self.render_units_per_engine as f64 * self.blend_per_unit_cycle
    }

    /// Total gradient throughput per cycle.
    pub fn grad_rate(&self) -> f64 {
        self.raster_engines as f64 * self.reverse_units_per_engine as f64 * self.grad_per_unit_cycle
    }
}

impl Default for SplatonicConfig {
    fn default() -> Self {
        SplatonicConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_values() {
        let c = SplatonicConfig::paper();
        assert_eq!(c.projection_units, 8);
        assert_eq!(c.alpha_filters_per_unit, 4);
        assert_eq!(c.sorting_units, 4);
        assert_eq!(c.raster_engines, 4);
        assert_eq!(c.aggregation_channels, 4);
        assert_eq!(c.gaussian_cache_bytes, 32 * 1024);
        assert_eq!(c.scoreboard_bytes, 8 * 1024);
        assert!((c.clock_mhz - 500.0).abs() < 1e-12);
    }

    #[test]
    fn derived_rates() {
        let c = SplatonicConfig::paper();
        assert_eq!(c.alpha_check_rate(), 32.0);
        assert_eq!(c.blend_rate(), 8.0);
        assert_eq!(c.grad_rate(), 8.0);
        assert!((c.cycle_seconds() - 2e-9).abs() < 1e-15);
    }

    #[test]
    fn with_units_scales_buffers() {
        let c = SplatonicConfig::paper().with_units(16, 8);
        assert_eq!(c.projection_units, 16);
        assert_eq!(c.render_units_per_engine, 8);
        assert_eq!(c.engine_buffer_bytes, 16 * 1024);
    }
}
