//! Projection-cache statistics, all zero: the renderer keeps no projection
//! cache.
//!
//! Each forward pass hands its projection to its backward pass in
//! [`crate::ForwardResult::handoff`], so no render looks a projection up.
//! [`CacheStats`], [`stats`] and [`clear`] exist only until the benchmark
//! driver stops reading them (ROADMAP item 7(b)), which deletes this module.

/// Projection-cache statistics; every field is always 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// Returns zeros (see the module docs).
pub fn stats() -> CacheStats {
    CacheStats::default()
}

/// Does nothing (see the module docs).
pub fn clear() {}
