//! Cycle-stepped simulation of the aggregation unit (paper Fig. 16).
//!
//! The unit batch-processes partial gradients from `n` pixels per cycle:
//! a **merge unit** combines same-Gaussian gradients within the batch, a
//! **scoreboard** holds merged partials waiting for their accumulated
//! gradient to arrive in the **Gaussian cache**, and an **accumulation
//! unit** retires scoreboard entries whose cache line is present — hiding
//! off-chip latency behind independent Gaussians' work. We simulate those
//! mechanics against the real gradient stream, so locality and stalls come
//! from measured data.

use crate::dram::DramModel;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for the simulator's `u32` Gaussian ids: one multiply by a 64-bit
/// odd constant, with the well-mixed high half folded into the low bits
/// the table indexes by. The id sets and maps are only looked up, never
/// iterated, so the hash function cannot change a result; std's seeded
/// SipHash costs more than the per-cycle lookups it serves.
#[derive(Default)]
struct IdHasher(u64);

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const ID_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(ID_HASH_MUL);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(ID_HASH_MUL);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type IdSet = HashSet<u32, BuildHasherDefault<IdHasher>>;
type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// Aggregation-unit parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationConfig {
    /// Pixel entries processed per cycle (paper: 4 channels).
    pub channels: usize,
    /// Gaussian-cache capacity in gradient records.
    pub cache_entries: usize,
    /// Scoreboard capacity in merged records.
    pub scoreboard_entries: usize,
    /// Bytes per accumulated-gradient record (load and write-back).
    pub record_bytes: u64,
    /// Scoreboard entries retired per cycle when their line is ready.
    pub retire_per_cycle: usize,
}

impl AggregationConfig {
    /// The paper's configuration: 4 channels, 32 KB cache, 8 KB scoreboard.
    pub fn paper() -> Self {
        AggregationConfig {
            channels: 4,
            cache_entries: 32 * 1024 / 48,
            scoreboard_entries: 8 * 1024 / 16,
            record_bytes: 48,
            retire_per_cycle: 4,
        }
    }
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig::paper()
    }
}

/// Simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregationResult {
    /// Total cycles to drain the stream.
    pub cycles: u64,
    /// Cycles in which nothing could issue or retire (true stalls).
    pub stall_cycles: u64,
    /// Cache fills from DRAM.
    pub fills: u64,
    /// Dirty evictions written back to DRAM.
    pub evictions: u64,
    /// Gradient entries processed.
    pub entries: u64,
    /// DRAM bytes moved by the unit (fills + write-backs).
    pub dram_bytes: u64,
}

impl AggregationResult {
    /// Fraction of cycles spent stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cycles as f64
        }
    }
}

/// Pseudo-LRU (clock) Gaussian cache.
struct GaussianCache {
    slots: Vec<Option<u32>>,
    index: IdMap<usize>,
    clock: usize,
}

impl GaussianCache {
    fn new(entries: usize) -> Self {
        GaussianCache {
            slots: vec![None; entries.max(1)],
            index: IdMap::default(),
            clock: 0,
        }
    }

    fn contains(&self, id: u32) -> bool {
        self.index.contains_key(&id)
    }

    /// Inserts `id`, evicting the clock victim. Returns the evicted id.
    fn insert(&mut self, id: u32) -> Option<u32> {
        if self.contains(id) {
            return None;
        }
        let slot = self.clock;
        self.clock = (self.clock + 1) % self.slots.len();
        let evicted = self.slots[slot];
        if let Some(old) = evicted {
            self.index.remove(&old);
        }
        self.slots[slot] = Some(id);
        self.index.insert(id, slot);
        evicted
    }
}

/// Merged partials waiting for their accumulated gradient, in arrival
/// order: a Gaussian keeps the position of its first pending partial, and
/// later same-id partials merge into it. Fill issue and retirement walk this
/// order, so a simulation is the same in every process (a hash map's
/// iteration order is seeded per process).
#[derive(Default)]
struct Scoreboard {
    order: Vec<u32>,
    pending: IdSet,
}

impl Scoreboard {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Merges one partial of `id` (a new entry if none is pending).
    fn merge(&mut self, id: u32) {
        if self.pending.insert(id) {
            self.order.push(id);
        }
    }

    /// Retires up to `max` entries whose line is cached, oldest first;
    /// returns how many retired.
    fn retire(&mut self, cache: &GaussianCache, max: usize) -> usize {
        let mut retired = 0;
        let pending = &mut self.pending;
        self.order.retain(|id| {
            if retired < max && cache.contains(*id) {
                pending.remove(id);
                retired += 1;
                false
            } else {
                true
            }
        });
        retired
    }
}

/// Simulates draining one gradient stream through the aggregation unit.
///
/// `stream` holds the per-pixel Gaussian-id lists (reverse-integration
/// order); `clock_hz` converts the DRAM model's latency into cycles.
pub fn simulate(
    stream: &[Vec<u32>],
    config: &AggregationConfig,
    dram: &DramModel,
    clock_hz: f64,
) -> AggregationResult {
    // Flatten per-pixel entries; the unit reads n pixel entries per cycle,
    // each contributing its next (gaussian, gradient) tuple.
    let flat: Vec<u32> = stream.iter().flatten().copied().collect();
    let mut result = AggregationResult {
        entries: flat.len() as u64,
        ..AggregationResult::default()
    };
    if flat.is_empty() {
        return result;
    }
    let latency = dram.latency_cycles(clock_hz).ceil() as u64;
    // Bandwidth constraint as a minimum inter-fill gap.
    let fill_gap = dram
        .transfer_cycles(config.record_bytes, clock_hz)
        .max(1e-9);

    let mut cache = GaussianCache::new(config.cache_entries);
    let mut scoreboard = Scoreboard::default();
    // Outstanding fills: (ready_cycle, id), kept sorted by arrival, plus
    // the set of their ids for the per-cycle "already in flight?" test.
    let mut inflight: Vec<(u64, u32)> = Vec::new();
    let mut inflight_ids = IdSet::default();
    let mut next_fill_free = 0.0f64;
    let mut cursor = 0usize;
    let mut cycle = 0u64;
    // Hard bound so malformed inputs cannot hang the simulation.
    let max_cycles = (flat.len() as u64 + 1) * (latency + 4) * 4;

    while (cursor < flat.len() || !scoreboard.is_empty()) && cycle < max_cycles {
        let mut progressed = false;

        // Complete arrived fills.
        inflight.retain(|&(ready, id)| {
            if ready <= cycle {
                inflight_ids.remove(&id);
                if let Some(evicted) = cache.insert(id) {
                    let _ = evicted;
                    result.evictions += 1;
                    result.dram_bytes += config.record_bytes;
                }
                result.dram_bytes += config.record_bytes;
                false
            } else {
                true
            }
        });

        // Issue up to `channels` new entries into the merge unit.
        let mut issued = 0;
        while issued < config.channels
            && cursor < flat.len()
            && scoreboard.len() < config.scoreboard_entries
        {
            let id = flat[cursor];
            // Merge unit: same-id partials combine in the scoreboard.
            scoreboard.merge(id);
            cursor += 1;
            issued += 1;
            progressed = true;
        }

        // Kick off fills for scoreboard entries whose line is neither
        // cached nor in flight (re-attempted every cycle so entries that
        // arrived while the fill queue was full still make progress).
        for &id in &scoreboard.order {
            if inflight.len() >= dram.max_outstanding {
                break;
            }
            if !cache.contains(id) && !inflight_ids.contains(&id) {
                let start = next_fill_free.max(cycle as f64);
                next_fill_free = start + fill_gap;
                inflight.push((start as u64 + latency, id));
                inflight_ids.insert(id);
                result.fills += 1;
                progressed = true;
            }
        }

        // Retire ready scoreboard entries (their line is in the cache).
        if scoreboard.retire(&cache, config.retire_per_cycle) > 0 {
            progressed = true;
        }

        if !progressed {
            result.stall_cycles += 1;
        }
        cycle += 1;
    }
    result.cycles = cycle;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramModel {
        DramModel::lpddr3_1600_x4()
    }

    #[test]
    fn empty_stream_is_free() {
        let r = simulate(&[], &AggregationConfig::paper(), &dram(), 500e6);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.entries, 0);
    }

    #[test]
    fn single_pixel_stream_pays_one_fill_latency() {
        let r = simulate(
            &[vec![1, 2, 3]],
            &AggregationConfig::paper(),
            &dram(),
            500e6,
        );
        assert_eq!(r.entries, 3);
        assert_eq!(r.fills, 3);
        // Must at least wait for the first fill to land.
        assert!(r.cycles as f64 >= dram().latency_cycles(500e6));
    }

    #[test]
    fn hot_gaussian_reuses_cache() {
        // 1000 entries all hitting the same Gaussian: one fill, the rest
        // retire from cache.
        let stream: Vec<Vec<u32>> = (0..1000).map(|_| vec![7]).collect();
        let r = simulate(&stream, &AggregationConfig::paper(), &dram(), 500e6);
        assert_eq!(r.fills, 1);
        assert!(r.stall_fraction() < 0.3, "stalls {}", r.stall_fraction());
    }

    #[test]
    fn independent_gaussians_hide_latency() {
        // Many distinct ids: fills overlap with useful merges/retires, so
        // throughput approaches the channel rate rather than one-latency-
        // per-entry.
        let stream: Vec<Vec<u32>> = (0..4000u32).map(|i| vec![i % 500]).collect();
        let r = simulate(&stream, &AggregationConfig::paper(), &dram(), 500e6);
        let serialized = r.entries * dram().latency_cycles(500e6) as u64;
        assert!(
            r.cycles < serialized / 4,
            "latency hiding failed: {} cycles vs fully serialized {}",
            r.cycles,
            serialized
        );
    }

    #[test]
    fn cache_thrash_costs_evictions() {
        // Working set far beyond the cache: evictions and refills pile up.
        let big: Vec<Vec<u32>> = (0..8000u32).map(|i| vec![i % 4000]).collect();
        let r = simulate(&big, &AggregationConfig::paper(), &dram(), 500e6);
        assert!(r.evictions > 0);
        assert!(r.fills > 4000, "second pass over 4000 ids must refill");
    }

    #[test]
    fn contended_stream_is_repeatable() {
        // A stream that keeps the scoreboard full and the fill queue
        // contended, so fill issue and retirement order shape the result.
        let stream: Vec<Vec<u32>> = (0..8000u32)
            .map(|i| vec![(7919 * i) % 4000, (31 * i) % 977])
            .collect();
        let first = simulate(&stream, &AggregationConfig::paper(), &dram(), 500e6);
        assert!(first.stall_cycles > 0 && first.evictions > 0, "{first:?}");
        for run in 1..20 {
            let again = simulate(&stream, &AggregationConfig::paper(), &dram(), 500e6);
            assert_eq!(again, first, "run {run}");
        }
    }

    #[test]
    fn simulation_terminates_on_pathological_input() {
        let stream: Vec<Vec<u32>> = vec![vec![0; 10_000]];
        let r = simulate(&stream, &AggregationConfig::paper(), &dram(), 500e6);
        assert!(r.cycles > 0);
        assert_eq!(r.entries, 10_000);
    }
}
