//! Deterministic scoped worker pool (std-only, no external dependencies).
//!
//! The paper's hardware runs its stages on parallel units — 8 projection
//! units, Gaussian-parallel warps, 4 rasterization engines (Sec. IV-B, V).
//! This module is the software analogue: [`par_chunks_indexed`] fans a slice
//! out over `std::thread::scope` workers in fixed-size chunks and returns
//! the per-chunk results **in chunk-index order**.
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so "same answer on any
//! thread count" has to be engineered, not hoped for:
//!
//! 1. **Chunk boundaries are fixed** by the caller's `chunk_size`, never by
//!    the worker count. Worker count only changes *who* computes a chunk.
//! 2. **Results are returned in chunk-index order**, so callers merge
//!    partial sums in a fixed sequence regardless of completion order.
//! 3. Workers claim chunks dynamically (atomic counter), which is safe
//!    precisely because of (1) and (2): scheduling affects latency only.
//!
//! A run with 1 worker therefore produces bit-identical results to a run
//! with any other worker count — the cross-thread-count golden tests in
//! `splatonic-render` enforce this.
//!
//! # Thread-count resolution
//!
//! [`resolve_threads`] maps an explicit knob (e.g. `RenderConfig::threads`)
//! to a worker count: an explicit positive value wins; otherwise the
//! `SPLATONIC_THREADS` environment variable; otherwise
//! `std::thread::available_parallelism()`. The environment variable is read
//! once per process and cached.

use crate::timebase;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on workers (also sizes the per-worker stats registry).
pub const MAX_WORKERS: usize = 64;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "SPLATONIC_THREADS";

/// Per-worker busy time in nanoseconds, accumulated across all pool
/// invocations in this process.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];
/// Per-worker chunk counts, same indexing as [`BUSY_NANOS`].
static CHUNKS_DONE: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];
/// Highest worker slot ever used (exclusive), for snapshot truncation.
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Cached default worker count (env var, then host parallelism).
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n.min(MAX_WORKERS);
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_WORKERS)
    })
}

/// Resolves a thread-count knob: `explicit > 0` wins, else the cached
/// `SPLATONIC_THREADS` / `available_parallelism` default.
pub fn resolve_threads(explicit: usize) -> usize {
    if explicit > 0 {
        explicit.min(MAX_WORKERS)
    } else {
        auto_threads()
    }
}

/// One worker's accumulated activity (from the process-global registry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Worker slot index (0-based).
    pub worker: usize,
    /// Busy wall-clock milliseconds across all pool invocations so far.
    pub busy_ms: f64,
    /// Chunks executed by this worker.
    pub chunks: u64,
}

/// Snapshot of the per-worker registry (slots `0..high_water`).
///
/// The registry is process-global and monotonic; callers wanting per-phase
/// numbers take a snapshot before and after and subtract (see
/// [`WorkerStats`] consumers in the telemetry integration).
pub fn worker_stats_snapshot() -> Vec<WorkerStats> {
    let hw = HIGH_WATER.load(Ordering::Acquire).min(MAX_WORKERS);
    (0..hw)
        .map(|w| WorkerStats {
            worker: w,
            busy_ms: BUSY_NANOS[w].load(Ordering::Relaxed) as f64 / 1e6,
            chunks: CHUNKS_DONE[w].load(Ordering::Relaxed),
        })
        .collect()
}

fn record_worker(worker: usize, nanos: u64, chunks: u64) {
    if worker >= MAX_WORKERS {
        return;
    }
    BUSY_NANOS[worker].fetch_add(nanos, Ordering::Relaxed);
    CHUNKS_DONE[worker].fetch_add(chunks, Ordering::Relaxed);
    HIGH_WATER.fetch_max(worker + 1, Ordering::AcqRel);
}

/// One worker's activity during one [`par_chunks_indexed`] invocation, on
/// the shared [`timebase`] clock. Emitted into the trace buffer only while
/// tracing is enabled ([`trace_enable`]); the inline (single-worker) path
/// records as worker 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEvent {
    /// Worker slot index; traces on lane [`timebase::POOL_LANE_BASE`]` + worker`.
    pub worker: usize,
    /// Run/session id ambient on the *calling* thread when the invocation
    /// started ([`timebase::run_id`]; 0 when no session scope is active).
    /// Spawned workers inherit the caller's id — the ephemeral worker
    /// threads themselves never carry one.
    pub run: u32,
    /// Invocation start, nanoseconds on [`timebase::monotonic_ns`].
    pub start_ns: u64,
    /// Busy duration of this worker within the invocation, nanoseconds.
    pub dur_ns: u64,
    /// Chunks this worker executed during the invocation.
    pub chunks: u64,
}

/// Upper bound on buffered [`PoolEvent`]s; past it new events are dropped
/// (tracing must never grow memory without bound on long runs).
const MAX_POOL_EVENTS: usize = 1 << 20;

/// Gate for per-invocation event capture. Off by default: the hot path
/// pays one relaxed atomic load when disabled.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_EVENTS: Mutex<Vec<PoolEvent>> = Mutex::new(Vec::new());

/// Enables or disables pool event capture (process-global).
pub fn trace_enable(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Release);
}

/// Whether pool event capture is currently enabled.
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Current length of the process-global event buffer. Callers bracket a
/// phase with a cursor and [`trace_events_since`] to read only their events
/// (the buffer, like the worker registry, is process-global).
pub fn trace_cursor() -> usize {
    TRACE_EVENTS.lock().expect("pool trace lock").len()
}

/// Copies the events recorded since `cursor` (a prior [`trace_cursor`]).
pub fn trace_events_since(cursor: usize) -> Vec<PoolEvent> {
    let events = TRACE_EVENTS.lock().expect("pool trace lock");
    events.get(cursor..).map_or_else(Vec::new, <[_]>::to_vec)
}

fn record_trace_event(worker: usize, run: u32, start_ns: u64, dur_ns: u64, chunks: u64) {
    let mut events = TRACE_EVENTS.lock().expect("pool trace lock");
    if events.len() < MAX_POOL_EVENTS {
        events.push(PoolEvent {
            worker,
            run,
            start_ns,
            dur_ns,
            chunks,
        });
    }
}

/// Fans `items` out over `threads` scoped workers in fixed-size chunks and
/// returns the per-chunk results in chunk-index order.
///
/// `f(chunk_index, offset, chunk)` receives the chunk's index, the offset of
/// its first element in `items`, and the chunk slice. Chunk boundaries
/// depend only on `chunk_size` (the last chunk may be short), so the result
/// vector — and any order-dependent merge a caller performs over it — is
/// identical for every `threads` value.
///
/// With `threads <= 1`, a single chunk, or an empty input the fan-out runs
/// inline on the calling thread (same chunk structure, no spawn).
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn par_chunks_indexed<T, R, F>(threads: usize, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    if n_chunks == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, MAX_WORKERS).min(n_chunks);
    let tracing = trace_enabled();
    // Run attribution comes from the caller: the ambient id is thread-local
    // and the spawned workers are fresh threads (default id 0), so it must
    // be captured here and forwarded into each worker's trace record.
    let run = if tracing { timebase::run_id() } else { 0 };
    if threads <= 1 || n_chunks == 1 {
        let start_ns = if tracing { timebase::monotonic_ns() } else { 0 };
        let start = Instant::now();
        let out: Vec<R> = (0..n_chunks)
            .map(|ci| {
                let lo = ci * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                f(ci, lo, &items[lo..hi])
            })
            .collect();
        let nanos = start.elapsed().as_nanos() as u64;
        record_worker(0, nanos, n_chunks as u64);
        if tracing {
            record_trace_event(0, run, start_ns, nanos, n_chunks as u64);
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    let partials: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let start_ns = if tracing { timebase::monotonic_ns() } else { 0 };
                    let start = Instant::now();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let ci = next.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let lo = ci * chunk_size;
                        let hi = (lo + chunk_size).min(items.len());
                        local.push((ci, f(ci, lo, &items[lo..hi])));
                    }
                    let nanos = start.elapsed().as_nanos() as u64;
                    record_worker(worker, nanos, local.len() as u64);
                    if tracing {
                        record_trace_event(worker, run, start_ns, nanos, local.len() as u64);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    for (ci, r) in partials.into_iter().flatten() {
        slots[ci] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_no_chunks() {
        let out: Vec<u64> = par_chunks_indexed(4, &[] as &[u32], 8, |_, _, c| c.len() as u64);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_boundaries_are_fixed() {
        let items: Vec<u32> = (0..25).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_chunks_indexed(threads, &items, 8, |ci, off, c| (ci, off, c.to_vec()));
            assert_eq!(out.len(), 4, "threads={threads}");
            assert_eq!(out[0], (0, 0, (0..8).collect::<Vec<u32>>()));
            assert_eq!(out[3], (3, 24, vec![24]));
        }
    }

    #[test]
    fn float_sums_are_thread_count_invariant() {
        // Merge per-chunk partial sums in chunk order: bit-identical across
        // worker counts (the pool's core contract).
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.731).sin()).collect();
        let run = |threads: usize| -> f64 {
            par_chunks_indexed(threads, &items, 97, |_, _, c| c.iter().sum::<f64>())
                .into_iter()
                .fold(0.0, |a, b| a + b)
        };
        let s1 = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(s1.to_bits(), run(threads).to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn results_are_in_chunk_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_chunks_indexed(8, &items, 10, |ci, _, _| ci);
        assert_eq!(out, (0..100).collect::<Vec<usize>>());
    }

    #[test]
    fn resolve_threads_prefers_explicit() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(MAX_WORKERS + 10), MAX_WORKERS);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn worker_stats_accumulate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_chunks_indexed(2, &items, 4, |_, _, c| c.len());
        let stats = worker_stats_snapshot();
        assert!(!stats.is_empty());
        assert!(stats.iter().map(|s| s.chunks).sum::<u64>() >= 16);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = par_chunks_indexed(1, &[1u8], 0, |_, _, _| ());
    }

    /// Serializes the tests that toggle the process-global trace gate.
    static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn trace_events_capture_worker_activity_when_enabled() {
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
        let items: Vec<u32> = (0..512).collect();

        // Disabled (the default): no events appear.
        let before = trace_cursor();
        let _ = par_chunks_indexed(2, &items, 16, |_, _, c| c.len());
        // Another test may have enabled tracing concurrently; only assert
        // the enabled direction below, which this test controls end-to-end.

        trace_enable(true);
        let cursor = trace_cursor();
        let _ = par_chunks_indexed(2, &items, 16, |_, _, c| c.len());
        let events = trace_events_since(cursor);
        trace_enable(false);

        assert!(!events.is_empty(), "tracing enabled but no events");
        let chunks: u64 = events.iter().map(|e| e.chunks).sum();
        assert!(chunks >= 32, "expected >=32 chunks, got {chunks}");
        for e in &events {
            assert!(e.worker < MAX_WORKERS);
        }
        let _ = before;
    }

    #[test]
    fn trace_events_carry_the_callers_run_id() {
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
        let items: Vec<u32> = (0..256).collect();
        trace_enable(true);
        let cursor = trace_cursor();
        {
            let _scope = timebase::run_scope(7701);
            let _ = par_chunks_indexed(2, &items, 16, |_, _, c| c.len());
        }
        {
            let _scope = timebase::run_scope(7702);
            let _ = par_chunks_indexed(2, &items, 16, |_, _, c| c.len());
        }
        let events = trace_events_since(cursor);
        trace_enable(false);
        let for_run = |run: u32| -> Vec<PoolEvent> {
            events.iter().filter(|e| e.run == run).copied().collect()
        };
        let (only_a, only_b) = (for_run(7701), for_run(7702));

        assert!(!only_a.is_empty() && !only_b.is_empty());
        assert!(only_a.iter().all(|e| e.run == 7701));
        assert!(only_b.iter().all(|e| e.run == 7702));
        // Each run's filtered events carry its own chunks in full.
        assert_eq!(only_a.iter().map(|e| e.chunks).sum::<u64>(), 16);
        assert_eq!(only_b.iter().map(|e| e.chunks).sum::<u64>(), 16);
    }
}
