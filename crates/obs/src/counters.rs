//! Lock-free hot-path counters and the fixed set the snapshot reads.
//!
//! A [`Counter`] is a named `AtomicU64` declared as a `static`. The hot
//! paths of the workspace increment the built-in counters below (gradient
//! evaluations, scratch-pool hits vs. fresh allocations, packed-GEMM
//! flops, NaN-taint trips from the `sanitize` feature). Increments are
//! relaxed atomic adds, gated on the tracer's enable flag so a disabled
//! build pays one relaxed load per site; under `obs-off` the increment
//! compiles away entirely.

#[cfg(not(feature = "obs-off"))]
use crate::span::is_enabled;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter (or gauge, via [`Counter::sub`]).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter. Use in a `static`; [`snapshot`] reads the
    /// built-ins below.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's name in snapshots and trace events.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when tracing is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "obs-off"))]
        if is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = n;
    }

    /// Adds one when tracing is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Subtracts `n` (gauge semantics, saturating at zero) when tracing is
    /// enabled. Pair with [`Counter::add`] for busy-style gauges.
    #[inline]
    pub fn sub(&self, n: u64) {
        #[cfg(not(feature = "obs-off"))]
        if is_enabled() {
            let _ = self
                .value
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(n))
                });
        }
        #[cfg(feature = "obs-off")]
        let _ = n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Gradient evaluations (one forward+backward pass each).
pub static GRAD_EVALS: Counter = Counter::new("grad_evals");
/// Scratch-pool leases served from the free list.
pub static POOL_HITS: Counter = Counter::new("pool_hits");
/// Scratch-pool leases that performed a fresh heap allocation.
pub static POOL_FRESH_ALLOCS: Counter = Counter::new("pool_fresh_allocs");
/// Buffers recycled into the scratch pool.
pub static POOL_RECYCLES: Counter = Counter::new("pool_recycles");
/// Packed micro-kernel GEMM invocations.
pub static GEMM_CALLS: Counter = Counter::new("gemm_calls");
/// Floating-point operations issued through the packed GEMM (2·m·n·k per
/// call).
pub static GEMM_FLOPS: Counter = Counter::new("gemm_flops");
/// GEMM calls dispatched to the explicit-SIMD (AVX2/FMA) micro-kernel.
pub static GEMM_SIMD_HITS: Counter = Counter::new("gemm_simd_hits");
/// Chunks of GEMM and convolution products executed on the GEMM worker
/// pool (one per worker job; stays zero when every product runs serially).
pub static GEMM_PANELS_PARALLEL: Counter = Counter::new("gemm_panels_parallel");
/// Non-finite forward values caught by the `sanitize` NaN-taint checker.
pub static NAN_TAINT_TRIPS: Counter = Counter::new("nan_taint_trips");
/// Parameter tensors passed through the post-training quantizer.
pub static QUANT_TENSORS: Counter = Counter::new("quant_tensors");
/// Data-parallel shard workers currently executing a job (gauge).
pub static WORKERS_BUSY: Counter = Counter::new("workers_busy");
/// Nanoseconds the reducing thread spent waiting for shard gradients.
pub static REDUCE_WAIT_NS: Counter = Counter::new("reduce_wait_ns");
/// Error-severity diagnostics produced by `hero-analyze` pre-flight runs.
pub static ANALYZE_DIAGS_ERROR: Counter = Counter::new("analyze_diags_error");
/// Warning-severity diagnostics produced by `hero-analyze` pre-flight
/// runs.
pub static ANALYZE_DIAGS_WARN: Counter = Counter::new("analyze_diags_warn");
/// Relational (zonotope) noise passes executed by `hero-analyze`.
pub static ANALYZE_ZONOTOPE_PASSES: Counter = Counter::new("analyze_zonotope_passes");
/// Static-vs-empirical noise crosscheck trials where the measured error
/// escaped the certified bound (must stay zero; gated in verify.sh).
pub static NOISE_CROSSCHECK_VIOLATIONS: Counter = Counter::new("noise_crosscheck_violations");
/// Model artifacts written (final saves and epoch checkpoints).
pub static ARTIFACT_SAVES: Counter = Counter::new("artifact_saves");
/// Model artifacts successfully decoded from disk.
pub static ARTIFACT_LOADS: Counter = Counter::new("artifact_loads");

const BUILTINS: [&Counter; 18] = [
    &GRAD_EVALS,
    &POOL_HITS,
    &POOL_FRESH_ALLOCS,
    &POOL_RECYCLES,
    &GEMM_CALLS,
    &GEMM_FLOPS,
    &GEMM_SIMD_HITS,
    &GEMM_PANELS_PARALLEL,
    &NAN_TAINT_TRIPS,
    &QUANT_TENSORS,
    &WORKERS_BUSY,
    &REDUCE_WAIT_NS,
    &ANALYZE_DIAGS_ERROR,
    &ANALYZE_DIAGS_WARN,
    &ANALYZE_ZONOTOPE_PASSES,
    &NOISE_CROSSCHECK_VIOLATIONS,
    &ARTIFACT_SAVES,
    &ARTIFACT_LOADS,
];

/// A point-in-time reading of every built-in counter.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    BUILTINS.iter().map(|c| (c.name(), c.get())).collect()
}

/// Resets every built-in counter to zero (start of a measurement
/// window).
pub fn reset_all() {
    for c in BUILTINS {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_counters_are_registered() {
        let names: Vec<&str> = snapshot().into_iter().map(|(n, _)| n).collect();
        for c in BUILTINS {
            assert!(names.contains(&c.name()), "missing {}", c.name());
        }
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn add_is_gated_on_enable() {
        let _l = crate::testutil::locked();
        static GATED: Counter = Counter::new("test_gated_counter");
        crate::span::disable();
        GATED.add(5);
        assert_eq!(GATED.get(), 0);
        crate::span::enable();
        GATED.add(5);
        GATED.incr();
        assert_eq!(GATED.get(), 6);
        GATED.reset();
        crate::span::disable();
        assert_eq!(GATED.get(), 0);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_increments_compile_to_nothing() {
        static OFF: Counter = Counter::new("test_off_counter");
        crate::span::enable();
        OFF.add(5);
        OFF.incr();
        assert_eq!(OFF.get(), 0);
    }
}
