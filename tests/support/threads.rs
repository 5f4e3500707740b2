//! The worker count of the executor-equivalence checks, shared by the suites
//! that run the pool.

/// `PARALLEL_THREADS` if set (at least 1), else `fallback`. The suites
/// always use multi-block partitions, but on a single core the worker
/// threads serialize; CI's conformance matrix sets `PARALLEL_THREADS` to 1,
/// 2 and 4 on a multicore runner, so the same checks also run with
/// genuinely concurrent workers and a reproducible thread count.
pub fn forced_threads(fallback: usize) -> usize {
    std::env::var("PARALLEL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(fallback)
        .max(1)
}
