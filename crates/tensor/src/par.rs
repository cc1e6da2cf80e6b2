//! The process's compute pool and thread budget, as the rest of the
//! workspace reaches them.
//!
//! The pool itself lives in the vendored `rayon` stand-in: `cores − 1`
//! parked workers plus the calling thread, one fan-out at a time (see its
//! module docs). This module re-exports the parallel-iterator traits and
//! names the three things upstream rayon does not have, so crates above
//! `mf-tensor` need no dependency on the stand-in:
//!
//! * [`compute_lanes`] — a rank thread of a simulated cluster or a serve
//!   worker declares itself one of `n` concurrent compute threads; with
//!   `n ≥ cores` every kernel it runs stays on that thread. This is what
//!   makes a simulated device "one OS thread with sequential kernels
//!   inside" (DESIGN.md), while a single-device run gets the whole pool.
//! * [`thread_spawns`] — OS threads the pool has created; constant after
//!   the first fan-out, also published as the `tensor.thread_spawns`
//!   telemetry counter.
//! * [`with_pool_width`] — test-only: run a closure on a private pool of a
//!   given width, to pin results across widths.

pub use rayon::prelude;
pub use rayon::{compute_lanes, with_pool_width, LaneGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Lanes a parallel call made by the calling thread can spread over, its
/// own included; 1 when the thread's budget makes such calls run inline
/// (a [`compute_lanes`] thread with a one-core share, a pool worker).
pub fn lanes() -> usize {
    rayon::current_num_threads()
}

/// The calling thread's lane inside a parallel call: 0 for the caller,
/// `k + 1` for pool worker `k`. Below the caller's [`lanes`].
pub fn lane() -> usize {
    rayon::current_thread_index().map_or(0, |worker| worker + 1)
}

/// OS threads created by the compute pool since the process started.
/// Warm paths must leave it unchanged.
pub fn thread_spawns() -> u64 {
    publish_thread_spawns();
    rayon::thread_spawns()
}

/// Bring the `tensor.thread_spawns` counter of the calling thread up to
/// date. Called after every fan-out this crate starts: the thread that
/// fans out first is the one that created the workers.
pub fn publish_thread_spawns() {
    static PUBLISHED: AtomicU64 = AtomicU64::new(0);
    static COUNTER: OnceLock<mf_telemetry::Counter> = OnceLock::new();
    let spawns = rayon::thread_spawns();
    // A statistic that publishes no other data: Relaxed.
    if spawns != PUBLISHED.load(Ordering::Relaxed) {
        let before = PUBLISHED.swap(spawns, Ordering::Relaxed);
        COUNTER
            .get_or_init(|| mf_telemetry::counter("tensor.thread_spawns"))
            .add(spawns.saturating_sub(before));
    }
}
