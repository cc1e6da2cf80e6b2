//! Comm/compute overlap accounting.
//!
//! Parallel-PINN efficiency is governed by the ratio of communication to
//! computation per subdomain (Shukla et al.): time a rank spends blocked
//! in halo exchanges and allreduces is time its kernels are idle unless
//! the transport can progress sends underneath compute. The simulated
//! cluster measures *wait* directly (the `comm.comm_seconds` gauge
//! accumulates wall time inside every blocking call); this module folds
//! those busy/wait intervals through the alpha–beta [`PerfModel`] to
//! estimate how much of the modeled wire time a real asynchronous
//! transport could hide under the measured compute, and reports:
//!
//! - `dist.compute_us` — accumulated busy (kernel) time this rank,
//! - `dist.comm_wait_us` — accumulated measured blocking time,
//! - `dist.comm_modeled_us` — accumulated alpha–beta wire-time estimate,
//! - `dist.overlap_ratio` — fraction of the modeled wire time hideable
//!   under compute (`min(compute, modeled) / modeled`, accumulated),
//! - `dist.iter_wait_us` — per-iteration wait histogram, for tails.
//!
//! The tracker only reads [`Communicator::stats`] deltas — it never
//! sends messages or draws fault randomness, so instrumented runs stay
//! bitwise identical to uninstrumented ones.

use crate::comm::{CommStats, Communicator};
use crate::perfmodel::PerfModel;
use std::sync::OnceLock;

/// One iteration's overlap accounting, as recorded by
/// [`OverlapTracker::observe_iteration`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OverlapSample {
    /// Busy (compute) seconds this iteration.
    pub compute_s: f64,
    /// Measured seconds blocked in communication calls this iteration.
    pub comm_wait_s: f64,
    /// Alpha–beta estimate of the wire time for this iteration's
    /// traffic.
    pub modeled_comm_s: f64,
    /// Cumulative hideable fraction so far: `Σ min(compute, modeled) /
    /// Σ modeled` (1 when no traffic has been modeled yet — nothing to
    /// hide).
    pub overlap_ratio: f64,
}

struct Metrics {
    compute_us: mf_telemetry::Gauge,
    comm_wait_us: mf_telemetry::Gauge,
    comm_modeled_us: mf_telemetry::Gauge,
    overlap_ratio: mf_telemetry::Gauge,
    iter_wait_us: mf_telemetry::Histogram,
}

// Registry lookups lock a process-wide mutex; resolve the handles once
// instead of on every iteration.
fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        compute_us: mf_telemetry::gauge("dist.compute_us"),
        comm_wait_us: mf_telemetry::gauge("dist.comm_wait_us"),
        comm_modeled_us: mf_telemetry::gauge("dist.comm_modeled_us"),
        overlap_ratio: mf_telemetry::gauge("dist.overlap_ratio"),
        iter_wait_us: mf_telemetry::histogram(
            "dist.iter_wait_us",
            mf_telemetry::Buckets::latency_us(),
        ),
    })
}

/// Per-rank busy/comm-wait interval tracker. Construct once per rank
/// before the iteration loop; call
/// [`observe_iteration`](OverlapTracker::observe_iteration) once per
/// iteration with that iteration's compute seconds.
pub struct OverlapTracker {
    model: PerfModel,
    base: CommStats,
    total_compute_s: f64,
    total_wait_s: f64,
    total_modeled_s: f64,
    total_hideable_s: f64,
}

impl OverlapTracker {
    /// Start tracking from `comm`'s current counters, modeling wire
    /// time with `model`.
    pub fn new(model: PerfModel, comm: &Communicator) -> Self {
        Self {
            model,
            base: comm.stats(),
            total_compute_s: 0.0,
            total_wait_s: 0.0,
            total_modeled_s: 0.0,
            total_hideable_s: 0.0,
        }
    }

    /// Record one iteration: `compute_s` is the iteration's busy time
    /// (e.g. from `thread_cpu_time` deltas around the sweeps); the
    /// communication interval is taken from the [`Communicator::stats`]
    /// delta since the previous observation. Updates the `dist.*`
    /// metrics on the calling rank and returns the sample.
    pub fn observe_iteration(&mut self, comm: &Communicator, compute_s: f64) -> OverlapSample {
        let now = comm.stats();
        let wait_s = (now.comm_seconds - self.base.comm_seconds).max(0.0);
        let msgs = now.msgs_sent.saturating_sub(self.base.msgs_sent);
        let bytes = now.bytes_sent.saturating_sub(self.base.bytes_sent);
        let modeled_s = if msgs == 0 {
            0.0
        } else {
            self.model.time(msgs, bytes)
        };
        self.base = now;

        self.total_compute_s += compute_s.max(0.0);
        self.total_wait_s += wait_s;
        self.total_modeled_s += modeled_s;
        self.total_hideable_s += compute_s.max(0.0).min(modeled_s);
        let ratio = if self.total_modeled_s > 0.0 {
            self.total_hideable_s / self.total_modeled_s
        } else {
            1.0
        };

        let m = metrics();
        m.compute_us.set(self.total_compute_s * 1e6);
        m.comm_wait_us.set(self.total_wait_s * 1e6);
        m.comm_modeled_us.set(self.total_modeled_s * 1e6);
        m.overlap_ratio.set(ratio);
        m.iter_wait_us.record(wait_s * 1e6);

        OverlapSample {
            compute_s: compute_s.max(0.0),
            comm_wait_s: wait_s,
            modeled_comm_s: modeled_s,
            overlap_ratio: ratio,
        }
    }

    /// Accumulated busy seconds observed so far.
    pub fn total_compute_s(&self) -> f64 {
        self.total_compute_s
    }

    /// Cumulative hideable fraction (see [`OverlapSample::overlap_ratio`]).
    pub fn overlap_ratio(&self) -> f64 {
        if self.total_modeled_s > 0.0 {
            self.total_hideable_s / self.total_modeled_s
        } else {
            1.0
        }
    }

    /// Accumulated alpha–beta wire-time estimate so far.
    pub fn total_modeled_s(&self) -> f64 {
        self.total_modeled_s
    }

    /// The final cumulative sample, without observing a new interval.
    /// Convenient for stashing overlap accounting in per-rank reports.
    pub fn final_sample(&self) -> OverlapSample {
        OverlapSample {
            compute_s: self.total_compute_s,
            comm_wait_s: self.total_wait_s,
            modeled_comm_s: self.total_modeled_s,
            overlap_ratio: self.overlap_ratio(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;

    #[test]
    fn tracker_accounts_traffic_and_sets_gauges() {
        let samples = Cluster::run(2, |comm| {
            let mut t = OverlapTracker::new(PerfModel::a30_cluster(), comm);
            // Iteration 1: an exchange with the peer plus fake compute.
            let peer = 1 - comm.rank();
            let _ = comm.exchange(&[(peer, vec![1.0; 64])], 0);
            let s1 = t.observe_iteration(comm, 1e-3);
            // Iteration 2: no traffic at all.
            let s2 = t.observe_iteration(comm, 2e-3);
            (s1, s2)
        });
        for (s1, s2) in samples {
            assert!(s1.modeled_comm_s > 0.0, "exchange must be modeled");
            assert!(s1.comm_wait_s >= 0.0);
            // Modeled alpha-beta time for one small message is far below
            // the 1 ms of compute, so it is fully hideable.
            assert!((s1.overlap_ratio - 1.0).abs() < 1e-9, "{s1:?}");
            assert_eq!(s2.modeled_comm_s, 0.0, "quiet iteration models zero");
            assert_eq!(s2.overlap_ratio, s1.overlap_ratio);
        }
    }

    #[test]
    fn modeled_walls_bracket_the_overlap() {
        let samples = Cluster::run(2, |comm| {
            let mut t = OverlapTracker::new(PerfModel::mpi4py_serialized(), comm);
            let peer = 1 - comm.rank();
            let _ = comm.exchange(&[(peer, vec![1.0; 1024])], 0);
            // Tiny compute: most of the wire time cannot hide.
            t.observe_iteration(comm, 1e-6);
            // Alternating: every modeled wire second is exposed after the
            // compute it follows. Overlapped: only what the compute cannot
            // hide is.
            let exposed = (t.total_modeled_s - t.total_hideable_s).max(0.0);
            (
                t.total_compute_s + t.total_modeled_s,
                t.total_compute_s + exposed,
                t.final_sample(),
            )
        });
        for (alt, ovl, fin) in samples {
            assert!(ovl < alt, "overlap must shorten the modeled wall");
            // Exposed time is modeled minus hideable; with compute ≪
            // modeled the saving equals the compute.
            assert!((alt - ovl - 1e-6).abs() < 1e-12);
            assert!(fin.modeled_comm_s > 0.0);
            assert!(fin.overlap_ratio < 1.0);
        }
    }

    #[test]
    fn gauges_reflect_cumulative_totals() {
        Cluster::run(1, |comm| {
            let mut t = OverlapTracker::new(PerfModel::infiniband_100g(), comm);
            t.observe_iteration(comm, 0.5e-3);
            t.observe_iteration(comm, 0.25e-3);
            let snap = mf_telemetry::snapshot();
            let compute = snap.gauge("dist.compute_us");
            assert!((compute - 750.0).abs() < 1e-6, "compute_us = {compute}");
            assert_eq!(snap.gauge("dist.overlap_ratio"), 1.0);
            assert!((t.total_compute_s() - 0.75e-3).abs() < 1e-12);
        });
    }
}
