//! Alpha–beta communication cost model (§4.3) with presets for the
//! paper's evaluation platforms (Table 2).
//!
//! The paper models per-processor communication as
//! `C_comm = (#msgs)·α + (bytes)/β` and per-processor computation as
//! `c · (#subdomain inferences)`. Since this reproduction runs on a single
//! core, the benches count real messages and bytes through
//! [`CommStats`](crate::CommStats) and convert them to modeled seconds with
//! this model, while compute is measured directly.

use crate::CommStats;

/// Latency/bandwidth model for one interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfModel {
    /// Per-message latency α in seconds.
    pub alpha: f64,
    /// Bandwidth β in bytes per second.
    pub beta: f64,
}

impl PerfModel {
    /// ConnectX-5 InfiniBand (100 Gbit/s) inter-node fabric used by all
    /// three clusters in Table 2, with MPI-level small-message latency.
    pub fn infiniband_100g() -> Self {
        Self {
            alpha: 2.0e-6,
            beta: 12.5e9,
        }
    }

    /// A30 nodes with NVLink (200 GB/s intra-node); inter-node still
    /// 100 Gbit/s InfiniBand — this is the platform of the paper's headline
    /// scaling runs.
    pub fn a30_cluster() -> Self {
        Self {
            alpha: 2.5e-6,
            beta: 12.5e9,
        }
    }

    /// The mpi4py path the paper actually measured serializes tensors
    /// before sending; model that as a higher per-message latency.
    pub fn mpi4py_serialized() -> Self {
        Self {
            alpha: 5.0e-5,
            beta: 10.0e9,
        }
    }

    /// Modeled time for a message count and byte volume.
    pub fn time(&self, msgs: usize, bytes: usize) -> f64 {
        msgs as f64 * self.alpha + bytes as f64 / self.beta
    }

    /// Modeled time for recorded counters (sent side).
    pub fn time_for(&self, stats: &CommStats) -> f64 {
        self.time(stats.msgs_sent, stats.bytes_sent)
    }

    /// Modeled *per-rank* cost of the flat recursive-doubling
    /// allreduce on `p` ranks: every rank sends `⌈log2 p⌉` full
    /// `elems`-element vectors (plus a fold/unfold exchange when `p` is
    /// not a power of two). This is the quantity the
    /// [`OverlapTracker`](crate::OverlapTracker) models from per-rank
    /// sent counters, and it grows with `log p` on *every* rank.
    pub fn rd_allreduce_cost(&self, p: usize, elems: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil() as usize;
        let extra = if p.is_power_of_two() { 0 } else { 2 };
        self.time(rounds + extra, (rounds + extra) * elems * 8)
    }

    /// Modeled *per-rank* cost of the hierarchical tree allreduce
    /// (node-leader gather → binomial reduce among leaders → binomial
    /// broadcast → fan-out). Total traffic is `≈ 2(p−1)` messages, so
    /// the average rank sends ~2 — a node member sends one vector to
    /// its leader and receives one back, independent of world size.
    /// That constant per-rank load is why the tree wins for small
    /// messages at ≥64 ranks even though its leader chain is deeper
    /// than recursive doubling's butterfly.
    pub fn tree_allreduce_cost(&self, p: usize, node_size: usize, elems: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let leaders = p.div_ceil(node_size.max(1));
        let total_msgs = (p - leaders) * 2 + (leaders.saturating_sub(1)) * 2;
        let per_rank = (total_msgs as f64 / p as f64).ceil() as usize;
        self.time(per_rank, per_rank * elems * 8)
    }

    /// The paper's closed-form per-processor MFP communication cost
    /// (§4.3): `C_comm = 8·I·α + I·16·N·d/√P · w/β`, where `I` is the
    /// iteration count, `N` the global resolution, `d` the subdomain
    /// density, `P` the processor count and `w` the word size in bytes.
    pub fn mfp_comm_cost(&self, iters: usize, n: usize, d: usize, p: usize) -> f64 {
        let bytes_per_iter = 16.0 * n as f64 * d as f64 / (p as f64).sqrt() * 8.0;
        iters as f64 * (8.0 * self.alpha + bytes_per_iter / self.beta)
    }
}

/// Device-level (GPU-like) inference cost model, used where a real
/// accelerator's occupancy behaviour cannot be measured on this host.
///
/// A batched inference of `q` points costs
/// `launch_overhead + q / (peak_points_per_sec · occupancy(q))` with
/// `occupancy(q) = min(1, q / saturation_points)`: tiny launches leave the
/// device idle, which is exactly why the paper's batched MFP (§4.1) beats
/// the one-subdomain-at-a-time baseline by up to 100×.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuModel {
    /// Fixed cost per kernel launch / inference call, seconds.
    pub launch_overhead: f64,
    /// Peak sustained throughput, points per second.
    pub peak_points_per_sec: f64,
    /// Batch size (points) at which the device reaches full occupancy.
    pub saturation_points: usize,
}

impl GpuModel {
    /// A30-like inference behaviour for a small MLP.
    pub fn a30_like() -> Self {
        Self {
            launch_overhead: 3.0e-5,
            peak_points_per_sec: 5.0e7,
            saturation_points: 8192,
        }
    }

    /// Occupancy fraction for a launch of `q` points.
    pub fn occupancy(&self, q: usize) -> f64 {
        (q as f64 / self.saturation_points as f64).min(1.0)
    }

    /// Modeled time of one launch of `q` points.
    pub fn launch_time(&self, q: usize) -> f64 {
        if q == 0 {
            return 0.0;
        }
        self.launch_overhead + q as f64 / (self.peak_points_per_sec * self.occupancy(q))
    }

    /// Modeled time of `launches` equal launches totalling `points`.
    pub fn time(&self, launches: usize, points: usize) -> f64 {
        if launches == 0 {
            return 0.0;
        }
        launches as f64 * self.launch_time(points / launches.max(1))
    }
}

/// CPU time consumed by the calling thread, in seconds.
///
/// Unlike `Instant::now()` differences, this excludes time the thread
/// spent descheduled — essential when many simulated ranks timeshare a
/// single core and each must report only its *own* work.
pub fn thread_cpu_time() -> f64 {
    // Direct libc call (declared here so the workspace needs no `libc`
    // crate; the C library is linked by std anyway).
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid, writable timespec; the clock id is a constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_model_rewards_batching() {
        let m = GpuModel::a30_like();
        // 1000 launches of 13 points vs 18 launches of ~722 points
        // (same total work, the Fig-8 situation).
        let unbatched = m.time(1000, 13_000);
        let batched = m.time(18, 13_000);
        assert!(
            unbatched / batched > 10.0,
            "batching speedup only {:.1}x",
            unbatched / batched
        );
    }

    #[test]
    fn gpu_occupancy_saturates() {
        let m = GpuModel::a30_like();
        assert!(m.occupancy(100) < 0.1);
        assert_eq!(m.occupancy(100_000), 1.0);
        // Above saturation, time is linear in points.
        let a = m.launch_time(10_000);
        let b = m.launch_time(20_000);
        assert!((b - a - 10_000.0 / m.peak_points_per_sec).abs() < 1e-9);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t0 = thread_cpu_time();
        let mut acc = 0.0_f64;
        for i in 0..2_000_000 {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
        let t1 = thread_cpu_time();
        assert!(t1 > t0, "thread CPU time did not advance");
    }

    #[test]
    fn time_is_linear_in_messages_and_bytes() {
        let m = PerfModel {
            alpha: 1e-6,
            beta: 1e9,
        };
        assert!((m.time(10, 0) - 1e-5).abs() < 1e-18);
        assert!((m.time(0, 1_000_000) - 1e-3).abs() < 1e-12);
        assert!((m.time(10, 1_000_000) - (1e-5 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = PerfModel::mpi4py_serialized();
        // A 1 KiB message: latency term ≫ bandwidth term, matching the
        // paper's observation that CUDA-aware MPI did not help.
        let lat = m.alpha;
        let bw = 1024.0 / m.beta;
        assert!(lat > 100.0 * bw);
    }

    #[test]
    fn tree_allreduce_beats_recursive_doubling_at_scale() {
        let m = PerfModel::a30_cluster();
        // Small message — the 2 doubles of the one-level stop test, the
        // 22 of the accelerated iteration — and large worlds: the tree's
        // critical path grows with log(leaders), rd's with log(p).
        for p in [64, 256, 1024] {
            for elems in [2, 22] {
                let rd = m.rd_allreduce_cost(p, elems);
                let tree = m.tree_allreduce_cost(p, 8, elems);
                assert!(tree < rd, "tree {tree} !< rd {rd} at p={p}, {elems} elems");
            }
        }
        // The larger payload is still latency: under 1 % of one message's
        // alpha per round.
        let rounds = 10.0;
        let extra = m.rd_allreduce_cost(1024, 22) - m.rd_allreduce_cost(1024, 2);
        assert!(extra < 0.01 * rounds * m.alpha, "{extra}");
        // Degenerate worlds cost nothing.
        assert_eq!(m.rd_allreduce_cost(1, 2), 0.0);
        assert_eq!(m.tree_allreduce_cost(1, 8, 2), 0.0);
    }

    #[test]
    fn mfp_cost_decreases_with_more_processors() {
        let m = PerfModel::a30_cluster();
        let c1 = m.mfp_comm_cost(1000, 2048, 2, 1);
        let c16 = m.mfp_comm_cost(1000, 2048, 2, 16);
        assert!(c16 < c1, "bandwidth term must shrink with √P");
        // But not below the latency floor.
        let floor = 1000.0 * 8.0 * m.alpha;
        assert!(c16 >= floor);
    }

    #[test]
    fn mfp_cost_scales_linearly_with_iterations() {
        let m = PerfModel::infiniband_100g();
        let a = m.mfp_comm_cost(100, 512, 2, 4);
        let b = m.mfp_comm_cost(200, 512, 2, 4);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn time_for_uses_sent_counters() {
        let m = PerfModel {
            alpha: 1.0,
            beta: 8.0,
        };
        let stats = CommStats {
            msgs_sent: 2,
            bytes_sent: 16,
            ..Default::default()
        };
        assert!((m.time_for(&stats) - 4.0).abs() < 1e-12);
    }
}
