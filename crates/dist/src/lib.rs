#![warn(missing_docs)]

//! Simulated distributed runtime: the repository's stand-in for
//! CUDA-aware MPI on a GPU cluster.
//!
//! The paper's distributed algorithms (data-parallel training with a fused
//! allreduce, and the halo-exchanging Mosaic Flow predictor) are expressed
//! against a small message-passing interface. Here every *rank* is an OS
//! thread and every link is a crossbeam channel:
//!
//! * [`Cluster::run`] spawns one thread per rank and hands each a
//!   [`Communicator`]; with `--metrics` on it prints one report over the
//!   ranks' own metrics snapshots when they return, without a message,
//! * point-to-point [`Communicator::send`]/[`Communicator::recv`] with
//!   tags and out-of-order buffering (MPI semantics),
//! * the halo exchange of Algorithm 2: [`Communicator::exchange_start`]
//!   posts the sends, and the blocking [`Communicator::wait`] completes
//!   each receive,
//! * collectives: [`Communicator::allreduce_sum`] (ring, recursive
//!   doubling or tree by size), [`Communicator::allgather`],
//!   [`Communicator::broadcast`], [`Communicator::barrier`],
//! * [`CartesianGrid`] — the 2-D processor grid of §4.2 with row-scan
//!   rank placement and 8-neighbor stencils,
//! * [`CommStats`] counters and the [`PerfModel`] alpha–beta model of
//!   §4.3, which converts counted messages/bytes into modeled wall-clock
//!   on paper-like hardware (Table 2 presets).
//!
//! Scaling is measured on real threads up to the host's cores and
//! alpha–beta-modeled beyond: results are reported as *measured per-rank
//! compute + modeled communication*; the message traffic itself is real
//! and verified.

mod comm;
mod fault;
#[cfg(test)]
mod fault_tests;
mod overlap;
mod perfmodel;
#[cfg(test)]
mod stress_tests;
mod topology;

pub use comm::{
    Cluster, CommStats, Communicator, RecvHandle, ALLREDUCE_RD_MAX_ELEMS, TREE_MIN_RANKS,
    TREE_NODE_SIZE,
};
pub use fault::{ClusterError, CommError, CrashAt, FaultPlan};
pub use overlap::{OverlapSample, OverlapTracker};
pub use perfmodel::{thread_cpu_time, GpuModel, PerfModel};
pub use topology::{CartesianGrid, Direction, NodeMap};
