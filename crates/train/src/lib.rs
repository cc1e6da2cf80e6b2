#![warn(missing_docs)]

//! Physics-informed training of SDNet, single-device and distributed
//! data-parallel (Algorithm 1 of the paper).
//!
//! * [`losses`] builds the two loss terms on the autodiff graph: an MSE
//!   data loss at points with known solutions, and the PDE residual loss
//!   `mean((∂²u/∂x² + ∂²u/∂y²)²)` at collocation points via two chained
//!   backward passes (the third backward then reaches the weights).
//! * [`step`] implements Algorithm 1: per-rank forward/backward for data
//!   points, gradient *accumulation* over the collocation backward, and a
//!   **single fused allreduce-mean** per iteration. An unfused variant (one
//!   allreduce per loss term) exists for the communication ablation. It is
//!   written once, as a private step core that [`train_step_single`] and
//!   [`train_step_distributed`] run without a clip.
//! * [`trainer`] runs epochs, evaluates validation MSE on full grids, and
//!   wires the paper's LR scaling rules for multi-device runs: one private
//!   epoch core over the step core, under a local driver ([`train_single`])
//!   and a per-rank driver ([`train_ddp`], [`train_ddp_resumable`]).
//! * [`memory`] meters the autograd graph bytes with and without the PDE
//!   loss, reproducing Table 3.

pub mod checkpoint;
pub mod losses;
pub mod memory;
pub mod step;
pub mod trainer;

pub use checkpoint::{save_checkpoint, CheckpointConfig, TrainState};
pub use losses::{data_loss, pde_loss};
pub use memory::{measure_step_memory, measure_step_memory_with, MemoryReport};
pub use step::{
    checkpointed_segments, local_gradients, set_checkpointed_segments, train_step_distributed,
    train_step_single, GradSync, StepStats,
};
pub use trainer::{
    evaluate_mse, train_ddp, train_ddp_resumable, train_single, DdpResult, EpochLog, EvalPlan,
    TrainConfig,
};
