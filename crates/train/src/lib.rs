#![warn(missing_docs)]

//! Physics-informed training of SDNet, single-device and distributed
//! data-parallel (Algorithm 1 of the paper).
//!
//! * [`losses`] builds the two loss terms on the autodiff graph: an MSE
//!   data loss at points with known solutions, and the PDE residual loss
//!   `mean((∂²u/∂x² + ∂²u/∂y²)²)` at collocation points, whose Laplacian the
//!   network carries forward through its layers (one backward then reaches
//!   the weights). The paper's form of the same loss — two chained backward
//!   passes to the Laplacian, the third to the weights, on a tape that keeps
//!   everything it records — is kept for Table 3's meter and as the tests'
//!   oracle.
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
//! * [`memory`] meters the autograd graph bytes a tape records with and
//!   without the paper's triple-backward PDE loss, reproducing Table 3.

pub mod checkpoint;
pub mod losses;
pub mod memory;
pub mod step;
pub mod trainer;

pub use checkpoint::{save_checkpoint, CheckpointConfig, TrainState};
pub use losses::{data_loss, pde_loss, pde_loss_triple_backward};
pub use memory::{measure_step_memory, MemoryReport};
pub use step::{local_gradients, train_step_distributed, train_step_single, GradSync, StepStats};
pub use trainer::{
    evaluate_mse, train_ddp, train_ddp_resumable, train_single, DdpResult, EpochLog, TrainConfig,
};
