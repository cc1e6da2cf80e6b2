#![warn(missing_docs)]

//! Optimizers and learning-rate schedules for SDNet training.
//!
//! The paper tunes a single-GPU recipe (AdamW-style, max LR 1e-3, linear
//! warmup + polynomial decay of exponent one) and switches to **LAMB** for
//! large-batch multi-GPU training, scaling the max LR by the square root of
//! the batch growth and the warmup fraction linearly (§5.2). This crate
//! implements:
//!
//! * [`Sgd`] (plain, no momentum), [`Adam`], [`AdamW`] (decoupled weight
//!   decay), and [`Lamb`] (layerwise trust-ratio adaptation, You et al.),
//! * [`LrSchedule`] — linear warmup into linear decay to zero, plus the
//!   paper's batch-size scaling rules ([`LrSchedule::scaled_for_devices`]).
//!
//! All optimizers implement [`Optimizer`] and update a parameter list in
//! place given a gradient list of the same structure.

mod optim;
mod schedule;

pub use optim::{clip_grad_norm, Adam, AdamW, Lamb, Optimizer, OptimizerState, Sgd};
pub use schedule::LrSchedule;
