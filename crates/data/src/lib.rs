#![warn(missing_docs)]

//! Dataset generation and batching for SDNet training (§5.1/§5.2).
//!
//! Pipeline, mirroring the paper: a Sobol sequence sweeps Gaussian-process
//! kernel hyperparameters → each GP yields one boundary curve → each
//! boundary value problem is solved exactly by the subdomain's discrete
//! Dirichlet map (`mf_numerics::DirichletMap`, our pyAMG substitute) →
//! the (boundary, solution-grid) pairs form the dataset.
//!
//! Training consumes [`Batch`]es holding three tensors per step: the
//! boundary conditions, *data points* with known solutions (grid points of
//! the numerical solve) and *collocation points* (uniform random interior
//! coordinates where only the PDE residual is enforced).

mod batch;
mod dataset;

pub use batch::{Batch, BatchSampler, SamplerState};
pub use dataset::{Dataset, Sample, SubdomainSpec};
