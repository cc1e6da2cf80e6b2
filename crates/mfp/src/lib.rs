#![warn(missing_docs)]

//! The Mosaic Flow predictor (MFP): solving boundary value problems on
//! large domains purely by inference over a pre-trained subdomain solver.
//!
//! The domain is covered by **overlapping subdomains** placed on a lattice
//! with spacing of half a subdomain (the paper's `½m` interval, Fig. 2).
//! The solution lives only on the lattice lines; each iteration feeds every
//! subdomain's boundary (read from the lattice) to the subdomain solver and
//! writes back the predicted **center cross**, which is a boundary line of
//! the neighboring subdomains — an alternating-Schwarz sweep that touches a
//! small fraction of the grid points. Only a cross's *live* points are
//! predicted: those that no later sweep group of the same owned region
//! overwrites before it reads them ([`live_cross_points`]). A final dense pass fills the atomic
//! (non-overlapping) subdomains.
//!
//! Algorithm 2 is one loop, and the crate has it once:
//!
//! * the engine (`engine.rs`) — the four non-overlapping sweep groups of
//!   an owned region, each solved in one batched inference (§4.1), the
//!   residual sums over the owned lattice, the stop rule (tolerance,
//!   optional [`MaeTarget`]; a non-finite residual ends the solve), and
//!   the second level that makes a solve take a dozen sweeps instead of a
//!   hundred: a coarse-grid seed and Anderson mixing of the lattice
//!   iterate ([`MfpConfig::accelerate`], on by default; off is
//!   Algorithm 2 as printed — same fixed point, same meaning of `tol`);
//! * the loop (`seq.rs`), which [`Mfp`] runs with no peers: any number of
//!   requests on the whole grid, no halo ([`Mfp::run`] is
//!   [`Mfp::run_many`] of one request);
//! * [`run_distributed`] (and [`try_run_distributed`], which returns a
//!   rank failure as a typed error), which runs the same loop on every
//!   rank with its peers (`dist.rs`): the domain is split over a 2-D
//!   processor grid; each rank sweeps its own subdomains with immediate
//!   local updates and exchanges halo lattice values with ≤8 neighbors
//!   **once per iteration**, every iteration (relaxed synchronization),
//!   overlapped with its interior sweep; the mixing's Gram sums ride the
//!   one convergence allreduce, so its coefficients are global. The
//!   shifted operator `σu − Δu = f` is solved locally only
//!   ([`Mfp::run_shifted`]).
//!
//! The original one-inference-per-subdomain baseline of Fig. 8 is the
//! [`UnbatchedSolver`] adapter around any solver.
//!
//! The [`SubdomainSolver`] trait abstracts the subdomain solver behind one
//! launch, [`SubdomainSolver::solve_batch_subset`]: a trained SDNet run as
//! the compiled `f32` [`PlanSolver`], or the numerical [`OracleSolver`]
//! (the exact discrete Dirichlet map), which isolates the convergence
//! behaviour of the distributed algorithm from neural-model error.

mod dist;
mod domain;
mod engine;
#[cfg(test)]
mod lattice_proptests;
mod plan;
mod seq;
mod solver;

pub use dist::{
    live_cross_points, run_distributed, try_run_distributed, DistMfpConfig, DistMfpResult,
    LiveGroup, RankReport,
};
pub use domain::{DomainSpec, Subdomain};
pub use engine::MaeTarget;
pub use mf_infer::Subset;
pub use plan::PlanSolver;
pub use seq::{Mfp, MfpConfig, MfpResult};
pub use solver::{OracleSolver, SubdomainSolver, UnbatchedSolver};
