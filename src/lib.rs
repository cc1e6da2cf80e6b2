#![warn(missing_docs)]

//! **mosaic-flow** — distributed domain decomposition with scalable
//! physics-informed neural PDE solvers.
//!
//! A from-scratch Rust reproduction of *"Breaking Boundaries: Distributed
//! Domain Decomposition with Scalable Physics-Informed Neural PDE
//! Solvers"* (SC '23): data-parallel training of the SDNet subdomain
//! solver (Algorithm 1) and the distributed Mosaic Flow predictor
//! (Algorithm 2), together with every substrate they need — tensors,
//! higher-order autodiff, multigrid ground truth, Gaussian-process data
//! generation, optimizers, and a simulated message-passing cluster.
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! ```
//! use mosaic_flow::prelude::*;
//!
//! // Solve a 1x1 BVP with the numerical oracle as the subdomain solver.
//! let spec = SubdomainSpec { m: 9, spatial: 0.5 };
//! let domain = DomainSpec::new(spec, 1, 1);
//! let oracle = OracleSolver::new(spec, 1e-9);
//! let bc = mosaic_flow::numerics::boundary::boundary_from_fn(
//!     domain.ny(), domain.nx(), |t| (2.0 * std::f64::consts::PI * t).sin());
//! let result = Mfp::new(&oracle, domain).run(&bc, &MfpConfig::default());
//! assert!(result.converged);
//! ```

pub use mf_autodiff as autodiff;
pub use mf_data as data;
pub use mf_dist as dist;
pub use mf_gp as gp;
pub use mf_infer as infer;
pub use mf_mfp as mfp;
pub use mf_nn as nn;
pub use mf_numerics as numerics;
pub use mf_observe as observe;
pub use mf_opt as opt;
pub use mf_profile as profile;
pub use mf_reqtrace as reqtrace;
pub use mf_serve as serve;
pub use mf_telemetry as telemetry;
pub use mf_tensor as tensor;
pub use mf_train as train;

/// The most commonly used items in one import.
pub mod prelude {
    pub use mf_autodiff::{Graph, Var};
    pub use mf_data::{Batch, BatchSampler, Dataset, SubdomainSpec};
    pub use mf_dist::{
        CartesianGrid, Cluster, ClusterError, CommError, Communicator, CrashAt, FaultPlan,
        PerfModel,
    };
    pub use mf_gp::{BoundarySampler, Kernel1d, Sobol};
    pub use mf_infer::{InferencePlan, Workspace};
    pub use mf_mfp::{
        run_distributed, try_run_distributed, DistMfpConfig, DomainSpec, Mfp, MfpConfig,
        OracleSolver, PlanSolver, SubdomainSolver,
    };
    pub use mf_nn::{EmbeddingKind, SdNet, SdNetConfig};
    pub use mf_opt::{Adam, AdamW, Lamb, LrSchedule, Optimizer, Sgd};
    pub use mf_serve::{
        ServeConfig, ServeError, SolveRequest, SolveResponse, SolveService, TcpServer,
    };
    pub use mf_tensor::Tensor;
    pub use mf_train::trainer::OptKind;
    pub use mf_train::{
        evaluate_mse, train_ddp, train_ddp_resumable, train_single, CheckpointConfig, GradSync,
        TrainConfig,
    };
}
