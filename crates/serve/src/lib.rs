#![warn(missing_docs)]

//! **mf-serve** — a long-lived solve service with cross-request batching.
//!
//! The paper's pitch is that a trained SDNet plus the Mosaic Flow
//! predictor is a *reusable* solver: transferability to unseen BVPs only
//! pays off if many clients can submit boundary-value problems to one
//! long-lived process instead of re-running a batch binary per query.
//! With the compiled `InferencePlan` the per-point cost is low enough
//! that the bottleneck moves to request handling: a single request's
//! launches carry only a handful of query points each (a 1×1 domain
//! issues `[1, L]` launches over 15-point crosses), which starves the
//! GEMM microkernel and pays the full per-launch fixed cost — plan-cache
//! probe, workspace checkout, interpreter dispatch — for barely any
//! arithmetic.
//!
//! The production trick is *batching whole requests together*:
//!
//! * [`SolveService`] — bounded request queue with typed backpressure
//!   ([`ServeError::Busy`] carries a retry hint; nothing ever blocks or
//!   hangs on a full queue) and a worker pool draining request batches.
//! * [`Scheduler`] — the batching heart: accepted requests enter a
//!   bounded queue; a worker drains the oldest request *plus every
//!   queued request with an equal batch key* (domain shape + iteration
//!   controls, compared exactly), oldest-first, up to a point budget
//!   ([`ServeConfig::max_points`]). The whole batch is driven through
//!   one `Mfp::run_many`, which stacks every request's subdomain
//!   boundaries into shared fat compiled-plan launches (per-shape plan cache, shared `Workspace` pool — the same
//!   `PlanCache` / `WorkspacePool` machinery `mf-mfp`'s `PlanSolver`
//!   uses) and scatters solution rows back per request. Batching is
//!   *lossless*: every kernel in the plan is row-independent and each
//!   request keeps its own convergence test, so a batched solve is
//!   bitwise identical to solving each request alone (property-tested
//!   in `mf-mfp` and asserted again at service level).
//! * [`TcpServer`] — line-delimited JSON over `std::net` threads (see
//!   [`protocol`]); `mosaic-flow serve` wires it to the CLI and the
//!   `repro_serve` bench binary load-tests it.
//!
//! Latency percentiles (`serve.p50_ms`/`p95_ms`/`p99_ms`), sustained
//! `serve.req_per_s`, queue depths, and batch occupancy are published
//! only as `mf-telemetry` gauges, so the live `MetricsServer`
//! (`/metrics`, `/snapshot`) exposes them mid-load.
//!
//! Every request also carries an `mf-reqtrace` [`TraceContext`]: minted
//! at TCP accept (or [`SolveService::submit`]), carried through the
//! scheduler queue and the worker's batch. The worker writes the
//! request's record when its reply goes out — wall time decomposed into
//! queue-wait, batch-wait, solve, reply-wait and serialization, plus the
//! iterations, convergence and last residual of its solve — and the
//! batch's records land in the `GET /requests` ring, the
//! slowest/worst-residual exemplars are exportable as a Chrome-trace
//! bundle, and the workers feed
//! `serve.slo_*` burn-rate gauges plus `/healthz` + `/readyz` on the
//! same `MetricsServer`.
//!
//! [`TraceContext`]: mf_reqtrace::TraceContext

pub mod protocol;
mod scheduler;
mod service;
mod tcp;

pub use scheduler::{Scheduler, SchedulerStats, SubmitError};
pub use service::{
    ServeConfig, ServeError, ServiceStats, SolveRequest, SolveResponse, SolveService,
    WORKER_RANK_BASE,
};
pub use tcp::TcpServer;
