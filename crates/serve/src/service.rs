//! The solve service: bounded request queue, MFP worker pool, and the
//! latency/throughput telemetry the live `MetricsServer` exposes.
//!
//! Requests enter through [`SolveService::submit`] (non-blocking;
//! validated up front, typed [`ServeError::Busy`] when the queue is at
//! its bound). Worker threads drain same-shape request *batches* from
//! the [`Scheduler`] and drive each batch through one
//! `Mfp::run_many`, which packs every request's query points into
//! shared compiled-plan launches. Requests share a batch only when their
//! `BatchKey`s are equal, and the batch's domain and `MfpConfig` are
//! read from that key. A zero budget (`ServeConfig { max_points: 0, .. }`)
//! caps every batch at one request — the per-request baseline the bench
//! gate compares against.

use crate::scheduler::{Scheduler, SchedulerStats, SubmitError};
use mf_data::SubdomainSpec;
use mf_mfp::{DomainSpec, Mfp, MfpConfig, PlanSolver, SubdomainSolver};
use mf_reqtrace::{RequestTrace, TraceContext};
use mf_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// First telemetry rank used by service workers (worker `i` publishes as
/// rank `WORKER_RANK_BASE + i`, keeping serve threads distinct from the
/// simulated cluster's ranks in `/snapshot`).
pub const WORKER_RANK_BASE: usize = 64;

/// The largest `max_iters` a request may ask for; submission refuses
/// anything outside `1..=MAX_ITERS`.
const MAX_ITERS: usize = 10_000;

/// The most subdomains a request's domain may have per axis.
const MAX_DOMAIN: usize = 8;

/// Service-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads, each draining request batches.
    pub workers: usize,
    /// Bound on queued (not yet started) requests; beyond it submissions
    /// get [`ServeError::Busy`].
    pub queue_depth: usize,
    /// Drain at most this many sweep query points (Σ over the batch's
    /// requests) into one batch; a batch always takes at least one
    /// request, so 0 solves every request alone.
    pub max_points: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_depth: 256,
            max_points: 4096,
        }
    }
}

/// One boundary-value problem.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Subdomains along x.
    pub sx: usize,
    /// Subdomains along y.
    pub sy: usize,
    /// Global boundary walk (`1 × domain.boundary_len()`).
    pub bc: Tensor,
    /// Schwarz iteration cap, in `1..=10_000`.
    pub max_iters: usize,
    /// Relative-change convergence threshold.
    pub tol: f64,
    /// Return the dense solution grid (large); otherwise only summary
    /// statistics come back.
    pub want_grid: bool,
}

impl SolveRequest {
    /// A request with default iteration controls.
    pub fn new(sx: usize, sy: usize, bc: Tensor) -> Self {
        Self {
            sx,
            sy,
            bc,
            max_iters: 100,
            tol: 1e-4,
            want_grid: false,
        }
    }
}

/// A completed solve.
#[derive(Clone, Debug)]
pub struct SolveResponse {
    /// Schwarz iterations performed.
    pub iterations: usize,
    /// Whether the tolerance fired before the iteration cap.
    pub converged: bool,
    /// Mean of the dense solution grid (cheap value check).
    pub mean: f64,
    /// Dense grid when the request asked for it.
    pub grid: Option<Tensor>,
    /// Queue wait + solve time, as measured by the worker: enqueue until
    /// it turned to this reply.
    pub latency_ms: f64,
}

/// Typed request rejection / failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The request queue is at its bound; retry after the hinted delay.
    Busy {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// The request itself is invalid (bad domain, wrong boundary length).
    BadRequest(String),
    /// The service is shutting down.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy { retry_after_ms } => {
                write!(f, "busy, retry after {retry_after_ms}ms")
            }
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Shutdown => write!(f, "service shut down"),
        }
    }
}

/// Service-level request counters (see [`SolveService::stats`]). The
/// latency percentiles and throughput are the `serve.*` gauges.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests rejected with [`ServeError::Busy`].
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
}

/// Which requests may share one `Mfp::run_many`: those with the same
/// domain shape and iteration controls, compared exactly. A batch's
/// domain and `MfpConfig` are built from its key alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BatchKey {
    pub(crate) sx: usize,
    pub(crate) sy: usize,
    pub(crate) max_iters: usize,
    /// `tol.to_bits()`: submission admits only finite positive
    /// tolerances, for which equal bits mean equal values.
    pub(crate) tol_bits: u64,
}

impl BatchKey {
    fn of(req: &SolveRequest) -> Self {
        Self {
            sx: req.sx,
            sy: req.sy,
            max_iters: req.max_iters,
            tol_bits: req.tol.to_bits(),
        }
    }

    fn mfp_config(&self) -> MfpConfig {
        MfpConfig {
            max_iters: self.max_iters,
            tol: f64::from_bits(self.tol_bits),
            ..MfpConfig::default()
        }
    }
}

/// A queued request: what its batch key does not hold.
struct Job {
    bc: Tensor,
    want_grid: bool,
    reply: mpsc::Sender<Result<SolveResponse, ServeError>>,
    /// Request-scoped trace context, carried by value to the worker.
    ctx: TraceContext,
    /// Enqueue time on the telemetry clock: the one clock of the reply's
    /// latency and the request log's phases.
    enqueued_us: u64,
}

/// Sliding window of recent request latencies for the percentile gauges.
struct Reservoir(mf_telemetry::Ring<f64>);

const RESERVOIR_CAP: usize = 2048;

impl Reservoir {
    /// `(p50, p95, p99)` over the window, nearest-rank.
    fn percentiles(&self) -> (f64, f64, f64) {
        if self.0.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut sorted: Vec<f64> = self.0.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let at = |p: f64| {
            let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        (at(0.50), at(0.95), at(0.99))
    }
}

struct ServiceInner {
    solver: Arc<PlanSolver>,
    spec: SubdomainSpec,
    cfg: ServeConfig,
    sched: Scheduler<Job, BatchKey>,
    reservoir: Mutex<Reservoir>,
    started: Instant,
    completed: AtomicU64,
    unconverged: AtomicU64,
}

/// The long-lived solve service. See the module docs for the data flow.
/// Dropping the service drains the request queue (every accepted request
/// still gets its reply) and joins the workers.
pub struct SolveService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl SolveService {
    /// Start the service around a shared compiled-plan solver.
    pub fn new(solver: PlanSolver, cfg: ServeConfig) -> Self {
        let spec = solver.spec();
        let inner = Arc::new(ServiceInner {
            solver: Arc::new(solver),
            spec,
            cfg,
            sched: Scheduler::new(cfg.max_points, cfg.queue_depth),
            reservoir: Mutex::new(Reservoir(mf_telemetry::Ring::new(RESERVOIR_CAP))),
            started: Instant::now(),
            completed: AtomicU64::new(0),
            unconverged: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mf-serve-worker-{i}"))
                    .spawn(move || worker_loop(i, inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// The subdomain geometry every request solves against.
    pub fn spec(&self) -> SubdomainSpec {
        self.inner.spec
    }

    /// Submit a request without blocking. Returns the reply receiver;
    /// invalid requests fail fast with [`ServeError::BadRequest`] and a
    /// full queue with [`ServeError::Busy`]. Mints a root
    /// [`TraceContext`] for the request; callers that already carry a
    /// context (the TCP layer) use [`SolveService::submit_traced`].
    pub fn submit(
        &self,
        req: SolveRequest,
    ) -> Result<mpsc::Receiver<Result<SolveResponse, ServeError>>, ServeError> {
        self.submit_traced(req, TraceContext::root())
    }

    /// [`SolveService::submit`] with a caller-minted trace context — the
    /// request id is stamped into every span the request produces and
    /// keys its entry in the `GET /requests` log.
    pub fn submit_traced(
        &self,
        req: SolveRequest,
        ctx: TraceContext,
    ) -> Result<mpsc::Receiver<Result<SolveResponse, ServeError>>, ServeError> {
        let domain_len = match self.validate(&req) {
            Ok(len) => len,
            Err(e) => {
                mf_telemetry::log!(Warn, "serve.bad_request", req = ctx.req, err = e);
                return Err(e);
            }
        };
        debug_assert_eq!(req.bc.numel(), domain_len);
        let key = BatchKey::of(&req);
        let cost = sweep_cost(self.inner.spec, req.sx, req.sy);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            bc: req.bc,
            want_grid: req.want_grid,
            reply: tx,
            ctx,
            enqueued_us: mf_telemetry::now_us(),
        };
        match self.inner.sched.submit(job, key, cost) {
            Ok(()) => Ok(rx),
            Err(SubmitError::QueueFull { retry_after_ms }) => {
                mf_telemetry::log!(
                    Debug,
                    "serve.busy",
                    req = ctx.req,
                    retry_after_ms = retry_after_ms
                );
                Err(ServeError::Busy { retry_after_ms })
            }
            Err(SubmitError::Shutdown) => Err(ServeError::Shutdown),
        }
    }

    /// Submit and wait for the reply.
    pub fn solve_blocking(&self, req: SolveRequest) -> Result<SolveResponse, ServeError> {
        self.solve_blocking_traced(req, TraceContext::root())
    }

    /// [`SolveService::solve_blocking`] with a caller-minted trace
    /// context.
    pub fn solve_blocking_traced(
        &self,
        req: SolveRequest,
        ctx: TraceContext,
    ) -> Result<SolveResponse, ServeError> {
        let rx = self.submit_traced(req, ctx)?;
        rx.recv().map_err(|_| ServeError::Shutdown)?
    }

    /// The `sx × sy` domain, or [`ServeError::BadRequest`] if it is outside
    /// `1..=MAX_DOMAIN` subdomains on either axis — the first check of
    /// every submission, and one a front end runs before it builds a
    /// boundary whose cost grows with the domain.
    pub fn check_domain(&self, sx: usize, sy: usize) -> Result<DomainSpec, ServeError> {
        if sx == 0 || sy == 0 || sx > MAX_DOMAIN || sy > MAX_DOMAIN {
            return Err(ServeError::BadRequest(format!(
                "domain {sx}x{sy} out of bounds (1..={MAX_DOMAIN} per axis)"
            )));
        }
        Ok(DomainSpec::new(self.inner.spec, sx, sy))
    }

    /// The largest domain [`SolveService::check_domain`] admits.
    pub(crate) fn largest_domain(&self) -> DomainSpec {
        DomainSpec::new(self.inner.spec, MAX_DOMAIN, MAX_DOMAIN)
    }

    fn validate(&self, req: &SolveRequest) -> Result<usize, ServeError> {
        let domain = self.check_domain(req.sx, req.sy)?;
        if req.bc.numel() != domain.boundary_len() {
            return Err(ServeError::BadRequest(format!(
                "boundary length {} does not match domain {}x{} (expected {})",
                req.bc.numel(),
                req.sx,
                req.sy,
                domain.boundary_len()
            )));
        }
        if !(1..=MAX_ITERS).contains(&req.max_iters) {
            return Err(ServeError::BadRequest(format!(
                "max_iters {} out of bounds (1..={MAX_ITERS})",
                req.max_iters
            )));
        }
        // NaN, zero and negative all mean "never converged": the request
        // would hold a worker for `max_iters` sweeps.
        if !req.tol.is_finite() || req.tol <= 0.0 {
            return Err(ServeError::BadRequest(format!(
                "tol {} is not a positive finite number",
                req.tol
            )));
        }
        if let Some(i) = req.bc.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "boundary value {i} is not finite"
            )));
        }
        Ok(domain.boundary_len())
    }

    /// Warm the solve path for batches of up to `max_batch` requests of
    /// shape `sx × sy`: compile the shape's two plans once and reserve one
    /// pooled workspace per worker ([`PlanSolver::reserve`]), each under
    /// the lane budget a worker declares, at the largest sweep and
    /// dense-fill launch such a batch forms. Each lane of each workspace
    /// runs every block of those launches and of every smaller one without
    /// a miss, so serving such batches allocates nothing in the workspace
    /// pool from the first request on, whichever worker takes it
    /// ([`PlanSolver::warm_allocs`] stays 0). The cost is compiling the
    /// two plans and allocating two registers per lane per worker: no
    /// step of either plan runs.
    pub fn prewarm(&self, sx: usize, sy: usize, max_batch: usize) {
        let workers = self.inner.cfg.workers.max(1);
        // A worker's lane budget decides how its launches are cut.
        let _lane = mf_tensor::par::compute_lanes(workers);
        let domain = DomainSpec::new(self.inner.spec, sx, sy);
        self.inner
            .solver
            .reserve(&domain, max_batch.max(1), workers);
    }

    /// The most requests of shape `sx × sy` the scheduler puts in one
    /// batch: same-key jobs up to the `max_points` budget of sweep cost
    /// (at least one), and no more than the queue holds.
    pub fn max_batch(&self, sx: usize, sy: usize) -> usize {
        let cfg = &self.inner.cfg;
        (cfg.max_points / sweep_cost(self.inner.spec, sx, sy)).clamp(1, cfg.queue_depth.max(1))
    }

    /// Requests currently queued (not yet claimed by a worker).
    pub fn queue_len(&self) -> usize {
        self.inner.sched.queue_len()
    }

    /// Request counters since the service started.
    pub fn stats(&self) -> ServiceStats {
        let sched = self.inner.sched.stats();
        ServiceStats {
            accepted: sched.submitted,
            rejected: sched.rejected,
            completed: self.inner.completed.load(Ordering::Relaxed),
        }
    }

    /// Scheduler counters (batches, occupancy, rejections).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.inner.sched.stats()
    }

    /// The compiled-plan solver every worker launches on: its launch
    /// count, plan cache and workspace-pool statistics.
    pub fn solver(&self) -> &PlanSolver {
        &self.inner.solver
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.inner.sched.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The scheduler-budget cost of a request on `sx × sy` subdomains: the
/// number of query points one of its Schwarz sweeps stacks into a launch.
fn sweep_cost(spec: SubdomainSpec, sx: usize, sy: usize) -> usize {
    let q_cross = 2 * (spec.m - 2) - 1;
    (sx * sy * q_cross).max(1)
}

fn worker_loop(index: usize, inner: Arc<ServiceInner>) {
    mf_telemetry::set_thread_rank(WORKER_RANK_BASE + index);
    // The workers solve side by side and share the cores between them.
    let _lane = mf_tensor::par::compute_lanes(inner.cfg.workers);
    // Reserve the request log's storage now, before the serve layer
    // declares the warm phase.
    mf_reqtrace::reserve();
    let c_requests = mf_telemetry::counter("serve.requests");
    let c_batches = mf_telemetry::counter("serve.batches");
    let g_occ = mf_telemetry::gauge("serve.batch_occupancy");
    let g_p50 = mf_telemetry::gauge("serve.p50_ms");
    let g_p95 = mf_telemetry::gauge("serve.p95_ms");
    let g_p99 = mf_telemetry::gauge("serve.p99_ms");
    let g_rps = mf_telemetry::gauge("serve.req_per_s");
    let g_qdepth = mf_telemetry::gauge("serve.queue_depth");
    let g_rej = mf_telemetry::gauge("serve.rejected");
    let g_slo_p99 = mf_telemetry::gauge("serve.slo_p99_burn");
    let g_slo_err = mf_telemetry::gauge("serve.slo_error_burn");
    let g_slo_conv = mf_telemetry::gauge("serve.slo_conv_burn");
    let mut batches = 0u64;
    while let Some((key, jobs)) = inner.sched.next_batch() {
        // The batch claim closes every member's queue wait.
        let claim_us = mf_telemetry::now_us();
        let outcome = handle_batch(&inner, key, &jobs);
        // Count completions before any reply goes out, so a client that
        // reads `stats()` right after its reply sees itself counted.
        let done = inner
            .completed
            .fetch_add(jobs.len() as u64, Ordering::Relaxed)
            + jobs.len() as u64;
        let unconverged = outcome.responses.iter().filter(|r| !r.converged).count() as u64;
        if unconverged > 0 {
            inner.unconverged.fetch_add(unconverged, Ordering::Relaxed);
        }
        let mut latencies = Vec::with_capacity(jobs.len());
        let tracing = mf_reqtrace::enabled();
        let mut traces = Vec::with_capacity(if tracing { jobs.len() } else { 0 });
        let solve = outcome.solve_us;
        // Replies go out one after another: a request waits behind its
        // siblings' replies [solve end, cursor) and is then serialized
        // [cursor, sent), so its five phases tile its wall time exactly.
        let mut ser_cursor = solve.1;
        for ((job, resp), residual) in jobs.iter().zip(outcome.responses).zip(outcome.residuals) {
            let latency_ms = ser_cursor.saturating_sub(job.enqueued_us) as f64 / 1e3;
            latencies.push(latency_ms);
            let (iterations, converged) = (resp.iterations as u32, resp.converged);
            let _ = job.reply.send(Ok(SolveResponse { latency_ms, ..resp }));
            let sent_us = mf_telemetry::now_us();
            // The worker holds every fact of the request: it writes the
            // record, whole.
            if tracing {
                let bounds = [
                    job.enqueued_us,
                    claim_us,
                    solve.0,
                    solve.1,
                    ser_cursor,
                    sent_us,
                ];
                let (sx, sy) = (key.sx as u32, key.sy as u32);
                traces.push(RequestTrace::finished(
                    job.ctx, sx, sy, bounds, iterations, converged, residual,
                ));
            }
            ser_cursor = sent_us;
        }
        // Off the hot path: replies are out.
        mf_reqtrace::log_batch(&traces, solve.0..=solve.1);
        c_requests.add(jobs.len() as u64);
        c_batches.incr();
        g_occ.set(jobs.len() as f64);
        batches += 1;
        {
            let mut res = inner.reservoir.lock().unwrap();
            for l in &latencies {
                res.0.push(*l);
            }
            // Refresh the exposition gauges periodically — the sort over
            // the window is too costly to run on every batch.
            if batches.is_multiple_of(16) || batches < 4 {
                let (p50, p95, p99) = res.percentiles();
                drop(res);
                g_p50.set(p50);
                g_p95.set(p95);
                g_p99.set(p99);
                g_rps.set(done as f64 / inner.started.elapsed().as_secs_f64().max(1e-9));
                g_qdepth.set(inner.sched.queue_len() as f64);
                let sched = inner.sched.stats();
                g_rej.set(sched.rejected as f64);
                // Feed the SLO burn rates from the same refresh.
                let attempts = (sched.submitted + sched.rejected).max(1) as f64;
                let error_rate = sched.rejected as f64 / attempts;
                let conv_fail =
                    inner.unconverged.load(Ordering::Relaxed) as f64 / done.max(1) as f64;
                let (b_p99, b_err, b_conv) = mf_reqtrace::report_health(p99, error_rate, conv_fail);
                g_slo_p99.set(b_p99);
                g_slo_err.set(b_err);
                g_slo_conv.set(b_conv);
            }
        }
        mf_telemetry::publish_thread();
    }
    mf_telemetry::publish_thread();
}

struct BatchOutcome {
    responses: Vec<SolveResponse>,
    /// Final residual per request (NaN when the solve recorded none).
    residuals: Vec<f64>,
    /// Start and end of `run_many` on the telemetry clock.
    solve_us: (u64, u64),
}

/// Solve one batch on its key's domain and `MfpConfig`. Its requests
/// were validated at submission.
fn handle_batch(inner: &ServiceInner, key: BatchKey, jobs: &[Job]) -> BatchOutcome {
    let domain = DomainSpec::new(inner.spec, key.sx, key.sy);
    let mfp = Mfp::new(&*inner.solver, domain);
    let solve_start_us = mf_telemetry::now_us();
    let bcs: Vec<Tensor> = jobs.iter().map(|j| j.bc.clone()).collect();
    let results = mfp.run_many(&bcs, &key.mfp_config());
    let solve_end_us = mf_telemetry::now_us();
    let residuals = results
        .iter()
        .map(|r| r.deltas.last().copied().unwrap_or(f64::NAN))
        .collect();
    let responses = jobs
        .iter()
        .zip(results)
        .map(|(job, result)| {
            let mean = result.grid.as_slice().iter().sum::<f64>() / result.grid.numel() as f64;
            SolveResponse {
                iterations: result.iterations,
                converged: result.converged,
                mean,
                grid: job.want_grid.then_some(result.grid),
                latency_ms: 0.0,
            }
        })
        .collect();
    BatchOutcome {
        responses,
        residuals,
        solve_us: (solve_start_us, solve_end_us),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mf_nn::{SdNet, SdNetConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    pub(crate) fn test_spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }

    pub(crate) fn test_net(seed: u64) -> SdNet {
        let mut cfg = SdNetConfig::small(test_spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![12, 12];
        cfg.coord_fourier = 2;
        SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn sin_bc(domain: &DomainSpec) -> Tensor {
        mf_numerics::boundary::boundary_from_fn(domain.ny(), domain.nx(), |t| {
            (2.0 * std::f64::consts::PI * t).sin()
        })
    }

    fn service(cfg: ServeConfig) -> SolveService {
        SolveService::new(PlanSolver::new(test_net(1), test_spec()), cfg)
    }

    #[test]
    fn solves_a_request_end_to_end() {
        let svc = service(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let d = DomainSpec::new(test_spec(), 1, 1);
        let mut req = SolveRequest::new(1, 1, sin_bc(&d));
        req.want_grid = true;
        let resp = svc.solve_blocking(req).unwrap();
        assert!(resp.iterations >= 1);
        let grid = resp.grid.expect("asked for the grid");
        assert_eq!(grid.shape(), (d.ny(), d.nx()));
        assert!(resp.latency_ms > 0.0);
        assert_eq!(svc.stats().completed, 1);
    }

    #[test]
    fn zero_worker_service_fills_queue_and_rejects_busy() {
        // No workers: the queue fills deterministically, so the
        // backpressure path is exercised without timing assumptions.
        let svc = service(ServeConfig {
            workers: 0,
            queue_depth: 3,
            ..Default::default()
        });
        let d = DomainSpec::new(test_spec(), 1, 1);
        let bc = sin_bc(&d);
        let mut held = Vec::new();
        for _ in 0..3 {
            held.push(svc.submit(SolveRequest::new(1, 1, bc.clone())).unwrap());
        }
        match svc.submit(SolveRequest::new(1, 1, bc.clone())) {
            Err(ServeError::Busy { retry_after_ms }) => assert!(retry_after_ms >= 1),
            other => panic!("expected Busy, got {other:?}"),
        }
        let s = svc.stats();
        assert_eq!((s.accepted, s.rejected), (3, 1));
    }

    #[test]
    fn bad_requests_get_typed_errors_not_panics() {
        let svc = service(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        // Wrong boundary length — rejected synchronously at submit.
        let err = svc
            .solve_blocking(SolveRequest::new(1, 1, Tensor::zeros(1, 7)))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        // Oversized domain.
        let err = svc
            .solve_blocking(SolveRequest::new(99, 1, Tensor::zeros(1, 8)))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        let d = DomainSpec::new(test_spec(), 1, 1);
        // A tolerance no residual can meet would run to `max_iters`.
        for tol in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut req = SolveRequest::new(1, 1, sin_bc(&d));
            req.tol = tol;
            let err = svc.solve_blocking(req).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "tol {tol}: {err}");
        }
        // An iteration cap outside 1..=MAX_ITERS: 0 would run one sweep,
        // and 20 000 and 30 000 the same capped solve under two batch keys.
        for max_iters in [0, MAX_ITERS + 1, 20_000, 30_000] {
            let mut req = SolveRequest::new(1, 1, sin_bc(&d));
            req.max_iters = max_iters;
            let err = svc.solve_blocking(req).unwrap_err();
            assert!(
                matches!(&err, ServeError::BadRequest(m) if m.contains("max_iters")),
                "max_iters {max_iters}: {err}"
            );
        }
        // Non-finite boundary values would cost a launch before the
        // non-finite residual ends the solve.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bc = sin_bc(&d);
            bc.as_mut_slice()[3] = bad;
            let err = svc.solve_blocking(SolveRequest::new(1, 1, bc)).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "bc {bad}: {err}");
        }
        // Nothing above reached a worker, and the service survives, up to
        // the largest cap.
        assert_eq!(svc.stats().accepted, 0);
        let mut req = SolveRequest::new(1, 1, sin_bc(&d));
        req.max_iters = MAX_ITERS;
        assert!(svc.solve_blocking(req).is_ok());
    }

    #[test]
    fn batched_and_one_request_batches_agree_bitwise() {
        let batched = service(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        // A budget below any request's cost caps every batch at the
        // single front job (the drain always takes at least one).
        let direct = service(ServeConfig {
            workers: 2,
            max_points: 0,
            ..Default::default()
        });
        for (sx, sy) in [(1, 1), (2, 1)] {
            let d = DomainSpec::new(test_spec(), sx, sy);
            let mut req = SolveRequest::new(sx, sy, sin_bc(&d));
            req.want_grid = true;
            let a = batched.solve_blocking(req.clone()).unwrap();
            let b = direct.solve_blocking(req).unwrap();
            let (ga, gb) = (a.grid.unwrap(), b.grid.unwrap());
            for (x, y) in ga.as_slice().iter().zip(gb.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn concurrent_mixed_shape_clients_get_their_own_answers_bitwise() {
        // The ordered-fan-out / no-cross-contamination contract: many
        // concurrent clients with distinct boundaries (and two domain
        // shapes, so batches must split) each receive the response that
        // is bitwise identical to solving their request alone.
        let svc = std::sync::Arc::new(service(ServeConfig {
            workers: 2,
            ..Default::default()
        }));
        let solver = PlanSolver::new(test_net(1), test_spec());
        let clients: Vec<_> = (0..12u64)
            .map(|c| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || {
                    let (sx, sy) = if c % 2 == 0 { (1, 1) } else { (2, 1) };
                    let d = DomainSpec::new(test_spec(), sx, sy);
                    let mut rng = ChaCha8Rng::seed_from_u64(c);
                    let bc = Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
                    let mut req = SolveRequest::new(sx, sy, bc.clone());
                    req.want_grid = true;
                    let resp = svc.solve_blocking(req).unwrap();
                    (c, bc, resp)
                })
            })
            .collect();
        for client in clients {
            let (c, bc, resp) = client.join().unwrap();
            let (sx, sy) = if c % 2 == 0 { (1, 1) } else { (2, 1) };
            let d = DomainSpec::new(test_spec(), sx, sy);
            let alone = Mfp::new(&solver, d).run(
                &bc,
                &MfpConfig {
                    max_iters: 100,
                    tol: 1e-4,
                    ..Default::default()
                },
            );
            assert_eq!(resp.iterations, alone.iterations, "client {c}");
            let grid = resp.grid.unwrap();
            for (x, y) in grid.as_slice().iter().zip(alone.grid.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "client {c} got someone else's rows"
                );
            }
        }
    }

    #[test]
    fn a_burst_of_transposed_shapes_and_two_tolerances_solves_each_request_as_its_own() {
        // 2×1 and 1×2 walks have the same length, so only the batch key
        // keeps their requests apart; so does a tolerance that differs.
        let svc = service(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let reqs: Vec<SolveRequest> = (0..16u64)
            .map(|i| {
                let (sx, sy) = if i % 2 == 0 { (2, 1) } else { (1, 2) };
                let d = DomainSpec::new(test_spec(), sx, sy);
                let mut rng = ChaCha8Rng::seed_from_u64(i);
                let bc = Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
                let mut req = SolveRequest::new(sx, sy, bc);
                req.tol = if i % 4 < 2 { 1e-2 } else { 1e-6 };
                req.want_grid = true;
                req
            })
            .collect();
        let rxs: Vec<_> = reqs
            .iter()
            .map(|r| svc.submit(r.clone()).unwrap())
            .collect();
        for (i, (req, rx)) in reqs.iter().zip(rxs).enumerate() {
            let resp = rx.recv().unwrap().unwrap();
            let cfg = MfpConfig {
                max_iters: req.max_iters,
                tol: req.tol,
                ..Default::default()
            };
            let d = DomainSpec::new(test_spec(), req.sx, req.sy);
            let alone = Mfp::new(svc.solver(), d).run(&req.bc, &cfg);
            assert_eq!(
                (resp.iterations, resp.converged),
                (alone.iterations, alone.converged),
                "request {i}"
            );
            let grid = resp.grid.unwrap();
            assert_eq!(grid.shape(), alone.grid.shape(), "request {i}");
            for (x, y) in grid.as_slice().iter().zip(alone.grid.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "request {i}");
            }
        }
    }

    #[test]
    fn max_batch_is_what_one_drain_can_take() {
        let max_batch =
            |cfg: ServeConfig, sx, sy| service(ServeConfig { workers: 0, ..cfg }).max_batch(sx, sy);
        // A 1×1 request at m = 9 costs 13 points: 4096 / 13 = 315 fit the
        // budget, and the queue holds 256.
        let mut cfg = ServeConfig::default();
        assert_eq!(max_batch(cfg, 1, 1), 256);
        // `--max-points`: a 2×2 request costs 52 points.
        cfg.max_points = 1300;
        assert_eq!((max_batch(cfg, 1, 1), max_batch(cfg, 2, 2)), (100, 25));
        // `--queue-depth`.
        cfg.queue_depth = 64;
        assert_eq!(max_batch(cfg, 1, 1), 64);
        // A budget below one request's cost still drains one.
        cfg.max_points = 0;
        assert_eq!(max_batch(cfg, 1, 1), 1);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let svc = service(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let d = DomainSpec::new(test_spec(), 1, 1);
        let bc = sin_bc(&d);
        let rxs: Vec<_> = (0..6)
            .map(|_| svc.submit(SolveRequest::new(1, 1, bc.clone())).unwrap())
            .collect();
        drop(svc);
        for rx in rxs {
            let reply = rx.recv().expect("accepted request lost on shutdown");
            assert!(reply.is_ok());
        }
    }
}
