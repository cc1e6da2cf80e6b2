//! The solve service: bounded request queue, MFP worker pool, and the
//! latency/throughput telemetry the live `MetricsServer` exposes.
//!
//! Requests enter through [`SolveService::submit`] (non-blocking;
//! validated up front, typed [`ServeError::Busy`] when the queue is at
//! its bound). Worker threads drain same-shape request *batches* from
//! the [`Scheduler`] and drive each batch through one
//! `Mfp::run_many`, which packs every request's query points into
//! shared compiled-plan launches. A zero batch budget
//! (`BatchConfig { max_points: 0, max_wait_us: 0, .. }`) caps every batch
//! at one request — the per-request baseline the bench gate compares
//! against.

use crate::scheduler::{BatchConfig, Scheduler, SchedulerStats, SubmitError};
use mf_data::SubdomainSpec;
use mf_mfp::{DomainSpec, Mfp, MfpConfig, PlanSolver, SubdomainSolver};
use mf_reqtrace::{RequestTrace, TraceContext};
use mf_tensor::Tensor;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// First telemetry rank used by service workers (worker `i` publishes as
/// rank `WORKER_RANK_BASE + i`, keeping serve threads distinct from the
/// simulated cluster's ranks in `/snapshot`).
pub const WORKER_RANK_BASE: usize = 64;

/// Service-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads, each draining request batches.
    pub workers: usize,
    /// Bound on queued (not yet started) requests; beyond it submissions
    /// get [`ServeError::Busy`].
    pub queue_depth: usize,
    /// Batch-budget knobs for the cross-request scheduler.
    pub batch: BatchConfig,
    /// Reject domains larger than this many subdomains per axis.
    pub max_domain: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_depth: 256,
            batch: BatchConfig::default(),
            max_domain: 8,
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
    /// Schwarz iteration cap.
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

/// Service-level throughput/latency summary (see [`SolveService::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests rejected with [`ServeError::Busy`].
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completed requests per second since service start.
    pub req_per_s: f64,
    /// Median request latency (queue wait + solve), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

struct Job {
    req: SolveRequest,
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
    sched: Scheduler<Job>,
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
        let mut batch = cfg.batch;
        batch.queue_jobs = cfg.queue_depth;
        let inner = Arc::new(ServiceInner {
            solver: Arc::new(solver),
            spec,
            cfg,
            sched: Scheduler::new(batch),
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
        let key = batch_key(&req);
        let cost = sweep_cost(self.inner.spec, &req);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            req,
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

    fn validate(&self, req: &SolveRequest) -> Result<usize, ServeError> {
        let max = self.inner.cfg.max_domain;
        if req.sx == 0 || req.sy == 0 || req.sx > max || req.sy > max {
            return Err(ServeError::BadRequest(format!(
                "domain {}x{} out of bounds (1..={max} per axis)",
                req.sx, req.sy
            )));
        }
        let domain = DomainSpec::new(self.inner.spec, req.sx, req.sy);
        if req.bc.numel() != domain.boundary_len() {
            return Err(ServeError::BadRequest(format!(
                "boundary length {} does not match domain {}x{} (expected {})",
                req.bc.numel(),
                req.sx,
                req.sy,
                domain.boundary_len()
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

    /// Warm the solve path for a domain shape: drives `Mfp::run_many`
    /// inline on the calling thread for every batch size in
    /// `1..=max_batch` (zero boundaries), compiling the plans and
    /// growing a pooled workspace to the full buffer envelope the
    /// backlog can produce. With a single worker this is deterministic —
    /// the idle worker later checks out the same workspace prewarm grew,
    /// so steady-state serving performs zero allocations
    /// ([`SolveService::warm_allocs`] stays 0).
    pub fn prewarm(&self, sx: usize, sy: usize, max_batch: usize) {
        let domain = DomainSpec::new(self.inner.spec, sx, sy);
        let cfg = MfpConfig {
            max_iters: 2,
            ..MfpConfig::default()
        };
        for b in 1..=max_batch.max(1) {
            let bcs: Vec<Tensor> = (0..b)
                .map(|_| Tensor::zeros(1, domain.boundary_len()))
                .collect();
            let _ = Mfp::new(&*self.inner.solver, domain).run_many(&bcs, &cfg);
        }
    }

    /// Requests currently queued (not yet claimed by a worker).
    pub fn queue_len(&self) -> usize {
        self.inner.sched.queue_len()
    }

    /// Service-level stats (latency percentiles over a sliding window of
    /// the most recent 2048 requests).
    pub fn stats(&self) -> ServiceStats {
        let (p50, p95, p99) = self.inner.reservoir.lock().unwrap().percentiles();
        let completed = self.inner.completed.load(Ordering::Relaxed);
        let sched = self.inner.sched.stats();
        ServiceStats {
            accepted: sched.submitted,
            rejected: sched.rejected,
            completed,
            req_per_s: completed as f64 / self.inner.started.elapsed().as_secs_f64().max(1e-9),
            p50_ms: p50,
            p95_ms: p95,
            p99_ms: p99,
        }
    }

    /// Scheduler counters (batches, occupancy, rejections).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.inner.sched.stats()
    }

    /// Pool misses on warm plan executions — 0 means the inference hot
    /// path ran allocation-free for the whole service lifetime.
    pub fn warm_allocs(&self) -> u64 {
        self.inner.solver.warm_allocs()
    }

    /// Plan launches issued against the shared solver (both paths).
    pub fn launch_count(&self) -> usize {
        self.inner.solver.launch_count()
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

/// The batch key: requests solved together must share the domain shape
/// and every knob that feeds the shared `MfpConfig`.
fn batch_key(req: &SolveRequest) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (req.sx, req.sy, req.max_iters, req.tol.to_bits()).hash(&mut h);
    h.finish()
}

/// The scheduler-budget cost of a request: the number of query points
/// one of its Schwarz sweeps stacks into a launch.
fn sweep_cost(spec: SubdomainSpec, req: &SolveRequest) -> usize {
    let q_cross = 2 * (spec.m - 2) - 1;
    (req.sx * req.sy * q_cross).max(1)
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
    while let Some(jobs) = inner.sched.next_batch() {
        // The batch claim closes every member's queue wait.
        let claim_us = mf_telemetry::now_us();
        let outcome = handle_batch(&inner, &jobs);
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
                let (sx, sy) = (job.req.sx as u32, job.req.sy as u32);
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

/// Solve one same-key batch. Requests were validated at submission, and
/// the batch key guarantees a shared domain shape and `MfpConfig`.
fn handle_batch(inner: &ServiceInner, jobs: &[Job]) -> BatchOutcome {
    let first = &jobs[0].req;
    let domain = DomainSpec::new(inner.spec, first.sx, first.sy);
    let cfg = MfpConfig {
        max_iters: first.max_iters.clamp(1, 10_000),
        tol: first.tol,
        ..MfpConfig::default()
    };
    let mfp = Mfp::new(&*inner.solver, domain);
    let solve_start_us = mf_telemetry::now_us();
    let bcs: Vec<Tensor> = jobs.iter().map(|j| j.req.bc.clone()).collect();
    let results = mfp.run_many(&bcs, &cfg);
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
                grid: job.req.want_grid.then_some(result.grid),
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
        // Non-finite boundary values would cost a launch before the
        // non-finite residual ends the solve.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bc = sin_bc(&d);
            bc.as_mut_slice()[3] = bad;
            let err = svc.solve_blocking(SolveRequest::new(1, 1, bc)).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "bc {bad}: {err}");
        }
        // Nothing above reached a worker, and the service survives.
        assert_eq!(svc.stats().accepted, 0);
        assert!(svc
            .solve_blocking(SolveRequest::new(1, 1, sin_bc(&d)))
            .is_ok());
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
            batch: BatchConfig {
                max_points: 0,
                max_wait_us: 0,
                ..Default::default()
            },
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
