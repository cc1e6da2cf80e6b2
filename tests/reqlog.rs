//! Who writes the request log: the serve worker, and nobody else.
//!
//! The log and its switch are process-wide, so this binary holds one test.

use mosaic_flow::prelude::*;
use mosaic_flow::reqtrace;
use mosaic_flow::telemetry as tel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

fn plan_solver() -> PlanSolver {
    let mut cfg = SdNetConfig::small(spec().boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![12, 12];
    PlanSolver::new(SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(5)), spec())
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The log's record of `req`, once the worker has logged the batch (the
/// replies go out first).
fn logged(req: u64) -> reqtrace::RequestTrace {
    let find = || {
        reqtrace::recent(reqtrace::RECENT_CAP)
            .into_iter()
            .find(|t| t.req == req)
    };
    wait_until("request never logged", || find().is_some());
    find().unwrap()
}

/// A cold service's first batch compiled its plans under the solve and its
/// record says so, a later batch of the same shape did not; a solve outside
/// the service leaves the log where it was; and with request tracing off a
/// served batch logs nothing.
#[test]
fn the_request_log_is_written_by_the_serve_worker_alone() {
    let d = DomainSpec::new(spec(), 2, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let bc = Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
    let workers = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    // No prewarm: the first batch compiles the plans.
    let svc = SolveService::new(plan_solver(), workers);
    let serve = || {
        let ctx = reqtrace::TraceContext::root();
        svc.solve_blocking_traced(SolveRequest::new(2, 1, bc.clone()), ctx)
            .expect("served");
        ctx.req
    };
    let (cold, warm) = (logged(serve()), logged(serve()));
    assert!(cold.plan_compile_us > 0 && cold.plan_compile_us <= cold.solve_us);
    assert_eq!(warm.plan_compile_us, 0, "the plans were cached");
    assert_eq!((warm.nspans, warm.batch), (5, 1));
    assert_eq!(warm.iterations, cold.iterations);

    let completed = reqtrace::completed();
    let solver = plan_solver();
    let cfg = MfpConfig {
        max_iters: 100,
        tol: 1e-4,
        ..Default::default()
    };
    let alone = Mfp::new(&solver, d).run_many(std::slice::from_ref(&bc), &cfg);
    assert_eq!(alone[0].iterations as u32, warm.iterations);
    assert_eq!(reqtrace::completed(), completed, "a direct solve logged");

    reqtrace::set_enabled(false);
    let req = serve();
    // The worker counts a batch after the point where it logs one.
    wait_until("third batch never published", || {
        tel::merged_snapshot().counter("serve.batches") >= 3
    });
    reqtrace::set_enabled(true);
    let recent = reqtrace::recent(reqtrace::RECENT_CAP);
    assert!(recent.iter().all(|t| t.req != req));
    assert_eq!(reqtrace::completed(), completed);
}
