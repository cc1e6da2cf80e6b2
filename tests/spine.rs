//! The instrumentation spine end to end: one depth count across spans and
//! zones, and one sink word that switches every store.
//!
//! The sink word and the collector are process-wide; the tests of this
//! binary take [`SPINE`] so neither sees the other's switches or records.

use mosaic_flow::prelude::*;
use mosaic_flow::telemetry::{self as tel, Kind, MetricValue, MetricsSnapshot, SpanEvent};
use mosaic_flow::tensor::par;
use mosaic_flow::train::train_step_distributed;
use mosaic_flow::{observe, profile, reqtrace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SPINE: Mutex<()> = Mutex::new(());

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

fn plan_solver() -> PlanSolver {
    let mut cfg = SdNetConfig::small(spec().boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![12, 12];
    PlanSolver::new(SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(5)), spec())
}

fn random_bc(d: &DomainSpec, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0))
}

fn inside(child: &SpanEvent, parent: &SpanEvent) -> bool {
    child.start_us >= parent.start_us
        && child.start_us + child.dur_us <= parent.start_us + parent.dur_us
}

/// `--trace` shows the kernels inside the iterations: every level of
/// iteration → sweep → plan launch → fused layer is a slice strictly inside
/// the level above, one deeper, on the rank that ran it.
#[test]
fn a_traced_solve_nests_kernel_zones_inside_its_iterations() {
    let _spine = SPINE.lock().unwrap_or_else(|e| e.into_inner());
    const RANK: usize = 23;
    tel::clear_spans();
    tel::set_tracing(true);
    std::thread::spawn(|| {
        tel::set_thread_rank(RANK);
        let solver = plan_solver();
        let d = DomainSpec::new(spec(), 2, 2);
        let cfg = MfpConfig {
            max_iters: 3,
            tol: 0.0,
            ..Default::default()
        };
        // One lane: a launch that fans out runs its layers on pool threads,
        // which have a depth count (and a rank) of their own.
        par::with_pool_width(1, || Mfp::new(&solver, d).run(&random_bc(&d, 1), &cfg));
        tel::flush_thread();
    })
    .join()
    .unwrap();
    tel::set_tracing(false);
    let spans: Vec<SpanEvent> = tel::drain_spans()
        .into_iter()
        .filter(|s| s.rank == RANK)
        .collect();

    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let child_of = |c: &SpanEvent, parents: &'static str| {
        named(parents).any(|p| inside(c, p) && c.depth == p.depth + 1)
    };
    assert_eq!(named("mfp.iteration").count(), 3);
    assert!(named("sweep").all(|s| child_of(s, "mfp.iteration")));
    assert!(named("layer").count() > 0 && named("layer").all(|s| child_of(s, "plan_launch")));
    // The final dense fill launches its plan after the last iteration;
    // every other launch belongs to a sweep, and every sweep launches.
    let loop_end = named("mfp.iteration")
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap();
    assert!(named("plan_launch").all(|s| child_of(s, "sweep") || s.start_us >= loop_end));
    assert!(named("sweep").all(|sw| named("plan_launch").any(|l| inside(l, sw))));
    let it = named("mfp.iteration").next().unwrap();
    let launch = named("plan_launch").find(|s| inside(s, it)).unwrap();
    let layer = named("layer").find(|s| inside(s, launch)).unwrap();
    assert_eq!((launch.depth, layer.depth), (it.depth + 2, it.depth + 3));
    assert_eq!(it.args[0], ("it".to_string(), 0.0));
    // The second level sits next to the sweeps: the coarse seed inside
    // iteration 0, one mixing zone per iteration that is followed by
    // another, and the history depth in use as the span's second argument
    // (none, none, then the one difference of the first two sweeps).
    assert!(named("coarse_seed").all(|s| inside(s, it) && s.depth == it.depth + 1));
    assert_eq!(named("coarse_seed").count(), 1);
    assert_eq!(named("accelerate").count(), 2);
    assert!(named("accelerate").all(|s| child_of(s, "mfp.iteration")));
    let depths: Vec<_> = named("mfp.iteration").map(|s| s.args[1].clone()).collect();
    assert_eq!(
        depths,
        [0.0, 0.0, 1.0].map(|d| ("depth".to_string(), d)),
        "history depth per iteration"
    );
}

/// Observation counts of the histograms the sites feed: every `*_us` but
/// `dist.iter_wait_us`, which the overlap tracker computes for itself.
fn timing(snap: &MetricsSnapshot) -> HashMap<String, u64> {
    let sites = |name: &str| name.ends_with("_us") && name != "dist.iter_wait_us";
    snap.metrics
        .iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Histogram(h) if sites(name) => Some((name.clone(), h.count)),
            _ => None,
        })
        .collect()
}

fn set_all(on: bool) {
    profile::set_enabled(on);
    observe::set_recording(on);
    reqtrace::set_enabled(on);
}

fn touch(evaluated: &Cell<bool>) -> f64 {
    evaluated.set(true);
    1.0
}

/// One switch word. With the three setters off (and tracing off) a
/// distributed solve and a served batch leave every ring empty and every
/// timing histogram where it was, and no site evaluates an argument; with
/// them on, one call is one observation and one ring record.
#[test]
fn the_three_setters_switch_every_store_and_one_call_is_one_observation() {
    let _spine = SPINE.lock().unwrap_or_else(|e| e.into_inner());
    let d = DomainSpec::new(spec(), 2, 2);
    let solver = plan_solver();
    // A tolerance no iterate meets: every iteration reduces its residual.
    let dist_cfg = DistMfpConfig {
        max_iters: 4,
        tol: 1e-300,
        ..Default::default()
    };
    let solve = || try_run_distributed(&solver, &d, &random_bc(&d, 2), 2, &dist_cfg).unwrap();
    let workers = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    let svc = SolveService::new(plan_solver(), workers);
    // Serve one request; the worker publishes its metrics after the reply.
    let serve = |nth: u64| {
        let ctx = reqtrace::TraceContext::root();
        svc.solve_blocking_traced(SolveRequest::new(2, 2, random_bc(&d, 3)), ctx)
            .expect("served");
        let deadline = Instant::now() + Duration::from_secs(30);
        while tel::merged_snapshot().counter("serve.batches") < nth {
            assert!(Instant::now() < deadline, "batch {nth} never published");
            std::thread::sleep(Duration::from_millis(1));
        }
        ctx.req
    };
    // Metrics are per thread: the two rank threads of each run are new,
    // the serve worker, this thread and the pool lanes persist.
    let timings = || -> Vec<(Option<usize>, HashMap<String, u64>)> {
        let ranks = tel::per_rank_snapshots();
        ranks.iter().map(|(r, snap)| (*r, timing(snap))).collect()
    };

    // Warm every site once with the defaults, so the histograms exist.
    solve();
    serve(1);
    tel::drain_rings();
    let warm = timings();
    let rank0 = &warm.iter().find(|(r, _)| *r == Some(0)).unwrap().1;
    for name in ["prof.layer_us", "comm.allreduce_us", "mfp.iteration_us"] {
        assert!(rank0.get(name).is_some_and(|c| *c > 0), "{name} never fed");
    }

    set_all(false);
    solve();
    let req = serve(2);
    let evaluated = Cell::new(false);
    {
        tel::span!("spine.test.off", x = touch(&evaluated));
    }
    assert!(!evaluated.get(), "no sink keeps the argument");
    for (rank, counts) in timings() {
        let before = warm.iter().find(|(r, _)| *r == rank).map(|(_, c)| c);
        for (name, count) in counts {
            let expect = match (rank, before) {
                (Some(0 | 1), _) | (_, None) => 0,
                (_, Some(c)) => c.get(&name).copied().unwrap_or(0),
            };
            assert_eq!(count, expect, "{name} on rank {rank:?} moved");
        }
    }
    for (rank, rec) in tel::drain_rings() {
        assert_eq!((rec.events.len(), rec.total), (0, 0), "rank {rank} ring");
    }
    let logged = reqtrace::recent(reqtrace::RECENT_CAP);
    assert!(logged.iter().all(|t| t.req != req));
    assert!(tel::drain_spans().is_empty() && tel::drain_flows().is_empty());
    set_all(true);

    // Ranks of their own, so the counts below are this test's alone.
    const CALLS: u64 = 5;
    const TIMED: [&str; 6] = [
        "comm.allreduce_us",
        "train.step_us",
        "train.sync_us",
        "train.opt_us",
        "train.data_pass_us",
        "train.pde_pass_us",
    ];
    let mut net_cfg = SdNetConfig::small(32);
    net_cfg.conv_channels = vec![2];
    net_cfg.hidden = vec![10, 10];
    let net = SdNet::new(net_cfg, &mut ChaCha8Rng::seed_from_u64(0));
    let ds = Dataset::generate(spec(), 2, 0);
    let mut sampler = BatchSampler::new(1, 4, 4, 0);
    let batches: Vec<Batch> = (0..2).map(|i| sampler.make_batch(&ds, &[i])).collect();
    let deltas = Cluster::run(2, |comm| {
        let counts = || {
            let now = timing(&tel::snapshot());
            TIMED.map(|n| now.get(n).copied().unwrap_or(0))
        };
        let before = counts();
        let mut buf = vec![comm.rank() as f64; 8];
        for _ in 0..CALLS {
            comm.allreduce_sum(&mut buf);
        }
        let reduced = counts();
        let (mut net, mut opt) = (net.clone(), Sgd::new(0.0));
        let batch = &batches[comm.rank()];
        for _ in 0..CALLS {
            train_step_distributed(&mut net, batch, &mut opt, 0.1, 0.01, comm, GradSync::Fused);
        }
        let stepped = counts();
        let per_step: [u64; 6] = std::array::from_fn(|i| stepped[i] - reduced[i]);
        (reduced[0] - before[0], per_step)
    });
    for (allreduces, per_step) in deltas {
        assert_eq!(allreduces, CALLS, "one observation per allreduce_sum");
        // A fused step is one allreduce; every other interval is timed once.
        assert_eq!(per_step, [CALLS; 6], "one observation per step interval");
    }
    for (rank, rec) in tel::drain_rings() {
        let of = |name: &str| rec.events.iter().filter(|e| e.name == name).count() as u64;
        assert_eq!(of("comm.allreduce"), 2 * CALLS, "rank {rank}: one per call");
        assert_eq!(of("train.step"), CALLS, "rank {rank}");
        assert!(rec.events.iter().any(|e| e.kind == Kind::Send));
        assert!(
            rec.events.iter().all(|e| e.name != "layer"),
            "zones stay out"
        );
    }
}
