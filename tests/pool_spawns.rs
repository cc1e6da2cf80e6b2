//! No warm path creates an OS thread. One test, alone in its process:
//! the count is of the process-wide pool, so nothing else may fan out
//! while it is read. (Rank threads of `Cluster::run` and the workers of a
//! `SolveService` are those layers' own threads, not the pool's.)

use mosaic_flow::data::{BatchSampler, Dataset};
use mosaic_flow::dist::Cluster;
use mosaic_flow::prelude::*;
use mosaic_flow::tensor::par;
use mosaic_flow::train::{train_step_distributed, GradSync};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn spec() -> SubdomainSpec {
    SubdomainSpec { m: 9, spatial: 0.5 }
}

/// The benchmark's trunk width: sweep groups and training GEMMs are big
/// enough to be shared out.
fn wide_net(seed: u64) -> SdNet {
    let mut cfg = SdNetConfig::small(spec().boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![48, 48];
    SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// Run `path` twice; the second run must not create a thread.
fn assert_warm_run_spawns_nothing(name: &str, mut path: impl FnMut()) {
    path();
    let after_first = par::thread_spawns();
    path();
    assert_eq!(
        par::thread_spawns(),
        after_first,
        "{name}: an OS thread was created on a warm call"
    );
}

#[test]
fn warm_paths_create_no_os_threads() {
    let pool_workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64 - 1;
    assert_eq!(par::thread_spawns(), 0, "the pool starts without threads");

    let solver = PlanSolver::new(wide_net(1), spec());
    let domain = DomainSpec::new(spec(), 4, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let bc = Tensor::from_fn(1, domain.boundary_len(), |_, _| rng.gen_range(-1.0..1.0));
    let cfg = MfpConfig {
        max_iters: 4,
        tol: 0.0,
        ..Default::default()
    };
    assert_warm_run_spawns_nothing("Mfp::run", || {
        Mfp::new(&solver, domain).run(&bc, &cfg);
    });
    // The first fat launch brought the pool to its full, final size, and
    // this thread, which made that launch, counted it.
    assert_eq!(par::thread_spawns(), pool_workers);
    assert_eq!(
        mosaic_flow::telemetry::snapshot().counter("tensor.thread_spawns"),
        pool_workers
    );

    let dist_cfg = DistMfpConfig {
        max_iters: 4,
        tol: 0.0,
        ..Default::default()
    };
    assert_warm_run_spawns_nothing("run_distributed, 2 ranks", || {
        run_distributed(&solver, &domain, &bc, 2, &dist_cfg);
    });

    let ds = Dataset::generate(spec(), 16, 0);
    let mut sampler = BatchSampler::new(8, 48, 16, 0);
    let batches: Vec<_> = (0..2)
        .map(|r| sampler.make_batch(&ds, &(r * 8..r * 8 + 8).collect::<Vec<_>>()))
        .collect();
    let template = wide_net(3);
    assert_warm_run_spawns_nothing("train_step_distributed, world 2", || {
        Cluster::run(2, |comm| {
            let mut net = template.clone();
            let mut opt = Sgd::new();
            train_step_distributed(
                &mut net,
                &batches[comm.rank()],
                &mut opt,
                0.05,
                0.02,
                comm,
                GradSync::Fused,
            );
        });
    });

    let service = SolveService::new(
        PlanSolver::new(wide_net(1), spec()),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    );
    assert_warm_run_spawns_nothing("a served batch", || {
        let replies: Vec<_> = (0..4)
            .map(|_| service.submit(SolveRequest::new(4, 4, bc.clone())).unwrap())
            .collect();
        for reply in replies {
            reply.recv().unwrap().unwrap();
        }
    });

    assert_eq!(par::thread_spawns(), pool_workers, "the pool never grew");
}
