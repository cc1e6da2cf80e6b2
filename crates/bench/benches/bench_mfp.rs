//! Criterion benches of the Mosaic Flow predictor iteration (Fig. 8's
//! kernel) and the multigrid ground-truth solver it is compared against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mf_bench::{bench_net_config, bench_spec, gp_boundary};
use mf_mfp::{DomainSpec, Mfp, MfpConfig, NeuralSolver, OracleSolver, UnbatchedSolver};
use mf_nn::SdNet;
use mf_numerics::boundary::grid_with_boundary;
use mf_numerics::{solve_multigrid, MultigridOpts, Poisson};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_mfp_iteration(c: &mut Criterion) {
    let spec = bench_spec();
    let net = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(0));
    let solver = NeuralSolver::new(net, spec);
    let mut group = c.benchmark_group("mfp_iteration");
    group.sample_size(10);
    for &(sx, sy) in &[(2usize, 2usize), (4, 4)] {
        let domain = DomainSpec::new(spec, sx, sy);
        let bc = gp_boundary(&domain, 0);
        let cfg = MfpConfig {
            max_iters: 1,
            tol: 0.0,
            ..Default::default()
        };
        let unbatched = UnbatchedSolver(&solver);
        group.bench_with_input(
            BenchmarkId::new("unbatched", format!("{sx}x{sy}")),
            &cfg,
            |bch, cfg| {
                bch.iter(|| Mfp::new(&unbatched, domain).run(&bc, cfg));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched", format!("{sx}x{sy}")),
            &cfg,
            |bch, cfg| {
                bch.iter(|| Mfp::new(&solver, domain).run(&bc, cfg));
            },
        );
    }
    group.finish();
}

fn bench_oracle_vs_neural(c: &mut Criterion) {
    let spec = bench_spec();
    let net = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(0));
    let neural = NeuralSolver::new(net, spec);
    let oracle = OracleSolver::new(spec, 1e-9);
    let domain = DomainSpec::new(spec, 2, 2);
    let bc = gp_boundary(&domain, 1);
    let cfg = MfpConfig {
        max_iters: 5,
        tol: 0.0,
        ..Default::default()
    };

    let mut group = c.benchmark_group("subdomain_solver");
    group.sample_size(10);
    group.bench_function("neural_5iters", |bch| {
        let mfp = Mfp::new(&neural, domain);
        bch.iter(|| mfp.run(&bc, &cfg));
    });
    group.bench_function("oracle_5iters", |bch| {
        let mfp = Mfp::new(&oracle, domain);
        bch.iter(|| mfp.run(&bc, &cfg));
    });
    group.finish();
}

fn bench_multigrid(c: &mut Criterion) {
    let mut group = c.benchmark_group("multigrid_vcycle_solve");
    group.sample_size(10);
    for n in [17usize, 33, 65] {
        let h = 1.0 / (n - 1) as f64;
        let bc = mf_numerics::boundary::boundary_from_fn(n, n, |t| {
            (2.0 * std::f64::consts::PI * t).sin()
        });
        let guess = grid_with_boundary(n, n, &bc);
        let p = Poisson::laplace(n, n, h);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| solve_multigrid(&p, &guess, &MultigridOpts::default()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mfp_iteration,
    bench_oracle_vs_neural,
    bench_multigrid
);
criterion_main!(benches);
