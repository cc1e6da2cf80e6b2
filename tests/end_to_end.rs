//! Full-pipeline integration test: data generation → physics-informed
//! training → Mosaic Flow inference on a larger unseen domain.

use mosaic_flow::numerics::boundary::grid_with_boundary;
use mosaic_flow::numerics::{solve_dirichlet, Poisson};
use mosaic_flow::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn trained_net(spec: SubdomainSpec, train: &Dataset, val: &Dataset, epochs: usize) -> SdNet {
    let mut config = SdNetConfig::small(spec.boundary_len());
    config.conv_channels = vec![4];
    config.hidden = vec![32, 32];
    let mut net = SdNet::new(config, &mut ChaCha8Rng::seed_from_u64(0));
    let cfg = TrainConfig {
        epochs,
        batch_size: 8,
        qd: 32,
        qc: 8,
        pde_weight: 0.02,
        schedule: LrSchedule {
            max_lr: 6e-3,
            ..LrSchedule::paper_default(epochs * 10)
        },
        opt: OptKind::Adam,
        seed: 0,
        clip_norm: None,
    };
    train_single(&mut net, train, val, &cfg);
    net
}

#[test]
fn trained_sdnet_beats_untrained_as_mfp_subdomain_solver() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let dataset = Dataset::generate(spec, 90, 11);
    let (train, val) = dataset.split(0.9);

    // Unseen, larger domain (2x1 subdomains) with a smooth GP boundary.
    let domain = DomainSpec::new(spec, 2, 1);
    let mut sampler = BoundarySampler::new(domain.boundary_len(), (0.5, 0.9), (0.4, 0.8), true);
    let bc = sampler.sample(&mut ChaCha8Rng::seed_from_u64(5));
    let guess = grid_with_boundary(domain.ny(), domain.nx(), &bc);
    let (reference, st) = solve_dirichlet(
        &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
        &guess,
        1e-9,
    );
    assert!(st.converged);

    let run_mae = |net: SdNet| {
        let solver = PlanSolver::new(net, spec);
        let res = Mfp::new(&solver, domain).run(
            &bc,
            &MfpConfig {
                max_iters: 120,
                tol: 1e-5,
                ..Default::default()
            },
        );
        res.grid.mean_abs_diff(&reference)
    };

    let mut cfg0 = SdNetConfig::small(spec.boundary_len());
    cfg0.conv_channels = vec![4];
    cfg0.hidden = vec![32, 32];
    let untrained = SdNet::new(cfg0, &mut ChaCha8Rng::seed_from_u64(0));
    let mae_untrained = run_mae(untrained);

    let trained = trained_net(spec, &train, &val, 40);
    let mae_trained = run_mae(trained);

    assert!(
        mae_trained < mae_untrained * 0.5,
        "training did not help the MFP: untrained {mae_untrained:.4} vs trained {mae_trained:.4}"
    );
}

#[test]
fn oracle_mfp_matches_the_exact_global_solve_on_gp_boundaries() {
    // Fig.-1-style check: MFP (with the numerical subdomain solver) vs a
    // direct global solve, on several GP-sampled boundary conditions.
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let domain = DomainSpec::new(spec, 2, 2);
    let oracle = OracleSolver::new(spec, 1e-9);
    let mfp = Mfp::new(&oracle, domain);
    let mut sampler = BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    for trial in 0..3 {
        let bc = sampler.sample(&mut rng);
        let guess = grid_with_boundary(domain.ny(), domain.nx(), &bc);
        let (reference, st) = solve_dirichlet(
            &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
            &guess,
            1e-9,
        );
        assert!(st.converged);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 600,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(res.converged, "trial {trial} did not converge");
        let mae = res.grid.mean_abs_diff(&reference);
        assert!(mae < 5e-4, "trial {trial}: MAE {mae}");
    }
}

#[test]
fn ddp_trained_model_is_identical_across_sync_strategies() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let dataset = Dataset::generate(spec, 24, 13);
    let (train, val) = dataset.split(0.75);
    let mut config = SdNetConfig::small(spec.boundary_len());
    config.conv_channels = vec![2];
    config.hidden = vec![16, 16];
    let template = SdNet::new(config, &mut ChaCha8Rng::seed_from_u64(1));
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 2,
        qd: 8,
        qc: 4,
        pde_weight: 0.05,
        schedule: LrSchedule::paper_default(40),
        opt: OptKind::Sgd,
        seed: 7,
        clip_norm: None,
    };
    let fused = train_ddp(2, &template, &train, &val, &cfg, GradSync::Fused);
    let perloss = train_ddp(2, &template, &train, &val, &cfg, GradSync::PerLoss);
    for (a, b) in fused.params_flat.iter().zip(&perloss.params_flat) {
        assert!(
            (a - b).abs() < 1e-10,
            "sync strategies diverged: {a} vs {b}"
        );
    }
    // But the fused variant used half the gradient allreduce volume: one
    // allreduce per step where per-loss sends two.
    let fb = fused.comm_stats[0].bytes_sent;
    let pb = perloss.comm_stats[0].bytes_sent;
    assert!(fb < pb && pb <= 2 * fb, "fused {fb} vs per-loss {pb}");
}
