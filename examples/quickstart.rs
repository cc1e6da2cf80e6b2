//! Quickstart: train a small SDNet on Gaussian-process boundary data and
//! use the Mosaic Flow predictor to solve a domain **four times larger**
//! than anything the network saw during training.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mosaic_flow::numerics::boundary::{boundary_coords, grid_with_boundary};
use mosaic_flow::numerics::{solve_dirichlet, Poisson};
use mosaic_flow::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // 1. Geometry: SDNet is trained on 0.5x0.5 subdomains with a 9x9 grid.
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    println!(
        "subdomain: {}x{} points, boundary walk {}",
        spec.m,
        spec.m,
        spec.boundary_len()
    );

    // 2. Data: GP boundary conditions solved exactly (our pyAMG).
    let dataset = Dataset::generate(spec, 160, 42);
    let (train, val) = dataset.split(0.9);
    println!(
        "dataset: {} train / {} validation samples",
        train.len(),
        val.len()
    );

    // 3. Model: conv boundary embedding + input-split layer + GELU MLP.
    let mut config = SdNetConfig::small(spec.boundary_len());
    config.conv_channels = vec![4];
    config.hidden = vec![48, 48, 48];
    let mut net = SdNet::new(config, &mut ChaCha8Rng::seed_from_u64(0));
    println!("SDNet parameters: {}", net.count_params());

    // 4. Train with the physics-informed loss (data MSE + PDE residual).
    let epochs = 60;
    let steps = epochs * (train.len() / 8);
    let cfg = TrainConfig {
        epochs,
        batch_size: 8,
        qd: 48,
        qc: 16,
        pde_weight: 0.02,
        schedule: LrSchedule {
            max_lr: 8e-3,
            ..LrSchedule::paper_default(steps)
        },
        opt: OptKind::Adam,
        seed: 0,
        clip_norm: None,
    };
    println!("training for {epochs} epochs ...");
    let logs = train_single(&mut net, &train, &val, &cfg);
    for log in logs
        .iter()
        .step_by(12)
        .chain(std::iter::once(logs.last().unwrap()))
    {
        println!(
            "  epoch {:3}  data loss {:.4}  pde loss {:.5}  val MSE {:.5}",
            log.epoch, log.data_loss, log.pde_loss, log.val_mse
        );
    }

    // 5. Inference on a larger, unseen domain: 1x0.5 spatial units
    //    (2x1 subdomains) with a fresh GP boundary condition.
    let domain = DomainSpec::new(spec, 2, 1);
    let mut bc_sampler = BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
    let bc = bc_sampler.sample(&mut ChaCha8Rng::seed_from_u64(7));

    // Ground truth from the exact global five-point solve.
    let guess = grid_with_boundary(domain.ny(), domain.nx(), &bc);
    let (reference, stats) = solve_dirichlet(
        &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
        &guess,
        1e-9,
    );
    assert!(stats.converged);

    // Mosaic Flow predictor with the freshly trained network, compiled to
    // the f32 inference plan that `mosaic-flow solve` and `serve` run.
    let solver = PlanSolver::new(net, spec);
    let mfp = Mfp::new(&solver, domain);
    let result = mfp.run(
        &bc,
        &MfpConfig {
            max_iters: 300,
            tol: 1e-5,
            ..Default::default()
        },
    );
    let mae_net = result.grid.mean_abs_diff(&reference);
    println!(
        "\nMFP + trained SDNet : {} iterations, MAE vs exact five-point solve = {:.4}",
        result.iterations, mae_net
    );

    // Same predictor with the numerical oracle, for calibration.
    let oracle = OracleSolver::new(spec, 1e-9);
    let result_oracle = Mfp::new(&oracle, domain).run(
        &bc,
        &MfpConfig {
            max_iters: 300,
            tol: 1e-7,
            ..Default::default()
        },
    );
    let mae_oracle = result_oracle.grid.mean_abs_diff(&reference);
    println!(
        "MFP + oracle solver : {} iterations, MAE vs exact five-point solve = {:.6}",
        result_oracle.iterations, mae_oracle
    );

    // Sanity: the boundary condition really is respected.
    let coords = boundary_coords(domain.ny(), domain.nx());
    let bc_err: f64 = coords
        .iter()
        .enumerate()
        .map(|(k, &(j, i))| (result.grid.get(j, i) - bc.as_slice()[k]).abs())
        .fold(0.0, f64::max);
    println!("max boundary violation: {bc_err:.2e}");
}
