//! Steady-state temperature of a wide heat-spreader plate, solved with the
//! **distributed** Mosaic Flow predictor on four simulated devices.
//!
//! The plate is 3×1 spatial units (6×2 atomic subdomains). Its bottom edge
//! carries three localized heat sources (Gaussian bumps); the other edges
//! are held at ambient temperature. Steady-state heat conduction with
//! fixed boundary temperatures is exactly the Laplace Dirichlet problem
//! the paper solves.
//!
//! ```text
//! cargo run --release --example heat_sink
//! ```

use mosaic_flow::dist::PerfModel;
use mosaic_flow::numerics::boundary::{boundary_params, grid_with_boundary};
use mosaic_flow::numerics::{solve_dirichlet, Poisson};
use mosaic_flow::prelude::*;
use mosaic_flow::tensor::Tensor;

fn main() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let domain = DomainSpec::new(spec, 6, 2);
    println!(
        "plate: {}x{} spatial units, {}x{} grid, {} overlapping subdomains",
        domain.sx as f64 * spec.spatial,
        domain.sy as f64 * spec.spatial,
        domain.nx(),
        domain.ny(),
        domain.subdomains().len()
    );

    // Boundary: ambient 0 everywhere except three hot spots on the bottom
    // edge (the walk starts at the bottom-left corner, so the bottom edge
    // occupies the first quarter-ish of the parameter range).
    let params = boundary_params(domain.ny(), domain.nx());
    let bottom_frac =
        (domain.nx() - 1) as f64 / (2 * (domain.nx() - 1) + 2 * (domain.ny() - 1)) as f64;
    let bump = |t: f64, c: f64, w: f64| (-((t - c) * (t - c)) / (2.0 * w * w)).exp();
    let values: Vec<f64> = params
        .iter()
        .map(|&t| {
            if t < bottom_frac {
                let x = t / bottom_frac; // position along the bottom edge
                1.0 * bump(x, 0.2, 0.04) + 0.8 * bump(x, 0.5, 0.03) + 1.2 * bump(x, 0.8, 0.05)
            } else {
                0.0
            }
        })
        .collect();
    let bc = Tensor::from_vec(1, values.len(), values);

    // Reference: the exact global five-point solve.
    let guess = grid_with_boundary(domain.ny(), domain.nx(), &bc);
    let (reference, stats) = solve_dirichlet(
        &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
        &guess,
        1e-9,
    );
    assert!(stats.converged);

    // Distributed MFP on 4 simulated devices (2x2 processor grid).
    let oracle = OracleSolver::new(spec, 1e-9);
    let ranks = 4;
    let result = run_distributed(
        &oracle,
        &domain,
        &bc,
        ranks,
        &DistMfpConfig {
            max_iters: 800,
            tol: 1e-7,
            ..Default::default()
        },
    );
    println!(
        "\ndistributed MFP on {ranks} ranks: {} iterations, converged = {}",
        result.iterations, result.converged
    );
    println!(
        "MAE vs exact five-point solve: {:.6}",
        result.grid.mean_abs_diff(&reference)
    );

    // Per-rank accounting + the paper's alpha-beta model for an A30
    // cluster.
    let model = PerfModel::a30_cluster();
    println!("\nrank  subdomains  compute(s)  halo msgs  halo bytes  modeled comm(s)");
    for rep in &result.reports {
        println!(
            "{:4}  {:10}  {:10.3}  {:9}  {:10}  {:15.6}",
            rep.rank,
            rep.owned_subdomains,
            rep.compute_seconds,
            rep.comm.msgs_sent,
            rep.comm.bytes_sent,
            model.time_for(&rep.comm)
        );
    }

    // Report the hottest interior spot.
    let mut hottest = (0usize, 0usize, f64::MIN);
    for j in 1..domain.ny() - 1 {
        for i in 1..domain.nx() - 1 {
            let v = result.grid.get(j, i);
            if v > hottest.2 {
                hottest = (j, i, v);
            }
        }
    }
    println!(
        "\nhottest interior point: ({:.3}, {:.3}) at temperature {:.3}",
        hottest.1 as f64 * domain.h(),
        hottest.0 as f64 * domain.h(),
        hottest.2
    );
}
