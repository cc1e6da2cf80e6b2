//! Electrostatic potential in a long micro-channel: batched vs unbatched
//! Mosaic Flow inference (the device-level parallelism of §4.1).
//!
//! A 4×0.5 channel has its left electrode at +1 V, its right electrode at
//! −1 V, and insulating-ish linearly graded top/bottom walls. The Laplace
//! equation governs the potential. The example runs the MFP both one
//! subdomain at a time (the original baseline) and with batched sweeps,
//! reporting the per-iteration speedup — the Fig. 8 effect in miniature.
//!
//! ```text
//! cargo run --release --example electrostatics
//! ```

use mosaic_flow::mfp::UnbatchedSolver;
use mosaic_flow::numerics::boundary::{boundary_coords, grid_with_boundary};
use mosaic_flow::numerics::{solve_dirichlet, Poisson};
use mosaic_flow::prelude::*;
use mosaic_flow::tensor::Tensor;
use std::time::Instant;

fn main() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let domain = DomainSpec::new(spec, 8, 1);
    println!(
        "channel: {}x{} spatial units, {} overlapping subdomains",
        domain.sx as f64 * spec.spatial,
        domain.sy as f64 * spec.spatial,
        domain.subdomains().len()
    );

    // Boundary: +1 on the left electrode, -1 on the right, linear grade on
    // top/bottom walls so the BC is continuous at the corners.
    let coords = boundary_coords(domain.ny(), domain.nx());
    let width = (domain.nx() - 1) as f64;
    let values: Vec<f64> = coords
        .iter()
        .map(|&(_, i)| 1.0 - 2.0 * i as f64 / width)
        .collect();
    let bc = Tensor::from_vec(1, values.len(), values);

    // Reference solution.
    let guess = grid_with_boundary(domain.ny(), domain.nx(), &bc);
    let (reference, stats) = solve_dirichlet(
        &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
        &guess,
        1e-9,
    );
    assert!(stats.converged);

    let oracle = OracleSolver::new(spec, 1e-8);
    let iters = 40;
    let cfg = MfpConfig {
        max_iters: iters,
        tol: 0.0,
        ..Default::default()
    };

    // One launch per subdomain: the same solver behind the unbatched adapter.
    let t0 = Instant::now();
    let unbatched = Mfp::new(&UnbatchedSolver(&oracle), domain).run(&bc, &cfg);
    let t_unbatched = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let batched = Mfp::new(&oracle, domain).run(&bc, &cfg);
    let t_batched = t1.elapsed().as_secs_f64();

    println!("\n{iters} iterations each:");
    println!(
        "  unbatched: {:.3} s  ({:.2} ms/iteration)",
        t_unbatched,
        1e3 * t_unbatched / iters as f64
    );
    println!(
        "  batched  : {:.3} s  ({:.2} ms/iteration)",
        t_batched,
        1e3 * t_batched / iters as f64
    );
    println!(
        "  results identical: {}",
        batched.grid.allclose(&unbatched.grid, 1e-12)
    );

    println!(
        "\nMAE vs multigrid reference: {:.6}",
        batched.grid.mean_abs_diff(&reference)
    );

    // The exact solution of this BVP is the linear potential ramp — a
    // strong analytic cross-check.
    let exact = Tensor::from_fn(domain.ny(), domain.nx(), |_, i| {
        1.0 - 2.0 * i as f64 / width
    });
    println!(
        "MAE vs analytic linear ramp: {:.6}",
        batched.grid.mean_abs_diff(&exact)
    );

    // Field strength |E| = |∇u| at the channel center, via central
    // differences on the recovered potential.
    let (jc, ic) = (domain.ny() / 2, domain.nx() / 2);
    let h = domain.h();
    let ex = (batched.grid.get(jc, ic + 1) - batched.grid.get(jc, ic - 1)) / (2.0 * h);
    let ey = (batched.grid.get(jc + 1, ic) - batched.grid.get(jc - 1, ic)) / (2.0 * h);
    println!("field at center: ({ex:.4}, {ey:.4})  (analytic: (-0.5, 0))");
}
