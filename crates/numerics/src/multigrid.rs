//! Geometric multigrid V-cycle for the 5-point Dirichlet problem.
//!
//! Vertex-centered coarsening: a grid with `2^k + 1` points per side
//! coarsens to `2^(k-1) + 1`. Components: red-black Gauss–Seidel smoothing,
//! full-weighting restriction, bilinear prolongation, and a deep RBGS solve
//! on the coarsest level. This is the workhorse that generates ground truth
//! for large domains (the paper used pyAMG for the same purpose).

use crate::relax::{rbgs_sweep, residual_norm};
use crate::{Poisson, SolveStats};
use mf_tensor::Tensor;

/// Maximum number of V-cycles.
const MAX_CYCLES: usize = 60;
/// Pre-smoothing sweeps per level.
const PRE_SWEEPS: usize = 2;
/// Post-smoothing sweeps per level.
const POST_SWEEPS: usize = 2;

/// Whether both dimensions admit at least one vertex-centered coarsening
/// (`n = 2^k + 1` with `k ≥ 2`).
pub fn can_coarsen(ny: usize, nx: usize) -> bool {
    fn ok(n: usize) -> bool {
        n >= 5 && (n - 1).is_power_of_two()
    }
    ok(ny) && ok(nx)
}

/// Solve with V-cycles until the residual max-norm is at most `tol`.
/// `u0`'s ring supplies the Dirichlet data.
///
/// Panics if the grid cannot be coarsened (check [`can_coarsen`] first or
/// use [`crate::solve_dirichlet`], which falls back to SOR).
pub fn solve_multigrid(problem: &Poisson, u0: &Tensor, tol: f64) -> (Tensor, SolveStats) {
    let (ny, nx) = problem.shape();
    assert!(
        can_coarsen(ny, nx),
        "solve_multigrid: {ny}x{nx} is not coarsenable (need 2^k+1)"
    );
    let mut u = u0.clone();
    let mut cycles = 0;
    let mut residual = residual_norm(problem, &u);
    while residual > tol && cycles < MAX_CYCLES {
        vcycle(problem, &mut u);
        residual = residual_norm(problem, &u);
        cycles += 1;
    }
    (
        u,
        SolveStats {
            iterations: cycles,
            residual,
            converged: residual <= tol,
        },
    )
}

/// One V-cycle on `u` (in place).
fn vcycle(problem: &Poisson, u: &mut Tensor) {
    let (ny, nx) = problem.shape();
    if ny <= 5 || nx <= 5 || !can_coarsen(ny, nx) {
        // Coarsest level: smooth hard.
        for _ in 0..60 {
            rbgs_sweep(problem, u);
        }
        return;
    }

    for _ in 0..PRE_SWEEPS {
        rbgs_sweep(problem, u);
    }

    // Residual r = f - Δu (interior), restricted to the coarse grid.
    let r = residual_field(problem, u);
    let rc = restrict_full_weighting(&r);

    // Coarse-grid error equation Δe = r with zero Dirichlet error boundary.
    let coarse = Poisson {
        f: rc,
        h: problem.h * 2.0,
    };
    let (cy, cx) = coarse.shape();
    let mut e = Tensor::zeros(cy, cx);
    vcycle(&coarse, &mut e);

    // Correct: u += P e.
    let ef = prolong_bilinear(&e, ny, nx);
    for j in 1..ny - 1 {
        for i in 1..nx - 1 {
            let v = u.get(j, i) + ef.get(j, i);
            u.set(j, i, v);
        }
    }

    for _ in 0..POST_SWEEPS {
        rbgs_sweep(problem, u);
    }
}

/// Interior residual field `f - Δu` (zero on the ring).
fn residual_field(problem: &Poisson, u: &Tensor) -> Tensor {
    let (ny, nx) = problem.shape();
    let inv_h2 = 1.0 / (problem.h * problem.h);
    let mut r = Tensor::zeros(ny, nx);
    for j in 1..ny - 1 {
        for i in 1..nx - 1 {
            let lap = (u.get(j, i - 1) + u.get(j, i + 1) + u.get(j - 1, i) + u.get(j + 1, i)
                - 4.0 * u.get(j, i))
                * inv_h2;
            r.set(j, i, problem.f.get(j, i) - lap);
        }
    }
    r
}

/// Full-weighting restriction onto the `(n+1)/2`-point grid.
fn restrict_full_weighting(fine: &Tensor) -> Tensor {
    let (ny, nx) = fine.shape();
    let (cy, cx) = (ny.div_ceil(2), nx.div_ceil(2));
    let mut coarse = Tensor::zeros(cy, cx);
    for j in 1..cy - 1 {
        for i in 1..cx - 1 {
            let (fj, fi) = (2 * j, 2 * i);
            let center = fine.get(fj, fi);
            let edges = fine.get(fj, fi - 1)
                + fine.get(fj, fi + 1)
                + fine.get(fj - 1, fi)
                + fine.get(fj + 1, fi);
            let corners = fine.get(fj - 1, fi - 1)
                + fine.get(fj - 1, fi + 1)
                + fine.get(fj + 1, fi - 1)
                + fine.get(fj + 1, fi + 1);
            coarse.set(j, i, 0.25 * center + 0.125 * edges + 0.0625 * corners);
        }
    }
    coarse
}

/// Bilinear prolongation onto an `ny×nx` fine grid.
fn prolong_bilinear(coarse: &Tensor, ny: usize, nx: usize) -> Tensor {
    let (cy, cx) = coarse.shape();
    assert_eq!(ny.div_ceil(2), cy, "prolong: shape mismatch");
    assert_eq!(nx.div_ceil(2), cx, "prolong: shape mismatch");
    let mut fine = Tensor::zeros(ny, nx);
    for j in 0..ny {
        for i in 0..nx {
            let (cj, ci) = (j / 2, i / 2);
            let v = match (j % 2, i % 2) {
                (0, 0) => coarse.get(cj, ci),
                (0, 1) => 0.5 * (coarse.get(cj, ci) + coarse.get(cj, ci + 1)),
                (1, 0) => 0.5 * (coarse.get(cj, ci) + coarse.get(cj + 1, ci)),
                (1, 1) => {
                    0.25 * (coarse.get(cj, ci)
                        + coarse.get(cj, ci + 1)
                        + coarse.get(cj + 1, ci)
                        + coarse.get(cj + 1, ci + 1))
                }
                _ => unreachable!(),
            };
            fine.set(j, i, v);
        }
    }
    fine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_shifted_sor, sor_optimal_omega};

    #[test]
    fn can_coarsen_detects_valid_sizes() {
        assert!(can_coarsen(5, 5));
        assert!(can_coarsen(33, 17));
        assert!(can_coarsen(129, 65));
        assert!(!can_coarsen(4, 5));
        assert!(!can_coarsen(6, 5));
        assert!(!can_coarsen(32, 33));
    }

    fn trig_boundary_problem(n: usize) -> (Poisson, Tensor) {
        let h = 1.0 / (n - 1) as f64;
        let mut guess = Tensor::zeros(n, n);
        for i in 0..n {
            let t = i as f64 * h;
            guess.set(0, i, (std::f64::consts::PI * t).sin());
            guess.set(n - 1, i, -(2.0 * std::f64::consts::PI * t).sin());
            guess.set(i, 0, 0.0);
            guess.set(i, n - 1, t * (1.0 - t));
        }
        (Poisson::laplace(n, n, h), guess)
    }

    #[test]
    fn multigrid_matches_sor_reference() {
        let (p, g) = trig_boundary_problem(33);
        let (umg, smg) = solve_multigrid(&p, &g, 1e-9);
        let (usor, ssor) = solve_shifted_sor(&p, 0.0, &g, sor_optimal_omega(33), 100_000, 1e-9);
        assert!(smg.converged, "{smg:?}");
        assert!(ssor.converged);
        assert!(umg.max_abs_diff(&usor) < 1e-6);
    }

    #[test]
    fn multigrid_converges_in_few_cycles() {
        // Textbook multigrid: O(10) V-cycles independent of grid size.
        let (p, g) = trig_boundary_problem(65);
        let (_, stats) = solve_multigrid(&p, &g, 1e-9);
        assert!(stats.converged);
        assert!(stats.iterations <= 25, "needed {} cycles", stats.iterations);
    }

    #[test]
    fn cycle_count_is_mesh_independent() {
        let mut counts = Vec::new();
        for &n in &[17, 33, 65, 129] {
            let (p, g) = trig_boundary_problem(n);
            let (_, stats) = solve_multigrid(&p, &g, 1e-9);
            assert!(stats.converged, "n={n}: {stats:?}");
            counts.push(stats.iterations);
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= min + 12, "cycle counts vary too much: {counts:?}");
    }

    #[test]
    fn exact_on_bilinear_function() {
        // u = xy is harmonic and reproduced exactly by the stencil.
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let exact = Tensor::from_fn(n, n, |j, i| (i as f64 * h) * (j as f64 * h));
        let mut guess = exact.clone();
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                guess.set(j, i, 0.5);
            }
        }
        let (u, stats) = solve_multigrid(&Poisson::laplace(n, n, h), &guess, 1e-9);
        assert!(stats.converged);
        assert!(u.max_abs_diff(&exact) < 1e-8);
    }

    #[test]
    fn restriction_and_prolongation_shapes_round_trip() {
        let fine = Tensor::from_fn(9, 9, |j, i| (j * 9 + i) as f64);
        let coarse = restrict_full_weighting(&fine);
        assert_eq!(coarse.shape(), (5, 5));
        let back = prolong_bilinear(&coarse, 9, 9);
        assert_eq!(back.shape(), (9, 9));
    }

    #[test]
    fn prolongation_preserves_constants_in_interior() {
        let coarse = Tensor::ones(5, 5);
        let fine = prolong_bilinear(&coarse, 9, 9);
        for j in 0..9 {
            for i in 0..9 {
                assert!((fine.get(j, i) - 1.0).abs() < 1e-12);
            }
        }
    }
}
