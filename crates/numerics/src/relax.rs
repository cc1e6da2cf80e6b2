//! Pointwise relaxation solvers: red-black Gauss–Seidel, and SOR for the
//! shifted operator (at zero shift, the Laplace/Poisson one).

use crate::{Poisson, SolveStats};
use mf_tensor::Tensor;

/// Max-norm of the residual `f - Δu` over interior points.
pub fn residual_norm(problem: &Poisson, u: &Tensor) -> f64 {
    let (ny, nx) = problem.shape();
    let inv_h2 = 1.0 / (problem.h * problem.h);
    let mut r = 0.0_f64;
    for j in 1..ny - 1 {
        for i in 1..nx - 1 {
            let lap = (u.get(j, i - 1) + u.get(j, i + 1) + u.get(j - 1, i) + u.get(j + 1, i)
                - 4.0 * u.get(j, i))
                * inv_h2;
            r = r.max((problem.f.get(j, i) - lap).abs());
        }
    }
    r
}

/// Theoretically optimal SOR relaxation factor for an `n`-point-per-side
/// Laplace problem: `ω = 2 / (1 + sin(π h))` with `h = 1/(n-1)`.
pub fn sor_optimal_omega(n: usize) -> f64 {
    let h = std::f64::consts::PI / (n.max(2) - 1) as f64;
    2.0 / (1.0 + h.sin())
}

/// One red-black Gauss–Seidel sweep (both colors), in place.
///
/// Red-black ordering decouples the update into two halves that are each
/// embarrassingly parallel and is the standard multigrid smoother.
pub fn rbgs_sweep(problem: &Poisson, u: &mut Tensor) {
    let (ny, nx) = problem.shape();
    let h2 = problem.h * problem.h;
    for color in 0..2 {
        for j in 1..ny - 1 {
            // First interior column whose (i + j) parity matches `color`.
            let start = 1 + ((j + 1 + color) % 2);
            let mut i = start;
            while i < nx - 1 {
                let v = 0.25
                    * (u.get(j, i - 1) + u.get(j, i + 1) + u.get(j - 1, i) + u.get(j + 1, i)
                        - h2 * problem.f.get(j, i));
                u.set(j, i, v);
                i += 2;
            }
        }
    }
}

/// SOR for the shifted operator `σu − Δu = f` (σ = 0 gives `−Δu = f`).
///
/// This is the implicit-Euler heat operator (`σ = 1/(α·Δt)`), used by the
/// time-dependent extension of the Mosaic Flow predictor. The shift makes
/// the system strictly diagonally dominant, so plain GS/SOR converges
/// quickly.
pub fn solve_shifted_sor(
    problem: &Poisson,
    sigma: f64,
    u0: &Tensor,
    omega: f64,
    max_iters: usize,
    tol: f64,
) -> (Tensor, SolveStats) {
    assert!(
        sigma >= 0.0,
        "solve_shifted_sor: sigma must be non-negative"
    );
    assert!(omega > 0.0 && omega < 2.0, "SOR requires 0 < omega < 2");
    let (ny, nx) = problem.shape();
    let h2 = problem.h * problem.h;
    let diag = 4.0 + sigma * h2;
    let mut u = u0.clone();
    let residual_shifted = |u: &Tensor| -> f64 {
        let inv_h2 = 1.0 / h2;
        let mut r = 0.0_f64;
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let lap = (u.get(j, i - 1) + u.get(j, i + 1) + u.get(j - 1, i) + u.get(j + 1, i)
                    - 4.0 * u.get(j, i))
                    * inv_h2;
                r = r.max((problem.f.get(j, i) - sigma * u.get(j, i) + lap).abs());
            }
        }
        r
    };
    let mut iterations = 0;
    let mut residual = residual_shifted(&u);
    while residual > tol && iterations < max_iters {
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let nbrs = u.get(j, i - 1) + u.get(j, i + 1) + u.get(j - 1, i) + u.get(j + 1, i);
                let gs = (h2 * problem.f.get(j, i) + nbrs) / diag;
                let old = u.get(j, i);
                u.set(j, i, old + omega * (gs - old));
            }
        }
        iterations += 1;
        if iterations % 8 == 0 || iterations == max_iters {
            residual = residual_shifted(&u);
        }
    }
    residual = residual_shifted(&u);
    (
        u,
        SolveStats {
            iterations,
            residual,
            converged: residual <= tol,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_exact(n: usize) -> (Poisson, Tensor, Tensor) {
        // u = 1 + 2x + 3y is harmonic and exactly representable.
        let h = 1.0 / (n - 1) as f64;
        let exact = Tensor::from_fn(n, n, |j, i| 1.0 + 2.0 * i as f64 * h + 3.0 * j as f64 * h);
        let mut guess = exact.clone();
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                guess.set(j, i, 0.0);
            }
        }
        (Poisson::laplace(n, n, h), guess, exact)
    }

    #[test]
    fn rbgs_converges_to_linear_solution() {
        let (p, mut u, exact) = linear_exact(17);
        for _ in 0..2_000 {
            rbgs_sweep(&p, &mut u);
        }
        assert!(residual_norm(&p, &u) < 1e-10);
        assert!(u.max_abs_diff(&exact) < 1e-8);
    }

    #[test]
    fn sor_with_optimal_omega_beats_gauss_seidel() {
        let (p, g, _) = linear_exact(33);
        let (_, s_gs) = solve_shifted_sor(&p, 0.0, &g, 1.0, 50_000, 1e-8); // ω=1 is Gauss–Seidel
        let (_, s_opt) = solve_shifted_sor(&p, 0.0, &g, sor_optimal_omega(33), 50_000, 1e-8);
        assert!(s_opt.converged);
        assert!(
            s_opt.iterations < s_gs.iterations / 2,
            "optimal SOR ({}) should be far faster than GS ({})",
            s_opt.iterations,
            s_gs.iterations
        );
    }

    #[test]
    fn poisson_with_constant_rhs() {
        // Δu = 2 (−Δu = −2 at zero shift) with u = x² on the boundary has
        // exact solution u = x².
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let exact = Tensor::from_fn(n, n, |_, i| (i as f64 * h).powi(2));
        let mut guess = exact.clone();
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                guess.set(j, i, 0.0);
            }
        }
        let p = Poisson {
            f: Tensor::full(n, n, -2.0),
            h,
        };
        let (u, stats) = solve_shifted_sor(&p, 0.0, &guess, sor_optimal_omega(n), 20_000, 1e-10);
        assert!(stats.converged);
        assert!(u.max_abs_diff(&exact) < 1e-7);
    }

    #[test]
    fn shifted_sor_solves_manufactured_helmholtz_problem() {
        // σu − Δu = f with u = sin(πx)sin(πy) ⇒ f = (σ + 2π²)u; u = 0 on
        // the boundary of the unit square.
        let n = 33;
        let h = 1.0 / (n - 1) as f64;
        let sigma = 50.0;
        let pi = std::f64::consts::PI;
        let exact = Tensor::from_fn(n, n, |j, i| {
            (pi * i as f64 * h).sin() * (pi * j as f64 * h).sin()
        });
        let f = exact.scale(sigma + 2.0 * pi * pi);
        let p = Poisson { f, h };
        let guess = Tensor::zeros(n, n);
        let (u, stats) = solve_shifted_sor(&p, sigma, &guess, 1.5, 50_000, 1e-9);
        assert!(stats.converged, "{stats:?}");
        // Second-order discretization error dominates.
        assert!(
            u.max_abs_diff(&exact) < 5e-3,
            "err {}",
            u.max_abs_diff(&exact)
        );
    }

    #[test]
    fn dirichlet_fallback_is_zero_shift_sor_on_the_negated_source() {
        // 18 points per side cannot coarsen, so `solve_dirichlet` relaxes
        // Δu = g as −Δu = −g at zero shift.
        let n = 18;
        let h = 1.0 / (n - 1) as f64;
        let g = Tensor::full(n, n, 2.0);
        let exact = Tensor::from_fn(n, n, |_, i| (i as f64 * h).powi(2));
        let mut guess = exact.clone();
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                guess.set(j, i, 0.0);
            }
        }
        let (u_auto, s1) = crate::solve_dirichlet(&Poisson { f: g.clone(), h }, &guess, 1e-10);
        let (u_shift, s2) = solve_shifted_sor(
            &Poisson {
                f: g.scale(-1.0),
                h,
            },
            0.0,
            &guess,
            sor_optimal_omega(n),
            20_000,
            1e-10,
        );
        assert!(s1.converged);
        assert_eq!(s1.iterations, s2.iterations);
        assert_eq!(u_auto.as_slice(), u_shift.as_slice());
    }

    #[test]
    fn larger_shift_converges_faster() {
        // Diagonal dominance grows with sigma, so the iteration count
        // drops — the reason Schwarz for time-dependent problems needs
        // only neighbor exchanges (§5.3 of the paper).
        let n = 33;
        let h = 1.0 / (n - 1) as f64;
        let f = Tensor::ones(n, n);
        let p = Poisson { f, h };
        let guess = Tensor::zeros(n, n);
        let (_, weak) = solve_shifted_sor(&p, 1.0, &guess, 1.0, 100_000, 1e-9);
        let (_, strong) = solve_shifted_sor(&p, 1000.0, &guess, 1.0, 100_000, 1e-9);
        assert!(weak.converged && strong.converged);
        assert!(strong.iterations < weak.iterations);
    }

    #[test]
    fn residual_norm_is_zero_on_exact_solution() {
        let (p, _, exact) = linear_exact(9);
        assert!(residual_norm(&p, &exact) < 1e-10);
    }

    #[test]
    fn boundary_ring_is_never_modified() {
        let (p, g, _) = linear_exact(9);
        let mut u = g.clone();
        for _ in 0..100 {
            rbgs_sweep(&p, &mut u);
        }
        for i in 0..9 {
            assert_eq!(u.get(0, i), g.get(0, i));
            assert_eq!(u.get(8, i), g.get(8, i));
            assert_eq!(u.get(i, 0), g.get(i, 0));
            assert_eq!(u.get(i, 8), g.get(i, 8));
        }
    }
}
