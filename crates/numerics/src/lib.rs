#![warn(missing_docs)]

//! Finite-difference solvers for the Laplace/Poisson equation on rectangular
//! grids — the repository's substitute for pyAMG.
//!
//! The paper (§5.1) generates all ground-truth data by solving Dirichlet
//! boundary-value problems for the Laplace equation with pyAMG. This crate
//! plays that role from scratch:
//!
//! * [`DirichletMap`], the exact subdomain map `u_interior = H_σ·ĝ +
//!   G_σ·(h²f)` of the square `m×m` grid of `σu − Δu = f`, `σ ≥ 0` (at
//!   `σ = 0`, `H_0` is the discrete harmonic measure), built from the
//!   operator's sine eigenbasis: the ground truth of every training sample
//!   and of every MFP oracle launch, at any `m ≥ 3`,
//! * a geometric multigrid V-cycle (full-weighting restriction, bilinear
//!   prolongation, red-black Gauss–Seidel smoothing) for large grids,
//! * pointwise relaxation: red-black Gauss–Seidel, and one SOR for the
//!   shifted operator `σu − Δu = f` on a whole domain — the reference of
//!   the time-dependent extension, and at `σ = 0` the Laplace/Poisson
//!   fallback,
//! * [`solve_dirichlet`] which picks multigrid when the grid supports
//!   coarsening and falls back to SOR otherwise: the large-domain
//!   reference and the MFP coarse seed.
//!
//! That is the whole family: every solver here is on a path from data
//! generation, ground truth, the MFP oracle or the multigrid smoother.
//!
//! Grids are stored as `mf_tensor::Tensor` with `ny` rows × `nx` columns;
//! row 0 is the bottom edge (y = 0). The [`boundary`] module fixes the
//! counter-clockwise boundary walk shared by the dataset generator and the
//! Mosaic Flow predictor.

mod analytic;
pub mod boundary;
mod dirichlet_map;
mod multigrid;
mod relax;
#[cfg(test)]
mod solver_proptests;

pub use analytic::{eval_on_grid, harmonic_polynomial, harmonic_sin_sinh, HarmonicFn};
pub use dirichlet_map::DirichletMap;
pub use multigrid::{can_coarsen, solve_multigrid};
pub use relax::{residual_norm, solve_shifted_sor, sor_optimal_omega};

use mf_tensor::Tensor;

/// Outcome of an iterative solve.
#[derive(Clone, Copy, Debug)]
pub struct SolveStats {
    /// Iterations (V-cycles for multigrid) actually performed.
    pub iterations: usize,
    /// Final max-norm of the residual of the 5-point system.
    pub residual: f64,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// A Poisson problem `Δu = f` on an `ny×nx` vertex grid with spacing `h`
/// and Dirichlet values prescribed on the outer ring of `u`.
///
/// `f` is evaluated at interior points; pass [`Tensor::zeros`] for the
/// Laplace equation. All solvers keep the boundary ring of the initial
/// guess fixed and update only the interior.
#[derive(Clone, Debug)]
pub struct Poisson {
    /// Right-hand side, `ny×nx` (only interior entries are read).
    pub f: Tensor,
    /// Grid spacing (isotropic).
    pub h: f64,
}

impl Poisson {
    /// The Laplace equation (`f = 0`) on an `ny×nx` grid with spacing `h`.
    pub fn laplace(ny: usize, nx: usize, h: f64) -> Self {
        Self {
            f: Tensor::zeros(ny, nx),
            h,
        }
    }

    /// Grid shape `(ny, nx)`.
    pub fn shape(&self) -> (usize, usize) {
        self.f.shape()
    }
}

/// Solve a Dirichlet problem: `u0` carries the boundary values on its outer
/// ring (interior entries are the initial guess). Uses multigrid when both
/// dimensions allow at least two coarsening levels, SOR otherwise.
///
/// Returns the solution grid and solve statistics.
pub fn solve_dirichlet(problem: &Poisson, u0: &Tensor, tol: f64) -> (Tensor, SolveStats) {
    let (ny, nx) = problem.shape();
    assert_eq!(
        u0.shape(),
        (ny, nx),
        "solve_dirichlet: guess shape mismatch"
    );
    if can_coarsen(ny, nx) {
        solve_multigrid(problem, u0, tol)
    } else {
        // `Δu = f` is `−Δu = −f` at zero shift.
        let negated = Poisson {
            f: problem.f.scale(-1.0),
            h: problem.h,
        };
        let omega = sor_optimal_omega(ny.max(nx));
        solve_shifted_sor(&negated, 0.0, u0, omega, 20_000, tol)
    }
}

/// Apply the 5-point Laplacian to the interior of `u`: `(Δu)_ij ≈
/// (u_E + u_W + u_N + u_S - 4u_C)/h²`. Boundary entries of the result are 0.
pub fn apply_laplacian(u: &Tensor, h: f64) -> Tensor {
    let (ny, nx) = u.shape();
    let mut out = Tensor::zeros(ny, nx);
    let inv_h2 = 1.0 / (h * h);
    for j in 1..ny - 1 {
        for i in 1..nx - 1 {
            let c = u.get(j, i);
            let lap = (u.get(j, i - 1) + u.get(j, i + 1) + u.get(j - 1, i) + u.get(j + 1, i)
                - 4.0 * c)
                * inv_h2;
            out.set(j, i, lap);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_of_linear_function_is_zero() {
        let u = Tensor::from_fn(9, 9, |j, i| 2.0 * i as f64 - 3.0 * j as f64 + 1.0);
        let lap = apply_laplacian(&u, 0.125);
        assert!(lap.norm_linf() < 1e-10);
    }

    #[test]
    fn laplacian_of_quadratic_is_constant() {
        // u = x² ⇒ Δu = 2 exactly for the 5-point stencil.
        let h = 0.1;
        let u = Tensor::from_fn(7, 7, |_, i| (i as f64 * h).powi(2));
        let lap = apply_laplacian(&u, h);
        for j in 1..6 {
            for i in 1..6 {
                assert!((lap.get(j, i) - 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn solve_dirichlet_reproduces_harmonic_polynomial() {
        // x² - y² is harmonic, and the 5-point stencil is exact on it.
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let exact = Tensor::from_fn(n, n, |j, i| {
            let (x, y) = (i as f64 * h, j as f64 * h);
            x * x - y * y
        });
        let mut guess = exact.clone();
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                guess.set(j, i, 0.0);
            }
        }
        let (u, stats) = solve_dirichlet(&Poisson::laplace(n, n, h), &guess, 1e-10);
        assert!(stats.converged, "solver did not converge: {stats:?}");
        assert!(
            u.max_abs_diff(&exact) < 1e-7,
            "error {}",
            u.max_abs_diff(&exact)
        );
    }
}
