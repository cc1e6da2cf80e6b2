#![warn(missing_docs)]

//! Finite-difference solvers for the Laplace/Poisson equation on rectangular
//! grids — the repository's substitute for pyAMG.
//!
//! The paper (§5.1) generates all ground truth by solving Dirichlet
//! boundary-value problems for the Laplace equation with pyAMG. This crate
//! plays that role from scratch, with two exact solves of the five-point
//! system `(4 + σh²)·u − Σ neighbours = h²f` inside a Dirichlet ring, and
//! no iteration:
//!
//! * [`DirichletMap`], the exact subdomain map `u_interior = H_σ·ĝ +
//!   G_σ·(h²f)` of the square `m×m` grid of `σu − Δu = f`, `σ ≥ 0` (at
//!   `σ = 0`, `H_0` is the discrete harmonic measure), built from the
//!   operator's sine eigenbasis: the ground truth of every training sample
//!   and of every MFP oracle launch, at any `m ≥ 3`,
//! * [`FivePoint`], the sine-transform solve of the same system on any
//!   `ny × nx` grid: through [`solve_shifted`] and [`solve_dirichlet`] the
//!   large-domain reference, and inside the MFP accelerator its coarse
//!   seed and correction.
//!
//! [`residual_norm`] is the stencil written out, the oracle the solvers'
//! tests hold them to.
//!
//! Grids are stored as `mf_tensor::Tensor` with `ny` rows × `nx` columns;
//! row 0 is the bottom edge (y = 0). The [`boundary`] module fixes the
//! counter-clockwise boundary walk shared by the dataset generator and the
//! Mosaic Flow predictor.

mod analytic;
pub mod boundary;
mod dirichlet_map;
mod five_point;
#[cfg(test)]
mod solver_proptests;

pub use analytic::{eval_on_grid, harmonic_polynomial, harmonic_sin_sinh, HarmonicFn};
pub use dirichlet_map::DirichletMap;
pub use five_point::FivePoint;

use mf_tensor::Tensor;

/// Outcome of [`solve_dirichlet`].
#[derive(Clone, Copy, Debug)]
pub struct SolveStats {
    /// Whether every value of the solution is finite.
    pub converged: bool,
}

/// A Poisson problem `Δu = f` on an `ny×nx` vertex grid with spacing `h`
/// and Dirichlet values prescribed on the outer ring of `u`.
///
/// `f` is evaluated at interior points; pass [`Tensor::zeros`] for the
/// Laplace equation. The solvers keep the boundary ring of the grid they
/// are given and write only the interior.
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

/// Solve the Dirichlet problem `Δu = f` exactly: `u0` carries the
/// boundary values on its outer ring (its interior is not read). This is
/// [`solve_shifted`] at `σ = 0` on the negated source.
///
/// `tol` is not used: the solve is direct. `SolveStats::converged` says
/// whether the solution is finite.
pub fn solve_dirichlet(problem: &Poisson, u0: &Tensor, _tol: f64) -> (Tensor, SolveStats) {
    let u = solve(problem, -1.0, 0.0, u0);
    let converged = u.as_slice().iter().all(|v| v.is_finite());
    (u, SolveStats { converged })
}

/// Solve the shifted problem `σu − Δu = f`, `σ ≥ 0`, exactly, with the
/// ring of `u0` as Dirichlet values (its interior is not read): at `σ =
/// 1/(α·Δt)`, one implicit-Euler step of the heat equation. Runs one
/// [`FivePoint`] solve of `(4 + σh²)·u − Σ neighbours = h²f`.
pub fn solve_shifted(problem: &Poisson, sigma: f64, u0: &Tensor) -> Tensor {
    solve(problem, 1.0, sigma, u0)
}

/// `(4 + σh²)·u − Σ neighbours = sign·h²f` inside the ring of `u0`.
fn solve(problem: &Poisson, sign: f64, sigma: f64, u0: &Tensor) -> Tensor {
    let (ny, nx) = problem.shape();
    assert_eq!(u0.shape(), (ny, nx), "solve: guess shape mismatch");
    assert!(ny >= 2 && nx >= 2, "solve: a {ny}x{nx} grid has no ring");
    let h2 = problem.h * problem.h;
    let mut five = FivePoint::new(ny - 2, nx - 2, sigma * h2);
    five.grid_mut().copy_from_slice(u0.as_slice());
    let n = nx - 2;
    for (k, v) in five.rhs_mut().iter_mut().enumerate() {
        *v = sign * h2 * problem.f.get(k / n + 1, k % n + 1);
    }
    five.solve();
    five.into_grid()
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `exact` on the ring, noise inside (the solves must not read it).
    fn ring_of(exact: &Tensor, seed: u64) -> Tensor {
        let (ny, nx) = exact.shape();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(ny, nx, |j, i| {
            if j == 0 || i == 0 || j == ny - 1 || i == nx - 1 {
                exact.get(j, i)
            } else {
                rng.gen_range(-9.0..9.0)
            }
        })
    }

    /// Max over the interior of `|(4 + σh²)·u − Σ neighbours − h²f|`,
    /// relative to the largest of the terms' magnitudes there.
    fn stencil_gap(problem: &Poisson, sigma: f64, u: &Tensor) -> f64 {
        let (ny, nx) = u.shape();
        let h2 = problem.h * problem.h;
        let mut gap = 0.0_f64;
        let mut scale = 0.0_f64;
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let nbrs = [
                    u.get(j, i - 1),
                    u.get(j, i + 1),
                    u.get(j - 1, i),
                    u.get(j + 1, i),
                ];
                let diag = (4.0 + sigma * h2) * u.get(j, i);
                let rhs = h2 * problem.f.get(j, i);
                gap = gap.max((diag - nbrs.iter().sum::<f64>() - rhs).abs());
                scale =
                    scale.max(diag.abs() + nbrs.iter().map(|v| v.abs()).sum::<f64>() + rhs.abs());
            }
        }
        gap / scale.max(f64::MIN_POSITIVE)
    }

    #[test]
    fn residual_norm_is_zero_on_exact_solution() {
        // u = 1 + 2x + 3y is harmonic and exactly representable.
        let n = 9;
        let h = 1.0 / (n - 1) as f64;
        let exact = Tensor::from_fn(n, n, |j, i| 1.0 + 2.0 * i as f64 * h + 3.0 * j as f64 * h);
        assert!(residual_norm(&Poisson::laplace(n, n, h), &exact) < 1e-10);
    }

    #[test]
    fn solve_dirichlet_reproduces_discrete_polynomials() {
        // The 5-point stencil is exact on x² − y² and xy (harmonic) and on
        // x² under Δu = 2, so the solve must reproduce each from its ring,
        // on a coarsenable square, on shapes no V-cycle could coarsen, and
        // on a strip.
        type Field = fn(f64, f64) -> f64;
        let fields: [(&str, Field, f64); 3] = [
            ("x²−y²", |x, y| x * x - y * y, 0.0),
            ("xy", |x, y| x * y, 0.0),
            ("x²", |x, _| x * x, 2.0),
        ];
        for (ny, nx) in [(17, 17), (18, 18), (97, 65), (200, 7)] {
            let h = 1.0 / (nx.max(ny) - 1) as f64;
            for (name, field, lap) in fields {
                let exact = Tensor::from_fn(ny, nx, |j, i| field(i as f64 * h, j as f64 * h));
                let problem = Poisson {
                    f: Tensor::full(ny, nx, lap),
                    h,
                };
                let (u, stats) = solve_dirichlet(&problem, &ring_of(&exact, 1), 1e-10);
                assert!(stats.converged);
                let err = u.max_abs_diff(&exact);
                assert!(err <= 1e-12, "{ny}x{nx}, u = {name}: error {err:e}");
                // The residual in 1/h² units: rounding of values near 1.
                let r = residual_norm(&problem, &u) * h * h;
                assert!(r <= 1e-14, "{ny}x{nx}, u = {name}: residual·h² {r:e}");
            }
        }
    }

    #[test]
    fn the_solves_satisfy_the_shifted_stencil() {
        // Random ring and forcing, unshifted and shifted, on shapes a
        // V-cycle could not coarsen: every interior point satisfies its
        // stencil to rounding, and the ring is the one given.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (ny, nx) in [(18, 18), (97, 65), (200, 7)] {
            let h = 1.0 / (ny.max(nx) - 1) as f64;
            for sigma in [0.0, 50.0] {
                let f = Tensor::from_fn(ny, nx, |_, _| rng.gen_range(-9.0..9.0));
                let ring = Tensor::from_fn(ny, nx, |_, _| rng.gen_range(-1.0..1.0));
                let problem = Poisson { f, h };
                let u = solve_shifted(&problem, sigma, &ring);
                let gap = stencil_gap(&problem, sigma, &u);
                assert!(gap <= 1e-14, "{ny}x{nx}, σ = {sigma}: gap {gap:e}");
                for j in 0..ny {
                    for i in 0..nx {
                        if j == 0 || i == 0 || j == ny - 1 || i == nx - 1 {
                            assert_eq!(u.get(j, i), ring.get(j, i), "ring ({j}, {i}) moved");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn solve_dirichlet_is_the_unshifted_solve_of_the_negated_source() {
        // Δu = g is −Δu = −g at zero shift, to the bit.
        let n = 18;
        let h = 1.0 / (n - 1) as f64;
        let g = Tensor::from_fn(n, n, |j, i| ((j * n + i) as f64).sin());
        let guess = ring_of(&Tensor::from_fn(n, n, |j, i| (i * j) as f64 * h), 2);
        let (u_auto, stats) = solve_dirichlet(&Poisson { f: g.clone(), h }, &guess, 1e-10);
        let u_shift = solve_shifted(
            &Poisson {
                f: g.scale(-1.0),
                h,
            },
            0.0,
            &guess,
        );
        assert!(stats.converged);
        assert_eq!(u_auto.as_slice(), u_shift.as_slice());
    }

    #[test]
    fn shifted_solve_matches_a_manufactured_helmholtz_problem() {
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
        let u = solve_shifted(&Poisson { f, h }, sigma, &Tensor::zeros(n, n));
        // Second-order discretization error dominates.
        assert!(
            u.max_abs_diff(&exact) < 5e-3,
            "err {}",
            u.max_abs_diff(&exact)
        );
    }

    #[test]
    fn a_non_finite_ring_is_not_converged() {
        let n = 9;
        let mut guess = Tensor::zeros(n, n);
        guess.set(0, 3, f64::NAN);
        let (_, stats) = solve_dirichlet(&Poisson::laplace(n, n, 0.125), &guess, 1e-9);
        assert!(!stats.converged);
    }
}
