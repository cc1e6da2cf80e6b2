//! Property-based checks of the exact solve: for random Dirichlet data it
//! must satisfy the five-point stencil, the discrete maximum principle,
//! and the operator's linearity.

use crate::boundary::{apply_boundary, boundary_from_fn};
use crate::{residual_norm, solve_dirichlet, solve_shifted, Poisson};
use mf_tensor::Tensor;
use proptest::prelude::*;

/// A random smooth boundary condition built from a few sine modes.
fn grid_with_random_bc(n: usize, a: f64, b: f64, phase: f64) -> Tensor {
    let bc = boundary_from_fn(n, n, |t| {
        a * (2.0 * std::f64::consts::PI * t + phase).sin()
            + b * (4.0 * std::f64::consts::PI * t).cos()
    });
    let mut g = Tensor::zeros(n, n);
    apply_boundary(&mut g, &bc);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `solve_dirichlet` satisfies the five-point stencil to rounding.
    #[test]
    fn the_solve_satisfies_the_stencil(a in -1.0f64..1.0, b in -0.5f64..0.5, phase in 0.0f64..3.0) {
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let guess = grid_with_random_bc(n, a, b, phase);
        let p = Poisson::laplace(n, n, h);
        let (u, st) = solve_dirichlet(&p, &guess, 1e-9);
        prop_assert!(st.converged);
        prop_assert!(residual_norm(&p, &u) * h * h < 1e-14);
    }

    /// Discrete maximum principle: the interior never exceeds the
    /// boundary extremes for the Laplace equation.
    #[test]
    fn maximum_principle(a in -2.0f64..2.0, b in -1.0f64..1.0, phase in 0.0f64..3.0) {
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let guess = grid_with_random_bc(n, a, b, phase);
        let ring: Vec<f64> = crate::boundary::extract_boundary(&guess).into_vec();
        let lo = ring.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ring.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let (u, st) = solve_dirichlet(&Poisson::laplace(n, n, h), &guess, 1e-9);
        prop_assert!(st.converged);
        let tol = 1e-7 * (1.0 + hi.abs().max(lo.abs()));
        for v in u.as_slice() {
            prop_assert!(*v >= lo - tol && *v <= hi + tol);
        }
    }

    /// Linearity: solve(α·g) == α·solve(g).
    #[test]
    fn solver_is_linear_in_boundary_data(alpha in 0.2f64..4.0, phase in 0.0f64..3.0) {
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let g1 = grid_with_random_bc(n, 1.0, 0.3, phase);
        let g2 = g1.scale(alpha);
        let p = Poisson::laplace(n, n, h);
        let (u1, s1) = solve_dirichlet(&p, &g1, 1e-10);
        let (u2, s2) = solve_dirichlet(&p, &g2, 1e-10);
        prop_assert!(s1.converged && s2.converged);
        prop_assert!(u2.max_abs_diff(&u1.scale(alpha)) < 1e-6 * alpha.max(1.0));
    }

    /// The shifted solver reduces to the Laplace solution as σ → 0 and to
    /// f/σ deep in the interior as σ → ∞ (with zero boundary).
    #[test]
    fn shifted_solver_limits(fval in 0.5f64..3.0) {
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let f = Tensor::full(n, n, fval);
        let guess = Tensor::zeros(n, n);
        // Large shift: u ≈ f/σ at the center.
        let sigma = 1e6;
        let u = solve_shifted(&Poisson { f: f.clone(), h }, sigma, &guess);
        let center = u.get(n / 2, n / 2);
        prop_assert!(
            (center - fval / sigma).abs() < 1e-3 * fval / sigma + 1e-12,
            "center {center} vs {}", fval / sigma
        );
    }
}
