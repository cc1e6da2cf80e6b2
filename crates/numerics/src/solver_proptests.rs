//! Property-based cross-validation of the solver family: for random
//! Dirichlet data, every solver must agree with every other, satisfy the
//! discrete maximum principle, and respect the operator's linearity.

use crate::boundary::{apply_boundary, boundary_from_fn};
use crate::{
    solve_dirichlet, solve_multigrid, solve_shifted_sor, solve_sor, sor_optimal_omega,
    MultigridOpts, Poisson,
};
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

    /// Multigrid, SOR and `solve_dirichlet` converge to the same solution.
    #[test]
    fn all_solvers_agree(a in -1.0f64..1.0, b in -0.5f64..0.5, phase in 0.0f64..3.0) {
        let n = 17;
        let h = 1.0 / (n - 1) as f64;
        let guess = grid_with_random_bc(n, a, b, phase);
        let p = Poisson::laplace(n, n, h);
        let (mg, s1) = solve_multigrid(&p, &guess, &MultigridOpts::default());
        let (sor, s2) = solve_sor(&p, &guess, sor_optimal_omega(n), 50_000, 1e-9);
        let (auto, s3) = solve_dirichlet(&p, &guess, 1e-9);
        prop_assert!(s1.converged && s2.converged && s3.converged);
        prop_assert!(mg.max_abs_diff(&sor) < 1e-6);
        prop_assert!(mg.max_abs_diff(&auto) < 1e-6);
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
        let (u, st) = solve_shifted_sor(&Poisson { f: f.clone(), h }, sigma, &guess, 1.2, 50_000, 1e-12);
        prop_assert!(st.converged);
        let center = u.get(n / 2, n / 2);
        prop_assert!(
            (center - fval / sigma).abs() < 1e-3 * fval / sigma + 1e-12,
            "center {center} vs {}", fval / sigma
        );
    }
}
