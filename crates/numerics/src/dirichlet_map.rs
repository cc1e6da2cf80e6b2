//! The exact Dirichlet map of the square 5-point Laplace grid.
//!
//! On an `m×m` grid the discrete Laplace solution is a fixed linear map of
//! the `4(m−1)` boundary values: `u_interior = H·ĝ`, with `H` the dense
//! `[(m−2)², 4(m−1)]` matrix of the discrete harmonic measure. Its weights
//! are non-negative and every row sums to 1 (the discrete maximum
//! principle); corner values feed no interior stencil, so their columns
//! are zero.
//!
//! `H` is built by separation of variables in the operator's sine
//! eigenbasis. With `N = m − 1`, data `g` on one edge and zero on the other
//! three, the solution at distance `d` from that edge and position `a`
//! along it is
//!
//! ```text
//! u(d, a) = Σ_l S[a][l] φ_l(d) Σ_b S[b][l] g_b,   S[a][l] = √(2/N) sin(π a l / N),
//! φ_l(d) = sinh(μ_l (N − d)) / sinh(μ_l N),       cosh μ_l = 1 + λ_l / 2,
//! ```
//!
//! where `λ_l = 4 sin²(π l / 2N)` is the 1-D eigenvalue: the sine modes
//! diagonalize the stencil along the edge and `φ_l` solves its three-term
//! recurrence across it exactly. Every factor is bounded by 1, so `H` is
//! exact to rounding; the four edges share one kernel by symmetry, and the
//! build costs `O(m⁴)` for every `m ≥ 3`.
//!
//! `H` holds `32·(m−2)²·(m−1)` bytes, and the build's kernel `8·(m−2)³`
//! more. The map serves subdomain sides up to about 129, where the
//! workloads' 5 and 9 build in microseconds. Measured in release on a
//! 2-vCPU x86-64 host (build time, `H`, peak RSS): m = 9 in 9 µs with
//! 10 KB; m = 33 in 1.3 ms with 1 MB; m = 65 in 15 ms with 8 MB, 13 MB
//! peak; m = 129 in 0.28 s with 66 MB, 90 MB peak. Memory grows with
//! `m³`, so m = 301 would hold 0.86 GB.

use crate::boundary::{boundary_coords, grid_with_boundary, walk_index};
use mf_tensor::Tensor;

/// The map `ĝ ↦ u_interior` of the `m×m` 5-point Laplace grid (any
/// spacing: the Laplace equation does not see `h`). See the module docs.
#[derive(Debug)]
pub struct DirichletMap {
    m: usize,
    /// `[(m−2)², 4(m−1)]`; row `(j−1)(m−2) + (i−1)` holds the weights of
    /// interior point `(row j, col i)` over the counter-clockwise walk.
    h: Tensor,
}

impl DirichletMap {
    /// The map of the `m×m` grid. Panics for `m < 3`.
    pub fn new(m: usize) -> Self {
        assert!(m >= 3, "DirichletMap: need m >= 3, got {m}");
        let (big_n, n) = (m - 1, m - 2);
        let nf = big_n as f64;
        // S[a][l] and φ_l(d), 0-based: a, l, d ∈ 0..n stand for 1..=n.
        let norm = (2.0 / nf).sqrt();
        let s: Vec<f64> = (1..=n)
            .flat_map(|a| {
                (1..=n).map(move |l| norm * (std::f64::consts::PI * (a * l) as f64 / nf).sin())
            })
            .collect();
        let mut phi = vec![0.0; n * n];
        for l in 1..=n {
            let mu = 2.0 * (std::f64::consts::PI * l as f64 / (2.0 * nf)).sin().asinh();
            // sinh(μ(N−d))/sinh(μN) = e^{−μd}·(1 − e^{−2μ(N−d)})/(1 − e^{−2μN}).
            let den = (-2.0 * mu * nf).exp_m1();
            for d in 1..=n {
                let num = (-2.0 * mu * (big_n - d) as f64).exp_m1();
                phi[(d - 1) * n + l - 1] = (-mu * d as f64).exp() * num / den;
            }
        }
        // kernel[d][a][b] = Σ_l S[a][l] φ_l(d) S[b][l]: the weight at
        // distance d, position a, of edge value b.
        let mut kernel = vec![0.0; n * n * n];
        let mut scaled = vec![0.0; n];
        for d in 0..n {
            let phi_d = &phi[d * n..(d + 1) * n];
            for a in 0..n {
                for ((o, &sa), &p) in scaled.iter_mut().zip(&s[a * n..(a + 1) * n]).zip(phi_d) {
                    *o = sa * p;
                }
                for b in 0..n {
                    kernel[(d * n + a) * n + b] = scaled
                        .iter()
                        .zip(&s[b * n..(b + 1) * n])
                        .map(|(x, y)| x * y)
                        .sum();
                }
            }
        }
        let weight = |d: usize, a: usize, b: usize| kernel[((d - 1) * n + a - 1) * n + b - 1];
        let walk = boundary_coords(m, m);
        let along = |x: usize| (1..=n).contains(&x);
        let mut h = Tensor::zeros(n * n, walk.len());
        for j in 1..=n {
            for i in 1..=n {
                let row = h.row_mut((j - 1) * n + i - 1);
                for (w, &(r, c)) in row.iter_mut().zip(&walk) {
                    *w = if r == 0 && along(c) {
                        weight(j, i, c)
                    } else if r == big_n && along(c) {
                        weight(big_n - j, i, c)
                    } else if c == 0 && along(r) {
                        weight(i, j, r)
                    } else if c == big_n && along(r) {
                        weight(big_n - i, j, r)
                    } else {
                        0.0
                    };
                }
            }
        }
        Self { m, h }
    }

    /// The weights of grid points `(row j, col i)` over the boundary walk,
    /// one row each (`[points.len(), 4(m−1)]`): `H`'s row for an interior
    /// point, the unit vector selecting its walk value for a ring point.
    pub fn rows(&self, points: &[(usize, usize)]) -> Tensor {
        let (m, n) = (self.m, self.m - 2);
        let mut out = Tensor::zeros(points.len(), self.h.cols());
        for (r, &(j, i)) in points.iter().enumerate() {
            let row = out.row_mut(r);
            match walk_index(m, m, j, i) {
                Some(k) => row[k] = 1.0,
                None => row.copy_from_slice(self.h.row((j - 1) * n + i - 1)),
            }
        }
        out
    }

    /// The full `m×m` solution grid for the boundary walk `boundary`
    /// (`1×4(m−1)`): the ring holds `ĝ`, the interior `H·ĝ`.
    pub fn solve(&self, boundary: &Tensor) -> Tensor {
        let (m, n) = (self.m, self.m - 2);
        let mut u = grid_with_boundary(m, m, boundary);
        let g = boundary.as_slice();
        for j in 1..=n {
            for i in 1..=n {
                let row = self.h.row((j - 1) * n + i - 1);
                u.set(j, i, row.iter().zip(g).map(|(w, v)| w * v).sum());
            }
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::extract_boundary;
    use crate::{can_coarsen, residual_norm, solve_dirichlet, Poisson};

    const SIZES: [usize; 7] = [3, 5, 9, 11, 17, 31, 33];

    #[test]
    fn weights_are_a_probability_measure() {
        // The discrete maximum principle: every interior value is a convex
        // combination of the boundary values.
        for m in SIZES {
            let map = DirichletMap::new(m);
            let h = &map.h;
            assert_eq!(h.shape(), ((m - 2) * (m - 2), 4 * (m - 1)));
            for r in 0..h.rows() {
                let row = h.row(r);
                let min = row.iter().copied().fold(f64::INFINITY, f64::min);
                assert!(min >= 0.0, "m {m}, row {r}: weight {min:e}");
                let sum: f64 = row.iter().sum();
                assert!(
                    (sum - 1.0).abs() <= 1e-14,
                    "m {m}, row {r}: sum 1 {:+e}",
                    sum - 1.0
                );
            }
        }
    }

    #[test]
    fn reproduces_discrete_harmonic_polynomials() {
        // The 5-point stencil is exact on each of these, so the map must
        // reproduce them from their boundary values alone.
        type Field = fn(f64, f64) -> f64;
        let fields: [(&str, Field); 5] = [
            ("1", |_, _| 1.0),
            ("x", |x, _| x),
            ("y", |_, y| y),
            ("xy", |x, y| x * y),
            ("x²−y²", |x, y| x * x - y * y),
        ];
        for m in SIZES {
            let map = DirichletMap::new(m);
            let h = 1.0 / (m - 1) as f64;
            for (name, f) in fields {
                let exact = Tensor::from_fn(m, m, |j, i| f(i as f64 * h, j as f64 * h));
                let u = map.solve(&extract_boundary(&exact));
                let err = u.max_abs_diff(&exact);
                assert!(err <= 1e-13, "m {m}, u = {name}: error {err:e}");
            }
        }
    }

    #[test]
    fn agrees_with_multigrid_on_coarsenable_sizes() {
        for m in SIZES.into_iter().filter(|&m| can_coarsen(m, m)) {
            let map = DirichletMap::new(m);
            let h = 0.5 / (m - 1) as f64;
            let walk = 4 * (m - 1);
            let g = Tensor::from_fn(1, walk, |_, k| {
                let t = k as f64 / walk as f64;
                (2.0 * std::f64::consts::PI * t).sin() + 0.3 * (10.0 * t).cos()
            });
            let problem = Poisson::laplace(m, m, h);
            let (mg, stats) = solve_dirichlet(&problem, &grid_with_boundary(m, m, &g), 1e-12);
            assert!(stats.converged, "m {m}: {stats:?}");
            let u = map.solve(&g);
            assert!(
                u.max_abs_diff(&mg) <= 1e-10,
                "m {m}: {:e}",
                u.max_abs_diff(&mg)
            );
            assert!(residual_norm(&problem, &u) <= 1e-9, "m {m}");
        }
    }

    #[test]
    fn rows_select_the_ring_and_match_the_matrix() {
        let map = DirichletMap::new(9);
        let walk = boundary_coords(9, 9);
        let rows = map.rows(&walk);
        for (k, row) in (0..walk.len()).map(|k| (k, rows.row(k))) {
            assert!(row
                .iter()
                .enumerate()
                .all(|(c, &v)| v == if c == k { 1.0 } else { 0.0 }));
        }
        assert_eq!(map.rows(&[(3, 5)]).row(0), map.h.row(2 * 7 + 4));
    }
}
