//! The exact Dirichlet map of the square 5-point grid of the shifted
//! operator `σu − Δu = f`, `σ ≥ 0` (`σ = 0`: Laplace and Poisson).
//!
//! On an `m×m` grid with spacing `h` the 5-point system reads
//! `(4 + σh²)·u − Σ neighbours = h²f` at every interior point, so the
//! operator sees `σ` and `h` only as `σh²`, the one number a map is built
//! for. Its solution is a fixed affine map of the `4(m−1)` boundary values
//! and the interior forcing:
//!
//! ```text
//! u_interior = H_σ·ĝ + G_σ·(h²f),
//! ```
//!
//! with `H_σ` the dense `[(m−2)², 4(m−1)]` boundary map and `G_σ` the
//! inverse of the interior operator. The weights of `H_σ` are non-negative
//! and every row sums to at most 1; at `σ = 0`, `H_0` is the discrete
//! harmonic measure and every row sums to exactly 1 (the discrete maximum
//! principle). Corner values feed no interior stencil, so their columns
//! are zero.
//!
//! Both are built by separation of variables in the operator's sine
//! eigenbasis. With `N = m − 1`, data `g` on one edge and zero on the other
//! three, the solution at distance `d` from that edge and position `a`
//! along it is
//!
//! ```text
//! u(d, a) = Σ_l S[a][l] φ_l(d) Σ_b S[b][l] g_b,   S[a][l] = √(2/N) sin(π a l / N),
//! φ_l(d) = sinh(μ_l (N − d)) / sinh(μ_l N),       cosh μ_l = 1 + (λ_l + σh²) / 2,
//! ```
//!
//! that is `μ_l = 2·asinh(√(sin²(πl/2N) + σh²/4))`, where
//! `λ_l = 4 sin²(π l / 2N)` is the 1-D eigenvalue: the sine modes
//! diagonalize the stencil along the edge and `φ_l` solves its three-term
//! recurrence across it exactly. Every factor is bounded by 1, so `H_σ` is
//! exact to rounding; the four edges share one kernel by symmetry, and the
//! build costs `O(m⁴)` for every `m ≥ 3`. At `σh² = 0`, `√(s²)` is `s` in
//! IEEE arithmetic, so `μ_l` is exactly `2·asinh(sin(πl/2N))`.
//!
//! `S`, the orthonormal `(m−2)`-point DST-I, is symmetric and its own
//! inverse, and it diagonalizes the interior operator in both directions:
//!
//! ```text
//! G_σ = (S⊗S)·diag(1 / (λ_p + λ_q + σh²))·(S⊗S).
//! ```
//!
//! A dense `G_σ` would hold `8·(m−2)⁴` bytes (2 GB at m = 129), so the map
//! keeps only `S` and the spectrum. [`DirichletMap::forcing_solution`]
//! forms `G_σ`'s rows at the query points one grid row at a time and
//! applies them as it goes: `2q·(m−2)³ + Bq·(m−2)²` multiply-adds for `B`
//! forcings at `q` points, in buffers of `max(B, q)·(m−2)` values.
//!
//! `H_σ` holds `32·(m−2)²·(m−1)` bytes, `S` and the spectrum
//! `16·(m−2)²` more, and the build's kernel `8·(m−2)³` while it runs. The
//! map serves subdomain sides up to about 129, where the workloads' 5 and 9
//! build in microseconds. Measured for `σ = 0` in release on a 2-vCPU
//! x86-64 host (build time, `H`, peak RSS): m = 9 in 9 µs with 10 KB;
//! m = 33 in 1.3 ms with 1 MB; m = 65 in 15 ms with 8 MB, 13 MB peak;
//! m = 129 in 0.28 s with 66 MB, 90 MB peak. Memory grows with `m³`, so
//! m = 301 would hold 0.86 GB.

use crate::boundary::{boundary_coords, grid_with_boundary, walk_index};
use mf_tensor::{gemm, gemm_into, Layout, Tensor};

/// The map `(ĝ, h²f) ↦ u_interior` of the `m×m` 5-point grid of
/// `σu − Δu = f`, for one `σh²`. See the module docs.
#[derive(Debug)]
pub struct DirichletMap {
    m: usize,
    /// `H_σ`, `[(m−2)², 4(m−1)]`; row `(j−1)(m−2) + (i−1)` holds the
    /// weights of interior point `(row j, col i)` over the
    /// counter-clockwise walk.
    h: Tensor,
    /// `S`, `[m−2, m−2]`.
    s: Tensor,
    /// `[m−2, m−2]`: `1 / (λ_p + λ_q + σh²)`, the spectrum of `G_σ`.
    inv_eig: Tensor,
}

impl DirichletMap {
    /// The map of the `m×m` grid for `sigma_h2 = σh²` (0 for Laplace).
    /// Panics for `m < 3` and for a `sigma_h2` that is negative or not
    /// finite.
    pub fn new(m: usize, sigma_h2: f64) -> Self {
        assert!(m >= 3, "DirichletMap: need m >= 3, got {m}");
        assert!(
            sigma_h2 >= 0.0 && sigma_h2.is_finite(),
            "DirichletMap: need a finite σh² >= 0, got {sigma_h2}"
        );
        let (big_n, n) = (m - 1, m - 2);
        let nf = big_n as f64;
        // S[a][l], sin(πl/2N) and φ_l(d), 0-based: a, l, d ∈ 0..n stand for 1..=n.
        let norm = (2.0 / nf).sqrt();
        let s = Tensor::from_fn(n, n, |a, l| {
            norm * (std::f64::consts::PI * ((a + 1) * (l + 1)) as f64 / nf).sin()
        });
        let half: Vec<f64> = (1..=n)
            .map(|l| (std::f64::consts::PI * l as f64 / (2.0 * nf)).sin())
            .collect();
        let mut phi = vec![0.0; n * n];
        for (l, &sl) in half.iter().enumerate() {
            let mu = 2.0 * (sl * sl + sigma_h2 / 4.0).sqrt().asinh();
            // sinh(μ(N−d))/sinh(μN) = e^{−μd}·(1 − e^{−2μ(N−d)})/(1 − e^{−2μN}).
            let den = (-2.0 * mu * nf).exp_m1();
            for d in 1..=n {
                let num = (-2.0 * mu * (big_n - d) as f64).exp_m1();
                phi[(d - 1) * n + l] = (-mu * d as f64).exp() * num / den;
            }
        }
        // kernel[d][a][b] = Σ_l S[a][l] φ_l(d) S[b][l]: the weight at
        // distance d, position a, of edge value b. Every weight is
        // positive, but far along the edge of a strongly shifted map it
        // falls below the sum's rounding (±2e-17 at σh² = 10): a negative
        // sum is that rounding, and reads 0.
        let mut kernel = vec![0.0; n * n * n];
        let mut scaled = vec![0.0; n];
        for d in 0..n {
            let phi_d = &phi[d * n..(d + 1) * n];
            for a in 0..n {
                for ((o, &sa), &p) in scaled.iter_mut().zip(s.row(a)).zip(phi_d) {
                    *o = sa * p;
                }
                for b in 0..n {
                    let w: f64 = scaled.iter().zip(s.row(b)).map(|(x, y)| x * y).sum();
                    kernel[(d * n + a) * n + b] = if w < 0.0 { 0.0 } else { w };
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
        let inv_eig = Tensor::from_fn(n, n, |p, q| {
            1.0 / (4.0 * half[p] * half[p] + 4.0 * half[q] * half[q] + sigma_h2)
        });
        Self { m, h, s, inv_eig }
    }

    /// The weights of grid points `(row j, col i)` over the boundary walk,
    /// one row each (`[points.len(), 4(m−1)]`): `H_σ`'s row for an
    /// interior point, the unit vector selecting its walk value for a ring
    /// point.
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

    /// `forcings·G_σᵀ(points)`, `[B, points.len()]`: for each row-major
    /// `m×m` forcing window `f` of `forcings` (`[B, m²]`, ring values
    /// ignored), `G_σ·f` at grid points `(row j, col i)`. Times `h²`, that
    /// is the zero-boundary solution there; it is 0 at a ring point.
    ///
    /// Runs one grid row `r` of `G_σ`'s rows at a time, so no buffer grows
    /// past `[max(B, q), m−2]`: the row-`r` entries of point `k`'s row are
    /// `(S[r] ⊙ S[j_k])·D·diag(S[i_k])·S`, with `D` the spectrum.
    pub fn forcing_solution(&self, forcings: &Tensor, points: &[(usize, usize)]) -> Tensor {
        let (m, n, q) = (self.m, self.m - 2, points.len());
        assert_eq!(forcings.cols(), m * m, "forcings must be m·m windows");
        // S[j_k] and S[i_k]; zero rows for ring points.
        let basis = |axis: fn(&(usize, usize)) -> usize| {
            let mut out = Tensor::zeros(q, n);
            for (k, pt) in points.iter().enumerate() {
                if walk_index(m, m, pt.0, pt.1).is_none() {
                    out.row_mut(k).copy_from_slice(self.s.row(axis(pt) - 1));
                }
            }
            out
        };
        let (s_j, s_i) = (basis(|pt| pt.0), basis(|pt| pt.1));
        let mut out = Tensor::zeros(forcings.rows(), q);
        let mut f_r = Tensor::zeros(forcings.rows(), n);
        for r in 0..n {
            let s_r = self.s.row(r);
            let a = Tensor::from_fn(q, n, |k, p| s_r[p] * s_j.get(k, p));
            let modes = gemm(&a, Layout::Normal, &self.inv_eig, Layout::Normal).mul(&s_i);
            let g_r = gemm(&modes, Layout::Normal, &self.s, Layout::Normal);
            let at = (r + 1) * m + 1;
            for b in 0..forcings.rows() {
                f_r.row_mut(b).copy_from_slice(&forcings.row(b)[at..at + n]);
            }
            gemm_into(&f_r, Layout::Normal, &g_r, Layout::Transposed, &mut out);
        }
        out
    }

    /// The full `m×m` solution grid for the boundary walk `boundary`
    /// (`1×4(m−1)`) and zero forcing: the ring holds `ĝ`, the interior
    /// `H_σ·ĝ`.
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
    use crate::{residual_norm, solve_dirichlet, solve_shifted, Poisson};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const SIZES: [usize; 7] = [3, 5, 9, 11, 17, 31, 33];
    const SHIFTS: [f64; 4] = [0.0, 1e-3, 1.0, 10.0];

    #[test]
    fn weights_are_a_sub_probability_measure() {
        // The discrete maximum principle: every interior value is a convex
        // combination of the boundary values at σ = 0, and the shift only
        // damps it.
        for m in SIZES {
            for sigma_h2 in SHIFTS {
                let map = DirichletMap::new(m, sigma_h2);
                let h = &map.h;
                assert_eq!(h.shape(), ((m - 2) * (m - 2), 4 * (m - 1)));
                for r in 0..h.rows() {
                    let row = h.row(r);
                    let min = row.iter().copied().fold(f64::INFINITY, f64::min);
                    assert!(min >= 0.0, "m {m}, σh² {sigma_h2}, row {r}: weight {min:e}");
                    let sum: f64 = row.iter().sum();
                    let excess = if sigma_h2 == 0.0 {
                        (sum - 1.0).abs()
                    } else {
                        sum - 1.0
                    };
                    assert!(
                        excess <= 1e-14,
                        "m {m}, σh² {sigma_h2}, row {r}: sum 1 {:+e}",
                        sum - 1.0
                    );
                }
            }
        }
    }

    #[test]
    fn map_and_forcing_solution_agree_with_the_exact_shifted_solve() {
        let mut rng = ChaCha8Rng::seed_from_u64(46);
        for m in [9, 17, 33] {
            let all: Vec<_> = (0..m).flat_map(|j| (0..m).map(move |i| (j, i))).collect();
            for sigma_h2 in SHIFTS {
                let map = DirichletMap::new(m, sigma_h2);
                let g = Tensor::from_fn(1, 4 * (m - 1), |_, _| rng.gen_range(-1.0..1.0));
                let f = Tensor::from_fn(m, m, |_, _| rng.gen_range(-1.0..1.0));
                // At h = 1, σ is σh² and h²f is f.
                let problem = Poisson {
                    f: f.clone(),
                    h: 1.0,
                };
                let exact = solve_shifted(&problem, sigma_h2, &grid_with_boundary(m, m, &g));
                // The reference satisfies its stencil to rounding.
                let gap = (1..m - 1)
                    .flat_map(|j| (1..m - 1).map(move |i| (j, i)))
                    .map(|(j, i)| {
                        let nbrs = exact.get(j, i - 1)
                            + exact.get(j, i + 1)
                            + exact.get(j - 1, i)
                            + exact.get(j + 1, i);
                        ((4.0 + sigma_h2) * exact.get(j, i) - nbrs - f.get(j, i)).abs()
                    })
                    .fold(0.0, f64::max);
                assert!(gap <= 1e-13, "m {m}, σh² {sigma_h2}: stencil gap {gap:e}");
                let mut u = gemm(&g, Layout::Normal, &map.rows(&all), Layout::Transposed);
                u.axpy(
                    1.0,
                    &map.forcing_solution(&Tensor::from_vec(1, m * m, f.into_vec()), &all),
                );
                let err = Tensor::from_vec(m, m, u.into_vec()).max_abs_diff(&exact);
                assert!(err <= 1e-10, "m {m}, σh² {sigma_h2}: error {err:e}");
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
            let map = DirichletMap::new(m, 0.0);
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
    fn agrees_with_the_exact_solve() {
        for m in SIZES {
            let map = DirichletMap::new(m, 0.0);
            let h = 0.5 / (m - 1) as f64;
            let walk = 4 * (m - 1);
            let g = Tensor::from_fn(1, walk, |_, k| {
                let t = k as f64 / walk as f64;
                (2.0 * std::f64::consts::PI * t).sin() + 0.3 * (10.0 * t).cos()
            });
            let problem = Poisson::laplace(m, m, h);
            let (exact, stats) = solve_dirichlet(&problem, &grid_with_boundary(m, m, &g), 1e-12);
            assert!(stats.converged, "m {m}: {stats:?}");
            assert!(residual_norm(&problem, &exact) * h * h <= 1e-14, "m {m}");
            let u = map.solve(&g);
            assert!(
                u.max_abs_diff(&exact) <= 1e-10,
                "m {m}: {:e}",
                u.max_abs_diff(&exact)
            );
            assert!(residual_norm(&problem, &u) <= 1e-9, "m {m}");
        }
    }

    #[test]
    fn rows_select_the_ring_and_match_the_matrix() {
        let map = DirichletMap::new(9, 1.0);
        let walk = boundary_coords(9, 9);
        let rows = map.rows(&walk);
        for (k, row) in (0..walk.len()).map(|k| (k, rows.row(k))) {
            assert!(row
                .iter()
                .enumerate()
                .all(|(c, &v)| v == if c == k { 1.0 } else { 0.0 }));
        }
        let f = Tensor::from_fn(2, 81, |b, k| (b + k) as f64);
        let forced = map.forcing_solution(&f, &walk);
        assert!(forced.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(map.rows(&[(3, 5)]).row(0), map.h.row(2 * 7 + 4));
    }
}
