//! The exact solve of the five-point Dirichlet problem on a rectangle.

use mf_tensor::{gemm_overwrite, Layout, Tensor};

/// The exact solver of `L + shift`, `L` the unit five-point operator (4 on
/// the diagonal, −1 per neighbour), on an `ny × nx` grid of unknowns with
/// given values around it, by a sine transform along the rows: `L = Tₓ ⊕
/// T_y` with `T` the 1-D `[−1 2 −1]`, the orthonormal DST-I `S`
/// diagonalises `Tₓ`, and what is left is one tridiagonal system in `y` per
/// sine mode, factored here once. A solve is two dense transforms (GEMMs
/// by `S`) and the substitutions — `O(nx²·ny)`, no iteration, no
/// tolerance.
///
/// It holds the problem it solves: the right-hand side (`rhs_mut`) and the
/// `(ny + 2) × (nx + 2)` grid around the unknowns, whose boundary ring
/// holds the Dirichlet values (zero until a caller writes them). A solve
/// folds the ring into the right-hand side and writes the solution into
/// the grid's interior. Its buffers are sized at construction: a solve
/// allocates nothing, and an `n × n` solver holds five `n²` arrays (the
/// grid, `S`, the pivots, the right-hand side and the transformed rows).
pub struct FivePoint {
    /// Right-hand side, `ny × nx`; a solve overwrites it.
    rhs: Tensor,
    /// The unknowns inside their Dirichlet ring.
    grid: Tensor,
    /// `S`, `nx × nx`, symmetric.
    sine: Tensor,
    /// `[j·nx + k]`: the reciprocal of pivot `j` of `T_y + λₖ + shift`.
    inv_pivot: Vec<f64>,
    /// `S`-transformed rows, `ny × nx`.
    work: Tensor,
}

impl FivePoint {
    /// The factor of `L + shift` on `ny × nx` unknowns, with a zero ring.
    /// Panics for a `shift` that is negative or not finite.
    pub fn new(ny: usize, nx: usize, shift: f64) -> Self {
        use std::f64::consts::PI;
        assert!(
            shift >= 0.0 && shift.is_finite(),
            "FivePoint: need a finite shift >= 0, got {shift}"
        );
        let n1 = nx + 1;
        let norm = (2.0 / n1 as f64).sqrt();
        // `sin(π·k·i / (nx+1))` with `k·i` reduced modulo the period first.
        let sine = Tensor::from_fn(nx, nx, |k, i| {
            let ki = (k + 1) * (i + 1) % (2 * n1);
            norm * (PI * ki as f64 / n1 as f64).sin()
        });
        let mut inv_pivot = vec![0.0; ny * nx];
        for k in 0..nx {
            // λₖ = 2 − 2cos θ, written without the cancellation.
            let half = (PI * (k + 1) as f64 / (2 * n1) as f64).sin();
            let diag = 2.0 + 4.0 * half * half + shift;
            let mut pivot = diag;
            for j in 0..ny {
                if j > 0 {
                    pivot = diag - 1.0 / pivot;
                }
                inv_pivot[j * nx + k] = 1.0 / pivot;
            }
        }
        Self {
            rhs: Tensor::zeros(ny, nx),
            grid: Tensor::zeros(ny + 2, nx + 2),
            sine,
            inv_pivot,
            work: Tensor::zeros(ny, nx),
        }
    }

    /// Unknowns, `ny·nx`.
    pub fn unknowns(&self) -> usize {
        self.rhs.numel()
    }

    /// The right-hand side, `ny × nx` row-major; a solve overwrites it.
    pub fn rhs_mut(&mut self) -> &mut [f64] {
        self.rhs.as_mut_slice()
    }

    /// The grid, row-major: the Dirichlet ring around the unknowns, which
    /// hold the last solve's solution.
    pub fn grid(&self) -> &[f64] {
        self.grid.as_slice()
    }

    /// The grid, to write the ring (the interior is overwritten by a
    /// solve).
    pub fn grid_mut(&mut self) -> &mut [f64] {
        self.grid.as_mut_slice()
    }

    /// The grid, solution and ring.
    pub fn into_grid(self) -> Tensor {
        self.grid
    }

    /// Solve `(L + shift)·c = rhs` with the ring of the grid as Dirichlet
    /// values, writing `c` into the interior of the grid.
    pub fn solve(&mut self) {
        let (ny, nx) = self.rhs.shape();
        if ny == 0 || nx == 0 {
            return;
        }
        let pad = nx + 2;
        let (r, out) = (self.rhs.as_mut_slice(), self.grid.as_mut_slice());
        // The ring's neighbours of the left, right, bottom and top unknowns.
        (0..ny).for_each(|j| r[j * nx] += out[(j + 1) * pad]);
        (0..ny).for_each(|j| r[j * nx + nx - 1] += out[(j + 1) * pad + nx + 1]);
        (0..nx).for_each(|i| r[i] += out[1 + i]);
        (0..nx).for_each(|i| r[(ny - 1) * nx + i] += out[(ny + 1) * pad + 1 + i]);
        // `S` is symmetric: each row times `S` is its sine transform.
        gemm_overwrite(
            &self.rhs,
            Layout::Normal,
            &self.sine,
            Layout::Normal,
            &mut self.work,
        );
        let (w, inv) = (self.work.as_mut_slice(), &self.inv_pivot);
        // Forward and back substitution, all modes at once.
        for j in 1..ny {
            let (done, rest) = w.split_at_mut(j * nx);
            let prev = &done[(j - 1) * nx..];
            for ((v, &p), &q) in rest[..nx].iter_mut().zip(prev).zip(&inv[(j - 1) * nx..]) {
                *v += p * q;
            }
        }
        for (v, &q) in w[(ny - 1) * nx..].iter_mut().zip(&inv[(ny - 1) * nx..]) {
            *v *= q;
        }
        for j in (0..ny - 1).rev() {
            let (head, next) = w.split_at_mut((j + 1) * nx);
            let row = &mut head[j * nx..];
            for ((v, &n), &q) in row.iter_mut().zip(&next[..nx]).zip(&inv[j * nx..]) {
                *v = (*v + n) * q;
            }
        }
        gemm_overwrite(
            &self.work,
            Layout::Normal,
            &self.sine,
            Layout::Normal,
            &mut self.rhs,
        );
        let out = self.grid.as_mut_slice();
        for (j, row) in self.rhs.as_slice().chunks_exact(nx).enumerate() {
            out[(j + 1) * pad + 1..][..nx].copy_from_slice(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// `(L + shift)·c` at every unknown of the `ny × nx` grid whose `c`
    /// sits inside `padded` (zero ring).
    fn apply_five_point(ny: usize, nx: usize, shift: f64, padded: &[f64]) -> Vec<f64> {
        let w = nx + 2;
        let at = |j: usize, i: usize| padded[j * w + i];
        (1..=ny)
            .flat_map(|j| (1..=nx).map(move |i| (j, i)))
            .map(|(j, i)| {
                (4.0 + shift) * at(j, i) - at(j - 1, i) - at(j + 1, i) - at(j, i - 1) - at(j, i + 1)
            })
            .collect()
    }

    #[test]
    fn the_solve_is_exact() {
        // The coarse grids of 2×2, 8×8 and 32×32 atoms (3², 15², 63²
        // unknowns), rectangular ones either way round, one past a GEMM
        // band (65 rows) and a single row; a smooth right-hand side (the
        // one the transform amplifies most) and noise; unshifted and
        // shifted.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for (ny, nx) in [
            (3, 3),
            (15, 15),
            (63, 63),
            (7, 15),
            (15, 7),
            (65, 9),
            (1, 5),
        ] {
            for shift in [0.0, 0.5] {
                let mut solver = FivePoint::new(ny, nx, shift);
                let smooth = vec![1.0; ny * nx];
                let noise: Vec<f64> = (0..ny * nx).map(|_| rng.gen_range(-1.0..1.0)).collect();
                for r in [smooth, noise] {
                    solver.rhs_mut().copy_from_slice(&r);
                    solver.solve();
                    let lc = apply_five_point(ny, nx, shift, solver.grid());
                    let err = lc
                        .iter()
                        .zip(&r)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    let scale = r.iter().map(|v| v.abs()).fold(0.0, f64::max);
                    assert!(
                        err <= 1e-12 * scale,
                        "{ny}x{nx}, shift {shift}: |Lc - r| = {err:e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite shift")]
    fn a_negative_shift_is_refused() {
        FivePoint::new(3, 3, -1.0);
    }
}
