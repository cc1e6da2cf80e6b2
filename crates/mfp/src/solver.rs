//! The subdomain-solver abstraction and its two implementations.

use mf_data::SubdomainSpec;
use mf_infer::Subset;
use mf_nn::SdNet;
use mf_numerics::boundary::grid_with_boundary;
use mf_numerics::{solve_shifted_sor, DirichletMap, Poisson};
use mf_tensor::{gemm, Layout, Tensor};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The inference and launch tallies behind
/// [`SubdomainSolver::inference_count`] and
/// [`SubdomainSolver::launch_count`], held by every solver that launches
/// for itself. Relaxed: statistics that publish no other data.
#[derive(Default)]
pub(crate) struct LaunchCounter {
    inferences: AtomicUsize,
    launches: AtomicUsize,
}

impl LaunchCounter {
    /// Count one launch of `inferences` scalar inferences.
    pub(crate) fn record(&self, inferences: usize) {
        self.inferences.fetch_add(inferences, Ordering::Relaxed);
        self.launches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inferences(&self) -> usize {
        self.inferences.load(Ordering::Relaxed)
    }

    pub(crate) fn launches(&self) -> usize {
        self.launches.load(Ordering::Relaxed)
    }
}

/// Map grid-aligned query points to `(row, col)` grid indices on an
/// `m×m` subdomain with spacing `h`. Panics when a point is farther than
/// 1e-9 from a lattice site — the oracle can only sample the grid.
fn grid_aligned_indices(points: &Tensor, h: f64) -> Vec<(usize, usize)> {
    (0..points.rows())
        .map(|k| {
            let i = (points.get(k, 0) / h).round();
            let j = (points.get(k, 1) / h).round();
            assert!(
                (points.get(k, 0) - i * h).abs() < 1e-9 && (points.get(k, 1) - j * h).abs() < 1e-9,
                "OracleSolver: query point {k} is not grid-aligned"
            );
            (j as usize, i as usize)
        })
        .collect()
}

/// Anything that can solve a batch of small Dirichlet problems at a fixed
/// set of query points.
///
/// `boundaries` is `[B, 4(m−1)]` (counter-clockwise walks); `points` is a
/// single `q×2` set of local physical coordinates shared by all `B`
/// problems. The result is `[B·q, 1]` with rows grouped per boundary.
/// A launch may also ask for whatever [`Subset`] of its points each
/// boundary takes ([`SubdomainSolver::solve_batch_subset`]); a row's value
/// must not depend on the subset it is taken in, nor on the batch.
pub trait SubdomainSolver: Sync {
    /// Subdomain geometry this solver was built for.
    fn spec(&self) -> SubdomainSpec;

    /// Solve all `B` problems at the shared query points.
    fn solve_batch(&self, boundaries: &Tensor, points: &Tensor) -> Tensor;

    /// Number of scalar inferences performed so far (for the cost model).
    fn inference_count(&self) -> usize;

    /// Number of `solve_batch` calls so far — "kernel launches" in the
    /// device-occupancy model behind the Fig-8 reproduction.
    fn launch_count(&self) -> usize;

    /// Solve the shifted problem `σu − Δu = f` on each subdomain, with
    /// `forcings` holding one row-major `m·m` window per boundary. This
    /// powers the time-dependent extension (implicit-Euler heat stepping,
    /// §5.3 of the paper); the default rejects anything but the plain
    /// Laplace equation, which is all a Laplace-trained SDNet supports.
    fn solve_batch_shifted(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
    ) -> Tensor {
        assert!(
            sigma == 0.0 && forcings.is_none(),
            "this subdomain solver supports only the Laplace equation"
        );
        self.solve_batch(boundaries, points)
    }

    /// [`SubdomainSolver::solve_batch_shifted`] for only the points
    /// `subset` gives each boundary, in the subset's layout of the
    /// `[B·q, 1]` result: boundary `b`'s taken points fill the head of its
    /// `q`-row block, in order. The MFP sweeps launch through this, each
    /// subdomain taking the center-cross points no later sweep group
    /// overwrites unread. The default computes every point and compacts;
    /// a solver that can evaluate only the taken rows overrides it.
    fn solve_batch_subset(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
        subset: Subset<'_>,
    ) -> Tensor {
        let mut out = self.solve_batch_shifted(sigma, boundaries, forcings, points);
        subset.compact(out.as_mut_slice(), points.rows());
        out
    }
}

/// The original Mosaic Flow baseline of Fig. 8: forwards every call to the
/// wrapped solver **one boundary row per launch**, so an MFP run through
/// this adapter costs one inference per subdomain instead of one per sweep
/// group. Rows are independent, so the results are bitwise those of the
/// wrapped solver; only `launch_count` (and the time) differ.
pub struct UnbatchedSolver<'a, S: SubdomainSolver>(pub &'a S);

impl<S: SubdomainSolver> SubdomainSolver for UnbatchedSolver<'_, S> {
    fn spec(&self) -> SubdomainSpec {
        self.0.spec()
    }

    fn solve_batch(&self, boundaries: &Tensor, points: &Tensor) -> Tensor {
        self.solve_batch_shifted(0.0, boundaries, None, points)
    }

    fn inference_count(&self) -> usize {
        self.0.inference_count()
    }

    fn launch_count(&self) -> usize {
        self.0.launch_count()
    }

    fn solve_batch_shifted(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
    ) -> Tensor {
        let row = |t: &Tensor, r: usize| Tensor::from_vec(1, t.cols(), t.row(r).to_vec());
        let per_row: Vec<Tensor> = (0..boundaries.rows())
            .map(|r| {
                let forcing = forcings.map(|f| row(f, r));
                self.0
                    .solve_batch_shifted(sigma, &row(boundaries, r), forcing.as_ref(), points)
            })
            .collect();
        Tensor::vstack(&per_row)
    }
}

/// SDNet-backed solver (the paper's configuration).
pub struct NeuralSolver {
    net: SdNet,
    spec: SubdomainSpec,
    counter: LaunchCounter,
}

impl NeuralSolver {
    /// Wrap a trained network. The network's `boundary_len` must match the
    /// subdomain geometry.
    pub fn new(net: SdNet, spec: SubdomainSpec) -> Self {
        assert_eq!(
            net.config().boundary_len,
            spec.boundary_len(),
            "NeuralSolver: network boundary length does not match subdomain"
        );
        Self {
            net,
            spec,
            counter: LaunchCounter::default(),
        }
    }

    /// Access the wrapped network.
    pub fn net(&self) -> &SdNet {
        &self.net
    }
}

impl SubdomainSolver for NeuralSolver {
    fn spec(&self) -> SubdomainSpec {
        self.spec
    }

    fn solve_batch(&self, boundaries: &Tensor, points: &Tensor) -> Tensor {
        let b = boundaries.rows();
        let q = points.rows();
        // Tile the shared query points for every boundary in the batch.
        let mut tiled = Vec::with_capacity(b * q * 2);
        for _ in 0..b {
            tiled.extend_from_slice(points.as_slice());
        }
        let tiled = Tensor::from_vec(b * q, 2, tiled);
        self.counter.record(b * q);
        self.net.predict(boundaries, &tiled, q)
    }

    fn inference_count(&self) -> usize {
        self.counter.inferences()
    }

    fn launch_count(&self) -> usize {
        self.counter.launches()
    }
}

/// Numerical oracle: the exact discrete subdomain map, sampled at the
/// query points. With this solver the MFP becomes a classical
/// lattice-restricted alternating Schwarz method — the reference for
/// isolating distributed-algorithm behaviour from model error.
///
/// A Laplace batch is one GEMM of the boundaries against the
/// [`DirichletMap`] rows of the query points (a point on the ring selects
/// its boundary value). A shifted batch (`σ ≠ 0` or a forcing) solves each
/// subdomain with SOR to residual `tol`.
pub struct OracleSolver {
    spec: SubdomainSpec,
    tol: f64,
    map: DirichletMap,
    counter: LaunchCounter,
}

impl OracleSolver {
    /// Oracle for the given geometry. `tol` is the residual the shifted
    /// path solves to; the Laplace path is exact to rounding.
    pub fn new(spec: SubdomainSpec, tol: f64) -> Self {
        Self {
            spec,
            tol,
            map: DirichletMap::new(spec.m),
            counter: LaunchCounter::default(),
        }
    }
}

impl SubdomainSolver for OracleSolver {
    fn spec(&self) -> SubdomainSpec {
        self.spec
    }

    fn solve_batch(&self, boundaries: &Tensor, points: &Tensor) -> Tensor {
        let rows = self.map.rows(&grid_aligned_indices(points, self.spec.h()));
        let out = gemm(boundaries, Layout::Normal, &rows, Layout::Transposed);
        self.counter.record(out.numel());
        Tensor::from_vec(out.numel(), 1, out.into_vec())
    }

    fn inference_count(&self) -> usize {
        self.counter.inferences()
    }

    fn launch_count(&self) -> usize {
        self.counter.launches()
    }

    fn solve_batch_shifted(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
    ) -> Tensor {
        if sigma == 0.0 && forcings.is_none() {
            return self.solve_batch(boundaries, points);
        }
        let (m, h) = (self.spec.m, self.spec.h());
        let q = points.rows();
        let idx = grid_aligned_indices(points, h);
        let mut out = Tensor::zeros(boundaries.rows() * q, 1);
        // Each boundary owns a disjoint q-row block of the output, so the
        // grid solves run in parallel.
        out.as_mut_slice()
            .par_chunks_mut(q)
            .enumerate()
            .for_each(|(bi, chunk)| {
                let bc = Tensor::from_vec(1, boundaries.cols(), boundaries.row(bi).to_vec());
                let f = match forcings {
                    Some(fr) => Tensor::from_vec(m, m, fr.row(bi).to_vec()),
                    None => Tensor::zeros(m, m),
                };
                let problem = Poisson { f, h };
                let guess = grid_with_boundary(m, m, &bc);
                let (sol, stats) =
                    solve_shifted_sor(&problem, sigma, &guess, 1.5, 50_000, self.tol);
                // An unconverged grid is no ground truth: stop, in every build.
                assert!(stats.converged, "oracle shifted solve failed: {stats:?}");
                for (k, &(j, i)) in idx.iter().enumerate() {
                    chunk[k] = sol.get(j, i);
                }
            });
        self.counter.record(boundaries.rows() * q);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_nn::SdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }

    /// A shifted solve that cannot reach its residual panics, in release
    /// builds too, instead of returning the last SOR sweep as the answer.
    #[test]
    #[should_panic(expected = "oracle shifted solve failed")]
    fn an_unconverged_shifted_solve_panics() {
        let spec = SubdomainSpec { m: 5, spatial: 0.5 };
        let s = OracleSolver::new(spec, 0.0);
        let bc = Tensor::from_fn(1, spec.boundary_len(), |_, j| 1.0 + 0.1 * j as f64);
        let pts = Tensor::from_vec(1, 2, vec![0.25, 0.25]);
        s.solve_batch_shifted(1.0, &bc, None, &pts);
    }

    #[test]
    fn oracle_reproduces_harmonic_function() {
        let spec = spec();
        let s = OracleSolver::new(spec, 1e-10);
        // Boundary of u = x² − y² on the subdomain.
        let coords = mf_numerics::boundary::boundary_coords(spec.m, spec.m);
        let h = spec.h();
        let bvals: Vec<f64> = coords
            .iter()
            .map(|&(j, i)| {
                let (x, y) = (i as f64 * h, j as f64 * h);
                x * x - y * y
            })
            .collect();
        let bc = Tensor::from_vec(1, bvals.len(), bvals);
        let pts = Tensor::from_vec(2, 2, vec![4.0 * h, 4.0 * h, 2.0 * h, 6.0 * h]);
        let out = s.solve_batch(&bc, &pts);
        assert_eq!(out.shape(), (2, 1));
        let e0 = (4.0 * h) * (4.0 * h) - (4.0 * h) * (4.0 * h);
        let e1 = (2.0 * h) * (2.0 * h) - (6.0 * h) * (6.0 * h);
        assert!((out.get(0, 0) - e0).abs() < 1e-6);
        assert!((out.get(1, 0) - e1).abs() < 1e-6);
        // One boundary × two query points, in one launch — and the same
        // again for a shifted batch, which runs the same loop.
        assert_eq!((s.inference_count(), s.launch_count()), (2, 1));
        let shifted = s.solve_batch_shifted(1.0, &bc, None, &pts);
        assert_eq!(shifted.shape(), (2, 1));
        assert_eq!((s.inference_count(), s.launch_count()), (4, 2));
    }

    #[test]
    fn oracle_batches_independent_problems() {
        let spec = spec();
        let s = OracleSolver::new(spec, 1e-9);
        let l = spec.boundary_len();
        // Two different constant boundaries: solutions are the constants.
        let mut b = Tensor::zeros(2, l);
        for c in 0..l {
            b.set(0, c, 1.0);
            b.set(1, c, -2.0);
        }
        let h = spec.h();
        let pts = Tensor::from_vec(1, 2, vec![4.0 * h, 4.0 * h]);
        let out = s.solve_batch(&b, &pts);
        assert!((out.get(0, 0) - 1.0).abs() < 1e-7);
        assert!((out.get(1, 0) + 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "grid-aligned")]
    fn oracle_rejects_off_grid_points() {
        let spec = spec();
        let s = OracleSolver::new(spec, 1e-9);
        let b = Tensor::zeros(1, spec.boundary_len());
        let pts = Tensor::from_vec(1, 2, vec![0.1234, 0.1]);
        let _ = s.solve_batch(&b, &pts);
    }

    #[test]
    fn neural_solver_tiles_points_per_boundary() {
        let spec = spec();
        let mut cfg = SdNetConfig::small(spec.boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![8, 8];
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
        let s = NeuralSolver::new(net, spec);
        let b = Tensor::from_fn(3, spec.boundary_len(), |r, c| ((r + c) as f64 * 0.1).sin());
        let pts = Tensor::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]);
        let out = s.solve_batch(&b, &pts);
        assert_eq!(out.shape(), (6, 1));
        assert_eq!(s.inference_count(), 6);
        // Same boundary ⇒ same prediction for the same point; different
        // boundaries ⇒ (generically) different predictions.
        let single = s.solve_batch(
            &Tensor::from_vec(1, spec.boundary_len(), b.row(1).to_vec()),
            &pts,
        );
        assert!((single.get(0, 0) - out.get(2, 0)).abs() < 1e-12);
        assert!((single.get(1, 0) - out.get(3, 0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "boundary length")]
    fn neural_solver_checks_geometry() {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![];
        cfg.hidden = vec![4];
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
        let _ = NeuralSolver::new(net, spec()); // spec wants 32
    }
}
