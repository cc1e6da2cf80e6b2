//! The subdomain-solver abstraction, the numerical oracle and the
//! one-launch-per-subdomain adapter of Fig. 8.

use mf_data::SubdomainSpec;
use mf_infer::Subset;
use mf_numerics::DirichletMap;
use mf_tensor::{gemm, Layout, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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
/// A solver has one launch, [`SubdomainSolver::solve_batch_subset`], which
/// also names the [`Subset`] of its points each boundary takes; a row's
/// value must not depend on the subset it is taken in, nor on the batch.
pub trait SubdomainSolver: Sync {
    /// Subdomain geometry this solver was built for.
    fn spec(&self) -> SubdomainSpec;

    /// Solve the shifted problem `σu − Δu = f` on each subdomain for only
    /// the points `subset` gives each boundary, in the subset's layout of
    /// the `[B·q, 1]` result: boundary `b`'s taken points fill the head of
    /// its `q`-row block, in order. `forcings` holds one row-major `m·m`
    /// window per boundary. `σ ≠ 0` or a forcing powers the time-dependent
    /// extension (implicit-Euler heat stepping, §5.3 of the paper): the
    /// oracle solves any `σ ≥ 0` and forcing exactly, while a
    /// Laplace-trained SDNet supports only `σ = 0` without forcing. The
    /// MFP sweeps launch through this, each subdomain taking the
    /// center-cross points no later sweep group overwrites unread.
    fn solve_batch_subset(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
        subset: Subset<'_>,
    ) -> Tensor;

    /// Solve all `B` Laplace problems at every shared query point.
    fn solve_batch(&self, boundaries: &Tensor, points: &Tensor) -> Tensor {
        self.solve_batch_subset(0.0, boundaries, None, points, Subset::All)
    }

    /// Number of scalar inferences performed so far (for the cost model).
    fn inference_count(&self) -> usize;

    /// Number of launches so far — "kernel launches" in the
    /// device-occupancy model behind the Fig-8 reproduction.
    fn launch_count(&self) -> usize;
}

/// The original Mosaic Flow baseline of Fig. 8: forwards every call to the
/// wrapped solver **one boundary row per launch**, each row with its own
/// subset, so an MFP run through this adapter costs one inference per
/// subdomain instead of one per sweep group. Rows are independent, so the
/// results and the points taken are bitwise those of the wrapped solver;
/// only `launch_count` (and the time) differ.
pub struct UnbatchedSolver<'a, S: SubdomainSolver>(pub &'a S);

impl<S: SubdomainSolver> SubdomainSolver for UnbatchedSolver<'_, S> {
    fn spec(&self) -> SubdomainSpec {
        self.0.spec()
    }

    fn solve_batch_subset(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
        subset: Subset<'_>,
    ) -> Tensor {
        let row = |t: &Tensor, r: usize| Tensor::from_vec(1, t.cols(), t.row(r).to_vec());
        let per_row: Vec<Tensor> = (0..boundaries.rows())
            .map(|r| {
                let forcing = forcings.map(|f| row(f, r));
                let own = match subset {
                    Subset::All => Subset::All,
                    Subset::Cycle(sets) => {
                        Subset::Cycle(std::slice::from_ref(&sets[r % sets.len()]))
                    }
                };
                self.0
                    .solve_batch_subset(sigma, &row(boundaries, r), forcing.as_ref(), points, own)
            })
            .collect();
        Tensor::vstack(&per_row)
    }

    fn inference_count(&self) -> usize {
        self.0.inference_count()
    }

    fn launch_count(&self) -> usize {
        self.0.launch_count()
    }
}

/// Numerical oracle: the exact discrete subdomain map, sampled at the
/// query points. With this solver the MFP becomes a classical
/// lattice-restricted alternating Schwarz method — the reference for
/// isolating distributed-algorithm behaviour from model error.
///
/// Every launch, at any `σ ≥ 0`, is one GEMM of the boundaries against the
/// [`DirichletMap`] rows of the query points (a point on the ring selects
/// its boundary value), plus, given a forcing, the map's
/// [`DirichletMap::forcing_solution`] at those points. Both are exact to
/// rounding: no subdomain solve iterates. It computes every point, then
/// compacts to the subset. The `σ = 0` map is built with the solver; the
/// map of another `σ` on its first launch, and kept for the solver's
/// lifetime (an implicit-Euler run uses one `σ`).
pub struct OracleSolver {
    spec: SubdomainSpec,
    map: DirichletMap,
    /// The maps of `σ > 0`, keyed by the bits of `σ`.
    shifted: Mutex<HashMap<u64, Arc<DirichletMap>>>,
    counter: LaunchCounter,
}

impl OracleSolver {
    /// Oracle for the given geometry. `_tol` is unused, since every launch
    /// is exact; the parameter stays so that existing callers build.
    pub fn new(spec: SubdomainSpec, _tol: f64) -> Self {
        Self {
            spec,
            map: DirichletMap::new(spec.m, 0.0),
            shifted: Mutex::default(),
            counter: LaunchCounter::default(),
        }
    }

    /// The map of `σ > 0`, built on first use.
    fn shifted_map(&self, sigma: f64) -> Arc<DirichletMap> {
        let h = self.spec.h();
        // A build that panics (a negative σ) inserts nothing, so a
        // poisoned map is still whole.
        let mut maps = self.shifted.lock().unwrap_or_else(PoisonError::into_inner);
        let map = maps
            .entry(sigma.to_bits())
            .or_insert_with(|| Arc::new(DirichletMap::new(self.spec.m, sigma * h * h)));
        Arc::clone(map)
    }
}

impl SubdomainSolver for OracleSolver {
    fn spec(&self) -> SubdomainSpec {
        self.spec
    }

    fn solve_batch_subset(
        &self,
        sigma: f64,
        boundaries: &Tensor,
        forcings: Option<&Tensor>,
        points: &Tensor,
        subset: Subset<'_>,
    ) -> Tensor {
        let h = self.spec.h();
        let q = points.rows();
        let idx = grid_aligned_indices(points, h);
        let shifted = (sigma != 0.0).then(|| self.shifted_map(sigma));
        let map = shifted.as_deref().unwrap_or(&self.map);
        let rows = map.rows(&idx);
        let mut out = gemm(boundaries, Layout::Normal, &rows, Layout::Transposed);
        if let Some(f) = forcings {
            out.axpy(h * h, &map.forcing_solution(f, &idx));
        }
        let mut out = Tensor::from_vec(out.numel(), 1, out.into_vec());
        self.counter.record(out.numel());
        subset.compact(out.as_mut_slice(), q);
        out
    }

    fn inference_count(&self) -> usize {
        self.counter.inferences()
    }

    fn launch_count(&self) -> usize {
        self.counter.launches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainSpec, Mfp, MfpConfig, PlanSolver};
    use mf_nn::{SdNet, SdNetConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
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
        // again for a shifted batch, which runs the same GEMM.
        assert_eq!((s.inference_count(), s.launch_count()), (2, 1));
        let shifted = s.solve_batch_subset(1.0, &bc, None, &pts, Subset::All);
        assert_eq!(shifted.shape(), (2, 1));
        assert_eq!((s.inference_count(), s.launch_count()), (4, 2));
    }

    /// A shifted, forced batch is the per-subdomain grid solve at every
    /// point, a ring point included, in one launch, and a subset takes its
    /// values unchanged.
    #[test]
    fn shifted_forced_batches_match_the_exact_per_subdomain_solve() {
        use mf_numerics::boundary::grid_with_boundary;
        use mf_numerics::{solve_shifted, Poisson};
        let spec = spec();
        let (m, h, sigma) = (spec.m, spec.h(), 50.0);
        let s = OracleSolver::new(spec, 1e-9);
        let bc = Tensor::from_fn(2, spec.boundary_len(), |b, k| {
            ((3 * b + k) as f64 * 0.7).sin()
        });
        let f = Tensor::from_fn(2, m * m, |b, k| ((5 * b + k) as f64 * 0.3).cos() * 20.0);
        let idx = [(4, 4), (2, 6), (0, 3), (7, 1)];
        let pts = Tensor::from_fn(idx.len(), 2, |k, c| h * [idx[k].1, idx[k].0][c] as f64);
        let out = s.solve_batch_subset(sigma, &bc, Some(&f), &pts, Subset::All);
        assert_eq!((s.inference_count(), s.launch_count()), (8, 1));
        for b in 0..2 {
            let bc_b = Tensor::from_vec(1, bc.cols(), bc.row(b).to_vec());
            let problem = Poisson {
                f: Tensor::from_vec(m, m, f.row(b).to_vec()),
                h,
            };
            let exact = solve_shifted(&problem, sigma, &grid_with_boundary(m, m, &bc_b));
            // The reference satisfies `(4 + σh²)·u − Σ neighbours = h²f`
            // to rounding at every interior point.
            let u = |j: usize, i: usize| exact.get(j, i);
            for (j, i) in (1..m - 1).flat_map(|j| (1..m - 1).map(move |i| (j, i))) {
                let nbrs = u(j, i - 1) + u(j, i + 1) + u(j - 1, i) + u(j + 1, i);
                let rhs = h * h * problem.f.get(j, i);
                let gap = (4.0 + sigma * h * h) * u(j, i) - nbrs - rhs;
                assert!(gap.abs() <= 1e-13, "boundary {b}, ({j}, {i}): gap {gap:e}");
            }
            for (k, &(j, i)) in idx.iter().enumerate() {
                let err = (out.get(b * idx.len() + k, 0) - exact.get(j, i)).abs();
                assert!(err <= 1e-10, "boundary {b}, point {k}: {err:e}");
            }
        }
        let picked = [vec![1, 3], vec![0]];
        let sub = s.solve_batch_subset(sigma, &bc, Some(&f), &pts, Subset::Cycle(&picked));
        for (b, taken) in picked.iter().enumerate() {
            for (r, &k) in taken.iter().enumerate() {
                let (x, y) = (sub.get(b * idx.len() + r, 0), out.get(b * idx.len() + k, 0));
                assert_eq!(x.to_bits(), y.to_bits(), "boundary {b}, point {k}");
            }
        }
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

    /// Around the compiled plan, the one-launch-per-subdomain adapter
    /// takes each row's own subset: the same grid, the same points, one
    /// launch per subdomain per iteration plus one per atom.
    #[test]
    fn unbatched_adapter_takes_the_points_its_solver_takes() {
        let mut cfg = SdNetConfig::small(spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![8, 8];
        let plan = PlanSolver::new(SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(3)), spec());
        let d = DomainSpec::new(spec(), 3, 2);
        let bc = Tensor::from_fn(1, d.boundary_len(), |_, k| (0.3 * k as f64).sin());
        let cfg = MfpConfig {
            max_iters: 4,
            tol: 0.0,
            ..Default::default()
        };
        let counted = |run: &dyn Fn() -> crate::MfpResult| {
            let (l0, p0) = (plan.launch_count(), plan.inference_count());
            let r = run();
            (r, plan.launch_count() - l0, plan.inference_count() - p0)
        };
        let (rb, _, pb) = counted(&|| Mfp::new(&plan, d).run(&bc, &cfg));
        let (ru, lu, pu) = counted(&|| Mfp::new(&UnbatchedSolver(&plan), d).run(&bc, &cfg));
        assert_eq!(rb.iterations, ru.iterations);
        for (k, (x, y)) in rb
            .grid
            .as_slice()
            .iter()
            .zip(ru.grid.as_slice())
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "cell {k}: {x} vs {y}");
        }
        assert_eq!(pb, pu, "points taken batched vs unbatched");
        assert_eq!(
            lu,
            d.subdomains().len() * ru.iterations + d.atomic_subdomains().len()
        );
    }
}
