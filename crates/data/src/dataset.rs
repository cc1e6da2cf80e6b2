//! Sample generation: GP boundaries mapped to their exact Laplace solutions.

use mf_gp::BoundarySampler;
use mf_numerics::DirichletMap;
use mf_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Geometry of the training subdomain.
///
/// The paper trains on a `0.5×0.5` spatial domain at `32×32` resolution.
/// Ground truth comes from the exact [`DirichletMap`], which takes any
/// `m ≥ 3`; the repository's defaults use `m = 9`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubdomainSpec {
    /// Grid points per side.
    pub m: usize,
    /// Physical edge length.
    pub spatial: f64,
}

impl SubdomainSpec {
    /// Grid spacing.
    pub fn h(&self) -> f64 {
        self.spatial / (self.m - 1) as f64
    }

    /// Length of the boundary walk, `4(m−1)`.
    pub fn boundary_len(&self) -> usize {
        4 * (self.m - 1)
    }

    /// Local coordinates `(x, y)` of grid point `(row j, col i)`.
    pub fn coords(&self, j: usize, i: usize) -> (f64, f64) {
        (i as f64 * self.h(), j as f64 * self.h())
    }
}

/// One solved boundary value problem.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Discretized boundary condition, `1×4(m−1)` (counter-clockwise walk).
    pub boundary: Tensor,
    /// Numerical solution on the full `m×m` grid.
    pub solution: Tensor,
}

/// A set of solved BVPs on a fixed subdomain geometry.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Subdomain geometry shared by all samples.
    pub spec: SubdomainSpec,
    /// Solved samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Generate `count` samples: GP boundary curves (Sobol-swept
    /// hyperparameters, periodic kernel), each interior filled with the
    /// exact discrete Laplace solution `H·ĝ` of [`DirichletMap`].
    /// Deterministic in `seed`.
    pub fn generate(spec: SubdomainSpec, count: usize, seed: u64) -> Self {
        Self::generate_with(spec, count, seed, (0.3, 0.9), (0.4, 1.2))
    }

    /// [`Dataset::generate`] with explicit GP hyperparameter ranges
    /// (length scale and signal variance of the periodic kernel). Shorter
    /// length scales produce rougher boundary curves and a harder
    /// learning problem.
    pub fn generate_with(
        spec: SubdomainSpec,
        count: usize,
        seed: u64,
        lengthscale_range: (f64, f64),
        variance_range: (f64, f64),
    ) -> Self {
        let mut sampler =
            BoundarySampler::new(spec.boundary_len(), lengthscale_range, variance_range, true);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Draw sequentially what consumes randomness (the Sobol sweep and
        // the rng are stateful), then realize each curve and map it in
        // parallel: the same bits as a sequential `sample` stream.
        let draws: Vec<_> = (0..count).map(|_| sampler.draw(&mut rng)).collect();
        let map = DirichletMap::new(spec.m, 0.0);
        let (sampler, map) = (&sampler, &map);
        let samples: Vec<Sample> = draws
            .into_par_iter()
            .map(|(kernel, z)| {
                let boundary = sampler.realize(&kernel, &z);
                let solution = map.solve(&boundary);
                Sample { boundary, solution }
            })
            .collect();
        Self { spec, samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Split into train/validation by fraction (train gets the first
    /// `frac` of samples; generation order is already Sobol-shuffled in
    /// hyperparameter space).
    pub fn split(self, train_frac: f64) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&train_frac),
            "train_frac must be in [0,1]"
        );
        let n_train = (self.samples.len() as f64 * train_frac).round() as usize;
        let mut train = self.samples;
        let val = train.split_off(n_train.min(train.len()));
        (
            Dataset {
                spec: self.spec,
                samples: train,
            },
            Dataset {
                spec: self.spec,
                samples: val,
            },
        )
    }

    /// The shard of this dataset owned by `rank` out of `world` (strided,
    /// like PyTorch's DistributedSampler).
    pub fn shard(&self, rank: usize, world: usize) -> Dataset {
        assert!(rank < world, "shard: rank {rank} out of {world}");
        Dataset {
            spec: self.spec,
            samples: self
                .samples
                .iter()
                .skip(rank)
                .step_by(world)
                .cloned()
                .collect(),
        }
    }
}

/// Stack all boundary rows of a dataset into a `[len × 4(m−1)]` matrix.
pub(crate) fn stack_boundaries(ds: &Dataset, idx: &[usize]) -> Tensor {
    let rows: Vec<Tensor> = idx
        .iter()
        .map(|&i| ds.samples[i].boundary.clone())
        .collect();
    Tensor::vstack(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_numerics::boundary::{extract_boundary, grid_with_boundary};
    use mf_numerics::{residual_norm, solve_dirichlet, Poisson};

    #[test]
    fn spec_geometry() {
        let s = SubdomainSpec {
            m: 17,
            spatial: 0.5,
        };
        assert!((s.h() - 0.03125).abs() < 1e-15);
        assert_eq!(s.boundary_len(), 64);
        assert_eq!(s.coords(0, 16), (0.5, 0.0));
        assert_eq!(s.coords(16, 0), (0.0, 0.5));
    }

    #[test]
    fn generated_samples_solve_the_laplace_equation() {
        let spec = SubdomainSpec {
            m: 17,
            spatial: 0.5,
        };
        let ds = Dataset::generate(spec, 3, 42);
        assert_eq!(ds.len(), 3);
        for s in &ds.samples {
            let p = Poisson::laplace(spec.m, spec.m, spec.h());
            assert!(
                residual_norm(&p, &s.solution) < 1e-6,
                "sample residual too large"
            );
            // Solution ring must match the boundary vector.
            let b = extract_boundary(&s.solution);
            assert!(b.allclose(&s.boundary, 1e-12));
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let a = Dataset::generate(spec, 2, 7);
        let b = Dataset::generate(spec, 2, 7);
        assert!(a.samples[1].boundary.allclose(&b.samples[1].boundary, 0.0));
        let c = Dataset::generate(spec, 2, 8);
        assert!(a.samples[0].boundary.max_abs_diff(&c.samples[0].boundary) > 1e-6);
    }

    #[test]
    fn generated_solutions_are_exact() {
        // The map's solution leaves a residual at rounding level, where the
        // multigrid ground truth it replaced stopped at 1e-9, and it is
        // that multigrid solution to within the solver's tolerance.
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 16, 5);
        let problem = Poisson::laplace(spec.m, spec.m, spec.h());
        for (i, s) in ds.samples.iter().enumerate() {
            let residual = residual_norm(&problem, &s.solution);
            assert!(
                residual <= 1e-11 * s.solution.norm_linf(),
                "sample {i}: residual {residual:e}"
            );
            let guess = grid_with_boundary(spec.m, spec.m, &s.boundary);
            let (mg, stats) = solve_dirichlet(&problem, &guess, 1e-9);
            assert!(stats.converged, "sample {i}: {stats:?}");
            let gap = s.solution.max_abs_diff(&mg);
            assert!(gap <= 1e-10, "sample {i}: {gap:e} from solve_dirichlet");
        }
    }

    #[test]
    fn parallel_generation_is_bitwise_the_sequential_stream() {
        // `generate` realizes and maps in parallel what it drew in order;
        // at every pool width each sample must be the one a sequential
        // `sample` stream plus `DirichletMap::solve` produces.
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let (count, seed) = (7, 3);
        let mut sampler = BoundarySampler::new(spec.boundary_len(), (0.3, 0.9), (0.4, 1.2), true);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let map = DirichletMap::new(spec.m, 0.0);
        let expect: Vec<(Tensor, Tensor)> = (0..count)
            .map(|_| {
                let boundary = sampler.sample(&mut rng);
                let solution = map.solve(&boundary);
                (boundary, solution)
            })
            .collect();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for width in [1, 2, 4] {
            let ds = rayon::with_pool_width(width, || Dataset::generate(spec, count, seed));
            assert_eq!(ds.len(), count);
            for (i, (s, (boundary, solution))) in ds.samples.iter().zip(&expect).enumerate() {
                assert_eq!(
                    bits(&s.boundary),
                    bits(boundary),
                    "width {width}, boundary {i}"
                );
                assert_eq!(
                    bits(&s.solution),
                    bits(solution),
                    "width {width}, solution {i}"
                );
            }
        }
    }

    #[test]
    fn split_partitions_samples() {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 10, 1);
        let (train, val) = ds.split(0.9);
        assert_eq!(train.len(), 9);
        assert_eq!(val.len(), 1);
    }

    #[test]
    fn shards_are_disjoint_and_cover() {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 7, 2);
        let world = 3;
        let mut total = 0;
        for rank in 0..world {
            total += ds.shard(rank, world).len();
        }
        assert_eq!(total, 7);
        // Strided: rank 0 gets samples 0, 3, 6.
        let s0 = ds.shard(0, world);
        assert!(s0.samples[1]
            .boundary
            .allclose(&ds.samples[3].boundary, 0.0));
    }
}
