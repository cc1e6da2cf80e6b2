//! Drawing boundary curves from Gaussian processes.

use crate::{cholesky, kernel_matrix, Kernel1d, Sobol};
use mf_tensor::Tensor;
use rand::Rng;

/// One standard-normal draw via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A zero-mean Gaussian process discretized on a fixed set of points,
/// ready to draw sample functions.
pub struct GpSampler {
    points: Vec<f64>,
    chol: Tensor,
}

impl GpSampler {
    /// Precompute the Cholesky factor of the kernel matrix on `points`.
    pub fn new(kernel: &Kernel1d, points: &[f64]) -> Self {
        let k = kernel_matrix(kernel, points);
        let chol = cholesky(&k).expect("GP kernel matrix must be PSD");
        Self {
            points: points.to_vec(),
            chol,
        }
    }

    /// Number of discretization points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the sampler has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Draw one sample function as a `1×n` row vector: `f = L·z`,
    /// `z ~ N(0, I)`.
    pub fn sample(&self, rng: &mut impl Rng) -> Tensor {
        self.realize(&noise(self.len(), rng))
    }

    /// The sample function `L·z` for a given `n×1` standard-normal draw
    /// `z`, as a `1×n` row vector.
    fn realize(&self, z: &Tensor) -> Tensor {
        self.chol.matmul(z).transpose()
    }
}

/// `n` standard-normal draws as an `n×1` column.
fn noise(n: usize, rng: &mut impl Rng) -> Tensor {
    Tensor::from_fn(n, 1, |_, _| standard_normal(rng))
}

/// Generates boundary conditions following §5.1 of the paper: a Sobol
/// sequence sweeps the GP hyperparameters, and each hyperparameter setting
/// yields one GP from which a boundary curve is drawn.
pub struct BoundarySampler {
    sobol: Sobol,
    lengthscale_range: (f64, f64),
    variance_range: (f64, f64),
    periodic: bool,
    points: Vec<f64>,
}

impl BoundarySampler {
    /// Sampler for boundary walks of `n_points`, parameterized by arc
    /// length `t ∈ [0, 1)`. `periodic` selects the wrap-around kernel
    /// (recommended for closed boundary curves).
    pub fn new(
        n_points: usize,
        lengthscale_range: (f64, f64),
        variance_range: (f64, f64),
        periodic: bool,
    ) -> Self {
        assert!(n_points >= 2, "BoundarySampler: need at least 2 points");
        assert!(lengthscale_range.0 > 0.0, "lengthscale must be positive");
        let points = (0..n_points).map(|i| i as f64 / n_points as f64).collect();
        Self {
            sobol: Sobol::new(2),
            lengthscale_range,
            variance_range,
            periodic,
            points,
        }
    }

    /// Draw the next boundary condition (a `1×n_points` row vector).
    ///
    /// Hyperparameters advance along the Sobol sequence; the curve itself
    /// is drawn with `rng`. The same as [`BoundarySampler::draw`] followed
    /// by [`BoundarySampler::realize`].
    pub fn sample(&mut self, rng: &mut impl Rng) -> Tensor {
        let (kernel, z) = self.draw(rng);
        self.realize(&kernel, &z)
    }

    /// The part of [`BoundarySampler::sample`] that consumes randomness and
    /// state: the next kernel on the Sobol sweep and the `n_points×1`
    /// standard-normal draw. Cheap, and sequential by nature.
    pub fn draw(&mut self, rng: &mut impl Rng) -> (Kernel1d, Tensor) {
        let hp = self
            .sobol
            .next_in_ranges(&[self.lengthscale_range, self.variance_range]);
        let kernel = if self.periodic {
            Kernel1d::Periodic {
                lengthscale: hp[0],
                variance: hp[1],
            }
        } else {
            Kernel1d::Rbf {
                lengthscale: hp[0],
                variance: hp[1],
            }
        };
        (kernel, noise(self.points.len(), rng))
    }

    /// The part of [`BoundarySampler::sample`] that costs: the kernel
    /// matrix, its Cholesky factor `L` and the curve `L·z` for a
    /// [`BoundarySampler::draw`]. Pure, so draws may be realized in any
    /// order or in parallel.
    pub fn realize(&self, kernel: &Kernel1d, z: &Tensor) -> Tensor {
        GpSampler::new(kernel, &self.points).realize(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn gp_sample_has_kernel_marginal_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let pts: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let sampler = GpSampler::new(
            &Kernel1d::Rbf {
                lengthscale: 0.2,
                variance: 2.0,
            },
            &pts,
        );
        let trials = 3000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let s = sampler.sample(&mut rng);
            acc += s.as_slice().iter().map(|v| v * v).sum::<f64>() / s.numel() as f64;
        }
        let var = acc / trials as f64;
        assert!((var - 2.0).abs() < 0.25, "marginal variance {var}");
    }

    #[test]
    fn gp_samples_are_smooth_relative_to_white_noise() {
        // Neighboring points of a long-lengthscale GP are highly correlated:
        // the mean squared increment is far below 2·variance.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let pts: Vec<f64> = (0..64).map(|i| i as f64 / 64.0).collect();
        let sampler = GpSampler::new(
            &Kernel1d::Periodic {
                lengthscale: 0.6,
                variance: 1.0,
            },
            &pts,
        );
        let mut incr = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let s = sampler.sample(&mut rng);
            let v = s.as_slice();
            incr += v
                .windows(2)
                .map(|w| (w[1] - w[0]) * (w[1] - w[0]))
                .sum::<f64>()
                / (v.len() - 1) as f64;
        }
        incr /= trials as f64;
        assert!(
            incr < 0.05,
            "mean squared increment {incr} too large for a smooth GP"
        );
    }

    #[test]
    fn periodic_sampler_wraps_smoothly() {
        // The increment across the wrap point matches interior increments.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut bs = BoundarySampler::new(64, (0.15, 0.6), (0.5, 1.5), true);
        let mut wrap_incr = 0.0;
        let mut interior_incr = 0.0;
        let trials = 300;
        for _ in 0..trials {
            let s = bs.sample(&mut rng);
            let v = s.as_slice();
            wrap_incr += (v[0] - v[63]) * (v[0] - v[63]);
            interior_incr += v
                .windows(2)
                .map(|w| (w[1] - w[0]) * (w[1] - w[0]))
                .sum::<f64>()
                / (v.len() - 1) as f64;
        }
        wrap_incr /= trials as f64;
        interior_incr /= trials as f64;
        // The wrap step must look statistically like any interior step.
        assert!(
            wrap_incr < 3.0 * interior_incr + 1e-6,
            "wrap increment {wrap_incr} vs interior {interior_incr}: curve not periodic"
        );
    }

    #[test]
    fn batch_shapes_and_diversity() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let mut bs = BoundarySampler::new(32, (0.15, 0.6), (0.5, 1.5), true);
        let rows: Vec<Tensor> = (0..5).map(|_| bs.sample(&mut rng)).collect();
        let batch = Tensor::vstack(&rows);
        assert_eq!(batch.shape(), (5, 32));
        // Different Sobol hyperparameters + different noise ⇒ distinct rows.
        for r in 1..5 {
            let diff: f64 = batch
                .row(0)
                .iter()
                .zip(batch.row(r))
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(diff > 1e-3, "rows 0 and {r} are identical");
        }
    }
}
