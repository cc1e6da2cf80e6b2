//! Covariance kernels for 1-D Gaussian processes.

use mf_tensor::Tensor;

/// A stationary 1-D covariance kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel1d {
    /// Squared exponential `σ² exp(-(t−t')²/(2ℓ²))` — the "infinitely
    /// differentiable Gaussian kernel" of the paper.
    Rbf {
        /// Length scale ℓ.
        lengthscale: f64,
        /// Signal variance σ².
        variance: f64,
    },
    /// Periodic squared exponential (MacKay),
    /// `σ² exp(-2 sin²(π(t−t')/p)/ℓ²)` with period `p = 1`.
    ///
    /// On a closed boundary curve parameterized by `t ∈ [0,1)`, this
    /// kernel produces sample functions that wrap around smoothly, so the
    /// generated boundary condition has no artificial jump at the walk
    /// origin.
    Periodic {
        /// Length scale ℓ.
        lengthscale: f64,
        /// Signal variance σ².
        variance: f64,
    },
}

impl Kernel1d {
    /// Evaluate `k(s, t)`.
    pub fn eval(&self, s: f64, t: f64) -> f64 {
        match *self {
            Kernel1d::Rbf {
                lengthscale,
                variance,
            } => {
                let d = s - t;
                variance * (-d * d / (2.0 * lengthscale * lengthscale)).exp()
            }
            Kernel1d::Periodic {
                lengthscale,
                variance,
            } => {
                let d = (std::f64::consts::PI * (s - t)).sin();
                variance * (-2.0 * d * d / (lengthscale * lengthscale)).exp()
            }
        }
    }

    /// Signal variance σ² (the kernel's value at zero lag).
    pub fn variance(&self) -> f64 {
        match *self {
            Kernel1d::Rbf { variance, .. } | Kernel1d::Periodic { variance, .. } => variance,
        }
    }
}

/// Dense covariance matrix `K[i][j] = k(points[i], points[j])`.
///
/// Both kernels see only the lag `s − t`, so [`Kernel1d::eval`] runs once
/// per distinct lag: a value is kept per index gap `i − j` with the bits of
/// its lag and reused while the bits match. On a dyadic uniform grid of `n`
/// points that is `n` evaluations instead of `n(n+1)/2`, with the same
/// bits; other grids re-evaluate where a gap's lag rounds differently.
pub fn kernel_matrix(kernel: &Kernel1d, points: &[f64]) -> Tensor {
    let n = points.len();
    let mut k = Tensor::zeros(n, n);
    let out = k.as_mut_slice();
    let mut by_gap: Vec<Option<(u64, f64)>> = vec![None; n];
    for i in 0..n {
        for j in 0..=i {
            let lag = (points[i] - points[j]).to_bits();
            let v = match by_gap[i - j] {
                Some((bits, v)) if bits == lag => v,
                _ => {
                    let v = kernel.eval(points[i], points[j]);
                    by_gap[i - j] = Some((lag, v));
                    v
                }
            };
            out[i * n + j] = v;
            out[j * n + i] = v;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky;

    #[test]
    fn diagonal_equals_variance() {
        for k in [
            Kernel1d::Rbf {
                lengthscale: 0.3,
                variance: 1.7,
            },
            Kernel1d::Periodic {
                lengthscale: 0.5,
                variance: 0.9,
            },
        ] {
            assert!((k.eval(0.42, 0.42) - k.variance()).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_matrix_is_symmetric_and_psd() {
        let pts: Vec<f64> = (0..24).map(|i| i as f64 / 24.0).collect();
        for k in [
            Kernel1d::Rbf {
                lengthscale: 0.2,
                variance: 1.0,
            },
            Kernel1d::Periodic {
                lengthscale: 0.7,
                variance: 1.0,
            },
        ] {
            let m = kernel_matrix(&k, &pts);
            assert!(m.allclose(&m.transpose(), 1e-14));
            assert!(cholesky(&m).is_ok(), "kernel {k:?} not PSD");
        }
    }

    #[test]
    fn kernel_matrix_is_bitwise_the_per_pair_eval() {
        // Both mirrored entries must carry the bits of the per-pair
        // `eval(pts[i], pts[j])`, j ≤ i, on a dyadic grid (lags repeat
        // exactly) and on a non-dyadic one (one index gap can round to
        // several lags).
        for n in [32, 30] {
            let pts: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
            for k in [
                Kernel1d::Rbf {
                    lengthscale: 0.37,
                    variance: 1.3,
                },
                Kernel1d::Periodic {
                    lengthscale: 0.61,
                    variance: 0.8,
                },
            ] {
                let m = kernel_matrix(&k, &pts);
                for i in 0..n {
                    for j in 0..=i {
                        let v = k.eval(pts[i], pts[j]).to_bits();
                        assert_eq!(m.get(j, i).to_bits(), v, "{k:?}, n {n}, ({j}, {i})");
                        assert_eq!(m.get(i, j).to_bits(), v, "{k:?}, n {n}, ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn correlation_decays_with_distance() {
        let k = Kernel1d::Rbf {
            lengthscale: 0.1,
            variance: 1.0,
        };
        assert!(k.eval(0.0, 0.05) > k.eval(0.0, 0.2));
        assert!(k.eval(0.0, 0.5) < 1e-5);
    }

    #[test]
    fn periodic_kernel_wraps() {
        let k = Kernel1d::Periodic {
            lengthscale: 0.5,
            variance: 1.0,
        };
        // t=0.01 and t=0.99 are close on the circle.
        assert!((k.eval(0.0, 0.99) - k.eval(0.0, 0.01)).abs() < 1e-12);
        assert!(k.eval(0.0, 0.99) > k.eval(0.0, 0.5));
    }

    #[test]
    fn shorter_lengthscale_gives_rougher_correlation() {
        let tight = Kernel1d::Rbf {
            lengthscale: 0.05,
            variance: 1.0,
        };
        let loose = Kernel1d::Rbf {
            lengthscale: 0.5,
            variance: 1.0,
        };
        assert!(tight.eval(0.0, 0.1) < loose.eval(0.0, 0.1));
    }
}
