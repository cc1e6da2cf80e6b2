//! Dense Cholesky factorization with jitter retry, used to sample from
//! Gaussian-process covariance matrices.

use mf_tensor::Tensor;

/// Failure to factor a matrix even after jitter boosts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CholeskyError {
    /// The pivot that went non-positive.
    pub pivot: usize,
    /// The largest jitter that was attempted.
    pub jitter: f64,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cholesky failed at pivot {} even with jitter {:.1e}; matrix is not PSD",
            self.pivot, self.jitter
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` with `L·Lᵀ = A + εI`.
///
/// Kernel matrices of smooth kernels are notoriously ill-conditioned, so a
/// small diagonal jitter is added and escalated (×10, up to six times)
/// until the factorization succeeds — the standard GP-library recipe.
pub fn cholesky(a: &Tensor) -> Result<Tensor, CholeskyError> {
    let (n, m) = a.shape();
    assert_eq!(n, m, "cholesky: matrix must be square, got {n}x{m}");
    let base_jitter = 1e-10 * mean_diag(a).max(1.0);
    let mut jitter = 0.0;
    for attempt in 0..8 {
        match try_factor(a, jitter) {
            Ok(l) => return Ok(l),
            Err(p) => {
                if attempt == 7 {
                    return Err(CholeskyError { pivot: p, jitter });
                }
                jitter = if jitter == 0.0 {
                    base_jitter
                } else {
                    jitter * 10.0
                };
            }
        }
    }
    unreachable!()
}

fn mean_diag(a: &Tensor) -> f64 {
    let n = a.rows();
    (0..n).map(|i| a.get(i, i)).sum::<f64>() / n as f64
}

/// Cholesky–Banachiewicz, row by row, each inner product in ascending `k`.
fn try_factor(a: &Tensor, jitter: f64) -> Result<Tensor, usize> {
    let n = a.rows();
    let a = a.as_slice();
    let mut l = Tensor::zeros(n, n);
    let lv = l.as_mut_slice();
    for i in 0..n {
        let (done, rest) = lv.split_at_mut(i * n);
        let row_i = &mut rest[..n];
        for j in 0..i {
            let row_j = &done[j * n..j * n + j + 1];
            let mut s = a[i * n + j];
            for (x, y) in row_i[..j].iter().zip(&row_j[..j]) {
                s -= x * y;
            }
            row_i[j] = s / row_j[j];
        }
        let mut s = a[i * n + i] + jitter;
        for x in &row_i[..i] {
            s -= x * x;
        }
        if s <= 0.0 {
            return Err(i);
        }
        row_i[i] = s.sqrt();
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel_matrix, Kernel1d};

    #[test]
    fn factors_identity() {
        let l = cholesky(&Tensor::eye(4)).unwrap();
        assert!(l.allclose(&Tensor::eye(4), 1e-9));
    }

    #[test]
    fn reconstructs_spd_matrix() {
        // A = M·Mᵀ + I is SPD for any M.
        let m = Tensor::from_fn(5, 5, |r, c| ((r * 5 + c) as f64 * 0.37).sin());
        let a = m.matmul(&m.transpose()).add(&Tensor::eye(5));
        let l = cholesky(&a).unwrap();
        let rec = l.matmul(&l.transpose());
        assert!(rec.allclose(&a, 1e-8), "max diff {}", rec.max_abs_diff(&a));
    }

    #[test]
    fn factor_is_lower_triangular() {
        let m = Tensor::from_fn(4, 4, |r, c| ((r + 2 * c) as f64).cos());
        let a = m.matmul(&m.transpose()).add(&Tensor::eye(4).scale(2.0));
        let l = cholesky(&a).unwrap();
        for r in 0..4 {
            for c in r + 1..4 {
                assert_eq!(l.get(r, c), 0.0);
            }
        }
    }

    #[test]
    fn jitter_rescues_near_singular_matrix() {
        // Rank-1 matrix: PSD but singular; jitter should let it factor.
        let v = Tensor::col_vector(&[1.0, 2.0, 3.0]);
        let a = v.matmul(&v.transpose());
        let l = cholesky(&a).unwrap();
        let rec = l.matmul(&l.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-4);
    }

    /// The factor as written with `get`/`set`, the reference the slice
    /// loops must match bit for bit.
    fn reference_factor(a: &Tensor, jitter: f64) -> Result<Tensor, usize> {
        let n = a.rows();
        let mut l = Tensor::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a.get(i, j);
                if i == j {
                    s += jitter;
                }
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(i);
                    }
                    l.set(i, j, s.sqrt());
                } else {
                    l.set(i, j, s / l.get(j, j));
                }
            }
        }
        Ok(l)
    }

    /// `cholesky`'s jitter schedule over [`reference_factor`].
    fn reference_cholesky(a: &Tensor) -> (Tensor, f64) {
        let base = 1e-10 * mean_diag(a).max(1.0);
        let mut jitter = 0.0;
        loop {
            if let Ok(l) = reference_factor(a, jitter) {
                return (l, jitter);
            }
            jitter = if jitter == 0.0 { base } else { jitter * 10.0 };
        }
    }

    #[test]
    fn factor_is_bitwise_the_get_set_reference() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let pts: Vec<f64> = (0..32).map(|i| i as f64 / 32.0).collect();
        let m = Tensor::from_fn(6, 6, |r, c| ((r * 6 + c) as f64 * 0.37).sin());
        let v = Tensor::col_vector(&[1.0, 2.0, 3.0]);
        let cases = [
            ("SPD", m.matmul(&m.transpose()).add(&Tensor::eye(6))),
            ("rank one", v.matmul(&v.transpose())),
            (
                "smooth kernel",
                kernel_matrix(
                    &Kernel1d::Periodic {
                        lengthscale: 0.9,
                        variance: 1.2,
                    },
                    &pts,
                ),
            ),
        ];
        let mut retried = 0;
        for (name, a) in cases {
            let (want, jitter) = reference_cholesky(&a);
            retried += usize::from(jitter > 0.0);
            assert_eq!(bits(&cholesky(&a).unwrap()), bits(&want), "{name}");
        }
        assert!(retried >= 1, "no case needed a jitter retry");
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_err());
    }
}
