//! Blocked general matrix multiply with optional transposes.
//!
//! This GEMM is the single compute kernel behind every SDNet forward and
//! backward pass. This layer owns the *shape* work — operand transpose
//! packing, fan-out over row bands of the output on the compute pool
//! ([`crate::par`]) — and hands
//! each band to the simd [`crate::backend::Backend`], whose register-tiled
//! microkernel owns the arithmetic (the scalar reference `ikj` loops are
//! its test oracle; see `crate::backend`). Pack and compute phases are
//! attributed separately under `prof.gemm_pack_us` / `prof.gemm_compute_us`.
//!
//! A transposed operand is transposed once (O(n²)) rather than strided
//! through in the O(n³) inner loop, by the one tiled transpose kernel
//! [`Tensor::transpose_into`] runs too, into a per-thread scratch buffer
//! that grows to the largest pack the thread has needed and is reused by
//! every later product: a warm training step packs its weight-gradient
//! operands without touching the heap. The kernel then sees row-major
//! `m×k` and `k×n` buffers, so every element is the same ascending-`p`
//! chain as with an explicitly transposed operand, bit for bit.
//!
//! [`gemm`] and [`gemm_overwrite`] write the product over their output:
//! each chain starts at `+0.0` instead of re-reading a zero-filled buffer
//! (the same bits); [`gemm_into`] adds it to what the output holds.

use crate::backend::BAND;
use crate::inplace::transpose;
use crate::par::{self, prelude::*};
use crate::simd::band_product;
use crate::Tensor;
use std::cell::Cell;

/// Whether an operand participates as itself or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Use the matrix as stored.
    Normal,
    /// Use the transpose of the stored matrix.
    Transposed,
}

/// Problem size (in multiply-adds) from which the row bands are shared out
/// over the compute pool. Measured on the 2-core reference host with
/// 48-wide operands and the fused-multiply-add microkernel, two lanes
/// against one (p25 of 400 calls, both cores the process's own): 221 k
/// ×1.23, 295 k ×1.33, 369 k ×1.37, 442 k ×1.28, 590 k ×1.67, 737 k ×1.53,
/// 885 k ×1.69, 1.2 M ×1.64 with the worker still polling; ×0.53, ×0.59,
/// ×0.61, ×0.68, ×0.73, ×0.82, ×0.85, ×0.96 with the worker parked (300 µs
/// of caller-only work before each call), which wins only from 1.5 M
/// (×1.11): waking a parked worker costs ~28 µs, now the time of 650 k
/// multiply-adds (450 k before the kernel fused them). The callers with
/// products this large are training steps, whose GEMMs come in bursts — the
/// wake-up is paid once per burst, the polling gain on every product after
/// it — so this is the size from which a polling worker wins clearly, and
/// that size did not move with the kernel (×1.30 at 369 k before).
const PAR_THRESHOLD: usize = 3 << 17;

thread_local! {
    /// Per-thread scratch for transposed operands, taken for the length of
    /// one product and put back (a product nested in another one, were
    /// there any, would pack into a buffer of its own).
    static PACKS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// `C = op_a(A) · op_b(B)`, freshly allocated.
///
/// Shapes: with `op_a(A)` being `m×k` and `op_b(B)` being `k×n`, the result
/// is `m×n`. Panics on inner-dimension mismatch.
pub fn gemm(a: &Tensor, la: Layout, b: &Tensor, lb: Layout) -> Tensor {
    let (m, n) = product_shape(a, la, b, lb, "gemm");
    let mut out = Tensor::zeros(m, n);
    product(a, la, b, lb, &mut out, false);
    out
}

/// `C = op_a(A) · op_b(B)` written over an existing output, whatever it
/// held (a recycled buffer needs no zero-fill first).
pub fn gemm_overwrite(a: &Tensor, la: Layout, b: &Tensor, lb: Layout, out: &mut Tensor) {
    let shape = product_shape(a, la, b, lb, "gemm_overwrite");
    assert_eq!(out.shape(), shape, "gemm_overwrite: output shape mismatch");
    product(a, la, b, lb, out, false);
}

/// `C += op_a(A) · op_b(B)` accumulated into an existing output tensor.
pub fn gemm_into(a: &Tensor, la: Layout, b: &Tensor, lb: Layout, out: &mut Tensor) {
    let shape = product_shape(a, la, b, lb, "gemm_into");
    assert_eq!(out.shape(), shape, "gemm_into: output shape mismatch");
    product(a, la, b, lb, out, true);
}

/// The `m×n` shape of `op_a(A) · op_b(B)`; panics on an inner-dimension
/// mismatch.
fn product_shape(a: &Tensor, la: Layout, b: &Tensor, lb: Layout, op: &str) -> (usize, usize) {
    let (m, k1) = effective_shape(a, la);
    let (k2, n) = effective_shape(b, lb);
    assert_eq!(
        k1, k2,
        "{op}: inner dimension mismatch ({m}x{k1} · {k2}x{n}) with layouts {la:?}/{lb:?}"
    );
    (m, n)
}

/// The product behind [`gemm`], [`gemm_overwrite`] and [`gemm_into`]:
/// `out` (shape checked) receives `op_a(A) · op_b(B)`, added to it when
/// `accumulate`.
fn product(a: &Tensor, la: Layout, b: &Tensor, lb: Layout, out: &mut Tensor, accumulate: bool) {
    let (m, k) = effective_shape(a, la);
    let n = out.cols();
    // Degenerate shapes: nothing to multiply (and `chunks_mut(0)` on an
    // `n == 0` output would panic — see the zero-dim regression tests).
    if m == 0 || n == 0 {
        return;
    }

    let mut scratch = PACKS.with(Cell::take);
    let a_len = if la == Layout::Transposed { m * k } else { 0 };
    let b_len = if lb == Layout::Transposed { k * n } else { 0 };
    if scratch.len() < a_len + b_len {
        scratch.resize(a_len + b_len, 0.0);
    }
    let (a_pack, rest) = scratch.split_at_mut(a_len);
    let b_pack = &mut rest[..b_len];
    let (a_buf, b_buf): (&[f64], &[f64]) = {
        mf_profile::zone!("gemm_pack");
        let a_buf: &[f64] = match la {
            Layout::Normal => a.as_slice(),
            Layout::Transposed => {
                transpose(a.as_slice(), a.rows(), a.cols(), a_pack);
                a_pack
            }
        };
        let b_buf: &[f64] = match lb {
            Layout::Normal => b.as_slice(),
            Layout::Transposed => {
                transpose(b.as_slice(), b.rows(), b.cols(), b_pack);
                b_pack
            }
        };
        (a_buf, b_buf)
    };

    {
        mf_profile::zone!("gemm_compute");
        let work = m * n * k;
        let out_buf = out.as_mut_slice();
        // A single band has nothing to share out.
        if work >= PAR_THRESHOLD && m > BAND {
            out_buf
                .par_chunks_mut(n * BAND)
                .enumerate()
                .for_each(|(bi, band)| {
                    let rows = band.len() / n;
                    let a_band = &a_buf[bi * BAND * k..bi * BAND * k + rows * k];
                    band_product(a_band, b_buf, band, k, n, accumulate);
                });
            par::publish_thread_spawns();
        } else {
            band_product(a_buf, b_buf, out_buf, k, n, accumulate);
        }
    }
    PACKS.with(|cell| cell.set(scratch));
}

#[inline]
fn effective_shape(t: &Tensor, l: Layout) -> (usize, usize) {
    match l {
        Layout::Normal => t.shape(),
        Layout::Transposed => (t.cols(), t.rows()),
    }
}

impl Tensor {
    /// `self · other` (no transposes). See [`gemm`] for the general form.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        gemm(self, Layout::Normal, other, Layout::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        Tensor::from_fn(m, n, |i, j| (0..k).map(|p| a.get(i, p) * b.get(p, j)).sum())
    }

    fn random(rng: &mut impl Rng, r: usize, c: usize) -> Tensor {
        Tensor::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = random(&mut rng, 6, 6);
        assert!(a.matmul(&Tensor::eye(6)).allclose(&a, 1e-12));
        assert!(Tensor::eye(6).matmul(&a).allclose(&a, 1e-12));
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 9, 23), (64, 33, 7)] {
            let a = random(&mut rng, m, k);
            let b = random(&mut rng, k, n);
            assert!(
                a.matmul(&b).allclose(&naive(&a, &b), 1e-10),
                "shape {m}x{k}x{n}"
            );
        }
    }

    /// `op_a(A)·op_b(B)` through the transposed-operand packs is the
    /// product of explicitly transposed copies bit for bit: the same
    /// ascending-`p` chain per element whatever the layout, for every
    /// layout pair, past `KC`, across the pool fan-out and over narrow and
    /// half-tile widths.
    #[test]
    fn transposed_layouts_agree_with_explicit_transpose() {
        use Layout::{Normal as N, Transposed as T};
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut shapes = vec![
            (7, 4, 5),
            (4, 7, 9),
            (9, 300, 7),
            (200, 64, 48),
            (512, 48, 48),
        ];
        const { assert!(200 > BAND && 200 * 64 * 48 >= PAR_THRESHOLD) };
        shapes.extend([1, 2, 7, 8, 16, 48].map(|n| (37, 48, n)));
        for (m, k, n) in shapes {
            let a = random(&mut rng, m, k);
            let b = random(&mut rng, k, n);
            let want = a.matmul(&b);
            let (at, bt) = (a.transpose(), b.transpose());
            for (la, lb) in [(N, N), (T, N), (N, T), (T, T)] {
                let lhs = if la == T { &at } else { &a };
                let rhs = if lb == T { &bt } else { &b };
                let got = gemm(lhs, la, rhs, lb);
                assert!(
                    got.as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{m}x{k}x{n} with layouts {la:?}/{lb:?}"
                );
                // Accumulating into zeros and overwriting garbage: the
                // same bits again.
                let mut acc = Tensor::zeros(m, n);
                gemm_into(lhs, la, rhs, lb, &mut acc);
                let mut over = Tensor::full(m, n, f64::NAN);
                gemm_overwrite(lhs, la, rhs, lb, &mut over);
                assert_eq!(acc, want, "{m}x{k}x{n} gemm_into {la:?}/{lb:?}");
                assert_eq!(over, want, "{m}x{k}x{n} gemm_overwrite {la:?}/{lb:?}");
            }
        }
    }

    #[test]
    fn transpose_moves_every_element_on_random_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut shapes: Vec<(usize, usize)> = (0..40)
            .map(|_| (rng.gen_range(1..80), rng.gen_range(1..80)))
            .collect();
        shapes.extend([
            (1, 1),
            (1, 70),
            (70, 1),
            (1, 8),
            (8, 1),
            (8, 8),
            (33, 65),
            (61, 129),
        ]);
        for (r, c) in shapes {
            let a = random(&mut rng, r, c);
            let mut t = Tensor::full(c, r, f64::NAN);
            a.transpose_into(&mut t);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(
                        t.get(j, i).to_bits(),
                        a.get(i, j).to_bits(),
                        "{r}x{c} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn overwrite_of_an_empty_inner_dimension_is_zero() {
        let mut out = Tensor::full(2, 3, 7.5);
        gemm_overwrite(
            &Tensor::zeros(0, 2),
            Layout::Transposed,
            &Tensor::zeros(0, 3),
            Layout::Normal,
            &mut out,
        );
        assert_eq!(out.as_slice(), &[0.0; 6]);
    }

    #[test]
    fn gemm_into_accumulates() {
        let a = Tensor::eye(3);
        let b = Tensor::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let mut c = Tensor::ones(3, 3);
        gemm_into(&a, Layout::Normal, &b, Layout::Normal, &mut c);
        assert!(c.allclose(&b.add_scalar(1.0), 1e-12));
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Large enough to cross PAR_THRESHOLD.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = random(&mut rng, 128, 64);
        let b = random(&mut rng, 64, 96);
        assert!(a.matmul(&b).allclose(&naive(&a, &b), 1e-9));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul(&Tensor::zeros(4, 2));
    }

    /// Zero-sized operands used to panic inside `chunks_mut(0)` when the
    /// output had zero columns; all three degenerate dimensions must be
    /// clean no-ops (satellite: tail/edge-shape hazards).
    #[test]
    fn zero_dimension_gemm_is_a_noop() {
        // n == 0: empty output, previously panicked.
        let c = Tensor::zeros(3, 4).matmul(&Tensor::zeros(4, 0));
        assert_eq!(c.shape(), (3, 0));
        // m == 0.
        let c = Tensor::zeros(0, 4).matmul(&Tensor::zeros(4, 5));
        assert_eq!(c.shape(), (0, 5));
        // k == 0: accumulation target must be left untouched.
        let mut acc = Tensor::full(2, 3, 7.5);
        gemm_into(
            &Tensor::zeros(2, 0),
            Layout::Normal,
            &Tensor::zeros(0, 3),
            Layout::Normal,
            &mut acc,
        );
        assert_eq!(acc.as_slice(), &[7.5; 6]);
    }

    /// Shapes straddling the parallel-band and k-block boundaries must
    /// agree with the naive product (band = 64 rows, KC = 256).
    #[test]
    fn band_and_block_boundary_shapes_match_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for &(m, k, n) in &[(63, 9, 65), (64, 256, 8), (65, 257, 9), (129, 255, 33)] {
            let a = random(&mut rng, m, k);
            let b = random(&mut rng, k, n);
            assert!(
                a.matmul(&b).allclose(&naive(&a, &b), 1e-9),
                "shape {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn associativity_with_identity_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = random(&mut rng, 5, 8);
        let b = random(&mut rng, 8, 5);
        let left = a.matmul(&b);
        let right = gemm(&b, Layout::Transposed, &a, Layout::Transposed).transpose();
        // (A·B) == (Bᵀ·Aᵀ)ᵀ
        assert!(left.allclose(&right, 1e-12));
    }
}
