//! Write-into variants of the tensor kernels, for pooled output buffers.
//!
//! Every method takes a pre-shaped output tensor (typically fresh from a
//! [`crate::BufferPool`], i.e. zero-filled) and fills it. The elementwise
//! kernels and their fused VJPs — `add`, `sub`, `mul`, `scale`,
//! `add_scalar`, `tanh_vjp`, `one_minus_sq`, `gelu_inner`, `gelu_du`,
//! `half_one_plus` — and the structural ones — `transpose`, `sum_axis0`,
//! `broadcast_row_add`, `repeat_rows`, `sum_groups`, `slice_*`, `concat_*`,
//! `pad_*`, `unfold1d_circular`, `fold1d_circular` — are written here and
//! nowhere else: the allocating name
//! of each is `Tensor::zeros` plus the `_into` call, so an allocation-lean
//! caller gets the allocating caller's values bit for bit by construction.
//! Only `tanh_into` and `gelu_into` call a [`crate::Backend`] — the simd
//! one, whose approximations the scalar reference differs from — and
//! `gelu_deriv_into` calls the simd module's GELU-derivative kernel, built
//! on the same vector `tanh`. `transpose_into` is the tiled [`transpose`]
//! kernel, which the GEMM's transposed-operand packs run too.
//!
//! Kernels that accumulate (`sum_axis0_into`, `sum_groups_into`,
//! `fold1d_circular_into`) or leave gaps (`pad_cols_into`, `pad_rows_into`)
//! require the output to be zeroed; the pool guarantees that. The others
//! overwrite every element.

use crate::backend::{GELU_C, GELU_SQRT_2_OVER_PI};
use crate::Tensor;
use std::ops::{AddAssign, Range};

impl Tensor {
    #[inline]
    fn assert_out_shape(&self, out: &Tensor, rows: usize, cols: usize, op: &str) {
        assert_eq!(
            out.shape(),
            (rows, cols),
            "{op}: output shape {:?} does not match expected {}x{}",
            out.shape(),
            rows,
            cols
        );
        let _ = self;
    }

    /// `out = self ⊕ other` elementwise via `f`.
    pub fn zip_map_into(&self, other: &Tensor, out: &mut Tensor, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(self.shape(), other.shape(), "zip_map_into: shape mismatch");
        self.assert_out_shape(out, self.rows(), self.cols(), "zip_map_into");
        for ((o, &a), &b) in out
            .as_mut_slice()
            .iter_mut()
            .zip(self.as_slice())
            .zip(other.as_slice())
        {
            *o = f(a, b);
        }
    }

    /// `out = f(self)` elementwise.
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f64) -> f64) {
        self.assert_out_shape(out, self.rows(), self.cols(), "map_into");
        for (o, &a) in out.as_mut_slice().iter_mut().zip(self.as_slice()) {
            *o = f(a);
        }
    }

    /// `out = self + other`.
    pub fn add_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_map_into(other, out, |a, b| a + b);
    }

    /// `out = self - other`.
    pub fn sub_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_map_into(other, out, |a, b| a - b);
    }

    /// `out = self ⊙ other`.
    pub fn mul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_map_into(other, out, |a, b| a * b);
    }

    /// `out = self * s`.
    pub fn scale_into(&self, s: f64, out: &mut Tensor) {
        self.map_into(out, |a| a * s);
    }

    /// `out = self + s`.
    pub fn add_scalar_into(&self, s: f64, out: &mut Tensor) {
        self.map_into(out, |a| a + s);
    }

    /// `out = tanh(self)` through the simd kernel backend.
    pub fn tanh_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "tanh_into");
        crate::backend::simd().tanh(self.as_slice(), out.as_mut_slice());
    }

    /// `out = gelu(self)` (tanh approximation) through the simd backend.
    pub fn gelu_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "gelu_into");
        crate::backend::simd().gelu(self.as_slice(), out.as_mut_slice());
    }

    /// `out = σ⁽ᵏ⁾(self)`, the `k`-th derivative of the GELU `σ` (tanh
    /// approximation) for `k` = 1, 2 or 3, through the simd kernel
    /// (`tanh` as [`Tensor::tanh_into`] takes it). `k` = 1 and 2 are bit
    /// for bit the elementwise chains `σ'` and `σ''` were built from before
    /// this kernel existed. Panics for any other `k`.
    pub fn gelu_deriv_into(&self, k: u8, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "gelu_deriv_into");
        crate::simd::gelu_deriv(k, self.as_slice(), out.as_mut_slice());
    }

    /// Fused tanh backward: `out = self ⊙ (1 - t²)` where `self` is the
    /// upstream gradient and `t = tanh(x)`.
    pub fn tanh_vjp_into(&self, t: &Tensor, out: &mut Tensor) {
        self.zip_map_into(t, out, |g, t| g * (1.0 - t * t));
    }

    /// `out = 1 - self²` (the sech² factor of `d tanh`).
    pub fn one_minus_sq_into(&self, out: &mut Tensor) {
        self.map_into(out, |t| 1.0 - t * t);
    }

    /// Fused GELU pre-activation `√(2/π)(self + c·x3)` where `x3 = self³`.
    pub fn gelu_inner_into(&self, x3: &Tensor, out: &mut Tensor) {
        self.zip_map_into(x3, out, |x, x3| (x + x3 * GELU_C) * GELU_SQRT_2_OVER_PI);
    }

    /// Fused GELU inner derivative `√(2/π)(1 + 3c·self)` where `self = x²`.
    pub fn gelu_du_into(&self, out: &mut Tensor) {
        self.map_into(out, |x2| (x2 * (3.0 * GELU_C) + 1.0) * GELU_SQRT_2_OVER_PI);
    }

    /// `out = (self + 1) / 2`, fused.
    pub fn half_one_plus_into(&self, out: &mut Tensor) {
        self.map_into(out, |t| (t + 1.0) * 0.5);
    }

    /// `out = selfᵀ`, by the crate's one tiled transpose kernel, the one
    /// the transposed-operand packs of [`crate::gemm_into`] run too.
    pub fn transpose_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.cols(), self.rows(), "transpose_into");
        let (rows, cols) = self.shape();
        transpose(self.as_slice(), rows, cols, out.as_mut_slice());
    }

    /// Row sum into a zeroed `1×cols` output.
    pub fn sum_axis0_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, 1, self.cols(), "sum_axis0_into");
        let o = out.as_mut_slice();
        for r in 0..self.rows() {
            for (acc, &v) in o.iter_mut().zip(self.row(r)) {
                *acc += v;
            }
        }
    }

    /// Repeat every row `q` times into a `[rows·q × cols]` output.
    pub fn repeat_rows_into(&self, q: usize, out: &mut Tensor) {
        assert!(q > 0, "repeat_rows_into: q must be positive");
        let (b, d) = self.shape();
        self.assert_out_shape(out, b * q, d, "repeat_rows_into");
        for r in 0..b {
            for i in 0..q {
                let dst = out.row_mut(r * q + i);
                dst.copy_from_slice(&self.as_slice()[r * d..(r + 1) * d]);
            }
        }
    }

    /// Sum consecutive groups of `q` rows into a zeroed `[rows/q × cols]`
    /// output.
    pub fn sum_groups_into(&self, q: usize, out: &mut Tensor) {
        assert!(q > 0, "sum_groups_into: q must be positive");
        let (bq, d) = self.shape();
        assert_eq!(
            bq % q,
            0,
            "sum_groups_into: {bq} rows not divisible by group size {q}"
        );
        self.assert_out_shape(out, bq / q, d, "sum_groups_into");
        for r in 0..bq {
            let dst = out.row_mut(r / q);
            for (o, &v) in dst.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Copy columns `[start, start+len)` into a `[rows × len]` output.
    pub fn slice_cols_into(&self, start: usize, len: usize, out: &mut Tensor) {
        assert!(
            start + len <= self.cols(),
            "slice_cols_into: [{start}, {}) out of bounds for {} cols",
            start + len,
            self.cols()
        );
        self.assert_out_shape(out, self.rows(), len, "slice_cols_into");
        for r in 0..self.rows() {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + len]);
        }
    }

    /// Copy rows `[start, start+len)` into a `[len × cols]` output.
    pub fn slice_rows_into(&self, start: usize, len: usize, out: &mut Tensor) {
        assert!(
            start + len <= self.rows(),
            "slice_rows_into: [{start}, {}) out of bounds for {} rows",
            start + len,
            self.rows()
        );
        self.assert_out_shape(out, len, self.cols(), "slice_rows_into");
        for r in 0..len {
            out.row_mut(r).copy_from_slice(self.row(start + r));
        }
    }

    /// Embed as columns `[start, …)` of a zeroed width-`total` output.
    pub fn pad_cols_into(&self, start: usize, total: usize, out: &mut Tensor) {
        assert!(
            start + self.cols() <= total,
            "pad_cols_into: slice exceeds target width"
        );
        self.assert_out_shape(out, self.rows(), total, "pad_cols_into");
        for r in 0..self.rows() {
            out.row_mut(r)[start..start + self.cols()].copy_from_slice(self.row(r));
        }
    }

    /// Embed as rows `[start, …)` of a zeroed height-`total` output.
    pub fn pad_rows_into(&self, start: usize, total: usize, out: &mut Tensor) {
        assert!(
            start + self.rows() <= total,
            "pad_rows_into: slice exceeds target height"
        );
        self.assert_out_shape(out, total, self.cols(), "pad_rows_into");
        for r in 0..self.rows() {
            out.row_mut(start + r).copy_from_slice(self.row(r));
        }
    }

    /// `out = self + broadcast(row)` where `row` is `1×cols` — the fused
    /// bias add. Element order matches adding a row-repeated matrix.
    pub fn broadcast_row_add_into(&self, row: &Tensor, out: &mut Tensor) {
        assert_eq!(
            row.rows(),
            1,
            "broadcast_row_add_into: rhs must be a row vector"
        );
        assert_eq!(
            row.cols(),
            self.cols(),
            "broadcast_row_add_into: column mismatch"
        );
        self.assert_out_shape(out, self.rows(), self.cols(), "broadcast_row_add_into");
        for r in 0..self.rows() {
            for ((o, &a), &b) in out.row_mut(r).iter_mut().zip(self.row(r)).zip(row.row(0)) {
                *o = a + b;
            }
        }
    }

    /// `out = [self | other]`.
    pub fn concat_cols_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows(), other.rows(), "concat_cols_into: row mismatch");
        let (r, c1) = self.shape();
        let c2 = other.cols();
        self.assert_out_shape(out, r, c1 + c2, "concat_cols_into");
        for i in 0..r {
            let dst = out.row_mut(i);
            dst[..c1].copy_from_slice(self.row(i));
            dst[c1..].copy_from_slice(other.row(i));
        }
    }

    /// `out = [self; other]`.
    pub fn concat_rows_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "concat_rows_into: column mismatch"
        );
        self.assert_out_shape(
            out,
            self.rows() + other.rows(),
            self.cols(),
            "concat_rows_into",
        );
        let n1 = self.numel();
        out.as_mut_slice()[..n1].copy_from_slice(self.as_slice());
        out.as_mut_slice()[n1..].copy_from_slice(other.as_slice());
    }

    /// Copy this tensor's data into a same-sized output of possibly
    /// different shape (the reshape/copy primitive).
    pub fn copy_into(&self, out: &mut Tensor) {
        assert_eq!(self.numel(), out.numel(), "copy_into: size mismatch");
        out.as_mut_slice().copy_from_slice(self.as_slice());
    }
}

/// [`crate::unfold1d_circular`] into a zeroed `[B·len × k·channels]` output.
pub fn unfold1d_circular_into(input: &Tensor, channels: usize, k: usize, out: &mut Tensor) {
    let (b, width) = input.shape();
    assert!(k >= 1, "unfold1d_circular_into: kernel size must be >= 1");
    assert_eq!(
        width % channels,
        0,
        "unfold1d_circular_into: width not divisible by channels"
    );
    let len = width / channels;
    assert!(len >= 1, "unfold1d_circular_into: empty signal");
    assert_eq!(
        out.shape(),
        (b * len, k * channels),
        "unfold1d_circular_into: output shape mismatch"
    );
    unfold1d_windows(input.as_slice(), b, len, channels, k, out.as_mut_slice());
}

/// [`crate::fold1d_circular`] into a zeroed `[B × len·channels]` output.
pub fn fold1d_circular_into(grad: &Tensor, b: usize, channels: usize, k: usize, out: &mut Tensor) {
    let (rows, wk) = grad.shape();
    assert_eq!(wk, k * channels, "fold1d_circular_into: width mismatch");
    assert_eq!(
        rows % b,
        0,
        "fold1d_circular_into: rows not divisible by batch"
    );
    let len = rows / b;
    assert_eq!(
        out.shape(),
        (b, len * channels),
        "fold1d_circular_into: output shape mismatch"
    );
    fold1d_windows(grad.as_slice(), b, len, channels, k, out.as_mut_slice());
}

/// `(half, inner)` of a circular window of `kw` over `len` positions: the
/// window of row `p` covers positions `p - half ..= p - half + kw - 1`
/// (mod `len`), and for `p` in `inner` none of them wraps.
fn windows(len: usize, kw: usize) -> (usize, Range<usize>) {
    let half = (kw - 1) / 2;
    let lo = half.min(len);
    (half, lo..len.saturating_sub(kw - 1 - half).max(lo))
}

/// Circular 1-D unfold (im2col) on raw buffers, for any element type: the
/// body of [`unfold1d_circular_into`], and how the compiled plan unfolds
/// its `f32` registers. `input` is `bsz` rows of `len·channels` (positions
/// × interleaved channels); `out` is `bsz·len` rows of `kw·channels`.
/// Since the channels interleave, a row's window is `kw·channels`
/// consecutive elements of its signal, read circularly: one contiguous
/// copy where it does not wrap, element by element where it does.
pub fn unfold1d_windows<T: Copy>(
    input: &[T],
    bsz: usize,
    len: usize,
    channels: usize,
    kw: usize,
    out: &mut [T],
) {
    let (half, inner) = windows(len, kw);
    // `+ kw·len` (a multiple of the modulus) keeps the index positive even
    // when the kernel is wider than the signal (`half > p + len`).
    let first = |p: usize| (p + kw * len - half) % len;
    let (width, wk) = (len * channels, kw * channels);
    for bi in 0..bsz {
        let src = &input[bi * width..(bi + 1) * width];
        for p in 0..len {
            let dst = &mut out[(bi * len + p) * wk..(bi * len + p + 1) * wk];
            if inner.contains(&p) {
                dst.copy_from_slice(&src[(p - half) * channels..][..wk]);
            } else {
                let mut q = first(p) * channels;
                for d in dst.iter_mut() {
                    *d = src[q];
                    q += 1;
                    if q == width {
                        q = 0;
                    }
                }
            }
        }
    }
}

/// Adjoint of [`unfold1d_windows`]: scatter-add the windows in `grad`
/// (`bsz·len` rows of `kw·channels`) back onto `out` (`bsz` rows of
/// `len·channels`, zeroed or holding an accumulation), with the same two
/// cases. Every output element accumulates row by row, window offset
/// ascending, whichever case a row takes.
fn fold1d_windows<T: Copy + AddAssign>(
    grad: &[T],
    bsz: usize,
    len: usize,
    channels: usize,
    kw: usize,
    out: &mut [T],
) {
    let (half, inner) = windows(len, kw);
    let first = |p: usize| (p + kw * len - half) % len;
    let (width, wk) = (len * channels, kw * channels);
    for bi in 0..bsz {
        let dst = &mut out[bi * width..(bi + 1) * width];
        for p in 0..len {
            let src = &grad[(bi * len + p) * wk..(bi * len + p + 1) * wk];
            if inner.contains(&p) {
                for (d, &s) in dst[(p - half) * channels..][..wk].iter_mut().zip(src) {
                    *d += s;
                }
            } else {
                let mut q = first(p) * channels;
                for &s in src {
                    dst[q] += s;
                    q += 1;
                    if q == width {
                        q = 0;
                    }
                }
            }
        }
    }
}

/// Rows of the source one pass of [`transpose`] covers: the pass writes a
/// run of this many consecutive elements (four cache lines) into every
/// row of the destination.
const ROW_BLOCK: usize = 32;
/// Side of the register tile [`transpose`] moves at once.
const TILE: usize = 4;

/// `dst = srcᵀ` for a `rows×cols` row-major `src` (`dst` is `cols×rows`):
/// the one transpose kernel, behind [`Tensor::transpose_into`] and the
/// transposed-operand packs of [`crate::gemm_into`]. It takes `ROW_BLOCK`
/// rows of the source at a time (a block that stays in L1) and walks
/// their columns in `TILE×TILE` tiles, each read as `TILE` row pieces and
/// written as `TILE` column pieces, so every destination row receives a
/// run of consecutive elements per pass instead of one element per cache
/// line. The last rows and columns go element by element.
pub(crate) fn transpose(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    assert_eq!(src.len(), rows * cols, "transpose: source length");
    assert_eq!(dst.len(), rows * cols, "transpose: destination length");
    let (full_rows, full_cols) = (rows - rows % TILE, cols - cols % TILE);
    for r0 in (0..full_rows).step_by(ROW_BLOCK) {
        let r1 = (r0 + ROW_BLOCK).min(full_rows);
        for c in (0..full_cols).step_by(TILE) {
            for r in (r0..r1).step_by(TILE) {
                let mut tile = [[0.0; TILE]; TILE];
                for (i, t) in tile.iter_mut().enumerate() {
                    t.copy_from_slice(&src[(r + i) * cols + c..][..TILE]);
                }
                for j in 0..TILE {
                    let d: &mut [f64; TILE] = (&mut dst[(c + j) * rows + r..][..TILE])
                        .try_into()
                        .expect("TILE-wide piece");
                    for (i, t) in tile.iter().enumerate() {
                        d[i] = t[j];
                    }
                }
            }
        }
        for c in full_cols..cols {
            for r in r0..r1 {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
    }
    for r in full_rows..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(r: usize, c: usize) -> Tensor {
        Tensor::from_fn(r, c, |i, j| ((i * 13 + j * 7) as f64 * 0.37).sin())
    }

    /// The circular unfold and fold written out one element at a time —
    /// fold accumulating in the kernels' order, row by row and window
    /// offset ascending — against [`unfold1d_windows`] and
    /// [`fold1d_windows`], by bits: single- and multi-channel signals,
    /// rows that wrap and rows that do not, a one-position signal, and
    /// kernels wider than the signal, which wrap around it more than once
    /// (an index that once underflowed).
    fn check_unfold_fold_against_index_formulas<T>(bits: fn(T) -> u64)
    where
        T: Copy + Default + AddAssign + From<f32>,
    {
        for &(bsz, len, channels, kw) in &[
            (1usize, 4usize, 1usize, 3usize),
            (2, 8, 1, 5),
            (3, 5, 1, 1),
            (1, 3, 1, 3),
            (2, 7, 1, 7),
            (2, 8, 2, 3),
            (3, 16, 4, 5),
            (1, 5, 3, 5),
            (1, 1, 1, 1),
            (2, 1, 2, 3),
            (1, 1, 1, 5),
            (2, 2, 1, 7),
            (1, 3, 2, 9),
            (1, 1, 3, 3),
        ] {
            let value = |i: usize| T::from(((i * 7) as f32 * 0.31).sin());
            let input: Vec<T> = (0..bsz * len * channels).map(value).collect();
            let grad: Vec<T> = (0..bsz * len * kw * channels)
                .map(|i| value(i + 3))
                .collect();
            let half = (kw - 1) / 2;
            let mut unfolded = vec![T::default(); grad.len()];
            let mut folded = vec![T::default(); input.len()];
            for b in 0..bsz {
                for p in 0..len {
                    for w in 0..kw {
                        for c in 0..channels {
                            let row = ((b * len + p) * kw + w) * channels + c;
                            let sig = (b * len + (p + w + kw * len - half) % len) * channels + c;
                            unfolded[row] = input[sig];
                            folded[sig] += grad[row];
                        }
                    }
                }
            }
            let what = format!("b={bsz} len={len} c={channels} k={kw}");
            let same =
                |got: &[T], want: &[T]| got.iter().zip(want).all(|(&g, &w)| bits(g) == bits(w));
            let mut got = vec![T::default(); grad.len()];
            unfold1d_windows(&input, bsz, len, channels, kw, &mut got);
            assert!(same(&got, &unfolded), "unfold {what}");
            let mut got = vec![T::default(); input.len()];
            fold1d_windows(&grad, bsz, len, channels, kw, &mut got);
            assert!(same(&got, &folded), "fold {what}");
        }
    }

    #[test]
    fn unfold_fold_match_their_index_formulas_bitwise() {
        check_unfold_fold_against_index_formulas::<f64>(f64::to_bits);
        check_unfold_fold_against_index_formulas::<f32>(|x| x.to_bits().into());
    }

    #[test]
    fn into_kernels_match_allocating_kernels_bitwise() {
        let a = t(5, 7);
        let b = t(5, 7);
        let cases: Vec<(&str, Tensor, Tensor)> = vec![
            ("add", a.add(&b), {
                let mut o = Tensor::zeros(5, 7);
                a.add_into(&b, &mut o);
                o
            }),
            ("sub", a.sub(&b), {
                let mut o = Tensor::zeros(5, 7);
                a.sub_into(&b, &mut o);
                o
            }),
            ("mul", a.mul(&b), {
                let mut o = Tensor::zeros(5, 7);
                a.mul_into(&b, &mut o);
                o
            }),
            ("scale", a.scale(-1.37), {
                let mut o = Tensor::zeros(5, 7);
                a.scale_into(-1.37, &mut o);
                o
            }),
            ("add_scalar", a.add_scalar(0.77), {
                let mut o = Tensor::zeros(5, 7);
                a.add_scalar_into(0.77, &mut o);
                o
            }),
        ];
        for (name, want, got) in cases {
            assert_eq!(want.shape(), got.shape(), "{name}: shape");
            for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
                assert_eq!(w.to_bits(), g.to_bits(), "{name}: value drift");
            }
        }
    }

    #[test]
    fn copy_into_reshapes() {
        let a = t(2, 6);
        let mut o = Tensor::zeros(3, 4);
        a.copy_into(&mut o);
        assert_eq!(o.as_slice(), a.as_slice());
        assert_eq!(o.shape(), (3, 4));
    }

    #[test]
    #[should_panic(expected = "output shape")]
    fn shape_mismatch_panics() {
        let a = t(2, 2);
        let mut o = Tensor::zeros(2, 3);
        a.add_into(&a.clone(), &mut o);
    }
}
