//! Write-into variants of the tensor kernels, for pooled output buffers.
//!
//! Every method takes a pre-shaped output tensor (typically fresh from a
//! [`crate::BufferPool`], i.e. zero-filled) and fills it. The structural
//! kernels — `transpose`, `sum_axis0`, `broadcast_row_add`, `repeat_rows`,
//! `sum_groups`, `slice_*`, `concat_*`, `pad_*`, `unfold1d_circular`,
//! `fold1d_circular` — are written here and nowhere else: the allocating
//! name of each is `Tensor::zeros` plus the `_into` call, so an
//! allocation-lean caller gets the allocating caller's values bit for bit
//! by construction. The elementwise kernels forward to the same
//! [`crate::Backend`] call as their allocating names.
//!
//! Kernels that accumulate (`sum_axis0_into`, `sum_groups_into`,
//! `fold1d_circular_into`) or leave gaps (`pad_cols_into`, `pad_rows_into`)
//! require the output to be zeroed; the pool guarantees that. The others
//! overwrite every element.

use crate::Tensor;

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

    #[inline]
    fn assert_zip_shapes(&self, other: &Tensor, out: &Tensor, op: &str) {
        assert_eq!(self.shape(), other.shape(), "{op}: shape mismatch");
        self.assert_out_shape(out, self.rows(), self.cols(), op);
    }

    /// `out = self + other`.
    pub fn add_into(&self, other: &Tensor, out: &mut Tensor) {
        self.assert_zip_shapes(other, out, "add_into");
        crate::backend().add(self.as_slice(), other.as_slice(), out.as_mut_slice());
    }

    /// `out = self - other`.
    pub fn sub_into(&self, other: &Tensor, out: &mut Tensor) {
        self.assert_zip_shapes(other, out, "sub_into");
        crate::backend().sub(self.as_slice(), other.as_slice(), out.as_mut_slice());
    }

    /// `out = self ⊙ other`.
    pub fn mul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.assert_zip_shapes(other, out, "mul_into");
        crate::backend().mul(self.as_slice(), other.as_slice(), out.as_mut_slice());
    }

    /// `out = self * s`.
    pub fn scale_into(&self, s: f64, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "scale_into");
        crate::backend().scale(self.as_slice(), s, out.as_mut_slice());
    }

    /// `out = self + s`.
    pub fn add_scalar_into(&self, s: f64, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "add_scalar_into");
        crate::backend().add_scalar(self.as_slice(), s, out.as_mut_slice());
    }

    /// `out = tanh(self)` through the live kernel backend.
    pub fn tanh_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "tanh_into");
        crate::backend().tanh(self.as_slice(), out.as_mut_slice());
    }

    /// `out = gelu(self)` (tanh approximation) through the live backend.
    pub fn gelu_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "gelu_into");
        crate::backend().gelu(self.as_slice(), out.as_mut_slice());
    }

    /// Fused tanh backward: `out = self ⊙ (1 - t²)` where `self` is the
    /// upstream gradient and `t = tanh(x)`.
    pub fn tanh_vjp_into(&self, t: &Tensor, out: &mut Tensor) {
        self.assert_zip_shapes(t, out, "tanh_vjp_into");
        crate::backend().tanh_vjp(self.as_slice(), t.as_slice(), out.as_mut_slice());
    }

    /// `out = 1 - self²` (the sech² factor of `d tanh`).
    pub fn one_minus_sq_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "one_minus_sq_into");
        crate::backend().one_minus_sq(self.as_slice(), out.as_mut_slice());
    }

    /// Fused GELU pre-activation `√(2/π)(self + c·x3)` where `x3 = self³`.
    pub fn gelu_inner_into(&self, x3: &Tensor, out: &mut Tensor) {
        self.assert_zip_shapes(x3, out, "gelu_inner_into");
        crate::backend().gelu_inner(self.as_slice(), x3.as_slice(), out.as_mut_slice());
    }

    /// Fused GELU inner derivative `√(2/π)(1 + 3c·self)` where `self = x²`.
    pub fn gelu_du_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "gelu_du_into");
        crate::backend().gelu_du(self.as_slice(), out.as_mut_slice());
    }

    /// `out = (self + 1) / 2`, fused.
    pub fn half_one_plus_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.rows(), self.cols(), "half_one_plus_into");
        crate::backend().half_one_plus(self.as_slice(), out.as_mut_slice());
    }

    /// `out = selfᵀ`, in 32×32 blocks for cache friendliness on large
    /// tensors.
    pub fn transpose_into(&self, out: &mut Tensor) {
        self.assert_out_shape(out, self.cols(), self.rows(), "transpose_into");
        const B: usize = 32;
        let (rows, cols) = self.shape();
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for rb in (0..rows).step_by(B) {
            for cb in (0..cols).step_by(B) {
                for r in rb..(rb + B).min(rows) {
                    for c in cb..(cb + B).min(cols) {
                        dst[c * rows + r] = src[r * cols + c];
                    }
                }
            }
        }
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
    crate::backend().unfold1d(input.as_slice(), b, len, channels, k, out.as_mut_slice());
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
    crate::backend().fold1d(grad.as_slice(), b, len, channels, k, out.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(r: usize, c: usize) -> Tensor {
        Tensor::from_fn(r, c, |i, j| ((i * 13 + j * 7) as f64 * 0.37).sin())
    }

    /// The elementwise kernels reach the backend through two wrappers (`add`
    /// and `add_into`, …): both must give the same bits. (A structural
    /// kernel has one body, which
    /// `proptests::structural_ops_equal_their_index_formulas` checks.)
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
