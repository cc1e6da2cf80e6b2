//! Axis, broadcast and block operations.
//!
//! These are the structural operations behind SDNet's *input-split* layer
//! (§3.2 of the paper) and the Mosaic Flow predictor's boundary bookkeeping:
//! grouped row repetition/summation implement the broadcasted sum
//! `ĝW₁ᵀ ⊕ XW₂ᵀ`, and the column slice/concat pair supports the
//! *input-concat* baseline and extracting ∂u/∂x, ∂u/∂y columns from
//! gradient tensors.
//!
//! Each allocating name here is sugar over its `_into` kernel in
//! `inplace.rs`: it sizes a zeroed output, calls the kernel and
//! returns the output. The loops, and every shape check that does not
//! decide the output size, live there once; only `sum_axis1` and `vstack`,
//! which have no `_into` form, are written out here.

use crate::Tensor;

impl Tensor {
    /// Sum over rows, producing a `1×cols` row vector.
    pub fn sum_axis0(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols());
        self.sum_axis0_into(&mut out);
        out
    }

    /// Sum over columns, producing a `rows×1` column vector.
    pub fn sum_axis1(&self) -> Tensor {
        Tensor::from_fn(self.rows(), 1, |r, _| self.row(r).iter().sum())
    }

    /// Add a `1×cols` row vector to every row.
    pub fn broadcast_row_add(&self, row: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), self.cols());
        self.broadcast_row_add_into(row, &mut out);
        out
    }

    /// Repeat every row `q` times consecutively: `[B, d] -> [B*q, d]`.
    ///
    /// This is the broadcast half of the input-split optimization: each
    /// boundary embedding row is shared by the `q` query points of that
    /// boundary without materializing the replicated boundary matrix `G`.
    pub fn repeat_rows(&self, q: usize) -> Tensor {
        let mut out = Tensor::zeros(self.rows() * q, self.cols());
        self.repeat_rows_into(q, &mut out);
        out
    }

    /// Sum consecutive groups of `q` rows: `[B*q, d] -> [B, d]`.
    ///
    /// The adjoint of [`Tensor::repeat_rows`].
    pub fn sum_groups(&self, q: usize) -> Tensor {
        assert!(q > 0, "sum_groups: q must be positive");
        let mut out = Tensor::zeros(self.rows() / q, self.cols());
        self.sum_groups_into(q, &mut out);
        out
    }

    /// Copy of columns `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), len);
        self.slice_cols_into(start, len, &mut out);
        out
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        let mut out = Tensor::zeros(len, self.cols());
        self.slice_rows_into(start, len, &mut out);
        out
    }

    /// Horizontal concatenation: `[r×c1] ++ [r×c2] -> [r×(c1+c2)]`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), self.cols() + other.cols());
        self.concat_cols_into(other, &mut out);
        out
    }

    /// Vertical concatenation: `[r1×c]` on top of `[r2×c]`.
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows() + other.rows(), self.cols());
        self.concat_rows_into(other, &mut out);
        out
    }

    /// Stack a list of same-width tensors vertically.
    pub fn vstack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack: empty input");
        let cols = parts[0].cols();
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols(), cols, "vstack: column mismatch");
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Embed this tensor as columns `[start, start+cols)` of a wider
    /// zero matrix with `total` columns (adjoint of [`Tensor::slice_cols`]).
    pub fn pad_cols(&self, start: usize, total: usize) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), total);
        self.pad_cols_into(start, total, &mut out);
        out
    }

    /// Embed this tensor as rows `[start, start+rows)` of a taller zero
    /// matrix with `total` rows (adjoint of [`Tensor::slice_rows`]).
    pub fn pad_rows(&self, start: usize, total: usize) -> Tensor {
        let mut out = Tensor::zeros(total, self.cols());
        self.pad_rows_into(start, total, &mut out);
        out
    }
}

/// Circular 1-D unfold (im2col) for multi-channel signals stored
/// position-major: row `b` of `input` holds `[pos0·ch0..pos0·chC, pos1·ch0..]`,
/// i.e. `len` positions × `channels` interleaved channels.
///
/// Produces a `[B·len, k·channels]` matrix whose row `(b, p)` is the window
/// of `k` positions centred at `p` (offsets `-(k-1)/2 ..= k/2`), wrapping
/// around the closed boundary curve. A GEMM of the result with a
/// `[k·channels → out_channels]` filter matrix implements circular
/// convolution; this factorization lets the autodiff engine differentiate
/// convolutions to arbitrary order through its GEMM rules.
pub fn unfold1d_circular(input: &Tensor, channels: usize, k: usize) -> Tensor {
    let (b, width) = input.shape();
    assert!(k >= 1, "unfold1d_circular: kernel size must be >= 1");
    assert_eq!(
        width % channels,
        0,
        "unfold1d_circular: width not divisible by channels"
    );
    let len = width / channels;
    assert!(len >= 1, "unfold1d_circular: empty signal");
    let mut out = Tensor::zeros(b * len, k * channels);
    crate::unfold1d_circular_into(input, channels, k, &mut out);
    out
}

/// Adjoint of [`unfold1d_circular`]: scatter-add windows back onto the signal.
///
/// `grad` is `[B·len, k·channels]`; the result is `[B, len·channels]`.
pub fn fold1d_circular(grad: &Tensor, b: usize, channels: usize, k: usize) -> Tensor {
    let (rows, wk) = grad.shape();
    assert_eq!(wk, k * channels, "fold1d_circular: width mismatch");
    assert_eq!(rows % b, 0, "fold1d_circular: rows not divisible by batch");
    let len = rows / b;
    let mut out = Tensor::zeros(b, len * channels);
    crate::fold1d_circular_into(grad, b, channels, k, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_axis0_and_axis1() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.sum_axis0().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis1().as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn broadcast_row_add_works() {
        let t = Tensor::zeros(3, 2);
        let row = Tensor::row_vector(&[1.0, 2.0]);
        let out = t.broadcast_row_add(&row);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, 2.0]);
        }
    }

    #[test]
    fn repeat_then_sum_groups_scales_by_q() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let rep = t.repeat_rows(3);
        assert_eq!(rep.shape(), (6, 2));
        assert_eq!(rep.row(0), rep.row(2));
        assert_eq!(rep.row(3), &[3.0, 4.0]);
        let back = rep.sum_groups(3);
        assert!(back.allclose(&t.scale(3.0), 1e-12));
    }

    #[test]
    fn repeat_and_sum_are_adjoint() {
        // <repeat(x), y> == <x, sum_groups(y)> for all x, y.
        let x = Tensor::from_fn(2, 3, |r, c| (r + c) as f64);
        let y = Tensor::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.5);
        let lhs = x.repeat_rows(2).dot(&y);
        let rhs = x.dot(&y.sum_groups(2));
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn slice_and_pad_cols_round_trip() {
        let t = Tensor::from_fn(2, 5, |r, c| (r * 5 + c) as f64);
        let s = t.slice_cols(1, 3);
        assert_eq!(s.row(0), &[1.0, 2.0, 3.0]);
        let p = s.pad_cols(1, 5);
        assert_eq!(p.row(0), &[0.0, 1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn slice_and_pad_rows_round_trip() {
        let t = Tensor::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        let s = t.slice_rows(1, 2);
        assert_eq!(s.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        let p = s.pad_rows(1, 4);
        assert_eq!(p.row(0), &[0.0, 0.0]);
        assert_eq!(p.row(2), &[4.0, 5.0]);
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = Tensor::ones(2, 2);
        let b = Tensor::zeros(2, 1);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 1.0, 0.0]);
        let d = a.concat_rows(&Tensor::full(1, 2, 5.0));
        assert_eq!(d.shape(), (3, 2));
        assert_eq!(d.row(2), &[5.0, 5.0]);
    }

    #[test]
    fn vstack_matches_repeated_concat() {
        let a = Tensor::full(1, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        let c = Tensor::full(1, 2, 3.0);
        let v = Tensor::vstack(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(v, a.concat_rows(&b).concat_rows(&c));
    }

    #[test]
    fn unfold_single_channel_windows_wrap() {
        // Signal of 4 positions, 1 channel, kernel 3 -> window offsets -1,0,1.
        let sig = Tensor::row_vector(&[0.0, 1.0, 2.0, 3.0]);
        let u = unfold1d_circular(&sig, 1, 3);
        assert_eq!(u.shape(), (4, 3));
        assert_eq!(u.row(0), &[3.0, 0.0, 1.0]); // wraps to the left
        assert_eq!(u.row(1), &[0.0, 1.0, 2.0]);
        assert_eq!(u.row(3), &[2.0, 3.0, 0.0]); // wraps to the right
    }

    #[test]
    fn unfold_multi_channel_interleaves() {
        // 3 positions × 2 channels, kernel 1: unfold is identity per position.
        let sig = Tensor::row_vector(&[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        let u = unfold1d_circular(&sig, 2, 1);
        assert_eq!(u.shape(), (3, 2));
        assert_eq!(u.row(1), &[2.0, 20.0]);
    }

    #[test]
    fn unfold_and_fold_are_adjoint() {
        // <unfold(x), y> == <x, fold(y)>.
        let x = Tensor::from_fn(2, 8, |r, c| ((r * 8 + c) as f64).sin());
        let y = Tensor::from_fn(8, 6, |r, c| ((r * 6 + c) as f64).cos());
        let lhs = unfold1d_circular(&x, 2, 3).dot(&y);
        let rhs = x.dot(&fold1d_circular(&y, 2, 2, 3));
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn fold_of_unfold_counts_each_position_k_times() {
        let sig = Tensor::row_vector(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let u = unfold1d_circular(&sig, 1, 3);
        let f = fold1d_circular(&u, 1, 1, 3);
        assert!(f.allclose(&sig.scale(3.0), 1e-12));
    }
}
