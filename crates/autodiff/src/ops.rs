//! Eager primitive operations recorded on the graph.
//!
//! Each method computes the value immediately with `mf-tensor` kernels and
//! records the [`Op`] so the backward pass can differentiate it later.
//!
//! All values flow through a single evaluator ([`Graph::eval_live`]) that
//! writes into pool-recycled buffers.

use crate::graph::{Graph, Op, Var};
use mf_tensor::{fold1d_circular_into, gemm_overwrite, unfold1d_circular_into, Layout, Tensor};

// The GELU constants now live with the backend kernels in `mf-tensor`;
// re-exported here for the backward pass.
pub(crate) use mf_tensor::{GELU_C, GELU_SQRT_2_OVER_PI};

impl Graph {
    /// Evaluate `op` into a fresh (pooled) buffer. The single source of
    /// truth for primitive semantics: every eager op lands here.
    fn eval_live(&mut self, op: &Op) -> Tensor {
        match *op {
            Op::Leaf | Op::Const => {
                unreachable!("leaves and constants are recorded, never evaluated")
            }
            Op::Add(a, b) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).add_into(self.value(b), &mut out);
                out
            }
            Op::Sub(a, b) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).sub_into(self.value(b), &mut out);
                out
            }
            Op::Mul(a, b) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).mul_into(self.value(b), &mut out);
                out
            }
            Op::Neg(a) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).scale_into(-1.0, &mut out);
                out
            }
            Op::Scale(a, s) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).scale_into(s, &mut out);
                out
            }
            Op::AddScalar(a, s) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).add_scalar_into(s, &mut out);
                out
            }
            Op::MatMul(a, la, b, lb) => {
                let (ar, ac) = self.shape_of(a);
                let (br, bc) = self.shape_of(b);
                let m = match la {
                    Layout::Normal => ar,
                    Layout::Transposed => ac,
                };
                let n = match lb {
                    Layout::Normal => bc,
                    Layout::Transposed => br,
                };
                // The product is written over the recycled buffer, exactly
                // as the allocating gemm writes its fresh one.
                let mut out = self.alloc_dirty(m, n);
                gemm_overwrite(self.value(a), la, self.value(b), lb, &mut out);
                out
            }
            Op::Transpose(a) => {
                let (r, c) = self.shape_of(a);
                let mut out = self.alloc_dirty(c, r);
                self.value(a).transpose_into(&mut out);
                out
            }
            Op::SumAll(a) => {
                let s = self.value(a).sum();
                let mut out = self.alloc_dirty(1, 1);
                out.set(0, 0, s);
                out
            }
            Op::MeanAll(a) => {
                let s = self.value(a).mean();
                let mut out = self.alloc_dirty(1, 1);
                out.set(0, 0, s);
                out
            }
            Op::SumAxis0(a) => {
                let c = self.shape_of(a).1;
                let mut out = self.alloc(1, c);
                self.value(a).sum_axis0_into(&mut out);
                out
            }
            Op::BroadcastRows(a, q) | Op::RepeatRows(a, q) => {
                let (b, d) = self.shape_of(a);
                let mut out = self.alloc_dirty(b * q, d);
                self.value(a).repeat_rows_into(q, &mut out);
                out
            }
            Op::BroadcastScalar(a, r, c) => {
                let s = self.value(a).item();
                let mut out = self.alloc_dirty(r, c);
                out.as_mut_slice().fill(s);
                out
            }
            Op::SumGroups(a, q) => {
                let (bq, d) = self.shape_of(a);
                let mut out = self.alloc(bq / q, d);
                self.value(a).sum_groups_into(q, &mut out);
                out
            }
            Op::Reshape(a, rows, cols) => {
                let mut out = self.alloc_dirty(rows, cols);
                self.value(a).copy_into(&mut out);
                out
            }
            Op::SliceCols(a, start, len) => {
                let r = self.shape_of(a).0;
                let mut out = self.alloc_dirty(r, len);
                self.value(a).slice_cols_into(start, len, &mut out);
                out
            }
            Op::PadCols(a, start, total) => {
                let r = self.shape_of(a).0;
                let mut out = self.alloc(r, total);
                self.value(a).pad_cols_into(start, total, &mut out);
                out
            }
            Op::SliceRows(a, start, len) => {
                let c = self.shape_of(a).1;
                let mut out = self.alloc_dirty(len, c);
                self.value(a).slice_rows_into(start, len, &mut out);
                out
            }
            Op::PadRows(a, start, total) => {
                let c = self.shape_of(a).1;
                let mut out = self.alloc(total, c);
                self.value(a).pad_rows_into(start, total, &mut out);
                out
            }
            Op::ConcatCols(a, b) => {
                let (r, ca) = self.shape_of(a);
                let cb = self.shape_of(b).1;
                let mut out = self.alloc_dirty(r, ca + cb);
                self.value(a).concat_cols_into(self.value(b), &mut out);
                out
            }
            Op::ConcatRows(a, b) => {
                let (ra, c) = self.shape_of(a);
                let rb = self.shape_of(b).0;
                let mut out = self.alloc_dirty(ra + rb, c);
                self.value(a).concat_rows_into(self.value(b), &mut out);
                out
            }
            Op::Unfold1d(a, channels, k) => {
                let (b, width) = self.shape_of(a);
                let len = width / channels;
                let mut out = self.alloc_dirty(b * len, k * channels);
                unfold1d_circular_into(self.value(a), channels, k, &mut out);
                out
            }
            Op::Fold1d(a, b, channels, k) => {
                let rows = self.shape_of(a).0;
                let len = rows / b;
                let mut out = self.alloc(b, len * channels);
                fold1d_circular_into(self.value(a), b, channels, k, &mut out);
                out
            }
            Op::Tanh(a) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).tanh_into(&mut out);
                out
            }
            Op::Exp(a) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).map_into(&mut out, f64::exp);
                out
            }
            Op::Sin(a) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).map_into(&mut out, f64::sin);
                out
            }
            Op::Cos(a) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).map_into(&mut out, f64::cos);
                out
            }
            Op::Gelu(a) => {
                let mut out = self.alloc_like_dirty(a);
                self.value(a).gelu_into(&mut out);
                out
            }
            Op::AddAcc(ref inputs) => {
                // Incremental accumulation: copy the first contribution and
                // add_assign the rest, matching both the zip-add of the
                // two-input case and the in-place extension path bitwise.
                let first = inputs[0];
                let mut out = self.alloc_like_dirty(first);
                self.value(first).copy_into(&mut out);
                for &inp in &inputs[1..] {
                    out.add_assign(self.value(inp));
                }
                out
            }
            Op::AddBias(x, b) => {
                let mut out = self.alloc_like_dirty(x);
                self.value(x)
                    .broadcast_row_add_into(self.value(b), &mut out);
                out
            }
            Op::TanhVjp(gv, y) => {
                let mut out = self.alloc_like_dirty(gv);
                self.value(gv).tanh_vjp_into(self.value(y), &mut out);
                out
            }
            Op::OneMinusSq(y) => {
                let mut out = self.alloc_like_dirty(y);
                self.value(y).one_minus_sq_into(&mut out);
                out
            }
            Op::GeluInner(x, x3) => {
                let mut out = self.alloc_like_dirty(x);
                self.value(x).gelu_inner_into(self.value(x3), &mut out);
                out
            }
            Op::GeluDu(x2) => {
                let mut out = self.alloc_like_dirty(x2);
                self.value(x2).gelu_du_into(&mut out);
                out
            }
            Op::HalfOnePlus(t) => {
                let mut out = self.alloc_like_dirty(t);
                self.value(t).half_one_plus_into(&mut out);
                out
            }
            Op::GeluDeriv(x, k) => {
                let mut out = self.alloc_like_dirty(x);
                self.value(x).gelu_deriv_into(k, &mut out);
                out
            }
        }
    }

    /// [`Graph::alloc_dirty`] with the shape of `a`. Every arm above that
    /// uses this writes each output element exactly once; the arms that
    /// accumulate (`Fold1d`, axis sums) or rely on zero padding
    /// (`PadCols`/`PadRows`) stay on the zeroed [`Graph::alloc`].
    fn alloc_like_dirty(&mut self, a: Var) -> Tensor {
        let (r, c) = self.shape_of(a);
        self.alloc_dirty(r, c)
    }

    fn record(&mut self, op: Op) -> Var {
        let v = self.eval_live(&op);
        self.push_op(op, v)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Add(a, b))
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Sub(a, b))
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Mul(a, b))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.record(Op::Neg(a))
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        self.record(Op::Scale(a, s))
    }

    /// Add a scalar constant.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        self.record(Op::AddScalar(a, s))
    }

    /// Elementwise square, recorded as `a * a`.
    pub fn square(&mut self, a: Var) -> Var {
        self.mul(a, a)
    }

    /// Dense matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.matmul_layout(a, Layout::Normal, b, Layout::Normal)
    }

    /// Dense matrix product with explicit operand layouts.
    pub fn matmul_layout(&mut self, a: Var, la: Layout, b: Var, lb: Layout) -> Var {
        self.record(Op::MatMul(a, la, b, lb))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        self.record(Op::Transpose(a))
    }

    /// Sum of all elements (`1×1` result).
    pub fn sum(&mut self, a: Var) -> Var {
        self.record(Op::SumAll(a))
    }

    /// Mean of all elements (`1×1` result).
    pub fn mean(&mut self, a: Var) -> Var {
        self.record(Op::MeanAll(a))
    }

    /// Sum over rows: `[q,d] → [1,d]`.
    pub fn sum_axis0(&mut self, a: Var) -> Var {
        self.record(Op::SumAxis0(a))
    }

    /// Broadcast a `1×d` row to `q×d`.
    pub fn broadcast_rows(&mut self, a: Var, q: usize) -> Var {
        assert_eq!(
            self.shape_of(a).0,
            1,
            "broadcast_rows: input must be a row vector"
        );
        self.record(Op::BroadcastRows(a, q))
    }

    /// Broadcast a `1×1` scalar to `r×c`.
    pub fn broadcast_scalar(&mut self, a: Var, r: usize, c: usize) -> Var {
        self.record(Op::BroadcastScalar(a, r, c))
    }

    /// Repeat each row `q` times consecutively: `[B,d] → [B·q,d]`.
    ///
    /// This is the broadcast in the paper's input-split layer (eq. 8): the
    /// per-boundary embedding is shared across that boundary's `q` query
    /// points.
    pub fn repeat_rows(&mut self, a: Var, q: usize) -> Var {
        self.record(Op::RepeatRows(a, q))
    }

    /// Sum consecutive groups of `q` rows: `[B·q,d] → [B,d]`.
    pub fn sum_groups(&mut self, a: Var, q: usize) -> Var {
        self.record(Op::SumGroups(a, q))
    }

    /// Metadata reshape.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        self.record(Op::Reshape(a, rows, cols))
    }

    /// Columns `[start, start+len)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        self.record(Op::SliceCols(a, start, len))
    }

    /// Embed as columns `[start, …)` of a width-`total` zero matrix.
    pub fn pad_cols(&mut self, a: Var, start: usize, total: usize) -> Var {
        self.record(Op::PadCols(a, start, total))
    }

    /// Rows `[start, start+len)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        self.record(Op::SliceRows(a, start, len))
    }

    /// Embed as rows `[start, …)` of a height-`total` zero matrix.
    pub fn pad_rows(&mut self, a: Var, start: usize, total: usize) -> Var {
        self.record(Op::PadRows(a, start, total))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::ConcatCols(a, b))
    }

    /// Vertical concatenation `[a; b]`.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::ConcatRows(a, b))
    }

    /// Circular 1-D unfold (im2col) of a position-major multi-channel signal.
    pub fn unfold1d(&mut self, a: Var, channels: usize, k: usize) -> Var {
        self.record(Op::Unfold1d(a, channels, k))
    }

    /// Adjoint of [`Graph::unfold1d`] (scatter-add of windows).
    pub fn fold1d(&mut self, a: Var, b: usize, channels: usize, k: usize) -> Var {
        self.record(Op::Fold1d(a, b, channels, k))
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.record(Op::Tanh(a))
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        self.record(Op::Exp(a))
    }

    /// Elementwise `sin`.
    pub fn sin(&mut self, a: Var) -> Var {
        self.record(Op::Sin(a))
    }

    /// Elementwise `cos`.
    pub fn cos(&mut self, a: Var) -> Var {
        self.record(Op::Cos(a))
    }

    /// Mean squared error between `pred` and `target` (usually a constant).
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean(sq)
    }

    /// GELU activation (tanh approximation), recorded as a single fused
    /// node: `gelu(x) = 0.5 x (1 + tanh(√(2/π) (x + 0.044715 x³)))`.
    ///
    /// The VJP is emitted in terms of other differentiable primitives, so
    /// higher-order derivatives (the PDE loss) still work.
    pub fn gelu(&mut self, x: Var) -> Var {
        self.record(Op::Gelu(x))
    }

    /// Fused broadcast bias add: `x + broadcast_rows(b)` for `x: [q,d]`,
    /// `b: [1,d]`, in one node instead of a `BroadcastRows` + `Add` pair —
    /// the broadcasted bias matrix is never materialized. Value and
    /// gradients are bit for bit those of the pair.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        assert_eq!(self.shape_of(b).0, 1, "add_bias: bias must be a row vector");
        assert_eq!(
            self.shape_of(x).1,
            self.shape_of(b).1,
            "add_bias: column mismatch"
        );
        self.record(Op::AddBias(x, b))
    }

    /// Fused tanh backward `g · (1 − y²)` where `y = tanh(x)` (one node
    /// instead of the four-node `mul`/`neg`/`add_scalar`/`mul` chain).
    pub fn tanh_vjp(&mut self, g: Var, y: Var) -> Var {
        self.record(Op::TanhVjp(g, y))
    }

    /// Elementwise `1 − y²`, fused (the sech² factor of `d tanh`).
    pub fn one_minus_sq(&mut self, y: Var) -> Var {
        self.record(Op::OneMinusSq(y))
    }

    /// Fused GELU pre-activation `√(2/π) (x + c·x³)` from `x` and `x³`.
    pub fn gelu_inner(&mut self, x: Var, x3: Var) -> Var {
        self.record(Op::GeluInner(x, x3))
    }

    /// Fused GELU inner derivative `√(2/π) (1 + 3c·x²)` from `x²`.
    pub fn gelu_du(&mut self, x2: Var) -> Var {
        self.record(Op::GeluDu(x2))
    }

    /// Elementwise `(t + 1) / 2`, fused.
    pub fn half_one_plus(&mut self, t: Var) -> Var {
        self.record(Op::HalfOnePlus(t))
    }

    /// The `k`-th derivative of [`Graph::gelu`] at `x`, `k` = 1, 2 or 3,
    /// as one node ([`Op::GeluDeriv`]). Differentiable twice over: the
    /// gradient of `k = 3` panics.
    pub fn gelu_deriv(&mut self, x: Var, k: u8) -> Var {
        assert!(
            (1..=3).contains(&k),
            "gelu_deriv: order {k} is not 1, 2 or 3"
        );
        self.record(Op::GeluDeriv(x, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_match_tensor_kernels() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.leaf(Tensor::from_vec(2, 2, vec![0.5, 0.5, 0.5, 0.5]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).as_slice(), &[1.5, 1.5, 3.5, 3.5]);
        let m = g.mean(c);
        assert_eq!(g.value(m).item(), 2.5);
    }

    #[test]
    fn gelu_matches_reference_values() {
        // Reference values from the tanh approximation itself, hand-checked
        // against PyTorch's F.gelu(x, approximate='tanh').
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[-2.0, -1.0, 0.0, 1.0, 2.0]));
        let y = g.gelu(x);
        let got = g.value(y).as_slice().to_vec();
        let expect = [-0.045402, -0.158808, 0.0, 0.841192, 1.954598];
        for (a, b) in got.iter().zip(expect) {
            assert!((a - b).abs() < 1e-5, "gelu mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn mse_of_equal_inputs_is_zero() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones(3, 1));
        let t = g.constant(Tensor::ones(3, 1));
        let l = g.mse(a, t);
        assert_eq!(g.value(l).item(), 0.0);
    }

    #[test]
    fn slice_pad_concat_shapes() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_fn(2, 4, |r, c| (r * 4 + c) as f64));
        let s = g.slice_cols(a, 1, 2);
        assert_eq!(g.value(s).shape(), (2, 2));
        let p = g.pad_cols(s, 1, 4);
        assert_eq!(g.value(p).get(0, 0), 0.0);
        assert_eq!(g.value(p).get(0, 1), 1.0);
        let b = g.leaf(Tensor::ones(2, 1));
        let cc = g.concat_cols(a, b);
        assert_eq!(g.value(cc).shape(), (2, 5));
    }

    #[test]
    fn unfold_records_correct_value() {
        let mut g = Graph::new();
        let sig = g.leaf(Tensor::row_vector(&[0.0, 1.0, 2.0, 3.0]));
        let u = g.unfold1d(sig, 1, 3);
        assert_eq!(g.value(u).row(0), &[3.0, 0.0, 1.0]);
    }

    #[test]
    fn add_bias_matches_broadcast_add() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f64));
        let b = g.leaf(Tensor::row_vector(&[10.0, 20.0]));
        let fused = g.add_bias(x, b);
        let bb = g.broadcast_rows(b, 3);
        let unfused = g.add(x, bb);
        assert_eq!(
            g.value(fused).as_slice(),
            &[10.0, 21.0, 12.0, 23.0, 14.0, 25.0]
        );
        assert_eq!(g.value(fused), g.value(unfused));
    }

    #[test]
    fn fused_elementwise_ops_match_their_chains() {
        let mut g = Graph::new();
        let y = g.leaf(Tensor::row_vector(&[-0.9, -0.2, 0.0, 0.4, 0.8]));
        let gv = g.leaf(Tensor::row_vector(&[1.0, -2.0, 0.5, 3.0, -0.1]));
        let tv = g.tanh_vjp(gv, y);
        let om = g.one_minus_sq(y);
        let ref_tv = g.mul(gv, om);
        for (a, b) in g
            .value(tv)
            .as_slice()
            .iter()
            .zip(g.value(ref_tv).as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let hop = g.half_one_plus(y);
        let one_plus = g.add_scalar(y, 1.0);
        let ref_hop = g.scale(one_plus, 0.5);
        for (a, b) in g
            .value(hop)
            .as_slice()
            .iter()
            .zip(g.value(ref_hop).as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `x ∈ [−12, 12]` in steps of 1/64, plus `±0`.
    fn gelu_samples() -> Tensor {
        let mut xs: Vec<f64> = (-768..=768).map(|i| i as f64 / 64.0).collect();
        xs.extend([0.0, -0.0]);
        Tensor::row_vector(&xs)
    }

    /// `(σ', σ'')` of the GELU from primitive nodes, as the forward
    /// Laplacian built them before `GeluDeriv`.
    fn gelu_chain(g: &mut Graph, x: Var) -> (Var, Var) {
        let x2 = g.mul(x, x);
        let x3 = g.mul(x2, x);
        let u = g.gelu_inner(x, x3);
        let t = g.tanh(u);
        let sech2 = g.one_minus_sq(t);
        let du = g.gelu_du(x2);
        let term1 = g.half_one_plus(t);
        let half_x = g.scale(x, 0.5);
        let hs = g.mul(half_x, sech2);
        let term2 = g.mul(hs, du);
        let d1 = g.add(term1, term2);
        let du2 = g.mul(du, du);
        let xt = g.mul(x, t);
        let xtdu2 = g.mul(xt, du2);
        let inner = g.sub(du, xtdu2);
        let kx2 = g.scale(x2, 3.0 * GELU_C * GELU_SQRT_2_OVER_PI);
        let inner = g.add(inner, kx2);
        (d1, g.mul(sech2, inner))
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} elem {i}: {a:e} vs {b:e}");
        }
    }

    #[test]
    fn gelu_deriv_1_and_2_are_the_bits_of_their_chains() {
        let mut g = Graph::new();
        let x = g.leaf(gelu_samples());
        let (c1, c2) = gelu_chain(&mut g, x);
        let (d1, d2) = (g.gelu_deriv(x, 1), g.gelu_deriv(x, 2));
        assert_same_bits(g.value(d1), g.value(c1), "σ'");
        assert_same_bits(g.value(d2), g.value(c2), "σ''");
        // The second half of a lane block and a lone tail element too.
        for n in [1, 17, 33] {
            let xs = Tensor::from_fn(1, n, |_, i| i as f64 * 0.37 - 3.0);
            let mut h = Graph::new();
            let x = h.leaf(xs);
            let (c1, c2) = gelu_chain(&mut h, x);
            let (d1, d2) = (h.gelu_deriv(x, 1), h.gelu_deriv(x, 2));
            assert_same_bits(h.value(d1), h.value(c1), "σ' tail");
            assert_same_bits(h.value(d2), h.value(c2), "σ'' tail");
        }
    }

    #[test]
    fn gelu_deriv_3_is_the_chains_gradient_and_the_slope_of_order_2() {
        let xs = gelu_samples();
        let mut g = Graph::new();
        let x = g.leaf(xs.clone());
        let (_, c2) = gelu_chain(&mut g, x);
        let s = g.sum(c2);
        let oracle = g.grad(s, &[x])[0];
        let d3 = g.gelu_deriv(x, 3);
        let (got, want) = (g.value(d3), g.value(oracle));
        for (i, (&a, &b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1e-300),
                "σ''' at x = {}: {a:e} vs autodiff {b:e}",
                xs.as_slice()[i]
            );
        }
        // A central difference of σ'' (step h, error O(h²)).
        let h = 1e-5;
        let order2 = |shift: f64| {
            let mut g = Graph::new();
            let x = g.leaf(xs.add_scalar(shift));
            let d2 = g.gelu_deriv(x, 2);
            g.value(d2).clone()
        };
        let fd = order2(h).sub(&order2(-h)).scale(0.5 / h);
        for (i, (&a, &b)) in got.as_slice().iter().zip(fd.as_slice()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-8 * (1.0 + a.abs()),
                "σ''' at x = {}: {a:e} vs central difference {b:e}",
                xs.as_slice()[i]
            );
        }
    }

    #[test]
    fn gelu_deriv_vjps_are_the_next_order() {
        let mut g = Graph::new();
        let x = g.leaf(gelu_samples());
        for k in 1..=2 {
            let d = g.gelu_deriv(x, k);
            let s = g.sum(d);
            let grad = g.grad(s, &[x])[0];
            let next = g.gelu_deriv(x, k + 1);
            assert_same_bits(g.value(grad), g.value(next), "VJP");
        }
    }

    #[test]
    #[should_panic(expected = "GeluDeriv(x, 3) has no VJP")]
    fn gelu_deriv_3_cannot_be_differentiated() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[-1.0, 0.5]));
        let d3 = g.gelu_deriv(x, 3);
        let s = g.sum(d3);
        let _ = g.grad(s, &[x]);
    }
}
