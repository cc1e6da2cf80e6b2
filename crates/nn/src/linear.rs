//! Fully-connected layer.

use crate::params::{Bound, ParamId, Params};
use mf_autodiff::{Graph, Var};
use mf_tensor::{Layout, Tensor};
use rand::Rng;

/// `y = x·Wᵀ + b` with `W: [out×in]`, `b: [1×out]` broadcast over rows.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

/// Xavier/Glorot uniform initialization bound for a `fan_in → fan_out`
/// weight matrix.
pub(crate) fn xavier_bound(fan_in: usize, fan_out: usize) -> f64 {
    (6.0 / (fan_in + fan_out) as f64).sqrt()
}

/// A `rows×cols` tensor with entries `U(-bound, bound)`.
pub(crate) fn uniform_init(rng: &mut impl Rng, rows: usize, cols: usize, bound: f64) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
}

impl Linear {
    /// New layer with Xavier-uniform weights and zero bias.
    pub fn new(
        ps: &mut Params,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let bound = xavier_bound(in_dim, out_dim);
        let w = ps.add(
            format!("{name}.w"),
            uniform_init(rng, out_dim, in_dim, bound),
        );
        let b = bias.then(|| ps.add(format!("{name}.b"), Tensor::zeros(1, out_dim)));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight parameter id.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Bias parameter id, if the layer has one.
    pub fn bias(&self) -> Option<ParamId> {
        self.b
    }

    /// Forward pass: `x` is `[n×in]`, result `[n×out]`.
    pub fn forward(&self, g: &mut Graph, bound: &Bound, x: Var) -> Var {
        let mut y = self.tangent(g, bound, x);
        if let Some(b) = self.b {
            y = g.add_bias(y, bound.var(b));
        }
        y
    }

    /// The layer's linear part `dx·Wᵀ`, without the bias: how the layer
    /// maps a derivative of its input with respect to anything upstream.
    pub(crate) fn tangent(&self, g: &mut Graph, bound: &Bound, dx: Var) -> Var {
        assert_eq!(
            g.shape_of(dx).1,
            self.in_dim,
            "Linear::forward: expected {} input features, got {}",
            self.in_dim,
            g.shape_of(dx).1
        );
        let w = bound.var(self.w);
        g.matmul_layout(dx, Layout::Normal, w, Layout::Transposed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shape_and_bias() {
        let mut ps = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let lin = Linear::new(&mut ps, &mut rng, "l", 3, 4, true);
        // Make weights/bias deterministic.
        *ps.get_mut(lin.weight()) = Tensor::from_fn(4, 3, |r, c| (r + c) as f64);
        *ps.get_mut(lin.bias().unwrap()) = Tensor::row_vector(&[1.0, 1.0, 1.0, 1.0]);
        let mut g = Graph::new();
        let b = ps.bind(&mut g);
        let x = g.leaf(Tensor::ones(2, 3));
        let y = lin.forward(&mut g, &b, x);
        assert_eq!(g.value(y).shape(), (2, 4));
        // Row of W sums: [0+1+2, 1+2+3, 2+3+4, 3+4+5] + 1.
        assert_eq!(g.value(y).row(0), &[4.0, 7.0, 10.0, 13.0]);
    }

    #[test]
    fn xavier_init_scale_is_sane() {
        let mut ps = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let lin = Linear::new(&mut ps, &mut rng, "l", 128, 128, false);
        let w = ps.get(lin.weight());
        let bound = xavier_bound(128, 128);
        assert!(w.norm_linf() <= bound);
        // Mean near zero, at least some spread.
        assert!(w.mean().abs() < bound / 10.0);
        assert!(w.norm_l2() > 0.0);
    }

    #[test]
    fn gradient_of_weights_matches_outer_product() {
        // loss = sum(x·Wᵀ) ⇒ dW = 1ᵀ... dW[o,i] = sum_n x[n,i].
        let mut ps = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let lin = Linear::new(&mut ps, &mut rng, "l", 2, 2, false);
        let mut g = Graph::new();
        let b = ps.bind(&mut g);
        let x = g.constant(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let y = lin.forward(&mut g, &b, x);
        let loss = g.sum(y);
        let grads = g.grad(loss, b.all_vars());
        let dw = g.value(grads[0]);
        assert_eq!(dw.as_slice(), &[9.0, 12.0, 9.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn rejects_wrong_input_width() {
        let mut ps = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let lin = Linear::new(&mut ps, &mut rng, "l", 3, 2, false);
        let mut g = Graph::new();
        let b = ps.bind(&mut g);
        let x = g.leaf(Tensor::ones(1, 5));
        let _ = lin.forward(&mut g, &b, x);
    }
}
