//! Activation functions applied through the autodiff graph.

use mf_autodiff::{Graph, Var};

/// Pointwise nonlinearity.
///
/// The paper uses GELU because PINN training converges better with smooth
/// activations (§3.1); Tanh is the classic PINN choice and Identity makes
/// layers linear for testing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op.
    Identity,
}

impl Activation {
    /// Apply the activation on the graph.
    pub fn apply(&self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Gelu => g.gelu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Identity => x,
        }
    }

    /// The first and second derivatives `(σ'(x), σ''(x))` on the graph, or
    /// `None` for Identity (`σ' = 1`, `σ'' = 0`).
    ///
    /// A loss built on them still backpropagates to `x`:
    /// * tanh, with `y = tanh x`: `σ' = 1 − y²`, `σ'' = −2y(1 − y²)`,
    ///   composed from differentiable primitives;
    /// * GELU: one [`Graph::gelu_deriv`] node each — with
    ///   `u = √(2/π)(x + c x³)` and `t = tanh u`,
    ///   `σ' = ½(1 + t) + ½x(1 − t²)u'` and
    ///   `σ'' = (1 − t²)(u' − x t u'² + ½x u'')`, where
    ///   `u' = √(2/π)(1 + 3c x²)` and `½x u'' = 3c√(2/π) x²` — whose VJPs
    ///   are `g·σ''` and `g·σ'''`, the analytic third derivative. That is
    ///   as far as the GELU's derivatives go: the weight gradient of a loss
    ///   on `σ''` cannot be differentiated again (it would need `σ⁗`).
    pub(crate) fn derivatives(&self, g: &mut Graph, x: Var) -> Option<(Var, Var)> {
        match self {
            Activation::Gelu => Some((g.gelu_deriv(x, 1), g.gelu_deriv(x, 2))),
            Activation::Tanh => {
                let y = g.tanh(x);
                let d1 = g.one_minus_sq(y);
                let yd1 = g.mul(y, d1);
                Some((d1, g.scale(yd1, -2.0)))
            }
            Activation::Identity => None,
        }
    }

    /// The activation as the kernel backends name it — what a graph-free
    /// caller (a compiled inference plan) hands to
    /// [`mf_tensor::Backend::layer`], which ends in the same `tanh` /
    /// `gelu` kernels `apply` reaches via the graph, so the two stay
    /// bitwise identical on any backend.
    pub fn kernel(&self) -> mf_tensor::Act {
        match self {
            Activation::Gelu => mf_tensor::Act::Gelu,
            Activation::Tanh => mf_tensor::Act::Tanh,
            Activation::Identity => mf_tensor::Act::Identity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_tensor::Tensor;

    #[test]
    fn identity_returns_same_var() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(2, 2));
        assert_eq!(Activation::Identity.apply(&mut g, x), x);
    }

    #[test]
    fn tanh_and_gelu_are_bounded_reasonably() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[-10.0, 0.0, 10.0]));
        let t = Activation::Tanh.apply(&mut g, x);
        assert!(g.value(t).norm_linf() <= 1.0);
        let e = Activation::Gelu.apply(&mut g, x);
        // GELU(x) → x for large positive x, → 0 for large negative x.
        assert!((g.value(e).get(0, 2) - 10.0).abs() < 1e-6);
        assert!(g.value(e).get(0, 0).abs() < 1e-6);
    }
}
