//! The oracle of the fused backward: the unfused VJP chains, built from
//! public [`Graph`] primitives on the same engine.
//!
//! The backward pass emits `g·(1 − y²)` as one `TanhVjp` node, `g·gelu'(x)`
//! as a 12-node fused chain, and `add_bias` as one node. Each performs the
//! floating-point operations of the primitive chain it replaces, in the
//! same per-element order, so derivatives through them must match the
//! chains below bit for bit to second order and to ulps at third. The
//! workspace property tests (`tests/properties.rs`) include this file too.

use crate::{Graph, Var};
use mf_tensor::{GELU_C, GELU_SQRT_2_OVER_PI};

/// `gin·(1 − y²)` for `y = tanh(x)`, in four primitive nodes.
pub fn tanh_vjp(g: &mut Graph, gin: Var, y: Var) -> Var {
    let y2 = g.mul(y, y);
    let neg_y2 = g.neg(y2);
    let one_minus = g.add_scalar(neg_y2, 1.0);
    g.mul(gin, one_minus)
}

/// `gin·gelu'(x)` with `gelu'(x) = ½(1 + t) + ½x (1 − t²)·u'(x)`,
/// `t = tanh(u)`, `u = √(2/π)(x + c x³)`, `u' = √(2/π)(1 + 3c x²)`: the
/// 18-node primitive chain, and the product.
pub fn gelu_vjp(g: &mut Graph, gin: Var, x: Var) -> Var {
    let x2 = g.mul(x, x);
    let x3 = g.mul(x2, x);
    let cx3 = g.scale(x3, GELU_C);
    let inner = g.add(x, cx3);
    let u = g.scale(inner, GELU_SQRT_2_OVER_PI);
    let t = g.tanh(u);
    let one_plus = g.add_scalar(t, 1.0);
    let term1 = g.scale(one_plus, 0.5);
    let t2 = g.mul(t, t);
    let nt2 = g.neg(t2);
    let sech2 = g.add_scalar(nt2, 1.0);
    let du_a = g.scale(x2, 3.0 * GELU_C);
    let du_b = g.add_scalar(du_a, 1.0);
    let du = g.scale(du_b, GELU_SQRT_2_OVER_PI);
    let half_x = g.scale(x, 0.5);
    let hs = g.mul(half_x, sech2);
    let term2 = g.mul(hs, du);
    let deriv = g.add(term1, term2);
    g.mul(gin, deriv)
}

/// `x + broadcast_rows(b)`: the pair [`Graph::add_bias`] fuses.
pub fn add_bias(g: &mut Graph, x: Var, b: Var) -> Var {
    let q = g.shape_of(x).0;
    let bb = g.broadcast_rows(b, q);
    g.add(x, bb)
}

/// `d/dx Σ gelu(tanh(x))`: by [`Graph::grad`] when `fused`, else from the
/// chains above, emitted in the order the reverse walk emits its own.
pub fn tanh_gelu_grad(g: &mut Graph, x: Var, fused: bool) -> Var {
    let t = g.tanh(x);
    let e = g.gelu(t);
    let s = g.sum(e);
    if fused {
        return g.grad(s, &[x])[0];
    }
    let seed = g.constant_scalar(1.0);
    let (r, c) = g.shape_of(e);
    let ge = g.broadcast_scalar(seed, r, c);
    let gt = gelu_vjp(g, ge, t);
    tanh_vjp(g, gt, t)
}
