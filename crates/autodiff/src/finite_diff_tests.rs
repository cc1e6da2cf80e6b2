//! Property-based validation of the autodiff engine against central finite
//! differences, on randomly generated MLP-like computations — the same
//! composition pattern SDNet uses (matmul + bias broadcast + tanh/GELU),
//! including the second-order derivatives needed for the PDE loss.

use crate::{Graph, Var};
use mf_tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A tiny 2-layer network: f(x) = sum(tanh(x·W1 + b1) · W2).
struct TinyNet {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
}

impl TinyNet {
    fn random(seed: u64, din: usize, hidden: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rand_t =
            |r: usize, c: usize| Tensor::from_fn(r, c, |_, _| rng.gen_range(-0.8..0.8));
        Self {
            w1: rand_t(din, hidden),
            b1: rand_t(1, hidden),
            w2: rand_t(hidden, 1),
        }
    }

    /// Forward pass on the graph; returns (scalar output, x leaf).
    fn forward(&self, g: &mut Graph, x: &Tensor, act: fn(&mut Graph, Var) -> Var) -> (Var, Var) {
        let xv = g.leaf(x.clone());
        let w1 = g.constant(self.w1.clone());
        let b1 = g.constant(self.b1.clone());
        let w2 = g.constant(self.w2.clone());
        let h = g.matmul(xv, w1);
        let q = x.rows();
        let b1b = g.broadcast_rows(b1, q);
        let h = g.add(h, b1b);
        let h = act(g, h);
        let out = g.matmul(h, w2);
        let s = g.sum(out);
        (s, xv)
    }
}

fn eval_scalar(net: &TinyNet, x: &Tensor, act: fn(&mut Graph, Var) -> Var) -> f64 {
    let mut g = Graph::new();
    let (s, _) = net.forward(&mut g, x, act);
    g.value(s).item()
}

fn act_tanh(g: &mut Graph, v: Var) -> Var {
    g.tanh(v)
}

fn act_gelu(g: &mut Graph, v: Var) -> Var {
    g.gelu(v)
}

fn check_first_order(seed: u64, act: fn(&mut Graph, Var) -> Var) {
    let net = TinyNet::random(seed, 2, 5);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
    let x = Tensor::from_fn(3, 2, |_, _| rng.gen_range(-1.0..1.0));

    let mut g = Graph::new();
    let (s, xv) = net.forward(&mut g, &x, act);
    let dx = g.grad(s, &[xv])[0];
    let analytic = g.value(dx).clone();

    let h = 1e-5;
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + h);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - h);
            let numeric = (eval_scalar(&net, &xp, act) - eval_scalar(&net, &xm, act)) / (2.0 * h);
            let a = analytic.get(r, c);
            assert!(
                (a - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "seed {seed} d/dx[{r},{c}]: analytic {a} vs numeric {numeric}"
            );
        }
    }
}

fn check_second_order(seed: u64, act: fn(&mut Graph, Var) -> Var) {
    let net = TinyNet::random(seed, 2, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1234);
    let x = Tensor::from_fn(2, 2, |_, _| rng.gen_range(-1.0..1.0));

    // Analytic: column c of grad, summed, differentiated again.
    let mut g = Graph::new();
    let (s, xv) = net.forward(&mut g, &x, act);
    let dx = g.grad(s, &[xv])[0];

    for c in 0..2 {
        let col = g.slice_cols(dx, c, 1);
        let sc = g.sum(col);
        let d2 = g.grad(sc, &[xv])[0];
        let analytic = g.value(d2).clone();

        // Numeric second derivative of f via finite difference of the
        // analytic first derivative (more stable than double FD).
        let h = 1e-5;
        for r in 0..x.rows() {
            for cc in 0..x.cols() {
                let fd = {
                    let grad_at = |xx: &Tensor| -> f64 {
                        let mut gg = Graph::new();
                        let (ss, xvv) = net.forward(&mut gg, xx, act);
                        let dxx = gg.grad(ss, &[xvv])[0];
                        // sum over rows of column c of the gradient
                        gg.value(dxx).col(c).iter().sum()
                    };
                    let mut xp = x.clone();
                    xp.set(r, cc, x.get(r, cc) + h);
                    let mut xm = x.clone();
                    xm.set(r, cc, x.get(r, cc) - h);
                    (grad_at(&xp) - grad_at(&xm)) / (2.0 * h)
                };
                let a = analytic.get(r, cc);
                assert!(
                    (a - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "seed {seed} d²/dx² col {c} [{r},{cc}]: analytic {a} vs numeric {fd}"
                );
            }
        }
    }
}

#[test]
fn first_order_matches_finite_difference_tanh() {
    for seed in 0..4 {
        check_first_order(seed, act_tanh);
    }
}

#[test]
fn first_order_matches_finite_difference_gelu() {
    for seed in 10..13 {
        check_first_order(seed, act_gelu);
    }
}

#[test]
fn second_order_matches_finite_difference_tanh() {
    for seed in 0..3 {
        check_second_order(seed, act_tanh);
    }
}

#[test]
fn second_order_matches_finite_difference_gelu() {
    check_second_order(42, act_gelu);
}

#[test]
fn laplacian_of_harmonic_polynomial_is_zero() {
    // u(x,y) = x² - y² is harmonic: u_xx + u_yy = 0. Build it on the graph
    // and verify the double-backward Laplacian is exactly zero — the same
    // code path as the paper's triple-backward physics-informed loss.
    let mut g = Graph::new();
    let pts = Tensor::from_fn(5, 2, |r, c| {
        0.1 * (r as f64 + 1.0) * if c == 0 { 1.0 } else { -0.7 }
    });
    let x = g.leaf(pts);
    let xc = g.slice_cols(x, 0, 1);
    let yc = g.slice_cols(x, 1, 1);
    let x2 = g.mul(xc, xc);
    let y2 = g.mul(yc, yc);
    let u = g.sub(x2, y2);

    let su = g.sum(u);
    let du = g.grad(su, &[x])[0];
    let ux = g.slice_cols(du, 0, 1);
    let uy = g.slice_cols(du, 1, 1);
    let sux = g.sum(ux);
    let duxx = g.grad(sux, &[x])[0];
    let suy = g.sum(uy);
    let duyy = g.grad(suy, &[x])[0];
    let uxx = g.slice_cols(duxx, 0, 1);
    let uyy = g.slice_cols(duyy, 1, 1);
    let lap = g.add(uxx, uyy);
    assert!(
        g.value(lap).norm_linf() < 1e-12,
        "Laplacian of harmonic fn must vanish"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_of_sum_of_linear_is_constant(vals in prop::collection::vec(-5.0f64..5.0, 4), k in -3.0f64..3.0) {
        // f = k * sum(x) ⇒ df/dx = k everywhere, regardless of x.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(2, 2, vals));
        let s = g.sum(x);
        let f = g.scale(s, k);
        let d = g.grad(f, &[x])[0];
        prop_assert!(g.value(d).allclose(&Tensor::full(2, 2, k), 1e-12));
    }

    #[test]
    fn product_rule_holds(a in -2.0f64..2.0, b in -2.0f64..2.0) {
        // d(ab)/da = b, d(ab)/db = a.
        let mut g = Graph::new();
        let av = g.leaf(Tensor::scalar(a));
        let bv = g.leaf(Tensor::scalar(b));
        let p = g.mul(av, bv);
        let grads = g.grad(p, &[av, bv]);
        prop_assert!((g.value(grads[0]).item() - b).abs() < 1e-12);
        prop_assert!((g.value(grads[1]).item() - a).abs() < 1e-12);
    }

    #[test]
    fn chain_rule_through_scale_and_tanh(x0 in -1.5f64..1.5, k in 0.1f64..2.0) {
        // f = tanh(kx) ⇒ f' = k(1 - tanh²(kx)).
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(x0));
        let kx = g.scale(x, k);
        let y = g.tanh(kx);
        let d = g.grad(y, &[x])[0];
        let t = (k * x0).tanh();
        prop_assert!((g.value(d).item() - k * (1.0 - t * t)).abs() < 1e-10);
    }

    #[test]
    fn gradient_is_linear_in_seed_scale(x0 in -2.0f64..2.0, alpha in -3.0f64..3.0) {
        // grad(alpha * f) = alpha * grad(f).
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(x0));
        let f = g.mul(x, x);
        let d1 = g.grad(f, &[x])[0];
        let af = g.scale(f, alpha);
        let d2 = g.grad(af, &[x])[0];
        prop_assert!((g.value(d2).item() - alpha * g.value(d1).item()).abs() < 1e-10);
    }
}
