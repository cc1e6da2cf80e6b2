//! The two physics-informed loss terms.

use mf_autodiff::{Graph, Var};
use mf_data::Batch;
use mf_nn::{Bound, SdNet};

/// MSE between SDNet predictions and known solution values at the batch's
/// data points. Returns a scalar graph variable.
pub fn data_loss(g: &mut Graph, net: &SdNet, bound: &Bound, batch: &Batch) -> Var {
    let gb = g.constant_from(&batch.boundaries);
    let x = g.constant_from(&batch.data_points);
    let pred = net.forward(g, bound, gb, x, batch.qd);
    let target = g.constant_from(&batch.data_values);
    g.mse(pred, target)
}

/// PDE residual loss for the Laplace equation at the batch's collocation
/// points: `mean((u_xx + u_yy)²)`.
///
/// The network pushes `(u, ∇u, Δu)` forward through its layers
/// ([`SdNet::forward_laplacian`]), so the residual is a plain forward
/// pass on a constant `x` and one backward reaches the weights. The
/// paper's form of the same loss, three chained backward passes, is
/// [`pde_loss_triple_backward`]; the two agree to rounding.
pub fn pde_loss(g: &mut Graph, net: &SdNet, bound: &Bound, batch: &Batch) -> Var {
    let gb = g.constant_from(&batch.boundaries);
    let x = g.constant_from(&batch.colloc_points);
    let lap = net.forward_laplacian(g, bound, gb, x, batch.qc);
    let sq = g.mul(lap, lap);
    g.mean(sq)
}

/// [`pde_loss`] the way the paper computes it (§5.2): the model output is
/// differentiated twice with respect to its *inputs* (two backward passes
/// that each extend the autograd graph), and the resulting scalar is later
/// differentiated with respect to the weights — three chained backwards in
/// total. This is the tape whose footprint Table 3 meters
/// ([`crate::measure_step_memory`]), and the oracle the forward Laplacian
/// is tested against.
///
/// Every value the loss records stays on the tape until the weight
/// backward, as under PyTorch's `create_graph=True`.
pub fn pde_loss_triple_backward(g: &mut Graph, net: &SdNet, bound: &Bound, batch: &Batch) -> Var {
    let gb = g.constant_from(&batch.boundaries);
    // Collocation coordinates are a *leaf*: we differentiate w.r.t. them.
    let x = g.leaf_from(&batch.colloc_points);
    let u = net.forward(g, bound, gb, x, batch.qc);

    // First derivatives. Rows are independent (each output row depends
    // only on its own coordinate row), so grad(sum u) gives the per-row
    // Jacobian diagonal exactly.
    let su = g.sum(u);
    let du = g.grad(su, &[x])[0];
    let ux = g.slice_cols(du, 0, 1);
    let uy = g.slice_cols(du, 1, 1);

    // Second derivatives.
    let sux = g.sum(ux);
    let dux = g.grad(sux, &[x])[0];
    let uxx = g.slice_cols(dux, 0, 1);
    let suy = g.sum(uy);
    let duy = g.grad(suy, &[x])[0];
    let uyy = g.slice_cols(duy, 1, 1);

    let lap = g.add(uxx, uyy);
    let sq = g.mul(lap, lap);
    g.mean(sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_data::{BatchSampler, Dataset, SubdomainSpec};
    use mf_nn::{SdNet, SdNetConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_setup() -> (SdNet, Batch) {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let ds = Dataset::generate(spec, 2, 0);
        let mut bs = BatchSampler::new(2, 4, 4, 0);
        let batch = bs.make_batch(&ds, &[0, 1]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut cfg = SdNetConfig::small(spec.boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![12, 12];
        let net = SdNet::new(cfg, &mut rng);
        (net, batch)
    }

    #[test]
    fn losses_are_finite_and_positive() {
        let (net, batch) = tiny_setup();
        let mut g = Graph::new();
        let bound = net.params.bind(&mut g);
        let ld = data_loss(&mut g, &net, &bound, &batch);
        let lp = pde_loss(&mut g, &net, &bound, &batch);
        assert!(g.value(ld).item().is_finite());
        assert!(g.value(ld).item() > 0.0);
        assert!(g.value(lp).item().is_finite());
        assert!(g.value(lp).item() >= 0.0);
    }

    #[test]
    fn pde_loss_gradients_reach_weights() {
        let (net, batch) = tiny_setup();
        let mut g = Graph::new();
        let bound = net.params.bind(&mut g);
        let lp = pde_loss(&mut g, &net, &bound, &batch);
        let grads = g.grad(lp, bound.all_vars());
        let mut nonzero = 0;
        for gr in &grads {
            let n = g.value(*gr).norm_l2();
            assert!(n.is_finite());
            if n > 0.0 {
                nonzero += 1;
            }
        }
        // Most parameters must receive gradient through the Laplacian.
        assert!(
            nonzero >= grads.len() - 1,
            "only {nonzero}/{} grads nonzero",
            grads.len()
        );
    }

    #[test]
    fn pde_loss_matches_finite_difference_laplacian() {
        // Evaluate the network Laplacian by finite differences and compare
        // with the value implied by the loss at a single point.
        let (net, mut batch) = tiny_setup();
        batch.colloc_points = mf_tensor::Tensor::from_vec(2, 2, vec![0.21, 0.17, 0.33, 0.4]);
        batch.qc = 1;
        // batch has 2 boundaries with 1 collocation point each.
        let mut g = Graph::new();
        let bound = net.params.bind(&mut g);
        let lp = pde_loss(&mut g, &net, &bound, &batch);
        let loss_val = g.value(lp).item();

        // Finite-difference Laplacian per boundary.
        let h = 1e-4;
        let eval = |bidx: usize, x: f64, y: f64| -> f64 {
            let pts = mf_tensor::Tensor::from_vec(1, 2, vec![x, y]);
            let gb = mf_tensor::Tensor::from_vec(
                1,
                batch.boundaries.cols(),
                batch.boundaries.row(bidx).to_vec(),
            );
            net.predict(&gb, &pts, 1).item()
        };
        let mut acc = 0.0;
        for b in 0..2 {
            let (x, y) = (batch.colloc_points.get(b, 0), batch.colloc_points.get(b, 1));
            let lap =
                (eval(b, x + h, y) + eval(b, x - h, y) + eval(b, x, y + h) + eval(b, x, y - h)
                    - 4.0 * eval(b, x, y))
                    / (h * h);
            acc += lap * lap;
        }
        let fd_loss = acc / 2.0;
        assert!(
            (loss_val - fd_loss).abs() < 1e-3 * (1.0 + fd_loss),
            "autodiff {loss_val} vs finite-difference {fd_loss}"
        );
    }
}
