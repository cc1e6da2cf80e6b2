//! Autograd-graph memory metering (Table 3 of the paper).
//!
//! The paper measures device memory during forward + loss + backward with
//! and without the PDE loss, showing that the higher-order autograd graph
//! dominates (0.05 GB → 0.5 GB at 5 domains; OOM at 640 domains with PDE
//! loss on a 16 GB V100). Here the same quantity is exact: the arena graph
//! knows precisely how many bytes its node values hold.
//!
//! The meter runs the paper's form of the PDE loss,
//! [`pde_loss_triple_backward`], whose three chained backward passes are
//! what PyTorch's `create_graph=True` records; training runs the forward
//! Laplacian ([`crate::pde_loss`]), which records far less. Both tapes end
//! with the retaining [`Graph::grad`], so nothing is released and
//! [`Graph::bytes_allocated`] is everything the step recorded, as on
//! PyTorch's tape; it is also the step's high-water mark.

use crate::losses::{data_loss, pde_loss_triple_backward};
use mf_autodiff::Graph;
use mf_data::Batch;
use mf_nn::SdNet;

/// Measured autograd footprint for one step configuration.
#[derive(Clone, Copy, Debug)]
pub struct MemoryReport {
    /// Number of boundary conditions ("# domains" in Table 3).
    pub domains: usize,
    /// Bytes the graph recorded for forward + data loss + backward.
    pub bytes_no_pde: usize,
    /// Bytes recorded when the triple-backward PDE loss is included.
    pub bytes_with_pde: usize,
    /// Graph-attributed heap allocations during the with-PDE step.
    pub heap_allocs: u64,
}

impl MemoryReport {
    /// Ratio of with-PDE to no-PDE footprint.
    pub fn blowup(&self) -> f64 {
        self.bytes_with_pde as f64 / self.bytes_no_pde.max(1) as f64
    }
}

/// Meter the graph bytes of a full training step on `batch`, with and
/// without the paper's triple-backward PDE loss term, through
/// [`Graph::grad`] (so the table counts the final backward's adjoints too).
/// The with-PDE node count and the bytes its tape recorded before the final
/// backward are also published to the `autodiff.graph_nodes` /
/// `autodiff.graph_bytes` telemetry gauges, which a training step feeds with
/// the same quantities for its own tapes.
pub fn measure_step_memory(net: &SdNet, batch: &Batch) -> MemoryReport {
    // Without PDE loss: forward + data loss + backward to weights.
    let mut g = Graph::new();
    let bound = net.params.bind(&mut g);
    let ld = data_loss(&mut g, net, &bound, batch);
    let _ = g.grad(ld, bound.all_vars());
    let bytes_no_pde = g.bytes_allocated();
    drop(g);

    // With PDE loss: the same plus the collocation pass with its two inner
    // backward passes and the final backward to weights — the paper's tape,
    // not the forward Laplacian that training runs.
    let mut g = Graph::new();
    let bound = net.params.bind(&mut g);
    let ld = data_loss(&mut g, net, &bound, batch);
    let lp = pde_loss_triple_backward(&mut g, net, &bound, batch);
    let total = g.add(ld, lp);
    let tape_bytes = g.bytes_allocated();
    let _ = g.grad(total, bound.all_vars());
    let bytes_with_pde = g.bytes_allocated();
    let heap_allocs = g.heap_allocs();

    let m = crate::step::train_metrics();
    m.graph_nodes.update(|v| v.max(g.len() as f64));
    m.graph_bytes.update(|v| v.max(tape_bytes as f64));
    m.bytes_peak.update(|v| v.max(bytes_with_pde as f64));

    MemoryReport {
        domains: batch.batch_size(),
        bytes_no_pde,
        bytes_with_pde,
        heap_allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_data::{BatchSampler, Dataset, SubdomainSpec};
    use mf_nn::{SdNet, SdNetConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(domains: usize) -> (SdNet, Batch) {
        let ds = Dataset::generate(SubdomainSpec { m: 9, spatial: 0.5 }, domains, 0);
        let mut bs = BatchSampler::new(domains, 6, 6, 0);
        let idx: Vec<usize> = (0..domains).collect();
        let batch = bs.make_batch(&ds, &idx);
        let mut cfg = SdNetConfig::small(32);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![12, 12];
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
        (net, batch)
    }

    #[test]
    fn pde_loss_inflates_memory() {
        // Table 3's qualitative claim: the PDE loss multiplies the
        // autograd footprint several times over.
        let (net, batch) = setup(2);
        let r = measure_step_memory(&net, &batch);
        assert!(r.bytes_with_pde > r.bytes_no_pde);
        assert!(r.blowup() > 3.0, "blowup only {:.2}x", r.blowup());
    }

    #[test]
    fn memory_grows_with_domain_count() {
        let (net, b1) = setup(1);
        let (_, b4) = setup(4);
        let r1 = measure_step_memory(&net, &b1);
        let r4 = measure_step_memory(&net, &b4);
        assert!(r4.bytes_with_pde > 2 * r1.bytes_with_pde);
        assert_eq!(r1.domains, 1);
        assert_eq!(r4.domains, 4);
    }
}
