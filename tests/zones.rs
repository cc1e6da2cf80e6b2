//! Kernel zones of a fanned-out plan launch are counted on every lane.
//! One test, alone in its process: the zone histograms are read from the
//! process-wide published slots, which only this test may write.

use mosaic_flow::prelude::*;
use mosaic_flow::telemetry::{merged_snapshot, publish_thread, MetricValue};
use mosaic_flow::tensor::par;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn zone_count(name: &str) -> u64 {
    match merged_snapshot().get(name) {
        Some(MetricValue::Histogram(h)) => h.count,
        _ => 0,
    }
}

#[test]
fn kernel_zones_count_every_block_on_every_lane() {
    // The benchmark network at its largest sweep group: five fused layers
    // (conv, split projection, two trunk layers, head), one unfold and one
    // split combine per block.
    const LAYERS: u64 = 5;
    const LAUNCHES: u64 = 25;
    let mut cfg = SdNetConfig::small(32);
    cfg.conv_channels = vec![4];
    cfg.hidden = vec![48, 48, 48];
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let bounds = Tensor::from_fn(64, 32, |_, _| rng.gen_range(-1.0..1.0));
    let pts = Tensor::from_fn(13, 2, |_, _| rng.gen_range(0.0..0.5));
    let plan = InferencePlan::compile(&net, &pts);

    // Two lanes whatever the host has, so the launch is shared out.
    let blocks = par::with_pool_width(2, || {
        let blocks = plan.launch_blocks(64) as u64;
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(64 * 13, 1);
        for _ in 0..LAUNCHES {
            plan.execute_into(&mut ws, &bounds, &mut out);
        }
        blocks
    });
    assert!(blocks >= 2, "the launch must fan out, got {blocks} block");
    // The worker lane published before each of its blocks counted as done;
    // this thread's zones are its own to publish.
    publish_thread();

    assert_eq!(zone_count("prof.plan_launch_us"), LAUNCHES);
    assert_eq!(zone_count("prof.unfold_us"), LAUNCHES * blocks);
    assert_eq!(zone_count("prof.split_add_us"), LAUNCHES * blocks);
    assert_eq!(zone_count("prof.layer_us"), LAUNCHES * blocks * LAYERS);
}
