//! **Figure 5**: SDNet inference and training throughput vs batch size,
//! optimized (input-split) model vs baseline (input-concat) model.
//!
//! The paper shows the split-layer model sustaining much higher
//! points/second and scaling to 5× larger batches before memory limits
//! (concat OOMs at 10k points, split reaches 50k). This binary sweeps the
//! batch size, measures points/s for inference and for a full
//! physics-informed training step, and reports the autograd bytes that
//! determine the memory ceiling.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_fig5 [--full] [--trace out.json]
//! ```

use mf_autodiff::Graph;
use mf_bench::*;
use mf_data::{Batch, BatchSampler, Dataset};
use mf_nn::{EmbeddingKind, SdNet};
use mf_tensor::Tensor;
use mf_train::local_gradients;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Points per boundary for a target total batch of points.
const BOUNDARIES: usize = 8;

fn nets(spec: mf_data::SubdomainSpec) -> (SdNet, SdNet) {
    let cfg = bench_net_config(spec);
    let split = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
    let mut concat = split.clone();
    concat.config_mut().embedding = EmbeddingKind::Concat;
    (split, concat)
}

fn time_inference(net: &SdNet, boundaries: &Tensor, q: usize, reps: usize) -> (f64, usize) {
    let pts = Tensor::from_fn(BOUNDARIES * q, 2, |r, c| {
        0.03 * ((r * 2 + c) as f64).sin().abs() + 0.1
    });
    // Measure graph bytes once.
    let bytes = {
        let mut g = Graph::new();
        let bound = net.params.bind(&mut g);
        let gb = g.constant(boundaries.clone());
        let x = g.constant(pts.clone());
        let _ = net.forward(&mut g, &bound, gb, x, q);
        g.bytes_allocated()
    };
    let (_, secs) = mf_telemetry::timed!("fig5.inference", || {
        for _ in 0..reps {
            let _ = net.predict(boundaries, &pts, q);
        }
    });
    (secs / reps as f64, bytes)
}

fn time_train_step(net: &SdNet, batch: &Batch, reps: usize) -> (f64, usize) {
    // Bytes of both passes (the paper's memory axis).
    let (_, _, stats) = local_gradients(net, batch, 1.0);
    let (_, secs) = mf_telemetry::timed!("fig5.train_step", || {
        for _ in 0..reps {
            let _ = local_gradients(net, batch, 1.0);
        }
    });
    (secs / reps as f64, stats.graph_bytes)
}

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    let (split, concat) = nets(spec);
    let ds = Dataset::generate(spec, BOUNDARIES, 0);
    let batch_points: Vec<usize> = if full_scale() {
        vec![100, 500, 1_000, 5_000, 10_000, 20_000, 50_000]
    } else {
        vec![100, 500, 1_000, 5_000, 10_000]
    };

    println!("Figure 5 reproduction: split vs concat embedding throughput");
    println!(
        "({} boundary conditions per batch; inference = forward only,",
        BOUNDARIES
    );
    println!(" training = data pass + PDE double-backward pass)");

    let boundaries = Tensor::vstack(
        &ds.samples
            .iter()
            .take(BOUNDARIES)
            .map(|s| s.boundary.clone())
            .collect::<Vec<_>>(),
    );

    // Inference sweep.
    let mut rows = Vec::new();
    for &pts in &batch_points {
        let q = (pts / BOUNDARIES).max(1);
        let reps = (20_000 / pts).clamp(1, 50);
        let (ts, bs) = time_inference(&split, &boundaries, q, reps);
        let (tc, bcat) = time_inference(&concat, &boundaries, q, reps);
        rows.push(vec![
            (q * BOUNDARIES).to_string(),
            format!("{:.0}", q as f64 * BOUNDARIES as f64 / ts),
            format!("{:.0}", q as f64 * BOUNDARIES as f64 / tc),
            format!("{:.2}x", ts.recip() / tc.recip()),
            format!("{:.1} MB", bs as f64 / 1e6),
            format!("{:.1} MB", bcat as f64 / 1e6),
        ]);
    }
    print_table(
        "Fig 5a: inference",
        &[
            "points",
            "split pts/s",
            "concat pts/s",
            "speedup",
            "split mem",
            "concat mem",
        ],
        &rows,
    );

    // Training sweep (smaller sizes: the autograd graph is the limiter,
    // exactly the paper's point).
    let train_points: Vec<usize> = batch_points
        .iter()
        .map(|p| p / 5)
        .filter(|&p| p >= 160)
        .collect();
    let mut rows = Vec::new();
    let mut gate_metrics = Vec::new();
    for &pts in &train_points {
        let per_boundary = (pts / BOUNDARIES / 2).max(1);
        let mut s2 = BatchSampler::new(BOUNDARIES, per_boundary, per_boundary, 0);
        let idx: Vec<usize> = (0..BOUNDARIES).collect();
        let batch = s2.make_batch(&ds, &idx);
        let reps = (1200 / pts).clamp(3, 8);
        let total = BOUNDARIES * per_boundary * 2;
        let (ts, bs) = time_train_step(&split, &batch, reps);
        let concat_batch = batch.clone();
        let (tc, bcat) = time_train_step(&concat, &concat_batch, reps);
        if Some(&pts) == train_points.last() {
            use mf_bench::gate::Metric;
            // Throughput is wall-clock noise on shared CI runners; give it
            // a wide budget. Graph bytes are deterministic.
            gate_metrics.push((
                "fig5.split_train_pts_per_s".to_string(),
                Metric {
                    value: total as f64 / ts,
                    tol: 0.5,
                    higher_better: true,
                },
            ));
            gate_metrics.push((
                "fig5.split_train_bytes".to_string(),
                Metric {
                    value: bs as f64,
                    tol: 0.15,
                    higher_better: false,
                },
            ));
        }
        rows.push(vec![
            total.to_string(),
            format!("{:.0}", total as f64 / ts),
            format!("{:.0}", total as f64 / tc),
            format!("{:.2}x", ts.recip() / tc.recip()),
            format!("{:.1} MB", bs as f64 / 1e6),
            format!("{:.1} MB", bcat as f64 / 1e6),
        ]);
    }
    print_table(
        "Fig 5b: training (physics-informed step)",
        &[
            "points",
            "split pts/s",
            "concat pts/s",
            "speedup",
            "split mem",
            "concat mem",
        ],
        &rows,
    );

    println!(
        "\nshape check vs paper: split sustains higher points/s at every batch size\n\
         and its graph bytes grow O(4N + 2q) instead of O(q(4N+2)), which is what\n\
         lets the paper's optimized model reach 50k-point batches while the\n\
         baseline OOMs at 10k."
    );
    emit_metrics(&gate_metrics);
    finish_trace(trace);
}
