//! **Table 3**: autograd-graph memory during a training step, with and
//! without the PDE loss, as the number of domains (boundary conditions per
//! batch) grows.
//!
//! The paper measures 0.05 GB → 0.503 GB at 5 domains and OOM at 640
//! domains on a 16 GB V100 once the PDE loss is enabled. Here the arena
//! graph meters its bytes exactly, so the same blowup is reported
//! per-domain-count, together with the extrapolated domain count that
//! would exhaust a 16 GB device. The first table counts the bytes the tape
//! *recorded* by the paper's triple-backward PDE loss (a tape that keeps
//! every node, as PyTorch's does); the second compares the live peaks of a
//! legacy step (the same triple backward) and of the training step, whose
//! PDE loss is a forward Laplacian.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_table3 [--full]
//! ```

use mf_autodiff::Graph;
use mf_bench::gate::Metric;
use mf_bench::*;
use mf_data::{Batch, BatchSampler, Dataset};
use mf_nn::SdNet;
use mf_train::{data_loss, local_gradients, measure_step_memory, pde_loss_triple_backward};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One training step the way `main` ran it before the allocation-lean
/// hot path: a fresh legacy graph per pass, allocate-add-replace adjoint
/// accumulation, unfused VJP chains, no buffer pool, and the paper's
/// triple-backward PDE loss on a tape that keeps every value until it is
/// dropped. Returns `(peak_bytes, heap_allocs)` with the same
/// per-pass-max / summed semantics as `StepStats`.
fn legacy_step(net: &SdNet, batch: &Batch) -> (usize, u64) {
    let mut peak = 0usize;
    let mut allocs = 0u64;
    for pass in 0..2 {
        let mut g = Graph::new_legacy();
        let bound = net.params.bind(&mut g);
        let loss = if pass == 0 {
            data_loss(&mut g, net, &bound, batch)
        } else {
            pde_loss_triple_backward(&mut g, net, &bound, batch)
        };
        let _ = g.grad(loss, bound.all_vars());
        peak = peak.max(g.peak_bytes());
        allocs += g.heap_allocs();
    }
    (peak, allocs)
}

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    let domain_counts: Vec<usize> = if full_scale() {
        vec![1, 2, 5, 10, 20, 40, 80]
    } else {
        vec![1, 2, 5, 10, 20]
    };
    let max_domains = *domain_counts.last().unwrap();

    println!("Table 3 reproduction: autograd memory vs batch domain count");
    println!("(paper: 5 domains = 0.05 GB / 0.503 GB; 640 domains OOM on 16 GB V100)");

    let ds = Dataset::generate(spec, max_domains, 0);
    let net = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(0));
    // The paper trains with hundreds of points per domain; keep the same
    // per-domain point counts across rows so memory scales with domains.
    let (qd, qc) = (64, 64);
    let mut sampler = BatchSampler::new(1, qd, qc, 0);

    let mut rows = Vec::new();
    let mut last = None;
    for &domains in &domain_counts {
        let idx: Vec<usize> = (0..domains).collect();
        let batch = sampler.make_batch(&ds, &idx);
        let r = measure_step_memory(&net, &batch);
        rows.push(vec![
            domains.to_string(),
            format!("{:.3} MB", r.bytes_no_pde as f64 / 1e6),
            format!("{:.3} MB", r.bytes_with_pde as f64 / 1e6),
            format!("{:.1}x", r.blowup()),
        ]);
        last = Some(r);
    }
    print_table(
        "Table 3: memory per training step",
        &["# domains", "no PDE loss", "with PDE loss", "blowup"],
        &rows,
    );

    // Before/after table for the allocation-lean hot path: the legacy
    // engine (fresh unpooled graph per pass, chained adjoint adds, unfused
    // VJPs, triple-backward PDE loss — what `main` ran) vs a warm training
    // step on the lean engine's persistent graph (steps 2+ of a training
    // run), whose PDE loss is the forward Laplacian.
    let mut lean_rows = Vec::new();
    let mut gate_metrics = Vec::new();
    for &domains in &domain_counts {
        let idx: Vec<usize> = (0..domains).collect();
        let batch = sampler.make_batch(&ds, &idx);
        let (legacy_peak, legacy_allocs) = legacy_step(&net, &batch);
        // Warm the pool with one step, then measure steady state.
        let _ = local_gradients(&net, &batch, 1.0);
        let (_, _, warm) = local_gradients(&net, &batch, 1.0);
        let reduction = 1.0 - warm.peak_bytes as f64 / legacy_peak as f64;
        let alloc_ratio = legacy_allocs as f64 / warm.heap_allocs.max(1) as f64;
        lean_rows.push(vec![
            domains.to_string(),
            format!("{:.3} MB", legacy_peak as f64 / 1e6),
            format!("{:.3} MB", warm.peak_bytes as f64 / 1e6),
            format!("{:.0}%", reduction * 100.0),
            legacy_allocs.to_string(),
            warm.heap_allocs.to_string(),
            if warm.heap_allocs == 0 {
                "inf".to_string()
            } else {
                format!("{alloc_ratio:.0}x")
            },
        ]);
        if domains == max_domains {
            gate_metrics.push((
                "table3.warm_peak_bytes".to_string(),
                Metric {
                    value: warm.peak_bytes as f64,
                    tol: 0.15,
                    higher_better: false,
                },
            ));
            gate_metrics.push((
                "table3.warm_heap_allocs".to_string(),
                // Steady state is exactly zero; any alloc is a regression,
                // and the relative-change math needs a nonzero-safe tol.
                Metric {
                    value: warm.heap_allocs as f64,
                    tol: 0.15,
                    higher_better: false,
                },
            ));
            gate_metrics.push((
                "table3.peak_reduction_vs_legacy".to_string(),
                Metric {
                    value: reduction,
                    tol: 0.15,
                    higher_better: true,
                },
            ));
        }
    }
    print_table(
        "Allocation-lean hot path: before (legacy engine) vs after (warm lean step)",
        &[
            "# domains",
            "peak before",
            "peak after",
            "reduction",
            "allocs before",
            "allocs after",
            "ratio",
        ],
        &lean_rows,
    );
    emit_metrics(&gate_metrics);

    if let Some(r) = last {
        // Memory grows linearly in the domain count (verified by the
        // table); extrapolate to the paper's 16 GB V100.
        let bytes_per_domain = r.bytes_with_pde as f64 / r.domains as f64;
        let v100 = 16.0 * 1e9;
        println!(
            "\nextrapolation: with the PDE loss, a 16 GB device fits ~{} domains of\n\
             this configuration before OOM (paper observed OOM at 640 domains with\n\
             its larger 32x32-resolution network).",
            (v100 / bytes_per_domain) as usize
        );
        println!(
            "shape check vs paper: PDE loss inflates memory ~{:.0}x (paper: ~10x at 5\n\
             domains, 5.5x at 320); growth in domains is linear in both.",
            r.blowup()
        );
    }
    finish_trace(trace);
}
