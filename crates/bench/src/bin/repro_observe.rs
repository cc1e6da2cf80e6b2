//! **Observability overhead**: the flight recorder's cost on the warm
//! training step, for the CI bench gate.
//!
//! The recorder is on by default, so its overhead budget is part of the
//! repo's performance contract: the `observe.overhead` metric is the
//! ratio of warm `mf-train` step time with the recorder enabled to the
//! time with it disabled, gated at ≤ 3% in `BENCH_baseline.json`.
//!
//! Methodology: prime the step-graph buffer pool, then interleave
//! recorder-on and recorder-off rounds (A/B/A/B…) and compare the
//! *medians* of per-round mean step times. Interleaving cancels slow
//! drift (thermal, scheduler); medians shrug off one-off outliers. A
//! run-to-run noisy ratio is expected — the baseline keeps `value: 1.0`
//! so the gate bounds the overhead itself, not its noise.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_observe [--json PATH]
//! ```

use mf_bench::*;
use mf_data::{BatchSampler, Dataset};
use mf_nn::SdNet;
use mf_opt::Sgd;
use mf_train::step::train_step_single;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const ROUNDS: usize = 9;
const STEPS_PER_ROUND: usize = 8;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Mean seconds per warm step over one round.
fn round(net: &mut SdNet, batch: &mf_data::Batch, opt: &mut Sgd) -> f64 {
    let t0 = Instant::now();
    for _ in 0..STEPS_PER_ROUND {
        train_step_single(net, batch, opt, 1e-4, 0.05);
    }
    t0.elapsed().as_secs_f64() / STEPS_PER_ROUND as f64
}

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    let ds = Dataset::generate(spec, 4, 0);
    let mut sampler = BatchSampler::new(2, 16, 16, 0);
    let batch = sampler.make_batch(&ds, &[0, 1]);
    let mut net = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(0));
    let mut opt = Sgd::new();

    // Prime the pool: the first steps allocate, later ones must not.
    for _ in 0..4 {
        train_step_single(&mut net, &batch, &mut opt, 1e-4, 0.05);
    }

    let mut on = Vec::with_capacity(ROUNDS);
    let mut off = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        mf_observe::set_recording(true);
        on.push(round(&mut net, &batch, &mut opt));
        mf_observe::set_recording(false);
        off.push(round(&mut net, &batch, &mut opt));
    }
    mf_observe::set_recording(true);

    let (t_on, t_off) = (median(on), median(off));
    let overhead = t_on / t_off;
    print_table(
        "Observability: flight-recorder overhead on the warm training step",
        &["recorder", "median step", "ratio"],
        &[
            vec!["off".into(), fmt_secs(t_off), "1.000".into()],
            vec!["on".into(), fmt_secs(t_on), format!("{overhead:.3}")],
        ],
    );
    println!(
        "\ncontract: the always-on recorder must cost <= 3% of a warm step\n\
         (ring writes are one index bump + one slot store; no heap traffic)."
    );

    emit_metrics(&[(
        "observe.overhead".to_string(),
        gate::Metric {
            value: overhead,
            tol: 0.03,
            higher_better: false,
        },
    )]);
    finish_trace(trace);
}
