//! **Figure 7**: MFP accuracy using SDNets trained with different device
//! counts, on growing domains with boundary `ĝ(t) = sin(2πt)`.
//!
//! The paper's claim: the small validation-MSE differences between models
//! trained on 1..32 GPUs (Fig 6) do **not** translate into MFP accuracy
//! differences — the MAE curves for all models coincide. This binary
//! trains models with 1, 2 and 4 simulated devices and runs each as the
//! MFP subdomain solver (the compiled `f32` plan) on domains of increasing
//! size.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro_fig7 [--full]
//! ```

use mf_bench::*;
use mf_data::Dataset;
use mf_mfp::{DomainSpec, Mfp, MfpConfig, PlanSolver};
use mf_nn::SdNet;
use mf_numerics::boundary::boundary_from_fn;
use mf_opt::LrSchedule;
use mf_train::trainer::{train_ddp, OptKind, TrainConfig};
use mf_train::GradSync;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let trace = init_telemetry();
    let spec = bench_spec();
    let (samples, epochs) = if full_scale() { (800, 150) } else { (320, 80) };
    let device_counts = [1usize, 2, 4];
    let domains: Vec<(usize, usize)> = if full_scale() {
        vec![(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)]
    } else {
        vec![(1, 1), (2, 1), (2, 2)]
    };

    println!("Figure 7 reproduction: MFP MAE with models trained on varying device counts");
    println!("boundary: g(t) = sin(2*pi*t) along the domain walk\n");

    let dataset = Dataset::generate(spec, samples, 0);
    let (train, val) = dataset.split(0.9);
    let template = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(0));
    let cfg = TrainConfig {
        epochs,
        batch_size: 8,
        qd: 48,
        qc: 16,
        pde_weight: 0.02,
        schedule: LrSchedule {
            max_lr: 6e-3,
            ..LrSchedule::paper_default(epochs * (train.len() / 8))
        },
        opt: OptKind::Lamb(0.0),
        seed: 0,
        clip_norm: None,
    };

    // Train one model per device count.
    let mut models: Vec<(usize, SdNet, f64)> = Vec::new();
    for &p in &device_counts {
        let res = train_ddp(p, &template, &train, &val, &cfg, GradSync::Fused);
        let mut net = template.clone();
        net.params.unflatten(&res.params_flat);
        let mse = res.logs.last().unwrap().val_mse;
        println!("trained with P={p}: final val MSE {mse:.5}");
        models.push((p, net, mse));
    }

    // Evaluate each model as the MFP subdomain solver on each domain.
    let mut rows = Vec::new();
    for &(sx, sy) in &domains {
        let domain = DomainSpec::new(spec, sx, sy);
        let bc = boundary_from_fn(domain.ny(), domain.nx(), |t| {
            (2.0 * std::f64::consts::PI * t).sin()
        });
        let reference = reference_solution(&domain, &bc);
        let mut row = vec![format!(
            "{}x{}",
            sx as f64 * spec.spatial,
            sy as f64 * spec.spatial
        )];
        for (_, net, _) in &models {
            let solver = PlanSolver::new(net.clone(), spec);
            let res = Mfp::new(&solver, domain).run(
                &bc,
                &MfpConfig {
                    max_iters: 200,
                    tol: 1e-5,
                    ..Default::default()
                },
            );
            row.push(format!("{:.4}", res.grid.mean_abs_diff(&reference)));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("domain".to_string())
        .chain(device_counts.iter().map(|p| format!("MAE (P={p})")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table("Fig 7: MFP MAE per trained model", &header_refs, &rows);

    println!(
        "\npaper's claim (compare the columns): the MAE columns agree closely for\n\
         every domain size — models trained with different device counts are\n\
         equally good subdomain solvers, despite small validation-MSE differences."
    );
    finish_trace(trace);
}
