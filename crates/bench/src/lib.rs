//! Shared harness utilities for the paper-reproduction binaries.
//!
//! Each `repro_*` binary in `src/bin/` regenerates one table or figure of
//! the paper (see DESIGN.md for the index and EXPERIMENTS.md for recorded
//! results). All binaries accept `--full` to scale from the laptop-scale
//! defaults toward paper-scale problem sizes.

pub mod gate;

use mf_data::{Dataset, SubdomainSpec};
use mf_gp::BoundarySampler;
use mf_mfp::DomainSpec;
use mf_nn::{SdNet, SdNetConfig};
use mf_numerics::boundary::grid_with_boundary;
use mf_numerics::{solve_dirichlet, Poisson};
use mf_opt::LrSchedule;
use mf_tensor::Tensor;
use mf_train::trainer::{train_single, OptKind, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Whether the binary was invoked with `--full` (paper-leaning scale).
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Handle the shared `--json PATH` flag: the path the binary should merge
/// its gate metrics into (see [`gate::write_metrics`]), or `None`.
pub fn json_out() -> Option<String> {
    std::env::args().skip_while(|a| a != "--json").nth(1)
}

/// Merge gate metrics into the `--json PATH` file, if one was given.
pub fn emit_metrics(metrics: &[(String, gate::Metric)]) {
    let Some(path) = json_out() else { return };
    match gate::write_metrics(&path, metrics) {
        Ok(()) => eprintln!("wrote {} metric(s) to {path}", metrics.len()),
        Err(e) => eprintln!("failed to write metrics to {path}: {e}"),
    }
}

/// Handle the shared observability flags, identically across every
/// `repro_*` binary:
///
/// * `--trace PATH` — enable span tracing; returns the output path to
///   hand to [`finish_trace`]. The binaries time their measured regions
///   with [`mf_telemetry::timed!`], so the printed tables and the
///   exported trace come from the same spans.
/// * `--metrics` — print the merged telemetry report to stderr at exit.
/// * `--watch` — periodic rendered reports (loss curve, step-time
///   sparklines, residual heatmap) to stderr while running.
/// * `--metrics-addr HOST:PORT` (or `MF_METRICS_ADDR`) — serve live
///   metrics over HTTP for the lifetime of the process: `GET /metrics`
///   (OpenMetrics text) and `GET /snapshot` (per-rank JSON).
/// * `MF_OBSERVE=dump[:DIR]` — write a post-mortem bundle on failure
///   (read by `mf_observe::postmortem` when a dump is due).
pub fn init_telemetry() -> Option<String> {
    if std::env::args().any(|a| a == "--metrics") {
        mf_telemetry::set_metrics_report(true);
    }
    if std::env::args().any(|a| a == "--watch") {
        mf_observe::set_watch(true);
    }
    let addr = std::env::args()
        .skip_while(|a| a != "--metrics-addr")
        .nth(1);
    if let Some(server) = mf_profile::MetricsServer::from_flag_or_env(addr.as_deref()) {
        // Repro binaries exit when done; keep the exposition thread up
        // until then so late scrapes still see the final numbers.
        server.run_forever();
    }
    let path = std::env::args().skip_while(|a| a != "--trace").nth(1);
    if path.is_some() {
        mf_telemetry::set_tracing(true);
    }
    path
}

/// Write the spans (and cross-rank flow events) recorded since
/// [`init_telemetry`] to `path` ([`mf_telemetry::write_trace_file`]). No-op
/// when `--trace` was not given.
pub fn finish_trace(path: Option<String>) {
    mf_telemetry::write_trace_file(path.as_deref());
}

/// The subdomain geometry used by the reproduction runs: 0.5×0.5 spatial,
/// 9 points per side by default, 17 with `--full` (the paper uses 32).
pub fn bench_spec() -> SubdomainSpec {
    if full_scale() {
        SubdomainSpec {
            m: 17,
            spatial: 0.5,
        }
    } else {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }
}

/// SDNet architecture used across the reproduction binaries.
pub fn bench_net_config(spec: SubdomainSpec) -> SdNetConfig {
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![4];
    cfg.hidden = if full_scale() {
        vec![64, 64, 64]
    } else {
        vec![48, 48, 48]
    };
    cfg
}

/// Train an SDNet for the reproduction runs. `samples`/`epochs` control
/// the quality-vs-time tradeoff; returns the trained network and the
/// final validation MSE.
pub fn train_sdnet(spec: SubdomainSpec, samples: usize, epochs: usize, seed: u64) -> (SdNet, f64) {
    let dataset = Dataset::generate(spec, samples, seed);
    let (train, val) = dataset.split(0.9);
    let mut net = SdNet::new(bench_net_config(spec), &mut ChaCha8Rng::seed_from_u64(seed));
    let steps = epochs * (train.len() / 8).max(1);
    let cfg = TrainConfig {
        epochs,
        batch_size: 8,
        qd: 48,
        qc: 16,
        pde_weight: 0.02,
        schedule: LrSchedule {
            max_lr: 8e-3,
            ..LrSchedule::paper_default(steps)
        },
        opt: OptKind::Adam,
        seed,
        clip_norm: None,
    };
    let logs = train_single(&mut net, &train, &val, &cfg);
    (net, logs.last().map(|l| l.val_mse).unwrap_or(f64::NAN))
}

/// A GP-sampled boundary condition for a solve domain.
pub fn gp_boundary(domain: &DomainSpec, seed: u64) -> Tensor {
    let mut sampler = BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
    sampler.sample(&mut ChaCha8Rng::seed_from_u64(seed))
}

/// Ground-truth solution of the global BVP via multigrid/SOR.
pub fn reference_solution(domain: &DomainSpec, bc: &Tensor) -> Tensor {
    let guess = grid_with_boundary(domain.ny(), domain.nx(), bc);
    let (sol, stats) = solve_dirichlet(
        &Poisson::laplace(domain.ny(), domain.nx(), domain.h()),
        &guess,
        1e-9,
    );
    assert!(stats.converged, "reference solve failed: {stats:?}");
    sol
}

/// Pretty-print a results table: header then rows of equal arity.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(header.iter().map(|s| s.to_string()).collect()));
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_spec_is_odd_and_small() {
        let s = bench_spec();
        assert!(s.m % 2 == 1);
        assert!(s.m >= 9);
    }

    #[test]
    fn gp_boundary_matches_domain_perimeter() {
        let d = DomainSpec::new(bench_spec(), 2, 1);
        let bc = gp_boundary(&d, 0);
        assert_eq!(bc.numel(), d.boundary_len());
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert_eq!(fmt_secs(0.002), "2.00ms");
        assert_eq!(fmt_secs(2e-5), "20.0us");
    }
}
