//! Observability adds no message: with every switch on (the `--metrics`
//! report, span tracing, the flight recorder, profiling zones and request
//! tracing), a distributed run sends the same messages and computes the
//! same bits as with all of them off. Its own binary because the switches
//! are process-wide; the lock keeps the two tests from flipping them under
//! each other.

use mosaic_flow::data::{Dataset, SubdomainSpec};
use mosaic_flow::dist::CommStats;
use mosaic_flow::mfp::{run_distributed, DistMfpConfig, DistMfpResult, DomainSpec, OracleSolver};
use mosaic_flow::nn::{SdNet, SdNetConfig};
use mosaic_flow::opt::LrSchedule;
use mosaic_flow::telemetry::{clear_spans, set_metrics_report, set_tracing};
use mosaic_flow::tensor::Tensor;
use mosaic_flow::train::trainer::OptKind;
use mosaic_flow::train::{train_ddp, GradSync, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

static SWITCH: Mutex<()> = Mutex::new(());

/// Flip every observability switch together.
fn observe_all(on: bool) {
    set_metrics_report(on);
    set_tracing(on);
    mosaic_flow::observe::set_recording(on);
    mosaic_flow::profile::set_enabled(on);
    mosaic_flow::reqtrace::set_enabled(on);
}

/// Run `f` with every switch off, then on; then turn them off and drop
/// the spans the traced run left behind.
fn off_then_on<T>(f: impl Fn() -> T) -> (T, T) {
    let _switch = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    observe_all(false);
    let off = f();
    observe_all(true);
    let on = f();
    observe_all(false);
    clear_spans();
    (off, on)
}

/// The counted traffic; `comm_seconds` is wall time and differs run to run.
fn counts(s: &CommStats) -> [usize; 4] {
    [s.msgs_sent, s.bytes_sent, s.msgs_recv, s.bytes_recv]
}

#[test]
fn ddp_training_counts_the_same_traffic_with_the_report_on() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let (train, val) = Dataset::generate(spec, 8, 1).split(0.75);
    let mut net_cfg = SdNetConfig::small(spec.boundary_len());
    net_cfg.conv_channels = vec![2];
    net_cfg.hidden = vec![12, 12];
    let template = SdNet::new(net_cfg, &mut ChaCha8Rng::seed_from_u64(3));
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 2,
        qd: 8,
        qc: 4,
        pde_weight: 0.05,
        schedule: LrSchedule::paper_default(4),
        opt: OptKind::Adam,
        seed: 0,
        clip_norm: None,
    };
    let (off, on) =
        off_then_on(|| train_ddp(2, &template, &train, &val, &cfg, GradSync::Fused).comm_stats);
    assert_eq!(off.len(), 2);
    assert!(off[0].msgs_sent > 0);
    for (rank, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_eq!(counts(a), counts(b), "rank {rank}");
    }
}

#[test]
fn distributed_mfp_counts_the_same_traffic_and_bits_with_the_report_on() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let d = DomainSpec::new(spec, 2, 2);
    let oracle = OracleSolver::new(spec, 1e-10);
    let coords = mosaic_flow::numerics::boundary::boundary_coords(d.ny(), d.nx());
    let h = d.h();
    let bc = Tensor::from_vec(
        1,
        coords.len(),
        coords
            .iter()
            .map(|&(j, i)| (i as f64 * h).powi(2) - (j as f64 * h).powi(2))
            .collect(),
    );
    let cfg = DistMfpConfig {
        max_iters: 40,
        tol: 1e-8,
        ..Default::default()
    };
    let (off, on): (DistMfpResult, DistMfpResult) =
        off_then_on(|| run_distributed(&oracle, &d, &bc, 2, &cfg));
    assert_eq!(off.iterations, on.iterations);
    let bits =
        |r: &DistMfpResult| -> Vec<u64> { r.grid.as_slice().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&off), bits(&on));
    assert_eq!(off.reports.len(), 2);
    for (a, b) in off.reports.iter().zip(&on.reports) {
        assert_eq!(counts(&a.comm), counts(&b.comm), "rank {} comm", a.rank);
        assert_eq!(counts(&a.halo), counts(&b.halo), "rank {} halo", a.rank);
    }
}
