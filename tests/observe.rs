//! Acceptance test for the observability stack: a fault-injected
//! distributed MFP run must leave behind a post-mortem bundle whose
//! merged trace connects the failing rank's last halo exchange.
//!
//! Single `#[test]` on purpose: the flight recorder, span/flow
//! collectors, and dump directory are process-wide, and this binary is
//! its own process, so the test owns that state outright.

use mosaic_flow::dist::{CrashAt, FaultPlan};
use mosaic_flow::mfp::{try_run_distributed, DistMfpConfig, DomainSpec, OracleSolver};
use mosaic_flow::numerics::boundary::boundary_coords;
use mosaic_flow::observe::{flow_dst, flow_src, postmortem};
use mosaic_flow::tensor::Tensor;

fn harmonic_bc(d: &DomainSpec) -> Tensor {
    let h = d.h();
    let f = |x: f64, y: f64| x * x - y * y + 0.25 * x;
    let coords = boundary_coords(d.ny(), d.nx());
    Tensor::from_vec(
        1,
        coords.len(),
        coords
            .iter()
            .map(|&(j, i)| f(i as f64 * h, j as f64 * h))
            .collect(),
    )
}

/// Acceptance criterion (ISSUE 4): crash a rank mid-MFP and assert —
/// programmatically, via `read_bundle` — that the bundle names the
/// failing rank, records the last step it reached, and contains at
/// least one cross-rank flow event touching that rank (its last halo
/// exchanges).
#[test]
fn crashed_mfp_run_dumps_a_bundle_naming_the_failing_rank() {
    let parent = std::env::temp_dir().join(format!("mf_observe_accept_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    std::fs::create_dir_all(&parent).unwrap();

    // Fresh process-wide state, then arm dumping and flow tracing.
    mosaic_flow::observe::clear_recorder();
    mosaic_flow::telemetry::drain_spans();
    mosaic_flow::telemetry::drain_flows();
    mosaic_flow::telemetry::set_tracing(true);
    postmortem::set_dump_dir(Some(parent.clone()));

    let spec = mosaic_flow::data::SubdomainSpec { m: 9, spatial: 0.5 };
    let d = DomainSpec::new(spec, 2, 2);
    let oracle = OracleSolver::new(spec, 1e-10);
    let bc = harmonic_bc(&d);
    let cfg = DistMfpConfig {
        max_iters: 60,
        tol: 1e-8,
        plan: FaultPlan {
            crash: Some(CrashAt {
                rank: 3,
                after_sends: 10,
            }),
            ..FaultPlan::none()
        },
        ..Default::default()
    };
    let err = try_run_distributed(&oracle, &d, &bc, 4, &cfg).unwrap_err();

    postmortem::set_dump_dir(None);
    mosaic_flow::telemetry::set_tracing(false);
    assert_eq!(err.origin(), 3, "{err}");

    // Exactly one bundle, written by the cluster-failure path.
    let bundles: Vec<_> = std::fs::read_dir(&parent)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("observe-dump-"))
        })
        .collect();
    assert_eq!(bundles.len(), 1, "expected one bundle, got {bundles:?}");

    let b = postmortem::read_bundle(&bundles[0]).unwrap();
    assert_eq!(b.reason, "cluster-failure");
    assert_eq!(
        b.failing_rank,
        Some(3),
        "summary must name the crashed rank"
    );
    assert!(
        b.detail.contains("rank 3"),
        "detail should mention the origin: {:?}",
        b.detail
    );
    assert!(
        b.config.contains("fault plan"),
        "config.txt: {:?}",
        b.config
    );

    // The failing rank's recorder was flushed and reached at least one
    // MFP iteration before dying.
    let (_, last_step) = b
        .last_step(3)
        .expect("bundle has no summary line for rank 3");
    assert!(
        b.ranks.iter().any(|r| r.rank == 3 && r.events > 0),
        "rank 3 flight-recorder ring is empty"
    );
    // Rank 3 crashes after 10 sends, so it got past iteration 0; the
    // last recorded step must be a real iteration index, not garbage.
    assert!(last_step < 60, "implausible last step {last_step}");

    // The merged trace carries flow events connecting the failing
    // rank's halo traffic: at least one send out of rank 3 and the
    // matching Start/Finish pairing survives into trace.json.
    let touching: Vec<_> = b
        .flows
        .iter()
        .filter(|f| flow_src(f.id) == 3 || flow_dst(f.id) == 3)
        .collect();
    assert!(
        !touching.is_empty(),
        "no flow events touch rank 3 (of {} total)",
        b.flows.len()
    );
    assert!(
        touching.iter().any(|f| flow_src(f.id) == 3),
        "no outbound flow from the failing rank"
    );
    // Ring events appear on the merged timeline as zero-length slices.
    assert!(
        b.spans
            .iter()
            .any(|s| s.rank == 3 && s.name.starts_with("rec.")),
        "rank 3 ring events missing from trace.json"
    );

    let _ = std::fs::remove_dir_all(&parent);
}
