//! Integration test of the live-metrics stack: a distributed solve on
//! the compiled inference plan, scraped over HTTP while it runs.
//!
//! Exercises the whole chain end to end — zone timers in the kernel hot
//! loops → per-thread histograms and time-series rings → per-rank
//! publication → merged OpenMetrics / JSON exposition over a real TCP
//! socket — and asserts the scrape is well-formed and carries the
//! per-kernel and overlap metrics the ISSUE contract names.

use mosaic_flow::mfp::{try_run_distributed, DistMfpConfig, DomainSpec, PlanSolver};
use mosaic_flow::nn::{SdNet, SdNetConfig};
use mosaic_flow::prelude::*;
use mosaic_flow::profile::{http_get, MetricsServer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn solver() -> (SubdomainSpec, PlanSolver) {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let mut cfg = SdNetConfig::small(spec.boundary_len());
    cfg.conv_channels = vec![2];
    cfg.hidden = vec![16, 16];
    // Untrained weights: the test measures plumbing, not accuracy.
    let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(0));
    assert!(InferencePlan::supports(&net));
    (spec, PlanSolver::new(net, spec))
}

/// Every non-comment OpenMetrics line is `name[{labels}] value`; names
/// start with a letter or underscore and values parse as floats.
fn assert_well_formed(body: &str) {
    assert!(body.ends_with("# EOF\n"), "missing OpenMetrics terminator");
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() || line == "# EOF" {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("malformed exposition line: {line:?}");
        });
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
            "bad metric name in line: {line:?}"
        );
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name charset in line: {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "unparseable value in line: {line:?}"
        );
    }
}

#[test]
fn metrics_endpoint_serves_kernel_histograms_mid_solve() {
    mosaic_flow::profile::set_enabled(true);
    let server = MetricsServer::start("127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    let (spec, solver) = solver();
    let domain = DomainSpec::new(spec, 2, 2);
    let mut sampler = BoundarySampler::new(domain.boundary_len(), (0.4, 0.8), (0.5, 1.0), true);
    let bc = sampler.sample(&mut ChaCha8Rng::seed_from_u64(3));

    // Run the solve on a worker thread so this thread can scrape it live.
    // tol 0.0 pins the iteration count, giving the scraper a stable window.
    let solve = std::thread::spawn(move || {
        try_run_distributed(
            &solver,
            &domain,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 60,
                tol: 0.0,
                ..Default::default()
            },
        )
    });

    // Poll /metrics while the solve runs; ranks publish after every MFP
    // iteration, so the per-kernel histograms appear long before join().
    let mut live_body = String::new();
    for _ in 0..600 {
        let (status, body) = http_get(addr, "/metrics").expect("scrape");
        assert!(status.contains("200"), "scrape status: {status}");
        assert_well_formed(&body);
        if body.contains("prof_layer_us") && body.contains("dist_overlap_ratio") {
            live_body = body;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let result = solve.join().expect("solve thread panicked");
    assert!(result.is_ok(), "solve failed: {result:?}");
    assert!(
        !live_body.is_empty(),
        "never saw prof_layer_us + dist_overlap_ratio in a mid-solve scrape"
    );

    // Final scrape: everything the contract names, in one document.
    let (status, body) = http_get(addr, "/metrics").expect("final scrape");
    assert!(status.contains("200"));
    assert_well_formed(&body);
    for kernel in ["layer", "unfold", "split_add", "plan_launch", "sweep"] {
        assert!(
            body.contains(&format!("# TYPE prof_{kernel}_us histogram")),
            "missing per-kernel histogram prof_{kernel}_us"
        );
        assert!(
            body.contains(&format!("prof_{kernel}_us_bucket{{le=\"+Inf\"}}")),
            "histogram prof_{kernel}_us lacks an +Inf bucket"
        );
    }
    assert!(body.contains("infer_pts_per_s"), "missing infer_pts_per_s");
    assert!(
        body.contains("dist_overlap_ratio"),
        "missing dist_overlap_ratio"
    );
    assert!(
        body.contains("dist_comm_wait_us"),
        "missing dist_comm_wait_us"
    );
    assert!(body.contains("dist_compute_us"), "missing dist_compute_us");

    // The JSON snapshot parses and carries per-rank sections.
    let (status, body) = http_get(addr, "/snapshot").expect("snapshot");
    assert!(status.contains("200"));
    assert!(body.contains("\"ranks\""), "snapshot lacks ranks: {body}");
    assert!(body.contains("\"merged\""), "snapshot lacks merged section");
    assert!(body.contains("\"series\""), "snapshot lacks series section");
}
