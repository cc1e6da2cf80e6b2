//! The distributed MFP's stall watchdog, end to end: a run that keeps
//! sweeping past its fixed point must trip it, count the trip in
//! `mfp.stalls` and record an `mfp.stall` flight event naming the
//! iteration it tripped at.
//!
//! Its own test binary: rank ids are reused across cluster runs, so a
//! sibling test's ranks flushing at the same time would replace the rings
//! read here.

use mf_data::SubdomainSpec;
use mf_mfp::{run_distributed, DistMfpConfig, DomainSpec, OracleSolver};
use mf_telemetry::Kind;
use mf_tensor::Tensor;

#[test]
fn a_solve_past_its_fixed_point_trips_the_stall_watchdog() {
    let spec = SubdomainSpec { m: 9, spatial: 0.5 };
    let domain = DomainSpec::new(spec, 2, 2);
    let oracle = OracleSolver::new(spec, 1e-10);
    let n = domain.boundary_len();
    let bc = Tensor::from_fn(1, n, |_, k| (k as f64 / n as f64 * 6.0).sin());
    mf_telemetry::drain_rings();
    // `tol: 0` never stops the run: the accelerated iteration reaches its
    // fixed point in a few dozen sweeps and then plateaus at round-off.
    let max_iters = 80;
    let run = run_distributed(
        &oracle,
        &domain,
        &bc,
        2,
        &DistMfpConfig {
            max_iters,
            tol: 0.0,
            ..Default::default()
        },
    );
    assert_eq!(run.iterations, max_iters);
    let rings = mf_telemetry::drain_rings();
    assert_eq!(rings.len(), 2, "one flushed ring per rank");
    for (rank, ring) in rings {
        let stalls = ring.metrics.counter("mfp.stalls");
        assert!(stalls >= 1, "rank {rank}: the watchdog never tripped");
        let events: Vec<_> = ring
            .events
            .iter()
            .filter(|e| e.kind == Kind::Event && e.name == "mfp.stall")
            .collect();
        assert!(!events.is_empty(), "rank {rank}: no mfp.stall event");
        assert!(events.len() as u64 <= stalls, "rank {rank}");
        for e in events {
            // The event names the iteration count at the check that
            // tripped; the step context is that iteration's 0-based index.
            assert_eq!(e.a, e.step + 1, "rank {rank}: {e:?}");
            assert!((5..=max_iters as u64).contains(&e.a), "rank {rank}: {e:?}");
        }
    }
}
