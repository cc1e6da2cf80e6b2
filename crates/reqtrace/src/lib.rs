//! Per-request end-to-end tracing for the serve fleet.
//!
//! The `mf-telemetry` spine answers "what is the process doing" and
//! "where does time go per kernel", mf-observe "what happened before it
//! died". This crate owns the remaining question: **what happened to
//! request #N** — the request log (where its wall time went), the
//! convergence audit (how its solve converged), and SLO health (whether
//! the fleet is inside its objectives).
//!
//! Pieces:
//!
//! - [`TraceContext`] — a `Copy` (request id, parent span) pair minted
//!   at TCP accept (or in-process submit) and carried by value through
//!   the scheduler queue, the worker's batch, the MFP solve, and the
//!   reply.
//! - [`record`] + [`Phase`] — span recording into preallocated
//!   per-thread rings: the warm path is one `Copy` write, zero heap
//!   allocations (gated by the `reqtrace.warm_allocs` bench metric).
//! - Convergence audit ([`begin_batch`], [`note_slot`],
//!   [`note_plan_compile`]) — thread-local hooks the MFP
//!   solver fills in while a batch is in flight.
//! - [`drain_batch`] — the off-hot-path merge: ring records + audit
//!   scope become fixed-size [`RequestTrace`] entries in a global
//!   recent-N ring, queryable via `GET /requests`; the slowest and
//!   worst-residual request per window are kept in full and exported as
//!   a Chrome-trace bundle (`GET /requests/exemplar`) compatible with
//!   the mf-observe Perfetto tooling.
//! - SLO health ([`SloConfig`], [`report_health`], [`healthz`],
//!   [`readyz`]) — burn-rate tracking over the serve layer's latency
//!   reservoir and counters, exposed on the mf-profile [`MetricsServer`]
//!   via [`install_routes`].
//!
//! Tracing is on by default and costs one relaxed atomic load of the
//! spine's sink word when disabled ([`set_enabled`]).
//!
//! [`MetricsServer`]: mf_profile::MetricsServer

#![warn(missing_docs)]

mod audit;
mod context;
mod reqlog;
mod ring;
mod slo;

pub use audit::{
    batch_active, begin_batch, end_batch, note_plan_compile, note_slot, note_stale_halo,
    BatchAudit, SlotAudit, MAX_TRACKED,
};
pub use context::{next_id, TraceContext};
pub use reqlog::{
    completed, drain_batch, note_serialize, recent, render_exemplar_trace, render_requests_json,
    RequestMeta, RequestTrace, EXEMPLAR_WINDOW, MAX_SPANS, RECENT_CAP,
};
pub use ring::{
    dropped_records, mark_warm, record, reset_warm_allocs, warm_allocs, Phase, SpanRec,
};
pub use slo::{burns, healthz, ready, readyz, report_health, set_ready, set_slo, slo, SloConfig};

/// Tests that record spans take this in read mode; the test that flips
/// the global enable switch takes it in write mode, so parallel test
/// threads never observe tracing disabled mid-record.
#[cfg(test)]
pub(crate) static TEST_ENABLE_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Turn request tracing on or off globally. On by default; every
/// recording hook is a no-op behind one relaxed load when off.
pub fn set_enabled(on: bool) {
    mf_telemetry::set_sink(mf_telemetry::REQTRACE, on);
}

/// Whether request tracing is enabled.
#[inline]
pub fn enabled() -> bool {
    mf_telemetry::sinks() & mf_telemetry::REQTRACE != 0
}

/// Preallocate the calling thread's span ring and audit scope. Serve
/// workers call this at thread start so the one-time buffer creation
/// lands before [`mark_warm`] and the warm path stays allocation-free.
pub fn prewarm_thread() {
    ring::ensure_ring();
    audit::ensure_scope();
}

/// Install this crate's endpoints on every [`mf_profile::MetricsServer`]
/// in the process:
///
/// - `GET /requests` — recent completed request traces + convergence
///   audit (JSON).
/// - `GET /requests/exemplar` — Chrome-trace bundle of the current
///   slowest / worst-residual exemplars.
/// - `GET /healthz` — 200 while every SLO burn rate is ≤ 1, 503 when
///   degraded.
/// - `GET /readyz` — 200 once the serve layer called
///   [`set_ready`]`(true)`, 503 before.
pub fn install_routes() {
    mf_profile::register_route("/requests", || {
        (
            "200 OK",
            "application/json; charset=utf-8",
            render_requests_json(64),
        )
    });
    mf_profile::register_route("/requests/exemplar", || {
        (
            "200 OK",
            "application/json; charset=utf-8",
            render_exemplar_trace(),
        )
    });
    mf_profile::register_route("/healthz", || {
        let (healthy, body) = healthz();
        let status = if healthy {
            "200 OK"
        } else {
            "503 Service Unavailable"
        };
        (status, "application/json; charset=utf-8", body)
    });
    mf_profile::register_route("/readyz", || {
        let (ready, body) = readyz();
        let status = if ready {
            "200 OK"
        } else {
            "503 Service Unavailable"
        };
        (status, "application/json; charset=utf-8", body)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disable_switch_gates_recording() {
        let _g = TEST_ENABLE_LOCK.write().unwrap();
        std::thread::spawn(|| {
            set_enabled(false);
            assert!(!enabled());
            record(99_999_001, Phase::Queue, 0, 1);
            set_enabled(true);
            // Nothing was recorded while disabled: draining this
            // thread's ring finds no record for that id.
            let mut n = 0;
            drain_batch(&[]); // no-op, closes any stray scope
            crate::ring::drain_thread(|r| r.req == 99_999_001, |_| n += 1);
            assert_eq!(n, 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn routes_serve_health_and_requests() {
        install_routes();
        let server = mf_profile::MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = mf_profile::http_get(addr, "/requests").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("\"requests\":"));

        let (_, body) = mf_profile::http_get(addr, "/requests/exemplar").unwrap();
        assert!(body.starts_with('['), "chrome trace array: {body}");

        let (status, body) = mf_profile::http_get(addr, "/healthz").unwrap();
        assert!(body.contains("\"burns\""), "body: {body}");
        assert!(
            status.contains("200") || status.contains("503"),
            "status: {status}"
        );

        set_ready(true);
        let (status, body) = mf_profile::http_get(addr, "/readyz").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("\"ready\":true"));
    }
}
