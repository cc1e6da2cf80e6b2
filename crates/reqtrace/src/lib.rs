//! Per-request end-to-end tracing for the serve fleet.
//!
//! The `mf-telemetry` spine answers "what is the process doing" and
//! "where does time go per kernel", mf-observe "what happened before it
//! died". This crate owns the remaining question: **what happened to
//! request #N** — where its wall time went, how its solve ended, and
//! whether the fleet is inside its objectives.
//!
//! A request's record is written once, by the serve worker: when a reply
//! goes out the worker holds every fact of the request in local variables,
//! so nothing on the solve path deposits fragments for a later join, and
//! `mf-mfp` does not know this crate exists.
//!
//! - [`TraceContext`] — a `Copy` (request id, parent span) pair minted
//!   at TCP accept (or in-process submit) and carried by value through
//!   the scheduler queue, the worker's batch and the reply.
//! - [`RequestTrace::finished`] — the worker builds the fixed-size record
//!   from the six instants that bound the request's five [`Phase`]s (so
//!   they tile its wall time by construction) and from what `Mfp::run_many`
//!   returned for it: iterations, converged, last residual.
//! - [`log_batch`] — after the batch's replies are sent, the records go
//!   into a global recent-N ring, queryable via `GET /requests`. The log
//!   stamps the two facts of the thread: the worker's rank, and one read
//!   of its flight ring over the solve interval — the
//!   `infer.plan_compile` spans sum to `plan_compile_us`, and the slowest
//!   and worst-residual request per window keep every span the spine
//!   recorded under their solve, exported as a Chrome-trace bundle
//!   (`GET /requests/exemplar`) compatible with the mf-observe Perfetto
//!   tooling. Both read empty while the flight recorder is off.
//! - [`note_serialize`] — the TCP connection thread appends its JSON
//!   render + socket write to the logged record.
//! - [`mark_warm`] / [`warm_allocs`] — the crate creates one buffer
//!   lazily, the log ring's storage; workers [`reserve`] it at start, and
//!   a first touch after `mark_warm` is counted (the `reqtrace.warm_allocs`
//!   bench metric holds it at 0).
//! - SLO health ([`SloConfig`], [`report_health`], [`healthz`],
//!   [`readyz`]) — burn-rate tracking over the serve layer's latency
//!   reservoir and counters, exposed on the mf-profile [`MetricsServer`]
//!   via [`install_routes`].
//!
//! Tracing is on by default and costs one relaxed atomic load of the
//! spine's sink word per batch when disabled ([`set_enabled`]).
//!
//! [`MetricsServer`]: mf_profile::MetricsServer

#![warn(missing_docs)]

mod context;
mod reqlog;
mod slo;

pub use context::{next_id, TraceContext};
pub use reqlog::{
    completed, log_batch, mark_warm, note_serialize, recent, render_exemplar_trace,
    render_requests_json, reserve, reset_warm_allocs, warm_allocs, Phase, RequestTrace, SpanRec,
    EXEMPLAR_WINDOW, MAX_SPANS, RECENT_CAP,
};
pub use slo::{burns, healthz, ready, readyz, report_health, set_ready, set_slo, slo, SloConfig};

/// Turn request tracing on or off globally. On by default; logging a
/// batch is a no-op behind one relaxed load when off.
pub fn set_enabled(on: bool) {
    mf_telemetry::set_sink(mf_telemetry::REQTRACE, on);
}

/// Whether request tracing is enabled.
#[inline]
pub fn enabled() -> bool {
    mf_telemetry::sinks() & mf_telemetry::REQTRACE != 0
}

/// Install this crate's endpoints on every [`mf_profile::MetricsServer`]
/// in the process:
///
/// - `GET /requests` — recent completed request records (JSON).
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
