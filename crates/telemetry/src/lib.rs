//! The instrumentation spine of the mosaic-flow workspace: one way to
//! record, one set of stores, and the exporters that read them. The other
//! observability crates are consumers (`mf-observe`: post-mortem bundles,
//! health, rendering; `mf-profile`: HTTP exposition; `mf-reqtrace`: request
//! log, SLO).
//!
//! 1. **The spine** ([`span!`], [`zone!`], [`flow`], [`event`]) — one
//!    scoped-site guard ([`Scope`]) behind two macros that differ in level,
//!    one `Copy` [`Record`], one [`Ring`], one thread context (rank,
//!    `(epoch, step)`, request) and one sink word ([`sinks`]): a site whose
//!    sinks are off costs one relaxed atomic load and evaluates no
//!    argument. See the `span` module docs for which level feeds which
//!    sink.
//! 2. **Metrics** ([`counter`], [`gauge`], [`histogram`]) — an always-on
//!    registry of named counters, gauges and fixed-bucket histograms.
//!    Values live in plain (non-atomic) thread-local storage, so each
//!    simulated rank — one thread under `Cluster::run` — accumulates its
//!    own independent set; recording is a vector index plus an add.
//! 3. **Exporters** — a human-readable summary report
//!    ([`render_report`]), a Chrome `trace_event` JSON file
//!    ([`write_chrome_trace`], [`write_trace_file`]) loadable in
//!    `chrome://tracing` / Perfetto, and OpenMetrics / JSON exposition
//!    ([`render_openmetrics`], [`render_snapshot_json`]). Every JSON
//!    document in the workspace is written by [`JsonWriter`] and read by
//!    [`JsonValue::parse`], the one codec.
//! 4. **Structured logging** ([`log!`], [`log_emit`]) — leveled JSONL
//!    diagnostics on stderr (`MF_LOG=error|warn|info|debug`), tagged with
//!    the thread's rank and, when set, the request id being handled.
//!
//! Distributed runs report without a message: every rank is a thread, so
//! `mf_dist::Cluster` takes each rank's [`snapshot`] as the rank returns and,
//! when [`set_metrics_report`] is on, prints one [`render_report`] over
//! them. Post-mortem bundles write the same snapshots with
//! [`render_openmetrics`], the format `GET /metrics` serves.
//!
//! ```
//! mf_telemetry::set_tracing(true);
//! let c = mf_telemetry::counter("demo.events");
//! {
//!     mf_telemetry::span!("demo.work", items = 3);
//!     c.add(3);
//! }
//! let spans = mf_telemetry::drain_spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "demo.work");
//! mf_telemetry::set_tracing(false);
//! ```

mod export;
mod expose;
mod json;
mod log;
mod metrics;
mod publish;
mod report;
mod ring;
mod sink;
mod span;

pub use export::{
    parse_chrome_trace, write_chrome_trace, write_chrome_trace_with_flows, write_trace_file,
    FlowEvent, FlowPhase, SpanEvent,
};
pub use expose::{render_openmetrics, render_snapshot_json, sanitize_metric_name};
pub use json::{JsonScalar, JsonValue, JsonWriter};
pub use log::{
    format_log_line, init_log_from_env, log_emit, log_enabled, set_log_level, set_log_off, Level,
};
pub use metrics::{
    counter, gauge, histogram, snapshot, Buckets, Counter, Gauge, HistSnapshot, Histogram,
    MetricValue, MetricsSnapshot,
};
pub use publish::{merged_snapshot, per_rank_snapshots, publish_lane, publish_thread};
pub use report::render_report;
pub use ring::Ring;
pub use sink::{
    clear_rings, clear_spans, current_request, drain_flight, drain_flows, drain_rings, drain_spans,
    flush_thread, reset_thread_metrics, set_current_request, set_sink, set_step_context,
    set_thread_rank, sinks, step_context, thread_rank, Kind, RankRecord, Record, RECORDER,
    REQTRACE, RING_CAPACITY, TRACE, ZONES,
};
pub use span::{event, flow, scope_args, Scope, Site, ARG_SINKS, SPAN_SINKS, ZONE_SINKS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static METRICS_REPORT: AtomicBool = AtomicBool::new(false);

/// Turn the trace sink on or off globally. Off by default.
pub fn set_tracing(on: bool) {
    if on {
        // Pin the clock epoch before the first span so timestamps are
        // comparable across threads started later.
        let _ = epoch();
    }
    set_sink(TRACE, on);
}

/// Request that every `Cluster` run print one merged per-rank metrics
/// report (the `--metrics` CLI flag). Off by default.
pub fn set_metrics_report(on: bool) {
    METRICS_REPORT.store(on, Ordering::SeqCst);
}

/// Whether a merged metrics report was requested.
pub fn metrics_report_enabled() -> bool {
    METRICS_REPORT.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide telemetry epoch (first use).
/// Monotonic and shared by all threads.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// The sink word and the collector are process-wide: unit tests that flip
/// a sink, flush or drain hold this lock, so a sibling test never sees the
/// other's setting or steals its records.
#[cfg(test)]
pub(crate) static TRACING_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let mut acc = 0u64;
        for i in 0..10_000 {
            acc = acc.wrapping_add(i);
        }
        std::hint::black_box(acc);
        let b = now_us();
        assert!(b >= a);
    }
}
