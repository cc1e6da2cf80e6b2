//! Unified tracing, metrics, and profiling for the mosaic-flow workspace.
//!
//! Three layers, designed so the hot paths of the trainer, the simulated
//! collectives, and the distributed MF predictor can be instrumented once
//! and observed in several ways:
//!
//! 1. **Spans** ([`span!`], [`SpanGuard`]) — RAII-scoped trace events with
//!    monotonic microsecond timestamps, per-thread buffers, and numeric
//!    arguments. Tracing is off by default; the [`span!`] macro costs one
//!    relaxed atomic load when disabled and evaluates its arguments only
//!    when enabled.
//! 2. **Metrics** ([`counter`], [`gauge`], [`histogram`]) — an always-on
//!    registry of named counters, gauges, and fixed-bucket histograms.
//!    Values live in plain (non-atomic) thread-local storage, so each
//!    simulated rank — one thread under `Cluster::run` — accumulates its
//!    own independent set; recording is a vector index plus an add.
//! 3. **Exporters** — a human-readable summary report
//!    ([`render_report`]), a JSONL trace file ([`write_jsonl`]), and a
//!    Chrome `trace_event` JSON file ([`write_chrome_trace`]) loadable in
//!    `chrome://tracing` / Perfetto for flame-graph inspection.
//! 4. **Structured logging** ([`log!`], [`log_emit`]) — leveled JSONL
//!    diagnostics on stderr (`MF_LOG=error|warn|info|debug`), tagged with
//!    the thread's rank and, when set, the request id being handled.
//!
//! Distributed runs aggregate per-rank [`MetricsSnapshot`]s over the
//! existing communicator (see `mf_dist::gather_rank_metrics`), which uses
//! [`MetricsSnapshot::serialize`]/[`MetricsSnapshot::parse`] from this
//! crate, and emit one merged report.
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
mod flow;
mod json;
mod log;
mod metrics;
mod publish;
mod report;
mod series;
mod sink;
mod span;

pub use export::{
    parse_chrome_trace, parse_chrome_trace_full, parse_jsonl, write_chrome_trace,
    write_chrome_trace_with_flows, write_jsonl,
};
pub use expose::{render_openmetrics, render_snapshot_json, sanitize_metric_name};
pub use flow::{record_flow, FlowEvent, FlowPhase};
pub use json::JsonValue;
pub use log::{
    current_request, format_log_line, init_log_from_env, log_emit, log_enabled,
    set_current_request, set_log_level, set_log_off, Level,
};
pub use metrics::{
    counter, gauge, histogram, snapshot, Buckets, Counter, Gauge, HistSnapshot, Histogram,
    MetricValue, MetricsSnapshot,
};
pub use publish::{
    merged_series, merged_snapshot, per_rank_snapshots, publish_lane, publish_thread,
    published_series,
};
pub use report::render_report;
pub use series::{
    series, series_snapshot, Series, SeriesSnapshot, SeriesWindow, SERIES_WINDOWS, SERIES_WINDOW_US,
};
pub use sink::{
    clear_spans, drain_flows, drain_spans, flush_thread, reset_thread_metrics, set_thread_rank,
    thread_rank,
};
pub use span::{begin_span, with_span, SpanEvent, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS_REPORT: AtomicBool = AtomicBool::new(false);

/// The tracing switch is process-wide: unit tests that flip it or assert
/// its default hold this lock, so a sibling test never sees the other's
/// setting.
#[cfg(test)]
pub(crate) static TRACING_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Turn span tracing on or off globally. Off by default.
pub fn set_tracing(on: bool) {
    if on {
        // Pin the clock epoch before the first span so timestamps are
        // comparable across threads started later.
        let _ = epoch();
    }
    TRACING.store(on, Ordering::SeqCst);
}

/// Whether span tracing is enabled. One relaxed atomic load — this is the
/// entire cost of a disabled [`span!`] site.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Request that distributed runs print a merged per-rank metrics report
/// (the `--metrics` CLI flag). Off by default.
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

/// Time `f`, returning its result and the elapsed wall seconds; when
/// tracing is enabled the interval is also recorded as a span named
/// `name`. This is the measurement helper used by the `repro_fig*`
/// binaries so their printed tables and the exported trace agree.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let guard = if tracing_enabled() {
        Some(begin_span(name, &[]))
    } else {
        None
    };
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(guard);
    (out, secs)
}

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

    #[test]
    fn timed_returns_result_and_duration() {
        let (v, secs) = timed("test.timed", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
