//! The recording half of the instrumentation spine: one scoped-site guard
//! behind two macros, plus the two point-event calls.
//!
//! ```text
//! span!(name, k = v, …)   algorithmic event: comm operation, iteration, step
//! zone!(name)             kernel
//! flow(name, id, phase, bytes) / event(name, a, b)   point events
//!        │
//!        ▼  one relaxed load of the sink word ([`crate::sinks`])
//!   ZONES     histogram `<name>_us` (span) / `prof.<name>_us` (zone)
//!   RECORDER  the thread's flight ring (span, flow, event — never a zone)
//!   TRACE     the thread's trace buffer (span, zone, flow), with nesting depth
//! ```
//!
//! A site whose sinks are all off costs that one load and evaluates no
//! argument. A live scope reads the clock on entry and on exit and borrows
//! the thread sink once, on exit (tracing adds an entry borrow to count
//! depth); nothing allocates once the thread's ring exists.

use crate::metrics::{histogram, Buckets, Histogram};
use crate::sink::{Kind, Record, RECORDER, SINK, TRACE, ZONES};
use crate::{sinks, FlowPhase};
use std::time::Instant;

/// Sinks a [`crate::span!`] feeds.
pub const SPAN_SINKS: u8 = TRACE | ZONES | RECORDER;
/// Sinks a [`crate::zone!`] feeds.
pub const ZONE_SINKS: u8 = TRACE | ZONES;
/// Sinks that keep a scope's arguments.
pub const ARG_SINKS: u8 = TRACE | RECORDER;

/// One instrumented site: its name, argument names and metric handles,
/// resolved from the registry once (the macros hoist it into a `OnceLock`).
pub struct Site {
    name: &'static str,
    keys: &'static [&'static str],
    hist: Histogram,
}

impl Site {
    /// A site timing into the histogram `hist`.
    pub fn new(name: &'static str, hist: &'static str, keys: &'static [&'static str]) -> Self {
        Self {
            name,
            keys,
            hist: histogram(hist, Buckets::latency_us()),
        }
    }

    /// Open a scope feeding `sinks` (non-zero, already masked to the
    /// site's level).
    #[inline]
    pub fn enter(&self, sinks: u8, v: [f64; 2]) -> Scope<'_> {
        let depth = if sinks & TRACE != 0 {
            SINK.with(|s| {
                let mut s = s.borrow_mut();
                s.depth += 1;
                s.depth - 1
            })
        } else {
            0
        };
        Scope {
            site: self,
            sinks,
            depth,
            v,
            start: Instant::now(),
        }
    }
}

/// A live timed scope; feeds its sinks when dropped.
pub struct Scope<'a> {
    site: &'a Site,
    sinks: u8,
    depth: u32,
    v: [f64; 2],
    start: Instant,
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        SINK.with(|s| {
            let s = &mut *s.borrow_mut();
            if self.sinks & ZONES != 0 {
                let us = (end - self.start).as_secs_f64() * 1e6;
                self.site.hist.record_in(s, us);
            }
            if self.sinks & TRACE != 0 {
                s.depth = s.depth.saturating_sub(1);
            }
            if self.sinks & ARG_SINKS != 0 {
                // Both ends are truncated from the same clock, so a child
                // scope's interval stays inside its parent's to the
                // microsecond.
                let epoch = crate::epoch();
                let end_us = end.saturating_duration_since(epoch).as_micros() as u64;
                let t_us = self.start.saturating_duration_since(epoch).as_micros() as u64;
                let rec = Record {
                    t_us,
                    dur_us: end_us - t_us,
                    name: self.site.name,
                    kind: Kind::Span,
                    depth: self.depth,
                    v: self.v,
                    keys: self.site.keys,
                    ..Record::default()
                };
                s.store(self.sinks, rec);
            }
        });
    }
}

/// The argument values of a scope, padded to the record's two slots.
pub fn scope_args<const N: usize>(v: [f64; N]) -> [f64; 2] {
    const { assert!(N <= 2, "a span! takes at most two arguments") };
    let mut out = [0.0; 2];
    out[..N].copy_from_slice(&v);
    out
}

/// Time an algorithmic event until the end of the enclosing scope:
/// histogram `<name>_us`, flight ring, and the trace when tracing is on.
///
/// ```
/// # let n = 1024;
/// mf_telemetry::span!("doc.allreduce", bytes = n);
/// ```
///
/// At most two `ident = numeric-expr` arguments, converted to `f64` and
/// evaluated only when the flight ring or the trace will keep them.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::scope!(SPAN_SINKS, $name, concat!($name, "_us") $(, $key = $val)*);
    };
}

/// Time a kernel until the end of the enclosing scope: histogram
/// `prof.<name>_us`, and the trace when tracing is on — never the
/// flight ring. Zones and spans nest in one depth count.
///
/// ```
/// fn kernel() {
///     mf_telemetry::zone!("doc_gemm");
///     // … the rest of the scope is attributed to prof.doc_gemm_us …
/// }
/// ```
#[macro_export]
macro_rules! zone {
    ($name:literal) => {
        $crate::scope!(ZONE_SINKS, $name, concat!("prof.", $name, "_us"));
    };
}

/// The expansion `span!` and `zone!` share; they differ in the level mask.
#[doc(hidden)]
#[macro_export]
macro_rules! scope {
    ($level:ident, $name:expr, $hist:expr $(, $key:ident = $val:expr)*) => {
        let _mf_telemetry_scope = {
            let sinks = $crate::sinks() & $crate::$level;
            if sinks == 0 {
                None
            } else {
                static SITE: ::std::sync::OnceLock<$crate::Site> = ::std::sync::OnceLock::new();
                let site = SITE.get_or_init(|| {
                    $crate::Site::new($name, $hist, &[$(stringify!($key)),*])
                });
                let v = if sinks & $crate::ARG_SINKS == 0 {
                    [0.0; 2]
                } else {
                    $crate::scope_args([$($val as f64),*])
                };
                Some(site.enter(sinks, v))
            }
        };
    };
}

fn point(sinks: u8, kind: Kind, name: &'static str, a: u64, b: f64) {
    if sinks != 0 {
        let rec = Record {
            t_us: crate::now_us(),
            name,
            kind,
            a,
            v: [b, 0.0],
            ..Record::default()
        };
        SINK.with(|s| s.borrow_mut().store(sinks, rec));
    }
}

/// Record one end of a cross-rank message, once: into the flight ring,
/// and into the trace (as a Chrome flow arrow end) when tracing is on.
pub fn flow(name: &'static str, id: u64, phase: FlowPhase, bytes: usize) {
    let kind = match phase {
        FlowPhase::Start => Kind::Send,
        FlowPhase::Finish => Kind::Recv,
    };
    point(sinks() & ARG_SINKS, kind, name, id, bytes as f64);
}

/// Record a point event (an error, a health incident, a marker) into the
/// flight ring.
pub fn event(name: &'static str, a: u64, b: f64) {
    point(sinks() & RECORDER, Kind::Event, name, a, b);
}

/// Run the closure `f` inside a `span!` named `name`, returning its result
/// and the elapsed wall seconds. The measurement helper of the `repro_fig*`
/// binaries, so their printed tables and the exported trace agree.
#[macro_export]
macro_rules! timed {
    ($name:literal, $f:expr) => {{
        $crate::span!($name);
        let t0 = ::std::time::Instant::now();
        let out = $f();
        (out, t0.elapsed().as_secs_f64())
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{set_sink, REQTRACE};
    use crate::{drain_flows, drain_rings, drain_spans, flush_thread, set_tracing, MetricValue};

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::TRACING_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn hist_count(name: &str) -> u64 {
        match crate::snapshot().get(name) {
            Some(MetricValue::Histogram(h)) => h.count,
            _ => 0,
        }
    }

    #[test]
    fn spans_and_zones_nest_in_one_depth_count() {
        let _spine = lock();
        set_tracing(true);
        let spans = std::thread::spawn(|| {
            crate::set_thread_rank(0);
            {
                crate::span!("span.test.outer", items = 2);
                {
                    crate::zone!("span_test_inner");
                }
                {
                    crate::zone!("span_test_inner");
                }
            }
            drain_spans()
                .into_iter()
                .filter(|e| e.name.starts_with("span.test.") || e.name == "span_test_inner")
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        set_tracing(false);

        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|e| e.name == "span.test.outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.args, vec![("items".to_string(), 2.0)]);
        for inner in spans.iter().filter(|e| e.name == "span_test_inner") {
            assert_eq!(inner.depth, 1);
            // Children are contained in the parent interval.
            assert!(inner.start_us >= outer.start_us);
            assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
        }
    }

    #[test]
    fn each_sink_takes_what_its_level_feeds_it() {
        let _spine = lock();
        std::thread::spawn(|| {
            crate::set_thread_rank(41);
            crate::set_step_context(3, 5);
            {
                crate::span!("span.test.levels", n = 7, x = 0.5);
                crate::zone!("span_test_levels");
            }
            flow("span.test.flow", 77, FlowPhase::Start, 64);
            assert_eq!(hist_count("span.test.levels_us"), 1);
            assert_eq!(hist_count("prof.span_test_levels_us"), 1);
            flush_thread();
        })
        .join()
        .unwrap();
        let rings = drain_rings();
        let events = &rings
            .iter()
            .find(|(r, _)| *r == 41)
            .expect("flushed")
            .1
            .events;
        // The span and the flow, stamped with the thread context; no zone,
        // and nothing in the trace while tracing is off.
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(
            (events[0].name, events[0].kind),
            ("span.test.levels", Kind::Span)
        );
        assert_eq!((events[0].v, events[0].keys), ([7.0, 0.5], &["n", "x"][..]));
        assert_eq!((events[0].epoch, events[0].step), (3, 5));
        assert_eq!(
            (events[1].kind, events[1].a, events[1].v[0]),
            (Kind::Send, 77, 64.0)
        );
        assert!(drain_spans()
            .iter()
            .all(|e| !e.name.contains("test_levels")));
        assert!(drain_flows().iter().all(|f| f.name != "span.test.flow"));
    }

    #[test]
    fn with_every_sink_off_a_site_records_nothing_and_skips_args() {
        let _spine = lock();
        set_sink(ZONES | RECORDER | REQTRACE, false);
        let mut evaluated = false;
        {
            crate::span!(
                "span.test.disabled",
                x = {
                    evaluated = true;
                    1.0
                }
            );
            crate::zone!("span_test_disabled");
        }
        flow("span.test.disabled", 1, FlowPhase::Finish, 8);
        event("span.test.disabled", 0, 0.0);
        set_sink(ZONES | RECORDER | REQTRACE, true);
        assert!(!evaluated, "no sink keeps the argument");
        assert_eq!(hist_count("span.test.disabled_us"), 0);
        assert_eq!(hist_count("prof.span_test_disabled_us"), 0);
        assert!(SINK.with(|s| s.borrow().flight.is_empty()));
        assert!(drain_spans().iter().all(|e| e.name != "span.test.disabled"));
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (v, secs) = crate::timed!("test.timed", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
