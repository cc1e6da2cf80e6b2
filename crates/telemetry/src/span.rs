//! RAII span tracing.
//!
//! A span is opened with [`crate::span!`] (or [`begin_span`]) and closes
//! when its guard drops; the finished interval is buffered thread-locally
//! and carries the nesting depth at open time, so exporters can rebuild
//! the flame graph without a parent pointer.

use crate::now_us;
use crate::sink::SINK;

/// One finished span interval.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Site name, e.g. `"comm.allreduce"`.
    pub name: String,
    /// Rank of the recording thread (0 for untagged threads); `tid` in
    /// the Chrome trace.
    pub rank: usize,
    /// Open timestamp, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Numeric arguments captured at open time.
    pub args: Vec<(String, f64)>,
}

/// Live span; records a [`SpanEvent`] when dropped.
pub struct SpanGuard {
    name: &'static str,
    start_us: u64,
    depth: u32,
    args: Vec<(&'static str, f64)>,
}

/// Open a span. Prefer the [`crate::span!`] macro, which checks
/// [`crate::tracing_enabled`] first and skips argument evaluation when
/// tracing is off.
pub fn begin_span(name: &'static str, args: &[(&'static str, f64)]) -> SpanGuard {
    let depth = SINK.with(|s| {
        let mut s = s.borrow_mut();
        let d = s.depth;
        s.depth += 1;
        d
    });
    SpanGuard {
        name,
        start_us: now_us(),
        depth,
        args: args.to_vec(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = now_us();
        SINK.with(|s| {
            let mut s = s.borrow_mut();
            s.depth = s.depth.saturating_sub(1);
            let rank = s.rank.unwrap_or(0);
            s.spans.push(SpanEvent {
                name: self.name.to_string(),
                rank,
                start_us: self.start_us,
                dur_us: end.saturating_sub(self.start_us),
                depth: self.depth,
                args: self.args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            });
        });
    }
}

/// Run `f` inside a span named `name` (when tracing is enabled).
pub fn with_span<T>(name: &'static str, args: &[(&'static str, f64)], f: impl FnOnce() -> T) -> T {
    let _guard = if crate::tracing_enabled() {
        Some(begin_span(name, args))
    } else {
        None
    };
    f()
}

/// Open a span that lasts until the end of the enclosing scope.
///
/// ```
/// # let n = 1024;
/// mf_telemetry::span!("allreduce", bytes = n);
/// ```
///
/// Arguments are `ident = numeric-expr` pairs, converted to `f64`; they
/// are evaluated only when tracing is enabled. When tracing is disabled
/// the entire statement is one relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        let _mf_telemetry_span_guard = if $crate::tracing_enabled() {
            Some($crate::begin_span($name, &[$((stringify!($key), $val as f64)),*]))
        } else {
            None
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drain_spans, set_tracing};

    #[test]
    fn spans_nest_and_record_depth() {
        let _tracing = crate::TRACING_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_tracing(true);
        let spans = std::thread::spawn(|| {
            crate::set_thread_rank(0);
            {
                crate::span!("span.test.outer", items = 2);
                {
                    crate::span!("span.test.inner");
                }
                {
                    crate::span!("span.test.inner");
                }
            }
            crate::flush_thread();
            drain_spans()
                .into_iter()
                .filter(|e| e.name.starts_with("span.test."))
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        set_tracing(false);

        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|e| e.name == "span.test.outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.args, vec![("items".to_string(), 2.0)]);
        for inner in spans.iter().filter(|e| e.name == "span.test.inner") {
            assert_eq!(inner.depth, 1);
            // Children are contained in the parent interval.
            assert!(inner.start_us >= outer.start_us);
            assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
        }
    }

    #[test]
    fn disabled_tracing_records_nothing_and_skips_args() {
        let _tracing = crate::TRACING_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        assert!(!crate::tracing_enabled());
        let mut evaluated = false;
        {
            crate::span!(
                "span.test.disabled",
                x = {
                    evaluated = true;
                    1.0
                }
            );
        }
        assert!(
            !evaluated,
            "span! must not evaluate args when tracing is off"
        );
        assert!(drain_spans().iter().all(|e| e.name != "span.test.disabled"));
    }

    #[test]
    fn with_span_passes_through_result() {
        assert_eq!(with_span("span.test.wrap", &[], || 5), 5);
    }
}
