//! Leveled structured logging: one JSON object per line on stderr.
//!
//! The workspace's diagnostic output historically went through ad-hoc
//! `eprintln!` calls — unstructured, unfilterable, and invisible to log
//! shippers. This module replaces them with a single leveled JSONL
//! stream:
//!
//! - **Levels** — `error < warn < info < debug`, gated by one relaxed
//!   atomic load ([`log_enabled`]); the [`crate::log!`] macro evaluates
//!   its field expressions only when the level is enabled, so a disabled
//!   site is allocation-free.
//! - **Structure** — every line is a self-contained JSON object:
//!   `{"ts_us":…,"level":"warn","event":"serve.bind_failed",…}` plus
//!   caller-supplied `key=value` fields (values are `Display`-formatted
//!   and JSON-escaped).
//! - **Request correlation** — when the current thread is handling a
//!   traced request (see `mf-reqtrace`), [`crate::set_current_request`] tags
//!   the thread and every line it logs carries a `"req"` field; the
//!   thread's telemetry rank tags lines with `"rank"` the same way.
//!
//! Configure with `MF_LOG=error|warn|info|debug|off` (default `warn`).

use crate::json::escape;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, ordered: a configured level admits itself and
/// everything more severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed; data or a request was lost.
    Error = 0,
    /// Degraded but proceeding (bind fallbacks, retries, overflow).
    Warn = 1,
    /// Lifecycle landmarks (listening, ready, shutdown).
    Info = 2,
    /// Per-request / per-connection detail.
    Debug = 3,
}

impl Level {
    /// The lowercase wire name (`"warn"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// 255 = logging fully off (even errors).
const LEVEL_OFF: u8 = 255;

static LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Set the global log level; lines above it are dropped before their
/// fields are evaluated.
pub fn set_log_level(level: Level) {
    LEVEL.store(level as u8, Ordering::SeqCst);
}

/// Disable logging entirely (even `error` lines).
pub fn set_log_off() {
    LEVEL.store(LEVEL_OFF, Ordering::SeqCst);
}

/// Whether a line at `level` would be emitted. One relaxed atomic load —
/// the entire cost of a disabled [`crate::log!`] site.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    let l = LEVEL.load(Ordering::Relaxed);
    l != LEVEL_OFF && level as u8 <= l
}

/// Apply the `MF_LOG` environment variable
/// (`error|warn|info|debug|off`); unknown values keep the default.
pub fn init_log_from_env() {
    if let Ok(v) = std::env::var("MF_LOG") {
        match v.as_str() {
            "error" => set_log_level(Level::Error),
            "warn" => set_log_level(Level::Warn),
            "info" => set_log_level(Level::Info),
            "debug" => set_log_level(Level::Debug),
            "off" | "0" | "false" => set_log_off(),
            _ => {}
        }
    }
}

/// Render one log line (no trailing newline). Pure so tests can assert
/// on the exact wire format; [`log_emit`] is this plus the stderr write.
pub fn format_log_line(level: Level, event: &str, fields: &[(&str, String)]) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"ts_us\":");
    s.push_str(&crate::now_us().to_string());
    s.push_str(",\"level\":\"");
    s.push_str(level.as_str());
    s.push_str("\",\"event\":\"");
    s.push_str(&escape(event));
    s.push('"');
    if let Some(rank) = crate::thread_rank() {
        s.push_str(",\"rank\":");
        s.push_str(&rank.to_string());
    }
    let req = crate::current_request();
    if req != 0 {
        s.push_str(",\"req\":");
        s.push_str(&req.to_string());
    }
    for (k, v) in fields {
        s.push_str(",\"");
        s.push_str(&escape(k));
        s.push_str("\":");
        // Numbers pass through bare; everything else is a JSON string.
        if !v.is_empty() && v.parse::<f64>().is_ok() {
            s.push_str(v);
        } else {
            s.push('"');
            s.push_str(&escape(v));
            s.push('"');
        }
    }
    s.push('}');
    s
}

/// Emit one structured line to stderr. Prefer the [`crate::log!`] macro,
/// which checks [`log_enabled`] first and skips field evaluation when
/// the level is disabled.
pub fn log_emit(level: Level, event: &str, fields: &[(&str, String)]) {
    if !log_enabled(level) {
        return;
    }
    eprintln!("{}", format_log_line(level, event, fields));
}

/// Log a structured JSONL line:
/// `log!(Warn, "serve.bind_failed", addr = addr, err = e)`.
///
/// Field values are captured with `Display` and evaluated only when the
/// level is enabled; a disabled site costs one relaxed atomic load.
#[macro_export]
macro_rules! log {
    ($lvl:ident, $event:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::log_enabled($crate::Level::$lvl) {
            $crate::log_emit(
                $crate::Level::$lvl,
                $event,
                &[$((stringify!($key), format!("{}", $val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{current_request, set_current_request};

    /// Serializes the tests that mutate the global level.
    static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn levels_order_and_gate() {
        let _g = LEVEL_LOCK.lock().unwrap();
        set_log_level(Level::Warn);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        assert!(!log_enabled(Level::Debug));
        set_log_off();
        assert!(!log_enabled(Level::Error));
        set_log_level(Level::Warn);
    }

    #[test]
    fn disabled_sites_do_not_evaluate_fields() {
        let _g = LEVEL_LOCK.lock().unwrap();
        set_log_level(Level::Error);
        let mut evaluated = false;
        crate::log!(
            Debug,
            "test.disabled",
            x = {
                evaluated = true;
                1
            }
        );
        assert!(!evaluated, "log! must not evaluate fields when disabled");
        set_log_level(Level::Warn);
    }

    #[test]
    fn lines_are_valid_json_with_context() {
        set_current_request(42);
        let line = format_log_line(
            Level::Warn,
            "test.event",
            &[
                ("msg", "quote \" and \\ back".to_string()),
                ("n", "3".to_string()),
            ],
        );
        set_current_request(0);
        let v = crate::JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(v.get("level").and_then(|x| x.as_str()), Some("warn"));
        assert_eq!(v.get("event").and_then(|x| x.as_str()), Some("test.event"));
        assert_eq!(v.get("req").and_then(|x| x.as_f64()), Some(42.0));
        assert_eq!(v.get("n").and_then(|x| x.as_f64()), Some(3.0));
        assert!(v.get("ts_us").and_then(|x| x.as_f64()).is_some());
        assert_eq!(
            v.get("msg").and_then(|x| x.as_str()),
            Some("quote \" and \\ back")
        );
    }

    #[test]
    fn request_tag_is_per_thread() {
        set_current_request(7);
        assert_eq!(current_request(), 7);
        let other = std::thread::spawn(current_request).join().unwrap();
        assert_eq!(other, 0);
        set_current_request(0);
    }
}
