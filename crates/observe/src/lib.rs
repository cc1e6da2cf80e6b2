//! Observability for distributed runs, built on the `mf-telemetry`
//! instrumentation spine: what happened before a run died, and whether its
//! numbers are healthy.
//!
//! Consumed by `mf-dist` (which stamps every send/recv with a flow id and
//! dumps a bundle when a cluster run fails), `mf-train` (gradient-health
//! watchdog), and `mf-mfp` (residual stall detection). What this crate owns:
//!
//! 1. **Post-mortem bundles** ([`postmortem`]) — on a cluster failure, a
//!    NaN/Inf gradient, or an injected crash, every rank's flight ring
//!    (flushed by the spine, panicked ranks included), the trace and the
//!    metrics are written as one directory. Writing is opt-in via
//!    `MF_OBSERVE=dump[:DIR]` or [`postmortem::set_dump_dir`], so ordinary
//!    test failures don't litter the workspace.
//! 2. **Flow ids** ([`flow_id`]) — a 64-bit correlation id packing
//!    `src → dst` and the per-link sequence number, recorded at both ends
//!    of every simulated message so a merged Perfetto timeline draws arrows
//!    across rank rows.
//! 3. **Health** ([`GradHealth`], [`StallDetector`]) and rendering
//!    ([`render`]) — watchdog arithmetic for the training step and the
//!    MFP residual loop, plus the `--watch` report primitives
//!    (sparklines, ASCII heatmaps).
//!
//! The flight recorder itself is the spine's per-thread ring; this crate
//! keeps its switch ([`set_recording`]) and the point-event call
//! ([`record`]) under the names its callers use.

mod context;
mod health;
pub mod postmortem;
pub mod render;

pub use context::{flow_dst, flow_id, flow_seq, flow_src};
pub use health::{GradHealth, StallDetector};
pub use mf_telemetry::{clear_rings as clear_recorder, event as record};
pub use render::{
    ascii_heatmap, mfp_watch_report, series_rate_line, sparkline, train_watch_report,
};

use std::sync::atomic::{AtomicBool, Ordering};

static WATCH: AtomicBool = AtomicBool::new(false);

/// Enable or disable the flight recorder globally. On by default (it is
/// a *flight* recorder).
pub fn set_recording(on: bool) {
    mf_telemetry::set_sink(mf_telemetry::RECORDER, on);
}

/// Turn the periodic `--watch` reports (loss curve, step-time
/// sparklines, residual heatmap) on or off. Off by default.
pub fn set_watch(on: bool) {
    WATCH.store(on, Ordering::SeqCst);
}

/// Whether watch-mode reports were requested. One relaxed load.
#[inline]
pub fn watch_enabled() -> bool {
    WATCH.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_flag_toggles() {
        assert!(!watch_enabled());
        set_watch(true);
        assert!(watch_enabled());
        set_watch(false);
        assert!(!watch_enabled());
    }
}
