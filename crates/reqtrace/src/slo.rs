//! SLO budgets, burn rates, and the `/healthz` + `/readyz` bodies.
//!
//! Three budgets cover the serve fleet: a p99 latency budget, an
//! error-rate budget (queue-full rejections over submissions), and a
//! convergence-failure budget (requests whose solve did not hit its
//! tolerance). Each is tracked as a **burn rate** — observed value over
//! budget — so `1.0` means exactly on budget and anything above it is
//! burning. The serve worker feeds observations from its latency
//! reservoir and counters ([`report_health`]); health is one atomic
//! read per probe.

use mf_telemetry::JsonWriter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// SLO budgets for the serve fleet. Burn rates are observed/budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloConfig {
    /// p99 end-to-end latency budget, milliseconds.
    pub p99_ms: f64,
    /// Budget for the fraction of submissions rejected (`Busy`).
    pub error_rate: f64,
    /// Budget for the fraction of completed solves that did not
    /// converge.
    pub conv_fail_rate: f64,
}

/// The budgets installed until [`set_slo`] replaces them.
const DEFAULT: SloConfig = SloConfig {
    p99_ms: 25.0,
    error_rate: 0.01,
    conv_fail_rate: 0.01,
};

impl Default for SloConfig {
    fn default() -> Self {
        DEFAULT
    }
}

// f64s stored as bit patterns.
static P99_BUDGET_MS: AtomicU64 = AtomicU64::new(DEFAULT.p99_ms.to_bits());
static ERR_BUDGET: AtomicU64 = AtomicU64::new(DEFAULT.error_rate.to_bits());
static CONV_BUDGET: AtomicU64 = AtomicU64::new(DEFAULT.conv_fail_rate.to_bits());

static P99_BURN: AtomicU64 = AtomicU64::new(0);
static ERR_BURN: AtomicU64 = AtomicU64::new(0);
static CONV_BURN: AtomicU64 = AtomicU64::new(0);

static READY: AtomicBool = AtomicBool::new(false);

fn load_f64(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

fn store_f64(a: &AtomicU64, v: f64) {
    a.store(v.to_bits(), Ordering::Relaxed);
}

/// Install SLO budgets (CLI flags / service config).
pub fn set_slo(cfg: SloConfig) {
    store_f64(&P99_BUDGET_MS, cfg.p99_ms.max(f64::MIN_POSITIVE));
    store_f64(&ERR_BUDGET, cfg.error_rate.max(f64::MIN_POSITIVE));
    store_f64(&CONV_BUDGET, cfg.conv_fail_rate.max(f64::MIN_POSITIVE));
}

/// The currently installed SLO budgets.
pub fn slo() -> SloConfig {
    SloConfig {
        p99_ms: load_f64(&P99_BUDGET_MS),
        error_rate: load_f64(&ERR_BUDGET),
        conv_fail_rate: load_f64(&CONV_BUDGET),
    }
}

/// Feed fresh observations from the serve layer: the reservoir's p99 in
/// milliseconds, the rejection fraction, and the convergence-failure
/// fraction. Stores the resulting burn rates; returns
/// `(p99_burn, error_burn, conv_burn)` so the caller can publish them
/// as gauges.
pub fn report_health(p99_ms: f64, error_rate: f64, conv_fail_rate: f64) -> (f64, f64, f64) {
    let cfg = slo();
    let burns = (
        (p99_ms / cfg.p99_ms).max(0.0),
        (error_rate / cfg.error_rate).max(0.0),
        (conv_fail_rate / cfg.conv_fail_rate).max(0.0),
    );
    store_f64(&P99_BURN, burns.0);
    store_f64(&ERR_BURN, burns.1);
    store_f64(&CONV_BURN, burns.2);
    burns
}

/// Current burn rates `(p99, error, convergence)`; 0 until the first
/// [`report_health`].
pub fn burns() -> (f64, f64, f64) {
    (
        load_f64(&P99_BURN),
        load_f64(&ERR_BURN),
        load_f64(&CONV_BURN),
    )
}

/// Mark the service ready (prewarm finished, listener bound) or not.
pub fn set_ready(ready: bool) {
    READY.store(ready, Ordering::SeqCst);
}

/// Whether the service reported itself ready.
pub fn ready() -> bool {
    READY.load(Ordering::Relaxed)
}

/// The `/healthz` probe: healthy while every burn rate is within
/// budget. Returns `(healthy, body)`; burns are rounded to 1e-4.
pub fn healthz() -> (bool, String) {
    let (p99, err, conv) = burns();
    let healthy = p99 <= 1.0 && err <= 1.0 && conv <= 1.0;
    let round = |b: f64| (b * 1e4).round() / 1e4;
    let cfg = slo();
    let body = JsonWriter::object(|w| {
        w.field("status", if healthy { "ok" } else { "degraded" });
        w.key("burns").obj(|w| {
            w.field("p99", round(p99))
                .field("error", round(err))
                .field("convergence", round(conv));
        });
        w.key("budgets").obj(|w| {
            w.field("p99_ms", cfg.p99_ms)
                .field("error_rate", cfg.error_rate)
                .field("conv_fail_rate", cfg.conv_fail_rate);
        });
    });
    (healthy, body)
}

/// The `/readyz` probe: ready once the serve layer says so (listener
/// bound and prewarm complete). Returns `(ready, body)`.
pub fn readyz() -> (bool, String) {
    let r = ready();
    let body = JsonWriter::object(|w| {
        w.field("ready", r);
    });
    (r, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burns_are_observed_over_budget() {
        set_slo(SloConfig {
            p99_ms: 10.0,
            error_rate: 0.01,
            conv_fail_rate: 0.02,
        });
        let (p, e, c) = report_health(25.0, 0.005, 0.04);
        assert!((p - 2.5).abs() < 1e-12);
        assert!((e - 0.5).abs() < 1e-12);
        assert!((c - 2.0).abs() < 1e-12);
        let (healthy, body) = healthz();
        assert!(!healthy);
        assert!(body.contains("\"status\":\"degraded\""));
        let (p2, e2, c2) = report_health(5.0, 0.0, 0.0);
        assert!(p2 <= 1.0 && e2 <= 1.0 && c2 <= 1.0);
        assert!(healthz().0);
        set_slo(SloConfig::default());
        report_health(0.0, 0.0, 0.0);
    }

    #[test]
    fn readiness_flips() {
        let (r0, body) = readyz();
        let _ = r0;
        assert!(body.starts_with("{\"ready\":"));
        set_ready(true);
        assert!(readyz().0);
        assert!(readyz().1.contains("true"));
    }
}
