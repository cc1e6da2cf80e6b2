//! Numerical-health watchdogs: gradient norm / NaN / Inf accounting for
//! the training step and residual stall detection for the MFP loop.
//!
//! Both are plain arithmetic over data the hot loops already touch — no
//! allocation, no locks — so they can run unconditionally. The *callers*
//! (mf-train, mf-mfp) decide what to do with a bad verdict: bump the
//! `health.*` metrics, write a flight-recorder event, and (for
//! non-finite gradients) trigger a post-mortem dump.

/// Result of scanning one step's gradients.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GradHealth {
    /// Global L2 norm over every finite gradient element.
    pub norm: f64,
    /// Number of NaN elements.
    pub nan: u64,
    /// Number of ±Inf elements.
    pub inf: u64,
}

impl GradHealth {
    /// Fold one gradient slice into the running tally. O(n), no
    /// allocation; call once per gradient tensor, then [`finish`].
    ///
    /// [`finish`]: GradHealth::finish
    #[inline]
    pub fn scan(&mut self, grad: &[f64]) {
        let mut sumsq = 0.0;
        for &v in grad {
            if v.is_finite() {
                sumsq += v * v;
            } else if v.is_nan() {
                self.nan += 1;
            } else {
                self.inf += 1;
            }
        }
        // `norm` holds the running sum of squares until finish().
        self.norm += sumsq;
    }

    /// Convert the accumulated sum of squares into the L2 norm.
    #[inline]
    pub fn finish(mut self) -> Self {
        self.norm = self.norm.sqrt();
        self
    }

    /// Whether any non-finite element was seen.
    #[inline]
    pub fn is_bad(&self) -> bool {
        self.nan > 0 || self.inf > 0
    }
}

/// Detects a stalled residual trajectory: no relative improvement of at
/// least `rel_improve` over the best-seen value for `window` consecutive
/// observations.
///
/// The distributed MFP loop feeds it one residual per convergence check
/// and counts each trip (`mfp.stalls`, flight event `mfp.stall`): a run
/// that keeps sweeping past its fixed point, or whose residual plateaus
/// above the tolerance, shows up there instead of only as a high
/// iteration count.
#[derive(Clone, Debug)]
pub struct StallDetector {
    best: f64,
    checks_since_improve: usize,
    window: usize,
    rel_improve: f64,
}

impl StallDetector {
    /// A detector that trips after `window` checks without a ≥ 1%
    /// improvement on the best residual seen.
    pub fn new(window: usize) -> Self {
        Self {
            best: f64::INFINITY,
            checks_since_improve: 0,
            window: window.max(1),
            rel_improve: 0.01,
        }
    }

    /// Feed one residual observation; returns `true` when the trajectory
    /// has stalled (and resets, so a persistent plateau re-trips every
    /// `window` checks rather than every check).
    pub fn observe(&mut self, residual: f64) -> bool {
        if residual.is_finite() && residual < self.best * (1.0 - self.rel_improve) {
            self.best = residual;
            self.checks_since_improve = 0;
            return false;
        }
        self.checks_since_improve += 1;
        if self.checks_since_improve >= self.window {
            self.checks_since_improve = 0;
            true
        } else {
            false
        }
    }

    /// Best residual seen so far (infinite before the first finite
    /// observation).
    pub fn best(&self) -> f64 {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_health_counts_nonfinite_and_norms_the_rest() {
        let mut h = GradHealth::default();
        h.scan(&[3.0, 4.0]);
        h.scan(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0]);
        let h = h.finish();
        assert_eq!(h.nan, 1);
        assert_eq!(h.inf, 2);
        assert!((h.norm - 5.0).abs() < 1e-12);
        assert!(h.is_bad());
        let clean = {
            let mut c = GradHealth::default();
            c.scan(&[1.0, -2.0]);
            c.finish()
        };
        assert!(!clean.is_bad());
    }

    #[test]
    fn stall_detector_trips_on_plateaus_and_resets_on_improvement() {
        let mut d = StallDetector::new(3);
        // Steadily improving: never trips.
        for r in [1.0, 0.5, 0.25, 0.12] {
            assert!(!d.observe(r));
        }
        // Plateau at the best value: trips on the 3rd stale check.
        assert!(!d.observe(0.12));
        assert!(!d.observe(0.12));
        assert!(d.observe(0.12));
        // ... and re-trips only after another full window.
        assert!(!d.observe(0.12));
        assert!(!d.observe(0.12));
        assert!(d.observe(0.12));
        // A real improvement resets the count.
        assert!(!d.observe(0.05));
        assert_eq!(d.best(), 0.05);
    }

    #[test]
    fn stall_detector_treats_nan_residuals_as_stale() {
        let mut d = StallDetector::new(2);
        assert!(!d.observe(f64::NAN));
        assert!(d.observe(f64::NAN));
    }
}
