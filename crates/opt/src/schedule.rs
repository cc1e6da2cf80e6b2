//! Learning-rate schedules and the paper's multi-device scaling rules.

/// Linear warmup into a linear decay to zero, as tuned in §5.2 of the
/// paper (polynomial decay with exponent one).
#[derive(Clone, Copy, Debug)]
pub struct LrSchedule {
    /// Peak learning rate reached at the end of warmup.
    pub max_lr: f64,
    /// Fraction of total steps spent warming up (0.001 in the paper).
    pub warmup_frac: f64,
    /// Total number of optimizer steps.
    pub total_steps: usize,
}

impl LrSchedule {
    /// The paper's single-device recipe: max LR 1e-3, 0.1 % warmup,
    /// polynomial decay with exponent one.
    pub fn paper_default(total_steps: usize) -> Self {
        Self {
            max_lr: 1e-3,
            warmup_frac: 0.001,
            total_steps,
        }
    }

    /// Scale the schedule for data-parallel training on `devices` devices
    /// (batch grows `devices×`): max LR × √devices, warmup fraction ×
    /// devices (§5.2: "(a) scale the maximum learning rate by the square
    /// root of the increase in batch size; (b) scale the warmup fraction
    /// linearly").
    pub fn scaled_for_devices(&self, devices: usize) -> Self {
        assert!(devices >= 1, "device count must be positive");
        Self {
            max_lr: self.max_lr * (devices as f64).sqrt(),
            warmup_frac: (self.warmup_frac * devices as f64).min(1.0),
            total_steps: self.total_steps,
        }
    }

    /// Number of warmup steps (at least one when warmup_frac > 0).
    pub fn warmup_steps(&self) -> usize {
        if self.warmup_frac == 0.0 {
            0
        } else {
            ((self.total_steps as f64 * self.warmup_frac).ceil() as usize).max(1)
        }
    }

    /// Learning rate at a zero-based step index: a linear ramp to
    /// `max_lr` over the warmup, then `max_lr · (1 − progress)`, reaching
    /// zero at `total_steps`.
    pub fn lr_at(&self, step: usize) -> f64 {
        let warmup = self.warmup_steps();
        if step < warmup {
            // Linear ramp from max_lr/warmup to max_lr.
            return self.max_lr * (step + 1) as f64 / warmup as f64;
        }
        let total = self.total_steps.max(warmup + 1);
        let progress = (step - warmup) as f64 / (total - warmup) as f64;
        self.max_lr * (1.0 - progress.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_ramps_to_max() {
        let s = LrSchedule {
            max_lr: 1.0,
            warmup_frac: 0.1,
            total_steps: 100,
        };
        assert_eq!(s.warmup_steps(), 10);
        assert!(s.lr_at(0) > 0.0);
        assert!(s.lr_at(0) < s.lr_at(5));
        assert!((s.lr_at(9) - 1.0).abs() < 1e-12);
        assert_eq!(s.lr_at(10), 1.0);
    }

    #[test]
    fn polynomial_decays_to_zero() {
        let s = LrSchedule::paper_default(1000);
        let end = s.lr_at(999);
        assert!(end < s.max_lr * 0.01, "end lr {end}");
        assert_eq!(s.lr_at(1000), 0.0);
        // Monotone decrease after warmup.
        let w = s.warmup_steps();
        assert!(s.lr_at(w) >= s.lr_at(w + 100));
        assert!(s.lr_at(w + 100) >= s.lr_at(w + 500));
    }

    #[test]
    fn linear_decay_is_halfway_at_midpoint() {
        let s = LrSchedule {
            max_lr: 2.0,
            warmup_frac: 0.0,
            total_steps: 100,
        };
        assert_eq!(s.lr_at(50), 1.0);
    }

    #[test]
    fn device_scaling_follows_paper_rules() {
        let s = LrSchedule::paper_default(1000);
        let s4 = s.scaled_for_devices(4);
        assert!((s4.max_lr - s.max_lr * 2.0).abs() < 1e-15);
        assert!((s4.warmup_frac - s.warmup_frac * 4.0).abs() < 1e-15);
        // Identity for one device.
        let s1 = s.scaled_for_devices(1);
        assert_eq!(s1.max_lr, s.max_lr);
    }

    #[test]
    fn warmup_fraction_is_capped_at_one() {
        let s = LrSchedule {
            max_lr: 1.0,
            warmup_frac: 0.2,
            total_steps: 10,
        };
        let huge = s.scaled_for_devices(100);
        assert_eq!(huge.warmup_frac, 1.0);
    }

    #[test]
    fn zero_warmup_starts_at_max() {
        let s = LrSchedule {
            max_lr: 0.5,
            warmup_frac: 0.0,
            total_steps: 10,
        };
        assert_eq!(s.lr_at(0), 0.5);
    }
}
