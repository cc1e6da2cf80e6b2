//! What one run of a workload yields, and how the eight ledger metrics are
//! taken from it. `BENCHMARK.json` decides where each is reported: listed
//! under `end_to_end` it is gated and printed by an untraced run, listed
//! under `per_layer` it is printed by the traced run of the workload.

use crate::spans::Recorder;
use crate::stats;
use std::time::Duration;

/// The eight metrics every workload reports under the same names: name,
/// unit, whether higher is better, and the bound ISSUE 15 holds it to.
/// `--repeat` measures each against that bound; one that does not hold it
/// is listed under `per_layer`, which has no bounds — never given a wider one.
/// (`setup_s` is the exception the driver's contract makes: it must be an
/// end-to-end metric and carries the largest bound, see `README.md`.)
pub const LEDGER: [(&str, &str, bool, f64); 8] = [
    ("setup_s", "s", false, 0.10),
    ("units_per_s", "1/s", true, 0.10),
    ("unit_ms_p50", "ms", false, 0.10),
    ("unit_ms_tail", "ms", false, 0.15),
    ("cpu_ms_per_unit", "ms", false, 0.10),
    ("ok_share", "ratio", true, 0.0),
    ("accuracy_err", "rel", false, 0.02),
    ("peak_rss_mb", "MB", false, 0.05),
];

/// Fresh-state set-ups measured per run (at least); `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Untimed warm-up before the window of a run; the layer probes' small
/// windows get [`PROBE_WARMUP`].
pub const WARMUP: Duration = Duration::from_secs(3);
pub const PROBE_WARMUP: Duration = Duration::from_millis(500);

/// What changes between the even and the odd slices of a window, so that
/// one window measures a cost against itself, interleaved.
#[derive(Clone, Copy, PartialEq)]
pub enum Alternate {
    Nothing,
    /// The benchmark's spans: on in even slices (a traced run).
    Spans,
    /// The crates' observability switches: program defaults in even
    /// slices, everything off in odd ones.
    Switches,
}

/// Every observability switch the crates have: zone profiler, flight
/// recorder, request tracing, log level. `true` is the program default.
pub fn set_switches(default: bool) {
    mf_profile::set_enabled(default);
    mf_observe::set_recording(default);
    mf_reqtrace::set_enabled(default);
    if default {
        mf_telemetry::set_log_level(mf_telemetry::Level::Warn);
    } else {
        mf_telemetry::set_log_off();
    }
}

/// How much of a workload to run.
#[derive(Clone, Copy)]
pub struct Size {
    /// Units in the timed window.
    pub units: usize,
    /// Equal-count slices the window is cut into for `units_per_s`.
    pub slices: usize,
    pub setup_reps: usize,
    /// The window starts once this much time has passed since set-up began.
    pub warmup: Duration,
    pub alternate: Alternate,
}

impl Size {
    /// Called by a workload before it starts unit `i` of its window.
    pub fn enter(&self, i: usize, rec: &mut Recorder) {
        let even = (i * self.slices / self.units).is_multiple_of(2);
        match self.alternate {
            Alternate::Nothing => {}
            Alternate::Spans => rec.set_on(even),
            Alternate::Switches => {
                if i.is_multiple_of(self.units / self.slices) {
                    set_switches(even);
                }
            }
        }
    }
}

pub struct Run {
    /// Seconds from inputs ready to the first completed unit, one entry
    /// per fresh repetition; the first is the cold one.
    pub setup_s: Vec<f64>,
    /// Duration of each unit in ms, in completion order.
    pub unit_ms: Vec<f64>,
    /// Completion time of each unit, seconds from the window's start.
    pub done_s: Vec<f64>,
    /// Process CPU seconds spent over the window.
    pub cpu_s: f64,
    /// `VmHWM` when the window ended: one set-up, the warm-up and the
    /// window. The remaining set-up repetitions come after it, because
    /// how much memory freed rank threads hand back is a matter of luck.
    pub peak_rss_mb: f64,
    /// Units whose result failed verification.
    pub failed: usize,
    pub accuracy_err: f64,
    /// Layer-level numbers this run observed, by per-layer metric name.
    pub facts: Vec<(&'static str, f64)>,
    pub recorders: Vec<Recorder>,
}

impl Run {
    pub fn fact(&self, name: &str) -> f64 {
        self.facts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    pub fn slice_rates(&self, size: &Size) -> Vec<f64> {
        stats::slice_rates(&self.done_s, size.slices)
    }

    /// Median rate of the odd slices ÷ that of the even slices: time per
    /// unit with the alternated thing on ÷ with it off.
    pub fn alternation_ratio(&self, size: &Size) -> f64 {
        let rates = self.slice_rates(size);
        let pick = |parity: usize| -> Vec<f64> {
            rates
                .iter()
                .enumerate()
                .filter(|(k, _)| k % 2 == parity)
                .map(|(_, r)| *r)
                .collect()
        };
        stats::median(&pick(1)) / stats::median(&pick(0))
    }

    /// The quantile reported as `unit_ms_tail`: the highest of p99, p95,
    /// p90 and p75 with at least ten samples beyond it (p75 when none has).
    pub fn tail_q(&self) -> f64 {
        let n = self.unit_ms.len() as f64;
        [0.99, 0.95, 0.9]
            .into_iter()
            .find(|q| n * (1.0 - q) >= 10.0)
            .unwrap_or(0.75)
    }

    /// The tail of the unit times. Where a slice alone holds ten samples
    /// beyond the quantile, the median over the slices of each slice's
    /// quantile: a stall that lasts 1 % of the window then moves one slice
    /// and not the result (whole-window p99 of `serve_lines` spread 0.27
    /// between runs whose p50 spread 0.03).
    fn tail_ms(&self, size: &Size) -> f64 {
        let q = self.tail_q();
        let per = self.unit_ms.len() / size.slices.max(1);
        if (per as f64) * (1.0 - q) < 10.0 {
            return stats::quantile(&self.unit_ms, q);
        }
        let tails: Vec<f64> = self
            .unit_ms
            .chunks_exact(per)
            .map(|slice| stats::quantile(slice, q))
            .collect();
        stats::median(&tails)
    }

    /// The eight ledger metrics by name, in the order of [`LEDGER`].
    pub fn ledger(&self, size: &Size) -> Vec<(&'static str, f64)> {
        // Attempted units; a refused request has no time but counts.
        let n = size.units as f64;
        let values = [
            stats::median(&self.setup_s),
            stats::median(&self.slice_rates(size)),
            stats::median(&self.unit_ms),
            self.tail_ms(size),
            self.cpu_s * 1e3 / n,
            (n - self.failed as f64) / n,
            self.accuracy_err,
            self.peak_rss_mb,
        ];
        LEDGER.iter().map(|m| m.0).zip(values).collect()
    }
}
