//! The benchmark's own spans: recorded in memory around each call it makes
//! into a layer, written as a Chrome `trace_event` file when the run ends.
//! Spans inside the crates are a later issue.

use std::time::Instant;

/// Index of a span within its recorder; `NONE` marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: SpanId,
    /// The unit (request, solve, step) this span belongs to.
    pub unit: u32,
    /// Row of the trace the span is drawn in.
    pub tid: u32,
    pub depth: u32,
}

/// One thread's span buffer. With `on == false` every call is a branch and
/// nothing else, so the untraced run pays no clock reads for it.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Row of the trace the spans begun from now on are drawn in (a rank;
    /// for `serve_lines`, the slot of the request in flight).
    pub tid: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Self {
            on,
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording; the interleaved overhead measurement flips it
    /// between slices.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, unit: u32) -> SpanId {
        if !self.on {
            return NONE;
        }
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let depth = if parent == NONE {
            0
        } else {
            self.spans[parent as usize].depth + 1
        };
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            unit,
            tid: self.tid,
            depth,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Median duration in µs of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect();
        crate::stats::median(&d)
    }
}

/// Write the recorders' spans as a Chrome `trace_event` file through
/// `mf-telemetry`'s writer (whole microseconds); `args` carries the span's
/// index in its recorder, its unit and its parent's index (-1 for a root).
pub fn write_chrome_trace(path: &str, recorders: &[Recorder]) -> std::io::Result<()> {
    use std::io::Write;
    let events: Vec<mf_telemetry::SpanEvent> = recorders
        .iter()
        .flat_map(|r| r.spans.iter().enumerate())
        .map(|(i, s)| mf_telemetry::SpanEvent {
            name: s.name.to_string(),
            rank: s.tid as usize,
            start_us: s.start_us as u64,
            dur_us: (s.end_us - s.start_us).round() as u64,
            depth: s.depth,
            args: vec![
                ("id".to_string(), i as f64),
                ("unit".to_string(), f64::from(s.unit)),
                (
                    "parent".to_string(),
                    if s.parent == NONE {
                        -1.0
                    } else {
                        f64::from(s.parent)
                    },
                ),
            ],
        })
        .collect();
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    mf_telemetry::write_chrome_trace(&events, &mut w)?;
    w.flush()
}
