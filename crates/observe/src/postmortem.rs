//! Post-mortem bundles: when a run dies — a `CommError`, a rank panic,
//! an injected `FaultPlan` crash, or a NaN/Inf gradient — the flight
//! recorder's recent history is written to a directory
//! `observe-dump-<ts>-<n>/` for offline inspection:
//!
//! ```text
//! observe-dump-1723111842-0/
//! ├── summary.txt   reason, failing rank, per-rank last (epoch, step)
//! ├── trace.json    merged Chrome trace: spans + cross-rank flow events
//! │                 + flight-recorder events as zero-length slices
//! │                 (loadable in Perfetto; flows draw send→recv arrows)
//! ├── metrics.txt   one `--- rank N ---` section per rank, each the
//! │                 rank's metrics as OpenMetrics text (what `GET
//! │                 /metrics` serves), ending in `# EOF`
//! ├── events.txt    human-readable flight-recorder log, oldest first
//! └── config.txt    run configuration as reported by the caller
//! ```
//!
//! Writing is opt-in: nothing touches disk unless `MF_OBSERVE=dump[:DIR]`
//! is set when a dump is due or a test/tool calls [`set_dump_dir`].
//! [`read_bundle`] parses a bundle back for programmatic assertions.

use mf_telemetry::{FlowEvent, RankRecord, Record, SpanEvent};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a bundle was dumped.
#[derive(Clone, Debug, Default)]
pub struct DumpReason {
    /// Short machine-readable class: `"cluster-failure"`, `"nan-grad"`,
    /// `"comm-error"`, …
    pub kind: String,
    /// Free-form detail (panic message, offending value, …).
    pub detail: String,
    /// The rank identified as the origin of the failure, if known.
    pub failing_rank: Option<usize>,
}

/// The explicit dump setting: `None` until [`set_dump_dir`] is called, and
/// then it always wins. Unset defers to `MF_OBSERVE` at dump time, so
/// `cargo test` runs pick up CI's `MF_OBSERVE=dump:<dir>`.
static DUMP_DIR: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Enable (`Some(parent_dir)`) or disable (`None`) post-mortem bundle
/// writing. Bundles are created as fresh subdirectories of the parent.
pub fn set_dump_dir(dir: Option<PathBuf>) {
    *DUMP_DIR.lock().unwrap_or_else(|e| e.into_inner()) = Some(dir);
}

fn dump_parent() -> Option<PathBuf> {
    let explicit = DUMP_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone();
    explicit.unwrap_or_else(|| parse_observe(&std::env::var("MF_OBSERVE").ok()?))
}

/// The dump directory an `MF_OBSERVE` value asks for: a comma-separated
/// list whose tokens are `dump` (the current directory) or `dump:DIR`. Any
/// other token is named in one `warn` line and ignored — a typo must not
/// write files.
fn parse_observe(raw: &str) -> Option<PathBuf> {
    let mut dir = None;
    for tok in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match tok.strip_prefix("dump") {
            Some("") => dir = dir.or(Some(".".into())),
            Some(rest) if rest.starts_with(':') => dir = dir.or(Some(rest[1..].into())),
            _ => mf_telemetry::log!(
                Warn,
                "observe.unknown_token",
                var = "MF_OBSERVE",
                token = tok
            ),
        }
    }
    dir
}

/// Dump a post-mortem bundle if dumping is enabled: drains the spine's
/// collector (every rank flushed so far: flight rings, spans, flows) and
/// writes the bundle directory. Returns the bundle path, or `None` when
/// dumping is disabled or the write failed (a post-mortem must never turn
/// a failure report into a second failure).
pub fn dump(reason: &DumpReason, config: &str) -> Option<PathBuf> {
    let parent = dump_parent()?;
    // Draining the trace flushes the calling thread first, so its own ring
    // (the rank that hit a NaN gradient) is among the records.
    let spans = mf_telemetry::drain_spans();
    let flows = mf_telemetry::drain_flows();
    let records = mf_telemetry::drain_rings();
    match write_bundle(&parent, reason, config, &records, &spans, &flows) {
        Ok(path) => {
            mf_telemetry::log!(Warn, "observe.bundle_written", path = path.display());
            Some(path)
        }
        Err(e) => {
            mf_telemetry::log!(Error, "observe.bundle_write_failed", err = e);
            None
        }
    }
}

fn unix_seconds() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Write one bundle under `parent` from explicit data (no globals).
/// [`dump`] is the convenience wrapper over the process-wide recorder.
pub fn write_bundle(
    parent: &Path,
    reason: &DumpReason,
    config: &str,
    records: &[(usize, RankRecord)],
    spans: &[SpanEvent],
    flows: &[FlowEvent],
) -> io::Result<PathBuf> {
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = parent.join(format!("observe-dump-{}-{seq}", unix_seconds()));
    std::fs::create_dir_all(&dir)?;

    // summary.txt — the first file a human (or test) reads.
    let mut summary = String::from("mf-observe post-mortem bundle\n");
    summary.push_str(&format!("reason: {}\n", reason.kind));
    summary.push_str(&format!("detail: {}\n", reason.detail.replace('\n', " | ")));
    match reason.failing_rank {
        Some(r) => summary.push_str(&format!("failing_rank: {r}\n")),
        None => summary.push_str("failing_rank: none\n"),
    }
    summary.push_str(&format!("ranks: {}\n", records.len()));
    for (rank, rec) in records {
        let (epoch, step) = rec.last_step().unwrap_or((0, 0));
        summary.push_str(&format!(
            "rank {rank}: events {} total {} last_epoch {epoch} last_step {step}\n",
            rec.events.len(),
            rec.total
        ));
    }
    std::fs::write(dir.join("summary.txt"), summary)?;

    // trace.json — merged spans + flows + flight-recorder events as
    // zero-length slices so the ring history shows up on the timeline.
    let mut all_spans: Vec<SpanEvent> = spans.to_vec();
    for (rank, rec) in records {
        for e in &rec.events {
            all_spans.push(rec_event_as_span(*rank, e));
        }
    }
    all_spans.sort_by(|a, b| {
        (a.rank, a.start_us, a.depth, &a.name).cmp(&(b.rank, b.start_us, b.depth, &b.name))
    });
    let mut buf = Vec::new();
    mf_telemetry::write_chrome_trace_with_flows(&all_spans, flows, &mut buf)?;
    std::fs::write(dir.join("trace.json"), buf)?;

    // metrics.txt — per-rank OpenMetrics text.
    let mut metrics = String::new();
    for (rank, rec) in records {
        metrics.push_str(&format!("--- rank {rank} ---\n"));
        metrics.push_str(&mf_telemetry::render_openmetrics(&rec.metrics));
    }
    std::fs::write(dir.join("metrics.txt"), metrics)?;

    // events.txt — the ring, human-readable.
    let mut events = String::new();
    for (rank, rec) in records {
        for e in &rec.events {
            events.push_str(&format!(
                "rank {rank} t={}us dur={}us {:?} {} epoch={} step={} req={} a={} v={:?}\n",
                e.t_us, e.dur_us, e.kind, e.name, e.epoch, e.step, e.req, e.a, e.v
            ));
        }
    }
    std::fs::write(dir.join("events.txt"), events)?;

    std::fs::write(dir.join("config.txt"), config)?;
    Ok(dir)
}

fn rec_event_as_span(rank: usize, e: &Record) -> SpanEvent {
    SpanEvent {
        name: format!("rec.{}", e.name),
        rank,
        start_us: e.t_us,
        dur_us: 0,
        depth: 0,
        args: vec![
            ("epoch".to_string(), e.epoch as f64),
            ("step".to_string(), e.step as f64),
            ("a".to_string(), e.a as f64),
            ("b".to_string(), e.v[0]),
        ],
    }
}

/// One rank's entry in a parsed bundle summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleRank {
    /// Rank id.
    pub rank: usize,
    /// Ring events captured for this rank.
    pub events: usize,
    /// Last `(epoch, step)` the rank reached.
    pub last_epoch: u64,
    /// Last step/iteration the rank reached.
    pub last_step: u64,
}

/// A parsed post-mortem bundle.
#[derive(Clone, Debug, Default)]
pub struct Bundle {
    /// Reason class from `summary.txt`.
    pub reason: String,
    /// Reason detail.
    pub detail: String,
    /// Failing rank, when the failure had an attributable origin.
    pub failing_rank: Option<usize>,
    /// Per-rank summary lines.
    pub ranks: Vec<BundleRank>,
    /// Slice events from `trace.json`.
    pub spans: Vec<SpanEvent>,
    /// Cross-rank flow events from `trace.json`.
    pub flows: Vec<FlowEvent>,
    /// `metrics.txt` as written: per-rank OpenMetrics sections.
    pub metrics: String,
    /// Run configuration from `config.txt`.
    pub config: String,
}

impl Bundle {
    /// The last `(epoch, step)` recorded for `rank`, if present.
    pub fn last_step(&self, rank: usize) -> Option<(u64, u64)> {
        self.ranks
            .iter()
            .find(|r| r.rank == rank)
            .map(|r| (r.last_epoch, r.last_step))
    }
}

/// Parse a bundle directory written by [`write_bundle`] back into
/// memory. Used by tests to assert bundle contents programmatically.
pub fn read_bundle(dir: &Path) -> Result<Bundle, String> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let summary = read("summary.txt")?;
    let mut b = Bundle::default();
    for line in summary.lines() {
        if let Some(v) = line.strip_prefix("reason: ") {
            b.reason = v.to_string();
        } else if let Some(v) = line.strip_prefix("detail: ") {
            b.detail = v.to_string();
        } else if let Some(v) = line.strip_prefix("failing_rank: ") {
            b.failing_rank = v.trim().parse::<usize>().ok();
        } else if let Some(v) = line.strip_prefix("rank ") {
            // "rank N: events E total T last_epoch X last_step Y"
            let toks: Vec<&str> = v.split([':', ' ']).filter(|t| !t.is_empty()).collect();
            let num = |key: &str| -> Option<u64> {
                toks.iter()
                    .position(|t| *t == key)
                    .and_then(|i| toks.get(i + 1))
                    .and_then(|t| t.parse().ok())
            };
            let (Some(rank), Some(events), Some(last_epoch), Some(last_step)) = (
                toks.first().and_then(|t| t.parse::<usize>().ok()),
                num("events"),
                num("last_epoch"),
                num("last_step"),
            ) else {
                return Err(format!("summary.txt: bad rank line {line:?}"));
            };
            b.ranks.push(BundleRank {
                rank,
                events: events as usize,
                last_epoch,
                last_step,
            });
        }
    }
    (b.spans, b.flows) = mf_telemetry::parse_chrome_trace(&read("trace.json")?)
        .map_err(|e| format!("trace.json: {e}"))?;
    b.metrics = read("metrics.txt")?;
    b.config = read("config.txt")?;
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_telemetry::{FlowPhase, Kind, Record};

    fn temp_parent(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mf_observe_pm_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bundle_round_trips_through_read_bundle() {
        let parent = temp_parent("roundtrip");
        let rec = RankRecord {
            events: vec![
                Record {
                    t_us: 5,
                    name: "comm.send",
                    kind: Kind::Send,
                    step: 11,
                    a: crate::flow_id(3, 1, 42),
                    v: [64.0, 0.0],
                    ..Record::default()
                },
                Record {
                    t_us: 9,
                    name: "mfp.iteration",
                    kind: Kind::Span,
                    step: 12,
                    v: [1e-3, 0.0],
                    ..Record::default()
                },
            ],
            metrics: mf_telemetry::MetricsSnapshot {
                metrics: vec![(
                    "comm.msgs_sent".into(),
                    mf_telemetry::MetricValue::Counter(7),
                )],
            },
            total: 2,
        };
        let spans = vec![SpanEvent {
            name: "mfp.iteration".into(),
            rank: 3,
            start_us: 4,
            dur_us: 10,
            depth: 0,
            args: vec![],
        }];
        let flows = vec![
            FlowEvent {
                name: "comm.send".into(),
                rank: 3,
                ts_us: 5,
                id: crate::flow_id(3, 1, 42),
                phase: FlowPhase::Start,
                args: vec![],
            },
            FlowEvent {
                name: "comm.recv".into(),
                rank: 1,
                ts_us: 8,
                id: crate::flow_id(3, 1, 42),
                phase: FlowPhase::Finish,
                args: vec![],
            },
        ];
        let reason = DumpReason {
            kind: "cluster-failure".into(),
            detail: "rank 3: injected crash\nsecond line".into(),
            failing_rank: Some(3),
        };
        let dir = write_bundle(
            &parent,
            &reason,
            "plan: lossy seed=42",
            &[(3, rec)],
            &spans,
            &flows,
        )
        .unwrap();
        assert!(dir
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("observe-dump-"));

        let b = read_bundle(&dir).unwrap();
        assert_eq!(b.reason, "cluster-failure");
        assert_eq!(b.failing_rank, Some(3));
        assert!(b.detail.contains("injected crash"));
        assert!(!b.detail.contains('\n'), "detail is one line");
        assert_eq!(b.last_step(3), Some((0, 12)));
        assert_eq!(b.flows.len(), 2);
        assert!(b.flows.iter().any(|f| crate::flow_src(f.id) == 3));
        // The recorder ring shows up as zero-length slices.
        assert!(b.spans.iter().any(|s| s.name == "rec.comm.send"));
        assert!(b.spans.iter().any(|s| s.name == "mfp.iteration"));
        assert_eq!(
            b.metrics,
            "--- rank 3 ---\n# TYPE comm_msgs_sent counter\ncomm_msgs_sent_total 7\n# EOF\n"
        );
        assert!(b.config.contains("lossy"));
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn dump_is_a_no_op_when_disabled() {
        // Disabled explicitly: this must not touch the disk, whatever the
        // environment says.
        set_dump_dir(None);
        let out = dump(&DumpReason::default(), "");
        assert!(out.is_none());
    }

    #[test]
    fn mf_observe_grammar_is_dump_or_dump_dir_and_a_typo_writes_nothing() {
        assert_eq!(parse_observe("dump"), Some(PathBuf::from(".")));
        assert_eq!(parse_observe("dump:/tmp/d"), Some(PathBuf::from("/tmp/d")));
        assert_eq!(parse_observe(""), None);
        assert_eq!(parse_observe(" , "), None);
        for typo in ["wacth", "1", "off", "trace", "dumps", "dumpster:dir"] {
            assert_eq!(parse_observe(typo), None, "{typo:?} must not enable dumps");
        }
        assert_eq!(parse_observe("wacth, dump:out"), Some(PathBuf::from("out")));
    }
}
