//! The export/parse side of the trace: [`SpanEvent`] and [`FlowEvent`]
//! (what a [`Record`] becomes once it leaves its thread), the Chrome
//! `trace_event` JSON writer (loadable in `chrome://tracing` / Perfetto),
//! and the parser that inverts it exactly — used by tests and post-mortem
//! bundles.

use crate::json::{JsonValue, JsonWriter};
use crate::sink::{Kind, Record};
use std::io::{self, Write};

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

/// Which end of a flow an event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowPhase {
    /// The producing end (a send) — Chrome phase `"s"`.
    Start,
    /// The consuming end (a delivery) — Chrome phase `"f"`.
    Finish,
}

/// One end of a cross-rank flow: a message leaving its sender or arriving
/// at its receiver. The two ends share a 64-bit id; the Chrome exporter
/// emits them as `ph:"s"` / `ph:"f"` events, so Perfetto draws an arrow
/// between the enclosing slices of the two ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowEvent {
    /// Site name, e.g. `"comm.send"`.
    pub name: String,
    /// Rank of the recording thread (0 for untagged threads).
    pub rank: usize,
    /// Timestamp, microseconds since the telemetry epoch.
    pub ts_us: u64,
    /// Flow id; the start and finish ends of one flow share it.
    pub id: u64,
    /// Which end this event is.
    pub phase: FlowPhase,
    /// Numeric arguments captured at record time.
    pub args: Vec<(String, f64)>,
}

impl SpanEvent {
    /// The exported form of a timed-scope record.
    pub fn from_record(rank: usize, r: &Record) -> Self {
        Self {
            name: r.name.to_string(),
            rank,
            start_us: r.t_us,
            dur_us: r.dur_us,
            depth: r.depth,
            args: r
                .keys
                .iter()
                .zip(r.v)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

impl FlowEvent {
    /// The exported form of a [`Kind::Send`] / [`Kind::Recv`] record.
    pub fn from_record(rank: usize, r: &Record) -> Self {
        Self {
            name: r.name.to_string(),
            rank,
            ts_us: r.t_us,
            id: r.a,
            phase: match r.kind {
                Kind::Send => FlowPhase::Start,
                _ => FlowPhase::Finish,
            },
            args: vec![
                ("epoch".to_string(), r.epoch as f64),
                ("step".to_string(), r.step as f64),
                ("bytes".to_string(), r.v[0]),
            ],
        }
    }
}

/// The numeric `args` object of an event.
fn write_args(w: &mut JsonWriter, args: &[(String, f64)]) {
    w.key("args").obj(|w| {
        for (k, v) in args {
            w.field(k, *v);
        }
    });
}

/// Take every collected span and flow event ([`crate::drain_spans`],
/// [`crate::drain_flows`]) and write them to `path` as Chrome `trace_event`
/// JSON, reporting the counts or the failure on stderr. The end of a
/// `--trace PATH` run; no-op without a path.
pub fn write_trace_file(path: Option<&str>) {
    let Some(path) = path else { return };
    let spans = crate::drain_spans();
    let flows = crate::drain_flows();
    let mut body = Vec::new();
    match write_chrome_trace_with_flows(&spans, &flows, &mut body)
        .and_then(|()| std::fs::write(path, body))
    {
        Ok(()) => eprintln!(
            "wrote {} span(s) and {} flow event(s) to {path}",
            spans.len(),
            flows.len()
        ),
        Err(e) => eprintln!("failed to write trace: {e}"),
    }
}

/// Write events in the Chrome `trace_event` array format: complete
/// (`"ph":"X"`) events with microsecond `ts`/`dur`, `pid` 0, and the rank
/// as `tid`, so each rank renders as one flame-graph row.
pub fn write_chrome_trace<W: Write>(events: &[SpanEvent], w: &mut W) -> io::Result<()> {
    write_chrome_trace_with_flows(events, &[], w)
}

/// Write a Chrome trace with both slice events and cross-rank flow
/// events. Flows are emitted as `ph:"s"` (start) / `ph:"f"` with
/// `bp:"e"` (finish, bound to enclosing slice) pairs sharing an `id`, so
/// Perfetto draws an arrow from the sending rank's slice to the
/// receiving rank's — this is how one merged timeline shows a halo
/// arriving late or an allreduce waiting on a straggler.
pub fn write_chrome_trace_with_flows<W: Write>(
    events: &[SpanEvent],
    flows: &[FlowEvent],
    w: &mut W,
) -> io::Result<()> {
    let doc = JsonWriter::array(|doc| {
        for e in events {
            doc.obj(|o| {
                o.field("name", e.name.as_str())
                    .field("cat", "mf")
                    .field("ph", "X")
                    .field("ts", e.start_us)
                    .field("dur", e.dur_us)
                    .field("pid", 0u32)
                    .field("tid", e.rank)
                    .field("depth", e.depth);
                write_args(o, &e.args);
            });
        }
        for f in flows {
            doc.obj(|o| {
                o.field("name", f.name.as_str()).field("cat", "mf.flow");
                match f.phase {
                    FlowPhase::Start => o.field("ph", "s"),
                    FlowPhase::Finish => o.field("ph", "f").field("bp", "e"),
                };
                // The id is a string: packed flow ids use all 64 bits and
                // would lose precision as a JSON double.
                o.field("id", f.id.to_string().as_str())
                    .field("ts", f.ts_us)
                    .field("pid", 0u32)
                    .field("tid", f.rank);
                write_args(o, &f.args);
            });
        }
    });
    w.write_all(doc.as_bytes())?;
    writeln!(w)
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// The `name` and numeric `args` members every event object carries. A
/// `null` arg is a non-finite value, read back as NaN.
fn name_and_args(v: &JsonValue) -> Result<(String, Vec<(String, f64)>), String> {
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("missing field \"name\"")?
        .to_string();
    let args = match v.get("args") {
        Some(JsonValue::Obj(members)) => members
            .iter()
            .map(|(k, val)| match val {
                JsonValue::Null => Ok((k.clone(), f64::NAN)),
                _ => val
                    .as_f64()
                    .map(|f| (k.clone(), f))
                    .ok_or_else(|| format!("non-numeric arg {k:?}")),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => Vec::new(),
    };
    Ok((name, args))
}

fn event_from_json(v: &JsonValue) -> Result<SpanEvent, String> {
    let (name, args) = name_and_args(v)?;
    Ok(SpanEvent {
        name,
        rank: field_u64(v, "tid")? as usize,
        start_us: field_u64(v, "ts")?,
        dur_us: field_u64(v, "dur")?,
        depth: field_u64(v, "depth")? as u32,
        args,
    })
}

fn flow_from_json(v: &JsonValue, phase: FlowPhase) -> Result<FlowEvent, String> {
    let (name, args) = name_and_args(v)?;
    // Written as a string: a JSON number is read as an f64, which does not
    // hold the 64 bits of a packed flow id.
    let id = v
        .get("id")
        .and_then(JsonValue::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("flow event {name}: missing or bad id"))?;
    Ok(FlowEvent {
        name,
        rank: field_u64(v, "tid")? as usize,
        ts_us: field_u64(v, "ts")?,
        id,
        phase,
        args,
    })
}

/// Parse a Chrome trace written by [`write_chrome_trace`] or
/// [`write_chrome_trace_with_flows`] into its slice and flow events.
pub fn parse_chrome_trace(s: &str) -> Result<(Vec<SpanEvent>, Vec<FlowEvent>), String> {
    let doc = JsonValue::parse(s)?;
    let events = doc
        .as_arr()
        .ok_or("chrome trace: top level is not an array")?;
    let mut spans = Vec::new();
    let mut flows = Vec::new();
    for e in events {
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("X") => spans.push(event_from_json(e)?),
            Some("s") => flows.push(flow_from_json(e, FlowPhase::Start)?),
            Some("f") => flows.push(flow_from_json(e, FlowPhase::Finish)?),
            other => return Err(format!("unsupported event phase {other:?}")),
        }
    }
    Ok((spans, flows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "train.step".into(),
                rank: 0,
                start_us: 10,
                dur_us: 900,
                depth: 0,
                args: vec![],
            },
            SpanEvent {
                name: "comm.allreduce".into(),
                rank: 0,
                start_us: 700,
                dur_us: 150,
                depth: 1,
                args: vec![("bytes".into(), 4096.0), ("elems".into(), 512.0)],
            },
            SpanEvent {
                name: "mfp.iteration".into(),
                rank: 3,
                start_us: 42,
                dur_us: 0,
                depth: 0,
                args: vec![("residual".into(), 0.125)],
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips_identical_spans() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_chrome_trace(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (back, flows) = parse_chrome_trace(&text).unwrap();
        assert_eq!(back, events);
        assert!(flows.is_empty());
        // Structural validity: every event is a complete event with
        // microsecond timestamps and the rank as tid.
        let doc = JsonValue::parse(&text).unwrap();
        for e in doc.as_arr().unwrap() {
            assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(e.get("dur").and_then(JsonValue::as_f64).is_some());
            assert!(e.get("tid").and_then(JsonValue::as_f64).is_some());
        }
        assert_eq!(
            doc.as_arr().unwrap()[2]
                .get("tid")
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn names_with_quotes_survive_the_round_trip() {
        let events = vec![SpanEvent {
            name: "odd \"name\"\nwith\tescapes".into(),
            rank: 1,
            start_us: 0,
            dur_us: 1,
            depth: 0,
            args: vec![],
        }];
        let mut buf = Vec::new();
        write_chrome_trace(&events, &mut buf).unwrap();
        assert_eq!(
            parse_chrome_trace(&String::from_utf8(buf).unwrap())
                .unwrap()
                .0,
            events
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let mut buf = Vec::new();
        write_chrome_trace(&[], &mut buf).unwrap();
        let (spans, flows) = parse_chrome_trace(&String::from_utf8(buf).unwrap()).unwrap();
        assert!(spans.is_empty() && flows.is_empty());
    }

    #[test]
    fn flows_round_trip_and_preserve_full_64_bit_ids() {
        // Pack src/dst into the top bits: this id is NOT representable as
        // an f64, so it must survive as a string.
        let id = (3u64 << 56) | (1u64 << 48) | 0xFFFF_FFFF_FFFF;
        let flows = vec![
            FlowEvent {
                name: "comm.send".into(),
                rank: 3,
                ts_us: 100,
                id,
                phase: FlowPhase::Start,
                args: vec![("bytes".into(), 64.0)],
            },
            FlowEvent {
                name: "comm.recv".into(),
                rank: 1,
                ts_us: 180,
                id,
                phase: FlowPhase::Finish,
                args: vec![],
            },
        ];
        let events = sample_events();
        let mut buf = Vec::new();
        write_chrome_trace_with_flows(&events, &flows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (spans_back, flows_back) = parse_chrome_trace(&text).unwrap();
        assert_eq!(spans_back, events);
        assert_eq!(flows_back, flows);
        // Structural validity of the flow pair: "s" then "f" with bp:"e".
        let doc = JsonValue::parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();
        let start = &arr[events.len()];
        let finish = &arr[events.len() + 1];
        assert_eq!(start.get("ph").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(finish.get("ph").and_then(JsonValue::as_str), Some("f"));
        assert_eq!(finish.get("bp").and_then(JsonValue::as_str), Some("e"));
        assert_eq!(
            start.get("id").and_then(JsonValue::as_str),
            finish.get("id").and_then(JsonValue::as_str)
        );
    }

    #[test]
    fn flows_only_trace_is_valid() {
        let flows = vec![FlowEvent {
            name: "f".into(),
            rank: 0,
            ts_us: 1,
            id: 7,
            phase: FlowPhase::Start,
            args: vec![],
        }];
        let mut buf = Vec::new();
        write_chrome_trace_with_flows(&[], &flows, &mut buf).unwrap();
        let (spans, back) = parse_chrome_trace(&String::from_utf8(buf).unwrap()).unwrap();
        assert!(spans.is_empty());
        assert_eq!(back, flows);
    }
}
