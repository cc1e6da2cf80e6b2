//! Every JSON document the program writes, read back with the one parser
//! it reads JSON with: serve reply lines, Chrome traces, `/snapshot`,
//! `/requests`, the health probes, log lines and the bench gate's metrics
//! file. A finite number comes back bit for bit; a non-finite one is
//! written as `null` (and reads back as NaN through `parse_chrome_trace`
//! and the gate), never as a bare `NaN` that no JSON reader accepts.

use mf_bench::gate::{self, Metric};
use mosaic_flow::reqtrace::{self, RequestTrace, SloConfig, TraceContext};
use mosaic_flow::serve::{protocol, ServeError, SolveResponse};
use mosaic_flow::telemetry::{
    self as tel, FlowEvent, FlowPhase, HistSnapshot, JsonValue, Level, MetricValue,
    MetricsSnapshot, SpanEvent,
};
use mosaic_flow::tensor::Tensor;

/// Finite values whose shortest text is unusual: a signed zero, the
/// smallest subnormal, the largest finite value, and a whole number above 2^64.
const FINITE: [f64; 6] = [-0.0, 5e-324, f64::MAX, 1e20, 0.1, -3.5];
const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

fn values() -> impl Iterator<Item = f64> {
    FINITE.into_iter().chain(NON_FINITE)
}

fn parse(doc: &str) -> JsonValue {
    JsonValue::parse(doc.trim_end()).unwrap_or_else(|e| panic!("not JSON ({e}): {doc}"))
}

/// `v` as written and read back: the same bits when finite, `null`
/// otherwise.
fn assert_reads_back(v: f64, back: Option<&JsonValue>, what: &str) {
    match back {
        Some(JsonValue::Num(b)) if v.is_finite() => {
            assert_eq!(b.to_bits(), v.to_bits(), "{what}: {v:?} read back as {b:?}")
        }
        Some(JsonValue::Null) if !v.is_finite() => {}
        other => panic!("{what}: {v:?} read back as {other:?}"),
    }
}

#[test]
fn serve_reply_lines() {
    for mean in values() {
        let resp = SolveResponse {
            iterations: 3,
            converged: false,
            mean,
            grid: Some(Tensor::from_vec(1, 9, values().collect())),
            latency_ms: 2.0004,
        };
        let line = protocol::render_ok(7, &resp);
        assert!(
            line.ends_with('\n') && line.matches('\n').count() == 1,
            "{line:?}"
        );
        let doc = parse(&line);
        assert_reads_back(mean, doc.get("mean"), "render_ok mean");
        let grid = doc.get("grid").and_then(JsonValue::as_arr).expect("grid");
        assert_eq!(grid.len(), 9);
        for (v, back) in values().zip(grid) {
            assert_reads_back(v, Some(back), "render_ok grid");
        }
        // Rounded to the microsecond before it is written.
        assert_reads_back(2.0, doc.get("latency_ms"), "render_ok latency_ms");
    }
    for (id, e) in [
        ServeError::Busy { retry_after_ms: 4 },
        ServeError::BadRequest("NaN \" \\ \n \u{1} µ".into()),
        ServeError::Shutdown,
    ]
    .iter()
    .enumerate()
    {
        let doc = parse(&protocol::render_err(id as u64, e));
        assert_eq!(doc.get("id").and_then(JsonValue::as_f64), Some(id as f64));
    }
}

#[test]
fn chrome_trace_args() {
    let args: Vec<(String, f64)> = values()
        .enumerate()
        .map(|(i, v)| (format!("a{i}"), v))
        .collect();
    let span = SpanEvent {
        name: "mfp.iteration".into(),
        rank: 1,
        start_us: 10,
        dur_us: 5,
        depth: 0,
        args: args.clone(),
    };
    let flow = FlowEvent {
        name: "comm.send".into(),
        rank: 0,
        ts_us: 12,
        id: u64::MAX,
        phase: FlowPhase::Start,
        args: args.clone(),
    };
    let mut buf = Vec::new();
    tel::write_chrome_trace_with_flows(&[span], &[flow], &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    for event in parse(&text).as_arr().expect("an array of events") {
        for (k, v) in &args {
            assert_reads_back(*v, event.get("args").and_then(|a| a.get(k)), "chrome arg");
        }
    }
    let (spans, flows) = tel::parse_chrome_trace(&text).unwrap();
    assert_eq!(flows[0].id, u64::MAX);
    for back in [&spans[0].args, &flows[0].args] {
        for ((k, v), (bk, b)) in args.iter().zip(back) {
            assert_eq!(k, bk);
            if v.is_finite() {
                assert_eq!(b.to_bits(), v.to_bits(), "parse_chrome_trace {k}");
            } else {
                assert!(
                    b.is_nan(),
                    "parse_chrome_trace {k}: {v:?} read back as {b:?}"
                );
            }
        }
    }
}

#[test]
fn metrics_snapshot() {
    let mut metrics: Vec<(String, MetricValue)> = values()
        .enumerate()
        .map(|(i, v)| (format!("g{i}"), MetricValue::Gauge(v)))
        .collect();
    metrics.push(("c".into(), MetricValue::Counter(u64::MAX)));
    metrics.push((
        "h".into(),
        MetricValue::Histogram(HistSnapshot {
            bounds: vec![1.0],
            counts: vec![1, 1],
            count: 2,
            sum: f64::NAN,
            min: -0.0,
            max: 5e-324,
        }),
    ));
    let snap = MetricsSnapshot { metrics };
    let per_rank = [(None, snap.clone()), (Some(2), snap.clone())];
    let doc = parse(&tel::render_snapshot_json(&per_rank, &snap));
    let ranks = doc.get("ranks").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(
        ranks[0].get("rank").and_then(JsonValue::as_str),
        Some("main")
    );
    assert_eq!(ranks[1].get("rank").and_then(JsonValue::as_f64), Some(2.0));
    for m in [ranks[1].get("metrics"), doc.get("merged")] {
        let m = m.unwrap();
        for (i, v) in values().enumerate() {
            assert_reads_back(v, m.get(&format!("g{i}")), "snapshot gauge");
        }
        let h = m.get("h").unwrap();
        assert_reads_back(f64::NAN, h.get("sum"), "snapshot histogram sum");
        assert_reads_back(-0.0, h.get("min"), "snapshot histogram min");
        assert_reads_back(5e-324, h.get("max"), "snapshot histogram max");
    }
}

#[test]
fn log_lines() {
    // Log fields are `Display` text: a number's text passes through bare,
    // anything else (`NaN`, `inf`) is a string holding that text.
    const KEYS: [&str; 9] = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
    let fields: Vec<(&str, String)> = KEYS
        .into_iter()
        .zip(values().map(|v| v.to_string()))
        .collect();
    let doc = parse(&tel::format_log_line(Level::Warn, "codec.test", &fields));
    for ((k, text), v) in fields.iter().zip(values()) {
        let back = doc.get(k);
        if v.is_finite() {
            assert_reads_back(v, back, "log field");
        } else {
            assert_eq!(
                back.and_then(JsonValue::as_str),
                Some(text.as_str()),
                "log field {k}"
            );
        }
    }
}

#[test]
fn request_log_and_health_probes() {
    let logged: Vec<(u64, f64)> = values()
        .map(|v| {
            let ctx = TraceContext::root();
            let t = RequestTrace::finished(ctx, 1, 1, [0, 1, 2, 3, 4, 5], 2, false, v);
            reqtrace::log_batch(&[t], 2..=3);
            (ctx.req, v)
        })
        .collect();
    let doc = parse(&reqtrace::render_requests_json(reqtrace::RECENT_CAP));
    let requests = doc.get("requests").and_then(JsonValue::as_arr).unwrap();
    for (req, v) in logged {
        let t = requests
            .iter()
            .find(|t| t.get("req").and_then(JsonValue::as_f64) == Some(req as f64))
            .expect("logged request");
        assert_reads_back(v, t.get("final_residual"), "/requests final_residual");
    }

    reqtrace::set_slo(SloConfig {
        p99_ms: 1e20,
        error_rate: 0.1,
        conv_fail_rate: f64::MAX,
    });
    reqtrace::report_health(f64::INFINITY, 0.05, 0.0);
    let (healthy, body) = reqtrace::healthz();
    assert!(!healthy);
    let doc = parse(&body);
    let burns = doc.get("burns").unwrap();
    assert_reads_back(f64::INFINITY, burns.get("p99"), "/healthz p99 burn");
    assert_reads_back(0.5, burns.get("error"), "/healthz error burn");
    let budgets = doc.get("budgets").unwrap();
    assert_reads_back(1e20, budgets.get("p99_ms"), "/healthz p99 budget");
    assert_reads_back(f64::MAX, budgets.get("conv_fail_rate"), "/healthz budget");
    let doc = parse(&reqtrace::readyz().1);
    assert!(matches!(doc.get("ready"), Some(JsonValue::Bool(_))));
}

#[test]
fn bench_gate_file() {
    let metrics: Vec<(String, Metric)> = values()
        .enumerate()
        .map(|(i, value)| {
            let m = Metric {
                value,
                tol: 0.15,
                higher_better: i % 2 == 0,
            };
            (format!("m{i}"), m)
        })
        .collect();
    let text = gate::render_metrics(&metrics);
    let doc = parse(&text);
    for (name, m) in &metrics {
        let back = doc.get("metrics").and_then(|d| d.get(name));
        assert_reads_back(m.value, back.and_then(|b| b.get("value")), "gate value");
    }
    for ((name, m), (_, b)) in metrics.iter().zip(gate::parse_metrics(&text).unwrap()) {
        if m.value.is_finite() {
            assert_eq!(b.value.to_bits(), m.value.to_bits(), "gate {name}");
        } else {
            assert!(
                b.value.is_nan(),
                "gate {name}: {:?} read back as {:?}",
                m.value,
                b.value
            );
        }
    }
}
