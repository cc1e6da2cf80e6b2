//! Exposition encodings for scrapers: Prometheus/OpenMetrics text and a
//! JSON snapshot document.
//!
//! These are pure formatters over [`MetricsSnapshot`]; the TCP server
//! that actually answers `GET /metrics` lives in `mf-profile` so this
//! crate stays free of any I/O concerns.

use crate::json::JsonWriter;
use crate::metrics::{HistSnapshot, MetricValue, MetricsSnapshot};
use std::fmt::Write;

/// Rewrite a dotted metric name (`infer.pts_per_s`) into the Prometheus
/// name charset (`infer_pts_per_s`): `[a-zA-Z0-9_:]`, non-conforming
/// bytes become `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn write_histogram(out: &mut String, name: &str, h: &HistSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        cum += c;
        let le = match h.bounds.get(i) {
            Some(b) => fmt_value(*b),
            None => "+Inf".to_string(),
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum));
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Render a snapshot in the OpenMetrics text format: `# TYPE` metadata,
/// counters with a `_total` sample, histograms as cumulative
/// `_bucket{le=…}` samples ending in `+Inf`, and a terminating `# EOF`.
pub fn render_openmetrics(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, val) in &snap.metrics {
        let name = sanitize_metric_name(name);
        match val {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name}_total {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", fmt_value(*v));
            }
            MetricValue::Histogram(h) => write_histogram(&mut out, &name, h),
        }
    }
    out.push_str("# EOF\n");
    out
}

fn write_metrics_json(w: &mut JsonWriter, snap: &MetricsSnapshot) {
    w.obj(|w| {
        for (name, val) in &snap.metrics {
            w.key(name);
            match val {
                MetricValue::Counter(v) => w.val(*v),
                MetricValue::Gauge(v) => w.val(*v),
                MetricValue::Histogram(h) => {
                    let [p50, p95, p99] = h.percentiles();
                    w.obj(|w| {
                        w.field("count", h.count)
                            .field("sum", h.sum)
                            .field("min", h.min)
                            .field("max", h.max)
                            .field("p50", p50)
                            .field("p95", p95)
                            .field("p99", p99);
                    })
                }
            };
        }
    });
}

/// Render the full scrape state as a JSON document:
/// `{"ranks": [{"rank": 0|"main", "metrics": {…}}, …],
///   "merged": {…}}`.
/// Histograms appear as `{count, sum, min, max, p50, p95, p99}` objects.
pub fn render_snapshot_json(
    per_rank: &[(Option<usize>, MetricsSnapshot)],
    merged: &MetricsSnapshot,
) -> String {
    JsonWriter::object(|w| {
        w.key("ranks").arr(|w| {
            for (rank, snap) in per_rank {
                w.obj(|w| {
                    match rank {
                        Some(r) => w.field("rank", *r),
                        None => w.field("rank", "main"),
                    };
                    write_metrics_json(w.key("metrics"), snap);
                });
            }
        });
        write_metrics_json(w.key("merged"), merged);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonValue;

    fn demo_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: vec![
                ("comm.msgs_sent".into(), MetricValue::Counter(12)),
                ("infer.pts_per_s".into(), MetricValue::Gauge(4096.5)),
                (
                    "prof.gemm_us".into(),
                    MetricValue::Histogram(HistSnapshot {
                        bounds: vec![1.0, 4.0],
                        counts: vec![2, 1, 1],
                        count: 4,
                        sum: 17.0,
                        min: 0.5,
                        max: 9.0,
                    }),
                ),
            ],
        }
    }

    #[test]
    fn openmetrics_output_is_well_formed() {
        let text = render_openmetrics(&demo_snapshot());
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE comm_msgs_sent counter\ncomm_msgs_sent_total 12\n"));
        assert!(text.contains("# TYPE infer_pts_per_s gauge\ninfer_pts_per_s 4096.5\n"));
        // Histogram buckets are cumulative and end with +Inf == _count.
        assert!(text.contains("prof_gemm_us_bucket{le=\"1\"} 2"));
        assert!(text.contains("prof_gemm_us_bucket{le=\"4\"} 3"));
        assert!(text.contains("prof_gemm_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("prof_gemm_us_sum 17"));
        assert!(text.contains("prof_gemm_us_count 4"));
        // Every non-comment line is `name{labels} value` with a sane name.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, rest) = line.split_once(' ').expect("sample has a value");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {bare:?}"
            );
            assert!(!rest.is_empty());
        }
    }

    #[test]
    fn json_snapshot_parses_and_holds_values() {
        let snap = demo_snapshot();
        let per_rank = vec![(None, snap.clone()), (Some(1), snap.clone())];
        let text = render_snapshot_json(&per_rank, &snap);
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let ranks = doc.get("ranks").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[0].get("rank").and_then(|v| v.as_str()), Some("main"));
        assert_eq!(ranks[1].get("rank").and_then(|v| v.as_f64()), Some(1.0));
        let merged = doc.get("merged").unwrap();
        assert_eq!(
            merged.get("comm.msgs_sent").and_then(|v| v.as_f64()),
            Some(12.0)
        );
        let hist = merged.get("prof.gemm_us").unwrap();
        assert_eq!(hist.get("count").and_then(|v| v.as_f64()), Some(4.0));
    }
}
