//! Benchmark-gate plumbing: a tiny JSON metrics format shared by the
//! `repro_*` binaries (writers) and the `bench_gate` binary (comparator).
//!
//! The format is deliberately minimal; it is written with `mf-telemetry`'s
//! [`JsonWriter`] (on one line) and read back with its [`JsonValue`]:
//!
//! ```json
//! {
//!   "metrics": {
//!     "table3.peak_bytes": {"value": 1234.0, "tol": 0.15, "higher_better": false}
//!   }
//! }
//! ```
//!
//! `tol` is the *relative* regression each metric may suffer against the
//! checked-in baseline before the gate fails: deterministic byte/alloc
//! counts use a tight tolerance, wall-clock throughputs a loose one (CI
//! machines are noisy). Improvements never fail the gate.
//!
//! Re-baselining: run the repro binaries with `--json BENCH_baseline.json`
//! on the main branch and commit the file (see DESIGN.md, "Memory model").

use mf_telemetry::{JsonValue, JsonWriter};
use std::fmt::Write as _;

/// One gated benchmark measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Allowed relative regression vs baseline (e.g. `0.15` = 15%).
    pub tol: f64,
    /// Direction: `true` when larger is better (throughput), `false` when
    /// smaller is better (bytes, allocations, latency).
    pub higher_better: bool,
}

/// Render a metrics set as the gate's JSON document.
pub fn render_metrics(metrics: &[(String, Metric)]) -> String {
    JsonWriter::object(|w| {
        w.key("metrics").obj(|w| {
            for (name, m) in metrics {
                w.key(name).obj(|w| {
                    w.field("value", m.value)
                        .field("tol", m.tol)
                        .field("higher_better", m.higher_better);
                });
            }
        });
    }) + "\n"
}

/// Append `metrics` to the JSON file at `path` (merging with any metrics
/// already there; later writers win on name collisions). Lets several
/// repro binaries contribute to one `BENCH_pr.json`. An existing file
/// that does not parse is an error, and is left as it is: merging into an
/// empty set would drop every metric written before.
pub fn write_metrics(path: &str, metrics: &[(String, Metric)]) -> std::io::Result<()> {
    let mut all = match std::fs::read_to_string(path) {
        Ok(s) => parse_metrics(&s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        Err(_) => Vec::new(),
    };
    for (name, m) in metrics {
        if let Some(slot) = all.iter_mut().find(|(n, _)| n == name) {
            slot.1 = *m;
        } else {
            all.push((name.clone(), *m));
        }
    }
    std::fs::write(path, render_metrics(&all))
}

/// Parse a metrics document produced by [`render_metrics`]: any valid
/// JSON whose `"metrics"` member maps names to `{value, tol,
/// higher_better}` objects; anything else is an error. A `null` value is
/// a non-finite measurement and reads back as NaN.
pub fn parse_metrics(s: &str) -> Result<Vec<(String, Metric)>, String> {
    let doc = JsonValue::parse(s)?;
    let Some(JsonValue::Obj(entries)) = doc.get("metrics") else {
        return Err("missing \"metrics\" object".into());
    };
    if entries.is_empty() {
        return Err("no metrics found".into());
    }
    entries
        .iter()
        .map(|(name, m)| {
            let num = |key: &str| {
                m.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("metric {name}: missing or non-numeric {key}"))
            };
            let Some(&JsonValue::Bool(higher_better)) = m.get("higher_better") else {
                return Err(format!(
                    "metric {name}: missing or non-boolean higher_better"
                ));
            };
            // A non-finite measurement is written as `null`; it reads back
            // as NaN, which [`compare`] fails.
            let value = match m.get("value") {
                Some(JsonValue::Null) => f64::NAN,
                _ => num("value")?,
            };
            let metric = Metric {
                value,
                tol: num("tol")?,
                higher_better,
            };
            Ok((name.clone(), metric))
        })
        .collect()
}

/// Outcome of comparing one metric against its baseline.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current (PR) value.
    pub current: f64,
    /// Signed relative change, positive = regression in the metric's
    /// worse direction.
    pub regression: f64,
    /// Allowed regression (the baseline's `tol`).
    pub tol: f64,
    /// True when `regression > tol`, or the current value is not finite.
    pub failed: bool,
}

/// Compare current metrics against the baseline. Metrics present on only
/// one side are reported but never fail the gate (renames/additions must
/// not brick CI). A non-finite current value always fails: no comparison
/// with a NaN is true, so it would otherwise pass every budget.
pub fn compare(
    baseline: &[(String, Metric)],
    current: &[(String, Metric)],
) -> (Vec<Comparison>, Vec<String>) {
    let mut rows = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for (name, b) in baseline {
        let Some((_, c)) = current.iter().find(|(n, _)| n == name) else {
            unmatched.push(format!("{name} (baseline only)"));
            continue;
        };
        // Relative change in the "worse" direction for this metric.
        let denom = b.value.abs().max(1e-12);
        let delta = (c.value - b.value) / denom;
        let regression = if b.higher_better { -delta } else { delta };
        rows.push(Comparison {
            name: name.clone(),
            baseline: b.value,
            current: c.value,
            regression,
            tol: b.tol,
            failed: regression > b.tol || !c.value.is_finite(),
        });
    }
    for (name, _) in current {
        if !baseline.iter().any(|(n, _)| n == name) {
            unmatched.push(format!("{name} (current only)"));
        }
    }
    (rows, unmatched)
}

/// The baseline file's git provenance: `<short-hash> <date> (<subject>)`
/// of the last commit touching it, so the gate summary says *which*
/// baseline a PR was judged against. Returns a placeholder when the file
/// is untracked or git is unavailable — provenance must never fail the
/// gate.
pub fn baseline_provenance(path: &str) -> String {
    let out = std::process::Command::new("git")
        .args([
            "log",
            "-1",
            "--format=%h %ad %s",
            "--date=short",
            "--",
            path,
        ])
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let line = String::from_utf8_lossy(&o.stdout).trim().to_string();
            if line.is_empty() {
                format!("{path}: not tracked in git")
            } else {
                line
            }
        }
        _ => format!("{path}: git provenance unavailable"),
    }
}

/// Render comparisons as a GitHub-flavored markdown table. `provenance`
/// (from [`baseline_provenance`]) records which baseline commit the
/// comparison used.
pub fn render_markdown(rows: &[Comparison], unmatched: &[String], provenance: &str) -> String {
    let mut s = String::from("## Bench gate\n\n");
    if !provenance.is_empty() {
        let _ = writeln!(s, "Baseline: `{provenance}`\n");
    }
    s.push_str("| metric | baseline | PR | change | budget | status |\n");
    s.push_str("|---|---:|---:|---:|---:|:---:|\n");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {:.4} | {:.4} | {:+.1}% | {:.0}% | {} |",
            r.name,
            r.baseline,
            r.current,
            // Positive change% = regression (direction-normalized).
            r.regression * 100.0,
            r.tol * 100.0,
            if r.failed { "❌ regression" } else { "✅" }
        );
    }
    if !unmatched.is_empty() {
        s.push_str("\nUnmatched metrics (not gated): ");
        s.push_str(&unmatched.join(", "));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, tol: f64, higher_better: bool) -> Metric {
        Metric {
            value,
            tol,
            higher_better,
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let metrics = vec![
            ("a.bytes".to_string(), m(1234.5, 0.15, false)),
            ("b.pts_per_s".to_string(), m(9.25e6, 0.5, true)),
        ];
        let parsed = parse_metrics(&render_metrics(&metrics)).unwrap();
        assert_eq!(parsed, metrics);
    }

    #[test]
    fn write_merges_into_existing_file() {
        let dir = std::env::temp_dir().join("mf_bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        write_metrics(path, &[("x".into(), m(1.0, 0.1, false))]).unwrap();
        write_metrics(
            path,
            &[
                ("x".into(), m(2.0, 0.1, false)),
                ("y".into(), m(3.0, 0.2, true)),
            ],
        )
        .unwrap();
        let all = parse_metrics(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1.value, 2.0);
        assert_eq!(all[1].1.value, 3.0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn an_unparseable_file_is_an_error_and_is_left_as_it_was() {
        let dir = std::env::temp_dir().join("mf_bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unparseable.json");
        let path = path.to_str().unwrap();
        // What a writer that printed a NaN bare used to leave behind.
        let bad =
            "{\"metrics\": {\"a\": {\"value\": NaN, \"tol\": 0.1, \"higher_better\": false}}}";
        std::fs::write(path, bad).unwrap();
        let err = write_metrics(path, &[("b".into(), m(1.0, 0.1, false))]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert_eq!(std::fs::read_to_string(path).unwrap(), bad);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_non_finite_current_value_fails() {
        let base = vec![
            ("lower".to_string(), m(100.0, 0.15, false)),
            ("higher".to_string(), m(100.0, 0.15, true)),
        ];
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cur = vec![
                ("lower".to_string(), m(v, 0.15, false)),
                ("higher".to_string(), m(v, 0.15, true)),
            ];
            let (rows, _) = compare(&base, &cur);
            assert!(rows.iter().all(|r| r.failed), "{v}: {rows:?}");
            // Through the file: written as null, read back as NaN, failed.
            let cur = parse_metrics(&render_metrics(&cur)).unwrap();
            assert!(cur.iter().all(|(_, c)| c.value.is_nan()));
            let (rows, _) = compare(&base, &cur);
            assert!(rows.iter().all(|r| r.failed), "{v}: {rows:?}");
        }
    }

    #[test]
    fn compare_is_direction_aware() {
        let base = vec![
            ("bytes".to_string(), m(100.0, 0.15, false)),
            ("tput".to_string(), m(100.0, 0.15, true)),
        ];
        // bytes went UP 20% (regression), tput went UP 20% (improvement).
        let cur = vec![
            ("bytes".to_string(), m(120.0, 0.15, false)),
            ("tput".to_string(), m(120.0, 0.15, true)),
        ];
        let (rows, unmatched) = compare(&base, &cur);
        assert!(unmatched.is_empty());
        assert!(rows[0].failed, "byte growth must fail");
        assert!(!rows[1].failed, "throughput growth must pass");
        // Flip: bytes down, tput down 20%.
        let cur = vec![
            ("bytes".to_string(), m(80.0, 0.15, false)),
            ("tput".to_string(), m(80.0, 0.15, true)),
        ];
        let (rows, _) = compare(&base, &cur);
        assert!(!rows[0].failed);
        assert!(rows[1].failed, "throughput drop must fail");
    }

    #[test]
    fn unmatched_metrics_do_not_fail() {
        let base = vec![("old".to_string(), m(1.0, 0.1, false))];
        let cur = vec![("new".to_string(), m(1.0, 0.1, false))];
        let (rows, unmatched) = compare(&base, &cur);
        assert!(rows.is_empty());
        assert_eq!(unmatched.len(), 2);
    }

    #[test]
    fn markdown_has_a_row_per_metric() {
        let base = vec![("bytes".to_string(), m(100.0, 0.15, false))];
        let cur = vec![("bytes".to_string(), m(90.0, 0.15, false))];
        let (rows, unmatched) = compare(&base, &cur);
        let md = render_markdown(&rows, &unmatched, "abc1234 2026-08-08 seed baseline");
        assert!(md.contains("| bytes |"));
        assert!(md.contains("✅"));
        assert!(
            md.contains("Baseline: `abc1234 2026-08-08 seed baseline`"),
            "provenance line missing:\n{md}"
        );
    }

    #[test]
    fn provenance_never_panics_on_unknown_paths() {
        let p = baseline_provenance("definitely/not/a/file.json");
        assert!(!p.is_empty());
    }

    #[test]
    fn parse_reads_json_not_a_layout() {
        let doc = "{\"schema\": 1,\n\t\"metrics\" :{ \"a.b\" : { \"higher_better\":true ,\n\"tol\":0.5,\"value\" : 2e3 } },\n \"after\": {\"value\": 1, \"tol\": 1, \"higher_better\": false}}";
        assert_eq!(
            parse_metrics(doc).unwrap(),
            vec![("a.b".to_string(), m(2000.0, 0.5, true))]
        );
    }

    #[test]
    fn a_truncated_file_is_an_error_not_a_shorter_pass() {
        let full = render_metrics(&[
            ("first".to_string(), m(1.0, 0.1, false)),
            ("second".to_string(), m(2.0, 0.1, false)),
        ]);
        let cut = full.find("},").expect("two entries") + 2;
        assert!(parse_metrics(&full[..cut]).is_err());
        assert!(parse_metrics(&format!("{full} trailing")).is_err());
    }
}
