//! `BENCHMARK.json` and the result line, checked against the driver's
//! contract. Every run validates its own result before printing it, so a
//! malformed line fails here and not in the driver.

use mf_telemetry::JsonValue;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// One measured value with its unit, as it goes into the result line.
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

fn spec_path() -> String {
    format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"))
}

fn chars_ok(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn name_ok(s: &str) -> bool {
    chars_ok(s, 64, "_.-") && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn keys_are(v: &JsonValue, keys: &[&str]) -> bool {
    match v {
        JsonValue::Obj(o) => {
            o.len() == keys.len()
                && keys
                    .iter()
                    .all(|k| o.iter().filter(|(n, _)| n == k).count() == 1)
        }
        _ => false,
    }
}

fn metric_list(
    v: &JsonValue,
    key: &str,
    bounded: bool,
    max: usize,
) -> Result<Vec<MetricSpec>, String> {
    let arr = v
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("{key}: not a list"))?;
    if arr.is_empty() || arr.len() > max {
        return Err(format!("{key}: {} entries, allowed 1 to {max}", arr.len()));
    }
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    arr.iter()
        .map(|m| {
            if !keys_are(m, keys) {
                return Err(format!(
                    "{key}: an entry does not have exactly the keys {keys:?}"
                ));
            }
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            let (name, unit, better) = (s("name"), s("unit"), s("better"));
            if !name_ok(&name) {
                return Err(format!("{key}: bad name {name:?}"));
            }
            if !chars_ok(&unit, 16, "_/%.-") {
                return Err(format!("{key}/{name}: bad unit {unit:?}"));
            }
            if better != "higher" && better != "lower" {
                return Err(format!("{key}/{name}: better is {better:?}"));
            }
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            if bounded && !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
                return Err(format!("{key}/{name}: bound must be within 0 and 0.25"));
            }
            Ok(MetricSpec {
                name,
                unit,
                higher_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// Read `BENCHMARK.json` and hold it to the limits the driver states.
pub fn load_spec() -> Result<Spec, String> {
    let path = spec_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if text.len() > 64 << 10 {
        return Err("BENCHMARK.json is larger than 64 KiB".into());
    }
    let v = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if !keys_are(
        &v,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    ) {
        return Err("BENCHMARK.json: top-level keys differ from the contract".into());
    }
    let strings = |key: &str, max: usize, max_len: usize| -> Result<Vec<String>, String> {
        let arr = v
            .get(key)
            .and_then(JsonValue::as_arr)
            .ok_or(format!("{key}: not a list"))?;
        if arr.is_empty() || arr.len() > max {
            return Err(format!("{key}: {} entries, allowed 1 to {max}", arr.len()));
        }
        arr.iter()
            .map(|s| match s.as_str() {
                Some(s) if s.len() <= max_len => Ok(s.to_string()),
                _ => Err(format!(
                    "{key}: an entry is not a string of at most {max_len} characters"
                )),
            })
            .collect()
    };
    let paths = strings("paths", 16, 200)?;
    for p in &paths {
        if !chars_ok(p, 200, "_.-/") || p.starts_with('/') || p.split('/').any(|c| c == "..") {
            return Err(format!("paths: bad entry {p:?}"));
        }
    }
    for arg in strings("command", 32, 200)? {
        if arg.starts_with('/') || arg.split('/').any(|c| c == "..") {
            return Err(format!("command: {arg:?} leaves the checkout"));
        }
    }
    let run_seconds = v
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    if run_seconds.fract() != 0.0 || !(1.0..=60.0).contains(&run_seconds) {
        return Err("run_seconds must be a whole number from 1 to 60".into());
    }
    let wl = v
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("workloads: not a list")?;
    if !(2..=8).contains(&wl.len()) {
        return Err("workloads: allowed 2 to 8".into());
    }
    let mut workloads = Vec::new();
    for w in wl {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let why = w.get("why").and_then(JsonValue::as_str).unwrap_or("");
        if !keys_are(w, &["name", "why"]) || !name_ok(name) {
            return Err(format!("workloads: bad entry {name:?}"));
        }
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workloads/{name}: why must be one line of at most 200 characters"
            ));
        }
        workloads.push(name.to_string());
    }
    let end_to_end = metric_list(&v, "end_to_end", true, 16)?;
    let per_layer = metric_list(&v, "per_layer", false, 128)?;
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_better)
    {
        return Err("end_to_end: setup_s (unit s, lower is better) is missing".into());
    }
    let mut names: Vec<&str> = workloads.iter().map(String::as_str).collect();
    names.extend(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()));
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("the name {:?} is used twice", w[0]));
    }
    Ok(Spec {
        run_seconds: run_seconds as u64,
        workloads,
        end_to_end,
        per_layer,
    })
}

/// Check measured values against the metric list they must fill: each
/// metric once, nothing else, finite, with the declared unit.
pub fn check_values(expected: &[MetricSpec], values: &[Value]) -> Result<(), String> {
    for m in expected {
        let hits: Vec<&Value> = values.iter().filter(|v| v.name == m.name).collect();
        match hits.as_slice() {
            [v] if !v.value.is_finite() => {
                return Err(format!("{}: value {} is not finite", m.name, v.value))
            }
            [v] if v.unit != m.unit => {
                return Err(format!(
                    "{}: unit {:?}, declared {:?}",
                    m.name, v.unit, m.unit
                ))
            }
            [_] => {}
            [] => return Err(format!("{}: missing from the result", m.name)),
            _ => return Err(format!("{}: reported more than once", m.name)),
        }
    }
    match values
        .iter()
        .find(|v| !expected.iter().any(|m| m.name == v.name))
    {
        Some(v) => Err(format!("{}: not declared in BENCHMARK.json", v.name)),
        None => Ok(()),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// `{:?}` prints an `f64` with every digit it needs to round-trip.
pub fn render_result(correct: bool, attempted: usize, failed: usize, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                v.name, v.value, v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// What a result line says, once it has been held to its shape.
pub struct Outcome {
    pub correct: bool,
    pub values: Vec<Value>,
}

/// Parse a result line back (for `--check`, `--repeat` and the table of
/// all workloads, which read what a child process printed).
pub fn parse_result(line: &str) -> Result<Outcome, String> {
    let v = JsonValue::parse(line.trim()).map_err(|e| format!("result line is not JSON: {e}"))?;
    if !keys_are(&v, &["correct", "attempted", "failed", "metrics"]) {
        return Err(
            "result line does not have exactly the keys correct, attempted, failed, metrics".into(),
        );
    }
    let correct = matches!(v.get("correct"), Some(JsonValue::Bool(true)));
    let whole = |k: &str| match v.get(k).and_then(JsonValue::as_f64) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as usize),
        _ => Err(format!("{k} is not a whole number")),
    };
    whole("failed")?;
    if whole("attempted")? < 1 {
        return Err("attempted is below 1".into());
    }
    let Some(JsonValue::Obj(ms)) = v.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let values = ms
        .iter()
        .map(|(name, m)| {
            if !keys_are(m, &["value", "unit"]) {
                return Err(format!("{name}: needs exactly value and unit"));
            }
            Ok(Value {
                name: name.clone(),
                value: m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("{name}: value is not a number"))?,
                unit: m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Outcome { correct, values })
}
