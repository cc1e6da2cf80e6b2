//! The modes that run workloads as child processes of this same binary —
//! each workload in a process of its own, so that peak memory,
//! thread-locals and the crates' global registries do not leak from one
//! into the next.

use crate::contract::{self, Outcome, Spec, Value};
use crate::run::LEDGER;
use crate::{stats, WORKLOADS};
use std::process::{Command, Stdio};

/// Per-layer metrics that must repeat bit for bit for one seed.
const EXACT_LAYERS: [&str; 7] = [
    "infer.warm_allocs",
    "mfp.iters_to_tol",
    "mfp.launches_per_solve",
    "mfp.points_per_solve",
    "dist.bytes_per_iter",
    "dist.extra_iters",
    "train.loss_at_300",
];
/// And the ledger metrics that must.
const EXACT_LEDGER: [&str; 2] = ["ok_share", "accuracy_err"];

/// One run of `workload`; `report` is `["--trace", "0"]`, `["--trace",
/// "1"]` or `["--ledger"]`.
fn run_child(workload: &str, seed: u64, seconds: f64, report: &[&str]) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(report)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    contract::parse_result(last)
}

fn value_of(values: &[Value], name: &str) -> f64 {
    values
        .iter()
        .find(|v| v.name == name)
        .map_or(f64::NAN, |v| v.value)
}

/// Where `BENCHMARK.json` lists a ledger metric, and the bound it has there.
fn listing(spec: &Spec, name: &str) -> (&'static str, Option<f64>) {
    match spec.end_to_end.iter().find(|m| m.name == name) {
        Some(m) => ("end_to_end", m.bound),
        None => ("per_layer", None),
    }
}

/// Every workload once; one row per ledger metric, gated or not.
pub fn table(seed: u64, seconds: f64) -> Result<(), String> {
    let spec = contract::load_spec()?;
    let mut all_correct = true;
    let mut columns = Vec::new();
    for w in WORKLOADS {
        eprintln!("running {w} ...");
        let o = run_child(w, seed, seconds, &["--ledger"])?;
        all_correct &= o.correct;
        columns.push(o.values);
    }
    println!(
        "{:<18}{:<7}{}  listed under",
        "metric",
        "unit",
        WORKLOADS.map(|w| format!("{w:>16}")).concat()
    );
    for (name, unit, _, _) in LEDGER {
        let cells: String = columns
            .iter()
            .map(|c| format!("{:>16.6}", value_of(c, name)))
            .collect();
        println!("{name:<18}{unit:<7}{cells}  {}", listing(&spec, name).0);
    }
    if all_correct {
        Ok(())
    } else {
        Err("a workload reported failed units".into())
    }
}

/// The values of `names` in `a` and `b` that differ in any bit.
fn inexact(names: &[&str], a: &[Value], b: &[Value]) -> Vec<String> {
    names
        .iter()
        .filter(|n| value_of(a, n).to_bits() != value_of(b, n).to_bits())
        .map(|n| format!("{n}: {:?} then {:?}", value_of(a, n), value_of(b, n)))
        .collect()
}

/// `sets` full sets as the driver runs them — the order of the workloads
/// alternating between sets, set *k* on seed *k* — then seed 1 once more:
/// every workload untraced and two traced runs, whose exact metrics must
/// repeat bit for bit. Prints, per workload and ledger metric, median,
/// quartiles, the spread (quartile distance over median), the shift of the
/// median from the first half of the sets to the second (positive = worse)
/// and whether both stay within the bound of ISSUE 15. Fails when a metric
/// listed under `end_to_end` leaves the bound it has there (`setup_s`: the
/// shift only, as the driver holds it), or an exact metric does not repeat.
pub fn repeat(sets: usize, seconds: f64) -> Result<(), String> {
    let spec = contract::load_spec()?;
    // samples[workload][metric] over the sets.
    let mut samples: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); LEDGER.len()]; WORKLOADS.len()];
    let mut first_set: Vec<Vec<Value>> = (0..WORKLOADS.len()).map(|_| Vec::new()).collect();
    for set in 0..sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            eprintln!("set {} of {sets}: {}", set + 1, WORKLOADS[wi]);
            let o = run_child(WORKLOADS[wi], set as u64 + 1, seconds, &["--ledger"])?;
            if !o.correct {
                return Err(format!(
                    "{} reported failed units in set {}",
                    WORKLOADS[wi],
                    set + 1
                ));
            }
            for (mi, m) in LEDGER.iter().enumerate() {
                samples[wi][mi].push(value_of(&o.values, m.0));
            }
            if set == 0 {
                first_set[wi] = o.values;
            }
        }
    }

    let mut differing = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        eprintln!("seed 1 again: {w}");
        let again = run_child(w, 1, seconds, &["--ledger"])?;
        differing.extend(
            inexact(&EXACT_LEDGER, &first_set[wi], &again.values)
                .into_iter()
                .map(|d| format!("{w}/{d}")),
        );
    }
    eprintln!("seed 1, traced, twice");
    let traced = [
        run_child(WORKLOADS[0], 1, seconds, &["--trace", "1"])?,
        run_child(WORKLOADS[0], 1, seconds, &["--trace", "1"])?,
    ];
    differing.extend(inexact(&EXACT_LAYERS, &traced[0].values, &traced[1].values));

    println!(
        "| workload | metric | unit | median | q1 | q3 | spread | shift | issue bound | holds it | listed under |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut over = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, &(name, unit, higher_better, issue_bound)) in LEDGER.iter().enumerate() {
            let v = &samples[wi][mi];
            let (q1, q3) = stats::quartiles(v);
            let med = stats::median(v);
            let spread = (q3 - q1) / med;
            let (a, b) = v.split_at(v.len() / 2);
            let gain = (stats::median(b) - stats::median(a)) / stats::median(a);
            let shift = if higher_better { -gain } else { gain };
            let (list, bound) = listing(&spec, name);
            if let Some(bound) = bound {
                if (name != "setup_s" && spread > bound) || shift > bound {
                    over.push(format!("{w}/{name}"));
                }
            }
            let holds = spread <= issue_bound && shift <= issue_bound;
            println!(
                "| {w} | {name} | {unit} | {med:.6} | {q1:.6} | {q3:.6} | {spread:.4} | {shift:+.4} | {issue_bound} | {} | {list} |",
                if holds { "yes" } else { "no" },
            );
        }
    }
    println!();
    println!(
        "Seed 1 run twice: {} of the untraced runs and {} of two traced runs {}.",
        EXACT_LEDGER.join(", "),
        EXACT_LAYERS.join(", "),
        if differing.is_empty() {
            "repeated bit for bit".to_string()
        } else {
            format!("DIFFERED: {}", differing.join("; "))
        }
    );
    if !differing.is_empty() {
        return Err(format!(
            "exact metrics did not repeat: {}",
            differing.join("; ")
        ));
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "outside the bound in BENCHMARK.json: {}",
            over.join(", ")
        ))
    }
}

/// `BENCHMARK.json` against the contract's limits and this binary, the
/// layer table of `README.md` against its per-layer list, then a short run
/// of every workload, untraced and traced, each result line parsed back
/// and held against the metric lists.
pub fn check() -> Result<(), String> {
    let spec = contract::load_spec()?;
    if spec.workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json lists {:?}, this binary runs {WORKLOADS:?}",
            spec.workloads
        ));
    }
    // Every ledger metric is listed once, under one of the two lists, with
    // the ledger's unit and direction; an end-to-end one no wider than the
    // issue's bound (`setup_s` excepted, see `run::LEDGER`).
    for (name, unit, higher_better, issue_bound) in LEDGER {
        let m = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .find(|m| m.name == name)
            .ok_or(format!("BENCHMARK.json does not list {name}"))?;
        if m.unit != unit || m.higher_better != higher_better {
            return Err(format!(
                "{name}: unit or direction differ from the ledger's"
            ));
        }
        if name != "setup_s" && m.bound.is_some_and(|b| b > issue_bound + 1e-6) {
            return Err(format!(
                "{name}: bound wider than the issue's {issue_bound}"
            ));
        }
    }
    let readme_path = format!("{}/README.md", env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(&readme_path)
        .map_err(|e| format!("cannot read {readme_path}: {e}"))?;
    if let Some(m) = spec
        .per_layer
        .iter()
        .find(|m| !readme.contains(&format!("`{}`", m.name)))
    {
        return Err(format!(
            "README.md does not say what {} should move",
            m.name
        ));
    }
    println!(
        "BENCHMARK.json: ok ({} end-to-end, {} per-layer metrics, each in README.md)",
        spec.end_to_end.len(),
        spec.per_layer.len()
    );
    for w in WORKLOADS {
        for (trace, expected) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let o = run_child(w, 1, 4.0, &["--trace", trace])?;
            contract::check_values(expected, &o.values)?;
            if !o.correct {
                return Err(format!("{w}: a short run reported failed units"));
            }
            println!("{w} --trace {trace}: ok ({} metrics)", o.values.len());
        }
    }
    Ok(())
}
