//! CI benchmark gate: compare a PR's bench metrics against the checked-in
//! baseline and fail on regressions beyond each metric's budget.
//!
//! ```text
//! cargo run -p mf-bench --release --bin bench_gate -- BENCH_baseline.json BENCH_pr.json
//! ```
//!
//! Prints a markdown comparison table (also appended to
//! `$GITHUB_STEP_SUMMARY` when set, so it shows up on the workflow run
//! page) and exits nonzero when any baseline metric regressed by more
//! than its `tol`. Metrics present on only one side are listed but never
//! fail the gate. To re-baseline after an intentional change, regenerate
//! the baseline on main (see DESIGN.md, "Memory model") and commit it.

use mf_bench::gate::{baseline_provenance, compare, parse_metrics, render_markdown};
use std::io::Write;

fn load(path: &str) -> Vec<(String, mf_bench::gate::Metric)> {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {path}: {e}"));
    parse_metrics(&body).unwrap_or_else(|e| panic!("bench_gate: cannot parse {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, current_path] = &args[..] else {
        eprintln!("usage: bench_gate <baseline.json> <current.json>");
        std::process::exit(2);
    };
    let baseline = load(baseline_path);
    let current = load(current_path);
    let (rows, unmatched) = compare(&baseline, &current);
    let mut md = render_markdown(&rows, &unmatched, &baseline_provenance(baseline_path));
    // Record which kernels produced the PR-side numbers: the repro binaries
    // and this gate are built in one job with one set of flags, so the
    // target's FMA here is the one that generated BENCH_pr.json.
    md.push_str(&format!(
        "\nKernel backend: `{}`, built {} FMA\n",
        mf_tensor::backend_kind().name(),
        if mf_tensor::FUSED { "with" } else { "without" },
    ));
    println!("{md}");

    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&summary)
        {
            let _ = writeln!(f, "{md}");
        }
    }

    let failures: Vec<&str> = rows
        .iter()
        .filter(|r| r.failed)
        .map(|r| r.name.as_str())
        .collect();
    if !failures.is_empty() {
        eprintln!(
            "bench gate FAILED: {} metric(s) regressed beyond budget: {}",
            failures.len(),
            failures.join(", ")
        );
        std::process::exit(1);
    }
    eprintln!("bench gate passed: {} metric(s) within budget", rows.len());
}
