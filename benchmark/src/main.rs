//! `mf-benchmark`: the end-to-end ledger of mosaic-flow.
//!
//! ```text
//! mf-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! mf-benchmark [--seed N] [--seconds S]                        every workload once, as a table
//! mf-benchmark --workload W ... --ledger                       one run, all eight ledger metrics
//! mf-benchmark --repeat N [--seconds S]                        N sets, spread against the bounds
//! mf-benchmark --check                                         contract check of spec and output
//! mf-benchmark --regen-fixture                                 train the weight fixture again
//! ```
//!
//! The last line of standard output of a run is the result object;
//! everything else goes to standard error. See `README.md`.

mod contract;
mod fixture;
mod host;
mod inputs;
mod probes;
mod repeat;
mod run;
mod serve;
mod solve;
mod spans;
mod stats;
mod train;

use contract::{MetricSpec, Value};
use run::{Alternate, Run, Size, LEDGER, SETUP_REPS, WARMUP};
use std::process::ExitCode;

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["solve_seq", "solve_dist", "serve_lines", "train_ddp"];

/// Units per second of window each workload is sized at — measured on the
/// 2-core 2.1 GHz host this benchmark was written on. The unit count of a
/// run is fixed by `--seconds` alone, never by a clock, so that counters
/// repeat exactly; on another host the window is longer or shorter.
const SOLVE_CYCLES_PER_S: f64 = 0.36;
const SERVE_UNITS_PER_S: f64 = 5500.0;
const TRAIN_UNITS_PER_S: f64 = 58.0;
const SLICES: usize = 20;

/// The timed window of `workload` for a run of `seconds`. A traced window
/// records spans in its even slices only, so it has an even number of them.
pub fn size_for(workload: &str, seconds: f64, trace: bool) -> Size {
    let (units, slices, setup_reps) = match workload {
        "solve_seq" | "solve_dist" => {
            // Whole cycles of the pool, one slice per cycle; an even
            // number when traced, for the on/off comparison.
            let cycles = (seconds * SOLVE_CYCLES_PER_S).round().max(1.0) as usize;
            let cycles = if trace {
                cycles.next_multiple_of(2)
            } else {
                cycles
            };
            (cycles * solve::POOL, cycles, SETUP_REPS)
        }
        // These set up in under 0.1 s, where single shots spread by a
        // third on this host: three and nine times the repetitions.
        "serve_lines" => (
            ((seconds * SERVE_UNITS_PER_S) as usize).next_multiple_of(SLICES),
            SLICES,
            3 * SETUP_REPS,
        ),
        _ => {
            // A traced window still reaches the step `train.loss_at_300`
            // is read at.
            let floor = if trace { train::ACCURACY_STEP } else { 0 };
            (
                ((seconds * TRAIN_UNITS_PER_S) as usize)
                    .max(floor)
                    .next_multiple_of(SLICES),
                SLICES,
                9 * SETUP_REPS,
            )
        }
    };
    let alternate = if trace {
        Alternate::Spans
    } else {
        Alternate::Nothing
    };
    Size {
        units,
        slices,
        setup_reps,
        warmup: WARMUP,
        alternate,
    }
}

pub fn run_workload(workload: &str, seed: u64, size: &Size) -> Result<Run, String> {
    match workload {
        "solve_seq" => solve::run(false, seed, size),
        "solve_dist" => solve::run(true, seed, size),
        "serve_lines" => serve::run(seed, size),
        "train_ddp" => train::run(seed, size),
        other => Err(format!(
            "unknown workload {other:?}, expected one of {WORKLOADS:?}"
        )),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    ledger: bool,
    repeat: Option<usize>,
    check: bool,
    regen: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        ledger: false,
        repeat: None,
        check: false,
        regen: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--ledger" => a.ledger = true,
            "--repeat" => a.repeat = Some(value()?.parse().map_err(|_| "--repeat needs a count")?),
            "--check" => a.check = true,
            "--regen-fixture" => a.regen = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// What the result line of a run carries.
#[derive(Clone, Copy, PartialEq)]
enum Report {
    /// `--trace 0`: the metrics `BENCHMARK.json` lists under `end_to_end`.
    EndToEnd,
    /// `--trace 1`: those it lists under `per_layer`.
    PerLayer,
    /// `--ledger`: all eight ledger metrics, gated or not.
    Ledger,
}

/// The metrics of `list`, each with the value measured under its name.
fn fill(list: &[MetricSpec], measured: &[(&'static str, f64)]) -> Vec<Value> {
    list.iter()
        .map(|m| Value {
            name: m.name.clone(),
            value: measured
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(f64::NAN, |(_, v)| *v),
            unit: m.unit.clone(),
        })
        .collect()
}

/// One run: measure, verify, validate, print.
fn single_run(workload: &str, seed: u64, seconds: f64, report: Report) -> Result<(), String> {
    let spec = contract::load_spec()?;
    let trace = report == Report::PerLayer;
    let size = size_for(workload, seconds, trace);
    let run = run_workload(workload, seed, &size)?;
    let mut measured = run.ledger(&size);
    let ledger: Vec<MetricSpec> = LEDGER
        .iter()
        .map(|&(name, unit, higher_better, bound)| MetricSpec {
            name: name.into(),
            unit: unit.into(),
            higher_better,
            bound: Some(bound),
        })
        .collect();
    let expected = match report {
        Report::EndToEnd => &spec.end_to_end,
        Report::Ledger => &ledger,
        Report::PerLayer => {
            let path = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
            spans::write_chrome_trace(&path, &run.recorders)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
            measured.extend(probes::per_layer(workload, seed, seconds, &run, &size)?);
            &spec.per_layer
        }
    };
    let values = fill(expected, &measured);
    contract::check_values(expected, &values)?;

    eprintln!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"units\": {}, \"slices\": {}, \"setup_reps\": {}, \"tail_quantile\": {}, \"tail_samples\": {}, \"window_s\": {:.3}, \
         \"nproc\": {}, \"backend\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\"}}",
        size.units,
        size.slices,
        size.setup_reps,
        run.tail_q(),
        run.unit_ms.len(),
        run.done_s.last().copied().unwrap_or(f64::NAN),
        host::nproc(),
        mf_tensor::backend_kind().name(),
        host::rustc_version(),
        host::git_sha(),
    );
    eprintln!("slice rates: {:.4?}", run.slice_rates(&size));
    eprintln!("set-ups: {:.4?}", run.setup_s);
    // Everything measured, whichever list the result line is filled from.
    for (name, value) in &measured {
        eprintln!("  {name:<32} {value:>16.6}");
    }
    println!(
        "{}",
        contract::render_result(run.failed == 0, size.units, run.failed, &values)
    );
    Ok(())
}

fn dispatch() -> Result<(), String> {
    let a = parse_args()?;
    if a.regen {
        return fixture::regenerate();
    }
    if a.check {
        return repeat::check();
    }
    let seconds = match a.seconds {
        Some(s) => s,
        None => contract::load_spec()?.run_seconds as f64,
    };
    match (a.repeat, &a.workload) {
        (Some(sets), _) => repeat::repeat(sets, seconds),
        (None, Some(w)) => {
            let report = match (a.ledger, a.trace) {
                (true, _) => Report::Ledger,
                (false, true) => Report::PerLayer,
                (false, false) => Report::EndToEnd,
            };
            single_run(w, a.seed, seconds, report)
        }
        (None, None) => repeat::table(a.seed, seconds),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mf-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
