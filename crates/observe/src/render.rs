//! Terminal rendering for watch mode: sparklines, ASCII heatmaps, and
//! the periodic training / MFP reports.
//!
//! Pure string builders — no I/O, no global state — so every report the
//! `--watch` flag prints is unit-testable byte for byte.

use std::fmt::Write;

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
const HEAT_LEVELS: [char; 10] = ['.', ':', '-', '=', '+', '*', '#', '%', '@', '█'];

/// Render `values` as a unicode sparkline, scaled to the slice's own
/// min/max. Non-finite values render as `!`. Empty input gives an empty
/// string.
pub fn sparkline(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '!'
            } else {
                let t = ((v - lo) / span).clamp(0.0, 1.0);
                SPARK_LEVELS[((t * (SPARK_LEVELS.len() - 1) as f64).round()) as usize]
            }
        })
        .collect()
}

/// Render a row-major `rows × cols` grid of values as an ASCII heatmap,
/// one text line per row, darker glyph = larger value (scaled to the
/// grid's own range). Non-finite cells render as `!`.
pub fn ascii_heatmap(values: &[f64], rows: usize, cols: usize) -> String {
    assert_eq!(values.len(), rows * cols, "ascii_heatmap: shape mismatch");
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let mut out = String::with_capacity(rows * (cols + 1));
    for r in 0..rows {
        for c in 0..cols {
            let v = values[r * cols + c];
            if !v.is_finite() {
                out.push('!');
            } else {
                let t = ((v - lo) / span).clamp(0.0, 1.0);
                out.push(HEAT_LEVELS[(t * (HEAT_LEVELS.len() - 1) as f64).round() as usize]);
            }
        }
        out.push('\n');
    }
    out
}

/// One status line for a live metric series ring: the recent event rate
/// plus a sparkline of per-window event counts (most recent window on
/// the right). Empty `window_counts` yields an empty string so callers
/// can print the result unconditionally.
pub fn series_rate_line(name: &str, rate_per_s: f64, window_counts: &[f64]) -> String {
    if window_counts.is_empty() {
        return String::new();
    }
    format!(
        "{name:<16} {rate_per_s:>8.1}/s {}\n",
        sparkline(window_counts)
    )
}

/// The periodic training watch report: loss curve plus one step-time
/// sparkline per rank.
///
/// `loss_history` is the per-epoch loss so far; `step_times_per_rank`
/// holds each rank's recent step times in seconds (empty slices are
/// skipped).
pub fn train_watch_report(
    epoch: usize,
    loss_history: &[f64],
    step_times_per_rank: &[Vec<f64>],
) -> String {
    let mut out = String::new();
    let last = loss_history.last().copied().unwrap_or(f64::NAN);
    let _ = writeln!(
        out,
        "-- watch: epoch {epoch}  loss {last:.3e} --\nloss     {}",
        sparkline(loss_history)
    );
    for (rank, times) in step_times_per_rank.iter().enumerate() {
        if times.is_empty() {
            continue;
        }
        let mean_ms = times.iter().sum::<f64>() / times.len() as f64 * 1e3;
        let _ = writeln!(
            out,
            "rank {rank} step ms {} (mean {mean_ms:.2})",
            sparkline(times)
        );
    }
    out
}

/// The periodic MFP watch report: residual trajectory, the per-subdomain
/// residual heatmap over the `rows × cols` subdomain lattice, and a stall
/// line when the watchdog tripped.
pub fn mfp_watch_report(
    iteration: usize,
    deltas: &[f64],
    subdomain_residuals: &[f64],
    rows: usize,
    cols: usize,
    stalled: bool,
) -> String {
    let mut out = String::new();
    let last = deltas.last().copied().unwrap_or(f64::NAN);
    let _ = writeln!(
        out,
        "-- watch: mfp iteration {iteration}  residual {last:.3e} --\nresidual {}",
        sparkline(deltas)
    );
    if !subdomain_residuals.is_empty() {
        let _ = writeln!(out, "per-subdomain residual ({rows}x{cols} lattice):");
        out.push_str(&ascii_heatmap(subdomain_residuals, rows, cols));
    }
    if stalled {
        let _ = writeln!(out, "STALL: no >1% residual improvement");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_the_value_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], SPARK_LEVELS[0]);
        assert_eq!(chars[2], SPARK_LEVELS[7]);
        assert_eq!(sparkline(&[]), "");
        // Constant input doesn't divide by zero.
        assert_eq!(sparkline(&[2.0, 2.0]).chars().count(), 2);
        assert!(sparkline(&[1.0, f64::NAN]).contains('!'));
    }

    #[test]
    fn heatmap_has_one_line_per_row_and_marks_hot_cells() {
        let grid = vec![0.0, 0.0, 0.0, 9.0];
        let m = ascii_heatmap(&grid, 2, 2);
        let lines: Vec<&str> = m.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "..");
        assert_eq!(lines[1].chars().nth(1), Some('█'));
    }

    #[test]
    fn watch_reports_mention_their_headline_numbers() {
        let r = train_watch_report(4, &[1.0, 0.5, 0.25], &[vec![0.01, 0.02], vec![]]);
        assert!(r.contains("epoch 4"));
        assert!(r.contains("2.500e-1"));
        assert!(r.contains("rank 0"));
        assert!(!r.contains("rank 1"), "empty rank slice is skipped");

        let m = mfp_watch_report(30, &[1e-1, 1e-2], &[0.1, 0.2, 0.3, 0.4], 2, 2, true);
        assert!(m.contains("iteration 30"));
        assert!(m.contains("2x2 lattice"));
        assert!(m.contains("STALL"));
        let quiet = mfp_watch_report(5, &[1.0], &[], 0, 0, false);
        assert!(!quiet.contains("STALL"));
        assert!(!quiet.contains("lattice"));
    }

    #[test]
    fn series_rate_line_formats_rate_and_sparkline() {
        let l = series_rate_line("dist.iterations", 42.5, &[0.0, 1.0, 3.0]);
        assert!(l.contains("dist.iterations"));
        assert!(l.contains("42.5/s"));
        assert!(l.ends_with('\n'));
        assert_eq!(l.chars().filter(|c| SPARK_LEVELS.contains(c)).count(), 3);
        assert_eq!(series_rate_line("x", 1.0, &[]), "");
    }
}
