//! Fixed-capacity time-series rings: rates and tails over time.
//!
//! Counters and histograms accumulate forever, which answers "how much in
//! total" but not "how fast right now" or "what did the last few seconds
//! look like". A [`Series`] buckets observations into fixed 100 ms
//! windows held in a ring of [`SERIES_WINDOWS`] slots (~25 s of history),
//! so a scrape or a `--watch` repaint can compute recent rates and
//! per-window aggregates without unbounded storage.
//!
//! Storage follows the metrics design: slots are handed out by the
//! process-wide registry, values live in plain thread-local vectors, and
//! a warm [`Series::record`] is an index computation plus a few stores —
//! no locks, no allocation (the ring is allocated on the first record).

use crate::metrics::series_slot;
use crate::sink::{ThreadSink, SINK};

/// Number of windows a series ring holds (~25 s at 100 ms per window).
pub const SERIES_WINDOWS: usize = 256;

/// Width of one series window in microseconds (100 ms).
pub const SERIES_WINDOW_US: u64 = 100_000;

/// One 100 ms aggregation window of a [`Series`] ring.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeriesWindow {
    /// Window index: `now_us / SERIES_WINDOW_US` at record time. A slot
    /// whose stored id no longer matches the current wall-clock window is
    /// stale and is reset on the next record that lands in it.
    pub id: u64,
    /// Observations recorded in this window.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Largest observed value (0 when the window is empty).
    pub max: f64,
}

/// Per-thread ring storage (crate-internal; lives in the thread sink).
#[derive(Clone, Debug, Default)]
pub(crate) struct SeriesData {
    /// Empty until the first record; then exactly [`SERIES_WINDOWS`]
    /// entries indexed by `window_id % SERIES_WINDOWS`.
    pub windows: Vec<SeriesWindow>,
}

/// Handle to a named time-series ring.
#[derive(Clone, Copy, Debug)]
pub struct Series {
    slot: usize,
}

/// Get (registering on first use) the series named `name`. Handles with
/// the same name share the slot.
pub fn series(name: &'static str) -> Series {
    Series {
        slot: series_slot(name),
    }
}

impl Series {
    /// Record one observation in the current 100 ms window of the current
    /// thread's ring. Warm cost: one thread-local borrow, an index
    /// computation, and a few stores.
    pub fn record(self, v: f64) {
        let id = crate::now_us() / SERIES_WINDOW_US;
        SINK.with(|s| self.record_in(&mut s.borrow_mut(), id, v));
    }

    pub(crate) fn record_in(self, s: &mut ThreadSink, id: u64, v: f64) {
        if s.series.len() <= self.slot {
            s.series.resize_with(self.slot + 1, SeriesData::default);
        }
        let d = &mut s.series[self.slot];
        if d.windows.is_empty() {
            d.windows = vec![SeriesWindow::default(); SERIES_WINDOWS];
        }
        let w = &mut d.windows[(id % SERIES_WINDOWS as u64) as usize];
        if w.id != id {
            *w = SeriesWindow {
                id,
                ..SeriesWindow::default()
            };
        }
        w.count += 1;
        w.sum += v;
        w.max = w.max.max(v);
    }

    /// Record `1.0` (an event-rate series).
    pub fn mark(self) {
        self.record(1.0);
    }
}

/// Frozen state of one series ring.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// Registered series name.
    pub name: String,
    /// Non-empty windows, ordered by ascending window id.
    pub windows: Vec<SeriesWindow>,
}

impl SeriesSnapshot {
    /// Merge `other`'s windows into `self`, aligning by window id:
    /// counts and sums add, maxima take the max. Used when folding
    /// per-rank rings into one scrape view.
    pub fn merge(&mut self, other: &SeriesSnapshot) {
        for w in &other.windows {
            match self.windows.binary_search_by_key(&w.id, |x| x.id) {
                Ok(i) => {
                    let mine = &mut self.windows[i];
                    mine.count += w.count;
                    mine.sum += w.sum;
                    mine.max = mine.max.max(w.max);
                }
                Err(i) => self.windows.insert(i, *w),
            }
        }
    }

    /// Events per second over the most recent `n` windows (by id), using
    /// the window width as the time base. Returns 0 for an empty ring.
    pub fn rate_per_sec(&self, n: usize) -> f64 {
        if self.windows.is_empty() || n == 0 {
            return 0.0;
        }
        let start = self.windows.len().saturating_sub(n);
        let recent = &self.windows[start..];
        let events: u64 = recent.iter().map(|w| w.count).sum();
        // Time spanned: from the oldest selected window to the newest,
        // inclusive — ids are consecutive only while events keep coming,
        // so measure the actual id span.
        let span = recent.last().unwrap().id - recent[0].id + 1;
        events as f64 / (span as f64 * SERIES_WINDOW_US as f64 / 1e6)
    }

    /// Mean observed value over the most recent `n` windows.
    pub fn recent_mean(&self, n: usize) -> f64 {
        let start = self.windows.len().saturating_sub(n);
        let recent = &self.windows[start..];
        let events: u64 = recent.iter().map(|w| w.count).sum();
        if events == 0 {
            return 0.0;
        }
        recent.iter().map(|w| w.sum).sum::<f64>() / events as f64
    }

    /// Per-window counts of the most recent `n` windows, zero-filled for
    /// id gaps — ready for a sparkline.
    pub fn recent_counts(&self, n: usize) -> Vec<f64> {
        let Some(last) = self.windows.last() else {
            return Vec::new();
        };
        let first_id = (last.id + 1).saturating_sub(n as u64);
        let mut out = vec![0.0; (last.id + 1 - first_id) as usize];
        for w in &self.windows {
            if w.id >= first_id {
                out[(w.id - first_id) as usize] = w.count as f64;
            }
        }
        out
    }
}

pub(crate) fn snapshot_data(name: &str, d: &SeriesData) -> SeriesSnapshot {
    let mut windows: Vec<SeriesWindow> =
        d.windows.iter().filter(|w| w.count > 0).copied().collect();
    windows.sort_by_key(|w| w.id);
    SeriesSnapshot {
        name: name.to_string(),
        windows,
    }
}

/// Capture the current thread's value of every registered series.
pub fn series_snapshot() -> Vec<SeriesSnapshot> {
    let names = crate::metrics::series_names();
    SINK.with(|s| {
        let s = s.borrow();
        names
            .iter()
            .enumerate()
            .map(|(i, name)| match s.series.get(i) {
                Some(d) => snapshot_data(name, d),
                None => SeriesSnapshot {
                    name: name.to_string(),
                    windows: Vec::new(),
                },
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lands_in_the_current_window_and_snapshots_sorted() {
        let s = series("test.series.basic");
        s.record(2.0);
        s.record(4.0);
        let snaps = series_snapshot();
        let mine = snaps
            .iter()
            .find(|s| s.name == "test.series.basic")
            .expect("registered series missing");
        assert!(!mine.windows.is_empty());
        let total: u64 = mine.windows.iter().map(|w| w.count).sum();
        assert!(total >= 2);
        assert!(mine.windows.windows(2).all(|p| p[0].id < p[1].id));
        assert!(mine.rate_per_sec(SERIES_WINDOWS) > 0.0);
        assert!(mine.recent_mean(SERIES_WINDOWS) >= 2.0);
    }

    #[test]
    fn stale_slots_are_reset_on_reuse() {
        // Craft a ring where an old window occupies the slot a new id
        // maps to; recording must reset it rather than accumulate.
        let mut d = SeriesData {
            windows: vec![SeriesWindow::default(); SERIES_WINDOWS],
        };
        let old_id = 7u64;
        let new_id = old_id + SERIES_WINDOWS as u64; // same slot
        d.windows[(old_id % SERIES_WINDOWS as u64) as usize] = SeriesWindow {
            id: old_id,
            count: 5,
            sum: 50.0,
            max: 10.0,
        };
        // Simulate Series::record's slot logic for new_id.
        let w = &mut d.windows[(new_id % SERIES_WINDOWS as u64) as usize];
        if w.id != new_id {
            *w = SeriesWindow {
                id: new_id,
                ..SeriesWindow::default()
            };
        }
        w.count += 1;
        w.sum += 3.0;
        w.max = w.max.max(3.0);
        let snap = snapshot_data("t", &d);
        assert_eq!(snap.windows.len(), 1);
        assert_eq!(
            snap.windows[0],
            SeriesWindow {
                id: new_id,
                count: 1,
                sum: 3.0,
                max: 3.0
            }
        );
    }

    #[test]
    fn merge_aligns_by_window_id() {
        let mut a = SeriesSnapshot {
            name: "t".into(),
            windows: vec![
                SeriesWindow {
                    id: 10,
                    count: 2,
                    sum: 4.0,
                    max: 3.0,
                },
                SeriesWindow {
                    id: 12,
                    count: 1,
                    sum: 1.0,
                    max: 1.0,
                },
            ],
        };
        let b = SeriesSnapshot {
            name: "t".into(),
            windows: vec![
                SeriesWindow {
                    id: 10,
                    count: 1,
                    sum: 10.0,
                    max: 10.0,
                },
                SeriesWindow {
                    id: 11,
                    count: 4,
                    sum: 8.0,
                    max: 2.0,
                },
            ],
        };
        a.merge(&b);
        assert_eq!(
            a.windows.iter().map(|w| w.id).collect::<Vec<_>>(),
            [10, 11, 12]
        );
        assert_eq!(a.windows[0].count, 3);
        assert_eq!(a.windows[0].sum, 14.0);
        assert_eq!(a.windows[0].max, 10.0);
        assert_eq!(a.windows[1].count, 4);
    }

    #[test]
    fn recent_counts_zero_fills_gaps() {
        let s = SeriesSnapshot {
            name: "t".into(),
            windows: vec![
                SeriesWindow {
                    id: 5,
                    count: 2,
                    sum: 2.0,
                    max: 1.0,
                },
                SeriesWindow {
                    id: 8,
                    count: 1,
                    sum: 1.0,
                    max: 1.0,
                },
            ],
        };
        assert_eq!(s.recent_counts(4), vec![2.0, 0.0, 0.0, 1.0]);
        assert_eq!(s.recent_counts(2), vec![0.0, 1.0]);
        // Rate over ids 5..=8: 3 events over 4 windows of 0.1 s.
        assert!((s.rate_per_sec(2) - 3.0 / 0.4).abs() < 1e-9);
    }
}
