//! Cross-thread publication of thread-local metrics for live scraping.
//!
//! Metric values live in plain non-atomic thread-locals (see
//! [`crate::sink`]), so another thread — an exposition server answering
//! `GET /metrics` — cannot read them directly. Instead, instrumented
//! loops call [`publish_thread`] at a natural cadence (once per train
//! step, once per MFP iteration): it copies the thread's raw slot-indexed
//! values into a shared per-rank slot that scrapers merge on demand.
//!
//! Publication is keyed by the thread's rank tag (untagged threads — the
//! CLI main thread — use a reserved key), so a P-rank solve occupies at
//! most P+1 slots regardless of how many runs the process has hosted. A
//! worker lane of the compute pool has no loop of its own to publish from
//! and no rank: it publishes under a key of its lane ([`publish_lane`])
//! from inside the parallel call it serves, and readers fold the lane
//! slots into the untagged entry.
//! A warm publish reuses the slot's buffers: it is two short lock
//! acquisitions and a few memcpys, no allocation once layouts stabilise.

use crate::metrics::{snapshot_from, HistData, MetricsSnapshot};
use crate::series::{SeriesData, SeriesSnapshot};
use crate::sink::SINK;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

/// Published key for threads without a rank tag (the process main
/// thread, in practice).
const MAIN_KEY: usize = usize::MAX;

/// Keys `MAIN_KEY - lane` belong to the compute pool's worker lanes
/// (`lane ≥ 1`); no rank id comes near them.
const LANE_KEYS: usize = 1 << 16;

#[derive(Default)]
pub(crate) struct PublishedSink {
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<HistData>,
    series: Vec<SeriesData>,
}

static PUBLISHED: LazyLock<Mutex<HashMap<usize, Arc<Mutex<PublishedSink>>>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

fn copy_u64(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() != src.len() {
        dst.resize(src.len(), 0);
    }
    dst.copy_from_slice(src);
}

fn copy_f64(dst: &mut Vec<f64>, src: &[f64]) {
    if dst.len() != src.len() {
        dst.resize(src.len(), 0.0);
    }
    dst.copy_from_slice(src);
}

fn copy_hists(dst: &mut Vec<HistData>, src: &[HistData]) {
    if dst.len() != src.len() {
        dst.resize_with(src.len(), HistData::default);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        if d.counts.len() != s.counts.len() {
            d.counts.resize(s.counts.len(), 0);
        }
        d.counts.copy_from_slice(&s.counts);
        d.count = s.count;
        d.sum = s.sum;
        d.min = s.min;
        d.max = s.max;
    }
}

fn copy_series(dst: &mut Vec<SeriesData>, src: &[SeriesData]) {
    if dst.len() != src.len() {
        dst.resize_with(src.len(), SeriesData::default);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        if d.windows.len() != s.windows.len() {
            d.windows.resize_with(s.windows.len(), Default::default);
        }
        d.windows.copy_from_slice(&s.windows);
    }
}

/// Copy the current thread's metric values into its shared per-rank
/// slot, making them visible to [`merged_snapshot`] and friends. No-op
/// for a thread that has recorded nothing yet. Call this at a loop
/// cadence (per step / per iteration); a warm call does not allocate.
pub fn publish_thread() {
    publish_under(None);
}

/// [`publish_thread`] for worker lane `lane ≥ 1` of the compute pool,
/// called by the task it runs before the task ends — so whatever the lane
/// recorded (kernel zones of its share of a plan launch) is visible once
/// the parallel call has returned. The slot is the lane's own: the thread
/// that fanned out publishes under its own key at its own cadence.
pub fn publish_lane(lane: usize) {
    assert!(
        (1..LANE_KEYS).contains(&lane),
        "publish_lane: lane {lane} is not a worker lane"
    );
    publish_under(Some(MAIN_KEY - lane));
}

fn publish_under(key: Option<usize>) {
    SINK.with(|s| {
        let s = &mut *s.borrow_mut();
        if s.counters.is_empty() && s.gauges.is_empty() && s.hists.is_empty() && s.series.is_empty()
        {
            return;
        }
        let key = key.unwrap_or(s.rank.unwrap_or(MAIN_KEY));
        // The sink caches its (key, slot), so a warm publish skips the
        // global map.
        if !matches!(&s.published, Some((k, _)) if *k == key) {
            let slot = Arc::clone(PUBLISHED.lock().unwrap().entry(key).or_default());
            s.published = Some((key, slot));
        }
        let (_, slot) = s.published.as_ref().expect("just cached");
        let mut p = slot.lock().unwrap();
        copy_u64(&mut p.counters, &s.counters);
        copy_f64(&mut p.gauges, &s.gauges);
        copy_hists(&mut p.hists, &s.hists);
        copy_series(&mut p.series, &s.series);
    });
}

fn slots() -> Vec<(usize, Arc<Mutex<PublishedSink>>)> {
    let mut v: Vec<_> = PUBLISHED
        .lock()
        .unwrap()
        .iter()
        .map(|(k, s)| (*k, Arc::clone(s)))
        .collect();
    v.sort_by_key(|(k, _)| *k);
    v
}

/// Every published rank's metrics, ordered by rank (`None` labels the
/// untagged main thread, with the pool's worker lanes folded in).
pub fn per_rank_snapshots() -> Vec<(Option<usize>, MetricsSnapshot)> {
    let mut out: Vec<(Option<usize>, MetricsSnapshot)> = Vec::new();
    for (k, slot) in slots() {
        let p = slot.lock().unwrap();
        let snap = snapshot_from(&p.counters, &p.gauges, &p.hists);
        let rank = (k <= MAIN_KEY - LANE_KEYS).then_some(k);
        match out.last_mut() {
            // Keys are sorted, so the untagged slots are adjacent.
            Some((None, untagged)) if rank.is_none() => untagged.merge(&snap),
            _ => out.push((rank, snap)),
        }
    }
    out
}

/// One snapshot folding every published rank together (counters and
/// histogram buckets sum, gauges take the max). This is what a scrape
/// serves.
pub fn merged_snapshot() -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for (_, snap) in per_rank_snapshots() {
        merged.merge(&snap);
    }
    merged
}

/// Every registered series, with all published ranks' rings folded
/// together (window-id aligned).
pub fn merged_series() -> Vec<SeriesSnapshot> {
    let names = crate::metrics::series_names();
    let mut out: Vec<SeriesSnapshot> = names
        .iter()
        .map(|n| SeriesSnapshot {
            name: n.to_string(),
            windows: Vec::new(),
        })
        .collect();
    for (_, slot) in slots() {
        let p = slot.lock().unwrap();
        for (i, name) in names.iter().enumerate() {
            if let Some(d) = p.series.get(i) {
                out[i].merge(&crate::series::snapshot_data(name, d));
            }
        }
    }
    out
}

/// The merged ring of one named series, if it has been registered.
pub fn published_series(name: &str) -> Option<SeriesSnapshot> {
    merged_series().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge, series};

    #[test]
    fn published_values_are_visible_to_other_threads() {
        let c = counter("test.publish.counter");
        let g = gauge("test.publish.gauge");
        let sr = series("test.publish.series");
        std::thread::spawn(move || {
            crate::set_thread_rank(91);
            c.add(4);
            g.set(2.5);
            sr.record(1.0);
            publish_thread();
        })
        .join()
        .unwrap();
        let merged = merged_snapshot();
        assert_eq!(merged.counter("test.publish.counter"), 4);
        assert_eq!(merged.gauge("test.publish.gauge"), 2.5);
        let per_rank = per_rank_snapshots();
        assert!(per_rank.iter().any(|(r, _)| *r == Some(91)));
        let ring = published_series("test.publish.series").expect("series registered");
        assert_eq!(ring.windows.iter().map(|w| w.count).sum::<u64>(), 1);
    }

    #[test]
    fn lane_slots_are_their_own_and_read_as_untagged() {
        let c = counter("test.publish.lane");
        // Two untagged threads: one publishes as itself, one as a lane.
        // Neither overwrites the other, and readers see one untagged entry.
        std::thread::spawn(move || {
            c.add(5);
            publish_lane(3);
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            c.add(2);
            publish_thread();
        })
        .join()
        .unwrap();
        let untagged: Vec<u64> = per_rank_snapshots()
            .into_iter()
            .filter(|(r, _)| r.is_none())
            .map(|(_, s)| s.counter("test.publish.lane"))
            .collect();
        assert_eq!(untagged, vec![7]);
        assert_eq!(merged_snapshot().counter("test.publish.lane"), 7);
    }

    #[test]
    fn republishing_overwrites_the_rank_slot() {
        let c = counter("test.publish.overwrite");
        for val in [3u64, 8u64] {
            std::thread::spawn(move || {
                crate::set_thread_rank(92);
                c.add(val);
                publish_thread();
            })
            .join()
            .unwrap();
        }
        // Two threads shared rank key 92; the later publish replaced the
        // earlier one rather than stacking a second slot.
        let hits: Vec<u64> = per_rank_snapshots()
            .into_iter()
            .filter(|(r, _)| *r == Some(92))
            .map(|(_, s)| s.counter("test.publish.overwrite"))
            .collect();
        assert_eq!(hits, vec![8]);
    }
}
