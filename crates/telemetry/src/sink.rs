//! The stores of the instrumentation spine: the sink word, the one record
//! type, the per-thread sink and the process-wide collector.
//!
//! Every thread owns a [`ThreadSink`]: its context (rank, `(epoch, step)`,
//! request id), plain vectors of counter/gauge/histogram values (indexed by
//! the slots handed out by the registry in [`crate::metrics`]), the
//! always-on flight recorder — a [`Ring`] of [`Record`]s — and, while
//! tracing is on, the unbounded trace buffer. Under `Cluster::run` each simulated rank is one
//! thread; the cluster tags it ([`set_thread_rank`]) on entry and calls
//! [`flush_thread`] on exit, which moves trace and flight ring into the
//! rank-keyed collector that [`drain_spans`], [`drain_flows`] and
//! [`drain_rings`] empty.

use crate::ring::Ring;
use crate::{FlowEvent, SpanEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sink bit: the unbounded trace buffer (`--trace`, [`crate::set_tracing`]).
pub const TRACE: u8 = 1;
/// Sink bit: timing histograms and series (`mf_profile::set_enabled`).
pub const ZONES: u8 = 2;
/// Sink bit: the flight-recorder ring (`mf_observe::set_recording`).
pub const RECORDER: u8 = 4;
/// Sink bit: the request log (`mf_reqtrace::set_enabled`).
pub const REQTRACE: u8 = 8;

static SINKS: AtomicU8 = AtomicU8::new(ZONES | RECORDER | REQTRACE);

/// The sink word. One relaxed load — the entire cost of a disabled
/// [`crate::span!`], [`crate::zone!`], [`crate::flow`] or [`crate::event`].
#[inline]
pub fn sinks() -> u8 {
    SINKS.load(Ordering::Relaxed)
}

/// Switch the sinks in `mask` on or off for the whole process.
pub fn set_sink(mask: u8, on: bool) {
    if on {
        SINKS.fetch_or(mask, Ordering::SeqCst);
    } else {
        SINKS.fetch_and(!mask, Ordering::SeqCst);
    }
}

/// Records a flight ring retains before it wraps (208 KB per thread,
/// touched as it fills).
pub const RING_CAPACITY: usize = 2048;

/// What a [`Record`] describes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kind {
    /// A point event, told apart by name: a timeout or failed peer (`a` =
    /// peer rank), a health incident (`v[0]` = offending value), a marker.
    #[default]
    Event,
    /// A timed scope (`span!` / `zone!`); `v` holds the site's arguments.
    Span,
    /// A message leaving its sender (`a` = flow id, `v[0]` = bytes).
    Send,
    /// A message delivered (`a` = flow id, `v[0]` = bytes).
    Recv,
}

/// The one record for "something happened at `t_us` for `dur_us`". `Copy`
/// and fixed-size: rings never allocate after their storage exists.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Record {
    /// Start, microseconds since the telemetry epoch.
    pub t_us: u64,
    /// Duration in microseconds (0 for point events).
    pub dur_us: u64,
    /// Static site name (e.g. `"comm.allreduce"`).
    pub name: &'static str,
    /// Event class.
    pub kind: Kind,
    /// Nesting depth at open time; counted only while tracing is on.
    pub depth: u32,
    /// Epoch of the thread's step context at record time.
    pub epoch: u64,
    /// Step/iteration of the thread's step context at record time.
    pub step: u64,
    /// Request the thread was handling (0 = none).
    pub req: u64,
    /// Kind-specific integer payload (flow id, peer rank, count, …).
    pub a: u64,
    /// Kind-specific float payload; a scope's arguments in site order.
    pub v: [f64; 2],
    /// Names of the scope arguments in `v`.
    pub keys: &'static [&'static str],
}

pub(crate) struct ThreadSink {
    pub rank: Option<usize>,
    pub epoch: u64,
    pub step: u64,
    pub req: u64,
    pub counters: Vec<u64>,
    pub gauges: Vec<f64>,
    pub hists: Vec<crate::metrics::HistData>,
    pub series: Vec<crate::series::SeriesData>,
    pub flight: Ring<Record>,
    pub trace: Vec<Record>,
    pub depth: u32,
    pub published: Option<(usize, Arc<Mutex<crate::publish::PublishedSink>>)>,
}

impl ThreadSink {
    /// Stamp `rec` with the thread context and store it in the flight ring
    /// and/or the trace, as `sinks` says.
    pub fn store(&mut self, sinks: u8, rec: Record) {
        let rec = Record {
            epoch: self.epoch,
            step: self.step,
            req: self.req,
            ..rec
        };
        if sinks & RECORDER != 0 {
            self.flight.push(rec);
        }
        if sinks & TRACE != 0 {
            self.trace.push(rec);
        }
    }
}

thread_local! {
    pub(crate) static SINK: RefCell<ThreadSink> = const {
        RefCell::new(ThreadSink {
            rank: None,
            epoch: 0,
            step: 0,
            req: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            series: Vec::new(),
            flight: Ring::new(RING_CAPACITY),
            trace: Vec::new(),
            depth: 0,
            published: None,
        })
    };
}

/// One rank's flushed flight-recorder state.
#[derive(Clone, Debug, Default)]
pub struct RankRecord {
    /// Ring contents, oldest first.
    pub events: Vec<Record>,
    /// The rank's serialized [`crate::MetricsSnapshot`] at flush time.
    pub metrics: String,
    /// Total events ever recorded (>= `events.len()` once wrapped).
    pub total: u64,
}

impl RankRecord {
    /// The last step context the rank reached, if it recorded anything.
    pub fn last_step(&self) -> Option<(u64, u64)> {
        self.events.last().map(|e| (e.epoch, e.step))
    }
}

struct Collector {
    trace: Vec<(usize, Record)>,
    rings: BTreeMap<usize, RankRecord>,
}

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    trace: Vec::new(),
    rings: BTreeMap::new(),
});

/// Every update leaves the collector valid, so a rank that panicked while
/// flushing does not take the post-mortem down with it.
fn collector() -> MutexGuard<'static, Collector> {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Tag the current thread with a rank id; what it records is attributed to
/// this rank (`tid` in the Chrome trace). Untagged threads report rank 0.
pub fn set_thread_rank(rank: usize) {
    SINK.with(|s| s.borrow_mut().rank = Some(rank));
}

/// The rank the current thread was tagged with, if any.
pub fn thread_rank() -> Option<usize> {
    SINK.with(|s| s.borrow().rank)
}

/// Set the current thread's algorithmic position — `(epoch, step)` in
/// training loops, `(0, iteration)` in solver loops — stamped on every
/// record the thread stores.
#[inline]
pub fn set_step_context(epoch: u64, step: u64) {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.epoch = epoch;
        s.step = step;
    });
}

/// The current thread's `(epoch, step)`.
pub fn step_context() -> (u64, u64) {
    SINK.with(|s| {
        let s = s.borrow();
        (s.epoch, s.step)
    })
}

/// Tag the current thread as handling request `req` (0 clears the tag);
/// records it stores and lines it logs carry the id. Set by the serve
/// layer on its worker and connection threads.
pub fn set_current_request(req: u64) {
    SINK.with(|s| s.borrow_mut().req = req);
}

/// The request id the current thread is handling (0 = none).
pub fn current_request() -> u64 {
    SINK.with(|s| s.borrow().req)
}

/// Remove the records matching `pred` from the current thread's flight
/// ring, oldest first (the request log takes the spans recorded under a
/// serve worker's solve).
pub fn drain_flight(pred: impl FnMut(&Record) -> bool, out: impl FnMut(Record)) {
    SINK.with(|s| s.borrow_mut().flight.drain_filter(pred, out));
}

/// Publish the current thread's metrics, then move its trace records and
/// its flight ring (with a metrics snapshot) into the collector under the
/// thread's rank. The cluster calls this once on every rank thread as it
/// exits — after `catch_unwind`, so a panicked rank's history is kept. A
/// later flush of the same rank replaces its ring (rank ids are reused
/// across runs); an untagged thread files under rank 0 only while no rank
/// 0 has.
pub fn flush_thread() {
    crate::publish::publish_thread();
    let mut c = collector();
    SINK.with(|s| {
        let s = &mut *s.borrow_mut();
        let rank = s.rank.unwrap_or(0);
        c.trace.extend(s.trace.drain(..).map(|r| (rank, r)));
        let files = match s.rank {
            Some(_) => true,
            None => !s.flight.is_empty() && !c.rings.contains_key(&0),
        };
        if files {
            // Copied out, not moved: the ring's buffer is then freed as the
            // rank thread exits, and glibc raises its mmap and trim
            // thresholds on that free. Keeping the buffer alive in the
            // collector made the next run's 88 KB allreduce buffers twice as
            // slow to allocate (measured, 2 ranks).
            let record = RankRecord {
                total: s.flight.total(),
                events: s.flight.iter().copied().collect(),
                metrics: crate::metrics::snapshot_from(&s.counters, &s.gauges, &s.hists)
                    .serialize(),
            };
            c.rings.insert(rank, record);
            s.flight.clear();
        }
    });
}

fn take_trace(flows: bool) -> Vec<(usize, Record)> {
    flush_thread();
    let mut c = collector();
    let (taken, kept) = std::mem::take(&mut c.trace)
        .into_iter()
        .partition(|(_, r)| matches!(r.kind, Kind::Send | Kind::Recv) == flows);
    c.trace = kept;
    taken
}

/// Flush the current thread, then take every collected span, ordered by
/// `(rank, start, depth)`.
pub fn drain_spans() -> Vec<SpanEvent> {
    let mut spans: Vec<SpanEvent> = take_trace(false)
        .iter()
        .map(|(rank, r)| SpanEvent::from_record(*rank, r))
        .collect();
    spans.sort_by(|a, b| {
        (a.rank, a.start_us, a.depth, &a.name).cmp(&(b.rank, b.start_us, b.depth, &b.name))
    });
    spans
}

/// Flush the current thread, then take every collected flow event,
/// ordered by `(rank, ts, id)`.
pub fn drain_flows() -> Vec<FlowEvent> {
    let mut flows: Vec<FlowEvent> = take_trace(true)
        .iter()
        .map(|(rank, r)| FlowEvent::from_record(*rank, r))
        .collect();
    flows.sort_by(|a, b| (a.rank, a.ts_us, a.id, &a.name).cmp(&(b.rank, b.ts_us, b.id, &b.name)));
    flows
}

/// Take every flushed flight ring, lowest rank first.
pub fn drain_rings() -> Vec<(usize, RankRecord)> {
    std::mem::take(&mut collector().rings).into_iter().collect()
}

/// Discard all trace records (current thread and collector).
pub fn clear_spans() {
    SINK.with(|s| s.borrow_mut().trace.clear());
    collector().trace.clear();
}

/// Discard the current thread's flight ring and every flushed one.
pub fn clear_rings() {
    SINK.with(|s| s.borrow_mut().flight.clear());
    collector().rings.clear();
}

/// Zero the current thread's metric values (counters, gauges,
/// histograms). Registered names and slots are untouched. Intended for
/// tests that need a clean sheet on a reused thread.
pub fn reset_thread_metrics() {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.counters.iter_mut().for_each(|v| *v = 0);
        s.gauges.iter_mut().for_each(|v| *v = 0.0);
        s.hists.iter_mut().for_each(|h| h.reset());
        s.series.iter_mut().for_each(|d| d.windows.clear());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_tagging_is_per_thread() {
        set_thread_rank(7);
        assert_eq!(thread_rank(), Some(7));
        let other = std::thread::spawn(thread_rank).join().unwrap();
        assert_eq!(other, None);
    }

    #[test]
    fn step_and_request_context_are_per_thread() {
        set_step_context(2, 17);
        set_current_request(9);
        assert_eq!((step_context(), current_request()), ((2, 17), 9));
        let other = std::thread::spawn(|| (step_context(), current_request()))
            .join()
            .unwrap();
        assert_eq!(other, ((0, 0), 0));
        set_step_context(0, 0);
        set_current_request(0);
    }

    #[test]
    fn flush_attaches_rank_and_drain_clears() {
        let _tracing = crate::TRACING_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_tracing(true);
        std::thread::spawn(|| {
            set_thread_rank(3);
            {
                crate::span!("sink.test.unique");
            }
            flush_thread();
        })
        .join()
        .unwrap();
        crate::set_tracing(false);
        let drained = drain_spans();
        let mine: Vec<_> = drained
            .iter()
            .filter(|e| e.name == "sink.test.unique")
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].rank, 3);
        assert!(drain_spans().iter().all(|e| e.name != "sink.test.unique"));
    }

    // One test covers the shared ring collector end to end: drain_rings is
    // destructive, so concurrent #[test]s would steal each other's
    // flushes.
    #[test]
    fn rings_flush_per_rank_survive_a_panic_and_respect_the_switch() {
        let _spine = crate::TRACING_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        clear_rings();
        // A panicking "rank" thread still gets its ring flushed.
        std::thread::spawn(|| {
            set_thread_rank(3);
            set_step_context(1, 7);
            crate::event("test.step", 0, 0.5);
            let caught = std::panic::catch_unwind(|| panic!("injected"));
            assert!(caught.is_err());
            flush_thread();
        })
        .join()
        .unwrap();
        // A disabled recorder drops events on another thread.
        std::thread::spawn(|| {
            set_thread_rank(9);
            set_sink(RECORDER, false);
            crate::event("test.disabled", 0, 0.0);
            set_sink(RECORDER, true);
            flush_thread();
        })
        .join()
        .unwrap();
        // An untagged thread files under rank 0 once, and never over it.
        for b in [1.0, 2.0] {
            std::thread::spawn(move || {
                crate::event("test.untagged", 0, b);
                flush_thread();
            })
            .join()
            .unwrap();
        }

        let all = drain_rings();
        let rec = &all.iter().find(|(r, _)| *r == 3).expect("rank 3 flushed").1;
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.last_step(), Some((1, 7)));
        assert!(rec.metrics.starts_with("mfm1"));
        let rec9 = &all.iter().find(|(r, _)| *r == 9).expect("rank 9 flushed").1;
        assert!(rec9.events.iter().all(|e| e.name != "test.disabled"));
        let rec0 = &all.iter().find(|(r, _)| *r == 0).expect("rank 0 filed").1;
        assert_eq!(rec0.events.len(), 1);
        assert_eq!(rec0.events[0].v[0], 1.0);
        assert!(drain_rings().is_empty());
    }
}
