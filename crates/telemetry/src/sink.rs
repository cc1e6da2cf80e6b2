//! Per-thread collection buffers and the global span collector.
//!
//! Every thread owns a [`ThreadSink`]: plain vectors of counter/gauge/
//! histogram values (indexed by the slots handed out by the global
//! registry in [`crate::metrics`]) plus a buffer of finished spans.
//! Under `Cluster::run`, each simulated rank is one thread; the cluster
//! tags the thread with its rank ([`set_thread_rank`]) on entry and
//! [`flush_thread`]s finished spans into the process-wide collector on
//! exit, so a later [`drain_spans`] sees every rank's events.

use crate::flow::FlowEvent;
use crate::span::SpanEvent;
use std::cell::RefCell;
use std::sync::Mutex;

pub(crate) struct ThreadSink {
    pub rank: Option<usize>,
    pub counters: Vec<u64>,
    pub gauges: Vec<f64>,
    pub hists: Vec<crate::metrics::HistData>,
    pub series: Vec<crate::series::SeriesData>,
    pub spans: Vec<SpanEvent>,
    pub flows: Vec<FlowEvent>,
    pub depth: u32,
}

impl ThreadSink {
    const fn new() -> Self {
        Self {
            rank: None,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            series: Vec::new(),
            spans: Vec::new(),
            flows: Vec::new(),
            depth: 0,
        }
    }
}

thread_local! {
    pub(crate) static SINK: RefCell<ThreadSink> = const { RefCell::new(ThreadSink::new()) };
}

static COLLECTOR: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static FLOW_COLLECTOR: Mutex<Vec<FlowEvent>> = Mutex::new(Vec::new());

/// Tag the current thread with a rank id; spans it records are attributed
/// to this rank (`tid` in the Chrome trace). Untagged threads report
/// rank 0.
pub fn set_thread_rank(rank: usize) {
    SINK.with(|s| s.borrow_mut().rank = Some(rank));
}

/// The rank the current thread was tagged with, if any.
pub fn thread_rank() -> Option<usize> {
    SINK.with(|s| s.borrow().rank)
}

/// Move the current thread's finished spans into the global collector,
/// stamping them with the thread's rank. Called by the cluster when a
/// rank thread finishes; cheap (no lock) when no spans were recorded.
pub fn flush_thread() {
    // Leave the thread's final metric values visible to live scrapes
    // before the thread (e.g. a finished rank) goes away.
    crate::publish::publish_thread();
    let (rank, spans, flows) = SINK.with(|s| {
        let mut s = s.borrow_mut();
        (
            s.rank.unwrap_or(0),
            std::mem::take(&mut s.spans),
            std::mem::take(&mut s.flows),
        )
    });
    if !spans.is_empty() {
        let mut collector = COLLECTOR.lock().unwrap();
        collector.extend(spans.into_iter().map(|mut e| {
            e.rank = rank;
            e
        }));
    }
    if !flows.is_empty() {
        let mut collector = FLOW_COLLECTOR.lock().unwrap();
        collector.extend(flows.into_iter().map(|mut e| {
            e.rank = rank;
            e
        }));
    }
}

/// Flush the current thread, then take every collected span, ordered by
/// `(rank, start, depth)`. The collector is left empty.
pub fn drain_spans() -> Vec<SpanEvent> {
    flush_thread();
    let mut spans = std::mem::take(&mut *COLLECTOR.lock().unwrap());
    spans.sort_by(|a, b| {
        (a.rank, a.start_us, a.depth, &a.name).cmp(&(b.rank, b.start_us, b.depth, &b.name))
    });
    spans
}

/// Flush the current thread, then take every collected flow event,
/// ordered by `(rank, ts, id)`. The flow collector is left empty.
pub fn drain_flows() -> Vec<FlowEvent> {
    flush_thread();
    let mut flows = std::mem::take(&mut *FLOW_COLLECTOR.lock().unwrap());
    flows.sort_by(|a, b| (a.rank, a.ts_us, a.id, &a.name).cmp(&(b.rank, b.ts_us, b.id, &b.name)));
    flows
}

/// Discard all collected spans and flows (current thread and global
/// collectors).
pub fn clear_spans() {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.spans.clear();
        s.flows.clear();
    });
    COLLECTOR.lock().unwrap().clear();
    FLOW_COLLECTOR.lock().unwrap().clear();
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
}
