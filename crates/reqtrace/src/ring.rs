//! Request span records on the worker's ring — the warm path.
//!
//! The contract that makes request tracing affordable on the serve hot
//! path: recording a span is a write of a `Copy` struct into a
//! preallocated thread-local [`Ring`] (the `mf-telemetry` one). No heap
//! allocation, no global lock, no formatting. The ring is drained *off*
//! the hot path — after the worker has sent every reply in its batch —
//! into the global request log via [`crate::drain_batch`].
//!
//! Allocation accounting: the only allocation the recording path can
//! ever perform is the one-time creation of a thread's ring. After the
//! serve layer calls [`mark_warm`] (post-prewarm, post-warmup), any
//! further ring creation increments the [`warm_allocs`] counter — the
//! `reqtrace.warm_allocs` bench gate holds it at 0.

use mf_telemetry::Ring;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Phases a request's wall time decomposes into; they tile it exactly on
/// the worker (queue → batch-wait → solve → reply-wait → serialize).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Enqueued until a worker claimed the batch containing the request.
    Queue = 0,
    /// Claimed until the solve launched: batch assembly plus any
    /// hold-open window spent waiting for co-batched peers.
    BatchWait = 1,
    /// Inside `Mfp::run_many`.
    Solve = 2,
    /// Solve finished until the worker turned to this request's reply:
    /// the replies of co-batched requests sent ahead of it (zero for the
    /// first reply of a batch).
    ReplyWait = 3,
    /// Building and sending the reply (response struct + channel send on
    /// the worker; JSON rendering + socket write on the TCP path).
    Serialize = 4,
}

impl Phase {
    /// Stable lowercase name used in JSON exports and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::BatchWait => "batch_wait",
            Phase::Solve => "solve",
            Phase::ReplyWait => "reply_wait",
            Phase::Serialize => "serialize",
        }
    }
}

/// One recorded span: request id, phase, and the interval. `Copy` and
/// fixed-size so rings and request-log entries never allocate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRec {
    /// The request this span belongs to.
    pub req: u64,
    /// Which phase of the request the interval covers.
    pub phase: Phase,
    /// Start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl SpanRec {
    pub(crate) const EMPTY: SpanRec = SpanRec {
        req: 0,
        phase: Phase::Queue,
        start_us: 0,
        dur_us: 0,
    };
}

/// Ring capacity per worker thread: a batch records 5 spans per request,
/// so 4096 covers the largest schedulable batch many times over.
const RING_CAP: usize = 4096;

thread_local! {
    static RING: RefCell<Ring<SpanRec>> = const { RefCell::new(Ring::new(RING_CAP)) };
}

static WARM: AtomicBool = AtomicBool::new(false);
static WARM_ALLOCS: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Declare the warm phase started: ring or scope buffers created from
/// here on count as warm-path allocations (the `reqtrace.warm_allocs`
/// gate). Call after prewarm/warmup has touched every worker thread.
pub fn mark_warm() {
    WARM.store(true, Ordering::SeqCst);
}

/// Warm-path allocations since [`mark_warm`] — 0 means every span the
/// fleet recorded went into a preallocated buffer.
pub fn warm_allocs() -> u64 {
    WARM_ALLOCS.load(Ordering::Relaxed)
}

/// Reset the warm-alloc counter (bench A/B phases).
pub fn reset_warm_allocs() {
    WARM_ALLOCS.store(0, Ordering::Relaxed);
}

/// Span records overwritten before they were drained (ring wrap).
pub fn dropped_records() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
thread_local! {
    static THREAD_WARM_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

pub(crate) fn note_warm_alloc() {
    if WARM.load(Ordering::Relaxed) {
        WARM_ALLOCS.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_WARM_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

/// Warm allocations attributed to the calling thread — lets tests
/// assert on their own thread without racing other tests on the global
/// counter.
#[cfg(test)]
pub(crate) fn thread_warm_allocs() -> u64 {
    THREAD_WARM_ALLOCS.with(|c| c.get())
}

/// Allocate the calling thread's request ring now if it does not exist
/// yet, so the one-time allocation happens before [`mark_warm`].
pub(crate) fn ensure_ring() {
    if RING.with(|r| r.borrow_mut().reserve()) {
        note_warm_alloc();
    }
}

/// Record one span into the calling thread's ring. The warm path: a
/// `Copy` write into a preallocated buffer, no allocation, no lock.
/// No-op when request tracing is disabled.
#[inline]
pub fn record(req: u64, phase: Phase, start_us: u64, dur_us: u64) {
    if !crate::enabled() {
        return;
    }
    let rec = SpanRec {
        req,
        phase,
        start_us,
        dur_us,
    };
    let (fresh, overwritten) = RING.with(|r| {
        let mut r = r.borrow_mut();
        (r.reserve(), r.push(rec))
    });
    if fresh {
        note_warm_alloc();
    }
    if overwritten.is_some() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drain every record in the calling thread's ring matching `pred` into
/// `out` (oldest first), removing them from the ring. Called off the
/// hot path by the worker's batch-completion assembly. Records not
/// matching stay in the ring.
pub(crate) fn drain_thread(pred: impl FnMut(&SpanRec) -> bool, out: impl FnMut(SpanRec)) {
    RING.with(|r| r.borrow_mut().drain_filter(pred, out));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_ring() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            record(10, Phase::Queue, 100, 5);
            record(11, Phase::Solve, 105, 7);
            record(10, Phase::Solve, 112, 9);
            let mut mine = Vec::new();
            drain_thread(|r| r.req == 10, |r| mine.push(r));
            assert_eq!(mine.len(), 2);
            assert_eq!(mine[0].phase, Phase::Queue);
            assert_eq!(mine[1].dur_us, 9);
            // The non-matching record survived the drain.
            let mut rest = Vec::new();
            drain_thread(|_| true, |r| rest.push(r));
            assert_eq!(rest.len(), 1);
            assert_eq!(rest[0].req, 11);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn ring_wraps_without_allocating_and_counts_drops() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        std::thread::spawn(|| {
            let d0 = dropped_records();
            for i in 0..(RING_CAP as u64 + 10) {
                record(1, Phase::Queue, i, 1);
            }
            assert!(dropped_records() >= d0 + 10);
            let mut n = 0;
            drain_thread(|_| true, |_| n += 1);
            assert_eq!(n, RING_CAP);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn warm_alloc_counter_tracks_post_warm_ring_creation() {
        let _g = crate::TEST_ENABLE_LOCK.read().unwrap();
        // Thread-local assertions: other tests share the global counter.
        mark_warm();
        std::thread::spawn(|| {
            record(1, Phase::Queue, 0, 1);
            assert_eq!(thread_warm_allocs(), 1, "ring creation must count");
            for i in 0..100 {
                record(2, Phase::Solve, i, 1);
            }
            assert_eq!(thread_warm_allocs(), 1, "only ring creation may allocate");
            assert!(warm_allocs() >= 1);
        })
        .join()
        .unwrap();
    }
}
