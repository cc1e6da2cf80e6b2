//! The batching scheduler: a bounded submission queue with typed
//! backpressure, drained in same-shape batches by the service workers.
//!
//! Shape of the problem: one MFP request issues a handful of tiny
//! sequential launches, so per-request serving pays the full per-launch
//! fixed cost (plan-cache probe, workspace checkout, interpreter
//! dispatch) for barely any arithmetic — and on a box with few cores
//! there is no parallelism to hide it. The leverage is *cross-request
//! batching*: a worker drains every queued request whose batch key
//! (domain shape + iteration controls) equals the oldest one's, up to a
//! point budget, and drives them through one `Mfp::run_many`, which
//! stacks all requests' query points into single `InferencePlan`
//! launches. Row independence
//! makes the coalesced solve bitwise identical to solving each request
//! alone (property-tested in `mf-mfp`).
//!
//! The queue itself is deliberately dumb and fully synchronous — no
//! dedicated coalescer thread. A handoff to a middleman thread costs a
//! futex round trip per submission, which on a single-core host is the
//! same order as the launch fixed cost being amortized; draining in the
//! worker keeps the win. A drain never waits for more work than it
//! finds: batches form from the submissions that pile up while the
//! previous batch solves (greedy backlog batching), so a lightly loaded
//! service pays no per-batch delay. Backpressure is explicit: when the
//! queue is at its bound, [`Scheduler::submit`] returns a typed
//! [`SubmitError::QueueFull`] with a retry hint instead of blocking.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Bound on queued cost; submissions beyond it are rejected with
/// [`SubmitError::QueueFull`] instead of queuing unboundedly.
const QUEUE_POINTS: usize = 65_536;

/// Typed submission rejection — the backpressure contract. Callers never
/// block on a full queue; they get a retry hint instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at one of its bounds; try again after the hint.
    QueueFull {
        /// Suggested backoff before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// The scheduler is shutting down and accepts no new work.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after_ms } => {
                write!(f, "queue full, retry after {retry_after_ms}ms")
            }
            SubmitError::Shutdown => write!(f, "scheduler shut down"),
        }
    }
}

/// Scheduler counters (monotonic since construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs rejected with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Batches drained.
    pub batches: u64,
    /// Jobs drained (Σ batch sizes).
    pub drained: u64,
    /// Cost drained (Σ job costs).
    pub points: u64,
}

impl SchedulerStats {
    /// Mean jobs coalesced per batch — the occupancy the batching wins
    /// scale with.
    pub fn occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.drained as f64 / self.batches as f64
    }
}

struct Entry<J, K> {
    job: J,
    key: K,
    cost: usize,
}

struct Queue<J, K> {
    jobs: VecDeque<Entry<J, K>>,
    points: usize,
    shutdown: bool,
}

/// Bounded multi-producer queue drained in same-key batches. `J` is the
/// job payload; the submitter tags each job with a batch key `K` (jobs in
/// one batch always have equal keys, compared with `==`) and a `cost`
/// (the budget unit).
pub struct Scheduler<J, K> {
    max_points: usize,
    queue_depth: usize,
    q: Mutex<Queue<J, K>>,
    cv: Condvar,
    submitted: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    drained: AtomicU64,
    points: AtomicU64,
}

impl<J, K: Copy + PartialEq> Scheduler<J, K> {
    /// An empty scheduler that drains at most `max_points` of cost into
    /// one batch (always at least one job) and holds at most
    /// `queue_depth` jobs.
    pub fn new(max_points: usize, queue_depth: usize) -> Self {
        Self {
            max_points,
            queue_depth,
            q: Mutex::new(Queue {
                jobs: VecDeque::new(),
                points: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            points: AtomicU64::new(0),
        }
    }

    /// Enqueue a job, or reject it when a bound is hit. Never blocks.
    pub fn submit(&self, job: J, key: K, cost: usize) -> Result<(), SubmitError> {
        {
            let mut q = self.q.lock().unwrap();
            if q.shutdown {
                return Err(SubmitError::Shutdown);
            }
            if q.jobs.len() >= self.queue_depth || q.points + cost > QUEUE_POINTS {
                let behind = q.jobs.len() as u64;
                drop(q);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull {
                    retry_after_ms: 1 + behind / 8,
                });
            }
            q.points += cost;
            q.jobs.push_back(Entry { job, key, cost });
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until work is available, then drain one batch and return it
    /// with its key: the oldest job plus every queued job with an equal
    /// key, oldest-first, up to the `max_points` budget. Returns `None`
    /// only after [`shutdown`] **and** a fully drained queue — accepted
    /// jobs always come out.
    ///
    /// [`shutdown`]: Scheduler::shutdown
    pub fn next_batch(&self) -> Option<(K, Vec<J>)> {
        let mut q = self.q.lock().unwrap();
        while q.jobs.is_empty() {
            if q.shutdown {
                return None;
            }
            q = self.cv.wait(q).unwrap();
        }
        let front = q.jobs.pop_front().unwrap();
        let mut cost = front.cost;
        q.points -= front.cost;
        let mut batch = vec![front.job];
        let mut i = 0;
        while i < q.jobs.len() {
            let e = &q.jobs[i];
            if e.key == front.key && cost + e.cost <= self.max_points {
                let e = q.jobs.remove(i).unwrap();
                cost += e.cost;
                q.points -= e.cost;
                batch.push(e.job);
            } else {
                i += 1;
            }
        }
        drop(q);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.drained
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.points.fetch_add(cost as u64, Ordering::Relaxed);
        Some((front.key, batch))
    }

    /// Stop accepting new jobs and wake every blocked drain. Queued jobs
    /// still come out of [`Scheduler::next_batch`] before it returns
    /// `None`.
    pub fn shutdown(&self) {
        self.q.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }

    /// Jobs currently queued.
    pub fn queue_len(&self) -> usize {
        self.q.lock().unwrap().jobs.len()
    }

    /// Monotonic counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            points: self.points.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::BatchKey;
    use std::sync::Arc;
    use std::time::Duration;

    fn sched(max_points: usize) -> Scheduler<u32, u64> {
        Scheduler::new(max_points, 256)
    }

    #[test]
    fn drains_same_key_jobs_oldest_first_up_to_budget() {
        let s = sched(30);
        for j in 0..5u32 {
            s.submit(j, 7, 10).unwrap();
        }
        assert_eq!(s.next_batch().unwrap().1, vec![0, 1, 2]);
        assert_eq!(s.next_batch().unwrap().1, vec![3, 4]);
        let st = s.stats();
        assert_eq!((st.batches, st.drained, st.points), (2, 5, 50));
        assert!((st.occupancy() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_keys_never_share_a_batch() {
        let s = sched(4096);
        for (j, key) in [(0u32, 1u64), (1, 2), (2, 1), (3, 2), (4, 1)] {
            s.submit(j, key, 1).unwrap();
        }
        // Front job's key leads; same-key jobs coalesce across the
        // interleaving without reordering within the key.
        assert_eq!(s.next_batch().unwrap().1, vec![0, 2, 4]);
        assert_eq!(s.next_batch().unwrap().1, vec![1, 3]);
    }

    #[test]
    fn keys_one_field_apart_never_share_a_batch() {
        let base = BatchKey {
            sx: 2,
            sy: 1,
            max_iters: 100,
            tol_bits: 1e-4f64.to_bits(),
        };
        // Each neighbour differs from `base` in exactly one field; the
        // transposed shape has the same boundary length, and the tolerance
        // is one ulp away.
        let keys = [
            base,
            BatchKey { sx: 1, ..base },
            BatchKey { sy: 2, ..base },
            BatchKey {
                max_iters: 101,
                ..base
            },
            BatchKey {
                tol_bits: base.tol_bits + 1,
                ..base
            },
        ];
        let s = Scheduler::new(4096, 256);
        for _ in 0..3 {
            for key in keys {
                s.submit(key, key, 1).unwrap();
            }
        }
        s.shutdown();
        let mut drained = Vec::new();
        while let Some((key, batch)) = s.next_batch() {
            assert_eq!(batch, vec![key; 3], "a batch mixed keys, or split one");
            drained.push(key);
        }
        assert_eq!(drained, keys);
    }

    #[test]
    fn bounded_queue_rejects_with_typed_error_not_a_hang() {
        let s: Scheduler<u32, u64> = Scheduler::new(4096, 2);
        s.submit(0, 1, 1).unwrap();
        s.submit(1, 1, 1).unwrap();
        match s.submit(2, 1, 1) {
            Err(SubmitError::QueueFull { retry_after_ms }) => assert!(retry_after_ms >= 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.stats().rejected, 1);
        // Draining frees capacity.
        assert_eq!(s.next_batch().unwrap().1.len(), 2);
        s.submit(2, 1, 1).unwrap();
    }

    #[test]
    fn point_bound_backpressure_also_rejects() {
        let s = sched(4096);
        let cost = QUEUE_POINTS * 2 / 5;
        s.submit(0, 1, cost).unwrap();
        s.submit(1, 1, cost).unwrap();
        assert!(matches!(
            s.submit(2, 1, cost),
            Err(SubmitError::QueueFull { .. })
        ));
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_ends() {
        let s = sched(1);
        s.submit(0, 1, 1).unwrap();
        s.submit(1, 1, 1).unwrap();
        s.shutdown();
        assert_eq!(s.submit(9, 1, 1), Err(SubmitError::Shutdown));
        assert_eq!(s.next_batch().unwrap().1, vec![0]);
        assert_eq!(s.next_batch().unwrap().1, vec![1]);
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn concurrent_submitters_all_get_drained_exactly_once() {
        let s = Arc::new(sched(4096));
        let producers: Vec<_> = (0..8u32)
            .map(|p| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for k in 0..50u32 {
                        loop {
                            match s.submit(p * 1000 + k, 1, 1) {
                                Ok(()) => break,
                                Err(SubmitError::QueueFull { retry_after_ms }) => {
                                    std::thread::sleep(Duration::from_millis(retry_after_ms))
                                }
                                Err(e) => panic!("{e}"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some((_, batch)) = s.next_batch() {
                    seen.extend(batch);
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        s.shutdown();
        let mut seen = consumer.join().unwrap();
        assert_eq!(seen.len(), 400);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 400, "a job was duplicated or lost");
    }
}
