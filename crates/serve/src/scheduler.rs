//! The batching scheduler: a bounded submission queue with typed
//! backpressure, drained in same-shape batches by the service workers.
//!
//! Shape of the problem: one MFP request issues a handful of tiny
//! sequential launches, so per-request serving pays the full per-launch
//! fixed cost (plan-cache probe, workspace checkout, interpreter
//! dispatch) for barely any arithmetic — and on a box with few cores
//! there is no parallelism to hide it. The leverage is *cross-request
//! batching*: a worker drains every queued request that shares a batch
//! key (domain shape + iteration controls) up to a point budget and
//! drives them through one `Mfp::run_many`, which stacks all requests'
//! query points into single `InferencePlan` launches. Row independence
//! makes the coalesced solve bitwise identical to solving each request
//! alone (property-tested in `mf-mfp`).
//!
//! The queue itself is deliberately dumb and fully synchronous — no
//! dedicated coalescer thread. A handoff to a middleman thread costs a
//! futex round trip per submission, which on a single-core host is the
//! same order as the launch fixed cost being amortized; draining in the
//! worker keeps the win. Backpressure is explicit: when the queue is at
//! its bound, [`Scheduler::submit`] returns a typed
//! [`SubmitError::QueueFull`] with a retry hint instead of blocking.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Bound on queued cost; submissions beyond it are rejected with
/// [`SubmitError::QueueFull`] instead of queuing unboundedly.
const QUEUE_POINTS: usize = 65_536;

/// Batch-budget knobs for the [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Drain at most this much cost (Σ job cost — the service uses a
    /// request's sweep-launch point footprint) into one batch.
    pub max_points: usize,
    /// How long a drain holds an under-budget batch open waiting for
    /// more same-key submissions, in microseconds. The default 0 drains
    /// the backlog immediately: batches still form naturally from the
    /// submissions that accumulate while the previous batch solves
    /// (backlog batching), without taxing a lightly-loaded service with
    /// a fixed per-batch delay. Set a window only to trade latency for
    /// larger batches under sparse arrivals.
    pub max_wait_us: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_points: 4096,
            max_wait_us: 0,
        }
    }
}

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

struct Entry<J> {
    job: J,
    key: u64,
    cost: usize,
}

struct Queue<J> {
    jobs: VecDeque<Entry<J>>,
    points: usize,
    shutdown: bool,
}

/// Bounded multi-producer queue drained in same-key batches. `J` is the
/// job payload; the submitter tags each job with a batch `key` (jobs in
/// one batch always share it) and a `cost` (the budget unit).
pub struct Scheduler<J> {
    cfg: BatchConfig,
    queue_depth: usize,
    q: Mutex<Queue<J>>,
    cv: Condvar,
    submitted: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    drained: AtomicU64,
    points: AtomicU64,
}

impl<J> Scheduler<J> {
    /// An empty scheduler with the given budgets, holding at most
    /// `queue_depth` jobs.
    pub fn new(cfg: BatchConfig, queue_depth: usize) -> Self {
        Self {
            cfg,
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
    pub fn submit(&self, job: J, key: u64, cost: usize) -> Result<(), SubmitError> {
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

    /// Block until work is available, then drain one batch: the oldest
    /// job plus every queued job sharing its key, oldest-first, up to
    /// the `max_points` budget. Returns `None` only after [`shutdown`]
    /// **and** a fully drained queue — accepted jobs always come out.
    ///
    /// With `max_wait_us > 0` the drain holds the batch open until the
    /// same-key backlog reaches the budget or the window expires.
    ///
    /// [`shutdown`]: Scheduler::shutdown
    pub fn next_batch(&self) -> Option<Vec<J>> {
        let mut q = self.q.lock().unwrap();
        'arm: loop {
            while q.jobs.is_empty() {
                if q.shutdown {
                    return None;
                }
                q = self.cv.wait(q).unwrap();
            }
            if self.cfg.max_wait_us > 0 && !q.shutdown {
                let deadline = Instant::now() + Duration::from_micros(self.cfg.max_wait_us);
                loop {
                    let Some(front) = q.jobs.front() else {
                        // Another worker drained everything while we
                        // waited; re-arm on the outer loop.
                        continue 'arm;
                    };
                    let key = front.key;
                    let avail: usize = q.jobs.iter().filter(|e| e.key == key).map(|e| e.cost).sum();
                    if avail >= self.cfg.max_points || q.shutdown {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timeout) = self.cv.wait_timeout(q, deadline - now).unwrap();
                    q = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if q.jobs.is_empty() {
                    continue 'arm;
                }
            }
            let key = q.jobs.front().unwrap().key;
            let mut batch = Vec::new();
            let mut cost = 0usize;
            let mut i = 0;
            while i < q.jobs.len() {
                let e = &q.jobs[i];
                if e.key == key && (batch.is_empty() || cost + e.cost <= self.cfg.max_points) {
                    let e = q.jobs.remove(i).unwrap();
                    cost += e.cost;
                    q.points -= e.cost;
                    batch.push(e.job);
                } else {
                    i += 1;
                }
            }
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.drained
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.points.fetch_add(cost as u64, Ordering::Relaxed);
            return Some(batch);
        }
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
    use std::sync::Arc;

    fn sched(cfg: BatchConfig) -> Scheduler<u32> {
        Scheduler::new(cfg, 256)
    }

    #[test]
    fn drains_same_key_jobs_oldest_first_up_to_budget() {
        let s = sched(BatchConfig {
            max_points: 30,
            ..BatchConfig::default()
        });
        for j in 0..5u32 {
            s.submit(j, 7, 10).unwrap();
        }
        assert_eq!(s.next_batch().unwrap(), vec![0, 1, 2]);
        assert_eq!(s.next_batch().unwrap(), vec![3, 4]);
        let st = s.stats();
        assert_eq!((st.batches, st.drained, st.points), (2, 5, 50));
        assert!((st.occupancy() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_keys_never_share_a_batch() {
        let s = sched(BatchConfig::default());
        for (j, key) in [(0u32, 1u64), (1, 2), (2, 1), (3, 2), (4, 1)] {
            s.submit(j, key, 1).unwrap();
        }
        // Front job's key leads; same-key jobs coalesce across the
        // interleaving without reordering within the key.
        assert_eq!(s.next_batch().unwrap(), vec![0, 2, 4]);
        assert_eq!(s.next_batch().unwrap(), vec![1, 3]);
    }

    #[test]
    fn bounded_queue_rejects_with_typed_error_not_a_hang() {
        let s = Scheduler::new(BatchConfig::default(), 2);
        s.submit(0, 1, 1).unwrap();
        s.submit(1, 1, 1).unwrap();
        match s.submit(2, 1, 1) {
            Err(SubmitError::QueueFull { retry_after_ms }) => assert!(retry_after_ms >= 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.stats().rejected, 1);
        // Draining frees capacity.
        assert_eq!(s.next_batch().unwrap().len(), 2);
        s.submit(2, 1, 1).unwrap();
    }

    #[test]
    fn point_bound_backpressure_also_rejects() {
        let s = sched(BatchConfig::default());
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
        let s = sched(BatchConfig {
            max_points: 1,
            ..BatchConfig::default()
        });
        s.submit(0, 1, 1).unwrap();
        s.submit(1, 1, 1).unwrap();
        s.shutdown();
        assert_eq!(s.submit(9, 1, 1), Err(SubmitError::Shutdown));
        assert_eq!(s.next_batch().unwrap(), vec![0]);
        assert_eq!(s.next_batch().unwrap(), vec![1]);
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn window_holds_the_batch_open_for_late_arrivals() {
        let s = Arc::new(sched(BatchConfig {
            max_points: 1_000_000,
            max_wait_us: 200_000, // 200ms window
        }));
        let consumer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.next_batch())
        };
        s.submit(0, 1, 1).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        s.submit(1, 1, 1).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        s.submit(2, 1, 1).unwrap();
        s.shutdown(); // closes the window without waiting out the 200ms
        let batch = consumer.join().unwrap().unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_submitters_all_get_drained_exactly_once() {
        let s = Arc::new(sched(BatchConfig::default()));
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
                while let Some(batch) = s.next_batch() {
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
