//! Fault injection for the simulated cluster: seeded delivery delays and
//! an injected rank crash, plus the failure detection that turns a dead
//! peer into a typed error.
//!
//! Links are reliable and FIFO, as MPI's are: nothing sent is lost,
//! duplicated or reordered, so there is nothing to retransmit. A
//! [`FaultPlan`] can only make a peer *slow* or make it *vanish*:
//!
//! * a **delayed** message matures on the receiver, so a send never
//!   blocks. Its maturity stamp is never earlier than the previous stamp
//!   on its link, so delays keep MPI's non-overtaking rule by
//!   construction;
//! * a **crashed** rank panics after a set number of sends, and a
//!   per-rank **failure flag** turns it — or any panicking rank — into a
//!   typed [`CommError::RankFailed`] on every peer instead of a deadlock.
//!
//! Every receive blocks until its message arrives: a delay makes a peer
//! late, never absent.
//!
//! Delay decisions are drawn from a per-link splitmix64 stream seeded from
//! `FaultPlan::seed` and advanced by two draws per `send` in the sender's
//! program order, so which messages are delayed, and by how much, is a
//! pure function of the seed, independent of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Crash injection: rank `rank` panics once it has issued
/// `after_sends` point-to-point messages (collectives count their
/// internal messages), simulating a mid-iteration node failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashAt {
    /// The rank that dies.
    pub rank: usize,
    /// Messages the rank sends before dying.
    pub after_sends: usize,
}

/// A seeded description of the faults to inject into a cluster run.
///
/// The default plan injects nothing and detects failures only; it is what
/// [`Cluster::run`](crate::Cluster::run) uses.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-link delay streams.
    pub seed: u64,
    /// Probability that a send stalls before delivery.
    pub delay_rate: f64,
    /// Maximum stall, in microseconds (uniform in `0..=max`).
    pub delay_max_us: u64,
    /// Optional injected rank crash.
    pub crash: Option<CrashAt>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The no-fault plan: prompt delivery, failure detection only.
    pub fn none() -> Self {
        Self {
            seed: 0,
            delay_rate: 0.0,
            delay_max_us: 0,
            crash: None,
        }
    }
}

/// A typed communication failure, carrying the rank it implicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A rank in the job crashed or panicked.
    RankFailed {
        /// The failed rank.
        rank: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
        }
    }
}

impl std::error::Error for CommError {}

/// Error from [`Cluster::try_run`](crate::Cluster::try_run): one or more
/// ranks panicked or crashed. Failures are listed in the order they were
/// observed, so the first entry is the originating fault and later ones
/// are cascades (peers erroring out with [`CommError::RankFailed`]).
#[derive(Debug)]
pub struct ClusterError {
    /// `(rank, panic message)` in observation order.
    pub failed: Vec<(usize, String)>,
}

impl ClusterError {
    /// The first-failing rank (the root cause).
    pub fn origin(&self) -> usize {
        self.failed.first().map(|(r, _)| *r).unwrap_or(usize::MAX)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.failed.as_slice() {
            [] => write!(f, "cluster failed with no recorded rank"),
            [(rank, msg), rest @ ..] => {
                write!(f, "rank {rank} failed: {msg}")?;
                if !rest.is_empty() {
                    write!(f, " ({} rank(s) failed in cascade)", rest.len())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// splitmix64 — a tiny, dependency-free deterministic stream.
#[derive(Clone, Debug)]
pub(crate) struct Splitmix {
    state: u64,
}

impl Splitmix {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Shared failure state of one cluster run.
pub(crate) struct FaultState {
    pub plan: FaultPlan,
    /// First rank to fail (`usize::MAX` while all are healthy); checked
    /// by every blocked receive so peers report the root cause, not a
    /// cascade.
    pub origin: AtomicUsize,
    /// Panic messages in observation order.
    pub panics: Mutex<Vec<(usize, String)>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            origin: AtomicUsize::new(usize::MAX),
            panics: Mutex::new(Vec::new()),
        }
    }

    /// The first-failing rank, if any rank has failed.
    pub(crate) fn any_failed(&self) -> Option<usize> {
        let origin = self.origin.load(Ordering::Acquire);
        (origin != usize::MAX).then_some(origin)
    }

    /// Record a rank failure: the message first (so cascades always sort
    /// after their origin), then the flag peers poll. Only the first
    /// failure becomes the origin.
    pub(crate) fn mark_failed(&self, rank: usize, msg: String) {
        mf_telemetry::log!(Error, "cluster.rank_failed", rank = rank, msg = msg);
        lock_robust(&self.panics).push((rank, msg));
        let _ =
            self.origin
                .compare_exchange(usize::MAX, rank, Ordering::Release, Ordering::Relaxed);
    }
}

/// Lock a mutex, recovering from poisoning (a rank may panic while its
/// peers keep running; their view of the shared state stays usable).
pub(crate) fn lock_robust<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A sense-reversing barrier whose waiters poll the failure flags, so a
/// dead rank turns `wait` into an error instead of a permanent hang.
pub(crate) struct FaultBarrier {
    size: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

impl FaultBarrier {
    pub(crate) fn new(size: usize) -> Self {
        Self {
            size,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn wait(&self, faults: &FaultState, tick: Duration) -> Result<(), CommError> {
        let mut guard = lock_robust(&self.state);
        guard.0 += 1;
        if guard.0 == self.size {
            guard.0 = 0;
            guard.1 += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let generation = guard.1;
        loop {
            let (g, _timeout) = self
                .cv
                .wait_timeout(guard, tick)
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
            if guard.1 != generation {
                return Ok(());
            }
            if let Some(rank) = faults.any_failed() {
                return Err(CommError::RankFailed { rank });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniform_ish() {
        let mut a = Splitmix::new(7);
        let mut b = Splitmix::new(7);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mean: f64 = (0..1000).map(|_| a.unit()).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn cluster_error_reports_origin_first() {
        let e = ClusterError {
            failed: vec![(2, "injected crash".into()), (0, "rank 2 failed".into())],
        };
        assert_eq!(e.origin(), 2);
        let msg = e.to_string();
        assert!(msg.starts_with("rank 2 failed: injected crash"), "{msg}");
        assert!(msg.contains("1 rank(s) failed in cascade"), "{msg}");
    }

    #[test]
    fn comm_error_messages_name_the_rank() {
        let f = CommError::RankFailed { rank: 5 };
        assert!(f.to_string().contains("rank 5"));
    }
}
