//! Shared plan caching and workspace pooling for compiled inference.
//!
//! The MFP's [`PlanSolver`](../../mf_mfp/struct.PlanSolver.html) and the
//! serve layer's cross-request batcher evaluate the same network on a
//! tiny number of distinct query-point sets, thousands of times each.
//! Both want the same two pieces of machinery:
//!
//! * [`PlanCache`] — one compiled [`InferencePlan`] per *point set* of
//!   the one network its owner holds immutably (the weights of a
//!   pre-trained SDNet never change while it solves).
//! * [`WorkspacePool`] — a checkout/checkin stack of [`Workspace`]s so
//!   concurrent launchers never contend on one set of registers, while a
//!   single-threaded caller keeps reusing the same warm workspace.
//!
//! Both types are `Sync`; interior mutability is a plain `Mutex` because
//! the critical sections are a probe (a bit-compare over a few dozen
//! `u64`s) or a `Vec` pop — far cheaper than a plan launch.

use crate::{InferencePlan, Workspace};
use mf_nn::SdNet;
use mf_tensor::{PoolStats, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: exact bit pattern of a query-point tensor. Callers reuse
/// the same few point sets thousands of times, so equality-by-bits with a
/// linear scan beats any hashing scheme here.
#[derive(PartialEq, Eq)]
pub struct PointsKey {
    rows: usize,
    bits: Vec<u64>,
}

impl PointsKey {
    /// Snapshot the bit pattern of `points`.
    pub fn of(points: &Tensor) -> Self {
        Self {
            rows: points.rows(),
            bits: points.as_slice().iter().map(|v| v.to_bits()).collect(),
        }
    }

    /// Allocation-free equality against a points tensor, for the
    /// per-launch cache probe.
    pub fn matches(&self, points: &Tensor) -> bool {
        self.rows == points.rows()
            && self.bits.len() == points.numel()
            && self
                .bits
                .iter()
                .zip(points.as_slice())
                .all(|(b, v)| *b == v.to_bits())
    }
}

/// A per-point-set cache of compiled plans for one network.
///
/// [`PlanCache::get_or_compile`] returns the cached plan for a point set,
/// and compiles and keeps one on the first lookup. Hits are counted for
/// telemetry (`infer.plan_cache_hits`).
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<Vec<(PointsKey, Arc<InferencePlan>)>>,
    hits: AtomicU64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups served by an already-compiled plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct point sets currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// Whether the cache holds no plans yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The compiled plan for `points`, compiled from `net` on the first
    /// lookup. Every call on one cache passes the same network.
    pub fn get_or_compile(&self, net: &SdNet, points: &Tensor) -> Arc<InferencePlan> {
        static CACHE_HITS: std::sync::OnceLock<mf_telemetry::Counter> = std::sync::OnceLock::new();
        let mut plans = self.plans.lock().unwrap();
        if let Some((_, plan)) = plans.iter().find(|(k, _)| k.matches(points)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS
                .get_or_init(|| mf_telemetry::counter("infer.plan_cache_hits"))
                .incr();
            return Arc::clone(plan);
        }
        let plan = {
            mf_telemetry::span!("infer.plan_compile");
            Arc::new(InferencePlan::compile(net, points))
        };
        plans.push((PointsKey::of(points), Arc::clone(&plan)));
        plan
    }
}

/// Checkout/checkin stack of [`Workspace`]s for concurrent plan launches.
///
/// A launcher pops a workspace (or gets a fresh one when the stack is
/// empty), executes, and pushes it back; a single-threaded caller always
/// gets the same warm workspace back. Warm-allocation counts survive the
/// round trip, so [`WorkspacePool::warm_allocs`] aggregates warm growth
/// across every workspace ever checked in.
#[derive(Default)]
pub struct WorkspacePool {
    stack: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop a workspace (fresh when the stack is empty).
    pub fn checkout(&self) -> Workspace {
        self.stack.lock().unwrap().pop().unwrap_or_default()
    }

    /// Return a workspace for reuse.
    pub fn checkin(&self, ws: Workspace) {
        self.stack.lock().unwrap().push(ws);
    }

    /// Total registers grown on warm executions across all checked-in
    /// workspaces. Zero means every launch after each workspace's first
    /// ran allocation-free.
    pub fn warm_allocs(&self) -> u64 {
        self.stack
            .lock()
            .unwrap()
            .iter()
            .map(|w| w.warm_allocs())
            .sum()
    }

    /// Register statistics of every lane of every checked-in workspace,
    /// cold blocks included.
    pub fn pool_stats(&self) -> PoolStats {
        self.stack
            .lock()
            .unwrap()
            .iter()
            .map(Workspace::pool_stats)
            .sum()
    }

    /// Number of idle workspaces currently checked in.
    pub fn idle(&self) -> usize {
        self.stack.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_nn::SdNetConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn net(seed: u64) -> SdNet {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![8, 8];
        SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn cache_compiles_once_per_point_set_and_counts_hits() {
        let net = net(1);
        let cache = PlanCache::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p1 = Tensor::from_fn(3, 2, |_, _| rng.gen_range(0.0..0.5));
        let p2 = Tensor::from_fn(5, 2, |_, _| rng.gen_range(0.0..0.5));
        let a = cache.get_or_compile(&net, &p1);
        let b = cache.get_or_compile(&net, &p1);
        let c = cache.get_or_compile(&net, &p2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn workspace_pool_round_trips_and_aggregates_warm_allocs() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle(), 0);
        let ws = pool.checkout();
        pool.checkin(ws);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.warm_allocs(), 0);
        // A second checkout reuses the same workspace.
        let _ws = pool.checkout();
        assert_eq!(pool.idle(), 0);
    }
}
