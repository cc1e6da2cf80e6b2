//! Size-class buffer pool for tensor storage.
//!
//! The autodiff arena (`mf-autodiff`) allocates thousands of short-lived
//! tensors per training step: every forward node, every adjoint of the
//! triple-chained PDE backward. A [`BufferPool`] recycles those buffers
//! across steps so the steady-state hot path performs (near-)zero heap
//! allocation — the "allocation-lean" requirement of the ROADMAP's
//! "fast as the hardware allows" north star.
//!
//! Buffers are binned by power-of-two capacity class. A miss allocates a
//! buffer whose capacity is rounded *up* to the class size, so every
//! pool-origin buffer can later serve any request of its class — repeated
//! steps with identical shapes therefore converge to zero misses after the
//! first (warm-up) step. Externally-built buffers (e.g. `Tensor::from_vec`
//! with an odd length) are still accepted on release and binned by the
//! class they can safely serve.

use crate::Tensor;

/// Number of size classes: class `k` holds buffers with
/// `capacity ∈ [2^k, 2^(k+1))` elements. 48 classes cover any realistic
/// tensor (2^47 f64 ≈ 1 PiB).
const CLASSES: usize = 48;

/// Cumulative pool counters (monotonic; diff two snapshots for per-step
/// numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a recycled buffer.
    pub hits: u64,
    /// Acquisitions that had to touch the heap allocator.
    pub misses: u64,
    /// Bytes newly allocated by misses (capacity bytes).
    pub miss_bytes: u64,
    /// Buffers handed back by [`BufferPool::release`].
    pub released: u64,
}

impl PoolStats {
    /// `self - earlier`, for per-step deltas.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            miss_bytes: self.miss_bytes - earlier.miss_bytes,
            released: self.released - earlier.released,
        }
    }
}

/// Counters of several pools added up.
impl std::iter::Sum for PoolStats {
    fn sum<I: Iterator<Item = PoolStats>>(iter: I) -> PoolStats {
        iter.fold(PoolStats::default(), |acc, s| PoolStats {
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
            miss_bytes: acc.miss_bytes + s.miss_bytes,
            released: acc.released + s.released,
        })
    }
}

/// Freelists of `f64` tensor storage binned by power-of-two capacity.
#[derive(Debug)]
pub struct BufferPool {
    classes: Vec<Vec<Vec<f64>>>,
    held_bytes: usize,
    stats: PoolStats,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self {
            classes: (0..CLASSES).map(|_| Vec::new()).collect(),
            held_bytes: 0,
            stats: PoolStats::default(),
        }
    }
}

/// Smallest `k` with `2^k >= n` (`n >= 1`).
#[inline]
fn class_for_request(n: usize) -> usize {
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Largest `k` with `2^k <= cap`; buffers in class `k` serve any request
/// of up to `2^k` elements.
#[inline]
fn class_for_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

impl BufferPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled `rows×cols` tensor, recycled when possible.
    pub fn acquire(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.acquire_dirty(rows, cols);
        t.as_mut_slice().fill(0.0);
        t
    }

    /// A `rows×cols` tensor with **unspecified contents** (stale data from
    /// a previous user when recycled), recycled when possible. For
    /// destinations that overwrite every element; accumulating kernels
    /// (`gemm_into`) need the zero-filled [`BufferPool::acquire`].
    pub fn acquire_dirty(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let k = class_for_request(len.max(1));
        let mut buf = match self.classes.get_mut(k).and_then(Vec::pop) {
            Some(buf) => {
                debug_assert!(buf.capacity() >= len);
                self.held_bytes -= buf.capacity() * std::mem::size_of::<f64>();
                self.stats.hits += 1;
                buf
            }
            None => {
                let cap = 1usize << k;
                self.stats.misses += 1;
                self.stats.miss_bytes += (cap * std::mem::size_of::<f64>()) as u64;
                Vec::with_capacity(cap)
            }
        };
        // Adjust the length without wiping what's already there: elements
        // below the old length keep their stale values, any grown region
        // is zero-extended — never uninitialized memory.
        buf.resize(len, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Hand a tensor's storage back for reuse.
    pub fn release(&mut self, t: Tensor) {
        let buf = t.into_vec();
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        self.stats.released += 1;
        let k = class_for_capacity(cap).min(CLASSES - 1);
        self.held_bytes += cap * std::mem::size_of::<f64>();
        self.classes[k].push(buf);
    }

    /// Bytes currently parked in freelists (capacity, i.e. what the heap
    /// allocator sees).
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Drop every parked buffer (freelists are emptied, counters kept).
    pub fn trim(&mut self) {
        for c in &mut self.classes {
            c.clear();
        }
        self.held_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zeroed_and_shaped() {
        let mut p = BufferPool::new();
        let t = p.acquire(3, 5);
        assert_eq!(t.shape(), (3, 5));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().hits, 0);
    }

    #[test]
    fn release_then_acquire_same_shape_hits() {
        let mut p = BufferPool::new();
        let t = p.acquire(4, 4);
        p.release(t);
        assert!(p.held_bytes() >= 16 * 8);
        let t2 = p.acquire(4, 4);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
        assert_eq!(t2.shape(), (4, 4));
        assert_eq!(p.held_bytes(), 0);
    }

    #[test]
    fn pow2_rounding_lets_nearby_shapes_share_buffers() {
        // 3×5 = 15 and 2×7 = 14 both round to class 4 (16 elements).
        let mut p = BufferPool::new();
        let t = p.acquire(3, 5);
        p.release(t);
        let t2 = p.acquire(2, 7);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(t2.shape(), (2, 7));
    }

    #[test]
    fn stale_data_is_cleared_on_reuse() {
        let mut p = BufferPool::new();
        let mut t = p.acquire(2, 2);
        t.as_mut_slice().fill(7.0);
        p.release(t);
        let t2 = p.acquire(2, 2);
        assert!(t2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn external_odd_capacity_buffers_serve_smaller_requests() {
        // A released capacity-5 buffer lands in class 2 and serves n<=4.
        let mut p = BufferPool::new();
        p.release(Tensor::from_vec(1, 5, vec![1.0; 5]));
        let t = p.acquire(2, 2);
        assert_eq!(p.stats().hits, 1);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stats_deltas() {
        let mut p = BufferPool::new();
        let snap = p.stats();
        let t = p.acquire(8, 8);
        p.release(t);
        let _ = p.acquire(8, 8);
        let d = p.stats().since(&snap);
        assert_eq!(d.misses, 1);
        assert_eq!(d.hits, 1);
        assert_eq!(d.released, 1);
        assert_eq!(d.miss_bytes, 64 * 8);
    }

    #[test]
    fn trim_drops_freelists() {
        let mut p = BufferPool::new();
        let t = p.acquire(4, 1);
        p.release(t);
        p.trim();
        assert_eq!(p.held_bytes(), 0);
        let _ = p.acquire(4, 1);
        assert_eq!(p.stats().misses, 2);
    }
}
