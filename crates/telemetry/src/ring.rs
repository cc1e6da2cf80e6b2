//! The workspace's one ring buffer: the flight recorder's, the request log
//! of `mf-reqtrace`, the latency window of `mf-serve`.

/// Fixed-capacity ring of `Copy` values that overwrites its oldest entry
/// when full. Storage is reserved on the first push (or an explicit
/// [`Ring::reserve`]) and never grows, so a warm push is one slot write.
pub struct Ring<T: Copy> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest entry; non-zero only while `buf` is full.
    start: usize,
    total: u64,
    overwritten: u64,
}

impl<T: Copy> Ring<T> {
    /// An empty ring that will hold `cap` entries; allocates nothing yet.
    pub const fn new(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap,
            start: 0,
            total: 0,
            overwritten: 0,
        }
    }

    /// Allocate the storage now. Returns `true` if this call allocated
    /// (callers that account warm-path allocations count it).
    pub fn reserve(&mut self) -> bool {
        let fresh = self.buf.capacity() == 0;
        if fresh {
            self.buf.reserve_exact(self.cap);
        }
        fresh
    }

    /// Append `v`, returning the entry it overwrote once the ring is full.
    pub fn push(&mut self, v: T) -> Option<T> {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.reserve();
            self.buf.push(v);
            return None;
        }
        let old = std::mem::replace(&mut self.buf[self.start], v);
        self.start = (self.start + 1) % self.cap;
        self.overwritten += 1;
        Some(old)
    }

    /// Entries oldest first (`.rev()` for newest first).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.start);
        older.iter().chain(newer)
    }

    /// Mutable entries, oldest first.
    pub fn iter_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut T> {
        let (newer, older) = self.buf.split_at_mut(self.start);
        older.iter_mut().chain(newer)
    }

    /// Remove every entry matching `pred`, handing each to `out` oldest
    /// first; the rest keep their order. Allocates nothing.
    pub fn drain_filter(&mut self, mut pred: impl FnMut(&T) -> bool, mut out: impl FnMut(T)) {
        self.buf.rotate_left(self.start);
        self.start = 0;
        self.buf.retain(|v| {
            let hit = pred(v);
            if hit {
                out(*v);
            }
            !hit
        });
    }

    /// Drop every entry and reset the counters; the storage stays.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.total = 0;
        self.overwritten = 0;
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no entry.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries ever pushed since the last [`clear`](Self::clear).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Entries lost to overwriting since the last [`clear`](Self::clear).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }
}
