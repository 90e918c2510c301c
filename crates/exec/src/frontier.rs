//! Shared frontier/worklist buffers for sparse, frontier-centric kernels.
//!
//! Level-synchronous kernels that scan *all* n vertices per round waste
//! work once the active set is small. The frontier-centric alternative
//! keeps the active set explicit: during a round every worker appends
//! discoveries to a thread-local [`LocalBuffer`], which publishes into the
//! shared [`FrontierBuffer`] by reserving a region with one `fetch_add`
//! and copying — the classic grow-local, publish-with-one-RMW queue. After
//! the round's barrier the buffer is a plain read-only array for the next
//! round.
//!
//! Entries are `u64` (vertex ids, edge ids — anything that fits a word)
//! stored in `AtomicU64` slots with `Relaxed` operations, so concurrent
//! publication is race-free by construction and the barrier supplies the
//! happens-before edge for readers, the same discipline every
//! concurrent-write target in this workspace follows.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// A shared append-only array of `u64` entries with a fixed capacity.
///
/// Writers publish disjoint regions reserved by a single `fetch_add` on
/// the length; readers consume the whole array after a synchronization
/// point. [`FrontierBuffer::clear`] recycles the buffer for the next round
/// and must also be separated from readers/writers by a barrier: clear it
/// in an elected window, preferably the `on_close` hook of
/// [`crate::WorkerCtx::converge_rounds`], which costs no extra rendezvous
/// (or [`crate::WorkerCtx::barrier_with`] outside a round loop).
#[derive(Debug)]
pub struct FrontierBuffer {
    slots: Box<[AtomicU64]>,
    len: CachePadded<AtomicUsize>,
}

impl FrontierBuffer {
    /// An empty buffer able to hold `capacity` entries.
    pub fn with_capacity(capacity: usize) -> FrontierBuffer {
        let mut v = Vec::with_capacity(capacity);
        v.resize_with(capacity, || AtomicU64::new(0));
        FrontierBuffer {
            slots: v.into_boxed_slice(),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Published entry count (authoritative after a synchronization
    /// point; advisory while publishers are active).
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed).min(self.capacity())
    }

    /// `true` if no entries are published.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries. Call only while no reader or publisher is active:
    /// from an elected window, such as the `on_close` hook of
    /// [`crate::WorkerCtx::converge_rounds`] or the closure of
    /// [`crate::WorkerCtx::barrier_with`].
    #[inline]
    pub fn clear(&self) {
        self.len.store(0, Ordering::Relaxed);
    }

    /// Publish `items` as one contiguous region; returns the region's
    /// starting index.
    ///
    /// # Panics
    /// Panics if the reservation would exceed the capacity.
    pub fn publish(&self, items: &[u64]) -> usize {
        if items.is_empty() {
            return self.len.load(Ordering::Relaxed);
        }
        let start = self.len.fetch_add(items.len(), Ordering::Relaxed);
        assert!(
            start + items.len() <= self.slots.len(),
            "frontier overflow: {} + {} > capacity {}",
            start,
            items.len(),
            self.slots.len()
        );
        for (i, &x) in items.iter().enumerate() {
            self.slots[start + i].store(x, Ordering::Relaxed);
        }
        start
    }

    /// The entry at `index` (`index < len()`).
    #[inline]
    pub fn get(&self, index: usize) -> u64 {
        self.slots[index].load(Ordering::Relaxed)
    }

    /// Iterate the published entries (call after a synchronization point).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Copy the published entries out (diagnostics/tests).
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

/// Default flush threshold for [`LocalBuffer`]: large enough to amortize
/// the `fetch_add`, small enough to stay in L1.
pub const LOCAL_BUFFER_FLUSH: usize = 1024;

/// A worker-private staging buffer feeding a [`FrontierBuffer`].
///
/// `push` is a plain `Vec` append; when the buffer reaches its flush
/// threshold it publishes to the shared buffer in one reservation. The
/// worker **must** call [`LocalBuffer::flush`] before the round's closing
/// barrier — unflushed entries are invisible to other workers.
#[derive(Debug)]
pub struct LocalBuffer {
    buf: Vec<u64>,
    threshold: usize,
}

impl LocalBuffer {
    /// An empty buffer with the default flush threshold.
    pub fn new() -> LocalBuffer {
        LocalBuffer::with_threshold(LOCAL_BUFFER_FLUSH)
    }

    /// An empty buffer flushing at `threshold` entries.
    pub fn with_threshold(threshold: usize) -> LocalBuffer {
        let threshold = threshold.max(1);
        LocalBuffer {
            buf: Vec::with_capacity(threshold),
            threshold,
        }
    }

    /// Entries staged locally (not yet published).
    #[inline]
    pub fn staged(&self) -> usize {
        self.buf.len()
    }

    /// Stage `value`, publishing to `target` if the threshold is reached.
    #[inline]
    pub fn push(&mut self, value: u64, target: &FrontierBuffer) {
        self.push_with(value, target, |_| {});
    }

    /// [`LocalBuffer::push`], handing any batch it publishes to
    /// `on_publish` first: a per-entry tally (say, the out-degrees of a
    /// new frontier) then runs once per batch, off the caller's hot path.
    #[inline]
    pub fn push_with(
        &mut self,
        value: u64,
        target: &FrontierBuffer,
        on_publish: impl FnMut(&[u64]),
    ) {
        self.buf.push(value);
        if self.buf.len() >= self.threshold {
            self.flush_with(target, on_publish);
        }
    }

    /// Publish everything staged to `target`.
    pub fn flush(&mut self, target: &FrontierBuffer) {
        self.flush_with(target, |_| {});
    }

    /// [`LocalBuffer::flush`], handing the batch to `on_publish` first
    /// (see [`LocalBuffer::push_with`]).
    pub fn flush_with(&mut self, target: &FrontierBuffer, mut on_publish: impl FnMut(&[u64])) {
        if !self.buf.is_empty() {
            on_publish(&self.buf);
            target.publish(&self.buf);
            self.buf.clear();
        }
    }
}

impl Default for LocalBuffer {
    fn default() -> LocalBuffer {
        LocalBuffer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reserves_disjoint_regions() {
        let fb = FrontierBuffer::with_capacity(100);
        let a = fb.publish(&[1, 2, 3]);
        let b = fb.publish(&[4, 5]);
        assert_ne!(a, b);
        assert_eq!(fb.len(), 5);
        let mut all = fb.to_vec();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
        fb.clear();
        assert!(fb.is_empty());
    }

    #[test]
    fn concurrent_publication_loses_nothing() {
        let fb = FrontierBuffer::with_capacity(8 * 1000);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let fb = &fb;
                s.spawn(move || {
                    let mut local = LocalBuffer::with_threshold(13);
                    for i in 0..1000u64 {
                        local.push(t * 1000 + i, fb);
                    }
                    local.flush(fb);
                });
            }
        });
        let mut all = fb.to_vec();
        assert_eq!(all.len(), 8000);
        all.sort_unstable();
        for (i, &x) in all.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn empty_publish_is_a_noop() {
        let fb = FrontierBuffer::with_capacity(4);
        fb.publish(&[]);
        assert_eq!(fb.len(), 0);
    }

    #[test]
    #[should_panic(expected = "frontier overflow")]
    fn overflow_is_detected() {
        let fb = FrontierBuffer::with_capacity(2);
        fb.publish(&[1, 2, 3]);
    }

    #[test]
    fn publish_hooks_see_every_batch_once() {
        let fb = FrontierBuffer::with_capacity(10);
        let mut local = LocalBuffer::with_threshold(3);
        let mut seen = Vec::new();
        for v in 1..=7 {
            local.push_with(v, &fb, |batch| seen.push(batch.to_vec()));
        }
        local.flush_with(&fb, |batch| seen.push(batch.to_vec()));
        local.flush_with(&fb, |_| unreachable!("nothing staged"));
        assert_eq!(seen, vec![vec![1, 2, 3], vec![4, 5, 6], vec![7]]);
        assert_eq!(fb.to_vec(), (1..=7).collect::<Vec<_>>());
    }

    #[test]
    fn local_buffer_flushes_at_threshold() {
        let fb = FrontierBuffer::with_capacity(10);
        let mut local = LocalBuffer::with_threshold(3);
        local.push(1, &fb);
        local.push(2, &fb);
        assert_eq!(fb.len(), 0);
        assert_eq!(local.staged(), 2);
        local.push(3, &fb); // hits threshold
        assert_eq!(fb.len(), 3);
        assert_eq!(local.staged(), 0);
    }
}
