//! Scratch-buffer pooling for the training hot path.
//!
//! Every HERO step costs three gradient evaluations, and the naive
//! implementation re-`vec![0.0; …]`-allocated every matmul and convolution
//! output, packed GEMM panel and gradient tensor on every one of them. [`ScratchPool`] is a free-list of `Vec<f32>` buffers that lets
//! those allocations be *leased* and *recycled* instead: after one warm-up
//! step the same buffers cycle through the graph forever and the pool
//! performs zero new heap allocations ([`PoolStats::fresh_allocs`] is the
//! proof — see `crates/optim/tests/pool_reuse.rs` and
//! `pool_steady_state.rs`).
//!
//! The free list is keyed by capacity, so a lease finds its best fit — the
//! smallest held capacity that needs no growth — in O(log k) over the `k`
//! distinct capacities held, however many buffers sit in the list. A best
//! fit more than `MAX_SLACK` times the need is passed over: a small
//! tensor that lives for the rest of the run (a worker replica's
//! parameter, say) would otherwise pin an activation
//! buffer many times its size, and the activation's next lease would
//! allocate afresh.
//!
//! A thread-local default pool backs the tensor kernels and the autodiff
//! graph so no `&mut pool` needs to be threaded through every op signature
//! (the same pattern the batch-norm running-stat switch uses). All
//! accounting is per-thread.
//!
//! # Examples
//!
//! ```
//! use hero_tensor::pool;
//!
//! pool::reset_stats();
//! let buf = pool::lease(1024);            // fresh allocation
//! pool::recycle(buf);
//! let again = pool::lease(1024);          // served from the free list
//! assert_eq!(pool::stats().fresh_allocs, 1);
//! assert_eq!(again.len(), 1024);
//! pool::recycle(again);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Upper bound on buffers the free list retains; recycles beyond this are
/// dropped so donated one-off buffers cannot grow the pool without bound.
pub const MAX_HELD: usize = 1024;

/// Upper bound on the bytes of capacity the free list retains; a recycle
/// that would pass it is dropped like one past [`MAX_HELD`]. Sized from
/// measured working sets: in the steady state of a batch-32 C10 HERO run
/// with evaluations the list holds at most 3.0 MB on ResNet, 9.8 MB on
/// MobileNet and 5.1 MB on VGG, and a batch-64 ResNet spectrum probe
/// holds 7.5 MB. Without the bound a process that runs several models in
/// turn keeps every one's working set (a Table 1 row held 13 MB).
const MAX_HELD_BYTES: usize = 12 << 20;

/// Largest ratio of a reused buffer's capacity to the capacity a lease
/// needs; a lease with no held buffer in that range allocates fresh. A
/// tighter bound settles more slowly: at 2, a lease that takes the next
/// size up leaves that size's own lease to allocate, and a short conv
/// net's steps kept allocating past their fourth step.
const MAX_SLACK: usize = 4;

/// Number of canary words placed past each lease's live region under the
/// `sanitize` feature.
#[cfg(feature = "sanitize")]
const CANARY_WORDS: usize = 4;

/// Bit pattern written into canary words at lease time.
#[cfg(feature = "sanitize")]
const CANARY: u32 = 0xCAFE_F00D;

/// Bit pattern every recycled buffer is filled with; a free-list buffer
/// whose contents deviate from it was written through a stale pointer.
#[cfg(feature = "sanitize")]
const POISON: u32 = 0xDEAD_BEEF;

/// Bookkeeping for one outstanding lease (sanitize builds only), keyed by
/// the buffer's base address.
#[cfg(feature = "sanitize")]
#[derive(Debug, Clone, Copy)]
struct LeaseRecord {
    /// Requested element count (the live region is `[0, len)`).
    len: usize,
    /// Capacity at lease time; a capacity change means the lessee grew the
    /// buffer, which relocates it and invalidates the canary region.
    cap: usize,
    /// Pool generation when the lease was issued.
    gen: u64,
}

/// One free-list entry.
#[derive(Debug)]
struct Held {
    buf: Vec<f32>,
    /// Pool generation when the buffer was recycled (sanitize builds only).
    #[cfg(feature = "sanitize")]
    gen: u64,
}

/// Counters describing a pool's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Leases that had to perform a fresh heap allocation (or grow a
    /// recycled buffer, which reallocates). Zero across a steady-state
    /// training step is the "O(1) allocations after warm-up" proof.
    pub fresh_allocs: usize,
    /// Total buffers handed out.
    pub leases: usize,
    /// Total buffers returned.
    pub recycles: usize,
    /// Buffers currently sitting in the free list.
    pub held: usize,
    /// Recycles rejected because they arrived from a thread other than the
    /// pool's owner (the buffer is dropped instead of pooled, so free lists
    /// can never exchange buffers across workers).
    pub foreign_recycles: usize,
}

/// A free-list recycler for `Vec<f32>` scratch buffers.
///
/// Capacity-class reuse is keyed to the thread that created the pool: a
/// pool only accepts recycles from its owner thread. A buffer returned
/// from any other thread — e.g. a gradient tensor produced by a shard
/// worker and dropped on the reducing thread after the pool moved — is
/// dropped to the allocator instead, so two threads' free lists can never
/// alias or exchange storage under the data-parallel executor.
#[derive(Debug)]
pub struct ScratchPool {
    /// Thread the pool was created on; the only thread recycles are
    /// accepted from.
    owner: std::thread::ThreadId,
    /// Held buffers by capacity. A bucket is removed when its last buffer
    /// is leased, so every key has at least one buffer.
    free: BTreeMap<usize, Vec<Held>>,
    /// Buffers across all buckets.
    held: usize,
    /// Bytes of capacity across all buckets.
    held_bytes: usize,
    fresh_allocs: usize,
    leases: usize,
    recycles: usize,
    foreign_recycles: usize,
    /// Monotonic recycle counter used to label sanitizer reports.
    #[cfg(feature = "sanitize")]
    generation: u64,
    /// Outstanding leases by base address. Entries for buffers that never
    /// return (e.g. leases that become long-lived tensor storage) are
    /// overwritten when the allocator reuses the address.
    #[cfg(feature = "sanitize")]
    outstanding: std::collections::HashMap<usize, LeaseRecord>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool {
            owner: std::thread::current().id(),
            free: BTreeMap::new(),
            held: 0,
            held_bytes: 0,
            fresh_allocs: 0,
            leases: 0,
            recycles: 0,
            foreign_recycles: 0,
            #[cfg(feature = "sanitize")]
            generation: 0,
            #[cfg(feature = "sanitize")]
            outstanding: std::collections::HashMap::new(),
        }
    }
}

impl ScratchPool {
    /// Creates an empty pool owned by the calling thread.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Leases a zeroed buffer of exactly `len` elements.
    ///
    /// Reuses the best-fitting free buffer when one holds `len` within
    /// `MAX_SLACK` times; otherwise counts a fresh allocation.
    pub fn lease(&mut self, len: usize) -> Vec<f32> {
        // Best fit: smallest capacity that can hold `len` without growing.
        let mut buf = self.lease_raw(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Leases a buffer holding a copy of `src` (like [`ScratchPool::lease`]
    /// but skips the intermediate zeroing).
    pub fn lease_copy(&mut self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.lease_raw(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Best-fit lookup shared by [`ScratchPool::lease`] and
    /// [`ScratchPool::lease_copy`]: returns an empty buffer with capacity
    /// for at least `len` elements.
    pub(crate) fn lease_raw(&mut self, len: usize) -> Vec<f32> {
        self.leases += 1;
        // Under sanitize every lease reserves room for trailing canaries.
        #[cfg(feature = "sanitize")]
        let need = len + CANARY_WORDS;
        #[cfg(not(feature = "sanitize"))]
        let need = len;
        #[allow(unused_mut)]
        let mut buf = match self.take_best_fit(need) {
            Some(held) => {
                hero_obs::counters::POOL_HITS.incr();
                let mut buf = held.buf;
                #[cfg(feature = "sanitize")]
                {
                    let gen = held.gen;
                    if let Some(pos) = buf.iter().position(|v| v.to_bits() != POISON) {
                        panic!(
                            "hero-tensor sanitize: use-after-recycle — free buffer {:p} \
                             (recycle generation {gen}) was written at element {pos} after \
                             being recycled (found {:#010x}, expected poison {POISON:#010x})",
                            buf.as_ptr(),
                            buf[pos].to_bits()
                        );
                    }
                }
                buf.clear();
                buf
            }
            None => {
                self.fresh_allocs += 1;
                hero_obs::counters::POOL_FRESH_ALLOCS.incr();
                Vec::with_capacity(need)
            }
        };
        #[cfg(feature = "sanitize")]
        self.arm_lease(&mut buf, len);
        buf
    }

    /// Removes and returns a held buffer of the smallest capacity in
    /// `need..=MAX_SLACK·need`, dropping its bucket when that empties it.
    fn take_best_fit(&mut self, need: usize) -> Option<Held> {
        let (&cap, bucket) = self
            .free
            .range_mut(need..=need.saturating_mul(MAX_SLACK))
            .next()?;
        let held = bucket.pop().expect("free-list buckets are never empty");
        if bucket.is_empty() {
            self.free.remove(&cap);
        }
        self.held -= 1;
        self.held_bytes -= bytes_of(cap);
        Some(held)
    }

    /// Writes canary words past the live region and records the lease
    /// (sanitize builds only).
    #[cfg(feature = "sanitize")]
    fn arm_lease(&mut self, buf: &mut Vec<f32>, len: usize) {
        buf.reserve(len + CANARY_WORDS); // no-op unless the buffer was donated small
        let spare = buf.spare_capacity_mut();
        for slot in &mut spare[len..len + CANARY_WORDS] {
            slot.write(f32::from_bits(CANARY));
        }
        self.generation += 1;
        self.outstanding.insert(
            buf.as_ptr() as usize,
            LeaseRecord {
                len,
                cap: buf.capacity(),
                gen: self.generation,
            },
        );
    }

    /// Validates a returning buffer and poisons its contents (sanitize
    /// builds only). Catches double-recycles (the address is already in the
    /// free list) and out-of-bounds writes (a canary word past the live
    /// region was overwritten). Buffers the pool never leased — donations
    /// from plain allocations — are poisoned but not checked.
    #[cfg(feature = "sanitize")]
    fn sanitize_recycle(&mut self, mut buf: Vec<f32>) -> Vec<f32> {
        let ptr = buf.as_ptr() as usize;
        if self
            .free
            .values()
            .flatten()
            .any(|h| h.buf.as_ptr() as usize == ptr)
        {
            panic!(
                "hero-tensor sanitize: double-recycle — buffer {ptr:#x} is already in the \
                 free list"
            );
        }
        if let Some(rec) = self.outstanding.remove(&ptr) {
            // A length or capacity change means the lessee resized the
            // buffer, relocating the canary region; skip the check then.
            if buf.len() == rec.len && buf.capacity() == rec.cap {
                let spare = buf.spare_capacity_mut();
                for (i, slot) in spare[..CANARY_WORDS].iter().enumerate() {
                    // Sound: arm_lease initialized these words and the
                    // capacity has not changed since.
                    let bits = unsafe { slot.assume_init() }.to_bits();
                    if bits != CANARY {
                        panic!(
                            "hero-tensor sanitize: out-of-bounds write — canary word {i} \
                             past the live region of buffer {ptr:#x} (lease generation {}, \
                             len {}) holds {bits:#010x}, expected {CANARY:#010x}",
                            rec.gen, rec.len
                        );
                    }
                }
            }
        }
        self.generation += 1;
        for v in buf.iter_mut() {
            *v = f32::from_bits(POISON);
        }
        buf
    }

    /// Returns a buffer to the free list (dropped if the pool is full —
    /// [`MAX_HELD`] buffers or `MAX_HELD_BYTES` — or the buffer has no
    /// capacity).
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if std::thread::current().id() != self.owner {
            // Cross-thread return: drop to the allocator so this pool's
            // free list never holds a buffer another thread's pool leased.
            self.foreign_recycles += 1;
            return;
        }
        #[cfg(feature = "sanitize")]
        let buf = self.sanitize_recycle(buf);
        self.recycles += 1;
        hero_obs::counters::POOL_RECYCLES.incr();
        let bytes = bytes_of(buf.capacity());
        if self.held < MAX_HELD && self.held_bytes + bytes <= MAX_HELD_BYTES {
            let held = Held {
                buf,
                #[cfg(feature = "sanitize")]
                gen: self.generation,
            };
            self.free.entry(held.buf.capacity()).or_default().push(held);
            self.held += 1;
            self.held_bytes += bytes;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh_allocs: self.fresh_allocs,
            leases: self.leases,
            recycles: self.recycles,
            held: self.held,
            foreign_recycles: self.foreign_recycles,
        }
    }

    /// Zeroes the counters (the free list is kept).
    pub fn reset_stats(&mut self) {
        self.fresh_allocs = 0;
        self.leases = 0;
        self.recycles = 0;
        self.foreign_recycles = 0;
    }

    /// Drops every held buffer and zeroes the counters.
    pub fn clear(&mut self) {
        self.free.clear();
        self.held = 0;
        self.held_bytes = 0;
        #[cfg(feature = "sanitize")]
        self.outstanding.clear();
        self.reset_stats();
    }
}

/// Bytes of a buffer with `cap` elements of capacity.
fn bytes_of(cap: usize) -> usize {
    cap * std::mem::size_of::<f32>()
}

thread_local! {
    static GLOBAL: RefCell<ScratchPool> = RefCell::new(ScratchPool::new());
    /// Cached id of this thread — `std::thread::current()` clones an `Arc`
    /// per call, which is too hot for per-tensor tagging.
    static TID: std::thread::ThreadId = std::thread::current().id();
}

/// The calling thread's id (cached; cheap enough for per-tensor use).
pub fn current_thread() -> std::thread::ThreadId {
    TID.with(|t| *t)
}

/// Runs `f` with exclusive access to this thread's default pool.
///
/// Keep the closure allocation-only: re-entering the pool from inside `f`
/// panics (`RefCell` double borrow).
pub fn with<R>(f: impl FnOnce(&mut ScratchPool) -> R) -> R {
    GLOBAL.with(|p| f(&mut p.borrow_mut()))
}

/// Leases a zeroed buffer from this thread's default pool.
pub fn lease(len: usize) -> Vec<f32> {
    with(|p| p.lease(len))
}

/// Leases a buffer holding a copy of `src` from this thread's default pool.
pub fn lease_copy(src: &[f32]) -> Vec<f32> {
    with(|p| p.lease_copy(src))
}

/// Leases an *empty* buffer with capacity for `len` elements — for ops that
/// fill the buffer by `extend`ing, skipping the zeroing pass of [`lease`].
pub(crate) fn lease_raw(len: usize) -> Vec<f32> {
    with(|p| p.lease_raw(len))
}

/// Recycles a buffer into this thread's default pool.
pub fn recycle(buf: Vec<f32>) {
    with(|p| p.recycle(buf));
}

/// Recycles a buffer whose storage originated on thread `home`. Pooled only
/// when `home` is the calling thread; otherwise the buffer is dropped to
/// the allocator and counted as a foreign recycle, so per-thread pools
/// never adopt another worker's storage.
pub fn recycle_from(home: std::thread::ThreadId, buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    with(|p| {
        if home == p.owner {
            p.recycle(buf);
        } else {
            p.foreign_recycles += 1;
        }
    });
}

/// Recycles a tensor's storage, keyed to the tensor's home thread.
pub fn recycle_tensor(t: crate::Tensor) {
    let home = t.home();
    recycle_from(home, t.into_vec());
}

/// Counters for this thread's default pool.
pub fn stats() -> PoolStats {
    with(|p| p.stats())
}

/// Zeroes this thread's default-pool counters (free list kept) — call at
/// the start of a measurement window.
pub fn reset_stats() {
    with(|p| p.reset_stats());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycle_round_trip_reuses_capacity() {
        let mut pool = ScratchPool::new();
        let a = pool.lease(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&v| v == 0.0));
        pool.recycle(a);
        let b = pool.lease(64); // smaller fits in the same buffer
        assert_eq!(b.len(), 64);
        let s = pool.stats();
        assert_eq!(s.fresh_allocs, 1);
        assert_eq!(s.leases, 2);
        assert_eq!(s.recycles, 1);
    }

    #[test]
    fn lease_zeroes_recycled_contents() {
        let mut pool = ScratchPool::new();
        let mut a = pool.lease(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        pool.recycle(a);
        let b = pool.lease(8);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn growing_counts_as_fresh_alloc() {
        let mut pool = ScratchPool::new();
        let a = pool.lease(10);
        pool.recycle(a);
        let _big = pool.lease(1000); // cannot be served without growing
        assert_eq!(pool.stats().fresh_allocs, 2);
    }

    #[test]
    fn best_fit_prefers_tightest_buffer() {
        let mut pool = ScratchPool::new();
        let big = pool.lease(1000);
        let small = pool.lease(10);
        pool.recycle(big);
        pool.recycle(small);
        let b = pool.lease(10);
        assert!(b.capacity() < 1000, "picked the oversized buffer");
        assert_eq!(pool.stats().fresh_allocs, 2);
    }

    /// Capacity a lease of `len` elements asks the free list for.
    fn need(len: usize) -> usize {
        #[cfg(feature = "sanitize")]
        return len + CANARY_WORDS;
        #[cfg(not(feature = "sanitize"))]
        len
    }

    /// A pool holding one donated buffer per capacity in `caps`.
    fn pool_holding(caps: &[usize]) -> ScratchPool {
        let mut pool = ScratchPool::new();
        for &cap in caps {
            pool.recycle(Vec::with_capacity(cap));
        }
        pool
    }

    #[test]
    fn best_fit_takes_smallest_sufficient_capacity_across_buckets() {
        let caps = [need(40), need(10), need(16), need(16), need(64)];
        let mut pool = pool_holding(&caps);
        assert_eq!(pool.free.len(), 4, "equal capacities share a bucket");
        // Between buckets: 12 fits in 16 (not 40 or 64).
        let a = pool.lease(12);
        assert_eq!(a.capacity(), need(16));
        // Exact hit, then the second buffer of the same bucket.
        let b = pool.lease(16);
        assert_eq!(b.capacity(), need(16));
        let c = pool.lease(20);
        assert_eq!(c.capacity(), need(40), "16-bucket was drained");
        let d = pool.lease(10);
        assert_eq!(d.capacity(), need(10));
        let e = pool.lease(65);
        assert_eq!(e.capacity(), need(65), "nothing fits: fresh allocation");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.held), (1, 1));
    }

    #[test]
    fn best_fit_passes_over_buffers_beyond_max_slack() {
        let far = MAX_SLACK * need(100) + 1;
        let mut pool = pool_holding(&[need(100), far]);
        let a = pool.lease(99);
        assert_eq!(a.capacity(), need(100));
        let b = pool.lease(100);
        assert_eq!(
            b.capacity(),
            need(100),
            "MAX_SLACK·need + 1 is past the bound"
        );
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.held), (1, 1));
        let c = pool.lease(need(100) + 1);
        assert_eq!(c.capacity(), far);
        assert_eq!(pool.stats().fresh_allocs, 1);
    }

    #[test]
    fn drained_buckets_are_removed() {
        let mut pool = pool_holding(&[need(8), need(8), need(32)]);
        assert_eq!(pool.free.len(), 2);
        let a = pool.lease(8);
        assert_eq!(pool.free.len(), 2, "the 8-bucket still holds one buffer");
        let b = pool.lease(8);
        assert_eq!(pool.free.len(), 1, "drained bucket kept");
        assert!(!pool.free.contains_key(&need(8)));
        pool.recycle(a);
        pool.recycle(b);
        assert_eq!(pool.free[&need(8)].len(), 2);
        let _ = pool.lease(32);
        assert_eq!(pool.free.keys().copied().collect::<Vec<_>>(), [need(8)]);
    }

    #[test]
    fn free_list_is_capped() {
        let mut pool = ScratchPool::new();
        for i in 0..(MAX_HELD + 10) {
            pool.recycle(vec![0.0; 4 + i % 7]);
        }
        let s = pool.stats();
        assert_eq!(s.held, MAX_HELD);
        assert_eq!(s.recycles, MAX_HELD + 10, "dropped recycles still count");
        let bucketed: usize = pool.free.values().map(Vec::len).sum();
        assert_eq!(bucketed, MAX_HELD);
        // A lease frees a slot, so the next recycle is held again.
        let a = pool.lease(4);
        assert_eq!(pool.stats().held, MAX_HELD - 1);
        pool.recycle(a);
        assert_eq!(pool.stats().held, MAX_HELD);
    }

    #[test]
    fn free_list_bytes_are_capped() {
        let quarter = MAX_HELD_BYTES / 4 / std::mem::size_of::<f32>();
        let mut pool = pool_holding(&[quarter; 5]);
        let s = pool.stats();
        assert_eq!((s.held, s.recycles), (4, 5), "the fifth quarter was kept");
        assert_eq!(pool.held_bytes, MAX_HELD_BYTES);
        let a = pool.lease(quarter - 4); // fits `quarter` under sanitize too
        assert_eq!(pool.held_bytes, MAX_HELD_BYTES - MAX_HELD_BYTES / 4);
        pool.recycle(vec![0.0; 1]); // fits beside three quarters
        pool.recycle(a); // one float over the cap: dropped
        assert_eq!(pool.stats().held, 4);
        pool.clear();
        assert_eq!(pool.held_bytes, 0);
    }

    #[test]
    fn zero_capacity_buffers_are_dropped() {
        let mut pool = ScratchPool::new();
        pool.recycle(Vec::new());
        assert_eq!(pool.stats().held, 0);
        assert_eq!(pool.stats().recycles, 0);
    }

    #[test]
    fn global_pool_round_trips() {
        reset_stats();
        let before = stats();
        let buf = lease(32);
        recycle(buf);
        let after = stats();
        assert_eq!(after.leases, before.leases + 1);
        assert_eq!(after.recycles, before.recycles + 1);
    }

    #[test]
    fn foreign_recycle_is_rejected() {
        // A pool created here but handed a buffer from another thread must
        // drop it rather than pool it: free lists are keyed per thread id.
        let mut pool = ScratchPool::new();
        let a = pool.lease(64);
        let a = std::thread::spawn(move || a).join().unwrap(); // round-trip, same Vec
        pool.recycle(a); // still the owner thread: accepted
        assert_eq!(pool.stats().held, 1);

        let mut pool = std::thread::spawn(ScratchPool::new).join().unwrap();
        pool.recycle(vec![0.0; 64]); // now a foreign thread holds the pool
        let s = pool.stats();
        assert_eq!(s.held, 0, "foreign buffer entered the free list");
        assert_eq!(s.recycles, 0);
        assert_eq!(s.foreign_recycles, 1);
    }

    #[test]
    fn two_thread_pools_never_exchange_buffers() {
        // Tensors leased from this thread's pool and dropped on a worker
        // must NOT enter the worker's free list: their storage is keyed to
        // the home thread and gets released to the allocator instead.
        with(|p| p.clear());
        let tensors: Vec<crate::Tensor> = (0..4).map(|_| crate::Tensor::zeros([128])).collect();

        std::thread::spawn(move || {
            with(|p| p.clear());
            drop(tensors); // foreign to the worker's thread-local pool
            let s = stats();
            assert_eq!(s.held, 0, "worker pool adopted a foreign buffer");
            assert_eq!(s.foreign_recycles, 4);
            // The worker's own lease/drop cycle still pools locally.
            drop(crate::Tensor::zeros([64]));
            assert_eq!(stats().held, 1, "worker's own recycle must be pooled");
        })
        .join()
        .unwrap();
        with(|p| p.clear());
    }

    #[test]
    fn clear_empties_everything() {
        let mut pool = ScratchPool::new();
        pool.recycle(vec![0.0; 8]);
        pool.clear();
        let s = pool.stats();
        assert_eq!(s, PoolStats::default());
    }
}

/// Defect-injection tests for the sanitizer: each simulates one of the
/// memory bugs the instrumentation exists to catch and asserts the pool
/// reports it.
#[cfg(all(test, feature = "sanitize"))]
mod sanitize_tests {
    use super::*;

    #[test]
    fn clean_round_trips_pass_the_sanitizer() {
        let mut pool = ScratchPool::new();
        for _ in 0..3 {
            let a = pool.lease(32);
            let b = pool.lease_copy(&[1.0, 2.0, 3.0]);
            pool.recycle(a);
            pool.recycle(b);
        }
        assert_eq!(pool.stats().fresh_allocs, 2);
    }

    #[test]
    #[should_panic(expected = "use-after-recycle")]
    fn stale_write_after_recycle_is_caught() {
        let mut pool = ScratchPool::new();
        let mut a = pool.lease(16);
        let stale = a.as_mut_ptr();
        pool.recycle(a);
        // Defect injection: a pointer kept across the recycle writes into
        // the buffer while it sits in the free list.
        unsafe { stale.write(1.0) };
        let _ = pool.lease(16);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds write")]
    fn canary_overwrite_is_caught() {
        let mut pool = ScratchPool::new();
        let mut a = pool.lease(8);
        // Defect injection: a kernel writing one element past the live
        // region (within capacity, so nothing else would ever notice).
        unsafe { a.as_mut_ptr().add(8).write(0.0) };
        pool.recycle(a);
    }

    #[test]
    #[should_panic(expected = "use-after-recycle")]
    fn stale_write_is_caught_among_many_buckets() {
        let mut pool = ScratchPool::new();
        for len in [4, 64, 9, 300] {
            pool.recycle(vec![0.0; len]);
        }
        let mut a = pool.lease(16);
        let stale = a.as_mut_ptr();
        pool.recycle(a);
        unsafe { stale.add(3).write(1.0) };
        let _ = pool.lease(16);
    }

    #[test]
    #[should_panic(expected = "double-recycle")]
    fn double_recycle_is_caught_in_any_bucket() {
        let pool: &'static mut ScratchPool = Box::leak(Box::default());
        for len in [4, 64, 9] {
            pool.recycle(vec![0.0; len]);
        }
        let a = pool.lease(20);
        let (ptr, len, cap) = (a.as_ptr() as *mut f32, a.len(), a.capacity());
        pool.recycle(a);
        let _ = pool.lease(2); // buckets change between the two recycles
        let dup = unsafe { Vec::from_raw_parts(ptr, len, cap) };
        pool.recycle(dup);
    }

    #[test]
    #[should_panic(expected = "double-recycle")]
    fn double_recycle_is_caught() {
        // Leaked so the aliased free-list entry is never dropped: the
        // duplicate handle is freed during unwind, and freeing it again
        // from the pool's destructor would abort the test process.
        let pool: &'static mut ScratchPool = Box::leak(Box::default());
        let a = pool.lease(8);
        let (ptr, len, cap) = (a.as_ptr() as *mut f32, a.len(), a.capacity());
        pool.recycle(a);
        // Defect injection: a second handle to the same allocation.
        let dup = unsafe { Vec::from_raw_parts(ptr, len, cap) };
        pool.recycle(dup);
    }
}
