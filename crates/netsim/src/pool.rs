//! Refcounted, pooled, copy-on-write packet frames.
//!
//! Every hop through the simulator used to clone the datagram: per link
//! arrival, per raw-socket inbox copy, per UDP payload delivery. At
//! simulated line rate those copies (and their allocations) dominated
//! the event loop. A [`Frame`] is now a reference-counted handle to a
//! pooled buffer: link transit, queueing, raw/UDP inbox delivery, and
//! capture all share one buffer by bumping a refcount, and the bytes are
//! copied only at mutation points — TTL decrement, NAT rewrite,
//! checksum fixup — and only when the buffer is actually shared
//! (copy-on-write via [`Frame::make_mut`]).
//!
//! A datagram the simulator originates — an ICMP reply or error, a UDP
//! datagram, a TCP segment — is built once, in place, in a frame from
//! [`BufPool::take`]; only bytes handed in from outside as a `Vec` (raw
//! and scheduled sends) come in through [`BufPool::ingest`]. A
//! cross-shard handoff moves the buffer itself from one shard's pool to
//! the other's (`Frame::hand_off`, `BufPool::receive`); only a
//! shared or sliced frame is copied on the way.
//!
//! Buffers recycle automatically: when the last `Frame` referencing a
//! buffer drops, the whole allocation (refcount box and `Vec`) returns
//! to the owning [`BufPool`]'s free list, wherever that drop happens —
//! inbox drains, queue teardown, node crashes. That makes the pool's
//! accounting a leak detector: at simulator teardown every taken buffer
//! has been dropped, so `taken == recycled` must hold exactly (asserted
//! across the chaos corpus in `crates/core/tests/pool_accounting.rs`).
//!
//! Frames are `Send`: buffers use `Arc`, the free list sits behind a
//! `Mutex`, and the statistics are relaxed atomics, so a whole `Sim`
//! (and its in-flight frames) can move onto a shard worker thread. Each
//! shard owns its own pool — the lock is uncontended in practice; the
//! hot-path `Frame::clone` costs one relaxed `fetch_add` and never takes
//! the lock.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Cap on retained buffers; beyond this, returned buffers are freed
/// (but still counted as recycled — the counter tracks end-of-life, not
/// free-list retention).
const MAX_FREE: usize = 1024;

/// Sentinel for "the frame spans its whole buffer" (the buffer length
/// may still change through [`Frame::make_mut`]).
const WHOLE: u32 = u32::MAX;

#[derive(Debug, Default)]
struct PoolShared {
    free: Mutex<Vec<Arc<Vec<u8>>>>,
    taken: AtomicU64,
    recycled: AtomicU64,
    borrowed: AtomicU64,
    cow_copies: AtomicU64,
    outstanding: AtomicU64,
    peak_outstanding: AtomicU64,
}

impl PoolShared {
    fn count_take(&self) {
        self.taken.fetch_add(1, Relaxed);
        let now = self.outstanding.fetch_add(1, Relaxed) + 1;
        self.peak_outstanding.fetch_max(now, Relaxed);
    }

    /// Pop a retired buffer (empty `Arc` if none retained).
    fn pop_free(&self) -> Arc<Vec<u8>> {
        self.free
            .lock()
            .expect("pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// A buffer left this pool's books: its last frame dropped, or it was
    /// handed to another pool.
    fn retire(&self) {
        self.recycled.fetch_add(1, Relaxed);
        self.outstanding.fetch_sub(1, Relaxed);
    }

    /// A buffer reached end-of-life (its last frame dropped).
    fn recycle(&self, rc: Arc<Vec<u8>>) {
        debug_assert_eq!(Arc::strong_count(&rc), 1);
        self.retire();
        if rc.capacity() > 0 {
            let mut free = self.free.lock().expect("pool lock");
            if free.len() < MAX_FREE {
                free.push(rc);
            }
        }
    }
}

/// A shared pool of packet buffers. Cloning the pool clones a handle to
/// the same free list and counters (used to read statistics after the
/// simulator — and thus every in-flight frame — has been dropped).
#[derive(Debug, Default, Clone)]
pub struct BufPool {
    inner: Arc<PoolShared>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// Take an empty (cleared, capacity-preserving) frame, reusing a
    /// retired buffer when available.
    pub fn take(&self) -> Frame {
        let mut frame = self.receive(self.inner.pop_free());
        frame.make_mut().clear();
        frame
    }

    /// Take a frame holding a copy of `bytes`.
    pub fn take_copy(&self, bytes: &[u8]) -> Frame {
        let mut frame = self.take();
        frame.make_mut().extend_from_slice(bytes);
        frame
    }

    /// Wrap an externally allocated buffer (a raw or scheduled send) as a
    /// pooled frame. The buffer joins the pool's accounting and is
    /// recycled into the free list at end-of-life like any other frame —
    /// `taken` is incremented so teardown symmetry (`taken == recycled`)
    /// holds.
    pub fn adopt(&self, buf: Vec<u8>) -> Frame {
        self.receive(Arc::new(buf))
    }

    /// Put a unique buffer on this pool's books as a whole frame, counted
    /// as a take and recycled here at end-of-life: a free-list buffer, an
    /// adopted `Vec`, or one another pool gave up with
    /// [`Frame::hand_off`] (a cross-shard handoff).
    pub(crate) fn receive(&self, rc: Arc<Vec<u8>>) -> Frame {
        self.inner.count_take();
        Frame {
            buf: Some(rc),
            pool: self.inner.clone(),
            off: 0,
            len: WHOLE,
        }
    }

    /// Bring an externally allocated buffer into the pool, preferring a
    /// recycled allocation. Small buffers are copied into a free-list
    /// frame (a ~64-byte memcpy is cheaper than the `Arc::new` +
    /// end-of-life `free` an [`BufPool::adopt`] costs per packet); large
    /// ones are adopted to avoid the copy. Datagrams the simulator builds
    /// itself (ICMP, UDP, TCP) never come through here: they are written
    /// in place into a frame from [`BufPool::take`].
    pub fn ingest(&self, buf: Vec<u8>) -> Frame {
        const COPY_CUTOFF: usize = 512;
        if buf.len() <= COPY_CUTOFF && !self.inner.free.lock().expect("pool lock").is_empty() {
            self.take_copy(&buf)
        } else {
            self.adopt(buf)
        }
    }

    /// Buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.inner.free.lock().expect("pool lock").len()
    }

    /// Total frame acquisitions (`take*`/`adopt`/copy-on-write copies).
    pub fn taken(&self) -> u64 {
        self.inner.taken.load(Relaxed)
    }

    /// Total buffers that reached end-of-life (matches [`Self::taken`]
    /// once every frame has been dropped).
    pub fn recycled(&self) -> u64 {
        self.inner.recycled.load(Relaxed)
    }

    /// Zero-copy frame clones (refcount bumps) since construction.
    pub fn borrowed(&self) -> u64 {
        self.inner.borrowed.load(Relaxed)
    }

    /// Copy-on-write copies: mutations that found the buffer shared (or
    /// sliced) and had to copy it first.
    pub fn cow_copies(&self) -> u64 {
        self.inner.cow_copies.load(Relaxed)
    }

    /// Buffers currently alive outside the free list.
    pub fn outstanding(&self) -> u64 {
        self.inner.outstanding.load(Relaxed)
    }

    /// High-water mark of [`Self::outstanding`] (peak pool residency).
    pub fn peak_outstanding(&self) -> u64 {
        self.inner.peak_outstanding.load(Relaxed)
    }
}

/// A reference-counted view of (a range of) a pooled packet buffer.
///
/// Dereferences to `&[u8]`. `Clone` is O(1) (refcount bump);
/// [`Frame::make_mut`] gives mutable access, copying the bytes first
/// only if the buffer is shared. Dropping the last frame for a buffer
/// returns the allocation to its pool.
pub struct Frame {
    /// Always `Some` until `Drop` (taken there to release the Arc).
    buf: Option<Arc<Vec<u8>>>,
    pool: Arc<PoolShared>,
    off: u32,
    /// Slice length, or [`WHOLE`] for "track the buffer's full length".
    len: u32,
}

impl Frame {
    fn rc(&self) -> &Arc<Vec<u8>> {
        self.buf.as_ref().expect("frame buffer live until drop")
    }

    /// A zero-copy sub-range view sharing this frame's buffer (used for
    /// UDP payload delivery: the inbox frame is a slice of the arriving
    /// datagram).
    pub fn slice(&self, off: usize, len: usize) -> Frame {
        let base = self.off as usize;
        assert!(off + len <= self.deref().len(), "slice out of range");
        assert!((len as u64) < WHOLE as u64, "slice too large");
        let mut f = self.clone();
        f.off = (base + off) as u32;
        f.len = len as u32;
        f
    }

    /// Mutable access to the underlying buffer, copying it first if it
    /// is shared with other frames (copy-on-write) or if this frame is a
    /// sub-range view. After the call the frame is a unique, whole view:
    /// callers may clear/rebuild the `Vec` freely.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        let shared = Arc::strong_count(self.rc()) > 1;
        if shared || self.len != WHOLE {
            self.pool.count_take();
            self.pool.cow_copies.fetch_add(1, Relaxed);
            let mut fresh = self.pool.pop_free();
            static COW: plab_obs::metrics::Counter =
                plab_obs::metrics::Counter::new("netsim.pool.cow_copies");
            COW.inc();
            {
                let v = Arc::get_mut(&mut fresh).expect("free-list buffers are unique");
                v.clear();
                v.extend_from_slice(self);
            }
            let old = self.buf.replace(fresh).expect("frame buffer live");
            release(&self.pool, old);
            self.off = 0;
            self.len = WHOLE;
        }
        Arc::get_mut(self.buf.as_mut().expect("frame buffer live"))
            .expect("unique after copy-on-write")
    }

    /// Give the buffer up for another pool to [`BufPool::receive`]. A
    /// unique, whole frame hands its allocation over, and this pool counts
    /// that as the buffer's end of life; a shared or sliced one hands over
    /// a copy of its bytes. Either way both pools keep `taken == recycled`.
    pub(crate) fn hand_off(mut self) -> Arc<Vec<u8>> {
        if self.len != WHOLE || Arc::strong_count(self.rc()) > 1 {
            return Arc::new(self.to_vec());
        }
        self.pool.retire();
        self.buf.take().expect("frame buffer live until drop")
    }

    /// Copy the frame's bytes into an owned `Vec` (for API boundaries
    /// that hand data to code outside the simulator's lifetime).
    pub fn to_vec(&self) -> Vec<u8> {
        self.deref().to_vec()
    }
}

/// End-of-life check shared by `Drop` and copy-on-write: if `rc` was the
/// last reference, return the buffer to the pool.
fn release(pool: &PoolShared, rc: Arc<Vec<u8>>) {
    if Arc::strong_count(&rc) == 1 {
        pool.recycle(rc);
    }
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        self.pool.borrowed.fetch_add(1, Relaxed);
        Frame {
            buf: self.buf.clone(),
            pool: self.pool.clone(),
            off: self.off,
            len: self.len,
        }
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if let Some(rc) = self.buf.take() {
            release(&self.pool, rc);
        }
    }
}

impl Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let buf = self.rc();
        if self.len == WHOLE {
            buf
        } else {
            &buf[self.off as usize..(self.off + self.len) as usize]
        }
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("len", &self.deref().len())
            .field("shared", &(Arc::strong_count(self.rc()) > 1))
            .field("bytes", &self.deref())
            .finish()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.deref() == other.deref()
    }
}

impl Eq for Frame {}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        self.deref() == other
    }
}

impl PartialEq<&[u8]> for Frame {
    fn eq(&self, other: &&[u8]) -> bool {
        self.deref() == *other
    }
}

impl PartialEq<Vec<u8>> for Frame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.deref() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Frame {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.deref() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Frame {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.deref() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_allocation() {
        let pool = BufPool::new();
        let mut a = pool.take();
        a.make_mut().extend_from_slice(&[1, 2, 3, 4]);
        let ptr = a.as_ptr();
        drop(a);
        assert_eq!(pool.available(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(b.as_ptr(), ptr, "same allocation reused");
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.taken(), 2);
    }

    #[test]
    fn take_copy_copies() {
        let pool = BufPool::new();
        let b = pool.take_copy(&[9, 8, 7]);
        assert_eq!(b, [9u8, 8, 7]);
    }

    #[test]
    fn clone_shares_until_mutation() {
        let pool = BufPool::new();
        let a = pool.take_copy(&[1, 2, 3]);
        let mut b = a.clone();
        assert_eq!(pool.borrowed(), 1);
        assert_eq!(a.as_ptr(), b.as_ptr(), "clone is zero-copy");
        assert_eq!(pool.cow_copies(), 0);
        b.make_mut()[0] = 99;
        assert_eq!(pool.cow_copies(), 1, "mutation of shared frame copies");
        assert_eq!(a, [1u8, 2, 3], "original unchanged");
        assert_eq!(b, [99u8, 2, 3]);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn unique_mutation_does_not_copy() {
        let pool = BufPool::new();
        let mut a = pool.take_copy(&[5, 6]);
        let ptr = a.as_ptr();
        a.make_mut()[0] = 7;
        assert_eq!(pool.cow_copies(), 0);
        assert_eq!(a.as_ptr(), ptr);
    }

    #[test]
    fn slices_share_and_keep_buffer_alive() {
        let pool = BufPool::new();
        let a = pool.take_copy(&[0, 1, 2, 3, 4, 5]);
        let s = a.slice(2, 3);
        assert_eq!(s, [2u8, 3, 4]);
        drop(a);
        assert_eq!(s, [2u8, 3, 4], "slice keeps the buffer alive");
        assert_eq!(pool.recycled(), 0);
        drop(s);
        assert_eq!(pool.recycled(), 1, "last reference recycles");
    }

    #[test]
    fn accounting_is_symmetric_at_teardown() {
        let pool = BufPool::new();
        {
            let a = pool.take_copy(&[1; 64]);
            let _b = a.clone();
            let _c = a.slice(0, 8);
            let mut d = a.clone();
            d.make_mut().push(0); // CoW: counts a take of its own
            let _e = pool.adopt(vec![7, 7, 7]);
        }
        assert_eq!(pool.taken(), pool.recycled(), "no buffer leaked");
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.peak_outstanding() >= 2);
    }

    #[test]
    fn adopt_joins_pool_accounting() {
        let pool = BufPool::new();
        let f = pool.adopt(vec![1, 2]);
        assert_eq!(pool.taken(), 1);
        drop(f);
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.available(), 1, "adopted allocation is retained");
    }

    #[test]
    fn zero_capacity_not_retained_but_counted() {
        let pool = BufPool::new();
        drop(pool.adopt(Vec::new()));
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.recycled(), 1, "end-of-life is counted regardless");
        assert_eq!(pool.taken(), pool.recycled());
    }

    #[test]
    fn mutating_a_slice_copies_only_the_range() {
        let pool = BufPool::new();
        let a = pool.take_copy(&[0, 1, 2, 3]);
        let mut s = a.slice(1, 2);
        s.make_mut().push(9);
        assert_eq!(s, [1u8, 2, 9]);
        assert_eq!(a, [0u8, 1, 2, 3]);
        assert_eq!(pool.cow_copies(), 1);
    }

    #[test]
    fn frames_and_pools_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Frame>();
        assert_send::<BufPool>();
    }
}
