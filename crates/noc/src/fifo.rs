//! FIFO primitives: the growable ring buffer behind each router's local
//! injection queue and the asynchronous clock-domain-crossing FIFO under
//! every inter-chiplet link.
//!
//! The forwarded clock arrives at each tile with accumulated phase delay
//! and jitter; the paper's footnote 3 notes this is harmless because
//! "our inter-chiplet communication uses asynchronous FIFOs" (ref.\ 12). This
//! module models that crossing the way the hardware does it: a dual-clock
//! FIFO whose read and write pointers cross domains as **Gray codes**, so
//! a pointer sampled mid-transition is off by at most one position and
//! full/empty decisions err only on the safe side.
//!
//! The simulation drives the two ports from independently-phased clocks,
//! so the tests genuinely exercise torn pointer samplings.

use std::collections::VecDeque;
use std::fmt;

/// A growable ring buffer of [`PacketArena`](crate::arena::PacketArena)
/// slot indices — the storage behind each router's *local injection*
/// FIFO in the fabric.
///
/// The steady-state operations (`push` within capacity, `pop`, `front`,
/// `iter`) never allocate: the backing array is a single boxed slice and
/// the head/length pair wraps around it. A push beyond capacity grows the
/// buffer by doubling (amortised). The local FIFO needs that:
/// `Fabric::inject_unbounded` models response traffic buffered in the
/// tile's local memory, so that queue has no hard cap. Link FIFOs are
/// bounded by the tick's backpressure check, so the fabric stores them
/// inline in one flat array per network instead.
///
/// Entries default to `u32` arena indices rather than packets, so a
/// queue operation copies a small value instead of a ~48-byte packet
/// struct. (The fabric itself instantiates `PacketRing<RingEntry>`, a
/// packed `u128` carrying the slot index, cached output port,
/// current-leg target/network, and hop count in one entry.)
///
/// # Examples
///
/// ```
/// use wsp_noc::fifo::PacketRing;
///
/// let mut ring = PacketRing::with_capacity(2);
/// ring.push(7);
/// ring.push(8);
/// assert_eq!(ring.front(), Some(7));
/// assert_eq!(ring.pop(), Some(7));
/// ring.push(9); // wraps around the 2-slot buffer without growing
/// assert_eq!(ring.capacity(), 2);
/// assert_eq!(ring.iter().collect::<Vec<_>>(), vec![8, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct PacketRing<T = u32> {
    buf: Box<[T]>,
    head: u32,
    len: u32,
}

impl<T: Copy + Default> PacketRing<T> {
    /// An empty ring holding up to `capacity` indices before growing
    /// (`capacity` is clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PacketRing {
            buf: vec![T::default(); capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Entries currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the ring holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots available before the next `push` reallocates.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Appends `idx` at the tail, doubling the backing buffer when full.
    #[inline]
    pub fn push(&mut self, idx: T) {
        if self.len as usize == self.buf.len() {
            self.grow();
        }
        let cap = self.buf.len() as u32;
        let mut pos = self.head + self.len;
        if pos >= cap {
            pos -= cap;
        }
        self.buf[pos as usize] = idx;
        self.len += 1;
    }

    /// Removes and returns the head entry.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let idx = self.buf[self.head as usize];
        self.head += 1;
        if self.head as usize == self.buf.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(idx)
    }

    /// The head entry without removing it.
    #[inline]
    pub fn front(&self) -> Option<T> {
        (self.len > 0).then(|| self.buf[self.head as usize])
    }

    /// Iterates the queued indices head-to-tail without consuming them.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let cap = self.buf.len() as u32;
        (0..self.len).map(move |i| {
            let mut pos = self.head + i;
            if pos >= cap {
                pos -= cap;
            }
            self.buf[pos as usize]
        })
    }

    /// Doubles the backing buffer, linearising the live entries so the
    /// new layout starts at index 0.
    #[cold]
    fn grow(&mut self) {
        let mut next = vec![T::default(); self.buf.len() * 2].into_boxed_slice();
        for (slot, idx) in next.iter_mut().zip(self.iter()) {
            *slot = idx;
        }
        self.buf = next;
        self.head = 0;
    }
}

/// Converts a binary counter value to its Gray code.
#[inline]
pub fn to_gray(n: u32) -> u32 {
    n ^ (n >> 1)
}

/// Converts a Gray code back to the binary counter value.
#[inline]
pub fn from_gray(g: u32) -> u32 {
    let mut n = g;
    n ^= n >> 16;
    n ^= n >> 8;
    n ^= n >> 4;
    n ^= n >> 2;
    n ^= n >> 1;
    n
}

/// A dual-clock FIFO with Gray-coded pointer synchronisation.
///
/// `DEPTH` must be a power of two. The writer side calls
/// [`AsyncFifo::push`] on write-clock edges; the reader side calls
/// [`AsyncFifo::pop`] on read-clock edges. Each side sees the *other*
/// side's pointer only through a two-flop synchroniser, modelled as a
/// one-sample delay of the Gray-coded pointer.
///
/// # Examples
///
/// ```
/// use wsp_noc::fifo::AsyncFifo;
///
/// let mut fifo: AsyncFifo<u32, 8> = AsyncFifo::new();
/// assert!(fifo.push(7));
/// fifo.sync_pointers();
/// assert_eq!(fifo.pop(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct AsyncFifo<T, const DEPTH: usize> {
    slots: Vec<Option<T>>,
    /// Write pointer (binary, free-running).
    wptr: u32,
    /// Read pointer (binary, free-running).
    rptr: u32,
    /// Write pointer as seen by the read domain (Gray, delayed).
    wptr_gray_at_reader: u32,
    /// Read pointer as seen by the write domain (Gray, delayed).
    rptr_gray_at_writer: u32,
    /// In-flight synchroniser stages (one-deep: two-flop synchroniser at
    /// the granularity of port operations).
    sync_queue_w2r: VecDeque<u32>,
    sync_queue_r2w: VecDeque<u32>,
}

impl<T, const DEPTH: usize> AsyncFifo<T, DEPTH> {
    /// Creates an empty FIFO.
    ///
    /// # Panics
    ///
    /// Panics unless `DEPTH` is a power of two of at least 2 (the Gray
    /// pointer scheme requires it).
    pub fn new() -> Self {
        assert!(
            DEPTH.is_power_of_two() && DEPTH >= 2,
            "AsyncFifo DEPTH must be a power of two and at least 2 \
             (Gray-coded pointers wrap modulo 2*DEPTH), got {DEPTH}"
        );
        AsyncFifo {
            slots: (0..DEPTH).map(|_| None).collect(),
            wptr: 0,
            rptr: 0,
            wptr_gray_at_reader: 0,
            rptr_gray_at_writer: 0,
            sync_queue_w2r: VecDeque::new(),
            sync_queue_r2w: VecDeque::new(),
        }
    }

    /// Entries currently committed and visible to an omniscient observer
    /// (for test oracles; hardware never sees this).
    pub fn occupancy(&self) -> usize {
        self.wptr.wrapping_sub(self.rptr) as usize
    }

    /// True emptiness, from the omniscient occupancy — the predicate an
    /// activity scheduler wants ("is there work queued *at all*?"),
    /// distinct from [`AsyncFifo::reader_sees_empty`], which can lag a
    /// push by the Gray-pointer synchroniser delay and report empty
    /// while an entry is already committed.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Whether the *writer* believes the FIFO is full. Because the read
    /// pointer it compares against is delayed, this can be conservatively
    /// true (never falsely empty space).
    pub fn writer_sees_full(&self) -> bool {
        let rptr_binary = from_gray(self.rptr_gray_at_writer);
        self.wptr.wrapping_sub(rptr_binary) as usize >= DEPTH
    }

    /// Whether the *reader* believes the FIFO is empty. Conservative in
    /// the same way: may report empty although a push just landed.
    pub fn reader_sees_empty(&self) -> bool {
        to_gray(self.rptr) == self.wptr_gray_at_reader
    }

    /// Write-port operation: pushes `value` if the writer-visible state
    /// is not full. Returns whether the push happened.
    pub fn push(&mut self, value: T) -> bool {
        if self.writer_sees_full() {
            return false;
        }
        let idx = (self.wptr as usize) % DEPTH;
        debug_assert!(self.slots[idx].is_none(), "overwrite of live slot");
        self.slots[idx] = Some(value);
        self.wptr = self.wptr.wrapping_add(1);
        self.sync_queue_w2r.push_back(to_gray(self.wptr));
        true
    }

    /// Read-port operation: pops the oldest entry if the reader-visible
    /// state is not empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.reader_sees_empty() {
            return None;
        }
        let idx = (self.rptr as usize) % DEPTH;
        let value = self.slots[idx].take();
        debug_assert!(value.is_some(), "pop of empty slot");
        self.rptr = self.rptr.wrapping_add(1);
        self.sync_queue_r2w.push_back(to_gray(self.rptr));
        value
    }

    /// Advances the two-flop pointer synchronisers by one stage — call
    /// this once per "clock tick" of whichever domain is being modelled.
    /// Pointers published by `push`/`pop` become visible to the other
    /// side only after passing through here.
    pub fn sync_pointers(&mut self) {
        if let Some(g) = self.sync_queue_w2r.pop_front() {
            self.wptr_gray_at_reader = g;
        }
        if let Some(g) = self.sync_queue_r2w.pop_front() {
            self.rptr_gray_at_writer = g;
        }
    }
}

impl<T, const DEPTH: usize> Default for AsyncFifo<T, DEPTH> {
    fn default() -> Self {
        AsyncFifo::new()
    }
}

impl<T, const DEPTH: usize> fmt::Display for AsyncFifo<T, DEPTH> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "async FIFO depth {DEPTH}, occupancy {}",
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt as _;
    use wsp_common::seeded_rng;

    #[test]
    fn packet_ring_wraps_around_at_capacity_without_growing() {
        let mut ring = PacketRing::with_capacity(4);
        // Fill, then interleave pops and pushes so head/tail lap the
        // buffer several times; capacity must never change and order must
        // hold through every wrap.
        for v in 0..4 {
            ring.push(v);
        }
        assert_eq!(ring.len(), 4);
        for lap in 0..10u32 {
            for step in 0..4u32 {
                let expect = lap * 4 + step;
                assert_eq!(ring.front(), Some(expect));
                assert_eq!(ring.pop(), Some(expect));
                ring.push(expect + 4);
            }
            assert_eq!(ring.capacity(), 4, "bounded use must not grow");
        }
        let queued: Vec<u32> = ring.iter().collect();
        assert_eq!(queued, vec![40, 41, 42, 43]);
    }

    #[test]
    fn packet_ring_grows_preserving_order_when_overfilled() {
        let mut ring = PacketRing::with_capacity(2);
        // Offset the head first so growth happens mid-wrap.
        ring.push(100);
        ring.push(101);
        assert_eq!(ring.pop(), Some(100));
        for v in 102..110 {
            ring.push(v);
        }
        assert!(ring.capacity() >= 9);
        let drained: Vec<u32> = std::iter::from_fn(|| ring.pop()).collect();
        assert_eq!(drained, (101..110).collect::<Vec<_>>());
        assert!(ring.is_empty());
        assert_eq!(ring.pop(), None);
        assert_eq!(ring.front(), None);
    }

    #[test]
    fn packet_ring_drains_to_empty_and_reuses_slots() {
        let mut ring = PacketRing::with_capacity(3);
        for round in 0..50u32 {
            ring.push(round);
            ring.push(round + 1);
            assert_eq!(ring.pop(), Some(round));
            assert_eq!(ring.pop(), Some(round + 1));
            assert!(ring.is_empty());
        }
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn packet_ring_zero_capacity_is_clamped_to_one() {
        let mut ring = PacketRing::with_capacity(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(5);
        ring.push(6); // grows rather than corrupting
        assert_eq!(ring.pop(), Some(5));
        assert_eq!(ring.pop(), Some(6));
    }

    #[test]
    fn gray_code_round_trips() {
        for n in 0..4096u32 {
            assert_eq!(from_gray(to_gray(n)), n);
        }
    }

    #[test]
    fn gray_code_changes_one_bit_per_increment() {
        for n in 0..4096u32 {
            let diff = to_gray(n) ^ to_gray(n + 1);
            assert_eq!(diff.count_ones(), 1, "n={n}");
        }
    }

    #[test]
    fn simple_fifo_order() {
        let mut fifo: AsyncFifo<u32, 4> = AsyncFifo::new();
        for v in 0..4 {
            assert!(fifo.push(v));
            fifo.sync_pointers();
        }
        // Writer now sees full (4 entries, depth 4).
        assert!(fifo.writer_sees_full());
        for v in 0..4 {
            fifo.sync_pointers();
            assert_eq!(fifo.pop(), Some(v));
        }
        fifo.sync_pointers();
        assert!(fifo.reader_sees_empty());
    }

    #[test]
    fn flags_err_only_on_the_safe_side() {
        let mut fifo: AsyncFifo<u8, 4> = AsyncFifo::new();
        assert!(fifo.push(1));
        // The reader has NOT seen the pointer yet: empty is reported
        // conservatively even though data exists.
        assert!(fifo.reader_sees_empty());
        assert_eq!(fifo.pop(), None);
        fifo.sync_pointers();
        assert!(!fifo.reader_sees_empty());
        assert_eq!(fifo.pop(), Some(1));
    }

    #[test]
    fn is_empty_tracks_occupancy_not_the_synchronised_view() {
        let mut fifo: AsyncFifo<u8, 4> = AsyncFifo::new();
        assert!(fifo.is_empty());
        assert!(fifo.push(9));
        // The entry is committed immediately, so the omniscient predicate
        // flips at once — while the reader's CDC-delayed view still says
        // empty until the Gray pointer crosses.
        assert!(!fifo.is_empty());
        assert!(fifo.reader_sees_empty());
        fifo.sync_pointers();
        assert!(!fifo.reader_sees_empty());
        assert_eq!(fifo.pop(), Some(9));
        assert!(fifo.is_empty());
    }

    #[test]
    fn never_overflows_and_never_loses_data_across_domains() {
        // Torture: writer and reader tick at unrelated rates; every value
        // pushed must come out exactly once, in order.
        let mut rng = seeded_rng(99);
        for _ in 0..50 {
            let mut fifo: AsyncFifo<u32, 8> = AsyncFifo::new();
            let mut next_write = 0u32;
            let mut next_read = 0u32;
            let total = 500u32;
            while next_read < total {
                // Random interleave of domain activity.
                if rng.random_bool(0.55) && next_write < total && fifo.push(next_write) {
                    next_write += 1;
                }
                if rng.random_bool(0.5) {
                    if let Some(v) = fifo.pop() {
                        assert_eq!(v, next_read, "out-of-order data");
                        next_read += 1;
                    }
                }
                fifo.sync_pointers();
                assert!(fifo.occupancy() <= 8, "overflow");
            }
        }
    }

    #[test]
    fn pointer_wraparound_is_handled() {
        // Push/pop far more than the pointer width of one lap.
        let mut fifo: AsyncFifo<u32, 2> = AsyncFifo::new();
        for v in 0..1000u32 {
            while !fifo.push(v) {
                fifo.sync_pointers();
            }
            fifo.sync_pointers();
            loop {
                fifo.sync_pointers();
                if let Some(got) = fifo.pop() {
                    assert_eq!(got, v);
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_depth_rejected() {
        let _: AsyncFifo<u8, 3> = AsyncFifo::new();
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn depth_one_rejected_despite_being_a_power_of_two() {
        // 1 passes `is_power_of_two`, so the message must call out the
        // minimum-depth rule rather than blame the power-of-two one.
        let _: AsyncFifo<u8, 1> = AsyncFifo::new();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn depth_zero_rejected() {
        let _: AsyncFifo<u8, 0> = AsyncFifo::new();
    }

    #[test]
    fn minimal_depth_two_fifo_works_end_to_end() {
        // The smallest legal FIFO still round-trips data in order with
        // the full synchroniser delay in play.
        let mut fifo: AsyncFifo<u8, 2> = AsyncFifo::new();
        assert!(fifo.push(1));
        assert!(fifo.push(2));
        assert!(fifo.writer_sees_full());
        assert!(!fifo.push(3));
        fifo.sync_pointers();
        fifo.sync_pointers();
        assert_eq!(fifo.pop(), Some(1));
        assert_eq!(fifo.pop(), Some(2));
        assert_eq!(fifo.pop(), None);
    }

    #[test]
    fn display_reports_occupancy() {
        let mut fifo: AsyncFifo<u8, 4> = AsyncFifo::new();
        fifo.push(1);
        assert_eq!(fifo.to_string(), "async FIFO depth 4, occupancy 1");
    }
}
