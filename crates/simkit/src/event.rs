//! Time-ordered event queue.
//!
//! [`EventQueue`] is the heart of the discrete-event simulator: a
//! slab-backed 4-ary min-heap keyed by `(time, sequence)` so that events
//! scheduled for the same instant pop in insertion order, which keeps
//! simulations deterministic.
//!
//! The layout is allocation-friendly for multi-million-event replays: the
//! heap array holds only small `(time, seq, slot)` keys, payloads live in a
//! [`Slab`] that recycles freed slots, and both grow amortized — a
//! simulation that preallocates via [`EventQueue::with_capacity`] never
//! reallocates once it reaches its steady-state in-flight event count. The
//! 4-ary shape halves the sift-down depth of a binary heap and keeps the
//! hot path in one cache line per level.
//!
//! A long pre-known stream of events (a trace's arrivals) need not sit in
//! the heap all at once to keep its place in the FIFO order: the stream
//! takes one sequence number with [`EventQueue::reserve_seq`] where it
//! would have been pushed, and then keeps a single pending element in the
//! queue under that number ([`EventQueue::push_at`]), pushing the next one
//! when the pending one pops. The pop order is the one pushing the whole
//! stream up front gives, and the heap holds one entry per stream.

use crate::slab::{Slab, Slot};
use crate::time::SimTime;

/// Heap fan-out. Four children per node: shallower sifts than a binary
/// heap, and a node's children share a cache line.
const ARITY: usize = 4;

/// One heap entry: the ordering key plus the payload's slot.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: Slot,
}

impl Key {
    /// The total order popped: earliest time first, FIFO within a time.
    #[inline]
    fn rank(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic time-ordered event queue.
///
/// Events with equal timestamps are delivered in the order they were pushed
/// (FIFO tie-breaking), which makes whole-simulation replays bit-identical.
///
/// # Examples
///
/// ```
/// use diffserve_simkit::event::EventQueue;
/// use diffserve_simkit::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// 4-ary min-heap over [`Key::rank`]; payloads live in `events`.
    heap: Vec<Key>,
    /// The pending events, each named by its key's slot.
    events: Slab<E>,
    seq: u64,
    /// Debug builds only: every reserved sequence number and whether an
    /// entry pushed under it is pending.
    #[cfg(debug_assertions)]
    reserved: Vec<(u64, bool)>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            events: Slab::new(),
            seq: 0,
            #[cfg(debug_assertions)]
            reserved: Vec::new(),
        }
    }

    /// Creates an empty queue with space for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            events: Slab::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Schedules `event` to fire at `time`, after everything already
    /// scheduled for that instant.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(time, seq, event);
    }

    /// Takes the next sequence number out of the FIFO order without
    /// scheduling anything: the place in line of a stream of events that
    /// will be fed through [`EventQueue::push_at`] one at a time.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        #[cfg(debug_assertions)]
        self.reserved.push((seq, false));
        seq
    }

    /// Schedules `event` to fire at `time` under the reserved sequence
    /// number `seq`: among events of that instant it pops after those
    /// pushed before `seq` was reserved and before those pushed since.
    ///
    /// A stream whose times never decrease, which pushes its next element
    /// when the pending one pops, is popped exactly as if every element had
    /// been [`push`](EventQueue::push)ed where `seq` was reserved. At most
    /// one entry per reserved number may be pending; debug builds assert
    /// that, and that `seq` came from [`EventQueue::reserve_seq`].
    pub fn push_at(&mut self, time: SimTime, seq: u64, event: E) {
        #[cfg(debug_assertions)]
        {
            let pending = self.reserved.iter_mut().find(|(s, _)| *s == seq);
            let pending = pending.expect("push_at needs a sequence number from reserve_seq");
            assert!(
                !pending.1,
                "reserved sequence number {seq} is already pending"
            );
            pending.1 = true;
        }
        self.insert(time, seq, event);
    }

    fn insert(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = self.events.insert(event);
        self.heap.push(Key { time, seq, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let key = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        let event = self.events.remove(key.slot);
        #[cfg(debug_assertions)]
        if let Some(pending) = self.reserved.iter_mut().find(|(s, _)| *s == key.seq) {
            pending.1 = false;
        }
        Some((key.time, event))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most events that were ever pending at once: the payload arena's
    /// [`Slab::high_water`].
    pub fn high_water(&self) -> usize {
        self.events.high_water()
    }

    /// Restores the heap property upward from `i` after a push.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[i].rank() < self.heap[parent].rank() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restores the heap property downward from `i` after a pop.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let first_child = ARITY * i + 1;
            if first_child >= n {
                break;
            }
            let mut min = i;
            for c in first_child..(first_child + ARITY).min(n) {
                if self.heap[c].rank() < self.heap[min].rank() {
                    min = c;
                }
            }
            if min == i {
                break;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(7));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        // The queue stays usable (and ordered) once drained.
        q.push(SimTime::from_secs(2), 2);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn slab_slots_are_recycled() {
        // A steady-state workload (push one, pop one) must not grow the
        // arena past its high-water mark of in-flight events.
        let mut q = EventQueue::with_capacity(4);
        for i in 0..4u64 {
            q.push(SimTime::from_micros(i), i);
        }
        for i in 4..10_000u64 {
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, i - 4);
            q.push(SimTime::from_micros(i), i);
        }
        assert_eq!(q.high_water(), 4);
        assert_eq!(q.events.len(), 4);
        assert!(q.events.capacity() >= 4);
    }

    #[test]
    fn preallocated_capacity_is_respected() {
        let q: EventQueue<u32> = EventQueue::with_capacity(1024);
        assert!(q.heap.capacity() >= 1024);
        assert!(q.events.capacity() >= 1024);
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_is_the_peak_pending_count() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.push(SimTime::from_micros(i), i);
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_micros(9), 9);
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_water(), 5);
    }

    #[test]
    fn a_reserved_seq_keeps_its_place_among_equal_times() {
        let t = SimTime::from_secs(1);
        let mut q = EventQueue::new();
        q.push(t, "before");
        let seq = q.reserve_seq();
        q.push(t, "after");
        q.push_at(t, seq, "stream 0");
        assert_eq!(q.pop().unwrap().1, "before");
        assert_eq!(q.pop().unwrap().1, "stream 0");
        // The next element of the stream, same instant, still precedes
        // what was pushed after the reservation.
        q.push_at(t, seq, "stream 1");
        assert_eq!(q.pop().unwrap().1, "stream 1");
        assert_eq!(q.pop().unwrap().1, "after");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "from reserve_seq")]
    fn push_at_rejects_an_unreserved_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push_at(SimTime::ZERO, 0, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already pending")]
    fn push_at_rejects_a_second_pending_entry() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push_at(SimTime::ZERO, seq, 0);
        q.push_at(SimTime::ZERO, seq, 1);
    }

    /// What a queue under test holds: an ordinary event, or element `k` of
    /// stream `s`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Other(usize),
        Stream(usize, usize),
    }

    proptest! {
        /// The crux of the streaming replay's bit-identity: a stream fed
        /// one element at a time under a reserved sequence number pops
        /// exactly where pushing all of it at the attach point would have
        /// put it. Times are drawn from a tiny range so ties between
        /// stream elements and other events — pushed before the attach
        /// point and after it — are the common case, and zero gaps put
        /// equal timestamps inside a stream too.
        #[test]
        fn chained_stream_pops_like_an_eager_one(
            streams in proptest::collection::vec(
                proptest::collection::vec(0u64..3, 0..12),
                1..4,
            ),
            ops in proptest::collection::vec((0u8..4, 0u64..20), 0..120),
        ) {
            // Nondecreasing element times per stream.
            let streams: Vec<Vec<SimTime>> = streams
                .iter()
                .map(|gaps| {
                    gaps.iter()
                        .scan(0u64, |t, gap| {
                            *t += gap;
                            Some(SimTime::from_micros(*t))
                        })
                        .collect()
                })
                .collect();
            let mut eager = EventQueue::new();
            let mut chained = EventQueue::new();
            let mut seqs = Vec::new();
            let mut others = 0;
            let pop_both = |eager: &mut EventQueue<Ev>,
                            chained: &mut EventQueue<Ev>,
                            seqs: &[u64]| {
                let got = chained.pop();
                if let Some((_, Ev::Stream(s, k))) = got {
                    if let Some(&next) = streams[s].get(k + 1) {
                        chained.push_at(next, seqs[s], Ev::Stream(s, k + 1));
                    }
                }
                (eager.pop(), got)
            };
            for &(op, t) in &ops {
                match op {
                    // Attach the next stream, if one is left.
                    0 if seqs.len() < streams.len() => {
                        let s = seqs.len();
                        for (k, &at) in streams[s].iter().enumerate() {
                            eager.push(at, Ev::Stream(s, k));
                        }
                        seqs.push(chained.reserve_seq());
                        if let Some(&first) = streams[s].first() {
                            chained.push_at(first, seqs[s], Ev::Stream(s, 0));
                        }
                    }
                    1 => {
                        let (want, got) = pop_both(&mut eager, &mut chained, &seqs);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let at = SimTime::from_micros(t);
                        eager.push(at, Ev::Other(others));
                        chained.push(at, Ev::Other(others));
                        others += 1;
                    }
                }
                prop_assert!(chained.len() <= eager.len());
            }
            loop {
                let (want, got) = pop_both(&mut eager, &mut chained, &seqs);
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }

        #[test]
        fn drains_sorted(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0usize;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        /// The arena heap must pop in exactly the order the previous
        /// `BinaryHeap<Reverse<(time, seq)>>` implementation did —
        /// interleaving pushes and pops so slot recycling is exercised.
        #[test]
        fn pop_order_matches_reference_heap(
            ops in proptest::collection::vec((0u64..1_000, 0u8..2), 0..400)
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;

            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for &(t, op) in &ops {
                if op == 1 {
                    let got = q.pop();
                    let want = reference.pop().map(|Reverse((time, _, id))| (time, id));
                    prop_assert_eq!(got, want);
                } else {
                    let time = SimTime::from_micros(t);
                    q.push(time, seq as u32);
                    reference.push(Reverse((time, seq, seq as u32)));
                    seq += 1;
                }
            }
            // Drain both; tails must agree element-for-element too.
            loop {
                let got = q.pop();
                let want = reference.pop().map(|Reverse((time, _, id))| (time, id));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
