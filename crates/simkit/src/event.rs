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
//! hot path in one cache line per level. A key orders by one packed `u128`
//! rank, `time << 64 | seq` — bit for bit the `(time, seq)` order, since
//! both fields are `u64` — so each comparison is a single branch-free
//! compare. Both sifts move a hole instead of swapping at every level, and
//! write the moving key once: a push raises it from the bottom, and a pop
//! walks the top's hole down to a leaf along least children (picked with
//! selects) and raises the heap's last key from there.
//!
//! A long pre-known stream of events (a trace's arrivals) need not sit in
//! the heap at all to keep its place in the FIFO order: the stream takes
//! one sequence number with [`EventQueue::reserve_seq`] where it would have
//! been pushed, and then keeps a single pending element — its head — under
//! that number ([`EventQueue::push_at`]), pushing the next one when the
//! pending one pops. Heads wait beside the heap, not in it: a pop takes the
//! earliest of the heap top and the earliest head, so an arrival costs no
//! sift through the heap's other events. Ranks are unique, so the pop order
//! is exactly the one pushing the whole stream up front gives.

use crate::slab::{Slab, Slot};
use crate::time::SimTime;

/// Heap fan-out. Four children per node: shallower sifts than a binary
/// heap, and a node's children share a cache line. [`least_child`]
/// compares a full node's four as two pairs.
const ARITY: usize = 4;

/// One pending event's ordering key plus the payload's slot.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: Slot,
}

impl Key {
    /// The total order popped: earliest time first, FIFO within a time,
    /// packed into one integer so a comparison is one compare.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.time.as_micros()) << 64) | u128::from(self.seq)
    }
}

/// A stream's reserved sequence number and its pending element, if any.
#[derive(Debug, Clone)]
struct Stream {
    seq: u64,
    head: Option<Key>,
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
    /// The pending events, heap entries and stream heads alike, each named
    /// by its key's slot.
    events: Slab<E>,
    seq: u64,
    /// Every reserved sequence number, ascending (reservation order).
    streams: Vec<Stream>,
    /// The stream whose head has the least rank; `None` when no head is
    /// pending.
    first_stream: Option<usize>,
    /// Pending stream heads.
    heads: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            events: Slab::new(),
            seq: 0,
            streams: Vec::new(),
            first_stream: None,
            heads: 0,
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
        let slot = self.events.insert(event);
        self.sift_up(Key { time, seq, slot });
    }

    /// Takes the next sequence number out of the FIFO order without
    /// scheduling anything: the place in line of a stream of events that
    /// will be fed through [`EventQueue::push_at`] one at a time.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.streams.push(Stream { seq, head: None });
        seq
    }

    /// Schedules `event` to fire at `time` under the reserved sequence
    /// number `seq`: among events of that instant it pops after those
    /// pushed before `seq` was reserved and before those pushed since.
    ///
    /// A stream whose times never decrease, which pushes its next element
    /// when the pending one pops, is popped exactly as if every element had
    /// been [`push`](EventQueue::push)ed where `seq` was reserved.
    ///
    /// # Panics
    ///
    /// Panics if `seq` did not come from [`EventQueue::reserve_seq`], or if
    /// an entry pushed under it is still pending.
    pub fn push_at(&mut self, time: SimTime, seq: u64, event: E) {
        let s = self
            .streams
            .binary_search_by_key(&seq, |s| s.seq)
            .unwrap_or_else(|_| panic!("push_at needs a sequence number from reserve_seq"));
        assert!(
            self.streams[s].head.is_none(),
            "reserved sequence number {seq} is already pending"
        );
        let slot = self.events.insert(event);
        let key = Key { time, seq, slot };
        self.streams[s].head = Some(key);
        self.heads += 1;
        if self
            .first_head()
            .is_none_or(|first| key.rank() < first.rank())
        {
            self.first_stream = Some(s);
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, is_head) = self.front()?;
        if is_head {
            self.take_first_head();
        } else {
            self.pop_top();
        }
        Some((key.time, self.events.remove(key.slot)))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|(key, _)| key.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.heads
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most events that were ever pending at once: the payload arena's
    /// [`Slab::high_water`].
    pub fn high_water(&self) -> usize {
        self.events.high_water()
    }

    /// The earliest pending stream head.
    #[inline]
    fn first_head(&self) -> Option<Key> {
        self.first_stream
            .map(|s| self.streams[s].head.expect("the first head is pending"))
    }

    /// The earliest pending key, and whether it is a stream head.
    #[inline]
    fn front(&self) -> Option<(Key, bool)> {
        match (self.first_head(), self.heap.first()) {
            (Some(head), Some(top)) if top.rank() < head.rank() => Some((*top, false)),
            (Some(head), _) => Some((head, true)),
            (None, top) => top.map(|&top| (top, false)),
        }
    }

    /// Clears the earliest stream head and finds the next one. Streams are
    /// few (one per attached replay), so a scan finds it.
    fn take_first_head(&mut self) {
        let s = self.first_stream.expect("a head is pending");
        self.streams[s].head = None;
        self.heads -= 1;
        self.first_stream = if self.heads == 0 {
            None
        } else {
            let pending = self.streams.iter().enumerate();
            pending
                .filter_map(|(i, stream)| stream.head.map(|head| (head.rank(), i)))
                .min()
                .map(|(_, i)| i)
        };
    }

    /// Removes the heap's top. The hole it leaves walks down to a leaf,
    /// each least child moving up into it, and the heap's last key rises
    /// from there (a bottom-up sift): that key was a leaf, so it seldom
    /// climbs far, and the walk down never compares against it.
    fn pop_top(&mut self) {
        let last = self.heap.pop().expect("the heap is non-empty");
        if self.heap.is_empty() {
            return;
        }
        let heap = &mut self.heap[..];
        let mut hole = 0;
        while let Some(child) = least_child(heap, hole) {
            heap[hole] = heap[child];
            hole = child;
        }
        raise(heap, hole, last);
    }

    /// Adds `key` at the bottom of the heap and raises it to its level.
    fn sift_up(&mut self, key: Key) {
        self.heap.push(key);
        let hole = self.heap.len() - 1;
        raise(&mut self.heap, hole, key);
    }
}

/// The least child of node `i`, or `None` if `i` is a leaf. A full node's
/// children are compared pairwise with selects, not branches.
#[inline]
fn least_child(heap: &[Key], i: usize) -> Option<usize> {
    let first = ARITY * i + 1;
    if let Some(c) = heap.get(first..first + ARITY) {
        let (r0, r1, r2, r3) = (c[0].rank(), c[1].rank(), c[2].rank(), c[3].rank());
        let (a, ra) = if r1 < r0 { (1, r1) } else { (0, r0) };
        let (b, rb) = if r3 < r2 { (3, r3) } else { (2, r2) };
        return Some(first + if rb < ra { b } else { a });
    }
    // The one node with fewer than `ARITY` children.
    let children = heap.get(first..).filter(|c| !c.is_empty())?;
    let (mut min, mut min_rank) = (0, children[0].rank());
    for (c, child) in children.iter().enumerate().skip(1) {
        let lt = child.rank() < min_rank;
        min = if lt { c } else { min };
        min_rank = if lt { child.rank() } else { min_rank };
    }
    Some(first + min)
}

/// Fills the hole at `hole` with `key`, first moving each ancestor that
/// ranks after it down one level: the key is written once.
#[inline]
fn raise(heap: &mut [Key], mut hole: usize, key: Key) {
    let rank = key.rank();
    while hole > 0 {
        let parent = (hole - 1) / ARITY;
        if heap[parent].rank() < rank {
            break;
        }
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = key;
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    /// The driving loop a simulator runs: pop the earliest event, handle
    /// it, and push what it schedules. Two events that schedule each
    /// other 1 ms apart alternate until the handler stops re-scheduling.
    #[test]
    fn a_handler_loop_alternates_until_its_limit() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Ev {
            Ping,
            Pong,
        }
        let step = crate::time::SimDuration::from_millis(1);
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, Ev::Ping);
        let (mut pings, mut pongs, mut last) = (0, 0, SimTime::ZERO);
        let mut expect = Ev::Ping;
        while let Some((now, event)) = q.pop() {
            assert_eq!(event, expect);
            assert!(now >= last, "time went backwards: {now} < {last}");
            last = now;
            match event {
                Ev::Ping => {
                    pings += 1;
                    q.push(now + step, Ev::Pong);
                    expect = Ev::Pong;
                }
                Ev::Pong => {
                    pongs += 1;
                    if pongs < 10 {
                        q.push(now + step, Ev::Ping);
                    }
                    expect = Ev::Ping;
                }
            }
        }
        assert_eq!((pings, pongs), (10, 10));
        assert_eq!(last, SimTime::from_millis(19));
    }

    /// A loop that stops at a horizon handles every event at or before it
    /// and leaves the first later one pending, ready to resume.
    #[test]
    fn a_loop_stopped_at_a_horizon_leaves_later_events_pending() {
        let step = crate::time::SimDuration::from_millis(1);
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        let run_until = |q: &mut EventQueue<()>, horizon: SimTime| {
            let mut handled = 0;
            while q.peek_time().is_some_and(|t| t <= horizon) {
                let (now, ()) = q.pop().unwrap();
                q.push(now + step, ());
                handled += 1;
            }
            handled
        };
        // Events at t = 0, 1, 2, 3, 4 ms.
        assert_eq!(run_until(&mut q, SimTime::from_millis(4)), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.len(), 1);
        assert_eq!(run_until(&mut q, SimTime::from_millis(4)), 0);
        assert_eq!(run_until(&mut q, SimTime::from_millis(9)), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
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
    fn a_lone_stream_head_is_pending() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        assert!(q.is_empty());
        q.push_at(SimTime::from_micros(5), seq, "head");
        assert!(!q.is_empty());
        assert_eq!((q.len(), q.high_water()), (1, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        // A heap entry beside the head counts too, whichever pops first.
        q.push(SimTime::from_micros(3), "event");
        assert_eq!((q.len(), q.high_water()), (2, 2));
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), "event")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), "head")));
        assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "from reserve_seq")]
    fn push_at_rejects_an_unreserved_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push_at(SimTime::ZERO, 0, 1);
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn push_at_rejects_a_second_pending_entry() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push_at(SimTime::ZERO, seq, 0);
        q.push_at(SimTime::ZERO, seq, 1);
    }

    /// The packed rank keeps every bit of both fields: times at both ends
    /// of the clock, and sequence numbers past `u32::MAX` and up against
    /// `u64::MAX`, in the heap and in stream heads.
    #[test]
    fn ranks_pack_the_extremes() {
        let times = [
            SimTime::MAX,
            SimTime::ZERO,
            SimTime::from_micros(1 << 32),
            SimTime::MAX,
            SimTime::ZERO,
            SimTime::from_micros(u64::MAX - 1),
        ];
        for start in [u64::from(u32::MAX) - 2, u64::MAX - 2 * times.len() as u64] {
            let mut q = EventQueue::new();
            q.seq = start;
            let mut reference = BinaryHeap::new();
            for (i, &t) in times.iter().enumerate() {
                let seq = if i % 2 == 0 {
                    let seq = q.reserve_seq();
                    q.push_at(t, seq, i);
                    seq
                } else {
                    q.push(t, i);
                    q.seq - 1
                };
                reference.push(Reverse((t, seq, i)));
            }
            while let Some(Reverse((t, _, i))) = reference.pop() {
                assert_eq!(q.peek_time(), Some(t));
                assert_eq!(q.pop(), Some((t, i)));
            }
            assert_eq!(q.pop(), None);
        }
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
        /// put it, and `peek_time` always names the time the next pop
        /// returns. Times are drawn from a tiny range so ties between
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
                let peeked = chained.peek_time();
                let got = chained.pop();
                if let Some((_, Ev::Stream(s, k))) = got {
                    if let Some(&next) = streams[s].get(k + 1) {
                        chained.push_at(next, seqs[s], Ev::Stream(s, k + 1));
                    }
                }
                (eager.pop(), got, peeked)
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
                        let (want, got, peeked) = pop_both(&mut eager, &mut chained, &seqs);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(peeked, got.map(|(t, _)| t));
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
                let (want, got, peeked) = pop_both(&mut eager, &mut chained, &seqs);
                prop_assert_eq!(got, want);
                prop_assert_eq!(peeked, got.map(|(t, _)| t));
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
