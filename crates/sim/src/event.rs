//! A stable, timestamped event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::SimTime;

/// An event scheduled in an [`EventQueue`].
///
/// Ordering is by time first, then by insertion sequence, so that events
/// scheduled for the same instant are delivered in FIFO order. This
/// stability matters: platform behaviour (which batch fills first, which
/// instance a request lands on) must not depend on heap internals.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> ScheduledEvent<E> {
    /// The instant the event fires.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The event payload.
    pub fn payload(&self) -> &E {
        &self.payload
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    // Reversed so the BinaryHeap (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: the heart of the discrete-event simulator.
///
/// Events are arbitrary payloads `E` tagged with a [`SimTime`]. Popping
/// always yields the earliest pending event; ties break in insertion
/// order. There is no global clock object — the caller advances its own
/// notion of "now" to each popped event's timestamp, which makes it
/// impossible for time to drift or run backwards.
///
/// # Example
///
/// ```
/// use infless_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(3), "c");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(1), "b"); // same instant, FIFO
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling in the past (before the last popped event) is allowed at
    /// the API level — the event simply fires "now" from the caller's
    /// perspective because it becomes the earliest entry — but it is
    /// almost always a logic error, so debug builds assert against it.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        debug_assert!(
            time >= self.last_popped,
            "scheduled an event at {time} before the simulation clock {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` when the run is
    /// complete.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        self.last_popped = ev.time;
        Some((ev.time, ev.payload))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(ScheduledEvent::time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event — the current simulated
    /// instant from the queue's point of view.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A pre-sorted event stream merged *ahead of* an [`EventQueue`].
///
/// Workloads are generated as one time-sorted arrival list; pushing
/// every arrival into the heap up front makes each heap operation pay
/// `O(log total_arrivals)` on a multi-million-entry, cache-hostile
/// structure. A `StagedStream` keeps the sorted slice as a cursor
/// instead and merges it with the live queue at pop time, so the heap
/// only ever holds the (small) set of genuinely dynamic events.
///
/// Tie-breaking matches the convention every platform used when
/// arrivals were pre-scheduled: all arrivals were pushed before any
/// other event, so their sequence numbers were lowest and an arrival
/// always won an equal-timestamp tie. Here the staged entry is
/// delivered whenever its time is `<=` the heap's head, which is the
/// same order — runs are bit-identical to the pre-scheduled form.
///
/// # Example
///
/// ```
/// use infless_sim::{EventQueue, SimTime, StagedStream};
///
/// let arrivals = [(SimTime::from_millis(1), 0usize), (SimTime::from_millis(5), 1)];
/// let mut staged = StagedStream::new(&arrivals);
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(1), "tick");
///
/// // The staged arrival wins the t=1ms tie.
/// let (_, first) = staged.next(&mut q, |f| if f == 0 { "a0" } else { "a1" }).unwrap();
/// assert_eq!(first, "a0");
/// ```
#[derive(Clone)]
pub struct StagedStream<'a, P> {
    staged: &'a [(SimTime, P)],
    /// Index of the next entry to deliver. With a `keep` filter it
    /// always rests on a kept entry (or the end), so peeking needs no
    /// scan.
    cursor: usize,
    keep: Option<&'a (dyn Fn(&P) -> bool + Sync)>,
}

impl<P> fmt::Debug for StagedStream<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StagedStream")
            .field("len", &self.staged.len())
            .field("cursor", &self.cursor)
            .field("filtered", &self.keep.is_some())
            .finish()
    }
}

impl<'a, P: Copy> StagedStream<'a, P> {
    /// Wraps a time-sorted slice of `(time, payload)` pairs.
    ///
    /// # Panics
    ///
    /// Debug builds assert the slice is sorted by time.
    pub fn new(staged: &'a [(SimTime, P)]) -> Self {
        debug_assert!(
            staged.windows(2).all(|w| w[0].0 <= w[1].0),
            "staged events must be time-sorted"
        );
        StagedStream {
            staged,
            cursor: 0,
            keep: None,
        }
    }

    /// Like [`new`](Self::new), but delivers only the entries whose
    /// payload passes `keep`, skipping the rest in place. The sharded
    /// runner gives every shard a view of the one workload-wide
    /// arrival list this way instead of a filtered copy of it.
    pub fn filtered(staged: &'a [(SimTime, P)], keep: &'a (dyn Fn(&P) -> bool + Sync)) -> Self {
        let mut stream = Self::new(staged);
        stream.keep = Some(keep);
        stream.skip_unkept();
        stream
    }

    /// Moves the cursor past entries the filter rejects.
    fn skip_unkept(&mut self) {
        if let Some(keep) = self.keep {
            while self.staged.get(self.cursor).is_some_and(|(_, p)| !keep(p)) {
                self.cursor += 1;
            }
        }
    }

    /// Pops the earliest event across the staged slice and the queue,
    /// wrapping staged payloads with `wrap`. Staged entries win
    /// equal-timestamp ties. Returns `None` when both are exhausted.
    pub fn next<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        wrap: impl FnOnce(P) -> E,
    ) -> Option<(SimTime, E)> {
        match self.staged.get(self.cursor) {
            Some(&(t, p)) if queue.peek_time().is_none_or(|h| t <= h) => {
                self.cursor += 1;
                self.skip_unkept();
                Some((t, wrap(p)))
            }
            _ => queue.pop(),
        }
    }

    /// Like [`next`], but only delivers events with `time <= until`.
    ///
    /// This is the epoch-barrier primitive of the sharded runner: each
    /// shard drains its merged stream up to the barrier instant and
    /// stops, leaving strictly-later events (staged or queued) intact
    /// for the next epoch. Tie-breaking is identical to [`next`] —
    /// events *at* the barrier still fire inside the epoch, so a
    /// barrier at `t` is equivalent to pausing a sequential run right
    /// after the last event with `time <= t`.
    ///
    /// [`next`]: StagedStream::next
    pub fn next_until<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        until: SimTime,
        wrap: impl FnOnce(P) -> E,
    ) -> Option<(SimTime, E)> {
        match self.peek_time(queue) {
            Some(t) if t <= until => self.next(queue, wrap),
            _ => None,
        }
    }

    /// The timestamp of the next event across the staged slice and the
    /// queue, without consuming it. `None` when both are exhausted.
    pub fn peek_time<E>(&self, queue: &EventQueue<E>) -> Option<SimTime> {
        let staged = self.staged.get(self.cursor).map(|&(t, _)| t);
        match (staged, queue.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of staged entries not yet delivered.
    pub fn remaining(&self) -> usize {
        let rest = &self.staged[self.cursor..];
        match self.keep {
            Some(keep) => rest.iter().filter(|(_, p)| keep(p)).count(),
            None => rest.len(),
        }
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (t, e) in iter {
            self.schedule(t, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(20), 2),
                (SimTime::from_millis(30), 3)
            ]
        );
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// Pins the tie-break contract the fault subsystem depends on:
    /// among equal-timestamp events, delivery order is *insertion*
    /// order — even when popping is interleaved with new same-instant
    /// scheduling, and regardless of heap internals. Recovery
    /// correctness needs this: a crash scheduled before a dispatch at
    /// the same tick must be delivered before that dispatch.
    #[test]
    fn same_instant_fifo_survives_interleaved_scheduling() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "crash");
        q.schedule(t, "dispatch");
        assert_eq!(q.pop(), Some((t, "crash")));
        // Handling the crash schedules more work at the same instant; it
        // must land *behind* the already-pending dispatch.
        q.schedule(t, "rescale");
        q.schedule(t, "retry");
        assert_eq!(q.pop(), Some((t, "dispatch")));
        assert_eq!(q.pop(), Some((t, "rescale")));
        assert_eq!(q.pop(), Some((t, "retry")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    /// `next_until` pauses a merged stream exactly where a sequential
    /// drain would be after the last event at the barrier instant —
    /// inclusive of barrier-time events, exclusive of anything later.
    #[test]
    fn next_until_stops_at_the_barrier_inclusively() {
        let arrivals = [
            (SimTime::from_millis(1), 0usize),
            (SimTime::from_millis(5), 1),
            (SimTime::from_millis(9), 2),
        ];
        let mut staged = StagedStream::new(&arrivals);
        let mut q: EventQueue<usize> = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 10); // loses the t=5 tie
        q.schedule(SimTime::from_millis(7), 11);

        let barrier = SimTime::from_millis(5);
        let mut drained = Vec::new();
        while let Some((t, e)) = staged.next_until(&mut q, barrier, |p| p) {
            drained.push((t, e));
        }
        assert_eq!(
            drained,
            vec![
                (SimTime::from_millis(1), 0),
                (SimTime::from_millis(5), 1),
                (SimTime::from_millis(5), 10),
            ]
        );
        // Later events are untouched for the next epoch.
        assert_eq!(staged.remaining(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        // Resuming with the plain `next` drains the rest in order.
        assert_eq!(
            staged.next(&mut q, |p| p),
            Some((SimTime::from_millis(7), 11))
        );
        assert_eq!(
            staged.next(&mut q, |p| p),
            Some((SimTime::from_millis(9), 2))
        );
        assert_eq!(staged.next(&mut q, |p| p), None);
    }

    /// A filtered stream delivers exactly the kept entries, in order,
    /// and peeks past the skipped ones.
    #[test]
    fn filtered_stream_skips_unkept_entries_in_place() {
        let arrivals = [
            (SimTime::from_millis(1), 1usize),
            (SimTime::from_millis(2), 0),
            (SimTime::from_millis(3), 1),
            (SimTime::from_millis(3), 0),
            (SimTime::from_millis(6), 1),
        ];
        let even = |p: &usize| p.is_multiple_of(2);
        let mut staged = StagedStream::filtered(&arrivals, &even);
        let mut q: EventQueue<usize> = EventQueue::new();
        assert_eq!(staged.remaining(), 2);
        assert_eq!(staged.peek_time(&q), Some(SimTime::from_millis(2)));
        q.schedule(SimTime::from_millis(3), 9);
        let drained: Vec<_> = std::iter::from_fn(|| staged.next(&mut q, |p| p)).collect();
        assert_eq!(
            drained,
            vec![
                (SimTime::from_millis(2), 0),
                (SimTime::from_millis(3), 0),
                (SimTime::from_millis(3), 9),
            ]
        );
        assert_eq!(staged.remaining(), 0);
        assert_eq!(staged.peek_time(&q), None);
    }

    /// `peek_time` reports the merged head without consuming it.
    #[test]
    fn staged_peek_time_merges_both_sources() {
        let arrivals = [(SimTime::from_millis(4), 0usize)];
        let staged = StagedStream::new(&arrivals);
        let mut q: EventQueue<usize> = EventQueue::new();
        assert_eq!(staged.peek_time(&q), Some(SimTime::from_millis(4)));
        q.schedule(SimTime::from_millis(2), 1);
        assert_eq!(staged.peek_time(&q), Some(SimTime::from_millis(2)));
        assert_eq!(staged.remaining(), 1);
        assert_eq!(q.len(), 1);
    }

    proptest! {
        /// Epoch-chunked draining via `next_until` over arbitrary
        /// barriers yields the same event sequence as one sequential
        /// drain via `next`.
        #[test]
        fn prop_epoch_chunked_drain_equals_sequential(
            staged_times in prop::collection::vec(0u64..100, 0..40),
            queued_times in prop::collection::vec(0u64..100, 0..40),
            step in 1u64..30,
        ) {
            let mut staged_times = staged_times;
            staged_times.sort_unstable();
            let arrivals: Vec<(SimTime, usize)> = staged_times
                .iter()
                .enumerate()
                .map(|(i, &t)| (SimTime::from_millis(t), i))
                .collect();

            let build_queue = || -> EventQueue<usize> {
                let mut q = EventQueue::new();
                for (i, &t) in queued_times.iter().enumerate() {
                    q.schedule(SimTime::from_millis(t), 1000 + i);
                }
                q
            };

            let mut seq_stream = StagedStream::new(&arrivals);
            let mut seq_q = build_queue();
            let mut sequential = Vec::new();
            while let Some(ev) = seq_stream.next(&mut seq_q, |p| p) {
                sequential.push(ev);
            }

            let mut epoch_stream = StagedStream::new(&arrivals);
            let mut epoch_q = build_queue();
            let mut chunked = Vec::new();
            let mut barrier = SimTime::from_millis(step);
            let horizon = SimTime::from_millis(200);
            while barrier <= horizon {
                while let Some(ev) = epoch_stream.next_until(&mut epoch_q, barrier, |p| p) {
                    chunked.push(ev);
                }
                barrier += SimDuration::from_millis(step);
            }
            prop_assert_eq!(chunked, sequential);
        }
    }

    #[test]
    fn collects_from_iterator() {
        let q: EventQueue<u8> = (0..5u8)
            .map(|i| (SimTime::from_secs(i as u64), i))
            .collect();
        assert_eq!(q.len(), 5);
    }

    proptest! {
        /// Popped timestamps are non-decreasing regardless of insertion order.
        #[test]
        fn prop_pop_order_is_monotone(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// FIFO among equal timestamps for arbitrary time vectors: for
        /// any pair delivered at the same instant, the one scheduled
        /// first pops first.
        #[test]
        fn prop_equal_time_events_pop_in_insertion_order(
            times in prop::collection::vec(0u64..50, 1..200),
        ) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    if lt == t {
                        prop_assert!(li < i, "seq {li} and {i} swapped at {t}");
                    }
                }
                last = Some((t, i));
            }
        }

        /// Every scheduled event is delivered exactly once.
        #[test]
        fn prop_no_event_lost(times in prop::collection::vec(0u64..10_000, 1..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::ZERO + SimDuration::from_micros(*t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
