//! The future event list.
//!
//! One `BinaryHeap` of entries keyed by `(time, seq)`: the plain
//! priority-queue idiom. It replaced a two-level calendar queue (a
//! timing wheel plus an overflow heap) after the two were raced at the
//! simulator's real event mix: the heap was cheaper per event, and both
//! drain in the same total order, so the swap changed no simulated
//! result.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use piranha_types::SimTime;

/// A deterministic future event list.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO tie-breaking via a monotone sequence number), which
/// is what makes whole-system simulations reproducible.
///
/// # Examples
///
/// ```
/// use piranha_kernel::EventQueue;
/// use piranha_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime(100), 1u32);
/// q.schedule(SimTime(100), 2u32);
/// q.schedule(SimTime(50), 3u32);
/// let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, [3, 1, 2]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the time of the last event popped —
    /// the simulation may never schedule into the past.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled at {time} is in the past (now = {})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Remove and return the earliest event, advancing the queue's notion
    /// of "now" to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.time;
        self.popped += 1;
        Some((e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// The `(time, seq)` key of the earliest pending event, if any —
    /// the key [`pop`](EventQueue::pop) would deliver next.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.time, e.seq))
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events scheduled over the queue's lifetime. At every point
    /// `scheduled() == popped() + len() as u64` — the accounting
    /// invariant the kernel tests assert.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Total events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
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

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 'c');
        q.schedule(SimTime(10), 'a');
        q.schedule(SimTime(20), 'b');
        assert_eq!(q.pop(), Some((SimTime(10), 'a')));
        assert_eq!(q.pop(), Some((SimTime(20), 'b')));
        assert_eq!(q.pop(), Some((SimTime(30), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn ties_break_fifo_across_the_horizon() {
        // Same far-future instant, scheduled before and after `now`
        // moves toward it: schedule order still wins the tie.
        let far = u64::MAX / 2;
        let mut q = EventQueue::new();
        q.schedule(SimTime(far), 0);
        q.schedule(SimTime(1), 100);
        assert_eq!(q.pop(), Some((SimTime(1), 100)));
        q.schedule(SimTime(far), 1);
        assert_eq!(q.pop(), Some((SimTime(far), 0)));
        assert_eq!(q.pop(), Some((SimTime(far), 1)));
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime(5));
        // Scheduling at exactly `now` is allowed.
        q.schedule(SimTime(5), ());
        assert_eq!(q.peek_time(), Some(SimTime(5)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(9), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        q.schedule(SimTime(1), 0);
        q.schedule(SimTime(2), 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn lifetime_counters_track_traffic() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime(u64::MAX / 2), 0);
        q.schedule(SimTime(1), 1);
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.popped(), 0);
        q.pop();
        q.schedule(SimTime(6), 2);
        q.pop();
        q.schedule(SimTime(7), 3);
        q.pop();
        assert_eq!(q.pop(), Some((SimTime(u64::MAX / 2), 0)));
        assert_eq!(q.popped(), 4);
        assert_eq!(q.scheduled(), 4);
    }

    #[test]
    fn scheduled_equals_popped_plus_pending() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..50 {
            q.schedule(SimTime(i * 7), i as u32);
        }
        for _ in 0..20 {
            q.pop();
        }
        assert_eq!(q.scheduled(), q.popped() + q.len() as u64);
        while q.pop().is_some() {}
        assert_eq!(q.scheduled(), q.popped() + q.len() as u64);
        assert_eq!(q.popped(), 50);
    }

    /// A tiny deterministic PRNG (splitmix64) for the randomized test.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The drain order, checked against the simplest oracle there is:
    /// the pending events in a `Vec` in schedule order, and each pop
    /// takes the first entry with the smallest time. That is a stable
    /// sort by time, i.e. FIFO among ties, with no sequence numbers.
    #[test]
    fn randomized_drain_order_matches_stable_sort_oracle() {
        for seed in 0..8u64 {
            let mut rng = Rng(seed);
            let mut q = EventQueue::new();
            let mut oracle: Vec<(SimTime, u32)> = Vec::new();
            let mut now = 0u64;
            let pop_both = |q: &mut EventQueue<u32>, oracle: &mut Vec<(SimTime, u32)>| {
                let want = oracle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (t, _))| *t)
                    .map(|(i, _)| i)
                    .map(|i| oracle.remove(i));
                let got = q.pop();
                assert_eq!(got, want, "divergence from the oracle (seed {seed})");
                assert_eq!(q.len(), oracle.len());
                got
            };
            for i in 0..3_000u32 {
                // Mostly near-future schedules, with ties at `now` and
                // occasional far ones, interleaved with pops.
                if rng.next() % 100 < 60 || q.is_empty() {
                    let delta = match rng.next() % 10 {
                        0 => (rng.next() % 4) << 28,
                        1..=3 => 0,
                        _ => rng.next() % (1 << 18),
                    };
                    let t = SimTime(now + delta);
                    q.schedule(t, i);
                    oracle.push((t, i));
                } else if let Some((t, _)) = pop_both(&mut q, &mut oracle) {
                    now = t.0;
                }
            }
            while pop_both(&mut q, &mut oracle).is_some() {}
            assert_eq!(q.scheduled(), q.popped());
        }
    }
}
