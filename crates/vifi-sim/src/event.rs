//! Timestamped event queue with deterministic ordering and cancellation.
//!
//! The queue is a binary min-heap keyed by `(time, sequence)`. The sequence
//! number is a monotonically increasing insertion counter, which gives FIFO
//! semantics among events scheduled for the same instant — this is the
//! tie-break rule that makes whole-simulation runs bit-for-bit reproducible.
//!
//! The heap holds **slim keys** only: `(time, sequence, slot, generation)`,
//! 24 bytes whatever the payload type. Payloads live in a side table of
//! slots, indexed by the key's slot, so a heap sift moves keys and never
//! payloads — the engine's per-lane events are over 100 bytes, and a
//! `paper_drive` shard holds thousands of them pending.
//!
//! Cancellation is **generation-stamped**: every pending event owns a slot,
//! and its [`TimerToken`] carries `(slot, generation)`. Cancelling (or
//! firing) bumps the slot's generation, which invalidates the token — and
//! any stale heap key — with one array write, and a cancel drops the
//! payload at once. Liveness checks on the pop/peek path are a single
//! indexed compare, not a `HashSet` probe; there is no cancelled-set to
//! grow, and slots are recycled through a free list, so memory is bounded
//! by the *peak* number of concurrently pending events plus the dead keys
//! still in the heap. Protocol code (retransmission timers, relay timers)
//! cancels far more often than it lets timers fire, which is exactly the
//! pattern this layout makes cheap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// A token is `(shard, slot, generation)`: it names the queue (shard) that
/// issued it, a slot in that queue's side table, and the generation at
/// which it was issued. Once the event fires or is cancelled the slot's
/// generation moves on and the token goes stale forever (up to u32
/// generation wrap-around — four billion reuses of one slot — which no
/// simulated workload approaches).
///
/// The shard id makes tokens from different engine lanes distinct
/// values: every lane of a sharded run owns its own queue, two lanes may
/// hand out the same `(slot, generation)` pair, but the stamped shard
/// keeps them unequal under `Eq`/`Hash`, and [`EventQueue::cancel`]
/// treats a foreign-lane token as inert rather than (mis)interpreting its
/// slot against the wrong side table — which would silently cancel an
/// unrelated event. The stamp is there to make such a bug harmless and
/// detectable, not for any one execution mode.
///
/// Cost, measured and accepted: widening the token 8 → 12 bytes plus the
/// cancel-path shard compare moved `event_queue_churn_1k` by ≈ +12%
/// (44 → 49 µs, same harness/host). Packing the shard into high bits of
/// `slot`/`generation` would win it back but either shrinks the ABA
/// guard's wrap-around margin or caps shard ids — a bad trade for a path
/// that is a few percent of whole-run time. Moving payloads out of the
/// heap left `event_queue_churn_1k` unchanged within noise (69.8 µs
/// before, 71.8 µs after; one full-mode `bench_json` pass each on a
/// shared 2-vCPU Xeon — its payloads are 4-byte integers, so the heap
/// entries barely shrink) and cut a pop + schedule pair at 4.5k pending
/// 104-byte events from ≈229 to ≈174 ns (median of 7 alternating runs,
/// same host; `event_queue_deep_4k` gates that shape).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken {
    shard: u32,
    slot: u32,
    generation: u32,
}

impl TimerToken {
    /// The shard (queue) this token was issued by.
    pub fn shard(self) -> u32 {
        self.shard
    }
}

/// A heap key: the ordering pair plus the slot stamp that finds (and
/// validates) the payload. The payload itself never enters the heap.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
}

// Order keys by (time, seq). `seq` is unique per queue, so the slot stamp
// never decides an order.
impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic, cancellable priority queue of future events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Key>>,
    /// FIFO tie-break counter (never reused; u64 cannot wrap in practice).
    next_seq: u64,
    /// Current generation per slot. A key (or token) is live iff its
    /// stamped generation equals its slot's current generation.
    generations: Vec<u32>,
    /// Payload per slot: `Some` exactly while the slot's event is pending.
    payloads: Vec<Option<E>>,
    /// Slots whose previous event fired or was cancelled, ready for reuse.
    free_slots: Vec<u32>,
    /// Number of live (scheduled, not yet fired or cancelled) events.
    live: usize,
    /// Shard identity stamped into every issued token. Each engine lane
    /// owns its own queue under a distinct shard id so tokens can never
    /// be confused across lanes.
    shard: u32,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue (shard 0 — the single-queue default).
    pub fn new() -> Self {
        Self::with_shard(0)
    }

    /// Create an empty queue owned by shard `shard`. Tokens it issues are
    /// stamped with the shard id; see [`TimerToken`].
    pub fn with_shard(shard: u32) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            generations: Vec::new(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            shard,
        }
    }

    /// The shard id this queue stamps into its tokens.
    pub fn shard_id(&self) -> u32 {
        self.shard
    }

    /// Schedule `event` to fire at absolute time `at`. Returns a token that
    /// can later be passed to [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: SimTime, event: E) -> TimerToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.payloads[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.generations.len())
                    .expect("more than u32::MAX concurrently pending events");
                self.generations.push(0);
                self.payloads.push(Some(event));
                s
            }
        };
        let generation = self.generations[slot as usize];
        self.heap.push(Reverse(Key {
            at,
            seq,
            slot,
            generation,
        }));
        self.live += 1;
        TimerToken {
            shard: self.shard,
            slot,
            generation,
        }
    }

    /// Cancel a previously scheduled event, dropping its payload now.
    /// Returns true if the event was still pending; cancelling a fired or
    /// already-cancelled token is a harmless no-op returning false. A
    /// token issued by another shard's queue is likewise inert: its
    /// `(slot, generation)` pair means nothing against this queue's side
    /// table, so it must never be interpreted.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        if token.shard != self.shard {
            return false;
        }
        match self.generations.get_mut(token.slot as usize) {
            Some(generation) if *generation == token.generation => {
                // Invalidate the token and its heap key in one bump; the
                // dead key is discarded when it surfaces.
                *generation = generation.wrapping_add(1);
                self.payloads[token.slot as usize] = None;
                self.free_slots.push(token.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim();
        self.heap.peek().map(|Reverse(k)| k.at)
    }

    /// Remove and return the next live event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skim();
        let Reverse(k) = self.heap.pop()?;
        // skim() left a live key on top: retire its slot.
        let slot = k.slot as usize;
        self.generations[slot] = k.generation.wrapping_add(1);
        let event = self.payloads[slot]
            .take()
            .expect("live slot holds a payload");
        self.free_slots.push(k.slot);
        self.live -= 1;
        Some((k.at, event))
    }

    /// Discard dead keys at the top of the heap.
    fn skim(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.generations[top.slot as usize] == top.generation {
                break;
            }
            self.heap.pop();
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots ever allocated in the side table — bounded by the
    /// peak number of concurrently pending events, *not* by cancellation
    /// traffic. Exposed for capacity diagnostics and the stress tests.
    pub fn slots_allocated(&self) -> usize {
        self.generations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), "dead");
        q.schedule(t(20), "alive");
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), "alive")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1), "fired");
        assert_eq!(q.pop(), Some((t(1), "fired")));
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 0);
        // A later event is unaffected.
        q.schedule(t(2), "next");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "next")));
    }

    #[test]
    fn cancel_bogus_token_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(TimerToken {
            shard: 0,
            slot: 999,
            generation: 0
        }));
    }

    #[test]
    fn cross_shard_tokens_are_distinct_and_inert() {
        let mut a: EventQueue<u32> = EventQueue::with_shard(1);
        let mut b: EventQueue<u32> = EventQueue::with_shard(2);
        assert_eq!(a.shard_id(), 1);
        let ta = a.schedule(t(5), 10);
        let tb = b.schedule(t(5), 20);
        // Same (slot, generation) in both queues, still different tokens.
        assert_ne!(ta, tb);
        assert_eq!(ta.shard(), 1);
        assert_eq!(tb.shard(), 2);
        // A foreign token cancels nothing, and the right one still works.
        assert!(!a.cancel(tb), "foreign-shard token must be inert");
        assert_eq!(a.len(), 1);
        assert!(a.cancel(ta));
        assert!(b.cancel(tb));
    }

    #[test]
    fn stale_token_cannot_cancel_slot_reuser() {
        // The ABA guard: a fired event's slot is recycled by a new event;
        // the old token must not cancel the newcomer.
        let mut q = EventQueue::new();
        let old = q.schedule(t(1), "first");
        assert_eq!(q.pop(), Some((t(1), "first")));
        let _new = q.schedule(t(2), "second"); // reuses the slot
        assert!(!q.cancel(old), "stale token must be inert");
        assert_eq!(q.pop(), Some((t(2), "second")));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(t(20)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        let _b = q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "x");
        assert_eq!(q.pop(), Some((t(10), "x")));
        q.schedule(t(5), "y");
        q.schedule(t(15), "z");
        assert_eq!(q.pop(), Some((t(5), "y")));
        assert_eq!(q.pop(), Some((t(15), "z")));
    }

    #[test]
    fn heavy_mixed_workload_stays_sorted() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::Rng::new(77);
        let mut tokens = Vec::new();
        for i in 0..5000u64 {
            let at = SimTime::from_micros(rng.below(100_000));
            tokens.push((q.schedule(at, i), at));
        }
        // Cancel a third of them.
        for (i, (tok, _)) in tokens.iter().enumerate() {
            if i % 3 == 0 {
                q.cancel(*tok);
            }
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "out of order");
            last = at;
            n += 1;
        }
        assert_eq!(n, 5000 - (5000 + 2) / 3);
    }

    #[test]
    fn same_schedule_same_pop_order_replay() {
        // Determinism: two identically used queues yield identical
        // sequences, including tie-breaks.
        let build = || {
            let mut q = EventQueue::new();
            let mut rng = crate::rng::Rng::new(123);
            for i in 0..1000u64 {
                q.schedule(SimTime::from_micros(rng.below(50)), i);
            }
            let mut order = Vec::new();
            while let Some((at, e)) = q.pop() {
                order.push((at, e));
            }
            order
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn duration_helper_compiles() {
        // Spot-check SimDuration interop with scheduling patterns.
        let mut q = EventQueue::new();
        let now = t(100);
        q.schedule(now + SimDuration::from_millis(5), ());
        assert_eq!(q.peek_time(), Some(t(105)));
    }

    #[test]
    fn slot_table_bounded_by_peak_concurrency() {
        // A retransmission-timer loop: schedule/cancel forever with at
        // most 4 events pending. The side table must stay at the peak,
        // no matter how many cancellations pass through.
        let mut q = EventQueue::new();
        let mut pending = std::collections::VecDeque::new();
        for round in 0..10_000u64 {
            pending.push_back(q.schedule(SimTime::from_micros(round), round));
            if pending.len() > 4 {
                let tok = pending.pop_front().unwrap();
                q.cancel(tok);
            }
        }
        assert!(
            q.slots_allocated() <= 8,
            "slot table grew to {} for 5 concurrent events",
            q.slots_allocated()
        );
    }
}
