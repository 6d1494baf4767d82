//! EventQueue stress: random schedule/cancel/pop interleavings (including
//! cancel-after-fire) checked against a naive reference model, plus the
//! bounded-bookkeeping guarantee of the generation-stamped design.

use std::collections::VecDeque;

use proptest::prelude::*;
use vifi_sim::{EventQueue, Rng, SimTime, TimerToken};

/// Naive reference: a vector of live `(at, seq, payload)` entries, popped
/// by scanning for the (time, seq) minimum.
#[derive(Default)]
struct ModelQueue {
    live: Vec<(u64, u64, u64)>,
}

impl ModelQueue {
    fn schedule(&mut self, at: u64, seq: u64) {
        self.live.push((at, seq, seq));
    }
    fn cancel(&mut self, seq: u64) -> bool {
        match self.live.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.live.remove(i);
                true
            }
            None => false,
        }
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.live.remove(i);
        Some((at, payload))
    }
}

/// One scripted interleaving step.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule at `now + horizon_offset`.
    Schedule(u64),
    /// Cancel the k-th oldest outstanding token (live or already fired —
    /// exercising cancel-after-fire).
    Cancel(usize),
    /// Pop one event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u64..3, 0u64..50_000, 0usize..64).prop_map(|(kind, at, k)| match kind {
        0 => Op::Schedule(at),
        1 => Op::Cancel(k),
        _ => Op::Pop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The real queue agrees with the reference model on every pop and
    /// every cancel return value, across arbitrary interleavings. Popped
    /// times never decrease below the last pop (monotone dispatch order is
    /// checked against the model's choice, which is globally minimal).
    #[test]
    fn interleavings_match_reference_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        // All tokens ever issued (fired ones stay — cancel-after-fire).
        let mut tokens: Vec<(TimerToken, u64)> = Vec::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Schedule(at) => {
                    let tok = q.schedule(SimTime::from_micros(at), next);
                    model.schedule(at, next);
                    tokens.push((tok, next));
                    next += 1;
                }
                Op::Cancel(k) => {
                    if !tokens.is_empty() {
                        let (tok, seq) = tokens[k % tokens.len()];
                        let real = q.cancel(tok);
                        let expected = model.cancel(seq);
                        prop_assert_eq!(real, expected, "cancel seq {}", seq);
                    }
                }
                Op::Pop => {
                    let real = q.pop().map(|(at, e)| (at.as_micros(), e));
                    let expected = model.pop();
                    prop_assert_eq!(real, expected);
                }
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.is_empty(), model.live.is_empty());
        }
        // Drain both to the end.
        loop {
            let real = q.pop().map(|(at, e)| (at.as_micros(), e));
            let expected = model.pop();
            prop_assert_eq!(real, expected);
            if expected.is_none() {
                break;
            }
        }
    }
}

#[test]
fn cancelled_bookkeeping_never_grows_unbounded() {
    // A protocol-shaped workload: every packet schedules a retransmission
    // timer that is almost always cancelled (ACKed) before firing, forever.
    // The old HashSet design kept cancelled seqs until they surfaced; the
    // generation table must stay at peak-concurrency size through a
    // million-cancel run.
    let mut q = EventQueue::new();
    let mut rng = Rng::new(42);
    let mut outstanding = VecDeque::new();
    let mut now = 0u64;
    let mut fired = 0u64;
    let mut cancelled = 0u64;
    for _ in 0..1_000_000u64 {
        now += rng.below(20);
        outstanding.push_back(q.schedule(SimTime::from_micros(now + 100_000), now));
        if outstanding.len() >= 32 {
            // 31 of 32 timers are "ACKed"; the unlucky one fires.
            let tok = outstanding.pop_front().unwrap();
            if rng.below(32) == 0 {
                while q.len() > 48 {
                    q.pop();
                    fired += 1;
                }
            } else if q.cancel(tok) {
                cancelled += 1;
            }
        }
    }
    assert!(
        cancelled > 500_000,
        "cancel-heavy by construction: {cancelled}"
    );
    assert!(fired > 0, "some timers fire");
    assert!(
        q.slots_allocated() < 256,
        "slot table must track peak concurrency, got {}",
        q.slots_allocated()
    );
}

#[test]
fn concurrent_shard_queues_under_churn_never_collide() {
    // The sharded-run layout: one queue per shard, each owned by its own
    // worker thread, all churning (schedule/cancel/pop) at once. Asserts
    // the two properties the sharded runtime leans on:
    //
    // 1. per-shard determinism — a queue's pop order is a pure function
    //    of its own operations, however the OS interleaves the workers;
    // 2. no cross-shard token/generation collisions — every token ever
    //    issued is globally unique (the shard stamp keeps same
    //    (slot, generation) pairs from different queues distinct), and a
    //    foreign shard's token is inert against another queue.
    const SHARDS: u32 = 8;

    // Reference pop order per shard, computed single-threaded.
    let churn = |shard: u32, victim: Option<TimerToken>| {
        let mut q: EventQueue<u64> = EventQueue::with_shard(shard);
        // Per-shard stream, like the runtime derives per-vehicle streams.
        let mut rng = Rng::new(99).fork(shard as u64);
        let mut tokens: Vec<TimerToken> = Vec::new();
        let mut issued: Vec<TimerToken> = Vec::new();
        for i in 0..2_000u64 {
            let tok = q.schedule(SimTime::from_micros(rng.below(50_000)), shard as u64 + i);
            tokens.push(tok);
            issued.push(tok);
            if i % 5 == 0 {
                let k = rng.below(tokens.len() as u64) as usize;
                q.cancel(tokens.swap_remove(k));
            }
            if i % 7 == 0 {
                q.pop();
            }
        }
        if let Some(v) = victim {
            // A live token from another shard must cancel nothing here.
            assert!(!q.cancel(v), "cross-shard cancel must be inert");
        }
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            order.push(e);
        }
        (order, issued)
    };

    // A live token from shard 1000 handed to every worker below.
    let mut foreign: EventQueue<u64> = EventQueue::with_shard(1000);
    let foreign_tok = foreign.schedule(SimTime::from_micros(1), 0);

    let expected: Vec<_> = (0..SHARDS).map(|s| churn(s, None)).collect();
    let concurrent: Vec<(Vec<(SimTime, u64)>, Vec<TimerToken>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|s| scope.spawn(move || churn(s, Some(foreign_tok))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    let mut all_tokens: std::collections::HashSet<TimerToken> = std::collections::HashSet::new();
    for (s, ((order, issued), (exp_order, exp_issued))) in
        concurrent.iter().zip(expected.iter()).enumerate()
    {
        assert_eq!(
            order, exp_order,
            "shard {s}: pop order must not depend on threading"
        );
        assert_eq!(issued, exp_issued, "shard {s}: token stream must replay");
        for tok in issued {
            assert_eq!(tok.shard(), s as u32);
            assert!(
                all_tokens.insert(*tok),
                "token collision across shards: {tok:?}"
            );
        }
    }
    // The foreign shard's event survived all eight cancel attempts.
    assert_eq!(foreign.len(), 1);
    assert!(foreign.cancel(foreign_tok), "its own queue still can");
}

#[test]
fn scheduler_after_saturates_near_the_end_of_time() {
    // A clock sitting near SimTime::MAX plus a huge relative delay must not
    // wrap (which would trip the scheduled-in-the-past assertion) or panic
    // on overflow: the deadline saturates to the MAX sentinel and fires
    // there, deterministically.
    use vifi_sim::{Scheduler, SimDuration};

    let mut s: Scheduler<&str> = Scheduler::new();
    let near_end = SimTime::from_micros(u64::MAX - 10);
    s.at(near_end, "advance");
    assert_eq!(s.step(), Some((near_end, "advance")));
    assert_eq!(s.now(), near_end);

    // 10 µs of headroom left; a 1-hour retry timer saturates to MAX.
    let tok = s.after(SimDuration::from_secs(3600), "saturated");
    assert_eq!(s.peek_time(), Some(SimTime::MAX));
    assert!(s.cancel(tok), "saturated deadline is a live, normal event");

    // Same saturation twice is the same instant: FIFO order at MAX holds.
    s.after(SimDuration::MAX, "first");
    s.after(SimDuration::from_secs(7), "second");
    assert_eq!(s.step(), Some((SimTime::MAX, "first")));
    assert_eq!(s.step(), Some((SimTime::MAX, "second")));
    assert_eq!(s.now(), SimTime::MAX);
    // Even at the clock's ceiling, relative scheduling keeps working.
    s.after(SimDuration::from_micros(1), "still-max");
    assert_eq!(s.step(), Some((SimTime::MAX, "still-max")));
    assert!(s.is_idle());
}

#[test]
fn cancel_after_fire_with_heavy_reuse_is_inert() {
    // Fire → recycle → stale cancel, thousands of times, while live timers
    // ride along: no stale token may ever kill a live event.
    let mut q = EventQueue::new();
    let mut rng = Rng::new(7);
    let mut stale: Vec<TimerToken> = Vec::new();
    let mut live_tokens: std::collections::HashMap<u64, TimerToken> =
        std::collections::HashMap::new();
    for round in 0..20_000u64 {
        let tok = q.schedule(SimTime::from_micros(round), round);
        live_tokens.insert(round, tok);
        if rng.below(2) == 0 {
            // Fires the *oldest* live event; its token goes stale.
            let (at, payload) = q.pop().expect("just scheduled");
            assert!(at <= SimTime::from_micros(round));
            let fired = live_tokens.remove(&payload).expect("fired event was live");
            stale.push(fired);
        }
        // Stale cancels must all be no-ops.
        if stale.len() >= 64 {
            for tok in stale.drain(..) {
                assert!(!q.cancel(tok), "stale token cancelled something");
            }
        }
    }
    let mut drained = 0usize;
    let mut last = SimTime::ZERO;
    while let Some((at, _)) = q.pop() {
        assert!(at >= last, "deterministic time order");
        last = at;
        drained += 1;
    }
    assert_eq!(
        drained,
        live_tokens.len(),
        "every live event survives stale cancels"
    );
}

/// A payload that counts its own drops, so a test can see exactly when
/// the queue lets go of it.
struct Counted {
    id: u64,
    drops: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.set(self.drops.get() + 1);
    }
}

/// One step of the sorted-oracle model test.
#[derive(Clone, Copy, Debug)]
enum SlimOp {
    Schedule(u64),
    /// Cancel the k-th token ever issued (live, fired or cancelled).
    Cancel(usize),
    /// Cancel with a token from another shard's queue.
    CancelForeign,
    Pop,
    Peek,
}

fn slim_op_strategy() -> impl Strategy<Value = SlimOp> {
    (0u64..5, 0u64..2_000, 0usize..128).prop_map(|(kind, at, k)| match kind {
        0 | 1 => SlimOp::Schedule(at),
        2 => SlimOp::Cancel(k),
        3 if k % 8 == 0 => SlimOp::CancelForeign,
        3 => SlimOp::Peek,
        _ => SlimOp::Pop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slim-keyed queue against a sorted-`Vec` oracle of
    /// `(at, seq, id)`: identical pop and peek order, exact `len`, stale
    /// tokens and foreign-shard tokens inert, and a cancelled payload
    /// dropped at cancel time rather than when its dead key surfaces.
    #[test]
    fn slim_queue_matches_sorted_vec_oracle(
        ops in proptest::collection::vec(slim_op_strategy(), 1..300),
    ) {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let mut q: EventQueue<Counted> = EventQueue::with_shard(3);
        let mut foreign: EventQueue<u64> = EventQueue::with_shard(4);
        let foreign_tok = foreign.schedule(SimTime::from_micros(1), 0);
        // Sorted ascending by (at, seq); seq doubles as the payload id.
        let mut oracle: Vec<(u64, u64)> = Vec::new();
        let mut tokens: Vec<(TimerToken, u64)> = Vec::new();
        for op in ops {
            match op {
                SlimOp::Schedule(at) => {
                    let id = tokens.len() as u64;
                    let tok = q.schedule(
                        SimTime::from_micros(at),
                        Counted { id, drops: drops.clone() },
                    );
                    let pos = oracle.partition_point(|&e| e <= (at, id));
                    oracle.insert(pos, (at, id));
                    tokens.push((tok, id));
                }
                SlimOp::Cancel(k) => {
                    if tokens.is_empty() {
                        continue;
                    }
                    let (tok, id) = tokens[k % tokens.len()];
                    let before = drops.get();
                    let pos = oracle.iter().position(|&(_, s)| s == id);
                    prop_assert_eq!(q.cancel(tok), pos.is_some(), "cancel of id {}", id);
                    match pos {
                        Some(i) => {
                            oracle.remove(i);
                            prop_assert_eq!(drops.get(), before + 1, "payload dropped at cancel");
                        }
                        None => prop_assert_eq!(drops.get(), before, "stale cancel drops nothing"),
                    }
                }
                SlimOp::CancelForeign => {
                    let before = drops.get();
                    prop_assert!(!q.cancel(foreign_tok), "foreign-shard token must be inert");
                    prop_assert_eq!(drops.get(), before);
                }
                SlimOp::Pop => {
                    let real = q.pop().map(|(at, e)| (at.as_micros(), e.id));
                    let expected = (!oracle.is_empty()).then(|| oracle.remove(0));
                    prop_assert_eq!(real, expected);
                }
                SlimOp::Peek => {
                    let real = q.peek_time().map(|t| t.as_micros());
                    prop_assert_eq!(real, oracle.first().map(|&(at, _)| at));
                }
            }
            prop_assert_eq!(q.len(), oracle.len());
            prop_assert_eq!(q.is_empty(), oracle.is_empty());
        }
        // Everything scheduled is dropped exactly once: by cancel, by the
        // caller after a pop, or with the queue.
        drop(q);
        prop_assert_eq!(drops.get(), tokens.len() as u64);
        prop_assert_eq!(foreign.len(), 1, "the foreign queue is untouched");
    }
}
