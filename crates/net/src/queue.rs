//! The global event queue both steppers pop from.
//!
//! Pop order is `(t, seq)`, `seq` being the push count — exactly the
//! order of a `BinaryHeap<Reverse<(t, seq, actor)>>`, since `seq` is
//! unique. Two things make it cheaper than that heap. Each entry is a
//! 16-byte key, `(t, seq << 24 | actor)`, so a sift step is two word
//! compares. And the pushes that make up almost all traffic — an
//! acknowledge (+200 ns) or a data frame (+1 100 ns) ahead of the
//! frontier — neither sift nor compare keys: a wheel of [`SLOTS`] slots
//! of [`SLOT_NS`] ns, one processor cycle, each holds every entry that
//! falls inside the window starting at the last pop, and only the rest
//! (timers, long slices, resend deadlines) go to the far heap.
//!
//! A slot is a FIFO: a `Vec` in key order read from a head cursor. Every
//! wire and node time lies on the cycle grid but the `+1 ns` wake
//! floors, so a slot holds one instant, and a push — whose `seq` is the
//! largest yet — belongs after everything in it: an append. Only a push
//! behind a later instant in its slot inserts, after the last entry not
//! later. A pop advances the cursor, and a drained slot is cleared for
//! its next lap.
//!
//! The two lanes cannot reorder entries: each keeps its own in key
//! order, a pop takes the smaller of the two heads, and an entry never
//! moves between lanes. The window only moves forward, to the slot of
//! the entry just popped; that entry was the minimum, so nothing in the
//! wheel is left behind it, and the window is one lap long, so a slot
//! never holds entries of two laps. A push behind the window (a stamp
//! older than the last pop's slot) simply goes to the far heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use transputer::timing::CYCLE_NS;

/// What a queue entry wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Actor {
    Node(usize),
    Wire(usize),
}

/// Low key bits holding the actor: one kind bit above a 23-bit index.
const ACTOR_BITS: u32 = 24;
const WIRE_BIT: u64 = 1 << (ACTOR_BITS - 1);
/// Nodes and wires must each number fewer than this.
const ACTOR_LIMIT: usize = 1 << (ACTOR_BITS - 1);
/// Pushes a queue can order before its counter would leave the key.
const SEQ_LIMIT: u64 = 1 << (64 - ACTOR_BITS);

/// Wheel geometry: 64 slots of one cycle, one occupancy bit each —
/// 3 200 ns, longer than a robust data frame at the standard link speed.
const SLOTS: usize = 64;
const SLOT_NS: u64 = CYCLE_NS;

/// Entries a slot has room for from the start. Between drains no slot of
/// the benchmark's networks takes more, but at the few instants when
/// every node acts at once, so a run seldom grows one: slots grown in
/// mid-run put the 1 024-node grid's peak memory in its higher mode
/// more often.
const SLOT_ROOM: usize = 32;

/// `(t, seq << ACTOR_BITS | actor)`.
type Key = (u64, u64);

/// One wheel slot: its entries in key order from `head` on, those before
/// `head` popped already. Cleared, `head` and all, once drained.
#[derive(Debug)]
struct Slot {
    keys: Vec<Key>,
    head: usize,
}

#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Pushes so far.
    seq: u64,
    /// Start of the wheel's window, counted in slots from time 0: every
    /// wheel entry's `t / SLOT_NS` lies in `base .. base + SLOTS`.
    base: u64,
    /// Bit `s` set iff `wheel[s]` holds an entry not yet popped.
    occupied: u64,
    /// Near lane.
    wheel: [Slot; SLOTS],
    /// Far lane: everything outside the window when pushed.
    far: BinaryHeap<Reverse<Key>>,
}

impl EventQueue {
    /// An empty queue for a network of `nodes` nodes and `wires` wires;
    /// panics if either count does not fit the key's 23-bit index.
    pub(crate) fn new(nodes: usize, wires: usize) -> EventQueue {
        assert!(
            nodes < ACTOR_LIMIT && wires < ACTOR_LIMIT,
            "a network is limited to {} nodes and as many wires (23-bit event keys), got {nodes} and {wires}",
            ACTOR_LIMIT - 1
        );
        EventQueue {
            seq: 0,
            base: 0,
            occupied: 0,
            wheel: std::array::from_fn(|_| Slot {
                keys: Vec::with_capacity(SLOT_ROOM),
                head: 0,
            }),
            far: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, t: u64, actor: Actor) {
        self.seq += 1;
        assert!(
            self.seq < SEQ_LIMIT,
            "event queue exhausted: 2^40 pushes is the limit of its 40-bit order counter"
        );
        let code = match actor {
            Actor::Node(n) => n as u64,
            Actor::Wire(w) => w as u64 | WIRE_BIT,
        };
        let key = (t, self.seq << ACTOR_BITS | code);
        let slot_no = t / SLOT_NS;
        if slot_no.wrapping_sub(self.base) < SLOTS as u64 {
            let s = slot_no as usize % SLOTS;
            let v = &mut self.wheel[s];
            // The newest entry has the largest `seq`, so it goes after
            // every entry not later in time: last, unless its slot
            // already holds a later instant.
            if v.keys.last().is_none_or(|k| k.0 <= t) {
                v.keys.push(key);
            } else {
                let at = v.head + v.keys[v.head..].partition_point(|k| k.0 <= t);
                v.keys.insert(at, key);
            }
            self.occupied |= 1 << s;
        } else {
            self.far.push(Reverse(key));
        }
    }

    /// The smallest key of each lane: the head of the first occupied slot
    /// from the window's start on, with that slot, and the far heap's top.
    fn heads(&self) -> (Option<(usize, Key)>, Option<Key>) {
        let s0 = self.base as usize % SLOTS;
        let ahead = self.occupied.rotate_right(s0 as u32);
        let near = (ahead != 0).then(|| {
            let s = (s0 + ahead.trailing_zeros() as usize) % SLOTS;
            (s, self.wheel[s].keys[self.wheel[s].head])
        });
        (near, self.far.peek().map(|top| top.0))
    }

    /// Time of the entry the next [`EventQueue::pop`] returns.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        match self.heads() {
            (Some((_, n)), Some(f)) => Some(n.min(f).0),
            (n, f) => n.map(|(_, k)| k).or(f).map(|k| k.0),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(u64, Actor)> {
        let (t, k) = match self.heads() {
            (Some((s, n)), f) if f.is_none_or(|f| n < f) => {
                let v = &mut self.wheel[s];
                v.head += 1;
                if v.head == v.keys.len() {
                    v.keys.clear();
                    v.head = 0;
                    self.occupied &= !(1 << s);
                }
                // The window moves on to the popped entry's slot, as many
                // slots on as that one lies ahead of its start.
                self.base += ((s + SLOTS - self.base as usize % SLOTS) % SLOTS) as u64;
                n
            }
            _ => {
                let k = self.far.pop()?.0;
                self.base = self.base.max(k.0 / SLOT_NS);
                k
            }
        };
        let index = (k & (WIRE_BIT - 1)) as usize;
        let wire = k & WIRE_BIT != 0;
        Some((t, if wire { Actor::Wire } else { Actor::Node }(index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WINDOW_NS: u64 = SLOTS as u64 * SLOT_NS;

    fn slot(t: u64) -> usize {
        (t / SLOT_NS) as usize % SLOTS
    }

    impl EventQueue {
        /// A queue whose order counter has already counted `seq` pushes.
        fn with_pushes(seq: u64) -> EventQueue {
            EventQueue {
                seq,
                ..EventQueue::new(0, 0)
            }
        }
    }

    /// The queue this one replaced, as the model.
    #[derive(Default)]
    struct Reference {
        seq: u64,
        heap: BinaryHeap<Reverse<(u64, u64, Actor)>>,
    }

    impl Reference {
        fn push(&mut self, t: u64, actor: Actor) {
            self.seq += 1;
            self.heap.push(Reverse((t, self.seq, actor)));
        }

        fn pop(&mut self) -> Option<(u64, Actor)> {
            self.heap.pop().map(|Reverse((t, _, a))| (t, a))
        }

        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse((t, _, _))| *t)
        }
    }

    /// One generated step: what to do, a time offset, and an actor.
    type Op = (u8, u64, u32);

    /// How often a run met each case the generator must cover.
    #[derive(Debug, Default)]
    struct Coverage {
        same_instant: u32,
        at_last_pop: u32,
        inside_horizon: u32,
        beyond_horizon: u32,
        far_due_before_near: u32,
        below_base: u32,
        behind_later_in_slot: u32,
        past_cursor: u32,
        reused_slot: u32,
        off_grid: u32,
    }

    fn run_against_reference(ops: &[Op]) -> Coverage {
        let mut q = EventQueue::new(1 << 20, 1 << 20);
        let mut model = Reference::default();
        let mut cov = Coverage::default();
        let mut last = 0u64;
        let mut last_push = u64::MAX;
        let mut drained = [false; SLOTS];
        for &(what, dt, who) in ops {
            let actor = if who & 1 == 0 {
                Actor::Node(who as usize >> 1 & 0xF_FFFF)
            } else {
                Actor::Wire(who as usize >> 1 & 0xF_FFFF)
            };
            let t = match what {
                // Pop — half of all steps, so the queue drains as often
                // as it fills.
                0..=7 => {
                    let (near, from_far) = match q.heads() {
                        (Some((s, n)), Some(f)) => (Some(s).filter(|_| n < f), f < n),
                        (n, _) => (n.map(|(s, _)| s), false),
                    };
                    cov.far_due_before_near += u32::from(from_far);
                    let got = q.pop();
                    if let Some(s) = near {
                        drained[s] |= q.occupied & 1 << s == 0;
                    }
                    assert_eq!(got, model.pop());
                    if let Some((t, _)) = got {
                        last = t;
                    }
                    None
                }
                8 => Some(last),
                9 => Some(last_push.min(last + dt % SLOT_NS)),
                // The frames: an acknowledge, a data byte.
                10 => Some(last + 200),
                11 => Some(last + 1100),
                // Either side of the horizon, to the nanosecond.
                12 => Some(last + WINDOW_NS - SLOT_NS + dt % (2 * SLOT_NS)),
                // Timers and resend deadlines.
                13 => Some(last + 4_000 + dt % 60_000),
                14 => Some(last + dt % 3_000_000),
                // A stamp behind the frontier.
                _ => Some(last.saturating_sub(1 + dt % 5_000)),
            };
            if let Some(t) = t {
                cov.same_instant += u32::from(t == last_push);
                cov.at_last_pop += u32::from(t == last);
                let base = q.base * SLOT_NS;
                cov.below_base += u32::from(t < base);
                let near = t.wrapping_sub(base) < WINDOW_NS;
                cov.inside_horizon += u32::from(near);
                if near {
                    let v = &q.wheel[slot(t)];
                    cov.behind_later_in_slot += u32::from(v.keys.last().is_some_and(|k| k.0 > t));
                    cov.past_cursor += u32::from(v.head > 0);
                    cov.reused_slot += u32::from(v.keys.is_empty() && drained[slot(t)]);
                    cov.off_grid += u32::from(t % CYCLE_NS != 0);
                }
                cov.beyond_horizon += u32::from(t >= base + WINDOW_NS);
                let before = q.far.len();
                q.push(t, actor);
                model.push(t, actor);
                assert_eq!(q.far.len() == before, near, "lane of t={t}, base {base}");
                last_push = t;
            }
            assert_eq!(q.peek_time(), model.peek_time());
        }
        while let Some(want) = model.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.occupied, 0);
        assert!(q.wheel.iter().all(|v| v.keys.is_empty() && v.head == 0));
        cov
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Same operations, same pops, same `peek_time` after every
        /// step — and every run must actually have met the cases that
        /// could tell the two lanes apart, and each path through a slot.
        #[test]
        fn pops_in_the_order_of_the_heap_it_replaced(
            ops in proptest::collection::vec((0u8..16, any::<u64>(), any::<u32>()), 10_000..12_000),
        ) {
            let cov = run_against_reference(&ops);
            prop_assert!(
                cov.same_instant > 100
                    && cov.at_last_pop > 100
                    && cov.inside_horizon > 1000
                    && cov.beyond_horizon > 100
                    && cov.far_due_before_near > 100
                    && cov.below_base > 10
                    && cov.behind_later_in_slot > 10
                    && cov.past_cursor > 10
                    && cov.reused_slot > 100
                    && cov.off_grid > 100,
                "generator lost a case: {cov:?}"
            );
        }
    }

    /// Entries of one slot pop in time order and, within an instant, in
    /// push order — a later instant pushed first makes the earlier one
    /// insert ahead of it — and an instant pushed on both sides of a
    /// window move, once into each lane, still pops in push order.
    #[test]
    fn ties_pop_in_push_order_within_and_across_lanes() {
        let mut q = EventQueue::new(8, 8);
        // Two instants of slot 1.
        let (early, late) = (SLOT_NS + 15, SLOT_NS + 20);
        q.push(late, Actor::Wire(1));
        q.push(early, Actor::Node(2));
        q.push(late, Actor::Node(3));
        q.push(early, Actor::Wire(4));
        // One lap past slot 0: outside the window while it starts at 0.
        let lap = WINDOW_NS + 4;
        q.push(lap, Actor::Node(5));
        assert_eq!(q.far.len(), 1);
        for want in [
            (early, Actor::Node(2)),
            (early, Actor::Wire(4)),
            (late, Actor::Wire(1)),
            (late, Actor::Node(3)),
        ] {
            assert_eq!(q.pop(), Some(want));
        }
        // The window starts at slot 1 now, so the same instant is inside
        // it, in slot 0.
        assert_eq!(q.base, 1);
        q.push(lap, Actor::Node(6));
        assert_eq!((q.far.len(), q.occupied), (1, 1));
        assert_eq!(q.peek_time(), Some(lap));
        assert_eq!(q.pop(), Some((lap, Actor::Node(5))));
        assert_eq!(q.pop(), Some((lap, Actor::Node(6))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn the_largest_index_round_trips() {
        let mut q = EventQueue::new(ACTOR_LIMIT - 1, ACTOR_LIMIT - 1);
        q.push(5, Actor::Wire(ACTOR_LIMIT - 2));
        q.push(5, Actor::Node(ACTOR_LIMIT - 2));
        assert_eq!(q.pop(), Some((5, Actor::Wire(ACTOR_LIMIT - 2))));
        assert_eq!(q.pop(), Some((5, Actor::Node(ACTOR_LIMIT - 2))));
    }

    #[test]
    #[should_panic(expected = "limited to 8388607 nodes")]
    fn too_many_nodes_are_refused() {
        EventQueue::new(ACTOR_LIMIT, 0);
    }

    #[test]
    #[should_panic(expected = "limited to 8388607 nodes")]
    fn too_many_wires_are_refused() {
        EventQueue::new(0, ACTOR_LIMIT);
    }

    /// The last pushes the counter can order still pop in push order —
    /// in both lanes — and the next one panics instead of wrapping.
    #[test]
    fn the_order_counter_is_exact_up_to_its_limit() {
        let mut q = EventQueue::with_pushes(SEQ_LIMIT - 5);
        q.push(9, Actor::Node(1));
        q.push(9, Actor::Node(2));
        q.push(WINDOW_NS, Actor::Wire(1));
        q.push(WINDOW_NS, Actor::Wire(2));
        for want in [
            (9, Actor::Node(1)),
            (9, Actor::Node(2)),
            (WINDOW_NS, Actor::Wire(1)),
            (WINDOW_NS, Actor::Wire(2)),
        ] {
            assert_eq!(q.pop(), Some(want));
        }
    }

    #[test]
    #[should_panic(expected = "event queue exhausted")]
    fn the_order_counter_panics_rather_than_wrap() {
        let mut q = EventQueue::with_pushes(SEQ_LIMIT - 2);
        q.push(0, Actor::Node(0));
        q.push(0, Actor::Node(0));
    }
}
