//! The stepper: the heap pop both engines share, and the node arm where
//! they differ. Nothing else in the crate knows which engine runs.
//!
//! A wire entry goes through the shared drain and its due resends. A
//! node entry runs one instruction under the Event oracle, or one whole
//! *slice* under Sliced: link instructions up to the *link fence*, the
//! earliest wire activity that could affect the node; everything else
//! up to the *run horizon* — the fence while a wire event could do more
//! to the processor than fill a link buffer ([`Cpu::link_sensitive`]),
//! the end of the run otherwise.
//!
//! The link fence is conservative: for a node N it is the minimum over
//! N's ports of (a) the next scheduled event on that port's wire
//! (completions *and* pending data-start probes) and (b) the earliest
//! time the peer node M can act plus the flight time of the first packet
//! M could land on N (an acknowledge if N has a byte in flight, else a
//! data packet). "Earliest M can act" is itself the minimum of M's
//! scheduled slice, M's own wire deadlines, and the global heap frontier
//! plus one acknowledge time (no chain of third-party events can reach M
//! faster than that). Every instruction that changes wire-visible link
//! state ends its slice ([`SliceOutcome`]), so wires always observe link
//! state at the exact instruction boundary that produced it; the engines
//! are bit-identical in cycle counts, delivered bytes, and memory images.

use transputer::timing::CYCLE_NS;
use transputer::{Cpu, HaltReason, SliceOutcome, StepEvent};

use super::{Network, SimError};
use crate::queue::Actor;

/// Cap on a single slice, so an instruction-loop without interaction
/// points still yields to the heap (and to `run_until` predicates /
/// budget checks) every so often.
const MAX_SLICE_CYCLES: u64 = 1 << 22;

/// Which execution engine a [`Network`] uses to advance time. Both pop
/// one event queue and hand every wire event to the same handlers; they
/// differ only in how far a node runs per pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// The hidden variant is a benchmark shim on its way out, not a
// non-exhaustiveness marker.
#[allow(clippy::manual_non_exhaustive)]
pub enum Engine {
    /// The reference oracle: one heap event per node micro-step. Each
    /// pop executes a single instruction, then offers transmit bytes
    /// and acknowledges to the node's wires.
    Event,
    /// The fast engine: one heap entry per node-slice, a run of
    /// instructions bounded by conservative lookahead
    /// ([`Cpu::run_slice_fenced`]), which is what makes large networks
    /// fast to simulate.
    #[default]
    Sliced,
    /// Shim for the deleted host-parallel engine (DESIGN.md §10 records
    /// why there is none): runs exactly as [`Engine::Sliced`]. Kept only
    /// because the system benchmark names it; goes away with the next
    /// benchmark revision.
    #[doc(hidden)]
    Parallel,
}

impl Network {
    /// The engine advancing this network.
    pub fn engine(&self) -> Engine {
        self.config.engine
    }

    /// Advance the simulation by exactly one event, one instruction per
    /// node event as the Event oracle does. Returns false when nothing
    /// remains to simulate.
    pub fn step_event(&mut self) -> Result<bool, SimError> {
        self.step(Engine::Event)
    }

    /// Advance by one event under the configured engine.
    pub(super) fn advance_one(&mut self) -> Result<bool, SimError> {
        self.step(self.config.engine)
    }

    /// Pop one heap event: a wire's drain and resends, or `engine`'s
    /// node arm.
    fn step(&mut self, engine: Engine) -> Result<bool, SimError> {
        self.prime_ea();
        let Some((t, actor)) = self.fabric.queue.pop() else {
            return Ok(false);
        };
        self.now_ns = self.now_ns.max(t);
        match actor {
            Actor::Wire(w) => {
                if self.pop_wire(w, t) {
                    self.drain_wire(w);
                    self.fire_due_resends(w);
                }
            }
            Actor::Node(n) => {
                self.pops.node += 1;
                match engine {
                    Engine::Event => self.step_instruction(n)?,
                    Engine::Sliced | Engine::Parallel => self.step_slice(n, t)?,
                }
            }
        }
        Ok(true)
    }

    /// Whether a wire pop at `t` must wait for node entries scheduled at
    /// the same instant. A data-start probe stamped exactly `t` ties with
    /// any instruction starting at `t`: the instruction runs first, so
    /// the early-acknowledge decision sees the receiver after it, and
    /// under Sliced a node that ran ahead has already recorded that state
    /// at `t`. A resend deadline at exactly `t` ties the same way (the
    /// node's sends at `t` must enter the line queue before the
    /// retransmission starts). Both engines apply the deferral, which
    /// establishes one canonical order. Requeueing terminates because
    /// each node micro-step costs at least one cycle, so after the tied
    /// nodes run they are rescheduled strictly later than `t`.
    fn wire_pop_deferred(&mut self, w: usize, t: u64) -> bool {
        // A clean routed wire holds neither a probe nor a resend.
        if self.router.is_some() && !self.fabric.robust {
            return false;
        }
        // A node entry pending at `t` would be the queue's next entry.
        if !self.fabric.wires[w].due_exactly_at(t) || self.fabric.queue.peek_time() != Some(t) {
            return false;
        }
        let hot = &self.fabric.hot;
        let node_pending = (0..self.nodes.len()).any(|n| hot.scheduled[n] && hot.next_ns[n] == t);
        if node_pending {
            self.fabric.queue.push(t, Actor::Wire(w));
        }
        node_pending
    }

    /// A wire's heap entry popped at `t`: skip it if stale or deferred
    /// behind same-instant node entries, otherwise consume it. Returns
    /// whether the stepper should drain the wire (its drain reschedules
    /// it) and then fire due retransmissions.
    fn pop_wire(&mut self, w: usize, t: u64) -> bool {
        self.pops.wire += 1;
        if self.fabric.wire_next[w] == t && !self.wire_pop_deferred(w, t) {
            self.fabric.wire_next[w] = u64::MAX;
            true
        } else {
            self.pops.stale_wire += 1;
            false
        }
    }

    /// The Event oracle's node arm: one instruction, its link service
    /// stamped at the frontier, and the node's next entry.
    fn step_instruction(&mut self, n: usize) -> Result<(), SimError> {
        self.fabric.hot.scheduled[n] = false;
        let now = self.now_ns;
        if self.nodes[n].is_idle() {
            // Bring the idle node's local clock up to global time (this
            // may wake timer waits that are now due).
            self.nodes[n].advance_idle_to(now / CYCLE_NS);
        }
        let event = self.nodes[n].step();
        if let StepEvent::Halted(reason) = event {
            if reason != HaltReason::Stopped {
                return Err(SimError::NodeFault { node: n, reason });
            }
        }
        self.service_node_links_at(n, now);
        let fabric = &mut self.fabric;
        match event {
            StepEvent::Ran { cycles } => {
                fabric.schedule_node(n, now + u64::from(cycles) * CYCLE_NS)
            }
            StepEvent::Idle => {
                if let Some(wake_cycle) = self.nodes[n].next_timer_wake_cycle() {
                    fabric.schedule_node(n, (wake_cycle * CYCLE_NS).max(now + 1));
                }
                // Otherwise: the node sleeps until a wire wakes it.
            }
            StepEvent::Halted(_) => {}
        }
        Ok(())
    }

    /// The Sliced node arm: bound the slice, run it, apply it.
    fn step_slice(&mut self, n: usize, t: u64) -> Result<(), SimError> {
        if std::mem::take(&mut self.fabric.hot.fenced[n])
            && self.fabric.hot.ports[n]
                .iter()
                .any(|&w| w != usize::MAX && self.fabric.wire_next[w] == t)
        {
            // The node ran ahead and was fenced off this link
            // instruction: its entry was pushed before its wires' entries
            // for the same instant existed. Re-queue it behind them, once
            // — the order a node stopping at a wire bound gets.
            self.fabric.queue.push(t, Actor::Node(n));
            return Ok(());
        }
        self.fabric.hot.scheduled[n] = false;
        let t_peek = self.fabric.queue.peek_time();
        // Two horizons: link instructions run to the fence, before which
        // no wire event can reach this node; a node no wire event can
        // disturb runs everything else on, to the end of the run.
        let fence = self.slice_bound_ns(n, t_peek);
        let run = if self.nodes[n].link_sensitive() {
            fence
        } else {
            self.horizon_ns.unwrap_or(u64::MAX)
        };
        let (pop_cycles, outcome) = Self::run_slice_kernel(&mut self.nodes[n], t, fence, run);
        self.finish_slice(n, t, pop_cycles, outcome)
    }

    /// Earliest time node `m` can next act: its scheduled slice, a wire
    /// event addressed to it, or a chain of other events reaching it (no
    /// faster than the heap frontier plus one acknowledge flight).
    fn peer_activity_ns(&self, m: usize, t_peek: Option<u64>) -> u64 {
        let mut act = u64::MAX;
        if self.fabric.hot.scheduled[m] {
            act = self.fabric.hot.next_ns[m];
        }
        for port in 0..4 {
            let w = self.fabric.hot.ports[m][port];
            if w != usize::MAX {
                act = act.min(self.fabric.wire_next[w]);
            }
        }
        if let Some(tp) = t_peek {
            // Only pay for the peer's link state when the frontier term
            // could bind at all.
            if tp.saturating_add(self.ack_ns.min(self.data_ns)) < act {
                // An acknowledge can only land on a port whose owner
                // awaits one; any other first arrival is a data packet.
                let ports = &self.fabric.hot.ports[m];
                let awaiting = (0..4).any(|p| ports[p] != usize::MAX && self.awaits_ack(m, p));
                let hop_in = if awaiting { self.ack_ns } else { self.data_ns };
                act = act.min(tp.saturating_add(hop_in));
            }
        }
        act
    }

    /// How far node `node`, popped at `t`, may run without interacting
    /// with anything the wires could deliver first. `t_peek` is the heap
    /// frontier after the pop.
    fn slice_bound_ns(&self, node: usize, t_peek: Option<u64>) -> u64 {
        let mut direct = u64::MAX;
        for port in 0..4 {
            let w = self.fabric.hot.ports[node][port];
            if w == usize::MAX {
                continue;
            }
            direct = direct.min(self.fabric.wire_next[w]);
            let peer = self.fabric.hot.peers[node][port];
            // The first packet the peer could land on this node: an
            // acknowledge if our byte awaits one, else a data byte.
            let hop = if self.awaits_ack(node, port) {
                self.ack_ns
            } else {
                self.data_ns
            };
            let act = self.peer_activity_ns(peer, t_peek);
            direct = direct.min(act.saturating_add(hop));
        }
        self.horizon_ns.unwrap_or(u64::MAX).min(direct)
    }

    /// Run one node slice: advance an idle node's clock to the pop time
    /// `t` (exactly as the event engine does at a pop), record the cycle
    /// count at entry, and run link instructions until `fence`, all
    /// others until `run`. Returns that cycle count and what the slice
    /// did, for [`Network::finish_slice`] to apply.
    fn run_slice_kernel(cpu: &mut Cpu, t: u64, fence: u64, run: u64) -> (u64, SliceOutcome) {
        if cpu.is_idle() {
            cpu.advance_idle_to(t / CYCLE_NS);
        }
        let pop_cycles = cpu.cycles();
        // An instruction runs iff it *starts* before its bound; zero budget
        // still runs one micro-step, matching the event engine at ties.
        let budget = |bound: u64| {
            if bound > t {
                (bound - t).div_ceil(CYCLE_NS).min(MAX_SLICE_CYCLES)
            } else {
                0
            }
        };
        (pop_cycles, cpu.run_slice_fenced(budget(fence), budget(run)))
    }

    /// Apply a finished slice: stamp and service link activity, record
    /// receiver-state history, and reschedule the node. `t` is the pop
    /// time and `pop_cycles` the node's cycle count at the pop, so
    /// `stamp = t + (interaction_cycle - pop_cycles) * CYCLE_NS`
    /// reproduces the event engine's per-instruction event times even
    /// when an idle wake left the node's local clock behind global time.
    fn finish_slice(
        &mut self,
        node: usize,
        t: u64,
        pop_cycles: u64,
        outcome: SliceOutcome,
    ) -> Result<(), SimError> {
        let end_ns = t + (self.nodes[node].cycles() - pop_cycles) * CYCLE_NS;
        match outcome {
            SliceOutcome::Halted(HaltReason::Stopped) => {
                let stamp =
                    t + (self.nodes[node].slice_interaction_cycle() - pop_cycles) * CYCLE_NS;
                self.last_halt_ns = self.last_halt_ns.max(stamp);
                if self.nodes[node].take_links_dirty() {
                    self.refresh_ea(node, stamp);
                    self.service_node_links_at(node, stamp);
                }
            }
            SliceOutcome::Halted(reason) => {
                return Err(SimError::NodeFault { node, reason });
            }
            SliceOutcome::Idle => {
                if end_ns / CYCLE_NS > self.nodes[node].cycles() {
                    // A wire woke the node with its clock behind global
                    // time and it has gone idle again. The event engine
                    // pops it once more, where its last instruction
                    // ended, finds it idle and brings the clock up;
                    // timers and the cycle count depend on that.
                    self.fabric.schedule_node(node, end_ns);
                } else if let Some(wake_cycle) = self.nodes[node].next_timer_wake_cycle() {
                    let at = (wake_cycle * CYCLE_NS).max(end_ns + 1);
                    self.fabric.schedule_node(node, at);
                }
                // Otherwise: the node sleeps until a wire wakes it.
            }
            SliceOutcome::TxReady
            | SliceOutcome::RxWait
            | SliceOutcome::AckRaised
            | SliceOutcome::Preempted
            | SliceOutcome::BudgetExpired
            | SliceOutcome::Fenced => {
                // A fenced instruction has not run: the node resumes at
                // its start, `end_ns`, with nothing to service.
                self.fabric.hot.fenced[node] = outcome == SliceOutcome::Fenced;
                let stamp =
                    t + (self.nodes[node].slice_interaction_cycle() - pop_cycles) * CYCLE_NS;
                if self.nodes[node].take_links_dirty() {
                    self.refresh_ea(node, stamp);
                    self.service_node_links_at(node, stamp);
                } else if outcome == SliceOutcome::RxWait {
                    // An input began but sent nothing: the receiver state
                    // still changed at the interaction instruction.
                    self.refresh_ea(node, stamp);
                }
                self.fabric.schedule_node(node, end_ns);
            }
        }
        Ok(())
    }
}
