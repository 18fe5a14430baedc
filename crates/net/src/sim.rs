//! The co-simulation engine: nodes, wires, and a global event queue.
//!
//! Two steppers share one event queue (`queue.rs`: a heap in pop order,
//! with a wheel in front of it for the near future) and one set of
//! wire, link-service, resend and router routines:
//!
//! * **Event** — the reference oracle: one heap event per node
//!   micro-step. Each pop executes a single instruction, then offers
//!   transmit bytes and acknowledges to the node's wires. Its classic-link
//!   path (`service_node_links` / `process_wire`)
//!   resolves everything inline at the frontier and is deliberately kept
//!   apart from the sliced path: it is what the tests compare against.
//! * **Sliced** (default) — the one fast engine: each pop runs a whole
//!   *slice* of instructions via [`Cpu::run_slice_fenced`]. Link
//!   instructions run up to the *link fence*, the earliest wire activity
//!   that could affect the node; everything else runs up to the *run
//!   horizon* — the fence while a wire event could do more to the
//!   processor than fill a link buffer ([`Cpu::link_sensitive`]), the
//!   end of the run otherwise: a node that is only computing runs past
//!   its wires to its own next link instruction. The heap holds one
//!   entry per node-slice instead of one per instruction, which is what
//!   makes large networks fast to simulate.
//!
//! There is no host-parallel engine (DESIGN.md §10 records why);
//! [`Engine::Parallel`] survives only as a shim that runs Sliced.
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

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;

use transputer::timing::CYCLE_NS;
use transputer::{Cpu, CpuConfig, HaltReason, SliceOutcome, StepEvent};
use transputer_link::{
    AckPolicy, DuplexLink, End, FaultPlan, LinkEvent, LinkProtocol, LinkSpeed, PacketKind,
};

use crate::queue::{Actor, EventQueue};
use crate::router::{Act, RouterConfig, RouterNet, RouterStats};
use crate::topology::{adjacency, hypercube_tables, route_tables, WireEnds};

/// Index of a node in a [`Network`].
pub type NodeId = usize;

/// Cap on a single slice, so an instruction-loop without interaction
/// points still yields to the heap (and to `run_until` predicates /
/// budget checks) every so often.
const MAX_SLICE_CYCLES: u64 = 1 << 22;

/// Which execution engine a [`Network`] uses to advance time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// The hidden variant is a benchmark shim on its way out, not a
// non-exhaustiveness marker.
#[allow(clippy::manual_non_exhaustive)]
pub enum Engine {
    /// One heap event per node micro-step (the reference engine).
    Event,
    /// Conservative lookahead windows: one heap entry per node-slice.
    #[default]
    Sliced,
    /// Shim for the deleted host-parallel engine: runs exactly as
    /// [`Engine::Sliced`]. Kept only because the system benchmark names
    /// it; goes away with the next benchmark revision.
    #[doc(hidden)]
    Parallel,
}

/// Network-wide configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Configuration applied to every node (per-node overrides via
    /// [`NetworkBuilder::add_node_with`]). Every node runs at the T424's
    /// clock and every wire at the standard 10 Mbit/s (§2.3.1).
    pub cpu: CpuConfig,
    /// When receivers acknowledge (the paper's design is early
    /// acknowledge; `AfterStop` exists for the ablation benchmark).
    pub ack_policy: AckPolicy,
    /// Execution engine.
    pub engine: Engine,
    /// Fault schedule. `Some` switches every wire to the robust link
    /// protocol (sequence + parity frames, timeout/retry at the sender)
    /// and injects the planned faults; `None` is the paper's perfect
    /// classic network.
    pub fault: Option<FaultPlan>,
    /// Virtual-channel router tuning (forwarding capacity and switching
    /// discipline). Ignored unless the router is enabled; defaulted to
    /// the values every committed fingerprint was produced with.
    pub router: RouterConfig,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            cpu: CpuConfig::t424(),
            ack_policy: AckPolicy::Early,
            engine: Engine::default(),
            fault: None,
            router: RouterConfig::default(),
        }
    }
}

/// Why a simulation run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOutcome {
    /// Every node halted cleanly.
    AllHalted,
    /// The requested duration elapsed.
    TimeLimit,
    /// Nothing can ever happen again: all nodes idle, no timers armed,
    /// all wires quiescent.
    Deadlock,
    /// A user-supplied predicate was satisfied.
    Condition,
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A node halted for an abnormal reason (fault, error flag).
    NodeFault {
        /// Which node.
        node: NodeId,
        /// Why it halted.
        reason: HaltReason,
    },
    /// The time budget was exhausted before the stopping condition.
    Budget {
        /// The budget, in nanoseconds.
        ns: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NodeFault { node, reason } => {
                write!(f, "node {node} halted abnormally: {reason}")
            }
            SimError::Budget { ns } => write!(f, "simulation budget of {ns} ns exhausted"),
        }
    }
}

impl std::error::Error for SimError {}

/// One end of a wire: which node, which of its four link ports.
type Port = (NodeId, usize);

/// Retransmission state for the data byte a wire end has in flight
/// (robust protocol). Cleared by the fresh acknowledge; fired by wire
/// pops when the deadline passes. The byte goes out again with the
/// end's transmit bit, which only that acknowledge flips.
#[derive(Debug, Clone, Copy)]
struct Resend {
    byte: u8,
    /// When to retransmit if no acknowledge (or busy) arrives first.
    deadline: u64,
    /// Timeouts burned since the last acknowledge or busy.
    attempts: u32,
    /// Current deadline spacing; doubled by each busy notice so a slow
    /// receiver is polled, not flooded.
    interval_ns: u64,
}

#[derive(Debug)]
struct Wire {
    link: DuplexLink,
    ends: [Port; 2],
    /// Whether the data byte currently in flight toward each end was
    /// already acknowledged early (indexed by receiving end).
    early_acked: [bool; 2],
    /// Data bytes delivered in each direction (toward end 0 / end 1).
    /// Under the robust protocol, only *accepted* (non-duplicate) bytes
    /// count, so the counts match the classic protocol's exactly.
    delivered: [u64; 2],
    /// Data-start probes not yet resolved, with their stamped times.
    /// Only the sliced engine uses these: a send performed at a slice
    /// exit is stamped with the exit instruction's start time, which may
    /// lie ahead of the global frontier, so the early-acknowledge
    /// decision is deferred to a heap event at that stamp.
    probes: Vec<(u64, End)>,
    /// Robust protocol: retransmission state per *sending* end.
    resend: [Option<Resend>; 2],
    /// Alternating-bit state per end (robust protocol): the bit the
    /// end's data byte in flight, or its next one, carries. Flips on the
    /// fresh acknowledge.
    tx_bit: [bool; 2],
    /// The bit the next fresh data byte toward each end must carry.
    /// Flips on each byte accepted, so the end's acknowledges and busy
    /// notices carry its complement.
    rx_bit: [bool; 2],
    /// Directions declared failed after the retry budget ran out
    /// (indexed by sending end).
    failed: [bool; 2],
}

/// The robust protocol's sequence bits, written once for both owners:
/// every frame an end sends is stamped here, and every data byte and
/// acknowledge that reaches an end is filtered here before the end's
/// CPU or router sees it. A classic line carries no bit, so there every
/// byte is fresh, and so is every acknowledge with a byte awaiting it.
impl Wire {
    fn classic(&self) -> bool {
        self.link.protocol() == LinkProtocol::Classic
    }

    /// Put a frame from `end` on the line with the end's sequence bit:
    /// a data byte carries the transmit bit; an acknowledge or busy
    /// notice, the bit of the last byte the end accepted.
    fn send(&mut self, end: End, kind: PacketKind, now: u64) {
        let ei = end_index(end);
        let bit = match kind {
            PacketKind::Data(_) => self.tx_bit[ei],
            PacketKind::Ack | PacketKind::Busy => !self.rx_bit[ei],
        };
        self.link.send(end, kind, bit, now);
    }

    /// Whether a data byte carrying `bit` that reached `to` is fresh; a
    /// fresh byte flips the end's receive bit. Any other byte repeats
    /// the last one accepted, whose acknowledge was lost or is still
    /// held.
    fn accept_data(&mut self, to: End, bit: bool) -> bool {
        let ei = end_index(to);
        let fresh = self.classic() || bit == self.rx_bit[ei];
        if fresh {
            self.rx_bit[ei] = !self.rx_bit[ei];
        }
        fresh
    }

    /// Whether an acknowledge carrying `bit` that reached `to` is fresh:
    /// the end's owner has a byte `awaiting` it, and the bit is the
    /// end's transmit bit, which then flips. Any other acknowledge
    /// repeats one already acted on and changes nothing.
    fn accept_ack(&mut self, to: End, bit: bool, awaiting: bool) -> bool {
        let ei = end_index(to);
        let fresh = awaiting && (self.classic() || bit == self.tx_bit[ei]);
        if fresh {
            self.tx_bit[ei] = !self.tx_bit[ei];
        }
        fresh
    }

    /// A busy notice carrying `bit` reached `to` at `now`. If it names
    /// the byte in flight, the receiver holds that byte but cannot
    /// release its acknowledge yet (a slow consumer, or a router exerting
    /// backpressure): poll with backoff instead of burning the retry
    /// budget.
    fn busy(&mut self, to: End, bit: bool, now: u64, timeout_ns: u64) {
        let ei = end_index(to);
        if bit != self.tx_bit[ei] {
            return;
        }
        if let Some(r) = &mut self.resend[ei] {
            r.attempts = 0;
            r.interval_ns = r.interval_ns.saturating_mul(2).min(timeout_ns * 16);
            r.deadline = now + r.interval_ns;
        }
    }
}

/// Per-port early-acknowledge history: enough state to answer "would
/// this port have acknowledged early at time `stamp`" for one probe
/// stamped earlier than the port's latest state change. One level of
/// history suffices: a node's slice ends at the instruction that changes
/// this state, and the node is rescheduled at or after that instruction,
/// so at most one applied change can postdate any in-flight probe.
#[derive(Debug, Clone, Copy, Default)]
struct EaState {
    /// Value after the most recent recorded change.
    last: bool,
    /// Stamp of the most recent recorded change.
    stamp: u64,
    /// Value before that change.
    prev: bool,
}

/// How a routed network derives its tables from its link map.
#[derive(Debug, Clone, Copy)]
enum RouteShape {
    /// BFS shortest paths with a fixed port preference — deterministic
    /// on any connected graph (and exactly XY dimension order on grids).
    General,
    /// Closed-form e-cube order on a clustered hypercube; falls back to
    /// BFS whenever wires are dead at boot.
    Hypercube { dim: usize, side: usize },
}

/// Router configuration accumulated by the builder.
#[derive(Debug)]
struct RouterBuild {
    shape: RouteShape,
    /// Virtual channels in registration order: `(src, dst)` CPU ports.
    vcs: Vec<(Port, Port)>,
}

/// Incremental builder for a [`Network`].
#[derive(Debug)]
pub struct NetworkBuilder {
    config: NetworkConfig,
    nodes: Vec<Cpu>,
    wires: Vec<WireEnds>,
    used: Vec<[bool; 4]>,
    router: Option<RouterBuild>,
}

impl NetworkBuilder {
    /// Start building a network.
    pub fn new(config: NetworkConfig) -> NetworkBuilder {
        NetworkBuilder {
            config,
            nodes: Vec::new(),
            wires: Vec::new(),
            used: Vec::new(),
            router: None,
        }
    }

    /// Add a node with the network-wide CPU configuration.
    pub fn add_node(&mut self) -> NodeId {
        self.add_node_with(self.config.cpu.clone())
    }

    /// Add a node with its own CPU configuration — "transputers of
    /// different wordlength ... can be easily interconnected" (§2.3).
    pub fn add_node_with(&mut self, cpu: CpuConfig) -> NodeId {
        self.nodes.push(Cpu::new(cpu));
        self.used.push([false; 4]);
        self.nodes.len() - 1
    }

    /// Connect two link ports with a wire.
    ///
    /// # Panics
    ///
    /// Panics if a port index exceeds 3, a node does not exist, or a port
    /// is already wired — all construction-time mistakes.
    pub fn connect(&mut self, a: Port, b: Port) -> &mut NetworkBuilder {
        for &(node, port) in &[a, b] {
            assert!(node < self.nodes.len(), "no such node {node}");
            assert!(port < 4, "link ports are 0..4, got {port}");
            assert!(
                !self.used[node][port],
                "port {port} of node {node} already wired"
            );
        }
        assert!(a != b, "cannot wire a port to itself");
        self.used[a.0][a.1] = true;
        self.used[b.0][b.1] = true;
        self.wires.push((a, b));
        self
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Connect a whole wire list, in order — how a
    /// [`crate::topology`] sweep becomes a machine.
    ///
    /// # Panics
    ///
    /// As [`NetworkBuilder::connect`], per wire.
    pub fn connect_all(&mut self, wires: &[WireEnds]) -> &mut NetworkBuilder {
        for &(a, b) in wires {
            self.connect(a, b);
        }
        self
    }

    /// Turn the network into a routed (virtual-channel) network: every
    /// wire endpoint becomes router-owned, and the four CPU link ports
    /// of each node become local virtual-channel endpoints (see
    /// [`crate::router`]). The router's link map is derived at
    /// [`NetworkBuilder::build`] from the wires connected by then
    /// ([`adjacency`]), so wires may be connected before or after this
    /// call. Routing tables are built by deterministic BFS shortest
    /// paths ([`route_tables`]).
    ///
    /// # Panics
    ///
    /// Panics if the router is already enabled.
    pub fn enable_router(&mut self) -> &mut NetworkBuilder {
        self.enable_router_with(RouteShape::General)
    }

    /// Like [`NetworkBuilder::enable_router`], but with closed-form
    /// e-cube tables for a clustered hypercube whose first wires are
    /// [`crate::topology::hypercube_wires`] (host leaves wired on
    /// afterwards are routed through their cluster anchors). Falls back
    /// to BFS when wires are dead at boot.
    pub fn enable_router_hypercube(&mut self, dim: usize, side: usize) -> &mut NetworkBuilder {
        self.enable_router_with(RouteShape::Hypercube { dim, side })
    }

    fn enable_router_with(&mut self, shape: RouteShape) -> &mut NetworkBuilder {
        assert!(self.router.is_none(), "router already enabled");
        self.router = Some(RouterBuild {
            shape,
            vcs: Vec::new(),
        });
        self
    }

    /// Register a virtual channel from CPU port `src` to CPU port `dst`
    /// and return its network-wide id. Consecutive messages written to
    /// one CPU out port round-robin across the channels registered on
    /// it, in registration order.
    ///
    /// # Panics
    ///
    /// Panics without [`NetworkBuilder::enable_router`], on out-of-range
    /// ports, or if the channel would loop a node to itself.
    pub fn add_vc(&mut self, src: Port, dst: Port) -> u16 {
        let n = self.nodes.len();
        let rb = self.router.as_mut().expect("enable_router before add_vc");
        assert!(src.0 < n && dst.0 < n, "no such node");
        assert!(src.1 < 4 && dst.1 < 4, "link ports are 0..4");
        assert!(
            src.0 != dst.0,
            "virtual channel would loop node {} to itself",
            src.0
        );
        rb.vcs.push((src, dst));
        u16::try_from(rb.vcs.len() - 1).expect("too many virtual channels")
    }

    /// Finish: produce the network.
    ///
    /// # Panics
    ///
    /// Panics on 2^23 or more nodes, or as many wires: the event queue
    /// packs a node or wire index into 23 bits of its keys.
    pub fn build(self) -> Network {
        let n = self.nodes.len();
        let queue = EventQueue::new(n, self.wires.len());
        let mut port_to_wire = vec![[usize::MAX; 4]; n];
        let mut peers = vec![[usize::MAX; 4]; n];
        let speed = LinkSpeed::standard();
        let fault = self.config.fault.clone();
        let wires: Vec<Wire> = self
            .wires
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let link = match &fault {
                    Some(plan) => DuplexLink::new_robust(
                        speed,
                        [Some(plan.line_faults(i, 0)), Some(plan.line_faults(i, 1))],
                        plan.dead_from(i),
                    ),
                    None => DuplexLink::new(speed),
                };
                port_to_wire[a.0][a.1] = i;
                port_to_wire[b.0][b.1] = i;
                peers[a.0][a.1] = b.0;
                peers[b.0][b.1] = a.0;
                Wire {
                    link,
                    ends: [a, b],
                    early_acked: [false; 2],
                    delivered: [0; 2],
                    probes: Vec::new(),
                    resend: [None; 2],
                    tx_bit: [false; 2],
                    rx_bit: [false; 2],
                    failed: [false; 2],
                }
            })
            .collect();
        let w = wires.len();
        let protocol = if fault.is_some() {
            LinkProtocol::Robust
        } else {
            LinkProtocol::Classic
        };
        let data_ns = speed.frame_ns(protocol, PacketKind::Data(0));
        let ack_ns = speed.frame_ns(protocol, PacketKind::Ack);
        let bit_ns = speed.bit_time_ns;
        let (timeout_ns, max_retries) = match &fault {
            Some(plan) => (
                u64::from(plan.timeout_bits.max(1)) * bit_ns,
                plan.max_retries,
            ),
            None => (0, 0),
        };
        let robust = fault.is_some();
        let router_cfg = self.config.router;
        let router = self.router.map(|rb| {
            let adj = adjacency(n, &self.wires);
            // Wires dead from the very start never carry a byte; exclude
            // them from the initial tables rather than waiting for the
            // retry budget to discover them.
            let mut dead: HashSet<usize> = HashSet::new();
            if let Some(plan) = &fault {
                for wire in 0..w {
                    if plan.dead_from(wire) == Some(0) {
                        dead.insert(wire);
                    }
                }
            }
            let tables = match rb.shape {
                RouteShape::General => route_tables(&adj, &dead),
                RouteShape::Hypercube { dim, side } => hypercube_tables(&adj, dim, side, &dead),
            };
            // Wormhole deadlock freedom rests on an acyclic
            // channel-dependency graph. `RouterNet::new` runs the proof
            // itself and degrades cut-through to store-and-forward when
            // it fails (notably the cluster-hypercube's e-cube tables,
            // whose anchor-corner walks close cross-route cycles).
            RouterNet::new(adj, tables, dead, &rb.vcs, router_cfg)
        });
        // A wire can die under a live cut-through stream only on robust
        // wires whose cut-through proof held at build. Its teardown
        // starts transmits beyond the dead wire's ends with no flight
        // time from the failure, so the transmit bits stay saturated,
        // pinning the hop at one acknowledge frame (DESIGN.md §11).
        let pin_tx_flight = robust && router.as_ref().is_some_and(RouterNet::cut_through);
        let hot = NodeHot {
            scheduled: vec![false; n],
            next_ns: vec![0; n],
            ports: port_to_wire,
            peers,
            tx_flight: vec![if pin_tx_flight { 0b1111 } else { 0 }; n],
            ea: vec![[EaState::default(); 4]; n],
            fenced: vec![false; n],
        };
        let mut net = Network {
            config: self.config,
            nodes: self.nodes,
            wires,
            hot,
            queue,
            now_ns: 0,
            ea_primed: false,
            horizon_ns: None,
            data_ns,
            ack_ns,
            robust,
            timeout_ns,
            max_retries,
            wire_next: vec![u64::MAX; w],
            router,
            pin_tx_flight,
            halted_below: Cell::new(0),
            last_halt_ns: 0,
            events: Vec::new(),
            acts: Vec::new(),
            pops: PopCounts::default(),
        };
        for i in 0..n {
            net.schedule_node(i, 0);
        }
        net
    }
}

/// The hot side of the per-node state split: everything the sliced
/// engine reads per node while computing slice bounds, kept as dense
/// arrays. Computing one node's bound touches
/// this state for the node *and each of its peers*; keeping those few
/// words contiguous instead of striding through the multi-kilobyte
/// [`Cpu`] structs (the cold side: memory images, register state, link
/// engines, stats, caches) keeps the sweep inside a handful of cache
/// lines per node.
#[derive(Debug, Default)]
struct NodeHot {
    /// Guards against flooding the queue with duplicate node events.
    scheduled: Vec<bool>,
    /// The heap time of each scheduled node (valid while `scheduled`);
    /// feeds the peer-activity bound.
    next_ns: Vec<u64>,
    /// Wire index per port (`usize::MAX` = unwired).
    ports: Vec<[usize; 4]>,
    /// Peer node per port (`usize::MAX` = unwired).
    peers: Vec<[usize; 4]>,
    /// Bitmask of ports with a transmit byte in flight on the attached
    /// wire, kept by one rule whether the CPU or the router owns the
    /// end: set where a data byte goes on the wire ([`Network::put`], or
    /// the Event oracle's inline classic send) and cleared where its
    /// fresh acknowledge is drained. A spurious set bit would only
    /// shorten a bound (safe), but a missing one would lengthen it past
    /// an acknowledge arrival (unsound); [`Network::tx_mirror_holds`]
    /// checks the rule wherever a bound reads the mirror.
    tx_flight: Vec<u8>,
    /// Early-acknowledge history per port (sliced engine).
    ea: Vec<[EaState; 4]>,
    /// The node's heap entry stands at a link instruction it was fenced
    /// off ([`SliceOutcome::Fenced`]): pushed when the node ran ahead,
    /// possibly long before its wires' entries for the same instant.
    fenced: Vec<bool>,
}

/// A running network of transputers.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    nodes: Vec<Cpu>,
    wires: Vec<Wire>,
    /// Dense per-node scheduling state (the hot side of the node split).
    hot: NodeHot,
    queue: EventQueue,
    now_ns: u64,
    /// Whether `hot.ea` has been initialised from live link state.
    ea_primed: bool,
    /// Hard upper bound on slice extents during `run_for`/`run_until`.
    horizon_ns: Option<u64>,
    /// Flight time of a data packet at the configured link speed.
    data_ns: u64,
    /// Flight time of an acknowledge packet.
    ack_ns: u64,
    /// Whether the wires speak the robust protocol (fault plan present).
    robust: bool,
    /// Sender resend timeout under the robust protocol.
    timeout_ns: u64,
    /// Retry budget per data byte under the robust protocol.
    max_retries: u32,
    /// Pop time of each wire's single live heap entry (`u64::MAX` =
    /// none), maintained by [`Self::schedule_wire`]. Doubles as the
    /// dedup guard — a popped entry whose time no longer matches is
    /// stale and skipped — and feeds the slice bounds without
    /// rescanning link state (never later than the wire's true next
    /// event, so the bounds stay conservative).
    wire_next: Vec<u64>,
    /// The virtual-channel router, when enabled: it owns every wire
    /// endpoint, and the CPUs' link ports become virtual-channel
    /// endpoints (see [`crate::router`]).
    router: Option<RouterNet>,
    /// `hot.tx_flight` was saturated at build and is never cleared (see
    /// [`NetworkBuilder::build`]).
    pin_tx_flight: bool,
    /// Every node below this index has halted cleanly: where
    /// [`Network::all_halted`] resumes its scan.
    halted_below: Cell<usize>,
    /// Start stamp of the latest halting instruction a slice has run. A
    /// node may halt far ahead of the frontier; the run is over only
    /// once the queue has caught up with it (see
    /// [`Network::all_halted`]).
    last_halt_ns: u64,
    /// Scratch for one classic wire drain's link events, reused across
    /// pops (a routed drain takes at most two, by value).
    events: Vec<LinkEvent>,
    /// Scratch for one router call's requested effects, likewise.
    acts: Vec<(usize, Act)>,
    pops: PopCounts,
}

/// Heap pops since the network was built. Host-side observability,
/// never fingerprinted: node pops depend on the engine's slicing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopCounts {
    /// Node entries: instructions under Event, slices under Sliced.
    pub node: u64,
    /// Wire entries.
    pub wire: u64,
    /// Wire entries skipped, not drained: superseded by an earlier entry
    /// for the wire, or requeued behind same-instant node entries.
    pub stale_wire: u64,
}

impl Network {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulated time in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        self.now_ns
    }

    /// The engine advancing this network.
    pub fn engine(&self) -> Engine {
        self.config.engine
    }

    /// Shim for the deleted host-parallel engine's worker count: does
    /// nothing. Kept only because the system benchmark calls it.
    #[doc(hidden)]
    pub fn set_par_workers(&mut self, _workers: usize) {}

    /// Shim for the deleted host-parallel engine's pool counter: no
    /// engine spawns threads, so always zero. Kept only because the
    /// system benchmark reads it.
    #[doc(hidden)]
    pub fn pool_spawned_threads(&self) -> u64 {
        0
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Cpu {
        &self.nodes[id]
    }

    /// Mutable access to a node (program loading, inspection).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Cpu {
        // The caller may replace a halted node with a live one.
        let below = self.halted_below.get_mut();
        *below = (*below).min(id);
        &mut self.nodes[id]
    }

    /// Heap pops so far, by kind (see [`PopCounts`]).
    pub fn pop_counts(&self) -> PopCounts {
        self.pops
    }

    /// Data bytes delivered over a wire, per direction. Under the robust
    /// protocol only accepted (non-duplicate) bytes count.
    pub fn wire_delivered(&self, wire: usize) -> (u64, u64) {
        (self.wires[wire].delivered[0], self.wires[wire].delivered[1])
    }

    /// Whether each transmit direction of a wire (from end 0, from end 1)
    /// has been declared failed after exhausting its retry budget.
    pub fn wire_failed(&self, wire: usize) -> (bool, bool) {
        (self.wires[wire].failed[0], self.wires[wire].failed[1])
    }

    /// Whether any wire direction in the network has been declared
    /// failed.
    pub fn any_link_failed(&self) -> bool {
        self.wires.iter().any(|w| w.failed[0] || w.failed[1])
    }

    /// Both ends of a wire, A then B, as it was connected.
    pub fn wire_ends(&self, wire: usize) -> WireEnds {
        let [a, b] = self.wires[wire].ends;
        (a, b)
    }

    /// Whether this network routes messages through the virtual-channel
    /// router (see [`NetworkBuilder::enable_router`]).
    pub fn routed(&self) -> bool {
        self.router.is_some()
    }

    /// Network-wide router activity counters, `None` unless routed.
    /// Host-side observability only — never part of fingerprints.
    pub fn router_stats(&self) -> Option<RouterStats> {
        self.router.as_ref().map(RouterNet::stats)
    }

    /// Whether wormhole cut-through forwarding is *currently* active:
    /// `Some(true)` only when the router was configured for
    /// [`crate::Switching::Wormhole`] and its live tables carry an
    /// acyclic channel-dependency graph (the deadlock-freedom proof —
    /// re-run at every wire-death rebuild, so this can flip to
    /// `Some(false)` mid-run). `None` unless routed.
    pub fn router_cut_through(&self) -> Option<bool> {
        self.router.as_ref().map(RouterNet::cut_through)
    }

    /// Whether the router's *current* tables connect `from` to `to`
    /// (they shrink as wires die). Always true on non-routed networks,
    /// where reachability is the application's planning problem.
    pub fn route_reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.router.as_ref().is_none_or(|r| r.reachable(from, to))
    }

    /// Number of wires.
    pub fn wire_count(&self) -> usize {
        self.wires.len()
    }

    /// Utilisation of a wire's two directions (from end 0, from end 1)
    /// over the elapsed simulation time, each in [0, 1]: cumulative
    /// transmit time over elapsed time.
    pub fn wire_utilization(&self, wire: usize) -> (f64, f64) {
        if self.now_ns == 0 {
            return (0.0, 0.0);
        }
        let busy = |end| self.wires[wire].link.busy_ns(end) as f64 / self.now_ns as f64;
        (busy(End::A), busy(End::B))
    }

    fn schedule_node(&mut self, node: usize, at: u64) {
        if !self.hot.scheduled[node] {
            self.hot.scheduled[node] = true;
            self.hot.next_ns[node] = at;
            self.queue.push(at, Actor::Node(node));
        }
    }

    /// Earliest pending activity on a wire (`u64::MAX` = none): an
    /// in-flight packet completion, an unresolved data-start probe, or a
    /// resend deadline.
    fn wire_next_event_ns(&self, wire: usize) -> u64 {
        let w = &self.wires[wire];
        let mut t = w.link.next_deadline().unwrap_or(u64::MAX);
        for &(stamp, _) in &w.probes {
            t = t.min(stamp);
        }
        for r in &w.resend {
            t = t.min(r.map_or(u64::MAX, |r| r.deadline));
        }
        t
    }

    fn schedule_wire(&mut self, wire: usize) {
        let t = self.wire_next_event_ns(wire);
        if t == u64::MAX {
            self.wire_next[wire] = u64::MAX;
            return;
        }
        // At most one live heap entry per wire (`wire_next` holds its
        // time; `u64::MAX` = none). An entry firing no later than `t`
        // recomputes the schedule when it pops, so pushing a duplicate
        // here would only breed no-op pops — each one rescheduling in
        // turn, O(n^2) heap churn on a busy routed wire.
        if self.wire_next[wire] <= t {
            return;
        }
        self.wire_next[wire] = t;
        self.queue.push(t, Actor::Wire(wire));
    }

    /// Process a node's link-facing state after it ran or was poked:
    /// offer transmit bytes and deferred acknowledges to its wires.
    fn service_node_links(&mut self, node: usize) {
        if self.router.is_some() {
            self.router_service(node, self.now_ns);
            return;
        }
        if self.robust {
            // The robust protocol has no reception-start decisions, so
            // the stamped path (which defers all wire work to heap
            // events) is exact for every engine; sharing it keeps the
            // engines' robust behaviour structurally identical.
            self.service_node_links_at(node, self.now_ns);
            return;
        }
        for port in 0..4 {
            let w = self.hot.ports[node][port];
            if w == usize::MAX {
                continue;
            }
            let end = if self.wires[w].ends[0] == (node, port) {
                End::A
            } else {
                End::B
            };
            let mut touched = false;
            if self.nodes[node].link_take_deferred_ack(port) {
                self.wires[w].link.send_ack(end, self.now_ns);
                touched = true;
            }
            if let Some(byte) = self.nodes[node].link_tx_poll(port) {
                self.wires[w].link.send_data(end, byte, self.now_ns);
                self.hot.tx_flight[node] |= 1 << port;
                touched = true;
            }
            if touched {
                self.process_wire(w);
            }
        }
    }

    /// Drain a wire's due events and route them to the endpoint CPUs:
    /// the Event oracle's inline classic drain. Routed and robust wires
    /// go to the shared drain; their lines make no start events, so its
    /// probe half has nothing to do.
    fn process_wire(&mut self, w: usize) {
        if self.router.is_some() || self.robust {
            self.drain_wire(w);
            return;
        }
        let events = self.wires[w].link.advance(self.now_ns);
        for ev in events {
            match ev {
                LinkEvent::DataStarted { to } => {
                    let (node, port) = self.wire_end(w, to);
                    let early = self.config.ack_policy == AckPolicy::Early
                        && self.nodes[node].link_rx_early_ack(port);
                    let ei = end_index(to);
                    self.wires[w].early_acked[ei] = early;
                    if early {
                        self.wires[w].link.send_ack(to, self.now_ns);
                    }
                }
                LinkEvent::DataDelivered { to, byte, .. } => {
                    let (node, port) = self.wire_end(w, to);
                    let ei = end_index(to);
                    self.wires[w].delivered[ei] += 1;
                    let was_idle = self.nodes[node].is_idle();
                    let ack_now = self.nodes[node].link_rx_deliver(port, byte);
                    if ack_now && !self.wires[w].early_acked[ei] {
                        self.wires[w].link.send_ack(to, self.now_ns);
                    }
                    self.wires[w].early_acked[ei] = false;
                    if was_idle && !self.nodes[node].is_idle() {
                        self.sync_and_wake(node);
                    }
                    // Delivery may have completed a message and the woken
                    // process is not needed for further RX; nothing else.
                }
                LinkEvent::AckDelivered { to, .. } => {
                    let (node, port) = self.wire_end(w, to);
                    let was_idle = self.nodes[node].is_idle();
                    self.nodes[node].link_tx_ack(port);
                    self.hot.tx_flight[node] &= !(1 << port);
                    if was_idle && !self.nodes[node].is_idle() {
                        self.sync_and_wake(node);
                    }
                    // The output port may have another byte ready now.
                    self.service_node_links(node);
                }
                LinkEvent::BusyDelivered { .. } | LinkEvent::Garbled { .. } => {
                    unreachable!("classic lines emit no robust events")
                }
            }
        }
        self.schedule_wire(w);
    }

    fn wire_end(&self, w: usize, end: End) -> Port {
        self.wires[w].ends[end_index(end)]
    }

    /// Schedule a just-woken node; its clock is synced when its event
    /// fires.
    fn sync_and_wake(&mut self, node: usize) {
        self.schedule_node(node, self.now_ns);
    }

    /// Advance the simulation by exactly one event. Returns false when
    /// nothing remains to simulate.
    pub fn step_event(&mut self) -> Result<bool, SimError> {
        let Some((t, actor)) = self.queue.pop() else {
            return Ok(false);
        };
        self.now_ns = self.now_ns.max(t);
        match actor {
            Actor::Wire(w) => {
                if self.pop_wire(w, t) {
                    self.process_wire(w);
                    self.fire_due_resends(w);
                }
            }
            Actor::Node(n) => {
                self.pops.node += 1;
                self.hot.scheduled[n] = false;
                if self.nodes[n].is_idle() {
                    // Bring the idle node's local clock up to global time
                    // (this may wake timer waits that are now due).
                    let target = self.now_ns / CYCLE_NS;
                    self.nodes[n].advance_idle_to(target);
                }
                match self.nodes[n].step() {
                    StepEvent::Ran { cycles } => {
                        let next = self.now_ns + u64::from(cycles) * CYCLE_NS;
                        self.service_node_links(n);
                        self.schedule_node(n, next);
                    }
                    StepEvent::Idle => {
                        self.service_node_links(n);
                        if let Some(wake_cycle) = self.nodes[n].next_timer_wake_cycle() {
                            let at = (wake_cycle * CYCLE_NS).max(self.now_ns + 1);
                            self.schedule_node(n, at);
                        }
                        // Otherwise: the node sleeps until a wire wakes it.
                    }
                    StepEvent::Halted(HaltReason::Stopped) => {
                        self.service_node_links(n);
                    }
                    StepEvent::Halted(reason) => {
                        return Err(SimError::NodeFault { node: n, reason });
                    }
                }
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // The lookahead (sliced) engine.
    // ------------------------------------------------------------------

    /// Initialise the early-acknowledge history from live link state.
    /// Runs at the first sliced step so program loading and boot
    /// configuration between `build()` and the first run are captured.
    fn prime_ea(&mut self) {
        if self.ea_primed {
            return;
        }
        self.ea_primed = true;
        for node in 0..self.nodes.len() {
            for port in 0..4 {
                if self.hot.ports[node][port] == usize::MAX {
                    continue;
                }
                let live = self.nodes[node].link_rx_early_ack(port);
                self.hot.ea[node][port] = EaState {
                    last: live,
                    stamp: self.now_ns,
                    prev: live,
                };
            }
        }
    }

    /// Record any change to a node's receiver-visible link state, stamped
    /// with the instruction (or wire event) that caused it.
    fn refresh_ea(&mut self, node: usize, stamp: u64) {
        for port in 0..4 {
            if self.hot.ports[node][port] == usize::MAX {
                continue;
            }
            let live = self.nodes[node].link_rx_early_ack(port);
            let e = &mut self.hot.ea[node][port];
            if live != e.last {
                e.prev = e.last;
                e.stamp = stamp;
                e.last = live;
            }
        }
    }

    /// Would `node`'s receiver on `port` have acknowledged early at time
    /// `stamp`? Current state answers for stamps at or after the latest
    /// recorded change; the one-deep history answers for older probes.
    fn ea_at(&self, node: usize, port: usize, stamp: u64) -> bool {
        let e = &self.hot.ea[node][port];
        if stamp >= e.stamp {
            self.nodes[node].link_rx_early_ack(port)
        } else {
            e.prev
        }
    }

    /// Earliest time node `m` can next act: its scheduled slice, a wire
    /// event addressed to it, or a chain of other events reaching it (no
    /// faster than the heap frontier plus one acknowledge flight).
    fn peer_activity_ns(&self, m: usize, t_peek: Option<u64>) -> u64 {
        debug_assert!(self.tx_mirror_holds(m), "node {m}");
        let mut act = u64::MAX;
        if self.hot.scheduled[m] {
            act = self.hot.next_ns[m];
        }
        for port in 0..4 {
            let w = self.hot.ports[m][port];
            if w != usize::MAX {
                act = act.min(self.wire_next[w]);
            }
        }
        if let Some(tp) = t_peek {
            // Only pay for the peer's link state when the frontier term
            // could bind at all.
            if tp.saturating_add(self.ack_ns.min(self.data_ns)) < act {
                // An acknowledge can only land on a port whose transmit
                // is in flight; any other first arrival is a data packet.
                let hop_in = if self.hot.tx_flight[m] != 0 {
                    self.ack_ns
                } else {
                    self.data_ns
                };
                act = act.min(tp.saturating_add(hop_in));
            }
        }
        act
    }

    /// The rule of [`NodeHot::tx_flight`], checked wherever a bound reads
    /// the mirror: on a CPU-owned wire the bit is the CPU's own transmit
    /// state, exactly; on a router-owned wire it covers every byte the
    /// router has awaiting an acknowledge.
    fn tx_mirror_holds(&self, node: usize) -> bool {
        let mirror = self.hot.tx_flight[node];
        match &self.router {
            Some(r) => mirror & r.tx_outstanding(node) == r.tx_outstanding(node),
            None => (0..4).all(|p| {
                let wired = self.hot.ports[node][p] != usize::MAX;
                (mirror >> p & 1 == 1) == (wired && self.nodes[node].link_tx_in_flight(p))
            }),
        }
    }

    /// How far node `node`, popped at `t`, may run without interacting
    /// with anything the wires could deliver first. `t_peek` is the heap
    /// frontier after the pop.
    fn slice_bound_ns(&self, node: usize, t_peek: Option<u64>) -> u64 {
        debug_assert!(self.tx_mirror_holds(node), "node {node}");
        let mut direct = u64::MAX;
        for port in 0..4 {
            let w = self.hot.ports[node][port];
            if w == usize::MAX {
                continue;
            }
            direct = direct.min(self.wire_next[w]);
            let peer = self.hot.peers[node][port];
            // The first packet the peer could land on this node: an
            // acknowledge if our byte is on the wire, else a data byte.
            let hop = if self.hot.tx_flight[node] & (1 << port) != 0 {
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
                    self.schedule_node(node, end_ns);
                } else if let Some(wake_cycle) = self.nodes[node].next_timer_wake_cycle() {
                    let at = (wake_cycle * CYCLE_NS).max(end_ns + 1);
                    self.schedule_node(node, at);
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
                self.hot.fenced[node] = outcome == SliceOutcome::Fenced;
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
                self.schedule_node(node, end_ns);
            }
        }
        Ok(())
    }

    /// Like [`Network::service_node_links`], but with sends stamped at
    /// `stamp` (the exit instruction's start time, possibly ahead of the
    /// global frontier) and early-acknowledge probes deferred to heap
    /// events at their stamps instead of resolved inline.
    fn service_node_links_at(&mut self, node: usize, stamp: u64) {
        if self.router.is_some() {
            self.router_service(node, stamp);
            return;
        }
        for port in 0..4 {
            if self.hot.ports[node][port] == usize::MAX {
                continue;
            }
            if self.nodes[node].link_take_deferred_ack(port) {
                self.put(node, port, PacketKind::Ack, stamp);
            }
            if let Some(byte) = self.nodes[node].link_tx_poll(port) {
                self.put(node, port, PacketKind::Data(byte), stamp);
            }
        }
    }

    /// Put one frame from `(node, port)` on its wire at `stamp`: the one
    /// way CPU link service and router acts reach a wire, stamped with
    /// the end's sequence bit ([`Wire::send`]). A data byte arms its
    /// retransmission timer on a robust wire (the one place a
    /// [`Resend`] is registered) and sets the port's transmit bit (see
    /// [`NodeHot::tx_flight`]). On a planned network a data byte that
    /// starts on an idle classic line leaves its early-acknowledge probe,
    /// stamped `stamp`; on a routed one the start event waits in the link
    /// for the wire's next `complete_due`, which drops it. Force-inlined:
    /// both callers sit on the routed and board hot paths.
    #[inline(always)]
    fn put(&mut self, node: usize, port: usize, kind: PacketKind, stamp: u64) {
        let w = self.hot.ports[node][port];
        debug_assert!(w != usize::MAX, "a frame put on an unwired port");
        let wire = &mut self.wires[w];
        let end = if wire.ends[0] == (node, port) {
            End::A
        } else {
            End::B
        };
        wire.send(end, kind, stamp);
        if let PacketKind::Data(byte) = kind {
            if self.robust {
                wire.resend[end_index(end)] = Some(Resend {
                    byte,
                    deadline: stamp + self.timeout_ns,
                    attempts: 0,
                    interval_ns: self.timeout_ns,
                });
            }
            self.hot.tx_flight[node] |= 1 << port;
        }
        if self.router.is_none() {
            for ev in wire.link.take_pending_events() {
                if let LinkEvent::DataStarted { to } = ev {
                    wire.probes.push((stamp, to));
                }
            }
        }
        self.schedule_wire(w);
    }

    /// Fire any due retransmissions on a wire (robust protocol). Called
    /// at wire pops only, *after* the due completions — an acknowledge
    /// landing at the deadline instant wins the race — so every engine
    /// resolves the tie the same way.
    fn fire_due_resends(&mut self, w: usize) {
        if !self.robust {
            return;
        }
        let now = self.now_ns;
        let mut fired = false;
        for ei in 0..2 {
            let due = matches!(self.wires[w].resend[ei], Some(r) if r.deadline <= now);
            if !due {
                continue;
            }
            let mut r = self.wires[w].resend[ei].expect("checked above");
            let (node, _) = self.wires[w].ends[ei];
            if r.attempts >= self.max_retries {
                self.wires[w].resend[ei] = None;
                self.wires[w].failed[ei] = true;
                self.nodes[node].note_link_failure();
                if self.router.is_some() {
                    // Routed networks respond to a dead hop by
                    // rebuilding their tables and rerouting.
                    self.router_wire_failed(w);
                }
                fired = true;
                continue;
            }
            r.attempts += 1;
            r.deadline = now + r.interval_ns;
            self.wires[w].resend[ei] = Some(r);
            self.nodes[node].note_link_retry();
            let end = if ei == 0 { End::A } else { End::B };
            self.wires[w].send(end, PacketKind::Data(r.byte), now);
            fired = true;
        }
        if fired {
            self.schedule_wire(w);
        }
    }

    // ------------------------------------------------------------------
    // The virtual-channel router (routed mode). Both engines call
    // the same three entry points at the same times — CPU link service
    // at interaction stamps, wire events at the frontier, failure at
    // resend-deadline pops — so routed runs stay bit-identical.
    // ------------------------------------------------------------------

    /// Routed replacement for the link-service paths: let the node's
    /// router absorb CPU output and resume deliveries, then apply the
    /// wire effects it requested, stamped at `stamp`.
    fn router_service(&mut self, node: usize, stamp: u64) {
        let router = self.router.as_mut().expect("routed mode");
        router.service_node(&mut self.nodes, node, stamp, &mut self.acts);
        self.apply_router_acts(stamp);
    }

    /// Routed replacement for wire processing, shared by every engine:
    /// take the due completions, at most one per line, and hand them to
    /// the endpoint routers. Routers never early-acknowledge — the
    /// forwarding decision needs the whole byte, and often the whole
    /// packet — so reception starts carry no information and the link
    /// drops them.
    fn process_wire_routed(&mut self, w: usize) {
        let now = self.now_ns;
        for ev in self.wires[w].link.complete_due(now).into_iter().flatten() {
            self.router_wire_event(w, ev);
        }
        self.apply_router_acts(now);
        self.schedule_wire(w);
    }

    /// Hand one wire event to the router at the end it reached, through
    /// the wire's sequence filter. Effects queue in `self.acts`, in the
    /// order the router asks for them, for [`Network::apply_router_acts`].
    fn router_wire_event(&mut self, w: usize, ev: LinkEvent) {
        let now = self.now_ns;
        let router = self.router.as_mut().expect("routed mode");
        let wire = &mut self.wires[w];
        match ev {
            LinkEvent::DataStarted { .. } => unreachable!("the link drops start events"),
            LinkEvent::DataDelivered { to, byte, seq } => {
                let (node, port) = wire.ends[end_index(to)];
                if wire.accept_data(to, seq) {
                    wire.delivered[end_index(to)] += 1;
                    router.phys_data(&mut self.nodes, node, port, byte, now, &mut self.acts);
                } else {
                    // A duplicate: repeat the acknowledge, or signal busy
                    // while the router withholds it.
                    let act = if router.withholds_ack(node, port) {
                        Act::Busy { port }
                    } else {
                        Act::Ack { port }
                    };
                    self.acts.push((node, act));
                }
            }
            LinkEvent::AckDelivered { to, seq } => {
                let (node, port) = wire.ends[end_index(to)];
                if wire.accept_ack(to, seq, router.awaits_ack(node, port)) {
                    router.phys_ack(&mut self.nodes, node, port, now, &mut self.acts);
                    wire.resend[end_index(to)] = None;
                    // Any data act this acknowledge released sets the
                    // bit again when applied.
                    if !self.pin_tx_flight {
                        self.hot.tx_flight[node] &= !(1 << port);
                    }
                }
            }
            LinkEvent::BusyDelivered { to, seq } => wire.busy(to, seq, now, self.timeout_ns),
            LinkEvent::Garbled { to } => {
                let (node, _) = wire.ends[end_index(to)];
                self.nodes[node].note_link_rx_error();
            }
        }
    }

    /// A wire direction exhausted its retry budget under a routed
    /// network: rebuild tables and reroute (see [`RouterNet`]).
    fn router_wire_failed(&mut self, w: usize) {
        let now = self.now_ns;
        let ends = self.wires[w].ends;
        let router = self.router.as_mut().expect("routed mode");
        router.wire_failed(&mut self.nodes, w, ends, now, &mut self.acts);
        self.apply_router_acts(now);
    }

    /// Apply (and consume) the wire- and scheduler-visible effects the
    /// last router call left in `self.acts`. Router logic never
    /// re-enters here: acts are self-contained, and each frame reaches
    /// its wire through [`Network::put`].
    fn apply_router_acts(&mut self, stamp: u64) {
        let mut acts = std::mem::take(&mut self.acts);
        for (node, act) in acts.drain(..) {
            let (port, kind) = match act {
                Act::Wake => {
                    self.schedule_node(node, stamp);
                    continue;
                }
                Act::Data { port, byte } => (port, PacketKind::Data(byte)),
                Act::Ack { port } => (port, PacketKind::Ack),
                Act::Busy { port } => (port, PacketKind::Busy),
            };
            self.put(node, port, kind, stamp);
        }
        self.acts = acts;
    }

    /// The early-acknowledge decision for a data packet that started
    /// arriving at `to` at time `stamp`.
    fn resolve_probe(&mut self, w: usize, to: End, stamp: u64) {
        let (node, port) = self.wire_end(w, to);
        let early = self.config.ack_policy == AckPolicy::Early && self.ea_at(node, port, stamp);
        self.wires[w].early_acked[end_index(to)] = early;
        if early {
            self.wires[w].link.send_ack(to, stamp);
        }
    }

    /// Whether a wire pop at `t` must wait for node entries scheduled at
    /// the same instant. A data-start probe stamped exactly `t` ties with
    /// any instruction starting at `t`; the event engine executes the
    /// instruction first (its heap entry was pushed before the sender's
    /// step ran), so the sliced engine re-queues the wire behind the
    /// pending node entries to observe the same post-instruction state.
    /// A resend deadline at exactly `t` ties the same way (the node's
    /// sends at `t` must enter the line queue before the retransmission
    /// starts); *every* engine applies that deferral, establishing one
    /// canonical order. Requeueing terminates because each node
    /// micro-step costs at least one cycle, so after the tied nodes run
    /// they are rescheduled strictly later than `t`.
    fn wire_pop_deferred(&mut self, w: usize, t: u64) -> bool {
        let wire = &self.wires[w];
        let mut tie = false;
        for &(stamp, _) in &wire.probes {
            tie |= stamp == t;
        }
        for r in &wire.resend {
            tie |= r.is_some_and(|r| r.deadline == t);
        }
        // A node entry pending at `t` would be the queue's next entry.
        if !tie || self.queue.peek_time() != Some(t) {
            return false;
        }
        let node_pending =
            (0..self.nodes.len()).any(|n| self.hot.scheduled[n] && self.hot.next_ns[n] == t);
        if node_pending {
            self.queue.push(t, Actor::Wire(w));
            return true;
        }
        false
    }

    /// A wire's heap entry popped at `t`: skip it if stale or deferred
    /// behind same-instant node entries, otherwise consume it. Returns
    /// whether the stepper should drain the wire (its drain reschedules
    /// it) and then fire due retransmissions.
    fn pop_wire(&mut self, w: usize, t: u64) -> bool {
        self.pops.wire += 1;
        if self.wire_next[w] == t && !self.wire_pop_deferred(w, t) {
            self.wire_next[w] = u64::MAX;
            true
        } else {
            self.pops.stale_wire += 1;
            false
        }
    }

    /// The one CPU-side wire drain, for classic and robust wires alike
    /// (the Sliced engine's, and the Event oracle's on robust wires):
    /// resolve due probes at their own stamps, then hand the completions
    /// due at the frontier to the endpoint CPUs.
    fn drain_wire(&mut self, w: usize) {
        if self.router.is_some() {
            self.process_wire_routed(w);
            return;
        }
        let now = self.now_ns;
        if !self.wires[w].probes.is_empty() {
            // Stable, so same-stamp probes resolve in the order sent.
            self.wires[w].probes.sort_by_key(|&(t, _)| t);
            let due = self.wires[w].probes.partition_point(|&(t, _)| t <= now);
            for i in 0..due {
                let (t, to) = self.wires[w].probes[i];
                self.resolve_probe(w, to, t);
            }
            self.wires[w].probes.drain(..due);
        }
        let mut events = std::mem::take(&mut self.events);
        self.wires[w].link.advance_into(now, &mut events);
        for ev in events.drain(..) {
            self.cpu_wire_event(w, ev);
        }
        self.events = events;
        self.schedule_wire(w);
    }

    /// Hand one wire event to the CPU at the end it reached, through the
    /// wire's sequence filter.
    fn cpu_wire_event(&mut self, w: usize, ev: LinkEvent) {
        let now = self.now_ns;
        match ev {
            LinkEvent::DataStarted { to } => {
                // A queued packet chained onto a completion: it starts
                // exactly now.
                self.resolve_probe(w, to, now);
            }
            LinkEvent::DataDelivered { to, byte, seq } => {
                let (node, port) = self.wire_end(w, to);
                if !self.wires[w].accept_data(to, seq) {
                    // A duplicate: repeat the acknowledge, or signal busy
                    // while the interface still holds it.
                    self.nodes[node].note_link_dup_data();
                    let reply = if self.nodes[node].link_holds_ack(port) {
                        PacketKind::Busy
                    } else {
                        PacketKind::Ack
                    };
                    self.wires[w].send(to, reply, now);
                    return;
                }
                let ei = end_index(to);
                self.wires[w].delivered[ei] += 1;
                let was_idle = self.nodes[node].is_idle();
                let ack_now = self.nodes[node].link_rx_deliver(port, byte);
                if ack_now && !self.wires[w].early_acked[ei] {
                    self.wires[w].send(to, PacketKind::Ack, now);
                }
                self.wires[w].early_acked[ei] = false;
                self.refresh_ea(node, now);
                if was_idle && !self.nodes[node].is_idle() {
                    self.sync_and_wake(node);
                }
            }
            LinkEvent::AckDelivered { to, seq } => {
                let (node, port) = self.wire_end(w, to);
                let awaiting = self.nodes[node].link_tx_in_flight(port);
                if !self.wires[w].accept_ack(to, seq, awaiting) {
                    return;
                }
                self.wires[w].resend[end_index(to)] = None;
                let was_idle = self.nodes[node].is_idle();
                self.nodes[node].link_tx_ack(port);
                self.hot.tx_flight[node] &= !(1 << port);
                if was_idle && !self.nodes[node].is_idle() {
                    self.sync_and_wake(node);
                }
                // The output port may have another byte ready now.
                self.service_node_links_at(node, now);
            }
            LinkEvent::BusyDelivered { to, seq } => {
                self.wires[w].busy(to, seq, now, self.timeout_ns);
            }
            LinkEvent::Garbled { to } => {
                let (node, _) = self.wire_end(w, to);
                self.nodes[node].note_link_rx_error();
            }
        }
    }

    /// Advance the simulation by one heap event under the sliced engine:
    /// a wire event, or one whole node slice.
    fn step_sliced(&mut self) -> Result<bool, SimError> {
        self.prime_ea();
        let Some((t, actor)) = self.queue.pop() else {
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
                if std::mem::take(&mut self.hot.fenced[n])
                    && self.hot.ports[n]
                        .iter()
                        .any(|&w| w != usize::MAX && self.wire_next[w] == t)
                {
                    // The node ran ahead and was fenced off this link
                    // instruction: its entry was pushed before its wires'
                    // entries for the same instant existed. Re-queue it
                    // behind them, once — the order a node stopping at a
                    // wire bound gets.
                    self.queue.push(t, Actor::Node(n));
                    return Ok(true);
                }
                self.hot.scheduled[n] = false;
                let t_peek = self.queue.peek_time();
                // Two horizons: link instructions run to the fence,
                // before which no wire event can reach this node; a node
                // no wire event can disturb runs everything else on, to
                // the end of the run.
                let fence = self.slice_bound_ns(n, t_peek);
                let run = if self.nodes[n].link_sensitive() {
                    fence
                } else {
                    self.horizon_ns.unwrap_or(u64::MAX)
                };
                let (pop_cycles, outcome) =
                    Self::run_slice_kernel(&mut self.nodes[n], t, fence, run);
                self.finish_slice(n, t, pop_cycles, outcome)?;
            }
        }
        Ok(true)
    }

    /// Advance by one event under the configured engine.
    fn advance_one(&mut self) -> Result<bool, SimError> {
        match self.config.engine {
            Engine::Event => self.step_event(),
            Engine::Sliced | Engine::Parallel => self.step_sliced(),
        }
    }

    /// Whether every node has halted cleanly. Amortised O(1) per heap
    /// event: a halted processor stays halted (only [`Network::node_mut`]
    /// can put a live one in its place, and it rewinds the cursor), so
    /// the scan resumes where it last stopped.
    pub fn all_halted(&self) -> bool {
        let mut below = self.halted_below.get();
        while below < self.nodes.len()
            && self.nodes[below].halt_reason() == Some(HaltReason::Stopped)
        {
            below += 1;
        }
        self.halted_below.set(below);
        // The last node to halt may have done so ahead of the frontier:
        // wire events stamped before its halting instruction still run,
        // as they did before the event engine reached that instruction.
        below == self.nodes.len()
            && self
                .queue
                .peek_time()
                .is_none_or(|t| t >= self.last_halt_ns)
    }

    /// Run until every node halts cleanly.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeFault`] if a node faults; [`SimError::Budget`] if
    /// `budget_ns` elapses first.
    pub fn run_until_all_halted(&mut self, budget_ns: u64) -> Result<SimOutcome, SimError> {
        self.run_until(budget_ns, |net| {
            if net.all_halted() {
                Some(SimOutcome::AllHalted)
            } else {
                None
            }
        })
    }

    /// Run for a fixed duration of simulated time.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeFault`] if a node faults.
    pub fn run_for(&mut self, duration_ns: u64) -> Result<SimOutcome, SimError> {
        let end = self.now_ns + duration_ns;
        // Instructions run iff they start strictly before `end`, in both
        // engines.
        let saved = self.horizon_ns;
        self.horizon_ns = Some(end);
        let result = loop {
            if self.now_ns >= end {
                break Ok(SimOutcome::TimeLimit);
            }
            if self.queue.peek_time().is_some_and(|t| t >= end) {
                self.now_ns = end;
                break Ok(SimOutcome::TimeLimit);
            }
            match self.advance_one() {
                Ok(true) => {}
                Ok(false) => break Ok(SimOutcome::Deadlock),
                Err(e) => break Err(e),
            }
        };
        self.horizon_ns = saved;
        result
    }

    /// Run until a predicate over the network holds. The predicate is
    /// evaluated after every heap event; under the sliced engine that is
    /// after every node *slice* rather than every instruction, and a
    /// node that is only computing may by then be arbitrarily far ahead
    /// of [`Network::time_ns`] (up to the budget) — a predicate over
    /// node state sees that future. Wire observables (delivered-byte
    /// counts, wire times) change at heap events only, so predicates
    /// over them fire at identical times in all engines.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeFault`] if a node faults; [`SimError::Budget`] if
    /// the budget elapses first.
    pub fn run_until<F>(&mut self, budget_ns: u64, mut pred: F) -> Result<SimOutcome, SimError>
    where
        F: FnMut(&Network) -> Option<SimOutcome>,
    {
        let end = self.now_ns.saturating_add(budget_ns);
        let saved = self.horizon_ns;
        self.horizon_ns = Some(end.saturating_add(1));
        let result = loop {
            if let Some(out) = pred(self) {
                break Ok(out);
            }
            if self.now_ns > end {
                break Err(SimError::Budget { ns: budget_ns });
            }
            match self.advance_one() {
                Ok(true) => {}
                Ok(false) => {
                    if let Some(out) = pred(self) {
                        break Ok(out);
                    }
                    break Ok(SimOutcome::Deadlock);
                }
                Err(e) => break Err(e),
            }
        };
        self.horizon_ns = saved;
        result
    }
}

fn end_index(end: End) -> usize {
    match end {
        End::A => 0,
        End::B => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer::instr::{encode, encode_op, Direct, Op};
    use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
    use transputer::RunOutcome;
    use transputer_link::vc::{VcHeader, HEADER_BYTES};

    fn halting_program() -> Vec<u8> {
        let mut code = Vec::new();
        code.extend(encode(Direct::LoadConstant, 1));
        code.extend(encode_op(Op::HaltSimulation));
        code
    }

    #[test]
    fn builder_validates_ports() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let a = b.add_node();
        let c = b.add_node();
        b.connect((a, 0), (c, 0));
        let net = b.build();
        assert_eq!(net.len(), 2);
        assert_eq!(net.wire_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn builder_rejects_double_wiring() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let a = b.add_node();
        let c = b.add_node();
        let d = b.add_node();
        b.connect((a, 0), (c, 0));
        b.connect((a, 0), (d, 0));
    }

    #[test]
    fn independent_nodes_halt() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let n0 = b.add_node();
        let n1 = b.add_node();
        let mut net = b.build();
        net.node_mut(n0)
            .load_boot_program(&halting_program())
            .unwrap();
        net.node_mut(n1)
            .load_boot_program(&halting_program())
            .unwrap();
        let out = net.run_until_all_halted(1_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted);
    }

    /// `all_halted` resumes its scan where it last stopped, so
    /// `node_mut` must rewind it: a processor put in a halted node's
    /// place is live, whichever side of the cursor it sits on.
    #[test]
    fn all_halted_notices_a_node_replaced_through_node_mut() {
        for replaced in 0..2 {
            let mut b = NetworkBuilder::new(NetworkConfig::default());
            b.add_node();
            b.add_node();
            let mut net = b.build();
            for id in 0..2 {
                net.node_mut(id)
                    .load_boot_program(&halting_program())
                    .unwrap();
            }
            assert!(!net.all_halted());
            assert_eq!(
                net.run_until_all_halted(1_000_000),
                Ok(SimOutcome::AllHalted)
            );
            // Reloading a halted processor does not revive it.
            net.node_mut(replaced)
                .load_boot_program(&halting_program())
                .unwrap();
            assert!(net.all_halted());
            assert_eq!(
                net.run_until_all_halted(1_000_000),
                Ok(SimOutcome::AllHalted)
            );
            // A fresh one in its place is live, and nothing schedules it:
            // the run must end saying so, not claim a clean halt.
            *net.node_mut(replaced) = Cpu::new(CpuConfig::t424());
            net.node_mut(replaced)
                .load_boot_program(&halting_program())
                .unwrap();
            assert!(!net.all_halted(), "node {replaced} replaced");
            assert_eq!(
                net.run_until_all_halted(1_000_000),
                Ok(SimOutcome::Deadlock)
            );
            assert!(!net.all_halted());
        }
    }

    fn one_word_sender() -> Vec<u8> {
        // Sender: outword 0xBEEF on link 0 output channel, then halt.
        // The link-0 output channel word is at MostNeg (reserved word 0):
        // its address is mint + LINK_OUT_BASE words.
        let mut sender = Vec::new();
        sender.extend(encode(Direct::LoadConstant, 0xBEEF));
        sender.extend(encode_op(Op::MinimumInteger));
        sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
        sender.extend(encode_op(Op::OutputWord));
        sender.extend(encode_op(Op::HaltSimulation));
        sender
    }

    fn one_word_receiver() -> Vec<u8> {
        // Receiver: in 4 bytes from link 0 input channel into w[1].
        let mut receiver = Vec::new();
        receiver.extend(encode(Direct::LoadLocalPointer, 1));
        receiver.extend(encode_op(Op::MinimumInteger));
        receiver.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        receiver.extend(encode(Direct::LoadConstant, 4));
        // Stack now: A=4 (count), B=chan, C=dest pointer.
        receiver.extend(encode_op(Op::InputMessage));
        receiver.extend(encode(Direct::LoadLocal, 1));
        receiver.extend(encode_op(Op::HaltSimulation));
        receiver
    }

    /// Sender transmits one word over link 0; receiver stores it and halts.
    #[test]
    fn one_word_over_a_link() {
        for engine in [Engine::Event, Engine::Sliced] {
            let mut b = NetworkBuilder::new(NetworkConfig {
                engine,
                ..NetworkConfig::default()
            });
            let tx = b.add_node();
            let rx = b.add_node();
            b.connect((tx, 0), (rx, 0));
            let mut net = b.build();
            net.node_mut(tx)
                .load_boot_program(&one_word_sender())
                .unwrap();
            net.node_mut(rx)
                .load_boot_program(&one_word_receiver())
                .unwrap();
            net.run_until_all_halted(10_000_000).unwrap();
            assert_eq!(net.node(rx).areg(), 0xBEEF, "{engine:?}");
            let (to_end0, to_end1) = net.wire_delivered(0);
            assert_eq!(
                to_end0 + to_end1,
                4,
                "four data bytes crossed the wire ({engine:?})"
            );
        }
    }

    /// Both engines agree on per-node cycle counts for a transfer.
    #[test]
    fn engines_agree_on_one_word_transfer() {
        let mut reference: Option<(u64, u64)> = None;
        for engine in [Engine::Event, Engine::Sliced] {
            let mut b = NetworkBuilder::new(NetworkConfig {
                engine,
                ..NetworkConfig::default()
            });
            let tx = b.add_node();
            let rx = b.add_node();
            b.connect((tx, 0), (rx, 0));
            let mut net = b.build();
            net.node_mut(tx)
                .load_boot_program(&one_word_sender())
                .unwrap();
            net.node_mut(rx)
                .load_boot_program(&one_word_receiver())
                .unwrap();
            net.run_until_all_halted(10_000_000).unwrap();
            let got = (net.node(tx).cycles(), net.node(rx).cycles());
            match reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(got, want, "{engine:?} diverged"),
            }
        }
    }

    /// The paper (§4.2): "It takes about 6 microseconds to send a 4 byte
    /// message from one transputer to another."
    #[test]
    fn four_byte_message_latency_about_6_us() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let tx = b.add_node();
        let rx = b.add_node();
        b.connect((tx, 0), (rx, 0));
        let mut net = b.build();

        let mut sender = Vec::new();
        sender.extend(encode(Direct::LoadConstant, 0x0403_0201));
        sender.extend(encode(Direct::StoreLocal, 1));
        sender.extend(encode(Direct::LoadLocalPointer, 1));
        sender.extend(encode_op(Op::MinimumInteger));
        sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
        sender.extend(encode(Direct::LoadConstant, 4));
        sender.extend(encode_op(Op::OutputMessage));
        sender.extend(encode_op(Op::HaltSimulation));

        let mut receiver = Vec::new();
        receiver.extend(encode(Direct::LoadLocalPointer, 1));
        receiver.extend(encode_op(Op::MinimumInteger));
        receiver.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        receiver.extend(encode(Direct::LoadConstant, 4));
        receiver.extend(encode_op(Op::InputMessage));
        receiver.extend(encode_op(Op::HaltSimulation));

        net.node_mut(tx).load_boot_program(&sender).unwrap();
        net.node_mut(rx).load_boot_program(&receiver).unwrap();
        net.run_until_all_halted(100_000_000).unwrap();
        let t_us = net.time_ns() as f64 / 1000.0;
        assert!(
            t_us > 4.0 && t_us < 8.0,
            "4-byte message took {t_us} µs; the paper says about 6"
        );
        let w = net.node(rx).default_boot_workspace() + 4;
        assert_eq!(net.node_mut(rx).peek_word(w).unwrap(), 0x0403_0201);
    }

    // The robust protocol's sequence bits live at the wire end. These
    // tests drive one end of a two-node robust machine by hand, once
    // CPU-owned and once router-owned: wire 0 joins node 0's port 0
    // (end A) to node 1's (end B), and events land at an end as the
    // wire's drain would hand them over.

    fn robust_pair(routed: bool) -> Network {
        let mut b = NetworkBuilder::new(NetworkConfig {
            fault: Some(FaultPlan::uniform(1985, 0.0)),
            ..NetworkConfig::default()
        });
        b.add_node();
        b.add_node();
        b.connect((0, 0), (1, 0));
        if routed {
            b.enable_router();
            b.add_vc((0, 0), (1, 0));
        }
        b.build()
    }

    /// Run a node's processor on its own until its process blocks on a
    /// link.
    fn run_to_block(net: &mut Network, id: usize) {
        let outcome = net.node_mut(id).run(100_000);
        assert!(matches!(outcome, Ok(RunOutcome::Deadlock)), "{outcome:?}");
    }

    /// Receive `count` bytes from link 0 into w[1], then halt.
    fn receiver(count: i64) -> Vec<u8> {
        let mut code = Vec::new();
        code.extend(encode(Direct::LoadLocalPointer, 1));
        code.extend(encode_op(Op::MinimumInteger));
        code.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        code.extend(encode(Direct::LoadConstant, count));
        code.extend(encode_op(Op::InputMessage));
        code.extend(encode_op(Op::HaltSimulation));
        code
    }

    /// Hand one event to the owner of the end it reached, and put on
    /// the wire what a router asked for.
    fn land(net: &mut Network, ev: LinkEvent) {
        if net.routed() {
            net.router_wire_event(0, ev);
            net.apply_router_acts(net.now_ns);
        } else {
            net.cpu_wire_event(0, ev);
        }
    }

    fn data(to: End, byte: u8, seq: bool) -> LinkEvent {
        LinkEvent::DataDelivered { to, byte, seq }
    }

    /// The frames put on the line from `from` since the last call, with
    /// their sequence bits.
    fn frames_from(net: &mut Network, from: End) -> Vec<(PacketKind, bool)> {
        let events = net.wires[0].link.advance(u64::MAX);
        events
            .into_iter()
            .filter_map(|ev| match ev {
                LinkEvent::DataDelivered { to, byte, seq } if to != from => {
                    Some((PacketKind::Data(byte), seq))
                }
                LinkEvent::AckDelivered { to, seq } if to != from => Some((PacketKind::Ack, seq)),
                LinkEvent::BusyDelivered { to, seq } if to != from => Some((PacketKind::Busy, seq)),
                _ => None,
            })
            .collect()
    }

    /// Whether end A's owner has a byte awaiting its acknowledge.
    fn a_awaits_ack(net: &Network) -> bool {
        match &net.router {
            Some(r) => r.awaits_ack(0, 0),
            None => net.node(0).link_tx_in_flight(0),
        }
    }

    /// The sender half: an acknowledge with the wrong bit, or with no
    /// byte awaiting it, changes nothing; the fresh one flips the end's
    /// transmit bit, and the next byte goes out carrying it.
    #[test]
    fn robust_output_ignores_stale_acks() {
        // The CPU sends the word's four bytes; the router, one packet.
        for (routed, bytes) in [(false, 4), (true, HEADER_BYTES + 4)] {
            let mut net = robust_pair(routed);
            net.node_mut(0)
                .load_boot_program(&one_word_sender())
                .unwrap();
            run_to_block(&mut net, 0);
            net.service_node_links_at(0, 0);
            let mut sent = frames_from(&mut net, End::A);
            for i in 0..bytes {
                let bit = i % 2 == 1;
                let resend = net.wires[0].resend[0].expect("a byte in flight is armed");
                assert_eq!(sent, [(PacketKind::Data(resend.byte), bit)], "byte {i}");
                // The previous byte's acknowledge, repeated (for the
                // first byte, a bit no byte has carried yet).
                land(
                    &mut net,
                    LinkEvent::AckDelivered {
                        to: End::A,
                        seq: !bit,
                    },
                );
                assert!(a_awaits_ack(&net), "byte {i}");
                assert_eq!(net.wires[0].tx_bit[0], bit);
                assert_eq!(net.wires[0].resend[0].map(|r| r.byte), Some(resend.byte));
                assert_eq!(frames_from(&mut net, End::A), []);
                land(
                    &mut net,
                    LinkEvent::AckDelivered {
                        to: End::A,
                        seq: bit,
                    },
                );
                assert_eq!(net.wires[0].tx_bit[0], !bit);
                sent = frames_from(&mut net, End::A);
            }
            assert_eq!(sent, [], "routed {routed}");
            assert!(!a_awaits_ack(&net));
            assert!(net.wires[0].resend[0].is_none());
            assert!(!net.node(0).link_output_busy(0), "the sender woke");
            // Nothing awaits an acknowledge: either bit is stale.
            for seq in [false, true] {
                land(&mut net, LinkEvent::AckDelivered { to: End::A, seq });
                assert!(!net.wires[0].tx_bit[0]);
            }
        }
    }

    /// The receiver half, with each acknowledge released at once: the
    /// byte carrying the expected bit is accepted and acknowledged with
    /// it; its resend is acknowledged again, never delivered again.
    #[test]
    fn robust_input_classifies_duplicates() {
        let payload = [0x11, 0x22, 0x33, 0x44];
        for routed in [false, true] {
            let mut net = robust_pair(routed);
            net.node_mut(1).load_boot_program(&receiver(4)).unwrap();
            run_to_block(&mut net, 1);
            let mut stream = Vec::new();
            if routed {
                let header = VcHeader {
                    vc: 0,
                    len: 4,
                    eom: true,
                };
                stream.extend(header.encode());
            }
            stream.extend(payload);
            for (i, &byte) in stream.iter().enumerate() {
                let bit = i % 2 == 1;
                land(&mut net, data(End::B, byte, bit));
                assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
                // That acknowledge was lost: the byte comes again.
                land(&mut net, data(End::B, byte, bit));
                assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
            }
            assert_eq!(net.wire_delivered(0), (0, stream.len() as u64));
            let dups = if routed { 0 } else { payload.len() as u64 };
            assert_eq!(net.node(1).stats().link_dup_data, dups);
            let w = net.node(1).default_boot_workspace();
            let word = net.node(1).inspect_word(w + 4).unwrap();
            assert_eq!(word, u32::from_le_bytes(payload), "routed {routed}");
        }
    }

    /// The receiver half, with the acknowledge held: a CPU holds it while
    /// the byte sits in its buffer and, once a process takes the byte,
    /// until the deferred acknowledge is sent; a router holds it while a
    /// packet is parked. A resend meanwhile is answered busy, afterwards
    /// acknowledged again.
    #[test]
    fn robust_input_reports_busy_while_ack_is_held() {
        for routed in [false, true] {
            let mut net = robust_pair(routed);
            // Loaded, not run: no process waits yet.
            net.node_mut(1).load_boot_program(&receiver(2)).unwrap();
            // The CPU's one byte; or the router's two packets of one
            // message, the second parked while the first's byte sits in
            // the CPU's buffer.
            let mut stream = Vec::new();
            if routed {
                for (payload, eom) in [(&[0x55][..], false), (&[0x66, 0x77][..], true)] {
                    let len = payload.len() as u8;
                    stream.extend(VcHeader { vc: 0, len, eom }.encode());
                    stream.extend(payload);
                }
            } else {
                stream.push(0x55);
            }
            let last = stream.len() - 1;
            for (i, &byte) in stream.iter().enumerate() {
                land(&mut net, data(End::B, byte, i % 2 == 1));
                let acked = frames_from(&mut net, End::B);
                assert_eq!(acked.is_empty(), i == last, "byte {i}: {acked:?}");
            }
            let bit = last % 2 == 1;
            let resend = data(End::B, stream[last], bit);
            land(&mut net, resend);
            assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Busy, bit)]);
            // A process takes the buffered byte; the acknowledge it owes
            // is not sent yet.
            run_to_block(&mut net, 1);
            assert!(net.node(1).link_holds_ack(0));
            land(&mut net, resend);
            assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Busy, bit)]);
            // Released, as at the end of the slice that took the byte.
            net.service_node_links_at(1, 0);
            assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
            land(&mut net, resend);
            assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
            let dups = if routed { 0 } else { 3 };
            assert_eq!(net.node(1).stats().link_dup_data, dups);
            let w = net.node(1).default_boot_workspace();
            let word = net.node(1).inspect_word(w + 4).unwrap();
            let want = if routed { 0x6655 } else { 0x55 };
            assert_eq!(word & 0xFFFF, want, "routed {routed}");
        }
    }

    /// A parked packet that the CPU takes whole the moment it is
    /// unparked is delivered once: completing its delivery unparks
    /// again, and that nested pass must not find it still parked.
    #[test]
    fn a_parked_packet_is_delivered_once() {
        let mut net = robust_pair(true);
        net.node_mut(1).load_boot_program(&receiver(3)).unwrap();
        let mut stream = Vec::new();
        for (payload, eom) in [(0x55, false), (0x66, true)] {
            stream.extend(VcHeader { vc: 0, len: 1, eom }.encode());
            stream.push(payload);
        }
        for (i, &byte) in stream.iter().enumerate() {
            land(&mut net, data(End::B, byte, i % 2 == 1));
        }
        // The process takes the first packet's byte from the buffer and
        // waits for two more; releasing that byte's acknowledge unparks
        // the second packet, which the waiting process takes whole.
        run_to_block(&mut net, 1);
        net.service_node_links_at(1, 0);
        assert_eq!(net.router_stats().unwrap().packets_delivered, 2);
        let w = net.node(1).default_boot_workspace();
        // Two bytes in; the third is still awaited.
        assert_eq!(net.node(1).inspect_word(w + 4).unwrap(), 0x6655);
    }
}
