//! The co-simulation engine: nodes, wires, and a global event queue.
//!
//! Two engines share one event queue (`queue.rs`: a heap in pop order,
//! with a wheel in front of it for the near future) and every routine
//! that moves a frame; they differ only in how far a node runs per pop
//! ([`Engine`]). The code is split along that line:
//!
//! * this module — the types, the builder and the public API;
//! * `wire` — a wire, its end-of-wire sequence filter, the one routine
//!   that puts a frame on it (`put`), and its resends;
//! * `handlers` — what link service and a wire's drain do to a CPU or a
//!   router: the data-start probe with its early-acknowledge history,
//!   and the one drain, which puts four questions to an end's owner;
//! * `stepper` — the pop both engines share and the node arm where they
//!   differ, the only code that knows which engine runs.
//!
//! There is no host-parallel engine (DESIGN.md §10 records why);
//! `Engine::Parallel` survives only as a shim that runs Sliced.

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;

use transputer::{Cpu, CpuConfig, HaltReason};
use transputer_link::{AckPolicy, DuplexLink, End, FaultPlan, LinkProtocol, LinkSpeed, PacketKind};

use crate::queue::EventQueue;
use crate::router::{RouterConfig, RouterNet, RouterStats};
use crate::topology::{adjacency, hypercube_tables, route_tables, WireEnds};

mod handlers;
mod stepper;
mod wire;

use handlers::EaState;
pub use stepper::Engine;
use wire::Wire;

/// Index of a node in a [`Network`].
pub type NodeId = usize;

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
    /// Virtual-channel router tuning (the switching discipline). Ignored
    /// unless the router is enabled; defaulted to the values every
    /// committed fingerprint was produced with.
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
    /// Each node's configuration: the processors are made at
    /// [`NetworkBuilder::build`], in one allocation of the final length.
    nodes: Vec<CpuConfig>,
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
        self.nodes.push(cpu);
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
    /// packs a node or wire index into 23 bits of its keys. Panics if a
    /// node's memory map cannot hold the processor's reserved words
    /// ([`Cpu::new`]).
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
                Wire::new(link, [a, b])
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
            // channel-dependency graph, and a stream's tail on a wire
            // that cannot die. `RouterNet::new` runs the proof itself
            // and degrades cut-through to store-and-forward when it
            // fails (notably the cluster-hypercube's e-cube tables,
            // whose anchor-corner walks close cross-route cycles) or
            // when the wires are robust.
            RouterNet::new(adj, tables, dead, &rb.vcs, router_cfg, !robust)
        });
        let hot = NodeHot {
            scheduled: vec![false; n],
            next_ns: vec![0; n],
            ports: port_to_wire,
            peers,
            ea: vec![[EaState::default(); 4]; n],
            fenced: vec![false; n],
        };
        let mut net = Network {
            config: self.config,
            nodes: self.nodes.into_iter().map(Cpu::new).collect(),
            fabric: Fabric {
                wires,
                wire_next: vec![u64::MAX; w],
                queue,
                hot,
                robust,
                routed: router.is_some(),
            },
            now_ns: 0,
            ea_primed: false,
            horizon_ns: None,
            data_ns,
            ack_ns,
            router,
            halted_below: Cell::new(0),
            last_halt_ns: 0,
            pops: PopCounts::default(),
        };
        for i in 0..n {
            net.fabric.schedule_node(i, 0);
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
/// lines per node. It holds no transmit state: whether a port awaits an
/// acknowledge belongs to the wire end's owner, and the bounds ask it
/// ([`Network::awaits_ack`]).
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
    /// Early-acknowledge history per port (see [`Network::ea_at`]).
    ea: Vec<[EaState; 4]>,
    /// The node's heap entry stands at a link instruction it was fenced
    /// off ([`transputer::SliceOutcome::Fenced`]): pushed when the node ran ahead,
    /// possibly long before its wires' entries for the same instant.
    fenced: Vec<bool>,
}

/// What the wire path writes, and its three writers: [`Fabric::put`]
/// puts a frame on a wire, `schedule_wire` and `schedule_node` queue a
/// wire or a node. A router calls them the moment it decides to.
#[derive(Debug)]
pub(crate) struct Fabric {
    wires: Vec<Wire>,
    /// Pop time of each wire's single live heap entry (`u64::MAX` =
    /// none), maintained by [`Fabric::schedule_wire`]. Doubles as the
    /// dedup guard — a popped entry whose time no longer matches is
    /// stale and skipped — and feeds the slice bounds without
    /// rescanning link state (never later than the wire's true next
    /// event, so the bounds stay conservative).
    wire_next: Vec<u64>,
    queue: EventQueue,
    /// Dense per-node scheduling state (the hot side of the node split).
    hot: NodeHot,
    /// Whether the wires speak the robust protocol (fault plan present).
    robust: bool,
    /// Whether a router owns every wire end.
    routed: bool,
}

/// A running network of transputers.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    nodes: Vec<Cpu>,
    fabric: Fabric,
    now_ns: u64,
    /// Whether `hot.ea` has been initialised from live link state.
    ea_primed: bool,
    /// Hard upper bound on slice extents during `run_for`/`run_until`.
    horizon_ns: Option<u64>,
    /// Flight time of a data packet at the configured link speed.
    data_ns: u64,
    /// Flight time of an acknowledge packet.
    ack_ns: u64,
    /// The virtual-channel router, when enabled: it owns every wire
    /// endpoint, and the CPUs' link ports become virtual-channel
    /// endpoints (see [`crate::router`]).
    router: Option<RouterNet>,
    /// Every node below this index has halted cleanly: where
    /// [`Network::all_halted`] resumes its scan.
    halted_below: Cell<usize>,
    /// Start stamp of the latest halting instruction a slice has run. A
    /// node may halt far ahead of the frontier; the run is over only
    /// once the queue has caught up with it (see
    /// [`Network::all_halted`]).
    last_halt_ns: u64,
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
        self.fabric.wires[wire].delivered.into()
    }

    /// Whether each transmit direction of a wire (from end 0, from end 1)
    /// has been declared failed after exhausting its retry budget.
    pub fn wire_failed(&self, wire: usize) -> (bool, bool) {
        self.fabric.wires[wire].failed.into()
    }

    /// Whether any wire direction in the network has been declared
    /// failed.
    pub fn any_link_failed(&self) -> bool {
        self.fabric.wires.iter().any(|w| w.failed[0] || w.failed[1])
    }

    /// Both ends of a wire, A then B, as it was connected.
    pub fn wire_ends(&self, wire: usize) -> WireEnds {
        let [a, b] = self.fabric.wires[wire].ends;
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

    /// Whether wormhole cut-through forwarding is active: `Some(true)`
    /// only when the router was configured for
    /// [`crate::Switching::Wormhole`], the network has no fault plan
    /// (its wires cannot die), and the build's tables carry an acyclic
    /// channel-dependency graph (the deadlock-freedom proof). Fixed at
    /// build. `None` unless routed.
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
        self.fabric.wires.len()
    }

    /// Utilisation of a wire's two directions (from end 0, from end 1)
    /// over the elapsed simulation time, each in [0, 1]: transmit time
    /// elapsed by now over elapsed time.
    pub fn wire_utilization(&self, wire: usize) -> (f64, f64) {
        if self.now_ns == 0 {
            return (0.0, 0.0);
        }
        let link = &self.fabric.wires[wire].link;
        let busy = |end| link.busy_ns(end, self.now_ns) as f64 / self.now_ns as f64;
        (busy(End::A), busy(End::B))
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
                .fabric
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
            if self.fabric.queue.peek_time().is_some_and(|t| t >= end) {
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

#[cfg(test)]
mod tests;
