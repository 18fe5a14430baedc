//! The virtual-channel packet router (T9000 VCP-style).
//!
//! The paper's machines connect occam channels only between physical
//! neighbours. This module adds the successor architecture's router
//! layer: each node owns a `NodeRouter` that packetizes the messages its
//! CPU emits into [`transputer_link::vc`] frames, multiplexes many
//! virtual channels over each physical wire, and store-and-forwards
//! transit packets hop by hop under per-node routing tables derived from
//! the topology's [`Adjacency`]. The CPU's four link ports become local
//! virtual-channel endpoints, decoupled from the physical ports the
//! wires attach to — a grid-interior node can source and sink virtual
//! channels on all four CPU ports while its router uses all four
//! physical ports for the mesh.
//!
//! **Determinism.** The router has no clock of its own: every state
//! change happens either at a wire event (delivered data byte,
//! acknowledge) — which both engines process at identical times — or
//! at a CPU link-service point, which the sliced engine stamps with the
//! exact interaction-instruction time the event engine would have
//! used. Per-wire forwarding queues are bounded
//! (`FORWARD_CAPACITY`); a full queue withholds the
//! acknowledge of the packet's final byte, so backpressure propagates
//! through the ordinary link flow control (and, under the robust
//! protocol, through its busy/retry machinery) without any side
//! channel.
//!
//! **Switching.** Transit packets cross a node under one of two
//! disciplines ([`Switching`]): store-and-forward fully reassembles
//! each packet before retransmitting it, so end-to-end latency grows
//! as `hops × packet_time`; wormhole (cut-through) starts
//! retransmitting the header the moment it decodes — provided the
//! routed out port is idle — and streams the payload through byte by
//! byte, shrinking the latency toward `hops + packet_time`. A stream
//! that outruns its downstream credit (`STREAM_CREDITS`) withholds
//! the upstream acknowledge, so the *stream* stalls mid-packet through
//! the same link flow control, without parking the whole port.
//! Injection and local delivery stay packet-atomic in both modes, and
//! a busy out port falls back to store-and-forward per packet, so
//! wormhole is purely a latency optimisation layered on the same
//! deterministic event structure. Cut-through runs only on lossless
//! wires: under a fault plan a wire can die, and a stream it cut would
//! lose its tail, so a faulted network forwards store-and-forward.
//!
//! The router puts each frame on its wire, and schedules each node it
//! wakes, the moment it decides to, through the simulator's
//! `Fabric`: its `put` is the one way any frame reaches a wire, so
//! the wire bookkeeping (sequence bits, resend registration, scheduling)
//! stays in one place. The router reads no wire state; the drain hands
//! it a wire's events once the wire's filter has passed all of them, so
//! its frames see the wire as the act list it replaced did.

use std::collections::{HashSet, VecDeque};

use transputer::Cpu;
use transputer_link::vc::{VcHeader, HEADER_BYTES, MAX_PAYLOAD};
use transputer_link::PacketKind;

use crate::sim::Fabric;
use crate::topology::{route_tables, Adjacency, NO_ROUTE};

/// A virtual channel's endpoints: `(source, destination)`, each a
/// `(node, cpu_port)` pair.
pub(crate) type VcSpec = ((usize, usize), (usize, usize));

/// How transit packets cross a node (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Switching {
    /// Fully reassemble every transit packet before retransmitting it.
    #[default]
    StoreAndForward,
    /// Cut-through: retransmit the header as soon as it decodes and the
    /// routed out port is idle, streaming the payload hop by hop under
    /// flit-level credits. Requires an acyclic channel-dependency graph
    /// (dimension-order routing; see [`crate::topology::cdg_acyclic`])
    /// and lossless wires (no fault plan); otherwise the router
    /// forwards store-and-forward.
    Wormhole,
}

/// Per-network router tuning, carried on the router and defaulted to
/// the values every committed fingerprint was produced with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterConfig {
    /// Switching discipline for transit packets.
    pub switching: Switching,
}

/// Transit packets a physical out-port queues before exerting
/// backpressure: eight keep several virtual channels moving across a
/// shared wire while bounding the store-and-forward memory per node.
const FORWARD_CAPACITY: usize = 8;

/// Wormhole flit credit window: bytes a cut-through stream may hold
/// buffered but not yet relayed before it withholds the upstream
/// acknowledge (stalling the stream, not the port). At least
/// `HEADER_BYTES` so starting a stream never withholds the header
/// byte's own acknowledge.
const STREAM_CREDITS: usize = 4;

/// Fixed hop-latency histogram size: values below 8 ns map to
/// themselves, larger values to four sub-buckets per power of two
/// (relative resolution ≤ 25%), all in integer nanoseconds — no floats
/// anywhere near fingerprint-adjacent state.
const HOP_BUCKETS: usize = 256;

/// Histogram bucket for a hop latency of `ns`.
fn hop_bucket(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (e - 2)) & 3) as usize;
    (8 + (e - 3) * 4 + sub).min(HOP_BUCKETS - 1)
}

/// Inclusive upper bound, in ns, of histogram bucket `bucket`.
fn hop_bucket_ceil_ns(bucket: usize) -> u64 {
    if bucket < 8 {
        return bucket as u64;
    }
    let e = (bucket - 8) / 4 + 3;
    let sub = ((bucket - 8) % 4) as u64;
    (1u64 << e) + (sub + 1) * (1u64 << (e - 2)) - 1
}

/// Router activity counters, aggregated network-wide. Host-visible
/// observability only — never part of outcome fingerprints (the
/// per-wire delivered-byte counters are what the fingerprints pin).
#[derive(Debug, Clone, Copy)]
pub struct RouterStats {
    /// Packets injected by source CPUs.
    pub packets_sent: u64,
    /// Transit packets enqueued (or cut through) at intermediate hops.
    pub packets_forwarded: u64,
    /// Packets delivered to destination CPUs.
    pub packets_delivered: u64,
    /// Packets dropped for lack of a route (after mid-run wire death).
    pub packets_dropped: u64,
    /// Forwarding hops that began retransmission (one packet starting
    /// across one wire, from a queue or a cut-through stream).
    pub hops: u64,
    /// Total header-forwarding latency over all hops, in ns: from the
    /// packet's first byte arriving at the node (transit) or entering
    /// its forwarding queue (injection) to its first byte leaving on
    /// the out wire. This is the per-hop delay a packet's *head*
    /// accrues — the quantity wormhole cut-through shrinks from a full
    /// store-and-forward reassembly to a header decode.
    pub hop_ns_total: u64,
    /// Worst single hop latency, in ns.
    pub max_hop_ns: u64,
    /// Fixed-bucket hop-latency histogram (see `hop_bucket`), the
    /// integer basis for [`RouterStats::hop_percentile_ns`].
    pub hop_hist: [u64; HOP_BUCKETS],
}

impl Default for RouterStats {
    fn default() -> Self {
        RouterStats {
            packets_sent: 0,
            packets_forwarded: 0,
            packets_delivered: 0,
            packets_dropped: 0,
            hops: 0,
            hop_ns_total: 0,
            max_hop_ns: 0,
            hop_hist: [0; HOP_BUCKETS],
        }
    }
}

impl RouterStats {
    /// Mean hop latency in nanoseconds.
    pub fn mean_hop_ns(&self) -> u64 {
        self.hop_ns_total.checked_div(self.hops).unwrap_or(0)
    }

    /// Hop latency at or below which `pct` percent of hops completed,
    /// reported as the histogram bucket's upper bound (≤ 25% over the
    /// true value; capped at the exact maximum).
    pub fn hop_percentile_ns(&self, pct: u64) -> u64 {
        if self.hops == 0 {
            return 0;
        }
        let target = (self.hops * pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (b, &count) in self.hop_hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                return hop_bucket_ceil_ns(b).min(self.max_hop_ns);
            }
        }
        self.max_hop_ns
    }

    /// Median hop latency in nanoseconds (histogram bucket bound).
    pub fn p50_hop_ns(&self) -> u64 {
        self.hop_percentile_ns(50)
    }

    /// 99th-percentile hop latency in nanoseconds (histogram bucket
    /// bound).
    pub fn p99_hop_ns(&self) -> u64 {
        self.hop_percentile_ns(99)
    }

    fn record_hop(&mut self, hop_ns: u64) {
        self.hops += 1;
        self.hop_ns_total += hop_ns;
        self.max_hop_ns = self.max_hop_ns.max(hop_ns);
        self.hop_hist[hop_bucket(hop_ns)] += 1;
    }
}

/// One framed packet: arriving, queued, in construction or being
/// delivered.
#[derive(Debug, Clone, Copy, Default)]
struct Packet {
    vc: u16,
    eom: bool,
    len: u8,
    data: [u8; MAX_PAYLOAD],
    /// Hop-latency stamp: when the packet's first wire byte arrived at
    /// this node (transit) — the header-decode instant once a relay
    /// starts on it — or when it entered its forwarding queue
    /// (injection). Not reset on park/rescue requeues, so the recorded
    /// hop includes genuine queueing and rerouting delay.
    enq_ns: u64,
}

impl Packet {
    fn wire_len(&self) -> usize {
        HEADER_BYTES + usize::from(self.len)
    }

    /// Byte `pos` of the packet's wire image (header, then payload).
    fn byte(&self, pos: usize) -> u8 {
        if pos < HEADER_BYTES {
            let header = VcHeader {
                vc: self.vc,
                len: self.len,
                eom: self.eom,
            };
            header.encode()[pos]
        } else {
            self.data[pos - HEADER_BYTES]
        }
    }
}

/// A physical in port's reassembly record: the only place an arriving
/// packet lives. The header fields are decoded into `pkt` at the fourth
/// byte and the payload is written in place; a cut-through relay reads
/// the record while it fills.
#[derive(Debug, Default, Clone, Copy)]
struct Rx {
    pkt: Packet,
    /// The header bytes, held until the fourth decodes them into `pkt`.
    head: [u8; HEADER_BYTES],
    /// Wire bytes received so far (header included).
    got: usize,
    /// The out port relaying this record while it fills (wormhole).
    relay: Option<usize>,
}

impl Rx {
    /// Absorb one wire byte; return whether it completes the packet.
    fn push(&mut self, byte: u8, now_ns: u64) -> bool {
        if self.got == 0 {
            self.pkt.enq_ns = now_ns;
        }
        if self.got < HEADER_BYTES {
            self.head[self.got] = byte;
        } else {
            self.pkt.data[self.got - HEADER_BYTES] = byte;
        }
        self.got += 1;
        if self.got == HEADER_BYTES {
            let h =
                VcHeader::decode(self.head).expect("router peer sent a malformed packet header");
            (self.pkt.vc, self.pkt.len, self.pkt.eom) = (h.vc, h.len, h.eom);
        }
        self.got > HEADER_BYTES && self.got == self.pkt.wire_len()
    }
}

/// A physical out port's transmitter. It sends the packet at the front
/// of the port's queue or, while it relays, the record of the in port
/// feeding it.
#[derive(Debug, Default, Clone, Copy)]
struct Tx {
    /// Next wire byte index to send.
    next: usize,
    /// Whether byte `next - 1` is on the wire awaiting its acknowledge
    /// (false while relaying = the relay is starved: every sent byte is
    /// acknowledged and byte `next` has not arrived yet).
    inflight: bool,
    /// The in port whose record this transmitter relays.
    feed: Option<usize>,
}

/// A packet in construction from a CPU source port's byte stream.
#[derive(Debug, Clone, Copy)]
struct Build {
    pkt: Packet,
    /// Physical out port reserved for the packet (`None` when the
    /// destination is unreachable — the packet will be dropped when it
    /// closes).
    out_port: Option<usize>,
}

/// A packet being handed byte-by-byte to the destination CPU's link
/// receiver.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    pkt: Packet,
    /// Bytes already handed to the CPU link engine.
    pos: u8,
    /// The last handed byte sits in the CPU's one-byte link buffer; the
    /// next byte may only follow once the CPU raises its deferred
    /// acknowledge (a process consumed the byte).
    waiting: bool,
}

/// One node's router state. Indices 0..4 are CPU-local virtual-channel
/// ports on the local side and physical wire ports on the wire side —
/// the two sides are independent.
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeRouter {
    /// Virtual channels sourced from each CPU out port, in registration
    /// order; consecutive messages round-robin across them.
    out_vcs: [Vec<u16>; 4],
    out_cursor: [usize; 4],
    /// In-construction packet per CPU source port.
    build: [Option<Build>; 4],
    /// In-progress delivery per CPU destination port.
    delivery: [Option<Delivery>; 4],
    /// Message atomicity per CPU destination port: once a multi-packet
    /// message starts delivering, other virtual channels park until its
    /// end-of-message packet completes.
    open_vc: [Option<u16>; 4],
    /// Bounded forwarding queue per physical out port.
    outq: [VecDeque<Packet>; 4],
    /// Queue slots reserved by in-construction local packets.
    reserved: [u8; 4],
    /// Transmitter per physical out port.
    tx: [Tx; 4],
    /// Reassembly record per physical in port.
    rx: [Rx; 4],
    /// A completed packet the node could not yet accept, parked with
    /// its final-byte acknowledge withheld (this is the backpressure).
    parked: [Option<Packet>; 4],
    /// Whether an acknowledge is being withheld on each physical port.
    withheld: [bool; 4],
}

impl NodeRouter {
    /// Whether `port`'s transmitter is free to start a packet: no byte
    /// awaits an acknowledge and no relay holds it.
    fn tx_idle(&self, port: usize) -> bool {
        let tx = self.tx[port];
        !tx.inflight && tx.feed.is_none()
    }

    /// The packet `port`'s transmitter sends, and how many of its wire
    /// bytes are at hand: all of the queue's front packet, or as much of
    /// the relayed record as has arrived.
    fn tx_source(&self, port: usize) -> (&Packet, usize) {
        match self.tx[port].feed {
            Some(q) => (&self.rx[q].pkt, self.rx[q].got),
            None => {
                let front = self.outq[port].front().expect("a transmitter has a packet");
                (front, front.wire_len())
            }
        }
    }

    /// Put `port`'s next byte on the wire if its source holds it;
    /// return whether a byte went out.
    fn send_next(&mut self, fabric: &mut Fabric, node: usize, port: usize, now_ns: u64) -> bool {
        let (pkt, have) = self.tx_source(port);
        let next = self.tx[port].next;
        if next == have {
            return false;
        }
        let byte = pkt.byte(next);
        fabric.put(node, port, PacketKind::Data(byte), now_ns);
        self.tx[port].next += 1;
        self.tx[port].inflight = true;
        true
    }
}

/// The network-wide router: routing tables, virtual-channel map, and
/// per-node state.
#[derive(Debug)]
pub(crate) struct RouterNet {
    /// `tables[node * n + dest]` = physical out port, [`NO_ROUTE`] for
    /// self or unreachable (see [`route_tables`]).
    tables: Vec<u8>,
    /// Destination `(node, cpu_port)` per virtual-channel id.
    vc_dst: Vec<(usize, usize)>,
    adj: Adjacency,
    dead: HashSet<usize>,
    nodes: Vec<NodeRouter>,
    /// Whether cut-through streaming is allowed: wormhole mode, lossless
    /// wires, *and* the tables' channel-dependency graph proven acyclic.
    /// Fixed at build; otherwise the router forwards store-and-forward.
    cut_through: bool,
    pub(crate) stats: RouterStats,
}

impl RouterNet {
    pub(crate) fn new(
        adj: Adjacency,
        tables: Vec<u8>,
        dead: HashSet<usize>,
        vcs: &[VcSpec],
        config: RouterConfig,
        lossless: bool,
    ) -> RouterNet {
        let n = adj.len();
        let mut nodes = vec![NodeRouter::default(); n];
        let mut vc_dst = Vec::with_capacity(vcs.len());
        for (vc, &((sn, sp), (dn, dp))) in vcs.iter().enumerate() {
            assert!(sn != dn, "virtual channel {vc} loops node {sn} to itself");
            assert!(sp < 4 && dp < 4, "virtual-channel CPU ports are 0..4");
            nodes[sn].out_vcs[sp].push(vc as u16);
            vc_dst.push((dn, dp));
        }
        let cut_through = config.switching == Switching::Wormhole
            && lossless
            && crate::topology::cdg_acyclic(&adj, &tables);
        RouterNet {
            tables,
            vc_dst,
            adj,
            dead,
            nodes,
            cut_through,
            stats: RouterStats::default(),
        }
    }

    /// The port on which `node` forwards a packet for `dest` (`None`
    /// for `node` itself or an unreachable `dest`).
    fn route(&self, node: usize, dest: usize) -> Option<usize> {
        match self.tables[node * self.nodes.len() + dest] {
            NO_ROUTE => None,
            port => Some(usize::from(port)),
        }
    }

    /// The next hop of a virtual channel's packet at `node`: the out
    /// port toward its destination (`None` when the channel ends at
    /// `node` or its destination is unreachable).
    fn out_port(&self, node: usize, vc: u16) -> Option<usize> {
        self.route(node, self.vc_dst[usize::from(vc)].0)
    }

    /// Whether `node`'s out queue on `port` admits no new packet
    /// (queued plus reserved reach `FORWARD_CAPACITY`).
    fn queue_full(&self, node: usize, port: usize) -> bool {
        let r = &self.nodes[node];
        r.outq[port].len() + usize::from(r.reserved[port]) >= FORWARD_CAPACITY
    }

    /// Whether cut-through streaming is armed (wormhole mode on lossless
    /// wires with a proven acyclic channel-dependency graph; see
    /// [`Switching`]).
    pub(crate) fn cut_through(&self) -> bool {
        self.cut_through
    }

    /// Whether `node`'s physical `port` has a data byte on the wire
    /// awaiting its acknowledge, mid-packet or relaying.
    pub(crate) fn awaits_ack(&self, node: usize, port: usize) -> bool {
        self.nodes[node].tx[port].inflight
    }

    /// Whether `node` withholds the acknowledge of the last byte it
    /// accepted on physical `port` (backpressure or an exhausted stream
    /// credit): a duplicate of that byte is answered busy.
    pub(crate) fn withholds_ack(&self, node: usize, port: usize) -> bool {
        self.nodes[node].withheld[port]
    }

    /// Service a node's CPU-facing side at `now_ns`: resume deliveries
    /// whose deferred acknowledge the CPU has raised, then drain any
    /// output the CPU has ready. Idempotent — the event engine calls
    /// this after every instruction, the sliced engines only at
    /// interaction points, and the extra calls are no-ops.
    pub(crate) fn service_node(
        &mut self,
        cpus: &mut [Cpu],
        fabric: &mut Fabric,
        node: usize,
        now_ns: u64,
    ) {
        let was_idle = cpus[node].is_idle();
        for port in 0..4 {
            let waiting = matches!(self.nodes[node].delivery[port], Some(d) if d.waiting);
            if waiting && cpus[node].link_take_deferred_ack(port) {
                if let Some(d) = &mut self.nodes[node].delivery[port] {
                    d.waiting = false;
                }
                self.continue_delivery(cpus, fabric, node, port, now_ns);
            }
        }
        self.drain_injection(cpus, fabric, node, now_ns);
        if was_idle && !cpus[node].is_idle() {
            fabric.schedule_node(node, now_ns);
        }
    }

    /// Hand delivery bytes to the CPU until the packet completes or a
    /// byte lodges in the CPU's one-byte link buffer.
    fn continue_delivery(
        &mut self,
        cpus: &mut [Cpu],
        fabric: &mut Fabric,
        node: usize,
        port: usize,
        now_ns: u64,
    ) {
        loop {
            let Some(mut d) = self.nodes[node].delivery[port] else {
                return;
            };
            if d.waiting {
                return;
            }
            if usize::from(d.pos) == usize::from(d.pkt.len) {
                // Final byte confirmed: the slot frees, the message
                // either continues (more packets of this vc) or closes.
                self.nodes[node].delivery[port] = None;
                self.nodes[node].open_vc[port] = if d.pkt.eom { None } else { Some(d.pkt.vc) };
                self.stats.packets_delivered += 1;
                self.unpark(cpus, fabric, node, now_ns);
                return;
            }
            let byte = d.pkt.data[usize::from(d.pos)];
            let consumed = cpus[node].link_rx_deliver(port, byte);
            d.pos += 1;
            d.waiting = !consumed;
            self.nodes[node].delivery[port] = Some(d);
        }
    }

    /// Try to accept a packet addressed to this node's CPU.
    fn accept_local(
        &mut self,
        cpus: &mut [Cpu],
        fabric: &mut Fabric,
        node: usize,
        pkt: Packet,
        now_ns: u64,
    ) -> bool {
        let (_, port) = self.vc_dst[usize::from(pkt.vc)];
        let r = &mut self.nodes[node];
        if r.delivery[port].is_some() || r.open_vc[port].is_some_and(|v| v != pkt.vc) {
            return false;
        }
        r.open_vc[port] = Some(pkt.vc);
        r.delivery[port] = Some(Delivery {
            pkt,
            pos: 0,
            waiting: false,
        });
        self.continue_delivery(cpus, fabric, node, port, now_ns);
        true
    }

    /// Route a completed packet at `node`: deliver locally, enqueue for
    /// the next hop, or drop it if no route remains. Returns whether
    /// the packet was consumed (false = caller must park it).
    fn route_packet(
        &mut self,
        cpus: &mut [Cpu],
        fabric: &mut Fabric,
        node: usize,
        pkt: Packet,
        now_ns: u64,
    ) -> bool {
        if self.vc_dst[usize::from(pkt.vc)].0 == node {
            return self.accept_local(cpus, fabric, node, pkt, now_ns);
        }
        let Some(port) = self.out_port(node, pkt.vc) else {
            self.stats.packets_dropped += 1;
            return true;
        };
        if self.queue_full(node, port) {
            return false;
        }
        self.stats.packets_forwarded += 1;
        self.enqueue(fabric, node, port, pkt, now_ns);
        true
    }

    /// Append a packet to a physical out port's queue, starting the
    /// transmitter if the port is free.
    fn enqueue(&mut self, fabric: &mut Fabric, node: usize, port: usize, pkt: Packet, now_ns: u64) {
        self.nodes[node].outq[port].push_back(pkt);
        self.start_tx(fabric, node, port, now_ns);
    }

    /// Start `port`'s transmitter on its queue's front packet, if the
    /// port is free and the queue is not empty.
    fn start_tx(&mut self, fabric: &mut Fabric, node: usize, port: usize, now_ns: u64) {
        let r = &self.nodes[node];
        if r.tx_idle(port) && !r.outq[port].is_empty() {
            self.launch(fabric, node, port, None, now_ns);
        }
    }

    /// Start `port`'s transmitter on a packet — its queue's front, or
    /// the record of in port `feed` — by sending its first byte. The
    /// packet's head leaves the node: one hop's worth of
    /// header-forwarding latency is decided here.
    fn launch(
        &mut self,
        fabric: &mut Fabric,
        node: usize,
        port: usize,
        feed: Option<usize>,
        now_ns: u64,
    ) {
        let r = &mut self.nodes[node];
        r.tx[port] = Tx {
            next: 0,
            inflight: false,
            feed,
        };
        let enq_ns = r.tx_source(port).0.enq_ns;
        self.stats.record_hop(now_ns.saturating_sub(enq_ns));
        r.send_next(fabric, node, port, now_ns);
    }

    /// A fresh acknowledge arrived on `node`'s physical `port` (the wire
    /// filtered out stale ones and flipped its sequence bit).
    pub(crate) fn phys_ack(
        &mut self,
        cpus: &mut [Cpu],
        fabric: &mut Fabric,
        node: usize,
        port: usize,
        now_ns: u64,
    ) {
        let r = &mut self.nodes[node];
        debug_assert!(
            r.tx[port].inflight,
            "a fresh acknowledge has a byte awaiting it"
        );
        if r.send_next(fabric, node, port, now_ns) {
            // Mid-packet: the next byte went out; the CPU is not party.
            // A relayed byte returned a flit credit: release a withheld
            // upstream acknowledge.
            if let Some(q) = r.tx[port].feed {
                if r.withheld[q] && r.rx[q].got - r.tx[port].next < STREAM_CREDITS {
                    r.withheld[q] = false;
                    fabric.put(node, q, PacketKind::Ack, now_ns);
                }
            }
            return;
        }
        if r.tx[port].feed.is_some() {
            // The relay is starved until its record's next byte arrives.
            r.tx[port].inflight = false;
            return;
        }
        let was_idle = cpus[node].is_idle();
        r.outq[port].pop_front();
        r.tx[port] = Tx::default();
        self.start_tx(fabric, node, port, now_ns);
        // A queue slot freed: parked packets and stalled local injection
        // may proceed now, at this wire event's time, in every engine
        // alike.
        self.unpark(cpus, fabric, node, now_ns);
        self.drain_injection(cpus, fabric, node, now_ns);
        if was_idle && !cpus[node].is_idle() {
            fabric.schedule_node(node, now_ns);
        }
    }

    /// A fresh data byte arrived on `node`'s physical `port` (the wire
    /// answered duplicates itself and flipped its sequence bit).
    pub(crate) fn phys_data(
        &mut self,
        cpus: &mut [Cpu],
        fabric: &mut Fabric,
        node: usize,
        port: usize,
        byte: u8,
        now_ns: u64,
    ) {
        let r = &mut self.nodes[node];
        let done = r.rx[port].push(byte, now_ns);
        if r.rx[port].got == HEADER_BYTES {
            self.try_cut_through(fabric, node, port, now_ns);
        }
        let r = &mut self.nodes[node];
        if let Some(op) = r.rx[port].relay {
            // A relay starved for this byte sends it at once.
            if !r.tx[op].inflight {
                r.send_next(fabric, node, op, now_ns);
            }
            if done {
                // Tail: the packet is whole, so the rest of its
                // transmission runs from the front of the out queue
                // (the hop completes when the last byte acknowledges).
                r.outq[op].push_front(std::mem::take(&mut r.rx[port]).pkt);
                r.tx[op].feed = None;
            } else if r.rx[port].got - r.tx[op].next >= STREAM_CREDITS {
                // Out of flit credit: withhold the acknowledge so the
                // upstream transmitter stalls mid-packet — the stream
                // stalls, the port does not.
                r.withheld[port] = true;
                return;
            }
            fabric.put(node, port, PacketKind::Ack, now_ns);
            return;
        }
        if !done {
            // Mid-packet: the CPU is not party.
            fabric.put(node, port, PacketKind::Ack, now_ns);
            return;
        }
        let pkt = std::mem::take(&mut r.rx[port]).pkt;
        let was_idle = cpus[node].is_idle();
        if self.route_packet(cpus, fabric, node, pkt, now_ns) {
            fabric.put(node, port, PacketKind::Ack, now_ns);
        } else {
            // No room: park the packet and withhold the final byte's
            // acknowledge — the upstream transmitter stalls, which is
            // the backpressure.
            self.nodes[node].parked[port] = Some(pkt);
            self.nodes[node].withheld[port] = true;
        }
        if was_idle && !cpus[node].is_idle() {
            fabric.schedule_node(node, now_ns);
        }
    }

    /// Wormhole mode: a transit packet's header just decoded on `port`,
    /// with payload still to come. If the routed out port is fully idle,
    /// relay the record from now on: the header goes straight back out
    /// and the payload follows byte by byte as it arrives. A busy out
    /// port falls back to store-and-forward for this packet, and local
    /// delivery and an unreachable destination reassemble the whole
    /// packet first.
    fn try_cut_through(&mut self, fabric: &mut Fabric, node: usize, port: usize, now_ns: u64) {
        if !self.cut_through {
            return;
        }
        let Some(op) = self.out_port(node, self.nodes[node].rx[port].pkt.vc) else {
            return;
        };
        let r = &self.nodes[node];
        if !r.tx_idle(op) || !r.outq[op].is_empty() {
            return;
        }
        self.stats.packets_forwarded += 1;
        self.nodes[node].rx[port].relay = Some(op);
        // The stream's hop: first header byte arriving to the header
        // starting back out — the cut-through latency itself. From here
        // on the record's stamp is the header-decode instant.
        self.launch(fabric, node, op, Some(port), now_ns);
        self.nodes[node].rx[port].pkt.enq_ns = now_ns;
    }

    /// Retry parked packets (in physical-port order) after capacity or
    /// a delivery slot freed; releasing one also releases its withheld
    /// acknowledge. The packet leaves its slot while it is routed: a
    /// delivery it completes on the spot unparks again, and must not
    /// find it there.
    fn unpark(&mut self, cpus: &mut [Cpu], fabric: &mut Fabric, node: usize, now_ns: u64) {
        for port in 0..4 {
            let Some(pkt) = self.nodes[node].parked[port].take() else {
                continue;
            };
            if self.route_packet(cpus, fabric, node, pkt, now_ns) {
                self.nodes[node].withheld[port] = false;
                fabric.put(node, port, PacketKind::Ack, now_ns);
            } else {
                self.nodes[node].parked[port] = Some(pkt);
            }
        }
    }

    /// Pull output bytes from the CPU's link transmitters into packets.
    /// Stalls only at packet boundaries, and only while the target out
    /// queue is full.
    fn drain_injection(&mut self, cpus: &mut [Cpu], fabric: &mut Fabric, node: usize, now_ns: u64) {
        for port in 0..4 {
            if self.nodes[node].out_vcs[port].is_empty() {
                continue;
            }
            loop {
                if self.nodes[node].build[port].is_none() {
                    if !cpus[node].link_output_busy(port) {
                        break; // nothing to send on this port
                    }
                    let r = &self.nodes[node];
                    let vc = r.out_vcs[port][r.out_cursor[port] % r.out_vcs[port].len()];
                    let out_port = self.out_port(node, vc);
                    if let Some(p) = out_port {
                        if self.queue_full(node, p) {
                            break; // backpressure: stall at the packet boundary
                        }
                        self.nodes[node].reserved[p] += 1;
                    }
                    let pkt = Packet {
                        vc,
                        ..Packet::default()
                    };
                    self.nodes[node].build[port] = Some(Build { pkt, out_port });
                }
                let Some(byte) = cpus[node].link_tx_poll(port) else {
                    break;
                };
                let b = self.nodes[node].build[port]
                    .as_mut()
                    .expect("build slot just ensured");
                b.pkt.data[usize::from(b.pkt.len)] = byte;
                b.pkt.len += 1;
                // The CPU-router interface is on-chip: acknowledge
                // immediately, whatever protocol the wires speak.
                cpus[node].link_tx_ack(port);
                let eom = !cpus[node].link_output_busy(port);
                if !eom && usize::from(b.pkt.len) < MAX_PAYLOAD {
                    continue;
                }
                let Build { mut pkt, out_port } = *b;
                self.nodes[node].build[port] = None;
                pkt.eom = eom;
                pkt.enq_ns = now_ns;
                self.stats.packets_sent += 1;
                match out_port {
                    Some(p) => {
                        self.nodes[node].reserved[p] -= 1;
                        self.enqueue(fabric, node, p, pkt, now_ns);
                    }
                    None => self.stats.packets_dropped += 1,
                }
                if eom {
                    let r = &mut self.nodes[node];
                    r.out_cursor[port] = (r.out_cursor[port] + 1) % r.out_vcs[port].len();
                }
            }
        }
    }

    /// A wire direction exhausted its retries: declare the whole wire
    /// dead, rebuild the tables over the surviving links, reroute the
    /// two end nodes' stranded traffic, and kick both ends. Packets
    /// whose destination became unreachable are dropped. Runs at the
    /// wire's resend-deadline pop, so every engine sees it at the same
    /// instant. A wire dies only under a fault plan, where no stream is
    /// cut through, so no relay crosses the dead wire.
    pub(crate) fn wire_failed(
        &mut self,
        cpus: &mut [Cpu],
        fabric: &mut Fabric,
        wire: usize,
        ends: [(usize, usize); 2],
        now_ns: u64,
    ) {
        debug_assert!(!self.cut_through, "a wire died under cut-through");
        if !self.dead.insert(wire) {
            return; // the other direction already failed
        }
        self.tables = route_tables(&self.adj, &self.dead);
        for &(node, port) in &ends {
            let r = &mut self.nodes[node];
            // Abandon the half-sent front packet and the dead port's
            // queue; partial reassembly on the dead wire is discarded,
            // and acknowledges on it will never arrive.
            r.tx[port] = Tx::default();
            r.rx[port] = Rx::default();
            let stranded: Vec<Packet> = r.outq[port].drain(..).collect();
            for pkt in stranded {
                match self.out_port(node, pkt.vc) {
                    // Requeue past the capacity bound: the bound gates
                    // new admissions, not rescue traffic.
                    Some(next) => self.enqueue(fabric, node, next, pkt, now_ns),
                    None => self.stats.packets_dropped += 1,
                }
            }
            // Retarget any packet under construction toward the dead
            // port.
            for cpu_port in 0..4 {
                let Some(b) = self.nodes[node].build[cpu_port] else {
                    continue;
                };
                if b.out_port != Some(port) {
                    continue;
                }
                let out_port = self.out_port(node, b.pkt.vc);
                let r = &mut self.nodes[node];
                r.reserved[port] = r.reserved[port].saturating_sub(1);
                if let Some(p) = out_port {
                    r.reserved[p] += 1;
                }
                r.build[cpu_port] = Some(Build { out_port, ..b });
            }
            self.unpark(cpus, fabric, node, now_ns);
            self.drain_injection(cpus, fabric, node, now_ns);
        }
    }

    /// Nodes a virtual channel can no longer link to its destination —
    /// used by applications to exclude unreachable participants.
    pub(crate) fn reachable(&self, from: usize, to: usize) -> bool {
        from == to || self.route(from, to).is_some()
    }

    /// Network-wide router counters.
    pub(crate) fn stats(&self) -> RouterStats {
        self.stats
    }
}
