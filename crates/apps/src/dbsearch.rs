//! Concurrent database search (Figure 8 and §4.2 of the paper).
//!
//! "Here 16 transputers are connected into a square array with search
//! requests input at one corner of the array, and answers being output
//! from the other corner. Each transputer keeps a small part of the
//! database in its local memory. ... A search request is forwarded to any
//! connected transputer which has not yet received the request and
//! simultaneously a search is made through the local data. ... answers
//! \[are\] merged with the answer generated from the local data and
//! forwarded."
//!
//! The flood and merge are deterministic here: requests flow down a
//! breadth-first spanning tree rooted at the north-west corner, and
//! partial answers merge up a second spanning tree rooted at the
//! south-east corner, leaving through that corner. On an intact grid the
//! parent preferences (west-then-north for requests, east-then-south for
//! answers) reproduce the classic routing of the paper's figure —
//! requests east along every row and south down column 0, answers east
//! along each row and south down the last column. When a
//! [`transputer_link::FaultPlan`] declares grid wires dead at boot, both
//! trees are recomputed over the surviving links: the search routes
//! around the damage, and any node cut off from either corner is excluded
//! from the search (its records drop out of the expected counts and the
//! report is flagged degraded). Requests pipeline: "requests can be
//! pipelined through the system with a further request being input before
//! the previous one has come out" (§4.2).
//!
//! Every node runs the same occam program (specialised only by its
//! position in the two trees), compiled by the `occam` crate and executed
//! on emulated transputers wired with bit-level links.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use crate::workload::{Workload, RECORD_WORDS};
use occam::places;
use transputer::WordLength;
use transputer_net::topology::{
    adjacency, bfs_dist, grid_wires, hypercube_adjacency, hypercube_wires, Adjacency, WireEnds,
    PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST,
};
use transputer_net::{Network, NetworkBuilder, NetworkConfig, NodeId, SimError, SimOutcome};

/// Configuration of a database-search array.
#[derive(Debug, Clone)]
pub struct DbSearchConfig {
    /// Grid width (≥ 2).
    pub width: usize,
    /// Grid height (≥ 2).
    pub height: usize,
    /// Records held by each transputer (the paper: 200).
    pub records_per_node: usize,
    /// Number of pipelined search requests to issue.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// Key space size (controls expected match counts).
    pub key_space: u32,
    /// Network configuration.
    pub net: NetworkConfig,
}

impl DbSearchConfig {
    /// Figure 8: 16 transputers in a square array.
    pub fn figure8() -> DbSearchConfig {
        DbSearchConfig {
            width: 4,
            height: 4,
            records_per_node: 200,
            requests: 4,
            seed: 1985,
            key_space: 500,
            net: NetworkConfig::default(),
        }
    }

    /// §4.2: the 128-transputer board holding 25 600 records.
    pub fn board128() -> DbSearchConfig {
        DbSearchConfig {
            width: 16,
            height: 8,
            records_per_node: 200,
            requests: 4,
            seed: 1985,
            key_space: 2000,
            net: NetworkConfig::default(),
        }
    }

    /// Total records in the array.
    pub fn total_records(&self) -> usize {
        self.width * self.height * self.records_per_node
    }

    /// The longest request path in links: across the top row plus down
    /// column 0, then the answer path back along the bottom row and down
    /// the last column is symmetric. (§4.2's "longest path across the
    /// system".)
    pub fn longest_path_links(&self) -> usize {
        (self.width - 1) + (self.height - 1)
    }

    fn shape(&self) -> Shape {
        Shape::Grid(self.width, self.height)
    }

    fn params(&self) -> SearchParams {
        SearchParams {
            records_per_node: self.records_per_node,
            requests: self.requests,
            seed: self.seed,
            key_space: self.key_space,
            net: self.net.clone(),
            longest_path_links: self.longest_path_links(),
        }
    }
}

/// Configuration of a database-search machine shaped as a hypercube of
/// grid clusters ([`transputer_net::topology::hypercube_wires`]): `2^dim`
/// `side` × `side` arrays joined by one wire per hypercube edge. The
/// same per-node occam runs as on the flat grid — only the two spanning
/// trees change shape — which is §2.1's point that system structure is a
/// wiring choice, not a programming one.
#[derive(Debug, Clone)]
pub struct HypercubeConfig {
    /// Hypercube dimension (`2^dim` clusters, ≤ 4 on a four-link part).
    pub dim: usize,
    /// Cluster side length (≥ 2).
    pub side: usize,
    /// Records held by each transputer.
    pub records_per_node: usize,
    /// Number of pipelined search requests to issue.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// Key space size (controls expected match counts).
    pub key_space: u32,
    /// Network configuration.
    pub net: NetworkConfig,
}

impl HypercubeConfig {
    /// The RTNN-style 256-node machine: a dimension-4 hypercube of 4×4
    /// clusters holding 51 200 records.
    pub fn hypercube256() -> HypercubeConfig {
        HypercubeConfig {
            dim: 4,
            side: 4,
            records_per_node: 200,
            requests: 4,
            seed: 1985,
            key_space: 4000,
            net: NetworkConfig::default(),
        }
    }

    /// Number of transputers in the machine.
    pub fn node_count(&self) -> usize {
        (1usize << self.dim) * self.side * self.side
    }

    /// Total records in the machine.
    pub fn total_records(&self) -> usize {
        self.node_count() * self.records_per_node
    }

    /// The longest request path in links: the BFS depth of the farthest
    /// node from the request corner on the intact machine.
    pub fn longest_path_links(&self) -> usize {
        let adj = hypercube_adjacency(self.dim, self.side);
        bfs_dist(&adj, 0, &HashSet::new())
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0) as usize
    }

    fn shape(&self) -> Shape {
        Shape::Cube(self.dim, self.side)
    }

    fn params(&self) -> SearchParams {
        SearchParams {
            records_per_node: self.records_per_node,
            requests: self.requests,
            seed: self.seed,
            key_space: self.key_space,
            net: self.net.clone(),
            longest_path_links: self.longest_path_links(),
        }
    }
}

/// The array's wiring: a `width` × `height` grid or a `dim`, `side`
/// hypercube of clusters.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Grid(usize, usize),
    Cube(usize, usize),
}

/// How requests and answers travel: down and up planned spanning trees
/// over the classic links, or over the router's virtual channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    Planned,
    Routed,
}

impl Shape {
    fn node_count(self) -> usize {
        match self {
            Shape::Grid(w, h) => w * h,
            Shape::Cube(dim, side) => (1usize << dim) * side * side,
        }
    }

    /// The whole machine as its ordered wire list: the shape's sweep
    /// over array nodes `0..n`, then the sender (node `n`) on the north
    /// port of node 0 and the collector (node `n + 1`) below the south
    /// port of node `n - 1` — the two ports every shape leaves free. The
    /// collector's wire is the machine's last, collector at the B end.
    fn wires(self, transport: Transport) -> Vec<WireEnds> {
        let n = self.node_count();
        let mut wires = match self {
            Shape::Grid(w, h) => grid_wires(w, h, 0),
            Shape::Cube(dim, side) => hypercube_wires(dim, side),
        };
        // The one wart: the sender's wire runs sender → array on a
        // planned machine but array → sender on a routed one. Every
        // committed fault fingerprint draws that wire's two
        // per-direction fate streams this way round, so it stays.
        wires.push(match transport {
            Transport::Planned => ((n, PORT_SOUTH), (0, PORT_NORTH)),
            Transport::Routed => ((0, PORT_NORTH), (n, PORT_SOUTH)),
        });
        wires.push(((n - 1, PORT_SOUTH), (n + 1, PORT_NORTH)));
        wires
    }
}

/// Parent preference for the request tree rooted at the north-west
/// corner: prefer the classic west-to-east, north-to-south flood.
const REQ_PARENT_PREF: [usize; 4] = [PORT_WEST, PORT_NORTH, PORT_EAST, PORT_SOUTH];
/// Forwarding order for request children (east first, as in the classic
/// row flood).
const REQ_CHILD_ORDER: [usize; 4] = [PORT_EAST, PORT_SOUTH, PORT_WEST, PORT_NORTH];
/// Parent preference for the answer tree rooted at the south-east
/// corner: prefer the classic east-along-rows, south-down-last-column
/// merge.
const ANS_PARENT_PREF: [usize; 4] = [PORT_EAST, PORT_SOUTH, PORT_WEST, PORT_NORTH];
/// Gathering order for answer children (west first, as in the classic
/// row merge).
const ANS_CHILD_ORDER: [usize; 4] = [PORT_WEST, PORT_NORTH, PORT_EAST, PORT_SOUTH];

/// One node's position in the request and answer spanning trees.
#[derive(Debug, Clone, Default)]
struct NodeRoutes {
    /// Whether the node participates in the search at all (it is cut
    /// off when boot-dead wires separate it from either corner).
    included: bool,
    /// Port requests arrive on (the host link for the origin corner).
    req_parent: usize,
    /// Ports requests are forwarded to, in forwarding order.
    req_children: Vec<usize>,
    /// Ports partial answers arrive on, in gathering order.
    ans_children: Vec<usize>,
    /// Port the merged answer leaves on (the host link for the exit
    /// corner).
    ans_parent: usize,
}

/// Compute both spanning trees over the links of an arbitrary machine
/// that are alive at boot. `adj` is the whole machine's link map, hosts
/// included (sender `n`, collector `n + 1`): requests flood down a BFS
/// tree rooted at the sender, answers merge up a second BFS tree rooted
/// at the collector, so the corner nodes find their host links like any
/// other parent; the preference arrays keep tie-breaks deterministic.
/// `included` marks the array nodes joined to both hosts.
fn plan_routes(adj: &Adjacency, included: &[bool], dead: &HashSet<usize>) -> Vec<NodeRoutes> {
    let n = included.len();
    let (sender, collector) = (n, n + 1);
    // Two extra entries stand for the hosts and soak up their child
    // lists.
    let mut routes: Vec<NodeRoutes> = (included.iter().chain(&[true, true]))
        .map(|&included| NodeRoutes {
            included,
            ..NodeRoutes::default()
        })
        .collect();
    let mut pick_parents = |root: usize, pref: [usize; 4], request: bool| {
        let dist = bfs_dist(adj, root, dead);
        for i in 0..n {
            if !routes[i].included {
                continue;
            }
            let d = dist[i].unwrap();
            let parent = pref
                .into_iter()
                .find(|&port| {
                    adj[i][port].is_some_and(|(peer, _, wire)| {
                        !dead.contains(&wire) && routes[peer].included && dist[peer] == Some(d - 1)
                    })
                })
                .expect("a BFS-reachable node has a parent one step closer");
            let (peer, peer_port, _) = adj[i][parent].unwrap();
            if request {
                routes[i].req_parent = parent;
                routes[peer].req_children.push(peer_port);
            } else {
                routes[i].ans_parent = parent;
                routes[peer].ans_children.push(peer_port);
            }
        }
    };
    pick_parents(sender, REQ_PARENT_PREF, true);
    pick_parents(collector, ANS_PARENT_PREF, false);
    routes.truncate(n);
    let order_of = |order: [usize; 4]| move |p: &usize| order.iter().position(|o| o == p);
    for r in &mut routes {
        r.req_children.sort_by_key(order_of(REQ_CHILD_ORDER));
        r.ans_children.sort_by_key(order_of(ANS_CHILD_ORDER));
    }
    routes
}

/// Wires declared dead from boot by the configured fault plan; wires
/// that die later degrade the run instead of being routed around.
fn boot_dead(net: &NetworkConfig) -> HashSet<usize> {
    net.fault
        .as_ref()
        .map(|plan| {
            plan.dead
                .iter()
                .filter(|d| d.from_ns == 0)
                .map(|d| d.wire)
                .collect()
        })
        .unwrap_or_default()
}

/// A built, loaded search machine ready to run — a flat grid
/// ([`DbSearch::build`]) or a hypercube of clusters
/// ([`DbSearch::build_hypercube`]); the run loop is shape-blind.
#[derive(Debug)]
pub struct DbSearch {
    net: Network,
    requests: usize,
    faulted: bool,
    longest_path_links: usize,
    total_records: usize,
    collector: NodeId,
    collector_word: WordLength,
    answers_addr: u32,
    expected: Vec<u32>,
    /// Array nodes (ids `0..nodes`; the hosts follow).
    nodes: usize,
    excluded: usize,
    /// Wire bytes one answer message occupies on the collector's wire
    /// (a bare word on a planned machine, a framed packet on a routed
    /// one).
    bytes_per_answer: u64,
    /// Messages that make up one complete answer (one merged count on a
    /// planned machine; one per participating node on a routed one,
    /// where the collector does the merging).
    msgs_per_answer: u64,
}

/// A search machine, described: its ordered wire list, the occam text
/// of every processor, already specialised for the transport (tree
/// positions on a planned machine, one uniform program on a routed
/// one), and which array nodes take part.
struct Machine {
    wires: Vec<WireEnds>,
    nodes: Vec<String>,
    included: Vec<bool>,
    sender: String,
    collector: String,
}

/// Describe a machine around the `dead` wires. An array node takes
/// part when the alive links join it to both hosts; the rest are
/// excluded (the planned trees skip them, the router gets no channel to
/// them) and run a stub.
fn describe(
    shape: Shape,
    transport: Transport,
    records_per_node: usize,
    requests: usize,
    dead: &HashSet<usize>,
) -> Machine {
    let n = shape.node_count();
    let wires = shape.wires(transport);
    let adj = adjacency(n + 2, &wires);
    let from_sender = bfs_dist(&adj, n, dead);
    let from_collector = bfs_dist(&adj, n + 1, dead);
    let included: Vec<bool> = (0..n)
        .map(|i| from_sender[i].is_some() && from_collector[i].is_some())
        .collect();
    let nlive = included.iter().filter(|&&inc| inc).count();
    let (nodes, sender, collector) = match transport {
        Transport::Planned => (
            plan_routes(&adj, &included, dead)
                .iter()
                .map(|r| node_source(records_per_node, r))
                .collect(),
            sender_source(requests),
            collector_source(requests),
        ),
        Transport::Routed => (
            included
                .iter()
                .map(|&inc| routed_node_source(records_per_node, inc))
                .collect(),
            routed_sender_source(requests, nlive),
            routed_collector_source(requests, nlive),
        ),
    };
    Machine {
        wires,
        nodes,
        included,
        sender,
        collector,
    }
}

/// The shape-independent build parameters, with the one derived fact
/// (`longest_path_links`) each shape computes its own way.
struct SearchParams {
    records_per_node: usize,
    requests: usize,
    seed: u64,
    key_space: u32,
    net: NetworkConfig,
    longest_path_links: usize,
}

/// Results of a search run.
#[derive(Debug, Clone)]
pub struct DbSearchReport {
    /// Match counts received at the output corner, in request order
    /// (truncated to the answers that actually arrived).
    pub answers: Vec<u32>,
    /// Reference answers computed in Rust from the records of every
    /// participating node.
    pub expected: Vec<u32>,
    /// Answers that arrived before the run ended (equals `requests` on
    /// a clean run).
    pub received: usize,
    /// Whether the result is degraded: boot-dead links excluded nodes
    /// from the search, or the run ended (link declared failed mid-run,
    /// simulation budget spent under faults) before every answer
    /// arrived.
    pub degraded: bool,
    /// Nodes cut off from the corners by boot-dead links and excluded
    /// from the search.
    pub excluded_nodes: usize,
    /// Simulated nanoseconds at which each received answer arrived.
    pub answer_times_ns: Vec<u64>,
    /// Time of the first answer: request propagation + one search wave +
    /// answer merge (the paper's ~1.3 ms for 25 000 records).
    pub first_answer_ns: u64,
    /// Mean gap between consecutive answers once the pipeline is full —
    /// the reciprocal of the search throughput.
    pub pipeline_interval_ns: u64,
    /// Total simulated time.
    pub total_ns: u64,
    /// Longest request path in links.
    pub longest_path_links: usize,
    /// Total records searched per request.
    pub total_records: usize,
    /// Instructions executed across all array nodes.
    pub total_instructions: u64,
}

impl DbSearchReport {
    /// Whether every received answer matched the reference count: all of
    /// them on a clean run, the received prefix on a degraded one.
    pub fn all_correct(&self) -> bool {
        if !self.degraded && self.answers.len() != self.expected.len() {
            return false;
        }
        self.answers.len() <= self.expected.len()
            && self.answers[..] == self.expected[..self.answers.len()]
    }

    /// Searches per second once the pipeline is full.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.pipeline_interval_ns == 0 {
            0.0
        } else {
            1e9 / self.pipeline_interval_ns as f64
        }
    }
}

impl DbSearch {
    /// Build the array: plan the spanning trees around any boot-dead
    /// wires, generate per-node occam, compile, wire, load, and poke the
    /// synthetic database into each participating node's memory.
    ///
    /// # Errors
    ///
    /// Propagates compile and load failures.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 2×2.
    pub fn build(config: DbSearchConfig) -> Result<DbSearch, Box<dyn std::error::Error>> {
        Self::build_machine(config.shape(), Transport::Planned, &config.params())
    }

    /// Build the routed array: the same grid, hosts and workload as
    /// [`DbSearch::build`], but no spanning trees — every request and
    /// every answer travels a virtual channel through the packet
    /// router, so all array nodes run one uniform occam program and the
    /// wiring needs no per-topology planning. The sender round-robins
    /// each key across one request channel per participating node; each
    /// node answers the collector directly with its request index and
    /// local count packed into one word; the collector merges.
    ///
    /// # Errors
    ///
    /// Propagates compile and load failures.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 2×2.
    pub fn build_routed(config: DbSearchConfig) -> Result<DbSearch, Box<dyn std::error::Error>> {
        Self::build_machine(config.shape(), Transport::Routed, &config.params())
    }

    /// Build a hypercube-of-clusters search machine: `2^dim` grid
    /// clusters wired by [`hypercube_wires`], the request host on the
    /// north port of cluster 0's `(0, 0)` and the answer host on the
    /// south port of the last cluster's far corner (the two ports the
    /// dimension anchors leave free in every cluster).
    ///
    /// # Errors
    ///
    /// Propagates compile and load failures.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not in `1..=4` or `side < 2`.
    pub fn build_hypercube(
        config: HypercubeConfig,
    ) -> Result<DbSearch, Box<dyn std::error::Error>> {
        Self::build_machine(config.shape(), Transport::Planned, &config.params())
    }

    /// Build the routed hypercube machine: the clusters of
    /// [`DbSearch::build_hypercube`] under the closed-form e-cube
    /// tables, with every node running the same uniform routed program.
    ///
    /// # Errors
    ///
    /// Propagates compile and load failures.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not in `1..=4` or `side < 2`.
    pub fn build_routed_hypercube(
        config: HypercubeConfig,
    ) -> Result<DbSearch, Box<dyn std::error::Error>> {
        Self::build_machine(config.shape(), Transport::Routed, &config.params())
    }

    /// The one build behind the four constructors: wire the machine
    /// from its wire list, generate and load every program, poke the
    /// databases and keys, and compute the reference answers.
    fn build_machine(
        shape: Shape,
        transport: Transport,
        p: &SearchParams,
    ) -> Result<DbSearch, Box<dyn std::error::Error>> {
        if let Shape::Grid(w, h) = shape {
            assert!(w >= 2 && h >= 2, "grid must be at least 2x2");
        }
        let n = shape.node_count();
        let (sender, collector) = (n, n + 1);
        let m = describe(
            shape,
            transport,
            p.records_per_node,
            p.requests,
            &boot_dead(&p.net),
        );
        let included = &m.included;
        let nlive = included.iter().filter(|&&inc| inc).count();

        let mut b = NetworkBuilder::new(p.net.clone());
        for _ in 0..n + 2 {
            b.add_node();
        }
        b.connect_all(&m.wires);
        if transport == Transport::Routed {
            match shape {
                Shape::Grid(..) => b.enable_router(),
                Shape::Cube(dim, side) => b.enable_router_hypercube(dim, side),
            };
            // Request channels in node order — the sender's round-robin
            // then deals key `k` of round `r` to participant `k mod nlive`.
            // Each participant also gets its own answer channel into the
            // collector.
            for i in (0..n).filter(|&i| included[i]) {
                b.add_vc((sender, 0), (i, 0));
                b.add_vc((i, 1), (collector, 0));
            }
        }
        let mut net = b.build();

        // Per-node programs and databases. Excluded nodes still consume
        // their workload draw so the records of every other node match
        // the intact-machine run record for record.
        let mut workload = Workload::new(p.seed, p.key_space);
        let mut live_records: Vec<Vec<u32>> = Vec::new();
        // A machine's node texts are a handful of distinct programs (5
        // among the board's 128; every routed node runs the same one):
        // compile each once.
        let mut compiled: HashMap<&str, occam::Program> = HashMap::new();
        for (i, src) in m.nodes.iter().enumerate() {
            let program = match compiled.entry(src) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(
                    occam::compile(src)
                        .map_err(|e| format!("node {i} source failed to compile: {e}\n{src}"))?,
                ),
            };
            let cpu = net.node_mut(i);
            let word = cpu.word_length();
            let wptr = program.load(cpu)?;
            let records = workload.records(p.records_per_node);
            if !included[i] {
                continue;
            }
            let db_addr = program
                .global_addr(word, wptr, "db")
                .ok_or("node program lacks a db vector")?;
            for (j, v) in records.iter().enumerate() {
                cpu.poke_word(word.index_word(db_addr, j as u32), *v)?;
            }
            // Reference counting respects the node's word width.
            let records = records.iter().map(|v| word.mask(*v)).collect();
            live_records.push(records);
        }

        // Keys (plus the poison terminator) into the sender.
        let keys = workload.keys(p.requests);
        let sender_prog = occam::compile(&m.sender)?;
        let cpu = net.node_mut(sender);
        let word = cpu.word_length();
        let wptr = sender_prog.load(cpu)?;
        let keys_addr = sender_prog
            .global_addr(word, wptr, "keys")
            .ok_or("sender lacks keys vector")?;
        for (i, k) in keys.iter().enumerate() {
            cpu.poke_word(word.index_word(keys_addr, i as u32), *k)?;
        }
        cpu.poke_word(
            word.index_word(keys_addr, p.requests as u32),
            word.mask(u32::MAX), // poison = -1
        )?;

        // Collector.
        let collector_prog = occam::compile(&m.collector)?;
        let cpu = net.node_mut(collector);
        let collector_word = cpu.word_length();
        let cwptr = collector_prog.load(cpu)?;
        let answers_addr = collector_prog
            .global_addr(collector_word, cwptr, "answers")
            .ok_or("collector lacks answers vector")?;

        // Reference answers: each request key against every record held
        // by a participating node.
        let expected = keys
            .iter()
            .map(|k| {
                live_records
                    .iter()
                    .map(|r| Workload::count_matches(r, *k))
                    .sum()
            })
            .collect();

        // A planned answer crosses the collector's wire as one bare
        // word, merged on the way; a routed answer is a whole wave of
        // framed per-node packets, merged by the collector.
        let (bytes_per_answer, msgs_per_answer) = match transport {
            Transport::Planned => (u64::from(collector_word.bytes_per_word()), 1),
            Transport::Routed => (
                (transputer_link::vc::HEADER_BYTES + 4) as u64,
                nlive.max(1) as u64,
            ),
        };

        Ok(DbSearch {
            net,
            requests: p.requests,
            faulted: p.net.fault.is_some(),
            longest_path_links: p.longest_path_links,
            total_records: n * p.records_per_node,
            collector,
            collector_word,
            answers_addr,
            expected,
            nodes: n,
            excluded: n - nlive,
            bytes_per_answer,
            msgs_per_answer,
        })
    }

    /// Access the underlying network (for instrumentation).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying network (for driving the
    /// simulation in custom increments).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Nodes excluded from the search by boot-dead links.
    pub fn excluded_nodes(&self) -> usize {
        self.excluded
    }

    /// Run the search to completion.
    ///
    /// Under an injected fault plan a run that deadlocks (a link
    /// exhausted its retries and was declared failed) or exhausts its
    /// budget yields a *degraded* report carrying the answers received
    /// so far, rather than an error.
    ///
    /// # Errors
    ///
    /// Propagates simulation faults, and budget exhaustion when no
    /// fault plan is injected.
    pub fn run(&mut self, budget_ns: u64) -> Result<DbSearchReport, SimError> {
        let n = self.requests;
        let mut answer_times = vec![0u64; n];
        let mut seen = 0usize;
        // Answers are observed as delivered bytes on the collector's
        // wire (the last wire built, collector at end 1). Wire counters
        // advance at exact packet-delivery events in every engine, so
        // the recorded answer times are engine-independent — unlike
        // polling collector memory, which the sliced engines only expose
        // at slice boundaries.
        let answer_wire = self.net.wire_count() - 1;
        // One complete answer: `msgs_per_answer` messages of
        // `bytes_per_answer` wire bytes each (a routed machine's answer
        // is a whole wave of per-node packets, merged by the collector).
        let bytes_per_answer = self.bytes_per_answer * self.msgs_per_answer;
        let result = self.net.run_until(budget_ns, |net| {
            let (_, to_collector) = net.wire_delivered(answer_wire);
            // Runs after every heap event: compare against the next
            // answer's byte count rather than divide.
            while seen < n && to_collector >= (seen as u64 + 1) * bytes_per_answer {
                answer_times[seen] = net.time_ns();
                seen += 1;
            }
            if net.all_halted() {
                Some(SimOutcome::AllHalted)
            } else {
                None
            }
        });
        let outcome = match result {
            Ok(out) => out,
            // Under injected faults, running out of budget is one more
            // way the array degrades, not a caller error.
            Err(SimError::Budget { .. }) if self.faulted => SimOutcome::TimeLimit,
            Err(e) => return Err(e),
        };

        let received = seen;
        let degraded = self.excluded > 0 || received < n || outcome != SimOutcome::AllHalted;
        let word = self.collector_word;
        let answers: Vec<u32> = (0..received)
            .map(|i| {
                self.net
                    .node(self.collector)
                    .inspect_word(word.index_word(self.answers_addr, i as u32))
                    .unwrap_or(u32::MAX)
            })
            .collect();
        answer_times.truncate(received);
        let first = answer_times.first().copied().unwrap_or(0);
        let pipeline_interval = if received >= 2 {
            (answer_times[received - 1] - answer_times[0]) / (received as u64 - 1)
        } else {
            0
        };
        let total_instructions = (0..self.nodes)
            .map(|id| self.net.node(id).stats().instructions)
            .sum();
        Ok(DbSearchReport {
            answers,
            expected: self.expected.clone(),
            received,
            degraded,
            excluded_nodes: self.excluded,
            answer_times_ns: answer_times,
            first_answer_ns: first,
            pipeline_interval_ns: pipeline_interval,
            total_ns: self.net.time_ns(),
            longest_path_links: self.longest_path_links,
            total_records: self.total_records,
            total_instructions,
        })
    }
}

/// Channel name for a request forwarded out of `port` (the classic
/// grid's names for its east and south forwards, extended to the other
/// directions for rerouted trees).
fn req_chan(port: usize) -> &'static str {
    match port {
        PORT_NORTH => "northreq",
        PORT_EAST => "east",
        PORT_SOUTH => "southreq",
        PORT_WEST => "westreq",
        _ => unreachable!("not a grid port: {port}"),
    }
}

/// Channel name for a partial answer arriving on `port`.
fn ans_chan(port: usize) -> &'static str {
    match port {
        PORT_NORTH => "northin",
        PORT_EAST => "eastin",
        PORT_SOUTH => "southin",
        PORT_WEST => "westin",
        _ => unreachable!("not a grid port: {port}"),
    }
}

/// Occam source for an array node with the given tree position. On the
/// intact grid this emits byte-for-byte the classic Figure 8 program for
/// the node's coordinates; excluded nodes get a trivial program that
/// halts immediately.
fn node_source(nrec: usize, r: &NodeRoutes) -> String {
    if !r.included {
        return "SEQ\n  SKIP\n".to_string();
    }
    let mut s = String::new();
    let words = nrec * RECORD_WORDS;
    s.push_str(&format!("DEF nrec = {nrec}:\n"));
    s.push_str(&format!("VAR db[{words}]:\n"));
    s.push_str("VAR going, key, count, partial:\n");
    s.push_str("CHAN reqin:\n");
    s.push_str(&format!(
        "PLACE reqin AT {}:\n",
        places::link_in(r.req_parent as u32)
    ));
    for &port in &r.req_children {
        s.push_str(&format!("CHAN {}:\n", req_chan(port)));
        s.push_str(&format!(
            "PLACE {} AT {}:\n",
            req_chan(port),
            places::link_out(port as u32)
        ));
    }
    // An answer child on the request-parent link shares the reqin
    // channel: the parent interleaves keys and its merged count on the
    // same wire, exactly as in the classic row flood/merge.
    for &port in &r.ans_children {
        if port == r.req_parent {
            continue;
        }
        s.push_str(&format!("CHAN {}:\n", ans_chan(port)));
        s.push_str(&format!(
            "PLACE {} AT {}:\n",
            ans_chan(port),
            places::link_in(port as u32)
        ));
    }
    // Likewise the answer parent shares the forwarding channel when it
    // is also a request child.
    let ans_out = if r.req_children.contains(&r.ans_parent) {
        req_chan(r.ans_parent).to_string()
    } else {
        s.push_str("CHAN ansout:\n");
        s.push_str(&format!(
            "PLACE ansout AT {}:\n",
            places::link_out(r.ans_parent as u32)
        ));
        "ansout".to_string()
    };
    s.push_str("SEQ\n");
    s.push_str("  going := TRUE\n");
    s.push_str("  WHILE going\n");
    s.push_str("    SEQ\n");
    s.push_str("      reqin ? key\n");
    s.push_str("      IF\n");
    s.push_str("        key = -1\n");
    s.push_str("          SEQ\n");
    for &port in &r.req_children {
        s.push_str(&format!("            {} ! -1\n", req_chan(port)));
    }
    s.push_str("            going := FALSE\n");
    s.push_str("        TRUE\n");
    s.push_str("          SEQ\n");
    // Forward the request before searching, so the flood proceeds while
    // the local search runs (§4.2).
    for &port in &r.req_children {
        s.push_str(&format!("            {} ! key\n", req_chan(port)));
    }
    s.push_str("            count := 0\n");
    s.push_str("            SEQ i = [0 FOR nrec]\n");
    s.push_str("              IF\n");
    s.push_str("                db[i * 4] = key\n");
    s.push_str("                  count := count + 1\n");
    s.push_str("                TRUE\n");
    s.push_str("                  SKIP\n");
    for &port in &r.ans_children {
        let chan = if port == r.req_parent {
            "reqin"
        } else {
            ans_chan(port)
        };
        s.push_str(&format!("            {chan} ? partial\n"));
        s.push_str("            count := count + partial\n");
    }
    s.push_str(&format!("            {ans_out} ! count\n"));
    s
}

/// The occam program texts a Figure 8 database-search array runs: one
/// per grid position plus the request injector and answer collector,
/// each paired with a descriptive name. Exposed so the corpus lint
/// gate can run the static checks over every generated node program.
pub fn array_sources(config: &DbSearchConfig) -> Vec<(String, String)> {
    let p = describe(
        config.shape(),
        Transport::Planned,
        config.records_per_node,
        config.requests,
        &HashSet::new(),
    );
    let mut out: Vec<(String, String)> = (p.nodes.into_iter().enumerate())
        .map(|(i, src)| {
            let (x, y) = (i % config.width, i / config.width);
            (format!("dbsearch-node-{x}-{y}"), src)
        })
        .collect();
    out.push(("dbsearch-sender".into(), p.sender));
    out.push(("dbsearch-collector".into(), p.collector));
    out
}

/// The occam program texts a hypercube search machine runs, deduplicated
/// by text: nodes sharing a tree position shape (same parents and
/// children) run byte-identical programs, so the lint gate checks each
/// distinct program once instead of 256 times. Each text is named after
/// the first `(cluster, x, y)` that runs it.
pub fn hypercube_sources(config: &HypercubeConfig) -> Vec<(String, String)> {
    let p = describe(
        config.shape(),
        Transport::Planned,
        config.records_per_node,
        config.requests,
        &HashSet::new(),
    );
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (i, src) in p.nodes.into_iter().enumerate() {
        if !seen.insert(src.clone()) {
            continue;
        }
        let (c, rem) = (
            i / (config.side * config.side),
            i % (config.side * config.side),
        );
        let (x, y) = (rem % config.side, rem / config.side);
        out.push((format!("dbsearch-cube-node-{c}-{x}-{y}"), src));
    }
    out.push(("dbsearch-cube-sender".into(), p.sender));
    out.push(("dbsearch-cube-collector".into(), p.collector));
    out
}

/// Occam source for the request-injecting host.
fn sender_source(nreq: usize) -> String {
    format!(
        "VAR keys[{size}]:\n\
         CHAN out:\n\
         PLACE out AT {place}:\n\
         SEQ k = [0 FOR {count}]\n\
         \x20 out ! keys[k]\n",
        size = nreq + 1,
        place = places::link_out(PORT_SOUTH as u32),
        count = nreq + 1,
    )
}

/// Occam source for the answer-collecting host.
fn collector_source(nreq: usize) -> String {
    format!(
        "VAR answers[{nreq}]:\n\
         VAR got:\n\
         CHAN in:\n\
         PLACE in AT {place}:\n\
         SEQ\n\
         \x20 got := 0\n\
         \x20 SEQ k = [0 FOR {nreq}]\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 in ? answers[k]\n\
         \x20\x20\x20\x20\x20 got := got + 1\n",
        place = places::link_in(PORT_NORTH as u32),
    )
}

/// Occam source for a routed array node. Every participating node runs
/// this same program regardless of its position — the router, not the
/// program, knows the topology. Requests arrive in order on the node's
/// request channel (virtual channels deliver in order), so the node
/// counts them locally and answers the collector with the request index
/// and its match count packed into one word.
fn routed_node_source(nrec: usize, included: bool) -> String {
    if !included {
        return "SEQ\n  SKIP\n".to_string();
    }
    let words = nrec * RECORD_WORDS;
    format!(
        "DEF nrec = {nrec}:\n\
         VAR db[{words}]:\n\
         VAR going, key, count, k:\n\
         CHAN reqin:\n\
         PLACE reqin AT {req}:\n\
         CHAN ansout:\n\
         PLACE ansout AT {ans}:\n\
         SEQ\n\
         \x20 k := 0\n\
         \x20 going := TRUE\n\
         \x20 WHILE going\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 reqin ? key\n\
         \x20\x20\x20\x20\x20 IF\n\
         \x20\x20\x20\x20\x20\x20\x20 key = -1\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 going := FALSE\n\
         \x20\x20\x20\x20\x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 count := 0\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 SEQ i = [0 FOR nrec]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 IF\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 db[i * 4] = key\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 count := count + 1\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 SKIP\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 ansout ! ((k * 65536) + count)\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 k := k + 1\n",
        req = places::link_in(0),
        ans = places::link_out(1),
    )
}

/// Occam source for the routed request host: each key (and the poison
/// round) is sent once per participating node; consecutive sends on the
/// one placed channel round-robin across the node-ordered request
/// channels, so participant `i` sees every key exactly once, in order.
fn routed_sender_source(nreq: usize, nlive: usize) -> String {
    format!(
        "VAR keys[{size}]:\n\
         CHAN out:\n\
         PLACE out AT {place}:\n\
         SEQ k = [0 FOR {rounds}]\n\
         \x20 SEQ i = [0 FOR {nlive}]\n\
         \x20\x20\x20 out ! keys[k]\n",
        size = nreq + 1,
        place = places::link_out(0),
        rounds = nreq + 1,
    )
}

/// Occam source for the routed answer collector: every participant's
/// per-request answers arrive interleaved on one channel, each packed
/// as `(request * 65536) + count`; unpacking makes the merge
/// order-independent, so the final counts equal the planned variant's.
fn routed_collector_source(nreq: usize, nlive: usize) -> String {
    format!(
        "VAR answers[{size}]:\n\
         VAR got, w, idx:\n\
         CHAN in:\n\
         PLACE in AT {place}:\n\
         SEQ\n\
         \x20 SEQ k = [0 FOR {size}]\n\
         \x20\x20\x20 answers[k] := 0\n\
         \x20 got := 0\n\
         \x20 SEQ j = [0 FOR {total}]\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 in ? w\n\
         \x20\x20\x20\x20\x20 idx := w / 65536\n\
         \x20\x20\x20\x20\x20 answers[idx] := answers[idx] + (w \\ 65536)\n\
         \x20\x20\x20\x20\x20 got := got + 1\n",
        size = nreq.max(1),
        place = places::link_in(0),
        total = nreq * nlive,
    )
}

/// The occam program texts a routed search machine runs — one uniform
/// node program, the round-robin sender and the merging collector — for
/// the corpus lint gate. The routed machine's whole point is that this
/// list does not grow with the topology.
pub fn routed_sources(config: &DbSearchConfig) -> Vec<(String, String)> {
    // Straight from the generators: every node of the intact machine
    // takes part and runs the same text, so there is nothing to plan.
    let nlive = config.width * config.height;
    vec![
        (
            "dbsearch-routed-node".into(),
            routed_node_source(config.records_per_node, true),
        ),
        (
            "dbsearch-routed-sender".into(),
            routed_sender_source(config.requests, nlive),
        ),
        (
            "dbsearch-routed-collector".into(),
            routed_collector_source(config.requests, nlive),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer_link::FaultPlan;
    use transputer_net::topology::grid_edge_wire;

    /// The planned trees of an intact 4x4 with its hosts attached.
    fn intact_4x4_routes() -> Vec<NodeRoutes> {
        let adj = adjacency(18, &Shape::Grid(4, 4).wires(Transport::Planned));
        plan_routes(&adj, &[true; 16], &HashSet::new())
    }

    #[test]
    fn built_machines_carry_their_wire_lists() {
        // Every constructor wires exactly `Shape::wires`: the shape's
        // sweep, then sender and collector. Planned and routed machines
        // differ in one place only, the sender wire's orientation
        // (net's `golden_wire_tables` pins the literal tables).
        let small = |net| DbSearchConfig {
            width: 3,
            height: 2,
            records_per_node: 2,
            requests: 1,
            seed: 3,
            key_space: 4,
            net,
        };
        let cube = |net| HypercubeConfig {
            dim: 1,
            side: 2,
            records_per_node: 2,
            requests: 1,
            seed: 3,
            key_space: 4,
            net,
        };
        let table = |sim: DbSearch| -> Vec<WireEnds> {
            let net = sim.network();
            (0..net.wire_count()).map(|w| net.wire_ends(w)).collect()
        };
        let net = NetworkConfig::default;
        for (planned, routed, core, n) in [
            (
                table(DbSearch::build(small(net())).unwrap()),
                table(DbSearch::build_routed(small(net())).unwrap()),
                grid_wires(3, 2, 0),
                6,
            ),
            (
                table(DbSearch::build_hypercube(cube(net())).unwrap()),
                table(DbSearch::build_routed_hypercube(cube(net())).unwrap()),
                hypercube_wires(1, 2),
                8,
            ),
        ] {
            let k = core.len();
            assert_eq!(planned[..k], core[..]);
            assert_eq!(routed[..k], core[..]);
            let collector = ((n - 1, PORT_SOUTH), (n + 1, PORT_NORTH));
            assert_eq!(
                planned[k..],
                [((n, PORT_SOUTH), (0, PORT_NORTH)), collector]
            );
            assert_eq!(routed[k..], [((0, PORT_NORTH), (n, PORT_SOUTH)), collector]);
        }
    }

    #[test]
    fn small_array_answers_correctly() {
        let config = DbSearchConfig {
            width: 2,
            height: 2,
            records_per_node: 12,
            requests: 3,
            seed: 7,
            key_space: 20,
            net: NetworkConfig::default(),
        };
        let mut sim = DbSearch::build(config).expect("builds");
        let report = sim.run(2_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded);
        assert_eq!(report.received, 3);
        assert!(report.first_answer_ns > 0);
        assert_eq!(report.total_records, 48);
    }

    #[test]
    fn three_by_three_pipeline() {
        let config = DbSearchConfig {
            width: 3,
            height: 3,
            records_per_node: 10,
            requests: 4,
            seed: 11,
            key_space: 15,
            net: NetworkConfig::default(),
        };
        let mut sim = DbSearch::build(config).expect("builds");
        let report = sim.run(5_000_000_000).expect("runs");
        assert!(report.all_correct());
        // With pipelining the inter-answer gap is much smaller than the
        // first-answer latency (propagation + search).
        assert!(report.pipeline_interval_ns > 0);
        assert!(report.pipeline_interval_ns < report.first_answer_ns);
    }

    #[test]
    fn intact_grid_routes_match_the_classic_flood() {
        // On an undamaged 4x4 the spanning trees must reproduce the
        // paper's figure: requests east along rows and south down
        // column 0, answers east along rows and south down the last
        // column.
        let routes = intact_4x4_routes();
        for y in 0..4usize {
            for x in 0..4usize {
                let r = &routes[y * 4 + x];
                assert!(r.included);
                let want_req_parent = if x > 0 { PORT_WEST } else { PORT_NORTH };
                assert_eq!(r.req_parent, want_req_parent, "({x},{y})");
                let mut want_children = Vec::new();
                if x + 1 < 4 {
                    want_children.push(PORT_EAST);
                }
                if x == 0 && y + 1 < 4 {
                    want_children.push(PORT_SOUTH);
                }
                assert_eq!(r.req_children, want_children, "({x},{y})");
                let want_ans_parent = if x + 1 < 4 { PORT_EAST } else { PORT_SOUTH };
                assert_eq!(r.ans_parent, want_ans_parent, "({x},{y})");
                let mut want_ans = Vec::new();
                if x > 0 {
                    want_ans.push(PORT_WEST);
                }
                if x == 3 && y > 0 {
                    want_ans.push(PORT_NORTH);
                }
                assert_eq!(r.ans_children, want_ans, "({x},{y})");
            }
        }
    }

    #[test]
    fn dead_link_reroutes_without_degrading() {
        // Kill the wire from (0,0) to (1,0) at boot: the top row must be
        // re-parented through row 1, but the grid stays connected, so
        // nothing is excluded and every answer arrives.
        let dead_wire = grid_edge_wire(3, 3, 0, 0, true);
        let config = DbSearchConfig {
            width: 3,
            height: 3,
            records_per_node: 8,
            requests: 3,
            seed: 13,
            key_space: 16,
            net: NetworkConfig {
                fault: Some(FaultPlan::uniform(5, 0.0).with_dead_link(dead_wire, 0)),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build(config).expect("builds");
        assert_eq!(sim.excluded_nodes(), 0);
        let report = sim.run(5_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded);
        assert_eq!(report.received, 3);
    }

    #[test]
    fn severed_corner_is_excluded_and_flagged() {
        // Kill both wires of the north-east corner of a 3x3: the corner
        // cannot be reached, its records drop out of the expected
        // counts, and the remaining eight nodes still answer correctly
        // under a degraded flag.
        let cut_w = grid_edge_wire(3, 3, 1, 0, true);
        let cut_s = grid_edge_wire(3, 3, 2, 0, false);
        let plan = FaultPlan::uniform(5, 0.0)
            .with_dead_link(cut_w, 0)
            .with_dead_link(cut_s, 0);
        let config = DbSearchConfig {
            width: 3,
            height: 3,
            records_per_node: 8,
            requests: 3,
            seed: 17,
            key_space: 16,
            net: NetworkConfig {
                fault: Some(plan),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build(config).expect("builds");
        assert_eq!(sim.excluded_nodes(), 1);
        let report = sim.run(5_000_000_000).expect("runs");
        assert!(report.degraded);
        assert_eq!(report.excluded_nodes, 1);
        assert_eq!(report.received, 3);
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
    }

    #[test]
    fn mid_run_link_death_degrades_instead_of_erroring() {
        // The sender's wire (the first host wire, built right after the
        // four grid wires of a 2x2) dies just after boot — from_ns > 0,
        // so no re-planning happens. The first key is never delivered,
        // the sender exhausts its retries, and the run degrades to an
        // empty but well-formed report.
        let config = DbSearchConfig {
            width: 2,
            height: 2,
            records_per_node: 6,
            requests: 2,
            seed: 19,
            key_space: 10,
            net: NetworkConfig {
                fault: Some(FaultPlan::uniform(5, 0.0).with_dead_link(4, 1)),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build(config).expect("builds");
        let report = sim.run(2_000_000_000).expect("degrades, not errors");
        assert!(report.degraded);
        assert_eq!(report.received, 0);
        assert!(report.answers.is_empty());
        assert!(report.all_correct(), "an empty prefix is vacuously correct");
        assert!(sim.network().any_link_failed());
    }

    #[test]
    fn search_survives_link_faults() {
        // A small array under a light uniform fault plan: retransmission
        // hides every fault and the search completes cleanly.
        let config = DbSearchConfig {
            width: 2,
            height: 2,
            records_per_node: 8,
            requests: 2,
            seed: 23,
            key_space: 12,
            net: NetworkConfig {
                fault: Some(FaultPlan::uniform(9, 0.002)),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build(config).expect("builds");
        let report = sim.run(5_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded);
    }

    #[test]
    fn node_source_compiles_for_all_positions() {
        let routes = intact_4x4_routes();
        for (x, y) in [
            (0, 0),
            (1, 0),
            (3, 0),
            (0, 1),
            (3, 1),
            (0, 3),
            (3, 3),
            (2, 2),
        ] {
            let src = node_source(5, &routes[y * 4 + x]);
            occam::compile(&src).unwrap_or_else(|e| panic!("({x},{y}): {e}\n{src}"));
        }
        // The excluded-node stub compiles too.
        let stub = node_source(5, &NodeRoutes::default());
        occam::compile(&stub).expect("excluded-node stub compiles");
    }

    #[test]
    fn search_array_of_16_bit_parts() {
        // §3.3's word-length independence at application level: the same
        // generated occam runs the search on a grid of T222s.
        let config = DbSearchConfig {
            width: 2,
            height: 2,
            records_per_node: 8,
            requests: 2,
            seed: 21,
            key_space: 12,
            net: transputer_net::NetworkConfig {
                cpu: transputer::CpuConfig::t222(),
                ..transputer_net::NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build(config).expect("builds");
        let report = sim.run(2_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
    }

    #[test]
    fn longest_path_matches_grid() {
        assert_eq!(DbSearchConfig::figure8().longest_path_links(), 6);
        assert_eq!(DbSearchConfig::board128().longest_path_links(), 22);
        assert_eq!(DbSearchConfig::board128().total_records(), 25_600);
    }

    #[test]
    fn small_hypercube_answers_correctly() {
        // Two 2x2 clusters joined by one dimension link: the smallest
        // machine whose spanning trees cross a cluster boundary.
        let config = HypercubeConfig {
            dim: 1,
            side: 2,
            records_per_node: 10,
            requests: 3,
            seed: 29,
            key_space: 24,
            net: NetworkConfig::default(),
        };
        let mut sim = DbSearch::build_hypercube(config).expect("builds");
        assert_eq!(sim.excluded_nodes(), 0);
        let report = sim.run(5_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded);
        assert_eq!(report.received, 3);
        assert_eq!(report.total_records, 80);
    }

    #[test]
    fn four_cluster_hypercube_pipeline() {
        // Dimension 2: requests cross two kinds of dimension anchor.
        let config = HypercubeConfig {
            dim: 2,
            side: 2,
            records_per_node: 6,
            requests: 4,
            seed: 31,
            key_space: 18,
            net: NetworkConfig::default(),
        };
        let mut sim = DbSearch::build_hypercube(config).expect("builds");
        let report = sim.run(10_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded);
        assert!(report.pipeline_interval_ns < report.first_answer_ns);
    }

    #[test]
    fn hypercube_survives_link_faults() {
        let config = HypercubeConfig {
            dim: 1,
            side: 2,
            records_per_node: 6,
            requests: 2,
            seed: 37,
            key_space: 12,
            net: NetworkConfig {
                fault: Some(FaultPlan::uniform(9, 0.002)),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build_hypercube(config).expect("builds");
        let report = sim.run(10_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded);
    }

    #[test]
    fn hypercube_dead_dimension_link_reroutes() {
        // Kill the single dim-0 link of a dim-1 machine... that would
        // split it. Use dim 2, where killing one dimension link leaves
        // every cluster reachable the long way around.
        let side = 2;
        let grid_wires_per_cluster = 2 * side * (side - 1);
        // Dimension links follow all four clusters' grid wires; the
        // first is cluster 0 <-> cluster 1 (dim 0).
        let first_dim_wire = 4 * grid_wires_per_cluster;
        let config = HypercubeConfig {
            dim: 2,
            side,
            records_per_node: 5,
            requests: 2,
            seed: 41,
            key_space: 10,
            net: NetworkConfig {
                fault: Some(FaultPlan::uniform(5, 0.0).with_dead_link(first_dim_wire, 0)),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build_hypercube(config).expect("builds");
        assert_eq!(sim.excluded_nodes(), 0);
        let report = sim.run(10_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded);
    }

    #[test]
    fn hypercube256_config_shape() {
        let c = HypercubeConfig::hypercube256();
        assert_eq!(c.node_count(), 256);
        assert_eq!(c.total_records(), 51_200);
        // Longest request path: the BFS depth from cluster 0's (0,0)
        // over 16 clusters of 4x4. A flat 16x16 board of the same 256
        // nodes needs 30 links corner to corner; the hypercube needs 16.
        assert_eq!(c.longest_path_links(), 16);
    }

    #[test]
    fn routed_array_matches_planned_answers() {
        // The tentpole cross-check: the routed machine — no spanning
        // trees, uniform node program, packets hopping the router —
        // must compute exactly the answers of the planned machine over
        // the same workload.
        let config = DbSearchConfig {
            width: 3,
            height: 3,
            records_per_node: 8,
            requests: 3,
            seed: 7,
            key_space: 16,
            net: NetworkConfig::default(),
        };
        let planned = DbSearch::build(config.clone())
            .expect("builds")
            .run(5_000_000_000)
            .expect("runs");
        let mut sim = DbSearch::build_routed(config).expect("builds routed");
        let routed = sim.run(5_000_000_000).expect("runs routed");
        assert!(!routed.degraded);
        assert_eq!(routed.received, 3);
        assert_eq!(routed.answers, planned.answers);
        assert_eq!(routed.expected, planned.expected);
        assert!(routed.all_correct());
        let stats = sim.network().router_stats().expect("routed");
        assert_eq!(stats.packets_dropped, 0);
        assert!(stats.packets_delivered > 0);
    }

    #[test]
    fn routed_hypercube_matches_planned_answers() {
        let config = HypercubeConfig {
            dim: 2,
            side: 2,
            records_per_node: 6,
            requests: 3,
            seed: 31,
            key_space: 18,
            net: NetworkConfig::default(),
        };
        let planned = DbSearch::build_hypercube(config.clone())
            .expect("builds")
            .run(10_000_000_000)
            .expect("runs");
        let routed = DbSearch::build_routed_hypercube(config)
            .expect("builds routed")
            .run(10_000_000_000)
            .expect("runs routed");
        assert!(!routed.degraded);
        assert_eq!(routed.answers, planned.answers);
        assert!(routed.all_correct());
    }

    #[test]
    fn routed_boot_dead_wire_reroutes_without_degrading() {
        // The wire from (0,0) to (1,0) is dead at boot: the router's
        // tables route around it, nothing is excluded, every answer
        // arrives and the dead wire carries no traffic.
        let dead_wire = grid_edge_wire(3, 3, 0, 0, true);
        let config = DbSearchConfig {
            width: 3,
            height: 3,
            records_per_node: 6,
            requests: 2,
            seed: 13,
            key_space: 12,
            net: NetworkConfig {
                fault: Some(FaultPlan::uniform(5, 0.0).with_dead_link(dead_wire, 0)),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build_routed(config).expect("builds");
        assert_eq!(sim.excluded_nodes(), 0);
        let report = sim.run(20_000_000_000).expect("runs");
        assert!(!report.degraded, "rerouting must not degrade the search");
        assert!(report.all_correct());
        let (a, b) = sim.network().wire_delivered(dead_wire);
        assert_eq!((a, b), (0, 0), "the dead wire must carry nothing");
    }

    #[test]
    fn routed_severed_corner_is_excluded_and_flagged() {
        // Both wires of the north-east corner dead at boot: the routed
        // machine excludes the unreachable node exactly as the planned
        // one does, and the rest still answers correctly.
        let cut_w = grid_edge_wire(3, 3, 1, 0, true);
        let cut_s = grid_edge_wire(3, 3, 2, 0, false);
        let plan = FaultPlan::uniform(5, 0.0)
            .with_dead_link(cut_w, 0)
            .with_dead_link(cut_s, 0);
        let config = DbSearchConfig {
            width: 3,
            height: 3,
            records_per_node: 6,
            requests: 2,
            seed: 17,
            key_space: 12,
            net: NetworkConfig {
                fault: Some(plan),
                ..NetworkConfig::default()
            },
        };
        let mut sim = DbSearch::build_routed(config).expect("builds");
        assert_eq!(sim.excluded_nodes(), 1);
        let report = sim.run(20_000_000_000).expect("runs");
        assert!(report.degraded);
        assert_eq!(report.excluded_nodes, 1);
        assert!(
            report.all_correct(),
            "answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
    }

    #[test]
    fn routed_midrun_interior_death_is_engine_invariant() {
        // An interior hop dies mid-run. The router rebuilds its tables
        // from the surviving adjacency and the search still completes —
        // and the whole outcome (answers, arrival times, every wire's
        // byte counters) is bit-identical on both engines.
        let dead_wire = grid_edge_wire(3, 3, 0, 0, true);
        let mut reference: Option<(DbSearchReport, Vec<(u64, u64)>)> = None;
        for engine in [
            transputer_net::Engine::Event,
            transputer_net::Engine::Sliced,
        ] {
            let config = DbSearchConfig {
                width: 3,
                height: 3,
                records_per_node: 6,
                requests: 2,
                seed: 13,
                key_space: 12,
                net: NetworkConfig {
                    engine,
                    fault: Some(FaultPlan::uniform(5, 0.0).with_dead_link(dead_wire, 40_000)),
                    ..NetworkConfig::default()
                },
            };
            let mut sim = DbSearch::build_routed(config).expect("builds");
            let report = sim.run(60_000_000_000).expect("runs");
            assert!(
                sim.network().any_link_failed(),
                "{engine:?}: the wire must die while traffic is flowing"
            );
            assert!(!report.degraded, "{engine:?}: reroute, not degrade");
            assert!(report.all_correct(), "{engine:?}");
            let wires: Vec<(u64, u64)> = (0..sim.network().wire_count())
                .map(|w| sim.network().wire_delivered(w))
                .collect();
            match &reference {
                None => reference = Some((report, wires)),
                Some((want, want_wires)) => {
                    assert_eq!(report.answers, want.answers, "{engine:?}");
                    assert_eq!(
                        report.answer_times_ns, want.answer_times_ns,
                        "{engine:?} arrival times diverged"
                    );
                    assert_eq!(&wires, want_wires, "{engine:?} wire counters diverged");
                }
            }
        }
    }

    #[test]
    fn routed_sources_compile() {
        for (name, src) in routed_sources(&DbSearchConfig::figure8()) {
            occam::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
        }
    }

    #[test]
    fn hypercube_sources_dedupe_and_compile() {
        let config = HypercubeConfig {
            dim: 2,
            side: 3,
            records_per_node: 4,
            requests: 2,
            seed: 5,
            key_space: 9,
            net: NetworkConfig::default(),
        };
        let sources = hypercube_sources(&config);
        // Deduplicated well below one-per-node, plus the two hosts.
        assert!(sources.len() < 4 * 9);
        assert!(sources.len() > 2);
        let mut texts = HashSet::new();
        for (name, src) in &sources {
            assert!(texts.insert(src.clone()), "{name} duplicates another text");
            occam::compile(src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
        }
    }
}
