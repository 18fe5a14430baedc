//! Standard network shapes, as wire lists.
//!
//! "Using point to point serial communications, rather than busses"
//! (§2.3) means system shape is a wiring choice. A shape here is an
//! ordered [`WireEnds`] list — the grid sweep behind Figure 8's square
//! array, and clusters of it joined into a hypercube — which
//! [`crate::NetworkBuilder::connect_all`] turns into a machine: the builder is
//! the one way to build a network. The link map and the routing tables
//! below are derived from the same list.

use std::collections::{HashSet, VecDeque};

use crate::sim::NodeId;

/// One wire: its A end and its B end, each `(node, port)`. A machine
/// *is* its ordered list of these — the index is the wire number a
/// [`transputer_link::FaultPlan`] draws fates for and aims dead links
/// at, and the A/B orientation keys its per-direction fault streams and
/// the [`crate::Network::wire_delivered`] pair. Every list below is produced by
/// exactly one sweep; the link map ([`adjacency`]), the router's tables
/// and the search application's planned trees are all derived from it.
pub type WireEnds = ((NodeId, usize), (NodeId, usize));

/// Link-port conventions for a chain or a ring: data flows in on port
/// [`PORT_PREV`] and out on [`PORT_NEXT`].
pub const PORT_PREV: usize = 0;
/// Port toward the next node in a chain or ring.
pub const PORT_NEXT: usize = 1;

/// Grid port conventions (Figure 8's square array): 0 = north, 1 = east,
/// 2 = south, 3 = west.
pub const PORT_NORTH: usize = 0;
/// East port.
pub const PORT_EAST: usize = 1;
/// South port.
pub const PORT_SOUTH: usize = 2;
/// West port.
pub const PORT_WEST: usize = 3;

/// The grid sweep, the one place a grid's wire order and orientation
/// are decided: row-major over the squares, each contributing its east
/// wire (ports 1 → 3) and then its south wire (ports 2 → 0), A end at
/// the sweeping square. Nodes are `base..base + width * height` in
/// row-major order, so [`hypercube_wires`] reuses the sweep per cluster.
pub fn grid_wires(width: usize, height: usize, base: NodeId) -> Vec<WireEnds> {
    let at = |x: usize, y: usize| base + y * width + x;
    let mut wires = Vec::new();
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                wires.push(((at(x, y), PORT_EAST), (at(x + 1, y), PORT_WEST)));
            }
            if y + 1 < height {
                wires.push(((at(x, y), PORT_SOUTH), (at(x, y + 1), PORT_NORTH)));
            }
        }
    }
    wires
}

/// Wire index of a grid edge under the row-major east-then-south sweep
/// of [`grid_wires`] (the database-search array wires its grid the same
/// way): `east` selects the wire from
/// `(x, y)` to `(x + 1, y)`, otherwise the wire to `(x, y + 1)`. This is
/// how a [`transputer_link::FaultPlan`] dead-link entry is aimed at a
/// specific grid edge.
///
/// # Panics
///
/// Panics if the named edge does not exist in the grid.
pub fn grid_edge_wire(width: usize, height: usize, x: usize, y: usize, east: bool) -> usize {
    assert!(x < width && y < height, "({x},{y}) outside grid");
    assert!(
        if east { x + 1 < width } else { y + 1 < height },
        "({x},{y}) has no {} edge",
        if east { "east" } else { "south" }
    );
    // The closed form of `grid_wires`' order: every row above holds
    // `2 * width - 1` wires, and every square to the west two (one on
    // the bottom row, which has no south wires).
    let west = if y + 1 < height { 2 * x } else { x };
    y * (2 * width - 1) + west + usize::from(!east && x + 1 < width)
}

/// Which cluster node anchors dimension `d`, and on which port:
/// `(x, y, port)`. Each dimension rides a distinct corner's spare port
/// (grid corners use only two of their four links), leaving the north
/// port of `(0, 0)` and the south port of `(side-1, side-1)` free in
/// *every* cluster for host attachments.
///
/// # Panics
///
/// Panics if `d > 3` — a four-link node has four spare corner ports.
pub fn hypercube_anchor(d: usize, side: usize) -> (usize, usize, usize) {
    match d {
        0 => (0, 0, PORT_WEST),
        1 => (side - 1, 0, PORT_EAST),
        2 => (0, side - 1, PORT_WEST),
        3 => (side - 1, side - 1, PORT_EAST),
        _ => panic!("hypercube dimension {d} exceeds the four corner anchors"),
    }
}

/// The hypercube sweep: `2^dim` clusters of `side` × `side` nodes
/// (cluster-major, then row-major), each cluster's [`grid_wires`] in
/// cluster order, then the dimension links ordered by lower cluster then
/// dimension, A end in the lower cluster. Callers appending host wires
/// afterwards get stable indices. This is how a four-link part scales
/// past the 4-neighbour mesh — the RTNN-style 256-node machine is
/// `hypercube_wires(4, 4)` — while every node still uses at most four
/// ports: the dimension links ride on the otherwise-free corner ports.
///
/// # Panics
///
/// Panics if `dim` is not in `1..=4` or `side < 2`.
pub fn hypercube_wires(dim: usize, side: usize) -> Vec<WireEnds> {
    assert!((1..=4).contains(&dim), "hypercube dimension must be 1..=4");
    assert!(side >= 2, "clusters need distinct corners (side >= 2)");
    let clusters = 1usize << dim;
    let mut wires: Vec<WireEnds> = (0..clusters)
        .flat_map(|c| grid_wires(side, side, c * side * side))
        .collect();
    for c in 0..clusters {
        for d in 0..dim {
            let peer = c ^ (1 << d);
            if peer < c {
                continue;
            }
            let (x, y, port) = hypercube_anchor(d, side);
            let anchor = |c: usize| (c * side + y) * side + x;
            wires.push(((anchor(c), port), (anchor(peer), port)));
        }
    }
    wires
}

// ---------------------------------------------------------------------
// Link maps and routing tables (the virtual-channel router layer).
// ---------------------------------------------------------------------

/// Link map of an arbitrary four-port machine: per node, per port, the
/// peer node, the port the peer sees the wire on, and the wire index
/// (for checking against a fault plan's dead set). This is the single
/// structure routing tables are derived from.
pub type Adjacency = Vec<[Option<(usize, usize, usize)>; 4]>;

/// Routing-table entry for "no route": the destination is this node
/// itself, or unreachable over the alive links.
pub const NO_ROUTE: u8 = u8::MAX;

/// The link map of `nodes` nodes joined by `wires`: wire `i` of the
/// list is wire `i` of the map, mirrored at both ends. The one
/// derivation — [`crate::NetworkBuilder::build`] feeds the router from it, and
/// planners call it on the same list they hand the builder.
pub fn adjacency(nodes: usize, wires: &[WireEnds]) -> Adjacency {
    let mut adj: Adjacency = vec![[None; 4]; nodes];
    for (wire, &(a, b)) in wires.iter().enumerate() {
        adj[a.0][a.1] = Some((b.0, b.1, wire));
        adj[b.0][b.1] = Some((a.0, a.1, wire));
    }
    adj
}

/// The grid's link map under the row-major east-then-south wire sweep
/// of [`grid_wires`].
pub fn grid_adjacency(w: usize, h: usize) -> Adjacency {
    adjacency(w * h, &grid_wires(w, h, 0))
}

/// The hypercube-of-clusters link map, in [`hypercube_wires`]' order.
pub fn hypercube_adjacency(dim: usize, side: usize) -> Adjacency {
    adjacency((1usize << dim) * side * side, &hypercube_wires(dim, side))
}

/// BFS link distances from `root` over the links not in `dead`: what
/// the search application's planned trees and host reachability
/// (`apps::dbsearch`) are derived from. [`route_tables`] runs its own
/// searches, 64 destinations at a time.
pub fn bfs_dist(adj: &Adjacency, root: usize, dead: &HashSet<usize>) -> Vec<Option<u32>> {
    let mut dist = vec![None; adj.len()];
    let mut queue = VecDeque::new();
    dist[root] = Some(0u32);
    queue.push_back(root);
    while let Some(i) = queue.pop_front() {
        let d = dist[i].unwrap();
        for link in adj[i].iter().flatten() {
            let (peer, _, wire) = *link;
            if !dead.contains(&wire) && dist[peer].is_none() {
                dist[peer] = Some(d + 1);
                queue.push_back(peer);
            }
        }
    }
    dist
}

/// Port preference for shortest-path tie-breaks: X-direction moves
/// before Y-direction moves. On a rectangular mesh this reduces BFS
/// routing to exact XY dimension order (route east/west until the
/// column matches, then north/south), which is the classic
/// deadlock-free e-cube discipline; on arbitrary graphs it is simply a
/// fixed deterministic tie-break.
const ROUTE_PREF: [usize; 4] = [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH];

/// Shortest-path routing tables over the links not in `dead`, one flat
/// row-major table: `tables[node * n + dest]` is the port on which
/// `node` forwards a packet for `dest` ([`NO_ROUTE`] when `dest` is
/// `node` itself or unreachable), `n` being `adj.len()`. Ties are
/// broken by `ROUTE_PREF`, so the tables are a pure function of the
/// adjacency and the dead set.
///
/// The breadth-first searches run 64 destinations at a time, one bit
/// of a word per destination: a node at distance `L` from destination
/// `k` is one whose neighbours' level-`L − 1` words hold bit `k` while
/// its own seen word does not, and its next hop is the first
/// `ROUTE_PREF` port whose neighbour's word holds the bit. A level is a
/// handful of word operations per node, whatever the batch's width.
pub fn route_tables(adj: &Adjacency, dead: &HashSet<usize>) -> Vec<u8> {
    let n = adj.len();
    // The alive link map: `peer[node][port]`. An unwired port or a dead
    // wire leads to the sentinel node `n`, whose level word is always
    // zero, so the gather below needs no branch.
    let mut peer = vec![[n as u32; 4]; n];
    for (node, links) in adj.iter().enumerate() {
        for (port, link) in links.iter().enumerate() {
            if let Some((p, _, wire)) = *link {
                if !dead.contains(&wire) {
                    peer[node][port] = p as u32;
                }
            }
        }
    }
    let mut tables = vec![NO_ROUTE; n * n];
    // Per node, bit `k` for destination `base + k`: `seen`, its distance
    // is known; `prev`, that distance is the last level's; `next`, it is
    // this level's.
    let mut seen = vec![0u64; n];
    let mut prev = vec![0u64; n + 1];
    let mut next = vec![0u64; n + 1];
    for base in (0..n).step_by(64) {
        let width = (n - base).min(64);
        prev.fill(0);
        for k in 0..width {
            prev[base + k] = 1 << k;
        }
        seen.copy_from_slice(&prev[..n]);
        loop {
            let mut grew = 0;
            for (node, &ports) in peer.iter().enumerate() {
                let reach = ports.map(|p| prev[p as usize]);
                let mut new = (reach[0] | reach[1] | reach[2] | reach[3]) & !seen[node];
                next[node] = new;
                if new == 0 {
                    continue;
                }
                seen[node] |= new;
                grew |= new;
                let row = &mut tables[node * n + base..][..width];
                for port in ROUTE_PREF {
                    let mut take = new & reach[port];
                    new &= !take;
                    while take != 0 {
                        row[take.trailing_zeros() as usize] = port as u8;
                        take &= take - 1;
                    }
                }
            }
            if grew == 0 {
                break;
            }
            std::mem::swap(&mut prev, &mut next);
        }
    }
    tables
}

/// Whether the channel-dependency graph induced by `tables` over `adj`
/// is acyclic — the classic sufficient condition for wormhole
/// (cut-through) deadlock freedom. A channel is a directed wire
/// traversal, identified by its transmitting `(node, out_port)`; one
/// channel depends on another when some route occupies them back to
/// back, so a cut-through stream holding the first could wait on the
/// second. XY tables on an intact mesh are acyclic by construction
/// (X-direction channels wait only on X- and Y-direction channels,
/// never the reverse). [`hypercube_tables`] are **not**: each route
/// crosses dimensions in increasing order, but the intra-cluster XY
/// walks between the per-dimension anchor corners let one route's
/// post-crossing channels feed another route's walk toward a *lower*
/// dimension's anchor, and the union of routes closes a cycle (e.g.
/// c0 →dim1→ c2 →dim0→ c3 →dim1→ c1 →dim0→ c0 on `dim = 2`). The
/// router streams (cut-through) only over a build's tables that pass
/// this proof, on lossless wires, so never over tables rebuilt around
/// dead wires; it forwards store-and-forward otherwise.
pub fn cdg_acyclic(adj: &Adjacency, tables: &[u8]) -> bool {
    let n = adj.len();
    assert_eq!(tables.len(), n * n, "tables are {n} rows of {n}");
    // Channel `node * 4 + port` leads to one peer, so its successors are
    // channels out of that peer: a 4-bit mask of the peer's out ports,
    // read off the peer's row wherever `node`'s row names `port`. A
    // packet for the peer itself leaves there, and adds nothing: a row
    // names no port for its own node.
    let mut succ = vec![0u8; n * 4];
    for (node, links) in adj.iter().enumerate() {
        let row = &tables[node * n..][..n];
        for (port, link) in links.iter().enumerate() {
            let Some((peer, _, _)) = *link else { continue };
            let peer_row = &tables[peer * n..][..n];
            succ[node * 4 + port] = successors(row, peer_row, port as u8);
        }
    }
    // Iterative three-colour DFS: a back edge is a cycle. A stack entry
    // is a channel and the successors it has yet to visit.
    let mut state = vec![0u8; n * 4]; // 0 = new, 1 = on stack, 2 = done
    let mut stack: Vec<(usize, u8)> = Vec::new();
    for s in 0..n * 4 {
        if state[s] != 0 {
            continue;
        }
        state[s] = 1;
        stack.push((s, succ[s]));
        while let Some(top) = stack.last_mut() {
            let (c, left) = *top;
            if left == 0 {
                state[c] = 2;
                stack.pop();
                continue;
            }
            top.1 = left & (left - 1);
            let (peer, _, _) = adj[c / 4][c % 4].expect("a channel with successors is wired");
            let e = peer * 4 + left.trailing_zeros() as usize;
            match state[e] {
                0 => {
                    state[e] = 1;
                    stack.push((e, succ[e]));
                }
                1 => return false,
                _ => {}
            }
        }
    }
    true
}

/// The out ports `peer_row` names wherever `row` names `port`, as a
/// 4-bit mask. One streaming pass, four byte compares an entry and no
/// branch, so it runs a vector's width of destinations at a time.
fn successors(row: &[u8], peer_row: &[u8], port: u8) -> u8 {
    let mut named = [0u8; 4];
    for (&p, &next) in row.iter().zip(peer_row) {
        let hit = u8::from(p == port);
        for (out, bit) in named.iter_mut().enumerate() {
            *bit |= hit & u8::from(next == out as u8);
        }
    }
    named
        .iter()
        .enumerate()
        .fold(0, |mask, (out, &bit)| mask | bit << out)
}

/// Dimension-order (e-cube) routing tables, in [`route_tables`]' flat
/// layout, for a hypercube of grid clusters whose first
/// `2^dim * side * side` adjacency entries follow
/// [`hypercube_adjacency`]; later entries must be single-wire leaves
/// (host attachments). A packet first resolves cluster-address bits in
/// increasing dimension order — travelling XY inside the current
/// cluster to the dimension's anchor corner, then crossing — and then
/// routes XY to its target square. With any dead wires this falls back
/// to [`route_tables`] (dimension order cannot route around damage).
///
/// # Panics
///
/// Panics if a node past the core is not a single-wire leaf.
pub fn hypercube_tables(
    adj: &Adjacency,
    dim: usize,
    side: usize,
    dead: &HashSet<usize>,
) -> Vec<u8> {
    if !dead.is_empty() {
        return route_tables(adj, dead);
    }
    let core = (1usize << dim) * side * side;
    let n = adj.len();
    // Each leaf's single attachment: (anchor core node, anchor port).
    let leaf_anchor: Vec<Option<(usize, usize)>> = (0..n)
        .map(|i| {
            if i < core {
                return None;
            }
            let mut ports = adj[i].iter().flatten();
            let &(peer, peer_port, _) = ports.next().expect("a leaf has one wire");
            assert!(
                ports.next().is_none(),
                "host node {i} must be a single-wire leaf"
            );
            assert!(peer < core, "host node {i} must attach to a core node");
            Some((peer, peer_port))
        })
        .collect();
    // XY step from cluster square (x, y) toward (tx, ty).
    let xy_step = |x: usize, y: usize, tx: usize, ty: usize| -> usize {
        if x < tx {
            PORT_EAST
        } else if x > tx {
            PORT_WEST
        } else if y < ty {
            PORT_SOUTH
        } else {
            PORT_NORTH
        }
    };
    // Next port from core node `node` toward core node `dest`.
    let core_step = |node: usize, dest: usize| -> usize {
        let (c, rem) = (node / (side * side), node % (side * side));
        let (x, y) = (rem % side, rem / side);
        let cd = dest / (side * side);
        let diff = c ^ cd;
        if diff != 0 {
            let d = diff.trailing_zeros() as usize;
            let (ax, ay, aport) = hypercube_anchor(d, side);
            if (x, y) == (ax, ay) {
                return aport;
            }
            return xy_step(x, y, ax, ay);
        }
        let rd = dest % (side * side);
        xy_step(x, y, rd % side, rd / side)
    };
    let mut tables = vec![NO_ROUTE; n * n];
    for (node, row) in tables.chunks_exact_mut(n).enumerate() {
        for (dest, entry) in row.iter_mut().enumerate() {
            if node == dest {
                continue;
            }
            *entry = match (leaf_anchor[node], leaf_anchor[dest]) {
                // A leaf sends everything out its only port.
                (Some(_), _) => adj[node]
                    .iter()
                    .position(|l| l.is_some())
                    .expect("leaf wire") as u8,
                // Core toward a leaf: route to its anchor, then out the
                // anchor's leaf port.
                (None, Some((anchor, aport))) => {
                    if node == anchor {
                        aport as u8
                    } else {
                        core_step(node, anchor) as u8
                    }
                }
                (None, None) => core_step(node, dest) as u8,
            };
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Network, NetworkBuilder, NetworkConfig};

    const N: usize = PORT_NORTH;
    const E: usize = PORT_EAST;
    const S: usize = PORT_SOUTH;
    const W: usize = PORT_WEST;

    /// `grid_wires(3, 2, 0)`: nodes `0 1 2 / 3 4 5`.
    const GRID_3X2: [WireEnds; 7] = [
        ((0, E), (1, W)),
        ((0, S), (3, N)),
        ((1, E), (2, W)),
        ((1, S), (4, N)),
        ((2, S), (5, N)),
        ((3, E), (4, W)),
        ((4, E), (5, W)),
    ];

    /// `hypercube_wires(1, 2)`: clusters `0 1 / 2 3` and `4 5 / 6 7`, then the
    /// one dimension-0 link between their `(0, 0)` west ports.
    const CUBE_1X2: [WireEnds; 9] = [
        ((0, E), (1, W)),
        ((0, S), (2, N)),
        ((1, S), (3, N)),
        ((2, E), (3, W)),
        ((4, E), (5, W)),
        ((4, S), (6, N)),
        ((5, S), (7, N)),
        ((6, E), (7, W)),
        ((0, W), (4, W)),
    ];

    /// The wire table of a built network, by wire index.
    fn wire_table(net: &Network) -> Vec<WireEnds> {
        (0..net.wire_count()).map(|w| net.wire_ends(w)).collect()
    }

    /// `core` plus the database search's two hosts the way
    /// `apps/dbsearch.rs` attaches them: sender `n` on the origin's
    /// north port, collector `n + 1` below the exit's south port (always
    /// the machine's last wire, collector at the B end). The sender's
    /// wire is the one wart: sender-first on a planned machine,
    /// origin-first on a routed one. Flipping either would swap that
    /// wire's two per-direction fault streams and its delivered pair.
    fn with_hosts(core: &[WireEnds], n: usize, routed: bool) -> Vec<WireEnds> {
        let sender = if routed {
            ((0, N), (n, S))
        } else {
            ((n, S), (0, N))
        };
        [core, &[sender, ((n - 1, S), (n + 1, N))]].concat()
    }

    /// Build `wires` over `n` nodes, let `route` enable a router (or
    /// not), and read the table back off the network.
    fn built(
        n: usize,
        wires: &[WireEnds],
        route: impl FnOnce(&mut NetworkBuilder),
    ) -> Vec<WireEnds> {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        for _ in 0..n {
            b.add_node();
        }
        b.connect_all(wires);
        route(&mut b);
        wire_table(&b.build())
    }

    #[test]
    fn golden_wire_tables() {
        // Wire order *and* A/B orientation are the contract every fault
        // fingerprint hangs off (`FaultPlan` draws fates per wire index
        // and direction): pinned literally, bare and with hosts, planned
        // and routed. A routed build takes its wires exactly as given.
        assert_eq!(grid_wires(3, 2, 0), GRID_3X2);
        assert_eq!(built(6, &GRID_3X2, |_| {}), GRID_3X2);
        assert_eq!(hypercube_wires(1, 2), CUBE_1X2);
        assert_eq!(built(8, &CUBE_1X2, |_| {}), CUBE_1X2);

        let planned = with_hosts(&GRID_3X2, 6, false);
        assert_eq!(planned[7..], [((6, S), (0, N)), ((5, S), (7, N))]);
        assert_eq!(built(8, &planned, |_| {}), planned);
        let routed = with_hosts(&GRID_3X2, 6, true);
        assert_eq!(routed[7..], [((0, N), (6, S)), ((5, S), (7, N))]);
        assert_eq!(
            built(8, &routed, |b| {
                b.enable_router();
            }),
            routed
        );

        let planned = with_hosts(&CUBE_1X2, 8, false);
        assert_eq!(planned[9..], [((8, S), (0, N)), ((7, S), (9, N))]);
        assert_eq!(built(10, &planned, |_| {}), planned);
        let routed = with_hosts(&CUBE_1X2, 8, true);
        assert_eq!(routed[9..], [((0, N), (8, S)), ((7, S), (9, N))]);
        assert_eq!(
            built(10, &routed, |b| {
                b.enable_router_hypercube(1, 2);
            }),
            routed
        );
    }

    #[test]
    fn grid_edge_wire_is_the_sweep_index() {
        // The closed form against a lookup in the sweep, every edge of
        // a few shapes (square, wide, tall, single row/column).
        for (w, h) in [(4, 4), (5, 2), (2, 5), (3, 1), (1, 3)] {
            let wires = grid_wires(w, h, 0);
            for (i, &((a, port), _)) in wires.iter().enumerate() {
                let got = grid_edge_wire(w, h, a % w, a / w, port == PORT_EAST);
                assert_eq!(got, i, "{w}x{h} wire {i}");
            }
        }
        assert_eq!(grid_edge_wire(4, 4, 2, 3, true), 23);
    }

    #[test]
    #[should_panic(expected = "no east edge")]
    fn grid_edge_wire_rejects_missing_edges() {
        let _ = grid_edge_wire(4, 4, 3, 0, true);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn grid_bounds_checked() {
        let _ = grid_edge_wire(2, 2, 2, 0, true);
    }

    #[test]
    fn grid_4x4_is_figure_8s_array() {
        // 16 transputers, 24 internal wires.
        let wires = grid_wires(4, 4, 0);
        assert_eq!(wires.len(), 2 * 4 * 3);
        assert_eq!(built(16, &wires, |_| {}), wires);
    }

    #[test]
    fn hypercube_4_4_is_the_256_node_machine() {
        // 16 clusters x 24 internal wires, plus one wire per hypercube
        // edge: 4 * 2^4 / 2 = 32.
        let wires = hypercube_wires(4, 4);
        assert_eq!(wires.len(), 16 * 24 + 32);
        assert_eq!(built(256, &wires, |_| {}), wires);
    }

    #[test]
    fn hypercube_anchors_leave_host_ports_free() {
        // Every cluster keeps (0,0) north and (side-1,side-1) south
        // unwired: a builder can still attach hosts there.
        let side = 4;
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let ids: Vec<NodeId> = (0..16 * side * side).map(|_| b.add_node()).collect();
        b.connect_all(&hypercube_wires(4, side));
        for c in 0..16 {
            let host = b.add_node();
            b.connect((ids[c * side * side], PORT_NORTH), (host, PORT_SOUTH));
            let exit = b.add_node();
            b.connect(
                (ids[(c * side + (side - 1)) * side + (side - 1)], PORT_SOUTH),
                (exit, PORT_NORTH),
            );
        }
        let net = b.build();
        assert_eq!(net.len(), 256 + 32);
    }

    #[test]
    #[should_panic(expected = "dimension must be 1..=4")]
    fn hypercube_dimension_capped_by_link_count() {
        let _ = hypercube_wires(5, 4);
    }

    /// Follow a routing table from `from` to `to`, returning the hop
    /// count (panics on a loop or a missing route).
    fn walk(adj: &Adjacency, tables: &[u8], from: usize, to: usize) -> usize {
        let mut at = from;
        let mut hops = 0;
        while at != to {
            let port = tables[at * adj.len() + to];
            assert_ne!(port, NO_ROUTE, "no route {from}->{to} at {at}");
            let (peer, _, _) = adj[at][port as usize].expect("table names a wired port");
            at = peer;
            hops += 1;
            assert!(hops <= adj.len(), "routing loop {from}->{to}");
        }
        hops
    }

    #[test]
    fn grid_route_tables_are_xy_dimension_order() {
        // The BFS tie-break must reduce to exact XY routing on a mesh:
        // move east/west until the column matches, then north/south.
        let (w, h) = (5, 4);
        let adj = grid_adjacency(w, h);
        let tables = route_tables(&adj, &HashSet::new());
        for y in 0..h {
            for x in 0..w {
                for ty in 0..h {
                    for tx in 0..w {
                        let (n, d) = (y * w + x, ty * w + tx);
                        let want = if (x, y) == (tx, ty) {
                            NO_ROUTE
                        } else if x < tx {
                            PORT_EAST as u8
                        } else if x > tx {
                            PORT_WEST as u8
                        } else if y < ty {
                            PORT_SOUTH as u8
                        } else {
                            PORT_NORTH as u8
                        };
                        assert_eq!(tables[n * w * h + d], want, "({x},{y}) -> ({tx},{ty})");
                    }
                }
            }
        }
    }

    #[test]
    fn bfs_tables_route_around_dead_wires() {
        // Kill (0,0)-(1,0): routes from (0,0) eastward must detour via
        // row 1 and every pair stays connected at BFS distance.
        let (w, h) = (4, 3);
        let adj = grid_adjacency(w, h);
        let dead: HashSet<usize> = [grid_edge_wire(w, h, 0, 0, true)].into();
        let tables = route_tables(&adj, &dead);
        assert_eq!(
            tables[1], PORT_SOUTH as u8,
            "(0,0) -> (1,0): detour starts south"
        );
        for from in 0..w * h {
            let dist = bfs_dist(&adj, from, &dead);
            for (to, d) in dist.iter().enumerate() {
                if from == to {
                    continue;
                }
                let hops = walk(&adj, &tables, from, to);
                assert_eq!(hops as u32, d.unwrap(), "{from}->{to}");
            }
        }
    }

    #[test]
    fn hypercube_tables_are_deterministic_and_complete() {
        let (dim, side) = (2, 3);
        let adj = hypercube_adjacency(dim, side);
        let tables = hypercube_tables(&adj, dim, side, &HashSet::new());
        let n = adj.len();
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    assert_eq!(tables[from * n + to], NO_ROUTE);
                    continue;
                }
                // Every pair routes to its destination without loops;
                // dimension order may detour via anchors, so only bound
                // the hop count rather than demanding BFS-minimality.
                let hops = walk(&adj, &tables, from, to);
                assert!(
                    hops <= 4 * (side - 1) * (dim + 1) + dim,
                    "{from}->{to}: {hops}"
                );
            }
        }
        // Same-cluster routing is plain XY: cluster 0 (0,0) -> (2,1)
        // goes east first.
        assert_eq!(tables[side + 2], PORT_EAST as u8);
    }

    #[test]
    fn hypercube_tables_handle_host_leaves() {
        let (dim, side) = (1, 2);
        let core = 2 * side * side;
        // Sender leaf on node 0's north port, collector leaf on the last
        // core node's south port (the free host ports).
        let adj = adjacency(
            core + 2,
            &with_hosts(&hypercube_wires(dim, side), core, true),
        );
        let tables = hypercube_tables(&adj, dim, side, &HashSet::new());
        // The sender leaf reaches every node out its single port.
        let n = core + 2;
        for (dest, &port) in tables[core * n..][..n].iter().enumerate() {
            if dest == core {
                continue;
            }
            assert_eq!(port, PORT_SOUTH as u8, "leaf -> {dest}");
        }
        // Core nodes route to the collector leaf via its anchor.
        assert_eq!(tables[(core - 1) * n + core + 1], PORT_SOUTH as u8);
        let hops_to_collector = walk(&adj, &tables, core, core + 1);
        assert!(hops_to_collector >= 2);
        // The BFS fallback handles the same leaves when wires die.
        let dead: HashSet<usize> = [0usize].into();
        let bfs = hypercube_tables(&adj, dim, side, &dead);
        for from in 0..core + 2 {
            for to in 0..core + 2 {
                if from != to {
                    walk(&adj, &bfs, from, to);
                }
            }
        }
    }

    #[test]
    fn grid_tables_have_acyclic_channel_dependencies() {
        // XY tables on an intact mesh are the wormhole deadlock-freedom
        // baseline, and the BFS fallback around a single dead edge on
        // the shapes the router tests exercise stays acyclic too.
        let adj = grid_adjacency(5, 4);
        assert!(cdg_acyclic(&adj, &route_tables(&adj, &HashSet::new())));
        let dead: HashSet<usize> = [grid_edge_wire(5, 4, 0, 0, true)].into();
        assert!(cdg_acyclic(&adj, &route_tables(&adj, &dead)));
    }

    #[test]
    fn hypercube_tables_have_a_cyclic_channel_dependency_graph() {
        // Dimension order is increasing along each route, but the XY
        // walks between the per-dimension anchor corners let routes
        // chain a high-dimension crossing into another route's walk
        // toward a lower dimension's anchor; the union of routes closes
        // a cycle, so wormhole streaming must degrade to
        // store-and-forward on this topology.
        let cube = hypercube_adjacency(2, 3);
        assert!(!cdg_acyclic(
            &cube,
            &hypercube_tables(&cube, 2, 3, &HashSet::new())
        ));
    }

    /// The BFS-per-destination tables as first written, over
    /// [`bfs_dist`] and the hashed dead set: the oracle for
    /// [`route_tables`].
    fn route_tables_oracle(adj: &Adjacency, dead: &HashSet<usize>) -> Vec<Vec<u8>> {
        let n = adj.len();
        let mut tables = vec![vec![NO_ROUTE; n]; n];
        for dest in 0..n {
            let dist = bfs_dist(adj, dest, dead);
            for (node, row) in tables.iter_mut().enumerate() {
                if node == dest {
                    continue;
                }
                let Some(d) = dist[node] else { continue };
                let port = ROUTE_PREF.into_iter().find(|&p| {
                    adj[node][p].is_some_and(|(peer, _, wire)| {
                        !dead.contains(&wire) && dist[peer] == Some(d - 1)
                    })
                });
                row[dest] = port.expect("a reachable node has a next hop") as u8;
            }
        }
        tables
    }

    /// The channel-dependency check as first written, successor lists
    /// and all: the oracle for [`cdg_acyclic`].
    fn cdg_acyclic_oracle(adj: &Adjacency, tables: &[Vec<u8>]) -> bool {
        let n = adj.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n * 4];
        for (node, row) in tables.iter().enumerate() {
            for (dest, &p) in row.iter().enumerate() {
                if p == NO_ROUTE {
                    continue;
                }
                let p = usize::from(p);
                let Some((peer, _, _)) = adj[node][p] else {
                    continue;
                };
                if peer == dest || tables[peer][dest] == NO_ROUTE {
                    continue;
                }
                let e = peer * 4 + usize::from(tables[peer][dest]);
                if !edges[node * 4 + p].contains(&e) {
                    edges[node * 4 + p].push(e);
                }
            }
        }
        let mut state = vec![0u8; n * 4];
        for s in 0..n * 4 {
            if state[s] != 0 {
                continue;
            }
            state[s] = 1;
            let mut stack = vec![(s, 0usize)];
            while let Some((v, i)) = stack.last_mut() {
                if let Some(&e) = edges[*v].get(*i) {
                    *i += 1;
                    match state[e] {
                        0 => {
                            state[e] = 1;
                            stack.push((e, 0));
                        }
                        1 => return false,
                        _ => {}
                    }
                } else {
                    state[*v] = 2;
                    stack.pop();
                }
            }
        }
        true
    }

    /// The word-parallel tables and the streaming dependency check
    /// against their first implementations: every grid from 1x1 to 6x5
    /// and a small cluster hypercube, then shapes past one 64-destination
    /// batch (two grids, one with a partial last batch, a cluster
    /// hypercube and a grid carrying the search machines' two host
    /// leaves), intact and under seeded random dead-wire sets, plus
    /// random (mostly cyclic) tables for the check alone.
    #[test]
    fn route_tables_and_cdg_match_their_oracles() {
        let mut rng = 0x1985_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut shapes: Vec<(String, Adjacency)> = Vec::new();
        for w in 1..=6 {
            for h in 1..=5 {
                shapes.push((format!("{w}x{h} grid"), grid_adjacency(w, h)));
            }
        }
        shapes.push(("cube 2x3".into(), hypercube_adjacency(2, 3)));
        shapes.push(("9x8 grid".into(), grid_adjacency(9, 8)));
        shapes.push(("13x10 grid".into(), grid_adjacency(13, 10)));
        shapes.push(("cube 2x5".into(), hypercube_adjacency(2, 5)));
        shapes.push((
            "12x10 grid + hosts".into(),
            adjacency(122, &with_hosts(&grid_wires(12, 10, 0), 120, true)),
        ));
        let (mut cyclic, mut acyclic, mut wide_splits) = (0, 0, 0);
        for (label, adj) in &shapes {
            let wires = adj
                .iter()
                .flatten()
                .flatten()
                .map(|&(_, _, w)| w + 1)
                .max()
                .unwrap_or(0);
            for round in 0..12 {
                // Round 0 intact, then death rates rising to 40 %.
                let dead: HashSet<usize> =
                    (0..wires).filter(|_| next() % 20 < round * 3 / 4).collect();
                let tables = route_tables(adj, &dead);
                let oracle = route_tables_oracle(adj, &dead);
                assert!(tables == oracle.concat(), "{label}, dead {dead:?}: tables");
                let verdict = cdg_acyclic(adj, &tables);
                assert_eq!(
                    verdict,
                    cdg_acyclic_oracle(adj, &oracle),
                    "{label}: {dead:?}"
                );
                let n = adj.len();
                if n > 64 && (0..n * n).any(|i| i / n != i % n && tables[i] == NO_ROUTE) {
                    wide_splits += 1;
                }
                // Any port may be named, wired or not: the check must
                // agree with its oracle on arbitrary tables too.
                let random: Vec<Vec<u8>> = (0..n)
                    .map(|node| {
                        (0..n)
                            .map(|dest| match next() % 5 {
                                _ if node == dest => NO_ROUTE,
                                4 => NO_ROUTE,
                                p => p as u8,
                            })
                            .collect()
                    })
                    .collect();
                let verdict = cdg_acyclic(adj, &random.concat());
                assert_eq!(verdict, cdg_acyclic_oracle(adj, &random), "{label}: random");
                if verdict {
                    acyclic += 1;
                } else {
                    cyclic += 1;
                }
            }
        }
        let cube = hypercube_adjacency(2, 3);
        let tables = hypercube_tables(&cube, 2, 3, &HashSet::new());
        let rows: Vec<Vec<u8>> = tables.chunks(cube.len()).map(<[u8]>::to_vec).collect();
        assert!(!cdg_acyclic(&cube, &tables) && !cdg_acyclic_oracle(&cube, &rows));
        assert!(
            cyclic > 0 && acyclic > 0,
            "{cyclic} cyclic, {acyclic} acyclic"
        );
        // The dead sets cut the wide shapes into pieces too.
        assert!(wide_splits > 0, "no dead set split a shape past one batch");
    }

    #[test]
    fn cdg_check_catches_a_turn_cycle() {
        // Hand-craft clockwise routing around a 2x2 grid: each node
        // forwards to its diagonal opposite the long way round, so the
        // four channels wait on each other in a ring — the canonical
        // wormhole deadlock cycle a checker must reject.
        let adj = grid_adjacency(2, 2);
        let mut tables = vec![NO_ROUTE; 4 * 4];
        let mut route =
            |node: usize, dest: usize, port: usize| tables[node * 4 + dest] = port as u8;
        route(0, 3, PORT_EAST); // 0 -> 3 via 1
        route(1, 3, PORT_SOUTH);
        route(1, 2, PORT_SOUTH); // 1 -> 2 via 3
        route(3, 2, PORT_WEST);
        route(3, 0, PORT_WEST); // 3 -> 0 via 2
        route(2, 0, PORT_NORTH);
        route(2, 1, PORT_NORTH); // 2 -> 1 via 0
        route(0, 1, PORT_EAST);
        assert!(!cdg_acyclic(&adj, &tables));
    }
}
