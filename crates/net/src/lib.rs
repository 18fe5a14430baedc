//! # transputer-net
//!
//! Discrete-event co-simulation of transputer networks.
//!
//! "A system is constructed from a collection of transputers which
//! operate concurrently and communicate through the standard links"
//! (§2.1). This crate wires [`transputer::Cpu`] cores together with
//! [`transputer_link::DuplexLink`] wires under a single nanosecond clock:
//! processor cycles are 50 ns at the nominal 20 MHz; link bits are 100 ns
//! at the standard 10 MHz.
//!
//! The builder connects any link port of any node to any port of any
//! other (§2.3.1: "transputers can be interconnected just as easily as
//! TTL gates"); [`topology`] provides wire lists for the arrangements the
//! paper uses — the square array of Figure 8, and clusters of it joined
//! into a hypercube — which [`NetworkBuilder::connect_all`] wires up.
//!
//! ```
//! use transputer_net::{NetworkBuilder, NetworkConfig};
//! use transputer::instr::{encode, encode_op, Direct, Op};
//!
//! // Two transputers, connected by one link; each runs a tiny program.
//! let mut b = NetworkBuilder::new(NetworkConfig::default());
//! let n0 = b.add_node();
//! let n1 = b.add_node();
//! b.connect((n0, 0), (n1, 0));
//! let mut net = b.build();
//!
//! let mut halt = Vec::new();
//! halt.extend(encode(Direct::LoadConstant, 1));
//! halt.extend(encode_op(Op::HaltSimulation));
//! net.node_mut(n0).load_boot_program(&halt)?;
//! net.node_mut(n1).load_boot_program(&halt)?;
//! net.run_until_all_halted(1_000_000)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod queue;
pub mod router;
pub mod sim;
pub mod topology;

pub use router::{RouterConfig, RouterStats, Switching};
pub use sim::{
    Engine, Network, NetworkBuilder, NetworkConfig, NodeId, PopCounts, SimError, SimOutcome,
};
pub use topology::{
    adjacency, grid_adjacency, grid_wires, hypercube_adjacency, hypercube_wires, Adjacency,
    WireEnds, NO_ROUTE,
};
