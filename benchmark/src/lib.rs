//! The system benchmark of the transputer reproduction.
//!
//! Six workloads that load the stack's layers differently, host cost in
//! units of a fixed reference kernel, simulated quantities that must
//! repeat exactly, and a traced pass that measures every layer from
//! outside, through public functions only. `README.md` beside this crate
//! says why each workload and metric was chosen and how to read the
//! output.

pub mod harness;
pub mod json;
pub mod metrics;
pub mod refkernel;
pub mod report;
pub mod surface;
pub mod trace;
pub mod workloads;
