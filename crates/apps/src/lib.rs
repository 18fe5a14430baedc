//! # transputer-apps
//!
//! The applications sketched in §4 of the ISCA 1985 transputer paper,
//! built on the full stack (occam → I1 code → emulated transputers →
//! bit-level links):
//!
//! * [`dbsearch`] — the concurrent database search of Figure 8 (a square
//!   array of transputers, requests entering one corner, answers leaving
//!   the other) and the 128-transputer board analysis of §4.2.
//! * [`workstation`] — the personal workstation of Figure 6 (application,
//!   disk and graphics transputers), including the paper's
//!   re-configuration claim: the same logical occam processes placed on
//!   three, two or one transputer without changing their code.
//! * [`workload`] — deterministic synthetic data generation (the paper's
//!   16-byte records with 4-byte keys).

#![forbid(unsafe_code)]

pub mod dbsearch;
pub mod workload;
pub mod workstation;

pub use dbsearch::{DbSearch, DbSearchConfig, DbSearchReport};
pub use workload::Workload;
pub use workstation::{Placement, Workstation, WorkstationConfig, WorkstationReport};
