//! The public surface the benchmark pins.
//!
//! Every item of the measured crates that the benchmark touches is
//! imported here and nowhere else (a test greps the other files for the
//! crate names). A refactor that keeps these paths and the signatures of
//! the listed methods keeps the benchmark compiling unedited — which is
//! what lets a later change be measured against its parent with
//! identical benchmark code. Moving or re-typing anything below means
//! editing the benchmark, and that is a change of its own that claims no
//! gain.
//!
//! Methods cannot be named in a `use`; the ones the benchmark calls are
//! listed beside their type.

// occam: source text -> I1 code.
pub use occam::compile; // fn(&str) -> Result<Program, CompileError>
pub use occam::lexer::lex; // fn(&str) -> Result<Vec<Lexeme>, CompileError>
pub use occam::parse; // fn(&str) -> Result<ast::Process, CompileError>
/// Fields `code`, `warnings`; methods `load(&mut Cpu) -> Result<u32, _>`,
/// `read_global(&mut Cpu, wptr, name) -> Result<u32, _>`.
pub use occam::Program;

// analysis: lints and the two bytecode verifiers.
pub use transputer_analysis::lint_source; // fn(&str) -> Vec<Diagnostic>
pub use transputer_analysis::verifier::verify_program; // fn(&Program) -> Vec<Diagnostic>
pub use transputer_analysis::verify_program_cfg; // fn(&Program) -> Vec<Diagnostic>
/// Method `is_error()`.
pub use transputer_analysis::Diagnostic;

// asm: the disassembler.
pub use transputer_asm::dis::disassemble; // fn(&[u8]) -> Vec<Decoded>

// transputer: one processor.
/// `Cpu::new(CpuConfig)`, `run_batched(max_cycles) -> Result<RunOutcome, _>`,
/// `cycles()`, `stats() -> &Stats`, `word_length().to_signed(u32) -> i64`.
pub use transputer::Cpu;
/// `CpuConfig::t424()`, `with_decode_cache(bool)`, `with_translate(bool)`.
pub use transputer::CpuConfig;
/// Fields `instructions`, `deschedules`, `messages`, `link_retries`,
/// `link_rx_errors`, `link_dup_data`, `link_failures`, `decode_hits`,
/// `decode_misses`, `trans_blocks`, `trans_enters`, `trans_deopts`.
pub use transputer::Stats;
pub use transputer::{HaltReason, RunOutcome};

// link: one wire, and the fault schedule.
/// `DuplexLink::new(LinkSpeed)`, `new_robust(LinkSpeed, [Option<LineFaults>; 2], Option<u64>)`,
/// `send_data_seq`, `send_ack_seq`, `advance(now) -> Vec<LinkEvent>`,
/// `next_deadline() -> Option<u64>`.
pub use transputer_link::DuplexLink;
/// `FaultPlan::uniform(seed, rate)`.
pub use transputer_link::FaultPlan;
pub use transputer_link::{End, LinkEvent, LinkSpeed};

// net: the simulation engines and the router.
/// Getters `len()`, `node(id) -> &Cpu`, `wire_count()`,
/// `wire_delivered(w) -> (u64, u64)`, `wire_utilization(w) -> (f64, f64)`,
/// `router_stats() -> Option<RouterStats>`, `router_cut_through() -> Option<bool>`,
/// `pool_spawned_threads()`, `all_halted()`; drivers `set_par_workers(n)`,
/// `step_event() -> Result<bool, SimError>`.
pub use transputer_net::Network;
/// Fields `cpu`, `engine`, `fault`, `router`.
pub use transputer_net::NetworkConfig;
/// Fields `packets_sent`, `packets_forwarded`, `packets_delivered`,
/// `packets_dropped`, `hops`, `max_hop_ns`; methods `mean_hop_ns()`,
/// `p50_hop_ns()`, `p99_hop_ns()`.
pub use transputer_net::RouterStats;
pub use transputer_net::{Engine, RouterConfig, Switching};

// apps: the paper's database search.
/// `DbSearch::build(DbSearchConfig)`, `build_routed(DbSearchConfig)`,
/// `build_hypercube(HypercubeConfig)`, `build_routed_hypercube(HypercubeConfig)`,
/// `run(budget_ns) -> Result<DbSearchReport, SimError>`, `network()`,
/// `network_mut()`.
pub use transputer_apps::dbsearch::DbSearch;
/// Fields `answers`, `expected`, `degraded`, `answer_times_ns`,
/// `first_answer_ns`, `pipeline_interval_ns`, `total_ns`.
pub use transputer_apps::dbsearch::DbSearchReport;
/// Each `fn(&config) -> Vec<(String, String)>` of `(name, occam source)`.
pub use transputer_apps::dbsearch::{array_sources, hypercube_sources, routed_sources};
/// `DbSearchConfig::board128()` / `figure8()`, `HypercubeConfig::hypercube256()`;
/// fields `width`, `height`, `dim`, `side`, `records_per_node`, `requests`,
/// `seed`, `net`.
pub use transputer_apps::dbsearch::{DbSearchConfig, HypercubeConfig};
