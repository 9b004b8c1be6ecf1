//! FPART: iterative-improvement-based multi-way netlist partitioning for
//! FPGAs.
//!
//! This crate reproduces the partitioning system of Krupnova & Saucier
//! (DATE 1999). Given a circuit hypergraph
//! ([`fpart_hypergraph::Hypergraph`]) and an FPGA device
//! ([`fpart_device::DeviceConstraints`]), [`partition`] finds a feasible
//! multi-way partition — every block within the device's CLB and IOB
//! budgets — using as few devices as possible.
//!
//! The method is built from classical iterative-improvement machinery —
//! Fiduccia–Mattheyses passes, Krishnamurthy second-level gains, and
//! Sanchis' multi-way generalization — guided by the paper's
//! FPGA-specific devices:
//!
//! * an **infeasibility-distance** cost function and lexicographic
//!   solution key ([`cost`]);
//! * asymmetric **feasible-move regions** biasing moves *out of* the
//!   remainder ([`constraints`]);
//! * dual **solution stacks** of semi-feasible and infeasible restart
//!   points ([`stack`]);
//! * a scheduled set of improvement passes per peeling iteration
//!   ([`driver`]).
//!
//! # Quickstart
//!
//! ```
//! use fpart_core::{partition, FpartConfig};
//! use fpart_device::Device;
//! use fpart_hypergraph::gen::{window_circuit, WindowConfig};
//!
//! # fn main() -> Result<(), fpart_core::PartitionError> {
//! let circuit = window_circuit(&WindowConfig::new("demo", 400, 32), 42);
//! let device = Device::XC3020.constraints(0.9);
//! let outcome = partition(&circuit, device, &FpartConfig::default())?;
//! assert!(outcome.feasible);
//! println!("{} devices (lower bound {})", outcome.device_count, outcome.lower_bound);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::pedantic)]
// Pedantic opt-outs: the algorithm code is index-heavy (block ids, cell
// ids, gain offsets) and intentionally casts between the narrow on-disk
// integer types and usize; flagging every site would bury real findings.
#![allow(clippy::cast_possible_truncation)]
#![allow(clippy::cast_possible_wrap)]
#![allow(clippy::cast_precision_loss)]
#![allow(clippy::cast_sign_loss)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::missing_panics_doc)]
#![allow(clippy::must_use_candidate)]
#![allow(clippy::similar_names)]
#![allow(clippy::struct_excessive_bools)]
#![allow(clippy::too_many_lines)]
// Tests assert bit-identical determinism, so exact float comparison is
// the point, not an accident.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::many_single_char_names))]

pub mod assignment;
pub mod bucket;
pub mod budget;
pub mod checkpoint;
pub mod config;
pub mod constraints;
pub mod cost;
pub mod direct;
pub mod driver;
pub mod eco;
pub mod engine;
pub mod fm;
pub mod gain;
pub mod hetero;
pub mod initial;
pub mod interconnect;
pub mod json;
pub mod memo;
pub mod multilevel;
pub mod obs;
pub mod parallel;
pub mod persist;
pub mod refine;
pub mod report;
mod run;
pub mod search;
pub mod server;
pub mod stack;
pub mod state;
pub mod trace;
pub mod verify;

pub use assignment::{
    read_assignment, write_assignment, write_assignment_versioned, ReadAssignmentError,
    ASSIGNMENT_FORMAT_VERSION,
};
pub use budget::{
    BudgetSnapshot, BudgetTracker, CancelToken, Completion, FaultAction, FaultPlan, MemoryBudget,
    RunBudget,
};
pub use checkpoint::{
    fingerprint_run, read_checkpoint, write_checkpoint, Checkpoint, CheckpointWriter,
    ReadCheckpointError, SavedRestart,
};
pub use config::FpartConfig;
pub use cost::{classify, CostEvaluator, FeasibilityClass, KeyTracker, SolutionKey};
pub use direct::{partition_direct, DirectConfig};
pub use driver::{partition, partition_observed, BlockReport, PartitionError, PartitionOutcome};
pub use eco::{repartition_eco, repartition_eco_observed, EcoConfig, EcoReport};
pub use engine::{improve, ImproveContext, ImproveStats, NO_REMAINDER};
pub use hetero::{partition_hetero, HeteroOutcome};
pub use initial::{bipartition_remainder, InitialMethod};
pub use interconnect::InterconnectReport;
pub use json::{Json, JsonParseError};
pub use memo::{CacheStats, MemoStore};
pub use multilevel::{
    partition_multilevel, partition_multilevel_restarts_observed, MultilevelConfig,
};
pub use obs::{
    event_to_json, Counter, EventSink, FanoutSink, Heartbeat, JsonlSink, Metrics, Observer,
    SpanEvent, SpanKind, SpanRecord, SpanStack, SpanStats, TimeStat, SCHEMA_VERSION,
};
pub use persist::{write_atomic, AtomicFile};
pub use report::QualityReport;
pub use search::{search, Algorithm, FailedRestart, Restarts, RestartsReport};
pub use server::{RunParams, Server, ServerConfig};
pub use state::PartitionState;
pub use trace::{ImproveKind, Trace, TraceEvent};
pub use verify::{verify_assignment, Verification, Violation};
