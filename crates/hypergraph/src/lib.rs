//! Hypergraph netlist model for FPGA partitioning.
//!
//! This crate provides the circuit substrate used by the FPART partitioner
//! (Krupnova & Saucier, DATE 1999) and its baselines:
//!
//! * [`Hypergraph`] — an immutable hypergraph `H = ({X, Y}, E)` with weighted
//!   interior nodes `X`, primary terminals `Y`, and nets `E`, stored in
//!   flat index-based adjacency for cache-friendly gain updates;
//! * [`HypergraphBuilder`] — the only way to construct a [`Hypergraph`],
//!   validating pin references and net arity;
//! * [`edit`] — netlist edit scripts (JSON Lines) and [`apply_script`],
//!   the substrate of incremental (ECO) repartitioning;
//! * [`fingerprint`] — the one 128-bit hypergraph hash, computed in
//!   O(pins); the graph part of every memo and checkpoint key upstream;
//! * [`io`] — a small line-oriented text format (`.fhg`) reader/writer so
//!   netlists can be stored and replayed;
//! * [`hmetis`] — reader/writer for the hMETIS `.hgr` format, the
//!   de-facto interchange format of the partitioning literature;
//! * [`gen`] — deterministic synthetic circuit generators (Rent's-rule
//!   window generator, layered DAG, clustered), including profiles of the
//!   MCNC Partitioning93 benchmarks used in the paper's evaluation;
//! * [`stats`] — structural statistics (degree histograms, pin counts,
//!   Rent-exponent estimation) used to sanity-check generated workloads;
//! * [`traverse`] — BFS/DFS utilities (connected components, eccentricity)
//!   needed by the constructive initial-partition heuristics.
//!
//! # Example
//!
//! ```
//! use fpart_hypergraph::HypergraphBuilder;
//!
//! # fn main() -> Result<(), fpart_hypergraph::BuildError> {
//! let mut b = HypergraphBuilder::new();
//! let a = b.add_node("a", 2);
//! let c = b.add_node("c", 1);
//! let n = b.add_net("n1", [a, c])?;
//! b.add_terminal("in0", n)?;
//! let h = b.finish()?;
//! assert_eq!(h.node_count(), 2);
//! assert_eq!(h.total_size(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod error;
mod graph;
mod ids;

pub mod blif;
pub mod coarsen;
pub mod edit;
pub mod fingerprint;
pub mod gen;
pub mod hmetis;
pub mod io;
pub mod limits;
pub mod rng;
pub mod stats;
pub mod subgraph;
pub mod traverse;

pub use builder::HypergraphBuilder;
pub use edit::{apply_script, ApplyEditError, EditApplied, EditOp, EditScript, ParseEditError};
pub use error::{BuildError, ParseNetlistError};
pub use fingerprint::{fingerprint_graph, Fingerprint};
pub use graph::Hypergraph;
pub use ids::{NetId, NodeId, TerminalId};
pub use limits::ParseLimits;
