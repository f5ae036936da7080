//! # fm-graph
//!
//! Graph substrate for the FlexMiner (ISCA 2021) reproduction.
//!
//! This crate provides the data-graph representation used throughout the
//! workspace: an immutable, validated [`CsrGraph`] in compressed-sparse-row
//! form with sorted adjacency lists, plus the tooling the paper's evaluation
//! relies on:
//!
//! * [`GraphBuilder`] — constructs simple, symmetric graphs from edge lists
//!   (deduplicating, removing self-loops, sorting neighbors), matching the
//!   input-graph requirements in Table I of the paper ("symmetric, no loops
//!   or duplicate edges").
//! * [`generators`] — deterministic synthetic graph generators (Erdős–Rényi,
//!   preferential attachment, cliques, cycles, grids, bipartite graphs) used
//!   both as test oracles and as stand-ins for the SNAP datasets the paper
//!   evaluates (see `DESIGN.md` §4 for the substitution rationale).
//! * [`orientation`] — the degree-based DAG orientation preprocessing the
//!   FlexMiner compiler applies for k-clique mining (§V-C of the paper),
//!   and [`rank_order`], which renumbers a graph by that order.
//! * [`hub`] — degree-thresholded hub adjacency bitmaps ([`HubBitmaps`]),
//!   the auxiliary index backing the engine's probe-based set-op kernels.
//! * [`block`] — per-64-neighbor-block id-range summaries
//!   ([`BlockSummaries`]); no engine caller, kept for the benchmark's
//!   `graph.block_*` lines.
//! * [`stats`] — degree statistics used to reproduce Table I.
//! * [`io`] — plain-text edge-list serialization.
//!
//! # Examples
//!
//! ```
//! use fm_graph::{GraphBuilder, VertexId};
//!
//! // The triangle 0-1-2 plus a pendant vertex 3.
//! let g = GraphBuilder::new()
//!     .edge(0, 1)
//!     .edge(1, 2)
//!     .edge(0, 2)
//!     .edge(2, 3)
//!     .build()?;
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_undirected_edges(), 4);
//! assert!(g.has_edge(VertexId(0), VertexId(2)));
//! assert!(!g.has_edge(VertexId(1), VertexId(3)));
//! # Ok::<(), fm_graph::GraphError>(())
//! ```

pub mod block;
pub mod builder;
pub mod csr;
pub mod error;
pub mod generators;
pub mod hub;
pub mod io;
pub mod orientation;
pub mod stats;
pub mod vertex;

pub use block::BlockSummaries;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use hub::{HubBitmaps, HubRow};
pub use orientation::{orient_by_degree, rank_order};
pub use stats::GraphStats;
pub use vertex::VertexId;
