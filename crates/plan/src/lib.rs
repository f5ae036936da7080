//! # fm-plan
//!
//! The FlexMiner compiler and execution-plan intermediate representation
//! (IR) — the software/hardware interface of §V of the paper.
//!
//! A user specifies only the pattern(s) of interest. The compiler
//! ([`compile()`]/[`compile_multi`]) runs the pattern analysis from
//! [`fm_pattern`] and emits an [`ExecutionPlan`]:
//!
//! * a **vertex section**: per DFS depth, which embedding vertex to extend
//!   from and a `pruneBy(vid-bound, connected-ancestor-set)` constraint
//!   (Listing 1 of the paper), plus disconnection constraints for
//!   vertex-induced mining;
//! * an **embedding section**: the dependency chain of partial embeddings —
//!   a *tree* when several patterns share a search prefix (Listing 2,
//!   multi-pattern support of §V-B);
//! * **storage-management hints** (§V-C, §VI-B): which levels' candidate
//!   sets are reusable frontier lists, which levels' neighbor lists must be
//!   inserted into the connectivity map (c-map), and vid filters that keep
//!   c-map occupancy low;
//! * the **k-clique orientation** flag: cliques are mined on a degree-
//!   oriented DAG with no runtime symmetry checking (§V-C).
//!
//! The same plan drives every executor in the workspace — the sequential
//! and parallel software engines of `fm-engine` and the cycle-level hardware
//! simulator of `fm-sim` — which is exactly the paper's design: the plan is
//! "loaded by the host CPU to the FlexMiner hardware at the beginning of
//! execution, and customizes the DFS search process".
//!
//! # Examples
//!
//! ```
//! use fm_pattern::Pattern;
//! use fm_plan::{compile, CompileOptions};
//!
//! let plan = compile(&Pattern::cycle(4), CompileOptions::default());
//! // Four levels, one pattern, no orientation (not a clique).
//! assert_eq!(plan.depth(), 4);
//! assert!(!plan.orientation);
//! println!("{plan}"); // Listing-1-style IR dump
//! ```

pub mod compile;
pub mod counting;
pub mod display;
pub mod ir;
pub mod lowering;

pub use compile::{compile, compile_multi, CompileOptions};
pub use counting::{count_leaves, CountOptions, CountRule, Survivors};
pub use ir::{ExecutionPlan, Extender, FrontierHint, PatternMeta, PlanNode, VertexOp};
