//! # fm-pattern
//!
//! Pattern representation and pattern analysis for the FlexMiner (ISCA 2021)
//! reproduction.
//!
//! FlexMiner is *pattern-aware*: before execution, the pattern of interest is
//! analyzed to produce a **matching order** (which pattern vertex is matched
//! at which DFS depth, and which earlier vertices it must connect to) and a
//! **symmetry order** (partial order on the matched data vertices that breaks
//! the pattern's automorphisms, so each embedding is found exactly once).
//! §II-B of the paper describes both; this crate implements them:
//!
//! * [`Pattern`] — small dense graph (≤ 16 vertices) with named constructors
//!   for every pattern in the paper (triangle, wedge, diamond,
//!   tailed-triangle, 4-cycle, k-cliques, …) and exact automorphism-group
//!   computation.
//! * [`analysis::analyze`] — selects the best matching order using the
//!   rule set the paper cites (match dense substructures first), relabels
//!   the pattern accordingly, and derives connected-ancestor sets.
//! * [`symmetry`] — Grochow–Kellis symmetry breaking: a set of
//!   `v_later < v_earlier` id constraints with the property that exactly one
//!   member of every automorphism class satisfies them.
//! * [`motifs`] — enumeration of all connected k-vertex patterns (the
//!   3-motifs and 4-motifs of Fig. 3), used by k-motif counting, and the
//!   containment coefficients that turn edge-induced counts into the
//!   induced census.
//!
//! # Examples
//!
//! ```
//! use fm_pattern::{analysis, Pattern};
//!
//! let diamond = Pattern::diamond();
//! assert_eq!(diamond.automorphism_count(), 4);
//!
//! let analyzed = analysis::analyze(&diamond);
//! // The best matching order finds the triangle before the fourth vertex
//! // (Fig. 5 of the paper): the third matched vertex connects to both
//! // earlier ones.
//! assert_eq!(analyzed.connected_ancestors[2].len(), 2);
//! ```

pub mod analysis;
pub mod depthset;
pub mod motifs;
pub mod pattern;
pub mod symmetry;

pub use analysis::AnalyzedPattern;
pub use depthset::DepthSet;
pub use pattern::{Pattern, PatternError, MAX_PATTERN_VERTICES};
pub use symmetry::SymmetryPair;
