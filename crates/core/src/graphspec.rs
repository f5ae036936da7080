//! Graph input specs shared by the CLI and `flexminer serve`.
//!
//! An input is either a path to an edge-list file (`u v` per line,
//! SNAP-style) or an inline generator spec such as
//! `gen:powerlaw,n=10000,m=6,closure=0.5,seed=42`,
//! `gen:er,n=1000,p=0.05,seed=1`, or `gen:complete,n=32`. The spec
//! string is also the key of `flexminer serve`'s graph cache: jobs naming
//! the same spec share one loaded copy, which the cache charges against
//! the memory budget once — [`csr_bytes`] of the built graph, and before
//! a `gen:` spec is built, of its [`GenSpec::bounds`].

use fm_graph::{generators, io, CsrGraph};
use std::collections::HashMap;

/// Loads a graph input: a `gen:` spec builds a synthetic graph, anything
/// else opens an edge-list file.
///
/// # Errors
///
/// Returns a human-readable message for unknown generator kinds, bad
/// parameters, and file open/parse failures.
pub fn load(input: &str) -> Result<CsrGraph, String> {
    if let Some(spec) = input.strip_prefix("gen:") {
        return generate(spec);
    }
    let file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    io::read_edge_list(file).map_err(|e| format!("parse {input}: {e}"))
}

/// Builds a synthetic graph from a `kind,k=v,...` spec (no `gen:` prefix).
///
/// # Errors
///
/// See [`GenSpec::parse`].
pub fn generate(spec: &str) -> Result<CsrGraph, String> {
    Ok(GenSpec::parse(spec)?.build())
}

/// A parsed generator spec: which generator runs and with what, checked
/// once, so what [`bounds`](Self::bounds) sizes is what
/// [`build`](Self::build) makes.
#[derive(Clone, Debug, PartialEq)]
pub enum GenSpec {
    PowerLaw { n: usize, m: usize, closure: f64, seed: u64 },
    Pa { n: usize, m: usize, seed: u64 },
    Er { n: usize, p: f64, seed: u64 },
    Complete { n: usize },
    Caveman { communities: usize, size: usize, bridges: usize, seed: u64 },
}

impl GenSpec {
    /// Parses a `kind,k=v,...` spec (no `gen:` prefix).
    ///
    /// Kinds: `powerlaw` (n, m, closure, seed), `pa` (n, m, seed),
    /// `er` (n, p, seed), `complete` (n), `caveman` (communities, size,
    /// bridges, seed).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown kinds, unparsable parameters,
    /// parameters outside a generator's documented preconditions and more
    /// vertices than a `u32` id can name (`bad gen spec: …`).
    pub fn parse(spec: &str) -> Result<GenSpec, String> {
        let mut parts = spec.split(',');
        let kind = parts.next().ok_or("empty generator spec")?;
        let kv: HashMap<&str, &str> = parts.filter_map(|p| p.split_once('=')).collect();
        let get_u = |k: &str, default: usize| -> Result<usize, String> {
            kv.get(k).map_or(Ok(default), |v| v.parse().map_err(|e| format!("bad {k}: {e}")))
        };
        let get_f = |k: &str, default: f64| -> Result<f64, String> {
            kv.get(k).map_or(Ok(default), |v| v.parse().map_err(|e| format!("bad {k}: {e}")))
        };
        let seed = get_u("seed", 1)? as u64;
        // The generators assert their documented preconditions; a client's
        // numbers are checked here so a miss is a message, not a panic.
        let need = |ok: bool, what: &str| -> Result<(), String> {
            ok.then_some(()).ok_or_else(|| format!("bad gen spec: {kind} needs {what}"))
        };
        let gen = match kind {
            "powerlaw" | "pa" => {
                let (n, m) = (get_u("n", 10_000)?, get_u("m", 5)?);
                need(m >= 1 && n > m, "m >= 1 and n > m")?;
                if kind == "pa" {
                    GenSpec::Pa { n, m, seed }
                } else {
                    GenSpec::PowerLaw { n, m, closure: get_f("closure", 0.5)?, seed }
                }
            }
            "er" => GenSpec::Er { n: get_u("n", 1_000)?, p: get_f("p", 0.01)?, seed },
            "complete" => GenSpec::Complete { n: get_u("n", 16)? },
            "caveman" => {
                let (communities, size) = (get_u("communities", 50)?, get_u("size", 10)?);
                need(communities >= 1 && size >= 2, "communities >= 1 and size >= 2")?;
                GenSpec::Caveman { communities, size, bridges: get_u("bridges", 100)?, seed }
            }
            other => return Err(format!("unknown generator kind {other}")),
        };
        // Vertex ids are `u32`: a graph they cannot name is refused here,
        // before a generator truncates an id or allocates for it.
        need(gen.bounds().0 <= u64::from(u32::MAX), "at most 4294967295 vertices")?;
        Ok(gen)
    }

    /// Upper bounds on the built graph's vertex and directed edge counts
    /// (each undirected edge twice, as the CSR stores it), saturating:
    /// every growth step adds at most `m` edges, a random graph at most
    /// every pair, a caveman graph its cliques plus one edge per bridge.
    pub fn bounds(&self) -> (u64, u64) {
        let pairs = |n: u64| n.saturating_mul(n.saturating_sub(1));
        match *self {
            GenSpec::PowerLaw { n, m, .. } | GenSpec::Pa { n, m, .. } => {
                (n as u64, (n as u64).saturating_mul(m as u64).saturating_mul(2))
            }
            GenSpec::Er { n, .. } | GenSpec::Complete { n } => (n as u64, pairs(n as u64)),
            GenSpec::Caveman { communities, size, bridges, .. } => {
                let cliques = (communities as u64).saturating_mul(pairs(size as u64));
                let n = (communities as u64).saturating_mul(size as u64);
                (n, cliques.saturating_add((bridges as u64).saturating_mul(2)))
            }
        }
    }

    /// Runs the generator.
    pub fn build(&self) -> CsrGraph {
        match *self {
            GenSpec::PowerLaw { n, m, closure, seed } => {
                generators::powerlaw_cluster(n, m, closure, seed)
            }
            GenSpec::Pa { n, m, seed } => generators::preferential_attachment(n, m, seed),
            GenSpec::Er { n, p, seed } => generators::erdos_renyi(n, p, seed),
            GenSpec::Complete { n } => generators::complete(n),
            GenSpec::Caveman { communities, size, bridges, seed } => {
                generators::caveman(communities, size, bridges, seed)
            }
        }
    }
}

/// CSR residency estimate: offsets (`u64`) plus neighbor ids (`u32`),
/// doubled when the plan orients the graph into a DAG copy. Saturates, so
/// a bound no machine could hold reads as too big rather than wrapping to
/// small.
pub fn csr_bytes(vertices: u64, directed_edges: u64, oriented: bool) -> u64 {
    let ids = directed_edges.saturating_mul(4);
    let base = vertices.saturating_add(1).saturating_mul(8).saturating_add(ids);
    base.saturating_mul(1 + u64::from(oriented))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_specs_build_and_paths_error_cleanly() {
        assert_eq!(load("gen:complete,n=5").unwrap().num_vertices(), 5);
        assert!(generate("er,n=50,p=0.1,seed=3").is_ok());
        assert!(generate("warp,n=5").unwrap_err().contains("unknown generator kind"));
        assert!(load("/nonexistent/definitely-missing").unwrap_err().contains("open"));
        // Precondition misses are messages, never the generators' asserts.
        for spec in [
            "powerlaw,n=5,m=10",
            "powerlaw,n=5,m=0",
            "pa,n=100,m=0",
            "pa,n=4,m=4",
            "caveman,communities=0,size=5",
            "caveman,communities=3,size=1",
        ] {
            let err = generate(spec).unwrap_err();
            assert!(err.starts_with("bad gen spec: "), "{spec}: {err}");
        }
        assert_eq!(generate("pa,n=5,m=4").unwrap().num_vertices(), 5);
        assert_eq!(generate("caveman,communities=1,size=2,bridges=0").unwrap().num_vertices(), 2);
    }

    #[test]
    fn csr_bytes_counts_offsets_and_ids_and_saturates() {
        // (9 + 1)·8 offsets + 72·4 ids, doubled for an oriented copy.
        assert_eq!(csr_bytes(9, 72, false), 368);
        assert_eq!(csr_bytes(9, 72, true), 736);
        assert_eq!(csr_bytes(u64::MAX, 0, false), u64::MAX);
        assert_eq!(csr_bytes(1, u64::MAX / 2, true), u64::MAX);
    }

    #[test]
    fn gen_bounds_cover_what_the_generators_build() {
        for spec in [
            "complete,n=9",
            "powerlaw,n=300,m=4,closure=0.5,seed=3",
            "pa,n=5,m=4",
            "er,n=80,p=0.2,seed=2",
            "caveman,communities=6,size=5,bridges=40,seed=4",
            "caveman,communities=1,size=2,bridges=0",
        ] {
            let gen = GenSpec::parse(spec).unwrap();
            let (g, (n, m)) = (gen.build(), gen.bounds());
            assert_eq!(g.num_vertices() as u64, n, "{spec}");
            assert!(g.num_directed_edges() as u64 <= m, "{spec}: {} > {m}", g.num_directed_edges());
        }
        // A complete graph meets its bound; a huge spec saturates rather
        // than wrapping to a size that would pass a budget.
        assert_eq!(GenSpec::parse("complete,n=9").unwrap().bounds(), (9, 72));
        assert_eq!(GenSpec::parse("complete,n=200000").unwrap().bounds().1, 200_000 * 199_999);
        let huge = GenSpec::Caveman { communities: usize::MAX, size: 1 << 32, bridges: 1, seed: 1 };
        assert_eq!(huge.bounds(), (u64::MAX, u64::MAX));
    }

    #[test]
    fn parse_refuses_more_vertices_than_a_u32_id_names() {
        for spec in [
            "powerlaw,n=4294967296,m=4",
            "pa,n=18446744073709551615,m=4",
            "er,n=4294967296,p=0",
            "complete,n=4294967296",
            "caveman,communities=65536,size=65536,bridges=0",
            "caveman,communities=18446744073709551615,size=4294967296",
        ] {
            let err = GenSpec::parse(spec).unwrap_err();
            assert!(err.starts_with("bad gen spec: "), "{spec}: {err}");
            assert!(err.ends_with("needs at most 4294967295 vertices"), "{spec}: {err}");
        }
        // The largest nameable graph parses (and is never built here).
        for spec in ["complete,n=4294967295", "caveman,communities=65535,size=65537"] {
            assert_eq!(GenSpec::parse(spec).unwrap().bounds().0, u64::from(u32::MAX), "{spec}");
        }
    }
}
