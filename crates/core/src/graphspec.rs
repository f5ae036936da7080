//! Graph input specs shared by the CLI and `flexminer serve`.
//!
//! An input is either a path to an edge-list file (`u v` per line,
//! SNAP-style) or an inline generator spec such as
//! `gen:powerlaw,n=10000,m=6,closure=0.5,seed=42`,
//! `gen:er,n=1000,p=0.05,seed=1`, or `gen:complete,n=32`. The spec
//! string doubles as the identity key for the supervisor's resident-graph
//! accounting: two jobs naming the same spec share one loaded copy and
//! are charged for it once.

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
/// Kinds: `powerlaw` (n, m, closure, seed), `pa` (n, m, seed),
/// `er` (n, p, seed), `complete` (n), `caveman` (communities, size,
/// bridges, seed).
///
/// # Errors
///
/// Returns a message for unknown kinds, unparsable parameters, and
/// parameters outside a generator's documented preconditions
/// (`bad gen spec: …`).
pub fn generate(spec: &str) -> Result<CsrGraph, String> {
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
    Ok(match kind {
        "powerlaw" | "pa" => {
            let (n, m) = (get_u("n", 10_000)?, get_u("m", 5)?);
            need(m >= 1 && n > m, "m >= 1 and n > m")?;
            if kind == "pa" {
                generators::preferential_attachment(n, m, seed)
            } else {
                generators::powerlaw_cluster(n, m, get_f("closure", 0.5)?, seed)
            }
        }
        "er" => generators::erdos_renyi(get_u("n", 1_000)?, get_f("p", 0.01)?, seed),
        "complete" => generators::complete(get_u("n", 16)?),
        "caveman" => {
            let (communities, size) = (get_u("communities", 50)?, get_u("size", 10)?);
            need(communities >= 1 && size >= 2, "communities >= 1 and size >= 2")?;
            generators::caveman(communities, size, get_u("bridges", 100)?, seed)
        }
        other => return Err(format!("unknown generator kind {other}")),
    })
}

/// Stable non-zero identity key for a spec string, used as the
/// supervisor's shared-graph key so jobs naming the same input are
/// charged for one resident copy (FNV-1a; 0 is reserved for "unique").
pub fn fingerprint(input: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in input.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h | 1
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
    fn fingerprint_is_stable_nonzero_and_spec_sensitive() {
        let a = fingerprint("gen:complete,n=5");
        assert_eq!(a, fingerprint("gen:complete,n=5"));
        assert_ne!(a, fingerprint("gen:complete,n=6"));
        assert_ne!(a, 0);
    }
}
