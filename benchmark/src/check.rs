//! The correctness gate: reference counts from a candidate-generation
//! path the default engine does not take, closed forms where they exist,
//! and the parser for what `flexminer` prints.

use crate::inputs::{flat_shape, Request, THREADS};
use fm_engine::{mine, EngineConfig};
use fm_graph::CsrGraph;

/// Unique counts of `request` on `graph` under
/// `EngineConfig::paper_faithful()`: unbounded merges and no dispatcher,
/// so none of the tiers under measurement produce the reference.
pub fn reference(graph: &CsrGraph, request: &Request) -> Vec<u64> {
    let plan = request.compile(&request.patterns());
    let cfg = EngineConfig { threads: THREADS, ..EngineConfig::paper_faithful() };
    mine(graph, &plan, &cfg).unique_counts(&plan)
}

fn binomial(n: u64, k: u64) -> u64 {
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

/// `cli-flat` only: each caveman community is a clique, so a k-clique
/// count is at least `communities · C(size, k)` (bridges can only add).
pub fn flat_lower_bound(request: &Request, quick: bool) -> Option<u64> {
    let k = match request.key {
        "tc" => 3,
        "cl4" => 4,
        "cl5" => 5,
        _ => return None,
    };
    let (communities, size) = flat_shape(quick);
    Some(communities as u64 * binomial(size as u64, k))
}

/// What one `flexminer count|motifs|sim` printed: the leading
/// `name: count` lines, and `cycles:` for `sim`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Printed {
    pub counts: Vec<u64>,
    pub cycles: Option<u64>,
}

pub fn parse_stdout(stdout: &str) -> Printed {
    let mut printed = Printed::default();
    for line in stdout.lines() {
        let Some((key, value)) = line.split_once(':') else { continue };
        let Ok(value) = value.trim().parse::<u64>() else { continue };
        if key == "cycles" {
            printed.cycles = Some(value);
        } else if printed.cycles.is_none() {
            // `sim` follows `cycles:` with statistics, not counts.
            printed.counts.push(value);
        }
    }
    printed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SIX;

    #[test]
    fn parses_count_motifs_and_sim_output() {
        assert_eq!(parse_stdout("triangle: 571296\n").counts, vec![571296]);
        assert_eq!(parse_stdout("wedge: 12\ntriangle: 3\n").counts, vec![12, 3]);
        let sim = parse_stdout("4-cycle: 7\ncycles:            1678189\ntasks:             6000\n");
        assert_eq!(sim, Printed { counts: vec![7], cycles: Some(1678189) });
        assert_eq!(parse_stdout("error: nope\n"), Printed::default());
    }

    #[test]
    fn reference_matches_closed_forms() {
        let g = fm_graph::generators::complete(8);
        assert_eq!(reference(&g, &SIX[2]), vec![56]); // C(8,5)
        assert_eq!(binomial(11, 3), 165);
        assert_eq!(flat_lower_bound(&SIX[0], false), Some(20_000 * 165));
        assert_eq!(flat_lower_bound(&SIX[3], false), None);
    }
}
