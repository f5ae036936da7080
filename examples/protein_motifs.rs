//! Motif census of a synthetic protein-interaction network.
//!
//! The paper motivates GPM with bioinformatics: "GPM is used to predict
//! the functionality of a new protein in a protein-protein interaction
//! network [...] by mining frequent subgraphs with similar interactions"
//! (§I). This example builds a PPI-like graph (power-law with triadic
//! closure — protein complexes cluster) and runs 3- and 4-motif counting,
//! the graphlet-degree analysis used in network biology.
//!
//! ```sh
//! cargo run --release --example protein_motifs
//! ```

use flexminer::apps::motif_census;
use flexminer::EngineConfig;
use fm_graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ~2.4k proteins, clustered interactions (complexes), a few promiscuous
    // hub proteins (chaperones).
    let body = generators::powerlaw_cluster(2_400, 5, 0.65, 2026);
    let ppi = generators::attach_hubs(&body, 4, 200, 7);
    println!(
        "synthetic PPI network: {} proteins, {} interactions, max degree {}",
        ppi.num_vertices(),
        ppi.num_undirected_edges(),
        ppi.max_degree()
    );

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for k in [3usize, 4] {
        let census = motif_census(&ppi, k, EngineConfig::with_threads(threads))?;
        let total: u64 = census.iter().map(|(_, c)| c).sum();
        println!("\n{k}-motif census ({total} induced subgraphs):");
        for (name, count) in &census {
            let share = 100.0 * *count as f64 / total.max(1) as f64;
            println!("  {name:<16} {count:>12}  ({share:5.2}%)");
        }
    }

    println!(
        "\nclustered PPI networks are triangle-rich: the triangle/wedge ratio \
         here is the global clustering signal used to separate complexes \
         from spurious interactions."
    );
    Ok(())
}
