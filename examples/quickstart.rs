//! Quickstart: build a graph, compile a pattern, mine it on both engines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flexminer::{EngineConfig, Miner, Pattern, SimConfig};
use fm_graph::GraphBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small collaboration graph: two triangles sharing an edge, plus a
    // pendant collaborator.
    let graph =
        GraphBuilder::new().edges([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]).build()?;
    println!("graph: {} vertices, {} edges", graph.num_vertices(), graph.num_undirected_edges());

    // 1. Inspect the compiler's execution plan (the paper's Listing-1 IR).
    let job = Miner::new(&graph).pattern(Pattern::triangle());
    println!("\nexecution plan for the triangle:\n{}", job.plan()?);

    // 2. Mine on the software engine (the GraphZero-model CPU baseline).
    let sw = job.clone().run()?;
    println!("software engine: {} triangles", sw.count());

    // 3. Run the same plan on the simulated FlexMiner accelerator and read
    //    its report.
    let report = fm_sim::simulate(&graph, &job.plan()?, &SimConfig::default());
    println!(
        "accelerator: {} triangles in {} cycles ({} PEs, {} NoC requests)",
        report.counts[0],
        report.cycles,
        report.pe_finish_cycles.len(),
        report.noc_traffic(),
    );
    assert_eq!(vec![sw.count()], report.counts);

    // 4. Diamonds, edge-induced, on every host thread.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = EngineConfig::with_threads(threads);
    let diamonds = Miner::new(&graph).pattern(Pattern::diamond()).config(cfg).run()?;
    println!("diamonds: {}", diamonds.count());
    Ok(())
}
