//! The ingest path end to end: `GraphBuilder::build` against a set-based
//! oracle, the edge-list reader's token grammar and block handling, the
//! writer's byte format, the loader's allocation bound, `orient_by_degree`
//! against the textbook two-pass form, and one pinned checksum per
//! generator kind.

use fm_graph::io::{read_edge_list, write_edge_list};
use fm_graph::{generators, orient_by_degree, CsrGraph, GraphBuilder, GraphError, VertexId};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::Read;

/// One sorted set per vertex: the definition of a simple symmetric graph.
fn oracle(edges: &[(u32, u32)], min_vertices: usize) -> CsrGraph {
    let n = edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0).max(min_vertices);
    let mut rows = vec![BTreeSet::new(); n];
    for &(u, v) in edges {
        if u != v {
            rows[u as usize].insert(VertexId(v));
            rows[v as usize].insert(VertexId(u));
        }
    }
    let mut offsets = vec![0];
    let mut neighbors = Vec::new();
    for row in rows {
        neighbors.extend(row);
        offsets.push(neighbors.len());
    }
    CsrGraph::from_parts(offsets, neighbors).expect("oracle graph is valid")
}

/// Edge multisets with duplicates, reversed duplicates and self loops over
/// a small id range, optionally sorted the way the generators emit them,
/// plus a count of trailing isolated vertices.
fn arb_edges() -> impl Strategy<Value = (Vec<(u32, u32)>, usize)> {
    (prop::collection::vec((0u32..40, 0u32..40), 0..200), any::<bool>(), 0usize..60).prop_map(
        |(mut edges, ordered, min_vertices)| {
            if ordered {
                for e in &mut edges {
                    *e = (e.0.min(e.1), e.0.max(e.1));
                }
                edges.sort_unstable();
            }
            (edges, min_vertices)
        },
    )
}

proptest! {
    #[test]
    fn builder_equals_the_set_oracle((edges, min_vertices) in arb_edges()) {
        let built = GraphBuilder::new().edges(edges.iter().copied()).vertices(min_vertices).build();
        let built = built.expect("builder output validates");
        prop_assert_eq!(&built, &oracle(&edges, min_vertices));
        prop_assert!(built.is_symmetric());
    }

    #[test]
    fn edge_list_round_trips((edges, min_vertices) in arb_edges()) {
        let g = oracle(&edges, min_vertices);
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).expect("write to a vec");
        prop_assert_eq!(&read_edge_list(text.as_slice()).expect("own output parses"), &g);
        // The same bytes arriving a few at a time: every line straddles reads.
        prop_assert_eq!(&read_edge_list(Trickle(&text, 5)).expect("own output parses"), &g);
    }
}

/// A reader that hands out at most `.1` bytes per call.
struct Trickle<'a>(&'a [u8], usize);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.1.min(buf.len()).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

fn edges_of(text: &[u8]) -> Result<Vec<(u32, u32)>, GraphError> {
    let g = read_edge_list(text)?;
    assert_eq!(read_edge_list(Trickle(text, 3))?, g, "chunking changed the result");
    Ok(g.undirected_edges().map(|(u, v)| (u.0, v.0)).collect())
}

#[test]
fn accepted_token_grammar() {
    type Edges = [(u32, u32)];
    let accepted: &[(&[u8], &Edges)] = &[
        (b"7 8\n", &[(7, 8)]),
        (b"007 8\n", &[(7, 8)]),
        (b"+7 +8\n", &[(7, 8)]),
        (b"7\t8\n", &[(7, 8)]),
        (b"7 \t  8\n", &[(7, 8)]),
        (b"7 8\r\n9 10\r\n", &[(7, 8), (9, 10)]),
        (b"  7 8  \n", &[(7, 8)]),
        (b"\n\n7 8\n   \n", &[(7, 8)]),
        (b"# c\xff\xfe not utf-8\n7 8\n  # indented comment\n", &[(7, 8)]),
        (b"#\n7 8", &[(7, 8)]),
        (b"1 2\n7 8", &[(1, 2), (7, 8)]),
        (b"8 7\n7 8\n7 7\n", &[(7, 8)]),
        (b"", &[]),
        (b"\n", &[]),
    ];
    for (text, want) in accepted {
        let got = edges_of(text).unwrap_or_else(|e| panic!("{:?}: {e}", text.escape_ascii()));
        assert_eq!(&got, want, "{:?}", text.escape_ascii().to_string());
    }
}

#[test]
fn rejected_tokens_carry_their_line_number() {
    let rejected: &[(&[u8], usize)] = &[
        (b"-1 2\n", 1),
        (b"1 -2\n", 1),
        (b"1.0 2\n", 1),
        (b"1 2.0\n", 1),
        (b"0x10 2\n", 1),
        (b"4294967296 1\n", 1),
        (b"1 99999999999999999999999\n", 1),
        (b"+ 1\n", 1),
        (b"1 2x\n", 1),
        (b"1\n", 1),
        (b"1 2 3\n", 1),
        (b"1 2 # not a comment here\n", 1),
        (b"# header\n\n0 1\n1 2\nx y\n", 5),
        (b"0 1\r\n1\r\n", 2),
        (b"0 1\n1 2\n3", 3),
    ];
    for (text, line) in rejected {
        match edges_of(text) {
            Err(GraphError::Parse { line: got, .. }) => {
                assert_eq!(got, *line, "{:?}", text.escape_ascii().to_string())
            }
            other => panic!("{:?}: expected a parse error, got {other:?}", text.escape_ascii()),
        }
    }
}

#[test]
fn largest_id_is_accepted_as_a_token_but_not_as_a_graph() {
    // `4294967295` parses; the graph it implies has 2³² vertices, which
    // this input cannot justify.
    assert!(matches!(
        read_edge_list(&b"0 4294967295\n"[..]),
        Err(GraphError::Parse { line: 1, .. })
    ));
}

/// Enough `0 1` lines to push what follows past any block size the reader
/// could reasonably use.
fn padding() -> (Vec<u8>, usize) {
    let lines = 1 << 20;
    (b"0 1\n".repeat(lines), lines)
}

#[test]
fn errors_and_headers_after_a_block_boundary() {
    let (mut text, lines) = padding();
    text.extend_from_slice(b"# vertices 9\n2 3\n");
    let g = read_edge_list(text.as_slice()).expect("valid input");
    assert_eq!((g.num_vertices(), g.num_undirected_edges()), (9, 2));

    text.extend_from_slice(b"4 five\n");
    match read_edge_list(text.as_slice()) {
        Err(GraphError::Parse { line, .. }) => assert_eq!(line, lines + 3),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn vertex_counts_the_input_cannot_justify_are_errors_not_allocations() {
    for text in
        [&b"0 4000000000\n"[..], b"# vertices 4000000000\n0 1\n", b"0 1\n# vertices 4000000000"]
    {
        match read_edge_list(text) {
            Err(GraphError::Parse { message, .. }) => {
                assert!(
                    message.contains("4000000000") || message.contains("4000000001"),
                    "{message}"
                )
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    // Sparse ids and isolated tails within the bound still load.
    let g = read_edge_list(&b"# vertices 1000000\n0 999\n"[..]).expect("within the bound");
    assert_eq!(g.num_vertices(), 1_000_000);
    // Beyond the fixed allowance the count has to be backed by bytes.
    let (mut text, _) = padding();
    text.extend_from_slice(b"# vertices 3000000\n");
    assert_eq!(read_edge_list(text.as_slice()).expect("4 MiB of input").num_vertices(), 3_000_000);
}

#[test]
fn over_long_lines_are_rejected() {
    let mut text = b"0 1\n# ".to_vec();
    text.resize(8 << 20, b'x');
    assert!(matches!(read_edge_list(text.as_slice()), Err(GraphError::Parse { line: 2, .. })));
}

#[test]
fn writer_output_is_byte_identical_to_display_formatting() {
    use std::fmt::Write;
    let body = generators::powerlaw_cluster(3_000, 3, 0.4, 5);
    // Shuffled so ids of every width appear on both sides of a line.
    let g = generators::shuffle_ids(&generators::attach_hubs(&body, 2, 900, 6), 7);
    let mut want = format!("# vertices {}\n", g.num_vertices());
    for (u, v) in g.undirected_edges() {
        writeln!(want, "{} {}", u.0, v.0).expect("write to a string");
    }
    let mut got = Vec::new();
    write_edge_list(&g, &mut got).expect("write to a vec");
    assert!(got == want.as_bytes(), "writer output differs from `{{}} {{}}` formatting");

    let wide = GraphBuilder::new().edge(0, 1_999_999).edge(123_456, 7).build().expect("valid");
    let mut got = Vec::new();
    write_edge_list(&wide, &mut got).expect("write to a vec");
    assert_eq!(String::from_utf8(got).expect("ascii"), "# vertices 2000000\n0 1999999\n7 123456\n");
}

/// The two-pass `(degree, id)` orientation, validated by `from_parts`.
fn orient_reference(g: &CsrGraph) -> CsrGraph {
    let rank = |v: VertexId| (g.degree(v), v);
    let mut offsets = vec![0usize];
    let mut neighbors = Vec::new();
    for u in g.vertices() {
        neighbors.extend(g.neighbors(u).iter().copied().filter(|&v| rank(u) < rank(v)));
        offsets.push(neighbors.len());
    }
    CsrGraph::from_parts(offsets, neighbors).expect("orientation of a valid graph is valid")
}

#[test]
fn orientation_matches_the_reference_on_the_generator_zoo() {
    let zoo = [
        generators::powerlaw_cluster(2_000, 5, 0.5, 3),
        generators::caveman(40, 9, 120, 4),
        generators::star(300),
        generators::complete(30),
        generators::shuffle_ids(&generators::preferential_attachment(1_500, 4, 8), 9),
        GraphBuilder::new().build().expect("empty graph"),
        GraphBuilder::new().vertices(17).build().expect("isolated vertices"),
        // An already oriented (asymmetric) input.
        orient_by_degree(&generators::erdos_renyi(80, 0.2, 5)),
    ];
    for g in &zoo {
        assert_eq!(orient_by_degree(g), orient_reference(g));
    }
}

fn checksum(g: &CsrGraph) -> u64 {
    let words =
        g.offsets().iter().map(|&o| o as u64).chain(g.neighbor_array().iter().map(|v| v.0 as u64));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One spec of each kind, pinned at the commit before the counting-sort
/// build: the same `(kind, params, seed)` must keep producing the same
/// graph, or every reference count in the benchmark moves.
#[test]
fn generators_are_pinned_per_seed() {
    let body = generators::powerlaw_cluster(4_000, 6, 0.4, 21);
    let pinned: [(&str, CsrGraph, u64); 12] = [
        ("complete", generators::complete(40), 0x205b_458c_7905_5b27),
        ("complete_bipartite", generators::complete_bipartite(17, 23), 0xaaad_d17b_b491_af87),
        ("cycle", generators::cycle(1_000), 0x680c_e714_281f_b8c3),
        ("path", generators::path(1_000), 0x2b5a_3413_c116_d6d1),
        ("star", generators::star(1_000), 0x982e_c4f3_d5e0_2605),
        ("grid", generators::grid(37, 29), 0x816d_0c1c_0393_9091),
        ("erdos_renyi", generators::erdos_renyi(400, 0.05, 11), 0xee53_a3e1_9d7f_75cb),
        (
            "preferential_attachment",
            generators::preferential_attachment(5_000, 4, 12),
            0xf586_43e0_61ae_a265,
        ),
        ("powerlaw_cluster", body.clone(), 0xdb79_b949_52f4_2339),
        ("attach_hubs", generators::attach_hubs(&body, 5, 600, 22), 0xa612_396a_d00a_33fb),
        ("caveman", generators::caveman(300, 11, 1_500, 13), 0x7735_607e_e228_7755),
        ("shuffle_ids", generators::shuffle_ids(&body, 23), 0x42d4_0025_b160_82d3),
    ];
    let moved: Vec<String> = pinned
        .iter()
        .filter(|(_, g, want)| checksum(g) != *want)
        .map(|(kind, g, _)| format!("{kind}: {:#018x}", checksum(g)))
        .collect();
    assert!(moved.is_empty(), "generator output moved: {moved:#?}");
}
