//! Graph serialization: text edge lists and a compact binary CSR format.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::vertex::VertexId;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};

/// Magic bytes identifying the binary CSR format.
const CSR_MAGIC: &[u8; 8] = b"FMCSR\x01\x00\x00";

/// Elements preallocated up front when reading untrusted length headers.
/// Anything larger grows on demand as real data actually arrives, so a
/// 16-byte file declaring 2⁶⁴ vertices cannot request terabytes.
///
/// [`read_edge_list`] takes the same stance on vertex counts, which size
/// the CSR offsets array: a count up to `PREALLOC_CAP` is always accepted
/// (8 MiB of offsets at most), and beyond that the count — whether it comes
/// from the largest id or from a `# vertices N` header — may not exceed the
/// number of bytes read. An edge line names two ids in at least four
/// bytes, so real files with gaps in their id space stay well inside the
/// bound, while `0 4000000000` is a parse error instead of a 32 GB request.
const PREALLOC_CAP: usize = 1 << 20;

/// Bytes requested from the reader at a time, and so also the longest
/// line [`read_edge_list`] accepts.
const BLOCK: usize = 1 << 20;

/// Reads a whitespace-separated edge list (`u v` per line, `#`-prefixed
/// comments and blank lines ignored) and builds a simple symmetric graph.
///
/// This is the SNAP text format the paper's datasets ship in; self loops and
/// duplicates in the input are cleaned up, matching the paper's preprocessed
/// inputs. A `# vertices N` comment (as written by [`write_edge_list`])
/// fixes the vertex count, preserving trailing isolated vertices.
///
/// Grammar, per `\n`-terminated line (the last line may lack its `\n`):
/// blanks (space, tab, CR, FF) may surround and separate tokens; an id is
/// an optional `+` and one or more ASCII digits with a value below 2³²
/// (`007` is 7; no sign, radix prefix or fraction); a data line is exactly
/// two ids; a line whose first non-blank byte is `#` is a comment and may
/// hold any bytes. The input is read in 1 MiB blocks and parsed as bytes: it
/// is never held whole, and a line longer than a block is an error.
///
/// A mutable reference can be passed for `reader` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed lines and for a vertex count
/// the input is too small to justify, and [`GraphError::Io`] for underlying
/// IO failures.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut lines = LineParser::default();
    let mut buf = vec![0u8; BLOCK];
    // Bytes of an unfinished line carried at the front of `buf`.
    let mut held = 0;
    let mut total = 0usize;
    while held < buf.len() {
        let got = match reader.read(&mut buf[held..]) {
            Ok(0) => break,
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        total += got;
        let filled = held + got;
        // The carried bytes were already searched: only the new ones can
        // hold a newline.
        held = match buf[held..filled].iter().rposition(|&b| b == b'\n') {
            Some(i) => {
                let complete = held + i + 1;
                lines.parse(&buf[..complete])?;
                buf.copy_within(complete..filled, 0);
                filled - complete
            }
            None => filled,
        };
    }
    if held == buf.len() {
        let message = format!("line longer than {BLOCK} bytes");
        return Err(GraphError::Parse { line: lines.line + 1, message });
    }
    lines.parse(&buf[..held])?;

    let limit = PREALLOC_CAP.max(total);
    if lines.vertices > limit {
        return Err(GraphError::Parse {
            line: lines.vertices_line,
            message: format!(
                "{} vertices cannot be justified by {total} bytes of input (limit {limit})",
                lines.vertices
            ),
        });
    }
    lines.builder.vertices(lines.vertices).build()
}

/// The state carried from line to line of an edge list.
#[derive(Default)]
struct LineParser {
    builder: GraphBuilder,
    /// Lines seen so far; the 1-based number of the line being parsed.
    line: usize,
    /// Vertex count implied so far (largest id + 1, or a `# vertices N`
    /// header) and the line that raised it to that.
    vertices: usize,
    vertices_line: usize,
}

impl LineParser {
    /// Parses whole lines; only the last may lack its newline.
    fn parse(&mut self, mut text: &[u8]) -> Result<(), GraphError> {
        while !text.is_empty() {
            self.line += 1;
            text = self.parse_line(text).map_err(|message| GraphError::Parse {
                line: self.line,
                message: message.into(),
            })?;
        }
        Ok(())
    }

    /// Parses the line `text` starts with; returns what follows it.
    fn parse_line<'a>(&mut self, text: &'a [u8]) -> Result<&'a [u8], &'static str> {
        let text = skip_blanks(text);
        if let Some(next) = after_end_of_line(text) {
            return Ok(next);
        }
        if text[0] == b'#' {
            let end = text.iter().position(|&b| b == b'\n').unwrap_or(text.len());
            let header = text[..end].strip_prefix(b"# vertices ");
            let count = header.and_then(|n| std::str::from_utf8(n).ok()?.trim().parse().ok());
            if let Some(n) = count {
                self.need(n);
            }
            return Ok(after_end_of_line(&text[end..]).expect("stopped at a line end"));
        }
        let (u, text) = vertex_id(text)?;
        let text = skip_blanks(text);
        if after_end_of_line(text).is_some() {
            return Err("expected two vertex ids");
        }
        let (v, text) = vertex_id(text)?;
        let next = after_end_of_line(skip_blanks(text)).ok_or("trailing tokens after edge")?;
        // Self loops are dropped and name no vertex.
        if u != v {
            self.builder.push(u, v);
            self.need(u.max(v) as usize + 1);
        }
        Ok(next)
    }

    fn need(&mut self, vertices: usize) {
        if vertices > self.vertices {
            self.vertices = vertices;
            self.vertices_line = self.line;
        }
    }
}

/// Drops the blanks (space, tab, CR, FF — not newline) `text` starts with.
fn skip_blanks(text: &[u8]) -> &[u8] {
    let blanks = text.iter().take_while(|&&b| b != b'\n' && b.is_ascii_whitespace()).count();
    &text[blanks..]
}

/// If `text` is at the end of a line (a newline, or the end of the input),
/// what follows that line.
fn after_end_of_line(text: &[u8]) -> Option<&[u8]> {
    match text.first() {
        None => Some(text),
        Some(b'\n') => Some(&text[1..]),
        Some(_) => None,
    }
}

/// Splits a leading id off `text`: an optional `+`, then digits up to the
/// next blank or line end — what `str::parse::<u32>` accepts, with its
/// error messages.
fn vertex_id(text: &[u8]) -> Result<(u32, &[u8]), &'static str> {
    let digits = text.strip_prefix(b"+").unwrap_or(text);
    let mut value = 0u64;
    let mut len = 0;
    while let Some(&b) = digits.get(len).filter(|b| !b.is_ascii_whitespace()) {
        if !b.is_ascii_digit() {
            return Err("invalid digit found in string");
        }
        value = value * 10 + u64::from(b - b'0');
        if value > u64::from(u32::MAX) {
            return Err("number too large to fit in target type");
        }
        len += 1;
    }
    if len == 0 {
        return Err("invalid digit found in string");
    }
    Ok((value as u32, &digits[len..]))
}

/// Writes a `# vertices N` header followed by each undirected edge as a
/// `u v` line.
///
/// # Errors
///
/// Propagates IO failures from `writer`.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::with_capacity(1 << 16, writer);
    writeln!(w, "# vertices {}", g.num_vertices())?;
    // Two ten-digit ids, a space and a newline, filled from the back.
    let mut line = [0u8; 22];
    for (u, v) in g.undirected_edges() {
        let mut at = line.len() - 1;
        line[at] = b'\n';
        at = put_decimal(&mut line, at, v.0) - 1;
        line[at] = b' ';
        at = put_decimal(&mut line, at, u.0);
        w.write_all(&line[at..])?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `x` in decimal so that it ends just before `buf[end]`; returns
/// the index of its first digit.
fn put_decimal(buf: &mut [u8], mut end: usize, mut x: u32) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            return end;
        }
    }
}

/// Writes the graph in the compact binary CSR format (little-endian):
/// magic, `u64` vertex count, `u64` adjacency length, `u64` offsets,
/// `u32` neighbor ids.
///
/// # Errors
///
/// Propagates IO failures from `writer`.
pub fn write_csr<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(CSR_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_directed_edges() as u64).to_le_bytes())?;
    for &off in g.offsets() {
        w.write_all(&(off as u64).to_le_bytes())?;
    }
    for &v in g.neighbor_array() {
        w.write_all(&v.0.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a graph previously written by [`write_csr`], re-validating all CSR
/// invariants.
///
/// The header's length fields are untrusted: implausible values are
/// rejected up front, and buffer preallocation is capped, so a tiny
/// malformed file cannot trigger a huge allocation.
///
/// # Errors
///
/// Returns [`GraphError::BadFormat`] on a bad magic or implausible header,
/// [`GraphError::Io`] on a truncated stream, and any validation error from
/// [`CsrGraph::from_parts`].
pub fn read_csr<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != CSR_MAGIC {
        return Err(GraphError::BadFormat("bad csr magic".into()));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n64 = u64::from_le_bytes(buf8);
    r.read_exact(&mut buf8)?;
    let m64 = u64::from_le_bytes(buf8);
    // Vertex ids are 32-bit, and a simple graph has < n² directed edges;
    // headers beyond either bound cannot describe a valid graph.
    if n64 > u32::MAX as u64 + 1 {
        return Err(GraphError::BadFormat(format!(
            "declared vertex count {n64} exceeds the 32-bit id space"
        )));
    }
    if u128::from(m64) > u128::from(n64) * u128::from(n64.saturating_sub(1)) {
        return Err(GraphError::BadFormat(format!(
            "declared edge count {m64} is impossible for {n64} vertices"
        )));
    }
    let (n, m) = (n64 as usize, m64 as usize);
    let mut offsets = Vec::with_capacity((n + 1).min(PREALLOC_CAP));
    for _ in 0..=n {
        r.read_exact(&mut buf8)?;
        offsets.push(u64::from_le_bytes(buf8) as usize);
    }
    let mut neighbors = Vec::with_capacity(m.min(PREALLOC_CAP));
    let mut buf4 = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut buf4)?;
        neighbors.push(VertexId(u32::from_le_bytes(buf4)));
    }
    CsrGraph::from_parts(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_round_trip() {
        let g = generators::erdos_renyi(40, 0.15, 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_ignores_comments_and_blanks() {
        let text = "# snap-style header\n\n0 1\n 1 2 \n# done\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_undirected_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(read_edge_list("0 x".as_bytes()), Err(GraphError::Parse { line: 1, .. })));
        assert!(matches!(read_edge_list("0".as_bytes()), Err(GraphError::Parse { line: 1, .. })));
        assert!(matches!(
            read_edge_list("0 1 2\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn edge_list_cleans_self_loops_and_duplicates() {
        let g = read_edge_list("0 0\n0 1\n1 0\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_undirected_edges(), 1);
    }

    #[test]
    fn binary_csr_round_trip() {
        let g = generators::preferential_attachment(120, 3, 77);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn binary_csr_rejects_bad_magic() {
        let err = read_csr(&b"NOTACSR!rest"[..]).unwrap_err();
        assert!(matches!(err, GraphError::BadFormat(_)));
        assert!(err.to_string().contains("bad csr magic"));
    }

    #[test]
    fn binary_csr_rejects_truncation() {
        let g = generators::complete(4);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_csr(buf.as_slice()), Err(GraphError::Io(_))));
    }

    /// Regression: a 24-byte file declaring absurd lengths must fail fast
    /// with a format error — not attempt a multi-terabyte preallocation.
    #[test]
    fn binary_csr_huge_declared_counts_do_not_preallocate() {
        let mut buf = Vec::new();
        buf.extend_from_slice(CSR_MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&0u64.to_le_bytes()); // m
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::BadFormat(_)), "{err}");
        assert!(err.to_string().contains("vertex count"));

        // Plausible n, impossible m for a simple graph.
        let mut buf = Vec::new();
        buf.extend_from_slice(CSR_MAGIC);
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::BadFormat(_)), "{err}");
        assert!(err.to_string().contains("edge count"));

        // In-bounds header lengths with no data behind them: preallocation
        // is capped, so this hits EOF instead of exhausting memory.
        let mut buf = Vec::new();
        buf.extend_from_slice(CSR_MAGIC);
        buf.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(read_csr(buf.as_slice()), Err(GraphError::Io(_))));
    }
}
