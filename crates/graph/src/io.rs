//! Graph serialization: text edge lists.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use std::io::{BufWriter, ErrorKind, Read, Write};

/// The vertex count [`read_edge_list`] accepts without evidence. Vertex
/// counts size the CSR offsets array: a count up to `PREALLOC_CAP` is
/// always accepted (8 MiB of offsets at most), and beyond that the count —
/// whether it comes from the largest id or from a `# vertices N` header —
/// may not exceed the number of bytes read. An edge line names two ids in
/// at least four bytes, so real files with gaps in their id space stay
/// well inside the bound, while `0 4000000000` is a parse error instead
/// of a 32 GB request.
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
}
