//! Graph serialization: text edge lists.

use crate::builder::{assemble, assembly_workers, cores};
use crate::csr::CsrGraph;
use crate::error::GraphError;
use std::io::{BufWriter, Read, Write};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

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
/// hold any bytes. The input is read in 1 MiB blocks of whole lines and
/// parsed as bytes: it is never held whole, and a line longer than a block
/// is an error.
///
/// The calling thread reads; one scoped worker per core takes blocks from
/// a bounded queue and parses each into an edge list of its own, and the
/// lists are assembled into the CSR as they are (see
/// [`GraphBuilder::build`](crate::GraphBuilder::build)). Line counts,
/// vertex counts and errors are merged in block order, so the graph, every
/// error and every line number are those of a parse from the first line
/// to the last. An input of one block starts no thread.
///
/// A mutable reference can be passed for `reader` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed lines and for a vertex count
/// the input is too small to justify, and [`GraphError::Io`] for underlying
/// IO failures.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    read_blocks(reader, BLOCK, cores)
}

/// [`read_edge_list`] over blocks of `block` bytes, parsed and assembled
/// by `workers()` threads (one: the calling thread alone). An input of one
/// block asks for no workers: it is read, parsed and assembled on the
/// calling thread.
pub(crate) fn read_blocks<R: Read>(
    reader: R,
    block: usize,
    workers: impl FnOnce() -> usize,
) -> Result<CsrGraph, GraphError> {
    let mut blocks = Blocks { reader, block, carry: Vec::new(), total: 0, done: false };
    let mut parsed = Vec::new();
    let mut next = blocks.next(Vec::new());
    let workers = if blocks.done { 1 } else { workers() };
    if workers <= 1 {
        while let Some(block) = next {
            let (lines, error, buf) = block.parse();
            let failed = error.is_some();
            parsed.push((lines, error));
            next = if failed { None } else { blocks.next(buf) };
        }
    } else {
        let (work, queue) = mpsc::sync_channel::<(usize, Block)>(workers);
        let queue = Mutex::new(queue);
        // Parsed blocks' buffers come back to the reader: fresh buffers
        // left `cli-load`'s peak RSS 4.6 MB higher at the same speed.
        let (recycle, spare) = mpsc::channel();
        // Only tells the reader to stop early: the results themselves come
        // back through `join`.
        let failed = AtomicBool::new(false);
        let mut numbered = std::thread::scope(|s| {
            let parsers: Vec<_> = (0..workers)
                .map(|_| {
                    let (queue, recycle, failed) = (&queue, recycle.clone(), &failed);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // The lock is held only while waiting for a block.
                            let job = queue.lock().expect("block queue lock poisoned").recv();
                            let Ok((at, block)) = job else { return out };
                            let (lines, error, buf) = block.parse();
                            if error.is_some() {
                                failed.store(true, Ordering::Relaxed);
                            }
                            let _ = recycle.send(buf);
                            out.push((at, lines, error));
                        }
                    })
                })
                .collect();
            let mut at = 0;
            // After a failure only earlier blocks matter, and they are all
            // queued already.
            while let Some(block) = next.take().filter(|_| !failed.load(Ordering::Relaxed)) {
                if work.send((at, block)).is_err() {
                    break; // every parser is gone: its panic is raised below
                }
                at += 1;
                next = blocks.next(spare.try_recv().unwrap_or_default());
            }
            drop(work);
            let joined = parsers.into_iter().map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)));
            joined.flatten().collect::<Vec<_>>()
        });
        numbered.sort_unstable_by_key(|&(at, ..)| at);
        parsed.extend(numbered.into_iter().map(|(_, lines, error)| (lines, error)));
    }

    // Block order: the first error wins, line numbers continue across
    // blocks and the vertex count is raised by the earliest line that
    // reaches it.
    let (mut line, mut vertices, mut vertices_line) = (0, 0, 0);
    let mut lists = Vec::with_capacity(parsed.len());
    for (lines, error) in parsed {
        if let Some(mut error) = error {
            if let GraphError::Parse { line: at, .. } = &mut error {
                *at += line;
            }
            return Err(error);
        }
        if lines.vertices > vertices {
            (vertices, vertices_line) = (lines.vertices, line + lines.vertices_line);
        }
        line += lines.line;
        lists.push(lines.edges);
    }
    let total = blocks.total;
    let limit = PREALLOC_CAP.max(total);
    if vertices > limit {
        return Err(GraphError::Parse {
            line: vertices_line,
            message: format!(
                "{vertices} vertices cannot be justified by {total} bytes of input (limit {limit})"
            ),
        });
    }
    let edges = lists.iter().map(Vec::len).sum();
    assemble(&lists, vertices, assembly_workers(edges, || workers))
}

/// An input cut into runs of whole lines.
struct Blocks<R> {
    reader: R,
    /// Most bytes in one block.
    block: usize,
    /// The unfinished line that ends the bytes read so far.
    carry: Vec<u8>,
    /// Bytes read so far.
    total: usize,
    /// Whether the input is exhausted (or failed).
    done: bool,
}

/// Whole lines of the input, and what stopped it after them.
struct Block {
    bytes: Vec<u8>,
    /// A read error, or a line longer than a block (whose block holds no
    /// bytes, so that line is the block's first).
    tail: Option<GraphError>,
}

impl<R: Read> Blocks<R> {
    /// The next block, read into `buf`; `None` once the input is done.
    fn next(&mut self, mut buf: Vec<u8>) -> Option<Block> {
        if self.done {
            return None;
        }
        buf.clear();
        buf.reserve(self.block);
        buf.append(&mut self.carry);
        let held = buf.len();
        let read = (&mut self.reader).take((self.block - held) as u64).read_to_end(&mut buf);
        self.total += buf.len() - held;
        // The carried bytes hold no newline: only the new ones are searched.
        let end = buf[held..].iter().rposition(|&b| b == b'\n').map(|i| held + i + 1);
        let mut tail = None;
        match read {
            Err(e) => {
                buf.truncate(end.unwrap_or(0));
                tail = Some(e.into());
                self.done = true;
            }
            Ok(_) if buf.len() < self.block => self.done = true,
            Ok(_) => match end {
                Some(end) => {
                    self.carry.extend_from_slice(&buf[end..]);
                    buf.truncate(end);
                }
                None => {
                    buf.clear();
                    let message = format!("line longer than {} bytes", self.block);
                    tail = Some(GraphError::Parse { line: 1, message });
                    self.done = true;
                }
            },
        }
        Some(Block { bytes: buf, tail })
    }
}

impl Block {
    /// Parses the block on its own (line numbers from 1); hands back its
    /// buffer for the next block.
    fn parse(self) -> (LineParser, Option<GraphError>, Vec<u8>) {
        let mut lines = LineParser::default();
        let error = lines.parse(&self.bytes).err().or(self.tail);
        (lines, error, self.bytes)
    }
}

/// The state carried from line to line of an edge list.
#[derive(Default)]
struct LineParser {
    /// The edges read, self loops dropped.
    edges: Vec<(u32, u32)>,
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
            self.edges.push((u, v));
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

    /// Block sizes that cut lines anywhere, and worker counts from the
    /// calling thread alone to more workers than blocks in flight.
    const SHAPES: [(usize, usize); 7] =
        [(24, 1), (24, 2), (24, 4), (37, 2), (37, 4), (64, 4), (BLOCK, 2)];

    /// Comments, blanks, CRLF, duplicates, reversed duplicates and self
    /// loops over a few hundred lines, with a `# vertices` header near the
    /// end.
    fn sample() -> Vec<u8> {
        let mut text = b"# an edge list\r\n\r\n".to_vec();
        for i in 0..400u32 {
            let (u, v) = (i * 7 % 113, i * 11 % 97);
            let end: &[u8] = if i % 3 == 0 { b"\r\n" } else { b"\n" };
            text.extend_from_slice(format!(" {u}\t{v} ").as_bytes());
            text.extend_from_slice(end);
            if i % 50 == 0 {
                text.extend_from_slice(b"# comment \xff\n\n");
            }
        }
        text.extend_from_slice(b"# vertices 150\n5 6");
        text
    }

    /// The error `read_blocks` gives, as text, with its line.
    fn failure(text: &[u8], block: usize, workers: usize) -> (usize, String) {
        match read_blocks(text, block, || workers) {
            Err(e @ GraphError::Parse { line, .. }) => (line, e.to_string()),
            other => {
                panic!("block {block}, {workers} workers: expected a parse error, got {other:?}")
            }
        }
    }

    #[test]
    fn every_block_size_and_worker_count_reads_the_same_graph() {
        let text = sample();
        let want = read_blocks(text.as_slice(), BLOCK, || 1).unwrap();
        assert_eq!(want.num_vertices(), 150, "a header in a later block still counts");
        for (block, workers) in SHAPES {
            assert_eq!(
                read_blocks(text.as_slice(), block, || workers).unwrap(),
                want,
                "{block} {workers}"
            );
        }
    }

    #[test]
    fn the_first_error_in_file_order_wins_with_its_line() {
        let mut text = sample();
        // Line 300-odd is broken, and so is a later one in another block.
        let at = text.iter().enumerate().filter(|&(_, &b)| b == b'\n').nth(299).unwrap().0;
        text.splice(at + 1..at + 1, b"1 x\n".iter().copied());
        text.extend_from_slice(b"\n7 8 9\n");
        let want = failure(&text, BLOCK, 1);
        assert_eq!(want.0, 301);
        for (block, workers) in SHAPES {
            assert_eq!(failure(&text, block, workers), want, "{block} {workers}");
        }
        // A count the input cannot justify is charged to the line that
        // first named it, in whatever block that is.
        let mut text = sample();
        text.extend_from_slice(b"\n# vertices 4000000000\n# vertices 4000000000\n");
        let want = failure(&text, BLOCK, 1);
        for (block, workers) in SHAPES {
            assert_eq!(failure(&text, block, workers), want, "{block} {workers}");
        }
    }

    #[test]
    fn a_line_longer_than_a_block_fails_at_its_line() {
        let mut text = b"0 1\n1 2\n".repeat(20);
        text.extend_from_slice(b"# this comment is longer than the block\n3 4\n");
        for workers in [1, 2, 4] {
            assert_eq!(
                failure(&text, 32, workers),
                (41, "parse error at line 41: line longer than 32 bytes".into())
            );
        }
        assert_eq!(read_blocks(text.as_slice(), 64, || 2).unwrap().num_undirected_edges(), 3);
    }

    /// Hands out its bytes a few at a time, then fails.
    struct Failing<'a>(&'a [u8]);

    impl Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("the disk is gone"));
            }
            let n = buf.len().min(self.0.len()).min(7);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_ranks_after_the_lines_read_before_it() {
        let text = sample();
        for (block, workers) in SHAPES {
            let got = read_blocks(Failing(&text), block, || workers);
            assert!(matches!(got, Err(GraphError::Io(_))), "{block} {workers}: {got:?}");
        }
        let mut broken = b"0 1\n2 three\n".to_vec();
        broken.extend_from_slice(&text);
        for (block, workers) in SHAPES {
            assert_eq!(
                read_blocks(Failing(&broken), block, || workers)
                    .map_err(|e| e.to_string())
                    .unwrap_err(),
                "parse error at line 2: invalid digit found in string"
            );
        }
    }
}
