//! Hand-rolled JSONL codec for the serve protocol.
//!
//! The workspace is offline (no serde); the serve wire format is one JSON
//! object per line, so a tiny recursive-descent parser plus an object
//! writer built on [`fm_telemetry::json`]'s escaping covers everything the
//! protocol needs. Numbers are held as `f64` — protocol fields are small
//! integers and counts, all exactly representable.

use fm_telemetry::json::{json_f64, json_key, json_str};
use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep sorted key order (`BTreeMap`) so that
/// re-serialisation is canonical.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Lossless only for integers up to 2^53 — fine for ids and counts.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as u64)
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().filter(|n| n.fract() == 0.0).map(|n| n as i64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Canonical single-line serialisation: object keys come out in
    /// `BTreeMap` order, integers (|n| <= 2^53, zero fraction) print
    /// without a fractional part, and non-finite numbers — which no
    /// protocol path produces — degrade to `null` rather than emitting
    /// invalid JSON. Parsing the output yields an equal [`Json`], so the
    /// serialisation is stable under round-trips and safe to fingerprint.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // The exporters' six decimals would not parse back equal, and
            // this text is fingerprinted: a fraction keeps every digit.
            Json::Num(n) if n.is_finite() && n.fract() != 0.0 => out.push_str(&format!("{n}")),
            Json::Num(n) => json_f64(out, *n),
            Json::Str(s) => json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json_key(out, k);
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One framing decision from [`read_frame`].
#[derive(Debug)]
pub enum Frame {
    /// A complete line (newline stripped, CR stripped, lossy UTF-8).
    Line(String),
    /// The line exceeded `limit` bytes. The frame has been consumed
    /// through its terminating newline (or EOF), so the caller can reply
    /// with a structured error and keep reading subsequent frames.
    TooLong { limit: usize },
    /// End of stream with no pending bytes.
    Eof,
}

/// Read one newline-delimited frame, holding at most `limit` bytes in
/// memory. Oversized frames are drained (not buffered) through their
/// newline and reported as [`Frame::TooLong`] — a hostile client cannot
/// balloon server memory or desynchronise the stream. Read timeouts
/// (`WouldBlock`/`TimedOut`) surface as errors for the caller to map to
/// an idle-timeout reply.
pub fn read_frame(reader: &mut impl std::io::BufRead, limit: usize) -> std::io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF: a partial trailing line still counts as a frame.
            return Ok(if overflow {
                Frame::TooLong { limit }
            } else if buf.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow {
                    buf.extend_from_slice(&chunk[..pos]);
                    if buf.len() > limit {
                        overflow = true;
                    }
                }
                reader.consume(pos + 1);
                if overflow {
                    return Ok(Frame::TooLong { limit });
                }
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(Frame::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                if !overflow {
                    buf.extend_from_slice(chunk);
                }
                let n = chunk.len();
                reader.consume(n);
                if buf.len() > limit {
                    overflow = true;
                    buf = Vec::new(); // release the oversized buffer early
                }
            }
        }
    }
}

/// Maximum container nesting depth [`parse`] accepts. The parser is
/// recursive-descent, so unbounded nesting is unbounded stack — a line of
/// a few hundred thousand `[` chars (well under the request-size cap)
/// would otherwise overflow the stack and abort the process, which
/// `catch_unwind` cannot contain. Protocol payloads nest a handful of
/// levels; 128 is far above any legitimate frame.
pub const MAX_DEPTH: usize = 128;

/// Parse one complete JSON value; trailing non-whitespace is an error
/// (JSONL frames exactly one value per line).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth >= MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the
                            // protocol; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume the whole run of plain chars up to the next
                    // quote or backslash in one UTF-8 validation. Byte-at-
                    // a-time validation of the full remaining input would
                    // be O(n²) — ~seconds of CPU per 1 MiB string, a
                    // hostile-client DoS under the default frame cap.
                    let rest = &self.bytes[self.pos..];
                    let run =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let text = std::str::from_utf8(&rest[..run])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}'"))
    }
}

/// Incremental writer for one JSON object (no trailing newline — the
/// JSONL framing layer appends it).
#[derive(Default)]
pub struct ObjWriter {
    buf: String,
    any: bool,
}

impl ObjWriter {
    pub fn new() -> ObjWriter {
        ObjWriter { buf: String::from("{"), any: false }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        json_key(&mut self.buf, key);
    }

    pub fn str(mut self, key: &str, value: &str) -> ObjWriter {
        self.key(key);
        json_str(&mut self.buf, value);
        self
    }

    pub fn u64(mut self, key: &str, value: u64) -> ObjWriter {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    pub fn i64(mut self, key: &str, value: i64) -> ObjWriter {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> ObjWriter {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Insert pre-serialised JSON (an array or nested object) verbatim.
    pub fn raw(mut self, key: &str, json: &str) -> ObjWriter {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serialise a list of u64s as a JSON array literal (for `raw`).
pub fn u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let line = ObjWriter::new()
            .str("op", "submit")
            .u64("id", 7)
            .i64("priority", -3)
            .bool("resume", true)
            .raw("counts", &u64_array(&[1, 2, 3]))
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("submit"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("priority").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("resume").unwrap().as_bool(), Some(true));
        let counts: Vec<u64> =
            v.get("counts").unwrap().as_arr().unwrap().iter().filter_map(Json::as_u64).collect();
        assert_eq!(counts, [1, 2, 3]);
    }

    #[test]
    fn escapes_survive_round_trip() {
        let ugly = "quote \" slash \\ newline \n tab \t unicode é";
        let line = ObjWriter::new().str("name", ugly).finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some(ugly));
    }

    #[test]
    fn parses_nested_and_rejects_garbage() {
        let v = parse(r#"{"a": {"b": [1, null, false]}, "c": 2.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_f64(), Some(2.5));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
    }

    #[test]
    fn to_jsonl_is_canonical_and_round_trips() {
        let line = r#"{"b":[1,2.5,null,true],"a":{"z":-3,"y":"e\"sc"},"n":9007199254740992}"#;
        let v = parse(line).unwrap();
        let canon = v.to_jsonl();
        // Keys sorted, integers without fraction.
        assert_eq!(
            canon,
            r#"{"a":{"y":"e\"sc","z":-3},"b":[1,2.5,null,true],"n":9007199254740992}"#
        );
        // Stable under a second round-trip.
        assert_eq!(parse(&canon).unwrap().to_jsonl(), canon);
    }

    #[test]
    fn read_frame_splits_caps_and_resyncs() {
        use std::io::BufReader;
        let mut input = Vec::new();
        input.extend_from_slice(b"short\r\n");
        input.extend_from_slice(&[b'x'; 64]);
        input.push(b'\n');
        input.extend_from_slice(b"after");
        let mut r = BufReader::with_capacity(8, &input[..]);
        match read_frame(&mut r, 16).unwrap() {
            Frame::Line(s) => assert_eq!(s, "short"),
            other => panic!("{other:?}"),
        }
        // Oversized frame is reported and drained through its newline…
        assert!(matches!(read_frame(&mut r, 16).unwrap(), Frame::TooLong { limit: 16 }));
        // …so the stream resynchronises on the next frame (EOF-terminated).
        match read_frame(&mut r, 16).unwrap() {
            Frame::Line(s) => assert_eq!(s, "after"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut r, 16).unwrap(), Frame::Eof));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // A pathological frame of ~400k open brackets fits comfortably
        // under the request-size cap; without a depth limit the recursive
        // parser would blow the stack and abort the whole process.
        let bomb = "[".repeat(400_000);
        assert!(parse(&bomb).unwrap_err().contains("nesting deeper than"));
        let obj_bomb = r#"{"a":"#.repeat(200_000);
        assert!(parse(&obj_bomb).unwrap_err().contains("nesting deeper than"));
        // Exactly at the limit parses; one past it does not.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn non_integer_numbers_do_not_masquerade_as_ids() {
        let v = parse(r#"{"id": 1.5, "neg": -2}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-2));
    }
}
