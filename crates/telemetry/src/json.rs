//! The one JSON writer.
//!
//! Every JSON document the workspace emits — the figure tables
//! (`results/*.json`), `--metrics-out`, Chrome traces, progress
//! heartbeats, the `serve` protocol, the job journal and the flight
//! recorder — is written here. A [`Value`] is a slot for exactly one
//! value; an [`Obj`] writes `"key":value` members in call order and an
//! [`Arr`] writes elements, each nested container into its parent's
//! buffer. These types own the separators and the escaping, so no caller
//! pushes JSON punctuation. Output is compact, with no whitespace, and
//! golden tests pin it byte for byte: the `results/` history, the
//! journal's fingerprints and the wire replies must stay comparable across
//! releases.
//!
//! Numbers have three renderings: integers in decimal; [`Value::f64`], the
//! exporters' form ([`json_f64`]); and [`Value::num`], the protocol's
//! round-trip form, which keeps every digit of a fraction so that parsing
//! the text gives back the same `f64`.

use std::fmt::Write;

/// Renders one JSON object whose members `body` writes.
pub fn object(body: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    Value::new(&mut out).obj(body);
    out
}

/// A slot for exactly one JSON value at the end of a buffer.
#[must_use = "a member or element slot left unwritten is invalid JSON"]
pub struct Value<'a>(&'a mut String);

/// A JSON object being written: members in call order.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

/// A JSON array being written.
pub struct Arr<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Value<'a> {
    /// The slot at the end of `out`.
    pub fn new(out: &'a mut String) -> Value<'a> {
        Value(out)
    }

    pub fn null(self) {
        self.0.push_str("null");
    }

    pub fn bool(self, b: bool) {
        self.0.push_str(if b { "true" } else { "false" });
    }

    pub fn u64(self, n: u64) {
        // Writing into a `String` cannot fail.
        let _ = write!(self.0, "{n}");
    }

    pub fn i64(self, n: i64) {
        let _ = write!(self.0, "{n}");
    }

    /// The exporters' rendering ([`json_f64`]).
    pub fn f64(self, v: f64) {
        json_f64(self.0, v);
    }

    /// The round-trip rendering: a fraction keeps every digit (`{v}`),
    /// because the exporters' six decimals would not parse back equal and
    /// the journal fingerprints this text; anything else is [`json_f64`].
    pub fn num(self, v: f64) {
        if v.is_finite() && v.fract() != 0.0 {
            let _ = write!(self.0, "{v}");
        } else {
            json_f64(self.0, v);
        }
    }

    /// A string literal: quotes, backslashes and control characters
    /// escaped per RFC 8259.
    pub fn str(self, s: &str) {
        let out = self.0;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// An object whose members `body` writes.
    pub fn obj(self, body: impl FnOnce(&mut Obj<'_>)) {
        self.0.push('{');
        let mut obj = Obj { out: self.0, empty: true };
        body(&mut obj);
        obj.out.push('}');
    }

    /// An array whose elements `body` writes.
    pub fn arr(self, body: impl FnOnce(&mut Arr<'_>)) {
        self.0.push('[');
        let mut arr = Arr { out: self.0, empty: true };
        body(&mut arr);
        arr.out.push(']');
    }
}

impl Obj<'_> {
    /// The slot for member `key`.
    pub fn field(&mut self, key: &str) -> Value<'_> {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        Value(&mut *self.out).str(key);
        self.out.push(':');
        Value(&mut *self.out)
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.field(key).str(v);
        self
    }

    pub fn u64(&mut self, key: &str, n: u64) -> &mut Self {
        self.field(key).u64(n);
        self
    }

    pub fn i64(&mut self, key: &str, n: i64) -> &mut Self {
        self.field(key).i64(n);
        self
    }

    pub fn bool(&mut self, key: &str, b: bool) -> &mut Self {
        self.field(key).bool(b);
        self
    }

    /// A member in the exporters' number rendering ([`json_f64`]).
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.field(key).f64(v);
        self
    }

    pub fn obj(&mut self, key: &str, body: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.field(key).obj(body);
        self
    }

    pub fn arr(&mut self, key: &str, body: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        self.field(key).arr(body);
        self
    }
}

impl Arr<'_> {
    /// The slot for the next element.
    pub fn item(&mut self) -> Value<'_> {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        Value(&mut *self.out)
    }
}

/// Appends an `f64` the way the exporters format numbers: integral values
/// below 9·10¹⁵ print without a fraction (`3`, not `3.0`); everything else
/// prints with six decimal places, trailing zeros dropped — places, not
/// significant digits, so `1.5e-7` prints as `0`; non-finite values become
/// `null` (JSON has no NaN/Inf). The Prometheus encoder shares it, reading
/// `null` as `NaN`.
pub fn json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let s = format!("{v:.6}");
        out.push_str(s.trim_end_matches('0').trim_end_matches('.'));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(f: impl FnOnce(Value<'_>)) -> String {
        let mut s = String::new();
        f(Value::new(&mut s));
        s
    }

    #[test]
    fn escapes_match_rfc8259() {
        assert_eq!(render(|v| v.str("a\"b\\c\nd\te\r")), r#""a\"b\\c\nd\te\r""#);
        assert_eq!(render(|v| v.str("\u{1}")), "\"\\u0001\"");
        assert_eq!(render(|v| v.str("plain")), "\"plain\"");
    }

    #[test]
    fn containers_own_their_separators_and_keep_call_order() {
        let doc = object(|o| {
            o.str("z\"", "x").u64("a", 7).i64("n", -2).bool("t", true);
            o.obj("empty", |_| {}).arr("none", |_| {});
            o.arr("mixed", |a| {
                a.item().null();
                a.item().arr(|a| a.item().str("in"));
                a.item().obj(|o| {
                    o.f64("f", 0.5);
                });
                a.item().num(0.1);
            });
        });
        assert_eq!(
            doc,
            r#"{"z\"":"x","a":7,"n":-2,"t":true,"empty":{},"none":[],"mixed":[null,["in"],{"f":0.5},0.1]}"#
        );
    }

    #[test]
    fn f64_formatting_is_stable() {
        assert_eq!(render(|v| v.f64(3.0)), "3");
        assert_eq!(render(|v| v.f64(-2.0)), "-2");
        assert_eq!(render(|v| v.f64(0.5)), "0.5");
        assert_eq!(render(|v| v.f64(1.25)), "1.25");
        // Six decimal places, not six significant digits.
        assert_eq!(render(|v| v.f64(1.5e-7)), "0");
        assert_eq!(render(|v| v.f64(2.0 / 3.0)), "0.666667");
        assert_eq!(render(|v| v.f64(f64::NAN)), "null");
        assert_eq!(render(|v| v.f64(f64::INFINITY)), "null");
    }

    #[test]
    fn num_keeps_every_digit_of_a_fraction() {
        assert_eq!(render(|v| v.num(1.5e-7)), "0.00000015");
        assert_eq!(render(|v| v.num(2.0 / 3.0)), "0.6666666666666666");
        assert_eq!(render(|v| v.num(2f64.powi(53))), "9007199254740992");
        assert_eq!(render(|v| v.num(f64::NAN)), "null");
    }
}
