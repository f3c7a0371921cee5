//! Hand-rolled JSON writing and parsing (the workspace carries no serde).
//!
//! [`JsonObj`] is the single object writer shared by every structured sink
//! in the repo: JSONL trace events, the run-summary table, the Chrome-trace
//! exporter and `hero-bench`'s `BenchRow` serialization all build their
//! rows through it, so escaping and number formatting have exactly one
//! implementation. [`parse`] is the matching reader used by round-trip
//! tests and by tools that post-process `results/TRACE_*.jsonl`.

use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Inf, and a NaN probe value is real data here — e.g. an
/// epoch whose test set was not evaluated).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them numeric but
        // unambiguous for readers that distinguish int/float.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Incremental writer for one JSON object.
///
/// # Examples
///
/// ```
/// use hero_obs::json::JsonObj;
///
/// let mut o = JsonObj::new();
/// o.str("ev", "epoch").u64("epoch", 3).f64("loss", 0.25);
/// assert_eq!(o.finish(), r#"{"ev": "epoch", "epoch": 3, "loss": 0.25}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
    any: bool,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) -> &mut Self {
        if self.any {
            self.buf.push_str(", ");
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\": ", escape(k));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        let n = num(v);
        self.buf.push_str(&n);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already serialized JSON (an array or a
    /// nested object).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serializes already-serialized JSON values (or numbers) as a one-line
/// array: `[1, 2, 3]`.
pub fn list<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Serializes an iterator of already-serialized JSON values as a pretty
/// one-value-per-line array — the layout of every `results/*.json` file.
pub fn array_lines<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str("  ");
        out.push_str(item);
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the first
/// syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = b.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let Some(c) = rest.chars().next() else {
                    return Err("unterminated string".to_string());
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_formats() {
        let mut o = JsonObj::new();
        o.str("s", "a\"b\\c\nd")
            .u64("n", 7)
            .f64("x", 1.5)
            .f64("nan", f64::NAN)
            .bool("ok", true);
        let text = o.finish();
        assert_eq!(
            text,
            r#"{"s": "a\"b\\c\nd", "n": 7, "x": 1.5, "nan": null, "ok": true}"#
        );
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let mut o = JsonObj::new();
        o.str("ev", "epoch")
            .u64("epoch", 12)
            .f64("loss", 0.125)
            .f64("test_acc", f64::NAN);
        let v = parse(&o.finish()).expect("parse");
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("epoch"));
        assert_eq!(v.get("epoch").and_then(Value::as_f64), Some(12.0));
        assert_eq!(v.get("loss").and_then(Value::as_f64), Some(0.125));
        assert_eq!(v.get("test_acc"), Some(&Value::Null));
    }

    #[test]
    fn parser_handles_nesting_and_ws() {
        let v = parse(" { \"a\" : [1, 2.5, \"x\", null, {\"b\": false}] } ").expect("parse");
        let arr = v.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[4].get("b"), Some(&Value::Bool(false)));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn array_lines_layout() {
        let a = array_lines(vec!["{\"x\": 1}".to_string(), "{\"y\": 2}".to_string()]);
        assert_eq!(a, "[\n  {\"x\": 1},\n  {\"y\": 2}\n]\n");
        assert_eq!(array_lines(Vec::new()), "[\n]\n");
    }
}
