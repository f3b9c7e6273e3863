//! A minimal JSON value, parser, and writer.
//!
//! The sanctioned offline dependency set has no serde, and the protocol
//! needs only scalar fields, flat objects, and short arrays, so this
//! module implements exactly RFC 8259 with two simplifications: numbers
//! are held as `f64` (integers up to 2^53 round-trip exactly, far above
//! any counter the service emits), and object key order is preserved
//! (insertion order) so serialized responses are deterministic.
//!
//! Every JSON-lines writer goes through [`frame`] / [`write_line`]: the
//! line is rendered into one buffer and sent with one `write_all`.
//! `Display` writes piece by piece (one call per character of a string),
//! which on an unbuffered `TcpStream` is one `write(2)` each, and with
//! Nagle's algorithm every segment after the first then waits for the
//! peer's delayed ACK (DESIGN.md §11, "Wire framing").

use std::fmt;
use std::io::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs (no duplicate-key handling:
    /// the last occurrence wins on lookup, all are serialized).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience integer constructor.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A u64 counter as a JSON number (exact up to 2^53).
    pub fn count(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            text: input,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Compact serialization (no whitespace), suitable for JSON-lines.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Renders one JSON-lines frame: `line` plus the `\n` terminator, in
/// one buffer. Takes any `Display` so raw request text (which need not
/// be valid JSON) frames the same way as a [`Json`] value.
pub fn frame(line: &impl fmt::Display) -> String {
    format!("{line}\n")
}

/// Sends one JSON-lines frame with a single `write_all`, then flushes
/// (a no-op for sockets and files; it pushes buffered writers out).
///
/// # Errors
///
/// The writer's I/O errors.
pub fn write_line<W: Write + ?Sized>(w: &mut W, line: &impl fmt::Display) -> io::Result<()> {
    w.write_all(frame(line).as_bytes())?;
    w.flush()
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    /// The same input as a `&str`, for safe char-boundary slicing.
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by the
                            // protocol; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The cursor only ever
                    // advances by ASCII tokens or whole chars, so it sits
                    // on a char boundary; `get` makes that a structured
                    // error instead of a panic if the invariant breaks.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| format!("malformed UTF-8 at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| format!("malformed number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        for src in ["null", "true", "false", "0", "-7", "125000", "\"hi\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.to_string(), src);
        }
    }

    #[test]
    fn roundtrips_nested() {
        let src = r#"{"id":1,"verb":"verify","opts":{"bound":2,"deadline":null},"tags":["a","b"]}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("verb").unwrap().as_str(), Some("verify"));
        assert_eq!(
            v.get("opts").unwrap().get("bound").unwrap().as_u64(),
            Some(2)
        );
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("line1\nline2\t\"quoted\" \\ done".into());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn litmus_sources_embed_safely() {
        // The protocol carries whole litmus tests as string fields.
        let src = "PTX MP\n{ x = 0; }\nP0 | P1 ;\nexists (P1:r0 == 1 /\\ P1:r1 == 0)";
        let v = Json::Obj(vec![("source".into(), Json::str(src))]);
        let line = v.to_string();
        assert!(!line.contains('\n'), "JSON-lines framing must hold");
        assert_eq!(
            Json::parse(&line).unwrap().get("source").unwrap().as_str(),
            Some(src)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn counters_round_trip_exactly() {
        let v = Json::count(9_007_199_254_740_992); // 2^53
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_u64(), Some(1 << 53));
    }

    #[test]
    fn last_key_wins_on_lookup() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }

    /// A sink that records each `write` call separately.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_one_write_per_line() {
        // A `done` response as the server sends it.
        let done = Json::parse(
            r#"{"id":2,"proto":1,"status":"done","verdict":{"test":"MP","reachable":true,"expectation":"holds","liveness":"ok","datarace":"n/a"},"phases":{"compile_us":41,"bounds_us":12,"encode_us":388,"solve_us":96},"solver":{"vars":117,"clauses":18,"conflicts":0,"propagations":15},"simplify":{"vars_before":106,"vars_after":10,"clauses_before":236,"clauses_after":10,"literals_before":604,"literals_after":20,"vars_eliminated":76,"equivs_substituted":6,"clauses_subsumed":2,"clauses_strengthened":14,"time_us":173},"portfolio":null,"dpor":null,"time_us":1204}"#,
        )
        .unwrap();
        let awkward = Json::str("say \"hi\"\\ \u{1}\u{1f}\t\r\n → ✓ über 𝔾PU");
        let empty = Json::Obj(Vec::new());
        for v in [&done, &awkward, &empty] {
            let mut sink = CountingSink::default();
            write_line(&mut sink, v).unwrap();
            assert_eq!(sink.writes.len(), 1, "one write for {v}");
            assert_eq!(sink.writes[0], format!("{v}\n").into_bytes());
        }
    }
}
