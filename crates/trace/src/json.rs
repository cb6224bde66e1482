//! A minimal JSON parser producing [`chicala_telemetry::JsonValue`] — the
//! workspace already owns a JSON *writer* there; this is the matching
//! reader, used to load replay bundles without an external crate.

pub use chicala_telemetry::JsonValue;

/// The deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so a bound keeps a hostile line (a daemon
/// request, a bundle on disk) from overflowing the stack; every document
/// the workspace writes nests under 10 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Accepts exactly the values
/// [`JsonValue`]'s serializer emits (objects, arrays, strings with the
/// standard escapes, finite numbers, booleans, null), nested at most
/// [`MAX_DEPTH`] deep.
pub fn parse(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Field lookup on an object value.
pub fn get<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The string payload of a string value.
pub fn as_str(v: &JsonValue) -> Option<&str> {
    match v {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

/// A non-negative integer payload (exact for values below 2^53; larger
/// integers should be stored as hex strings — see [`crate::replay`]).
pub fn as_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::Num(n) if *n >= 0.0 && *n == n.trunc() => Some(*n as u64),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("unexpected end of input")? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 from the source slice.
                    let start = self.pos - 1;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    let s = std::str::from_utf8(
                        self.bytes.get(start..start + len).ok_or("truncated UTF-8")?,
                    )
                    .map_err(|_| "bad UTF-8 in string")?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_telemetry_writer() {
        let v = JsonValue::obj()
            .set("name", JsonValue::str("conformance"))
            .set("seed", JsonValue::str("0xDEADBEEFDEADBEEF"))
            .set("width", JsonValue::int(24))
            .set("ok", JsonValue::Bool(false))
            .set("none", JsonValue::Null)
            .set(
                "inputs",
                JsonValue::Arr(vec![JsonValue::int(3), JsonValue::str("a\"b\\c\nd")]),
            );
        for text in [v.to_string(), v.pretty()] {
            let back = parse(&text).expect("parses");
            assert_eq!(back, v, "source: {text}");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 7, "b": "x", "c": [1]}"#).expect("parses");
        assert_eq!(get(&v, "a").and_then(as_u64), Some(7));
        assert_eq!(get(&v, "b").and_then(as_str), Some("x"));
        assert!(get(&v, "missing").is_none());
        assert_eq!(as_u64(get(&v, "b").unwrap()), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nested = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{open}: a document at the bound parses");
            for depth in [MAX_DEPTH + 1, 100_000] {
                let err = parse(&nested(depth)).expect_err("nesting past the bound is refused");
                assert!(err.contains("nested deeper"), "{open} x {depth}: {err}");
            }
        }
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#""café → λ""#).expect("parses");
        assert_eq!(as_str(&v), Some("café → λ"));
    }
}
