//! A minimal self-contained JSON parser, used to validate exported
//! Chrome traces and benchmark rows without pulling in an external
//! dependency, and the string escaper every JSON writer in the workspace
//! shares. Accepts the JSON this workspace emits (objects, arrays, strings
//! with the common escapes, numbers, booleans, null); rejects anything
//! malformed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for embedding between quotes in a JSON document
/// ([`parse`] decodes it back).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut p = Parser { b, i: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b.get(self.i).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, got '{}'",
                c as char, self.i, got as char
            ));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(self.b.get(self.i), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        s.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number '{s}': {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self
                        .b
                        .get(self.i)
                        .copied()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(c) => {
                    // Copy one UTF-8 scalar (multi-byte sequences pass through).
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .b
                        .get(self.i..self.i + len)
                        .ok_or_else(|| "truncated utf-8".to_string())?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.i += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                c => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got '{}'",
                        self.i, c as char
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.peek()?;
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                c => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got '{}'",
                        self.i, c as char
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_chars() {
        let raw = "we\"ird\\na\nme\u{1}";
        assert_eq!(escape(raw), "we\\\"ird\\\\na\\nme\\u0001");
        let doc = format!("\"{}\"", escape(raw));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(raw), "parse decodes what escape encodes");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"s": "x\ny", "t": true, "n": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("n"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn decodes_unicode_escape() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
    }
}
