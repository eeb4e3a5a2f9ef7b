//! Minimal `serde_json` stand-in.
//!
//! The build container has no crates.io access, so this shim provides the
//! subset of serde_json the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and the [`json!`] object-literal
//! macro, all operating on the [`Value`] data model from the sibling
//! `serde` shim.
//!
//! Output is deterministic: object fields keep insertion order (derives
//! emit declaration order, maps sort their keys in the serde shim) and
//! floats print via Rust's shortest round-trip formatting, so identical
//! values always serialize to identical bytes — the property the
//! golden-trace tests rely on.

#![warn(missing_docs)]

pub use serde::{Error, Value};

use std::fmt::Write as _;

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Convert any serializable value into a dynamic [`Value`].
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serialize to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize to a human-readable JSON string (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deepest array/object nesting [`from_str`] accepts. The parser
/// recurses once per level, so without a limit a short hostile input
/// (`[[[[…`) would overflow the stack and abort the process; past the
/// limit it returns `Err` instead.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON string into any deserializable type. Nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep the `.0` so the value reads back as a float, like serde_json.
        let _ = write!(out, "{f:.1}");
    } else {
        // Rust's Display prints the shortest string that round-trips.
        let _ = write!(out, "{f}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if !self.eat_keyword("\\u") {
                                    return Err(self.err("expected low surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------------

/// Build a [`Value`] from a JSON-like literal. Supports the object/array
/// literal forms the workspace uses; values may be arbitrary serializable
/// expressions or nested literals.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        let mut fields: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::json_object_inner!(fields; $($body)*);
        $crate::Value::Object(fields)
    }};
    ([ $($body:tt)* ]) => {{
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array_inner!(items; $($body)*);
        $crate::Value::Array(items)
    }};
    ($value:expr) => { $crate::to_value(&$value) };
}

/// Implementation detail of [`json!`]: munches `"key": value` pairs.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_inner {
    ($fields:ident;) => {};
    ($fields:ident; $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::json!({ $($inner)* })));
        $crate::json_object_inner!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : { $($inner:tt)* }) => {
        $fields.push(($key.to_string(), $crate::json!({ $($inner)* })));
    };
    ($fields:ident; $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::json!([ $($inner)* ])));
        $crate::json_object_inner!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : [ $($inner:tt)* ]) => {
        $fields.push(($key.to_string(), $crate::json!([ $($inner)* ])));
    };
    ($fields:ident; $key:literal : null , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::Value::Null));
        $crate::json_object_inner!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : null) => {
        $fields.push(($key.to_string(), $crate::Value::Null));
    };
    ($fields:ident; $key:literal : $value:expr , $($rest:tt)*) => {
        $fields.push(($key.to_string(), $crate::to_value(&$value)));
        $crate::json_object_inner!($fields; $($rest)*);
    };
    ($fields:ident; $key:literal : $value:expr) => {
        $fields.push(($key.to_string(), $crate::to_value(&$value)));
    };
}

/// Implementation detail of [`json!`]: munches array elements.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_inner {
    ($items:ident;) => {};
    ($items:ident; { $($inner:tt)* } , $($rest:tt)*) => {
        $items.push($crate::json!({ $($inner)* }));
        $crate::json_array_inner!($items; $($rest)*);
    };
    ($items:ident; { $($inner:tt)* }) => {
        $items.push($crate::json!({ $($inner)* }));
    };
    ($items:ident; [ $($inner:tt)* ] , $($rest:tt)*) => {
        $items.push($crate::json!([ $($inner)* ]));
        $crate::json_array_inner!($items; $($rest)*);
    };
    ($items:ident; [ $($inner:tt)* ]) => {
        $items.push($crate::json!([ $($inner)* ]));
    };
    ($items:ident; null , $($rest:tt)*) => {
        $items.push($crate::Value::Null);
        $crate::json_array_inner!($items; $($rest)*);
    };
    ($items:ident; null) => {
        $items.push($crate::Value::Null);
    };
    ($items:ident; $value:expr , $($rest:tt)*) => {
        $items.push($crate::to_value(&$value));
        $crate::json_array_inner!($items; $($rest)*);
    };
    ($items:ident; $value:expr) => {
        $items.push($crate::to_value(&$value));
    };
}

#[cfg(test)]
#[allow(clippy::vec_init_then_push)] // fires inside local `json!` expansions
mod tests {
    use super::*;

    #[test]
    fn compact_output() {
        let v = json!({
            "name": "hacc",
            "iters": 50,
            "ratio": 0.5,
            "nested": { "ok": true },
            "xs": [1, 2, 3],
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"name":"hacc","iters":50,"ratio":0.5,"nested":{"ok":true},"xs":[1,2,3]}"#
        );
    }

    #[test]
    fn pretty_output_round_trips() {
        let v = json!({ "a": 1, "b": [true, null], "c": "x\"y" });
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip() {
        for f in [0.0, 1.0, -2.5, 1.0e-12, 123456.789, f64::MAX] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f, "round-trip of {f} via {text}");
        }
    }

    #[test]
    fn integer_widths_preserved() {
        let big = u64::MAX;
        let text = to_string(&big).unwrap();
        assert_eq!(text, big.to_string());
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn string_escapes() {
        let s = "line\nbreak \"quoted\" \\ tab\t".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // A 10,000-deep body used to recurse once per level; on a small
        // stack that aborted the whole process. It must be a plain `Err`.
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let deep = "[".repeat(10_000);
                let err = from_str::<Value>(&deep).unwrap_err().to_string();
                assert!(err.contains("nesting deeper than 128"), "{err}");
                let objects = "{\"a\":".repeat(10_000);
                assert!(from_str::<Value>(&objects).is_err());
            })
            .unwrap();
        handle.join().expect("parser thread survived");
        // Exactly the limit still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(from_str::<Value>(&over).is_err());
    }

    #[test]
    fn parse_errors_report_offsets() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
