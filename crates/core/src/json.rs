//! The one hand-written JSON writer every exporter in the workspace uses.
//!
//! The workspace has no JSON library, so reports, traces, stats and
//! benchmark rows write JSON by hand through [`JsonObject`]. Rust's `f64` `Display` never produces scientific
//! notation, so writing a finite float with `{}` is valid JSON.
//!
//! # Examples
//!
//! ```
//! use graphr_core::json::JsonObject;
//!
//! let mut out = String::new();
//! let mut obj = JsonObject::open(&mut out);
//! obj.str("app", "bfs \"grid\"").raw("edges", 42);
//! let mut inner = JsonObject::open(obj.key("time"));
//! inner.raw("total_ns", 1.5);
//! inner.close();
//! obj.close();
//! assert_eq!(out, r#"{"app":"bfs \"grid\"","edges":42,"time":{"total_ns":1.5}}"#);
//! ```

use std::fmt::{Display, Write};

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON object being written into a `String`, one member at a time.
///
/// Keys are written verbatim: they are identifiers chosen by the code,
/// and a caller keying by outside data escapes it with [`json_escape`]
/// first. [`JsonObject::close`] writes the closing brace.
#[derive(Debug)]
pub struct JsonObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, empty: true }
    }

    /// Writes the member separator and `"key":`, and returns the buffer
    /// the value goes into — for nested objects
    /// (`JsonObject::open(obj.key("time"))`) and arrays.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// Writes `"key":value` with the value's `Display` form as is: a
    /// number, a boolean, `null`, or already-serialised JSON.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        write!(self.key(key), "{value}").expect("writing to a String cannot fail");
        self
    }

    /// Writes `"key":"value"` with the value escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        out.push_str(&json_escape(value));
        out.push('"');
        self
    }

    /// Writes the closing brace.
    pub fn close(self) {
        self.out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn empty_object_is_two_braces() {
        let mut out = String::from("[");
        JsonObject::open(&mut out).close();
        assert_eq!(out, "[{}");
    }
}
