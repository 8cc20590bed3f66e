//! The workspace's one hand-rolled JSON substrate: a writer for the
//! journal's JSONL lines and the metrics snapshot, and a minimal
//! single-line object parser shared by the journal reader and the
//! trace-event validator.
//!
//! Keeping writer and parser in one module keeps them *provably*
//! inverse: every escape the writer emits is an escape the parser
//! understands, a property the round-trip tests pin. The parser reads
//! one object per line — strings, numbers, bools, nulls, and (one
//! addition over the original journal parser) **nested objects**, which
//! Chrome trace-event metadata (`"args":{"name":"worker 3"}`) and the
//! [`MetricsSnapshot`](crate::obs::MetricsSnapshot) serialisation need.
//! Arrays are still a parse error: nothing in the workspace writes a
//! JSON array *inside* a line, so accepting them would only widen the
//! corrupt-input surface. Nesting is bounded by [`MAX_DEPTH`], so a
//! corrupt line is an error, never a stack overflow.

use std::fmt::Write as _;

/// The deepest object nesting [`parse_object`] accepts (the outermost
/// object is level 1). Every file the workspace writes nests at most
/// three levels; the bound keeps a corrupt or hostile line from
/// recursing the parser off the stack.
pub const MAX_DEPTH: usize = 64;

/// Writes `s` as a JSON string literal (quotes included).
pub fn write_string(out: &mut String, s: &str) {
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

/// Writes a float in Rust's shortest round-trip decimal form; non-finite
/// values (which valid JSON cannot express) become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A parsed field value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// JSON string.
    Str(String),
    /// JSON number.
    Num(f64),
    /// JSON true/false.
    Bool(bool),
    /// JSON null.
    Null,
    /// A nested JSON object, fields in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The nested object's fields, if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The number, if this value is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Parses one JSON object into (key, value) pairs in document order.
/// Duplicate keys (at any nesting level) are a parse error, as are
/// arrays, objects nested deeper than [`MAX_DEPTH`], and trailing
/// characters after the closing brace.
///
/// # Errors
///
/// A human-readable description of the first syntax violation.
pub fn parse_object(text: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser {
        chars: text.chars().collect(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let fields = p.object()?;
    p.skip_ws();
    if p.i < p.chars.len() {
        return Err(format!(
            "trailing characters after object at offset {}",
            p.i
        ));
    }
    Ok(fields)
}

struct Parser {
    chars: Vec<char>,
    i: usize,
    /// Objects currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!(
                "expected `{want}`, found `{c}` at offset {}",
                self.i
            )),
            None => Err(format!("expected `{want}`, found end of line")),
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if self.peek() == Some(want) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.expect('{')?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "objects nested deeper than {MAX_DEPTH} levels at offset {}",
                self.i
            ));
        }
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if !self.eat('}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key `{key}`"));
                }
                self.skip_ws();
                self.expect(':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                if self.eat(',') {
                    continue;
                }
                self.expect('}')?;
                break;
            }
        }
        self.depth -= 1;
        Ok(fields)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('{') => Ok(Value::Object(self.object()?)),
            Some('n') => self.literal("null", Value::Null),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{c}` at offset {}", self.i)),
            None => Err("unexpected end of line".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        for want in word.chars() {
            match self.bump() {
                Some(c) if c == want => {}
                _ => return Err(format!("malformed literal (expected `{word}`)")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while matches!(self.peek(), Some('-' | '+' | '.' | 'e' | 'E' | '0'..='9')) {
            self.i += 1;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                        );
                    }
                    Some(c) => return Err(format!("unknown escape `\\{c}`")),
                    None => return Err("unterminated escape".to_string()),
                },
                Some(c) => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab",
            "control\u{0001}char",
            "unicode °C δ→∞",
        ] {
            let mut line = String::from("{\"k\":");
            write_string(&mut line, s);
            line.push('}');
            let fields = parse_object(&line).expect("parses");
            assert_eq!(fields[0].1, Value::Str(s.to_string()));
        }
    }

    #[test]
    fn nested_objects_parse_one_level_and_deeper() {
        let fields =
            parse_object("{\"a\":1,\"args\":{\"name\":\"w0\",\"inner\":{\"x\":2}}}").expect("ok");
        let args = fields[1].1.as_object().expect("object");
        assert_eq!(args[0].1.as_str(), Some("w0"));
        let inner = args[1].1.as_object().expect("object");
        assert_eq!(inner[0].1.as_f64(), Some(2.0));
    }

    #[test]
    fn duplicate_keys_rejected_inside_nested_objects_too() {
        assert!(parse_object("{\"a\":{\"x\":1,\"x\":2}}").is_err());
    }

    /// `depth` nested `{"a":` objects closed around a number.
    fn nested(depth: usize) -> String {
        format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deepest = parse_object(&nested(MAX_DEPTH)).expect("the limit itself parses");
        assert_eq!(deepest.len(), 1);
        let err = parse_object(&nested(MAX_DEPTH + 1)).expect_err("one past the limit");
        assert!(err.contains("nested deeper"), "{err}");
        // Deep enough to overflow a recursive parser's stack.
        let err = parse_object(&nested(100_000)).expect_err("hostile depth");
        assert!(err.contains("nested deeper"), "{err}");
        // Sibling objects do not accumulate depth.
        let wide = format!(
            "{{{}\"z\":1}}",
            (0..200)
                .map(|i| format!("\"k{i}\":{{\"x\":1}},"))
                .collect::<String>()
        );
        assert_eq!(parse_object(&wide).expect("wide parses").len(), 201);
    }

    #[test]
    fn arrays_are_still_a_parse_error() {
        assert!(parse_object("{\"a\":[1,2]}").is_err());
        assert!(parse_object("[1,2]").is_err());
    }

    #[test]
    fn non_finite_floats_write_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        out.push(' ');
        write_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null null");
    }
}
