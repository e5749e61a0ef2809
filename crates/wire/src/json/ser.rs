//! Compact JSON output: the `Display` of a parsed document, and the byte
//! writers the message encoders append with.
//!
//! Emits the exact byte shape the paper's server produces before gzip:
//! compact separators, integers without a fractional part, control characters
//! escaped per RFC 8259.

use super::{JsonRef, Node};
use std::fmt;
use std::io::Write as _;

pub(super) fn write_value(f: &mut fmt::Formatter<'_>, value: JsonRef<'_>) -> fmt::Result {
    match value.node() {
        Node::Null => f.write_str("null"),
        Node::Bool(true) => f.write_str("true"),
        Node::Bool(false) => f.write_str("false"),
        Node::Number(n) => write_number(f, n),
        Node::String { .. } => write_string(f, value.as_str().expect("string node")),
        Node::Array { .. } => {
            f.write_str("[")?;
            for (i, item) in value.as_array().expect("array node").enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_value(f, item)?;
            }
            f.write_str("]")
        }
        Node::Object { .. } => {
            f.write_str("{")?;
            for (i, (key, item)) in value.as_object().expect("object node").enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_string(f, key)?;
                f.write_str(":")?;
                write_value(f, item)?;
            }
            f.write_str("}")
        }
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if n.is_nan() || n.is_infinite() {
        // JSON has no NaN/Inf; Jackson throws, we emit null like JS JSON.stringify.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        write!(f, "{}", n as i64)
    } else {
        // `{}` on f64 produces the shortest representation that round-trips.
        write!(f, "{n}")
    }
}

/// Appends `n` as JSON text, formatted as a parsed document's numbers are.
pub fn push_number(out: &mut Vec<u8>, n: f64) {
    write!(out, "{}", fmt::from_fn(|f| write_number(f, n))).expect("a Vec takes every write");
}

/// Appends `value` in decimal with a digit loop: no `fmt` machinery and no
/// allocation, so a per-request job head costs only its bytes.
pub fn push_uint(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{0008}' => f.write_str("\\b")?,
            '\u{000C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::{push_number, push_uint};
    use crate::json::JsonValue;

    fn reprint(text: &str) -> String {
        JsonValue::parse(text).unwrap().to_string()
    }

    fn number(n: f64) -> String {
        let mut out = Vec::new();
        push_number(&mut out, n);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn scalars() {
        assert_eq!(reprint("null"), "null");
        assert_eq!(reprint("true"), "true");
        assert_eq!(reprint("false"), "false");
        assert_eq!(reprint("3.0"), "3");
        assert_eq!(reprint("-2.5"), "-2.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-2.5), "-2.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn uints_print_every_digit() {
        for n in [0, 7, 10, 4_294_967_295, (1 << 53) + 1, u64::MAX] {
            let mut out = b"x".to_vec();
            push_uint(&mut out, n);
            assert_eq!(out, format!("x{n}").into_bytes());
        }
    }

    #[test]
    fn string_escapes() {
        let s = reprint(r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(reprint("\"héllo — 世界\""), "\"héllo — 世界\"");
    }

    #[test]
    fn nested_structure_is_compact() {
        let v = reprint(r#"{ "outer" : [ { "x" : 1 } , null ] }"#);
        assert_eq!(v, r#"{"outer":[{"x":1},null]}"#);
    }

    #[test]
    fn large_integers_stay_integral() {
        // u32::MAX
        assert_eq!(reprint("4294967295.0"), "4294967295");
        assert_eq!(number(4_294_967_295.0), "4294967295");
    }
}
