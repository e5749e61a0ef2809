//! Compact JSON serialization.
//!
//! Emits the exact byte shape the paper's server produces before gzip:
//! compact separators, integers without a fractional part, control characters
//! escaped per RFC 8259.

use super::{JsonRef, Node};
use std::fmt;

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
    use crate::json::{object, JsonValue};

    #[test]
    fn scalars() {
        assert_eq!(JsonValue::null().to_string(), "null");
        assert_eq!(JsonValue::from(true).to_string(), "true");
        assert_eq!(JsonValue::from(false).to_string(), "false");
        assert_eq!(JsonValue::from(3.0).to_string(), "3");
        assert_eq!(JsonValue::from(-2.5).to_string(), "-2.5");
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn string_escapes() {
        let s = JsonValue::from("a\"b\\c\nd\te\u{0001}");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn unicode_passthrough() {
        let s = JsonValue::from("héllo — 世界");
        assert_eq!(s.to_string(), "\"héllo — 世界\"");
    }

    #[test]
    fn nested_structure_is_compact() {
        let v = object([(
            "outer",
            [object([("x", 1u32)]), JsonValue::null()]
                .into_iter()
                .collect::<JsonValue>(),
        )]);
        assert_eq!(v.to_string(), r#"{"outer":[{"x":1},null]}"#);
    }

    #[test]
    fn large_integers_stay_integral() {
        let v = JsonValue::from(4_294_967_295.0); // u32::MAX
        assert_eq!(v.to_string(), "4294967295");
    }
}
