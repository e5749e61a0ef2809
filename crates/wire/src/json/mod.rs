//! A from-scratch JSON document model (value, serializer, parser).
//!
//! Mirrors what the paper's stack (Jackson on the server, `JSON.parse` in the
//! browser) does with personalization jobs: order-preserving objects, UTF-8
//! text, no streaming. The serializer emits compact JSON (no whitespace) —
//! the same shape the paper measures in Figure 10 before gzip.

mod de;
mod ser;

pub use de::parse;

use crate::error::WireError;
use std::fmt;

/// 2^53: integers up to here convert to and from `f64` exactly.
const MAX_SAFE_INTEGER: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
///
/// Objects preserve insertion order (like Jackson's default `ObjectNode`
/// serialization), which keeps serialized bytes deterministic — important for
/// reproducible message-size measurements.
///
/// ```
/// use hyrec_wire::json::JsonValue;
/// let v = JsonValue::parse(r#"{"k": [1, true, null, "s"]}"#)?;
/// let arr = v.get("k").unwrap().as_array().unwrap();
/// assert_eq!(arr.len(), 4);
/// assert_eq!(v.to_string(), r#"{"k":[1,true,null,"s"]}"#);
/// # Ok::<(), hyrec_wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; integers up to 2^53 round-trip.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document from text.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Json`] with the byte offset of the first
    /// malformed construct.
    pub fn parse(text: &str) -> Result<JsonValue, WireError> {
        de::parse(text)
    }

    /// Looks up a key on an object; `None` on non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array; `None` on non-arrays or out of range.
    #[must_use]
    pub fn at(&self, index: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // In range, the round trip through `u64` is exact exactly for
            // integral values (a cast, not a call to `trunc`).
            JsonValue::Number(n) if (0.0..=MAX_SAFE_INTEGER).contains(n) => {
                let int = *n as u64;
                (int as f64 == *n).then_some(int)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) if (-MAX_SAFE_INTEGER..=MAX_SAFE_INTEGER).contains(n) => {
                let int = *n as i64;
                (int as f64 == *n).then_some(int)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object entries, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// True for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Serializes to compact JSON bytes (no whitespace).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_string().into_bytes()
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ser::write_value(f, self)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Number(f64::from(n))
    }
}

impl From<i32> for JsonValue {
    fn from(n: i32) -> Self {
        JsonValue::Number(f64::from(n))
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        JsonValue::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`JsonValue::Object`] from `(key, value)` pairs, preserving order.
///
/// ```
/// use hyrec_wire::json::{object, JsonValue};
/// let o = object([("a", JsonValue::from(1u32)), ("b", JsonValue::from("x"))]);
/// assert_eq!(o.to_string(), r#"{"a":1,"b":"x"}"#);
/// ```
pub fn object<K, I>(entries: I) -> JsonValue
where
    K: Into<String>,
    I: IntoIterator<Item = (K, JsonValue)>,
{
    JsonValue::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v =
            JsonValue::parse(r#"{"n": 3, "s": "hi", "b": true, "z": null, "a": [1.5]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("z").unwrap().is_null());
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.at(0), None);
    }

    #[test]
    fn integer_accessors_reject_fractions_and_out_of_range() {
        let n = |x: f64| JsonValue::Number(x);
        assert_eq!(n(0.0).as_u64(), Some(0));
        assert_eq!(n(-0.0).as_u64(), Some(0));
        assert_eq!(n(2f64.powi(53)).as_u64(), Some(1 << 53));
        assert_eq!(n(2f64.powi(53) + 2.0).as_u64(), None);
        assert_eq!(n(0.5).as_u64(), None);
        assert_eq!(n(-1.0).as_u64(), None);
        assert_eq!(n(f64::NAN).as_u64(), None);
        assert_eq!(n(f64::INFINITY).as_u64(), None);
        assert_eq!(n(-(2f64.powi(53))).as_i64(), Some(-(1 << 53)));
        assert_eq!(n(-2.5).as_i64(), None);
        assert_eq!(n(f64::NEG_INFINITY).as_i64(), None);
    }

    #[test]
    fn negative_numbers() {
        let v = JsonValue::parse("-4").unwrap();
        assert_eq!(v.as_i64(), Some(-4));
        assert_eq!(v.as_u64(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(JsonValue::from(true), JsonValue::Bool(true));
        assert_eq!(JsonValue::from(3u32).as_u64(), Some(3));
        assert_eq!(JsonValue::from("x").as_str(), Some("x"));
        let arr: JsonValue = [1u32, 2, 3].into_iter().collect();
        assert_eq!(arr.as_array().unwrap().len(), 3);
    }

    #[test]
    fn object_preserves_order() {
        let o = object([("z", JsonValue::from(1u32)), ("a", JsonValue::from(2u32))]);
        assert_eq!(o.to_string(), r#"{"z":1,"a":2}"#);
    }
}
