//! A from-scratch JSON document (tape, serializer, parser).
//!
//! Mirrors what the paper's stack (Jackson on the server, `JSON.parse` in the
//! browser) does with personalization jobs: order-preserving objects, UTF-8
//! text, no streaming. The serializer emits compact JSON (no whitespace) —
//! the same shape the paper measures in Figure 10 before gzip.
//!
//! A [`JsonValue`] is a flat tape, not a tree of boxed values:
//!
//! * one `Vec` of 16-byte nodes in document order, the root first;
//! * scalars live in their node, numbers inline as `f64`;
//! * a container node records its number of children and the length of
//!   its subtree, so [`JsonRef::get`] and iteration step over a whole
//!   nested value in O(1); an object's children alternate key, value;
//! * one `String` holds the bytes of every string and key.
//!
//! Reads go through [`JsonRef`], a `Copy` view of one node borrowed from
//! the document. [`object`], `collect` and the `From` impls build a tape by
//! appending; [`array()`] and [`object_with`] append nested values in place,
//! so a message serializes from one pass over its fields. Parsing a
//! personalization job is one pass that appends ~12k number nodes to one
//! buffer; the message decoders then walk the tape and fold each id array
//! straight into its `Vec<ItemId>`.

mod de;
mod ser;

pub use de::parse;

use crate::error::WireError;
use std::fmt;

/// 2^53: integers up to here convert to and from `f64` exactly.
const MAX_SAFE_INTEGER: f64 = 9_007_199_254_740_992.0;

/// One tape entry. Offsets and counts are `u32`, which keeps a node at 16
/// bytes and limits a document to 4 GiB of text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Null,
    Bool(bool),
    Number(f64),
    /// `len` bytes of the string buffer, from `start`.
    String {
        start: u32,
        len: u32,
    },
    /// `len` elements; `span` nodes including this one.
    Array {
        len: u32,
        span: u32,
    },
    /// `len` key/value pairs; `span` nodes including this one.
    Object {
        len: u32,
        span: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// A JSON document.
///
/// Objects preserve insertion order (like Jackson's default `ObjectNode`
/// serialization), which keeps serialized bytes deterministic — important for
/// reproducible message-size measurements. Two documents are equal when they
/// hold the same values in the same order.
///
/// ```
/// use hyrec_wire::json::JsonValue;
/// let v = JsonValue::parse(r#"{"k": [1, true, null, "s"]}"#)?;
/// let arr = v.root().get("k").unwrap().as_array().unwrap();
/// assert_eq!(arr.len(), 4);
/// assert_eq!(v.to_string(), r#"{"k":[1,true,null,"s"]}"#);
/// # Ok::<(), hyrec_wire::WireError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct JsonValue {
    /// Never empty: `nodes[0]` is the root and spans the whole tape.
    nodes: Vec<Node>,
    strings: String,
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

    /// The document `null`.
    #[must_use]
    pub fn null() -> Self {
        Self {
            nodes: vec![Node::Null],
            strings: String::new(),
        }
    }

    /// A view of the root value.
    #[must_use]
    pub fn root(&self) -> JsonRef<'_> {
        JsonRef {
            doc: self,
            index: 0,
        }
    }

    /// Serializes to compact JSON bytes (no whitespace).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_string().into_bytes()
    }

    fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            strings: String::new(),
        }
    }

    /// A document holding `value`.
    fn build(value: impl IntoJson) -> Self {
        let mut doc = Self::with_capacity(1);
        value.append_to(&mut doc);
        doc
    }

    /// Appends a string node holding `s`.
    fn push_str(&mut self, s: &str) {
        let start = to_u32(self.strings.len());
        self.strings.push_str(s);
        self.push_string_from(start);
    }

    /// Appends a string node for the bytes pushed since `start`.
    fn push_string_from(&mut self, start: u32) {
        let len = to_u32(self.strings.len()) - start;
        self.nodes.push(Node::String { start, len });
    }

    /// Appends a container node to fill in with [`Self::close`] once its
    /// children follow it; returns its index.
    fn open(&mut self, container: Node) -> usize {
        self.nodes.push(container);
        self.nodes.len() - 1
    }

    /// Records the child count and subtree length of the container at `at`.
    fn close(&mut self, at: usize, children: usize) {
        let span = to_u32(self.nodes.len() - at);
        let children = to_u32(children);
        match &mut self.nodes[at] {
            Node::Array { len, span: s } | Node::Object { len, span: s } => {
                *len = children;
                *s = span;
            }
            _ => unreachable!("only containers are opened"),
        }
    }

    /// Appends another document's tape as one value.
    fn append(&mut self, other: &JsonValue) {
        let base = to_u32(self.strings.len());
        self.strings.push_str(&other.strings);
        // Checked here, so the shifted offsets below cannot wrap.
        to_u32(self.strings.len());
        self.nodes
            .extend(other.nodes.iter().map(|&node| match node {
                Node::String { start, len } => Node::String {
                    start: start + base,
                    len,
                },
                node => node,
            }));
    }
}

/// Tape offsets are `u32`; a document past 4 GiB is a caller bug
/// ([`JsonValue::parse`] rejects such text up front).
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("JSON document exceeds 4 GiB")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ser::write_value(f, self.root())
    }
}

impl fmt::Debug for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JsonValue({self})")
    }
}

/// A `Copy` view of one value inside a [`JsonValue`].
///
/// Lookups return further views into the same tape; nothing is copied
/// until a caller converts a scalar.
#[derive(Clone, Copy)]
pub struct JsonRef<'a> {
    doc: &'a JsonValue,
    index: usize,
}

impl<'a> JsonRef<'a> {
    fn node(self) -> Node {
        self.doc.nodes[self.index]
    }

    fn at_index(self, index: usize) -> JsonRef<'a> {
        JsonRef {
            doc: self.doc,
            index,
        }
    }

    /// Index of the node after this value's subtree.
    fn next_index(self) -> usize {
        match self.node() {
            Node::Array { span, .. } | Node::Object { span, .. } => self.index + span as usize,
            _ => self.index + 1,
        }
    }

    /// Looks up a key on an object; `None` on non-objects or missing keys.
    /// With duplicate keys the first one wins.
    #[must_use]
    pub fn get(self, key: &str) -> Option<JsonRef<'a>> {
        self.as_object()?
            .find(|&(k, _)| k == key)
            .map(|(_, value)| value)
    }

    /// Indexes into an array; `None` on non-arrays or out of range.
    #[must_use]
    pub fn at(self, index: usize) -> Option<JsonRef<'a>> {
        self.as_array()?.nth(index)
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(self) -> Option<bool> {
        match self.node() {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(self) -> Option<f64> {
        match self.node() {
            Node::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        // In range, the round trip through `u64` is exact exactly for
        // integral values (a cast, not a call to `trunc`).
        let n = self.as_f64()?;
        if !(0.0..=MAX_SAFE_INTEGER).contains(&n) {
            return None;
        }
        let int = n as u64;
        (int as f64 == n).then_some(int)
    }

    /// The value as an `i64`, if it is an integral number.
    #[must_use]
    pub fn as_i64(self) -> Option<i64> {
        let n = self.as_f64()?;
        if !(-MAX_SAFE_INTEGER..=MAX_SAFE_INTEGER).contains(&n) {
            return None;
        }
        let int = n as i64;
        (int as f64 == n).then_some(int)
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(self) -> Option<&'a str> {
        match self.node() {
            Node::String { start, len } => {
                Some(&self.doc.strings[start as usize..(start + len) as usize])
            }
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    #[must_use]
    pub fn as_array(self) -> Option<Elements<'a>> {
        match self.node() {
            Node::Array { len, .. } => Some(Elements {
                next: self.at_index(self.index + 1),
                remaining: len as usize,
            }),
            _ => None,
        }
    }

    /// The `(key, value)` entries in order, if the value is an object.
    #[must_use]
    pub fn as_object(self) -> Option<Members<'a>> {
        match self.node() {
            Node::Object { len, .. } => Some(Members {
                next: self.at_index(self.index + 1),
                remaining: len as usize,
            }),
            _ => None,
        }
    }

    /// True for `null`.
    #[must_use]
    pub fn is_null(self) -> bool {
        self.node() == Node::Null
    }
}

impl fmt::Display for JsonRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ser::write_value(f, *self)
    }
}

impl fmt::Debug for JsonRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JsonRef({self})")
    }
}

/// An array's elements, each a [`JsonRef`] (see [`JsonRef::as_array`]).
#[derive(Debug, Clone)]
pub struct Elements<'a> {
    next: JsonRef<'a>,
    remaining: usize,
}

impl<'a> Iterator for Elements<'a> {
    type Item = JsonRef<'a>;

    fn next(&mut self) -> Option<JsonRef<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let item = self.next;
        self.next = item.at_index(item.next_index());
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Elements<'_> {}

impl Elements<'_> {
    /// Converts the remaining elements, all numbers, in one pass over
    /// their nodes: `None` as soon as one is not a number or `convert`
    /// refuses it. This is how an id array becomes a `Vec` of ids.
    pub(crate) fn collect_numbers<T>(
        self,
        mut convert: impl FnMut(f64) -> Option<T>,
    ) -> Option<Vec<T>> {
        let start = self.next.index;
        // Scalars take one node each, so the first `remaining` nodes are
        // the elements unless a container among them ends the walk first.
        let nodes = self.next.doc.nodes.get(start..start + self.remaining)?;
        let mut out = Vec::with_capacity(nodes.len());
        for node in nodes {
            match *node {
                Node::Number(n) => out.push(convert(n)?),
                _ => return None,
            }
        }
        Some(out)
    }
}

/// An object's `(key, value)` entries (see [`JsonRef::as_object`]).
#[derive(Debug, Clone)]
pub struct Members<'a> {
    next: JsonRef<'a>,
    remaining: usize,
}

impl<'a> Iterator for Members<'a> {
    type Item = (&'a str, JsonRef<'a>);

    fn next(&mut self) -> Option<(&'a str, JsonRef<'a>)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let key = self.next;
        let value = key.at_index(key.index + 1);
        self.next = value.at_index(value.next_index());
        Some((key.as_str().expect("object keys are strings"), value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Members<'_> {}

mod sealed {
    pub trait Sealed {}
}

/// A value that appends itself to a tape as exactly one JSON value:
/// numbers, bools, strings, documents, and the in-place [`array()`] and
/// [`object_with`]. `collect`, [`object`], [`array()`] and
/// [`ObjectWriter::field`] take any of them, so a list of ids builds
/// without a document per id.
pub trait IntoJson: sealed::Sealed {
    #[doc(hidden)]
    fn append_to(self, doc: &mut JsonValue);
}

impl sealed::Sealed for JsonValue {}

impl IntoJson for JsonValue {
    fn append_to(self, doc: &mut JsonValue) {
        doc.append(&self);
    }
}

impl sealed::Sealed for bool {}

impl IntoJson for bool {
    fn append_to(self, doc: &mut JsonValue) {
        doc.nodes.push(Node::Bool(self));
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        Self::build(b)
    }
}

macro_rules! number_into_json {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}

        impl IntoJson for $t {
            fn append_to(self, doc: &mut JsonValue) {
                doc.nodes.push(Node::Number(self as f64));
            }
        }

        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                Self::build(n)
            }
        }
    )*};
}

number_into_json!(f64, u32, i32, u64, usize);

impl sealed::Sealed for &str {}

impl IntoJson for &str {
    fn append_to(self, doc: &mut JsonValue) {
        doc.push_str(self);
    }
}

impl sealed::Sealed for String {}

impl IntoJson for String {
    fn append_to(self, doc: &mut JsonValue) {
        doc.push_str(&self);
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        Self::build(s)
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        Self::build(s)
    }
}

/// Builds an array, appending each item to one tape.
impl<T: IntoJson> FromIterator<T> for JsonValue {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::build(array(iter))
    }
}

/// Builds an object from `(key, value)` pairs, preserving order.
///
/// ```
/// use hyrec_wire::json::{object, JsonValue};
/// let o = object([("a", JsonValue::from(1u32)), ("b", JsonValue::from("x"))]);
/// assert_eq!(o.to_string(), r#"{"a":1,"b":"x"}"#);
/// ```
pub fn object<K, V, I>(entries: I) -> JsonValue
where
    K: AsRef<str>,
    V: IntoJson,
    I: IntoIterator<Item = (K, V)>,
{
    JsonValue::build(object_with(|o| {
        for (key, value) in entries {
            o.field(key.as_ref(), value);
        }
    }))
}

/// An array of `items` that appends them straight into the tape it is
/// appended to. Nested with [`object_with`], a whole message builds in
/// one pass: no value is built as a document of its own and copied.
pub fn array<I>(items: I) -> Array<I::IntoIter>
where
    I: IntoIterator,
    I::Item: IntoJson,
{
    Array(items.into_iter())
}

/// See [`array()`].
#[derive(Debug, Clone)]
pub struct Array<I>(I);

impl<I> sealed::Sealed for Array<I> {}

impl<I> IntoJson for Array<I>
where
    I: Iterator,
    I::Item: IntoJson,
{
    fn append_to(self, doc: &mut JsonValue) {
        let at = doc.open(Node::Array { len: 0, span: 0 });
        doc.nodes.reserve(self.0.size_hint().0);
        let mut len = 0;
        for item in self.0 {
            item.append_to(doc);
            len += 1;
        }
        doc.close(at, len);
    }
}

/// An object whose members `fill` appends, through an [`ObjectWriter`],
/// straight into the tape the object is appended to (see [`array()`]).
///
/// ```
/// use hyrec_wire::json::{array, object_with, JsonValue};
/// let doc = JsonValue::from(object_with(|o| {
///     o.field("uid", 7u32).field("liked", array([1u32, 2]));
/// }));
/// assert_eq!(doc.to_string(), r#"{"uid":7,"liked":[1,2]}"#);
/// ```
pub fn object_with<F: FnOnce(&mut ObjectWriter<'_>)>(fill: F) -> ObjectWith<F> {
    ObjectWith(fill)
}

/// See [`object_with`].
pub struct ObjectWith<F>(F);

/// Appends an object's members in order (see [`object_with`]).
pub struct ObjectWriter<'a> {
    doc: &'a mut JsonValue,
    len: usize,
}

impl ObjectWriter<'_> {
    /// Appends the member `key: value`.
    pub fn field(&mut self, key: &str, value: impl IntoJson) -> &mut Self {
        self.doc.push_str(key);
        value.append_to(self.doc);
        self.len += 1;
        self
    }
}

impl<F> sealed::Sealed for ObjectWith<F> {}

impl<F: FnOnce(&mut ObjectWriter<'_>)> IntoJson for ObjectWith<F> {
    fn append_to(self, doc: &mut JsonValue) {
        let at = doc.open(Node::Object { len: 0, span: 0 });
        let mut writer = ObjectWriter { doc, len: 0 };
        (self.0)(&mut writer);
        let len = writer.len;
        doc.close(at, len);
    }
}

impl<F: FnOnce(&mut ObjectWriter<'_>)> From<ObjectWith<F>> for JsonValue {
    fn from(object: ObjectWith<F>) -> Self {
        Self::build(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let doc =
            JsonValue::parse(r#"{"n": 3, "s": "hi", "b": true, "z": null, "a": [1.5]}"#).unwrap();
        let v = doc.root();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("z").unwrap().is_null());
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_u64(), None);
        assert!(v.get("a").unwrap().at(1).is_none());
        assert!(v.get("missing").is_none());
        assert!(v.at(0).is_none());
        assert!(v.get("n").unwrap().get("n").is_none());
    }

    #[test]
    fn integer_accessors_reject_fractions_and_out_of_range() {
        let u = |x: f64| JsonValue::from(x).root().as_u64();
        let i = |x: f64| JsonValue::from(x).root().as_i64();
        assert_eq!(u(0.0), Some(0));
        assert_eq!(u(-0.0), Some(0));
        assert_eq!(u(2f64.powi(53)), Some(1 << 53));
        assert_eq!(u(2f64.powi(53) + 2.0), None);
        assert_eq!(u(0.5), None);
        assert_eq!(u(-1.0), None);
        assert_eq!(u(f64::NAN), None);
        assert_eq!(u(f64::INFINITY), None);
        assert_eq!(i(-(2f64.powi(53))), Some(-(1 << 53)));
        assert_eq!(i(-2.5), None);
        assert_eq!(i(f64::NEG_INFINITY), None);
    }

    #[test]
    fn negative_numbers() {
        let v = JsonValue::parse("-4").unwrap();
        assert_eq!(v.root().as_i64(), Some(-4));
        assert_eq!(v.root().as_u64(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(JsonValue::from(true).root().as_bool(), Some(true));
        assert_eq!(JsonValue::from(3u32).root().as_u64(), Some(3));
        assert_eq!(JsonValue::from("x").root().as_str(), Some("x"));
        assert!(JsonValue::null().root().is_null());
        let arr: JsonValue = [1u32, 2, 3].into_iter().collect();
        assert_eq!(arr.root().as_array().unwrap().len(), 3);
        assert_eq!(arr, JsonValue::parse("[1,2,3]").unwrap());
    }

    #[test]
    fn object_preserves_order() {
        let o = object([("z", JsonValue::from(1u32)), ("a", JsonValue::from(2u32))]);
        assert_eq!(o.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn nodes_are_sixteen_bytes_and_containers_skip_their_subtrees() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
        let doc = JsonValue::parse(r#"{"a":[[1,2],{"b":"x"}],"c":3}"#).unwrap();
        assert_eq!(doc.nodes[0], Node::Object { len: 2, span: 11 });
        assert_eq!(doc.nodes[2], Node::Array { len: 2, span: 7 });
        assert_eq!(doc.root().get("c").unwrap().as_u64(), Some(3));
        assert_eq!(doc.strings, "abxc");
    }

    #[test]
    fn built_documents_nest_and_equal_their_parse() {
        let inner = object([("s", "é"), ("t", "\"")]);
        let doc = object([
            ("x", inner.clone()),
            ("y", ["p", "q"].into_iter().collect()),
            ("z", JsonValue::null()),
        ]);
        let text = doc.to_string();
        assert_eq!(text, r#"{"x":{"s":"é","t":"\""},"y":["p","q"],"z":null}"#);
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        let x = doc.root().get("x").unwrap();
        assert_eq!(x.get("t").unwrap().as_str(), Some("\""));
        assert_eq!(x.to_string(), inner.to_string());
        let keys: Vec<&str> = doc.root().as_object().unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, ["x", "y", "z"]);
    }
}
