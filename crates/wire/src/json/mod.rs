//! JSON on the wire: a parsed document, plus the byte writers the message
//! encoders append with.
//!
//! Mirrors what the paper's stack (Jackson on the server, `JSON.parse` in the
//! browser) does with personalization jobs: order-preserving objects, UTF-8
//! text, no streaming. Output is compact JSON (no whitespace) — the same
//! shape the paper measures in Figure 10 before gzip.
//!
//! Messages are never built as documents: [`crate::messages`] writes their
//! bytes straight into a buffer with [`push_uint`] and [`push_number`], the
//! same number formatting a document's `Display` uses.
//!
//! A [`JsonValue`] is what [`parse`] returns, a flat tape, not a tree of
//! boxed values:
//!
//! * one `Vec` of 16-byte nodes in document order, the root first;
//! * scalars live in their node, numbers inline as `f64`;
//! * a container node records its number of children and the length of
//!   its subtree, so [`JsonRef::get`] and iteration step over a whole
//!   nested value in O(1); an object's children alternate key, value;
//! * one `String` holds the bytes of every string and key.
//!
//! Reads go through [`JsonRef`], a `Copy` view of one node borrowed from
//! the document. Parsing a personalization job is one pass that appends
//! ~12k number nodes to one buffer; the message decoders then walk the tape
//! and fold each id array straight into its `Vec<ItemId>`.

mod de;
mod ser;

pub use de::parse;
pub use ser::{push_number, push_uint};

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

/// A parsed JSON document.
///
/// Objects keep their members in document order, so `Display` reprints a
/// document's values in the order it was written. Two documents are equal
/// when they hold the same values in the same order.
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

    /// A view of the root value.
    #[must_use]
    pub fn root(&self) -> JsonRef<'_> {
        JsonRef {
            doc: self,
            index: 0,
        }
    }

    fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            strings: String::new(),
        }
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
        let u = |x: &str| JsonValue::parse(x).unwrap().root().as_u64();
        let i = |x: &str| JsonValue::parse(x).unwrap().root().as_i64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("9007199254740992"), Some(1 << 53));
        assert_eq!(u("9007199254740994"), None);
        assert_eq!(u("0.5"), None);
        assert_eq!(u("-1"), None);
        // Past `f64`'s range, a number parses as an infinity.
        assert_eq!(u("1e400"), None);
        assert_eq!(i("-9007199254740992"), Some(-(1 << 53)));
        assert_eq!(i("-2.5"), None);
        assert_eq!(i("-1e400"), None);
    }

    #[test]
    fn negative_numbers() {
        let v = JsonValue::parse("-4").unwrap();
        assert_eq!(v.root().as_i64(), Some(-4));
        assert_eq!(v.root().as_u64(), None);
    }

    #[test]
    fn scalars_and_arrays_read_back() {
        let read = |text: &str| JsonValue::parse(text).unwrap();
        assert_eq!(read("true").root().as_bool(), Some(true));
        assert_eq!(read("3").root().as_u64(), Some(3));
        assert_eq!(read("\"x\"").root().as_str(), Some("x"));
        assert!(read("null").root().is_null());
        let arr = read(" [ 1, 2, 3 ] ");
        assert_eq!(arr.root().as_array().unwrap().len(), 3);
        assert_eq!(arr, read("[1,2,3]"));
    }

    #[test]
    fn object_preserves_order() {
        let o = JsonValue::parse(r#"{ "z": 1, "a": 2 }"#).unwrap();
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
        let inner = r#"{"s":"é","t":"\""}"#;
        let doc = JsonValue::parse(&format!(
            r#"{{ "x": {inner}, "y": [ "p", "q" ], "z": null }}"#
        ))
        .unwrap();
        let text = doc.to_string();
        assert_eq!(text, r#"{"x":{"s":"é","t":"\""},"y":["p","q"],"z":null}"#);
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        let x = doc.root().get("x").unwrap();
        assert_eq!(x.get("t").unwrap().as_str(), Some("\""));
        assert_eq!(x.to_string(), inner);
        let keys: Vec<&str> = doc.root().as_object().unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, ["x", "y", "z"]);
    }
}
