//! # hyrec-wire
//!
//! The wire substrate of the HyRec reproduction, built entirely from scratch:
//!
//! * [`json`] — a parsed JSON document stored as a flat tape, plus the
//!   byte writers messages are serialized with. The paper's implementation
//!   exchanges Jackson-produced JSON between the J2EE server and the jQuery
//!   widget (Section 4.2); our output has the same compact shape, so
//!   message-size measurements (Figure 10) are faithful.
//! * [`deflate`] — a DEFLATE (RFC 1951) compressor and decompressor: LZ77
//!   hash-chain matching plus fixed and dynamic Huffman blocks.
//! * [`gzip`] — gzip (RFC 1952) framing with CRC-32, the on-the-fly
//!   `Content-Encoding: gzip` the paper's server applies to every response.
//! * [`messages`] — the personalization-job and KNN-update schemas of the
//!   HyRec web API (Table 1): the one place that writes their JSON text
//!   (the server's job encoder caches pieces from the same writers), the
//!   decoders, and exact byte accounting for the bandwidth experiments.
//!
//! ## Why from scratch?
//!
//! The evaluation hinges on wire-level quantities: "the size of JSON messages
//! grows almost linearly with the size of profiles … compression of around
//! 71%" (Section 5.5). Owning the codec and the compressor means those
//! numbers come out of *this* code, not a black-box dependency, and the
//! widget-side decoder stays trivially `wasm32`-compatible.
//!
//! ```
//! use hyrec_wire::json::{JsonRef, JsonValue};
//! use hyrec_wire::gzip;
//!
//! let doc = JsonValue::parse(r#"{"uid": 3, "profile": [1, 2, 3]}"#)?;
//! assert_eq!(doc.root().get("uid").and_then(JsonRef::as_u64), Some(3));
//!
//! let raw = doc.to_string().into_bytes();
//! let packed = gzip::compress(&raw);
//! assert_eq!(gzip::decompress(&packed)?, raw);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod deflate;
pub mod error;
pub mod gzip;
pub mod json;
pub mod messages;

pub use error::WireError;
pub use json::JsonValue;
pub use messages::{KnnUpdate, PersonalizationJob};
