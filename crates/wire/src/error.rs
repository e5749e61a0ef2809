//! Error type for wire-format operations.

use std::error::Error;
use std::fmt;

/// Errors produced while encoding or decoding wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// JSON text failed to parse.
    Json {
        /// Byte offset of the failure in the input.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A DEFLATE stream was malformed.
    Deflate(String),
    /// A gzip frame was malformed (bad magic, flags, CRC or length).
    Gzip(String),
    /// A message had valid JSON but the wrong shape.
    Schema(String),
    /// Decompressed output would pass the caller's size limit.
    TooLarge {
        /// The limit, in bytes.
        limit: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json { offset, message } => {
                write!(f, "json parse error at byte {offset}: {message}")
            }
            WireError::Deflate(msg) => write!(f, "deflate error: {msg}"),
            WireError::Gzip(msg) => write!(f, "gzip error: {msg}"),
            WireError::Schema(msg) => write!(f, "message schema error: {msg}"),
            WireError::TooLarge { limit } => {
                write!(f, "output exceeds size limit of {limit} bytes")
            }
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset() {
        let e = WireError::Json {
            offset: 12,
            message: "unexpected `}`".into(),
        };
        assert!(e.to_string().contains("byte 12"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + Error>() {}
        assert_send_sync::<WireError>();
    }
}
