//! HTTP/1.1 request parsing.

use crate::response::Response;
use std::collections::HashMap;
use std::fmt;

/// Maximum accepted header block size (DoS guard).
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Maximum accepted body size (DoS guard).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why bytes can never frame a valid request. Either way the server
/// answers and closes the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The declared `Content-Length` is over the body cap: `413 Payload
    /// Too Large`.
    BodyTooLarge,
    /// Malformed or otherwise oversized: `400 Bad Request` naming the
    /// reason.
    Malformed(String),
}

impl FrameError {
    /// The response that answers the unframable request.
    #[must_use]
    pub fn response(&self) -> Response {
        match self {
            FrameError::BodyTooLarge => Response::payload_too_large(&self.to_string()),
            FrameError::Malformed(reason) => Response::bad_request(reason),
        }
    }
}

impl From<String> for FrameError {
    fn from(reason: String) -> Self {
        FrameError::Malformed(reason)
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BodyTooLarge => write!(f, "body larger than {MAX_BODY_BYTES} bytes"),
            FrameError::Malformed(reason) => f.write_str(reason),
        }
    }
}

impl std::error::Error for FrameError {}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased.
    pub method: String,
    /// Path portion of the target, percent-decoding *not* applied (the
    /// HyRec API uses plain ASCII ids only).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header map, names lowercased.
    pub headers: HashMap<String, String>,
    /// Raw body bytes (already length-delimited by `Content-Length`).
    pub body: Vec<u8>,
    /// Minor HTTP/1.x version from the request line (`0` for HTTP/1.0,
    /// `1` for HTTP/1.1) — one input to [`Request::wants_keep_alive`].
    pub minor_version: u8,
}

impl Request {
    /// First query value for `key`, if present.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value (name case-insensitive).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Whether the client asked to keep the connection open after this
    /// request: an explicit `Connection` header wins (token list,
    /// case-insensitive), otherwise HTTP/1.1 defaults to keep-alive and
    /// HTTP/1.0 to close.
    ///
    /// The reactor combines this with its own limits
    /// (max-requests-per-connection, shutdown) to choose each response's
    /// [`crate::response::Disposition`].
    #[must_use]
    pub fn wants_keep_alive(&self) -> bool {
        if let Some(value) = self.header("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    return false;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    return true;
                }
            }
        }
        self.minor_version >= 1
    }

    /// One-shot incremental parse over an accumulation buffer: returns
    /// `Ok(None)` when `buf` does not yet hold a complete request (read
    /// more and call again), `Ok(Some((request, consumed)))` when a full
    /// request occupies the first `consumed` bytes, and `Err` when the
    /// buffer can never become a valid request (oversized or malformed —
    /// respond with [`FrameError::response`] and close).
    ///
    /// Calling this on a buffer that grows a few bytes at a time rescans it
    /// from the start on every call; a connection's read loop uses
    /// [`Request::try_parse_resuming`] instead.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on malformed or oversized input.
    pub fn try_parse(buf: &[u8]) -> Result<Option<(Request, usize)>, FrameError> {
        Self::try_parse_resuming(buf, &mut FrameCursor::default())
    }

    /// [`Request::try_parse`] that resumes where the previous call on the
    /// same buffer stopped, so framing costs time linear in the bytes
    /// received however the network splits them: the `\r\n\r\n` search
    /// continues from the cursor, and once the head is complete later calls
    /// only compare the buffer length against the frame length.
    ///
    /// Between calls the caller may only append to `buf`. After
    /// `Ok(Some((_, consumed)))` the cursor is reset and the caller drains
    /// the first `consumed` bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on malformed or oversized input.
    pub fn try_parse_resuming(
        buf: &[u8],
        cursor: &mut FrameCursor,
    ) -> Result<Option<(Request, usize)>, FrameError> {
        if cursor.frame_len == 0 {
            // A terminator straddling the previous end starts at most three
            // bytes before it.
            let Some(offset) = find_subsequence(&buf[cursor.scanned..], b"\r\n\r\n") else {
                if buf.len() > MAX_HEADER_BYTES {
                    return Err("header block too large".to_owned().into());
                }
                cursor.scanned = buf.len().saturating_sub(3);
                return Ok(None);
            };
            let head_end = cursor.scanned + offset;
            if head_end > MAX_HEADER_BYTES {
                return Err("header block too large".to_owned().into());
            }
            cursor.head_len = head_end + 4;
            cursor.frame_len = cursor.head_len + declared_body_len(&buf[..head_end])?;
        }
        if buf.len() < cursor.frame_len {
            return Ok(None);
        }
        let frame = std::mem::take(cursor);
        parse_frame(&buf[..frame.frame_len], frame.head_len)
            .map(|request| Some((request, frame.frame_len)))
    }
}

/// How far framing got on a connection's rolling buffer, carried between
/// [`Request::try_parse_resuming`] calls so no byte is scanned twice.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrameCursor {
    /// Offset where the search for the head's `\r\n\r\n` resumes.
    scanned: usize,
    /// Head length through the blank line; set once the head is complete.
    head_len: usize,
    /// Head plus declared body; `0` until the head is complete.
    frame_len: usize,
}

impl FrameCursor {
    /// Where the next call picks up: the head-search offset while the head
    /// is incomplete, then the length the buffer must reach to hold the
    /// whole frame.
    #[must_use]
    pub fn resume_point(&self) -> usize {
        if self.frame_len == 0 {
            self.scanned
        } else {
            self.frame_len
        }
    }
}

/// First offset of `needle` in `haystack`, if any.
fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// The body length a complete head declares: its `Content-Length`, matched
/// case-insensitively on every line of the head. Identical repeats collapse
/// to one; occurrences whose *raw values* disagree are refused, because two
/// peers picking different occurrences would frame a pipelined stream
/// differently (request smuggling). Values are compared textually, before
/// parsing, so `07` vs `7` is already a conflict. A missing or unparsable
/// value frames no body ([`parse_frame`] rejects the unparsable one).
fn declared_body_len(head: &[u8]) -> Result<usize, FrameError> {
    let mut seen: Option<&str> = None;
    for line in head.split(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(line) else {
            continue;
        };
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                if seen.is_some_and(|previous| previous != value) {
                    return Err("conflicting content-length headers".to_owned().into());
                }
                seen = Some(value);
            }
        }
    }
    match seen.and_then(|value| value.parse::<usize>().ok()) {
        Some(len) if len > MAX_BODY_BYTES => Err(FrameError::BodyTooLarge),
        len => Ok(len.unwrap_or(0)),
    }
}

/// Parses a complete frame: the request line, then header lines up to the
/// first blank one (lines end at `\n`, trailing whitespace trimmed), then
/// `Content-Length` bytes of body after it. The first `head_len` bytes
/// hold the head.
fn parse_frame(frame: &[u8], head_len: usize) -> Result<Request, FrameError> {
    let head = &frame[..head_len];
    let mut at = 0;
    let line = next_line(head, &mut at)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_owned())?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| "missing request target".to_owned())?;
    let version = parts
        .next()
        .ok_or_else(|| "missing http version".to_owned())?;
    let minor_version = version
        .strip_prefix("HTTP/1.")
        .and_then(|minor| minor.parse::<u8>().ok())
        .ok_or_else(|| format!("unsupported version {version}"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query(q)),
        None => (target.to_owned(), Vec::new()),
    };

    let mut headers = HashMap::new();
    loop {
        let line = next_line(head, &mut at)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
        }
    }

    // `declared_body_len` framed this same value (it refuses conflicting
    // or over-cap ones), so the body lies within the frame.
    let body = match headers.get("content-length") {
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| "invalid content-length".to_owned())?;
            frame
                .get(at..at + len)
                .ok_or_else(|| "truncated body".to_owned())?
                .to_vec()
        }
        None => Vec::new(),
    };

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        minor_version,
    })
}

/// The line of `head` starting at `*at` (through `\n`, or to the end),
/// trailing whitespace trimmed; advances `*at` past it.
fn next_line<'a>(head: &'a [u8], at: &mut usize) -> Result<&'a str, FrameError> {
    let rest = &head[*at..];
    let len = rest
        .iter()
        .position(|&b| b == b'\n')
        .map_or(rest.len(), |i| i + 1);
    *at += len;
    std::str::from_utf8(&rest[..len])
        .map(str::trim_end)
        .map_err(|_| "header line is not UTF-8".to_owned().into())
}

/// Decodes `k=v&k2=v2` with percent-encoding and `+`-as-space.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a buffer that must hold exactly one complete request.
    fn parse_str(s: &str) -> Result<Request, FrameError> {
        let (request, consumed) = Request::try_parse(s.as_bytes())?.expect("a complete frame");
        assert_eq!(consumed, s.len());
        Ok(request)
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse_str("GET /online/?uid=42&k=10 HTTP/1.1\r\nHost: hyrec\r\nAccept: */*\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/online/");
        assert_eq!(req.query_param("uid"), Some("42"));
        assert_eq!(req.query_param("k"), Some("10"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("hyrec"));
        assert_eq!(req.header("HOST"), Some("hyrec"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_str("POST /neighbors/ HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn percent_decoding() {
        let req = parse_str("GET /x?name=a%20b+c&odd=%zz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("name"), Some("a b c"));
        // Invalid escapes pass through.
        assert_eq!(req.query_param("odd"), Some("%zz"));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(Request::try_parse(b""), Ok(None));
        assert!(parse_str("\r\n\r\n").is_err());
        assert!(parse_str("GET\r\n\r\n").is_err());
        assert!(parse_str("GET /x\r\n\r\n").is_err());
        assert!(parse_str("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse_str("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn try_parse_incremental_framing() {
        let full = b"POST /neighbors/ HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloEXTRA";
        // Every strict prefix of the frame is Partial.
        for cut in 0..full.len() - 5 {
            assert_eq!(
                Request::try_parse(&full[..cut]).unwrap(),
                None,
                "cut at {cut}"
            );
        }
        // The complete frame parses and reports the consumed length,
        // excluding trailing pipelined bytes.
        let (request, consumed) = Request::try_parse(full).unwrap().unwrap();
        assert_eq!(consumed, full.len() - 5);
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn try_parse_no_body_and_case_insensitive_length() {
        let raw = b"GET /online/?uid=3 HTTP/1.1\r\nhost: x\r\n\r\n";
        let (request, consumed) = Request::try_parse(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(request.query_param("uid"), Some("3"));

        let raw = b"POST /x HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nok";
        let (request, _) = Request::try_parse(raw).unwrap().unwrap();
        assert_eq!(request.body, b"ok");
    }

    #[test]
    fn try_parse_rejects_oversized_and_malformed() {
        // Unterminated header block beyond the cap is an error, not Partial.
        let huge = vec![b'a'; MAX_HEADER_BYTES + 1];
        assert!(Request::try_parse(&huge).is_err());
        // Declared body beyond the cap is rejected before buffering it.
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(Request::try_parse(raw.as_bytes()).is_err());
        // A malformed request line errors once the header block is complete.
        assert!(Request::try_parse(b"NONSENSE\r\n\r\n").is_err());
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        // Mismatched duplicates are the smuggling shape: refuse to frame.
        let raw =
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nGET /smuggled";
        assert!(Request::try_parse(raw.as_bytes()).is_err());
        // Textual disagreement counts even when the numbers agree: another
        // parser normalizing `07` differently would frame differently.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 07\r\n\r\n7 bytes";
        assert!(Request::try_parse(raw.as_bytes()).is_err());
        // The error is final, not a plea for more bytes: a truncated buffer
        // that already shows the conflict must not parse as Partial.
        let head_only = "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\n";
        assert!(Request::try_parse(head_only.as_bytes()).is_err());
    }

    #[test]
    fn identical_duplicate_content_lengths_collapse() {
        // RFC 7230 §3.3.2 allows collapsing identical repeats.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhelloEXTRA";
        let (request, consumed) = Request::try_parse(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, raw.len() - 5);
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn keep_alive_negotiation() {
        // HTTP/1.1 defaults to keep-alive; an explicit close wins.
        assert!(parse_str("GET /x HTTP/1.1\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
        assert!(!parse_str("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
        assert!(!parse_str("GET /x HTTP/1.1\r\nconnection: CLOSE\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
        // HTTP/1.0 defaults to close; an explicit keep-alive wins.
        let old = parse_str("GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(old.minor_version, 0);
        assert!(!old.wants_keep_alive());
        assert!(
            parse_str("GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .wants_keep_alive()
        );
        // Token lists are scanned, not string-matched.
        assert!(
            !parse_str("GET /x HTTP/1.1\r\nConnection: upgrade, close\r\n\r\n")
                .unwrap()
                .wants_keep_alive()
        );
    }

    #[test]
    fn try_parse_preserves_pipelined_bytes() {
        // Two requests back to back: the first frame ends exactly where the
        // second begins, and the second parses intact from there.
        let raw: &[u8] = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let (first, consumed) = Request::try_parse(raw).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let (second, rest) = Request::try_parse(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn rejects_truncated_body() {
        // A short body never frames: it waits for the rest, not a request.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert_eq!(Request::try_parse(raw), Ok(None));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let req = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            Request::try_parse(req.as_bytes()),
            Err(FrameError::BodyTooLarge)
        );
    }
}
