//! Framing input comes straight from a socket, so `Request::try_parse`
//! (the reactor's read path) and `Response::try_parse` (the client's) must
//! never panic and never claim more bytes than they were given, whatever
//! the bytes: arbitrary ones, HTTP-shaped token soup, and valid pipelined
//! streams that are truncated or mutated. Every strict prefix of a valid
//! message is incomplete (`Ok(None)`), never an error or a short frame.
//!
//! The request parser is also checked against [`reference`], the
//! two-stage parser it replaced (a `Content-Length` scan to frame, then a
//! `BufRead` parser over the frame): on every input both must accept or
//! reject alike, with the same error status, `Request` and frame length —
//! also when the bytes arrive one at a time through a resumed
//! [`FrameCursor`], whose framing must stay linear in the bytes received.

use hyrec_http::{Disposition, FrameCursor, FrameError, Request, Response};
use proptest::prelude::*;

/// The request parser the reactor used before framing became one pass
/// over the buffer, kept as the reference the one parser must match.
mod reference {
    use hyrec_http::{FrameError, Request};
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader};

    const MAX_HEADER_BYTES: usize = 64 * 1024;
    const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

    /// Frames with a light `Content-Length` scan, then re-parses the frame.
    pub fn try_parse(buf: &[u8]) -> Result<Option<(Request, usize)>, FrameError> {
        let Some(head_end) = find_subsequence(buf, b"\r\n\r\n") else {
            if buf.len() > MAX_HEADER_BYTES {
                return Err("header block too large".to_owned().into());
            }
            return Ok(None);
        };
        if head_end > MAX_HEADER_BYTES {
            return Err("header block too large".to_owned().into());
        }
        let body_len = content_length(&buf[..head_end])
            .map_err(|()| "conflicting content-length headers".to_owned())?
            .unwrap_or(0);
        if body_len > MAX_BODY_BYTES {
            return Err(FrameError::BodyTooLarge);
        }
        let total = head_end + 4 + body_len;
        if buf.len() < total {
            return Ok(None);
        }
        read_request(&mut BufReader::new(&buf[..total])).map(|request| Some((request, total)))
    }

    fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack
            .windows(needle.len())
            .position(|window| window == needle)
    }

    fn content_length(head: &[u8]) -> Result<Option<usize>, ()> {
        let mut seen: Option<&str> = None;
        for line in head.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(line) else {
                continue;
            };
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    let value = value.trim();
                    if seen.is_some_and(|previous| previous != value) {
                        return Err(());
                    }
                    seen = Some(value);
                }
            }
        }
        Ok(seen.and_then(|value| value.parse().ok()))
    }

    /// Reads one request from a buffered stream.
    fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, FrameError> {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read error: {e}"))?;
        let line = line.trim_end();
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
        let mut header_bytes = 0usize;
        loop {
            let mut header_line = String::new();
            reader
                .read_line(&mut header_line)
                .map_err(|e| format!("header read error: {e}"))?;
            header_bytes += header_line.len();
            if header_bytes > MAX_HEADER_BYTES {
                return Err("header block too large".to_owned().into());
            }
            let header_line = header_line.trim_end();
            if header_line.is_empty() {
                break;
            }
            if let Some((name, value)) = header_line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_owned();
                if name == "content-length" {
                    if let Some(previous) = headers.get(&name) {
                        if previous != &value {
                            return Err("conflicting content-length headers".to_owned().into());
                        }
                    }
                }
                headers.insert(name, value);
            }
        }

        let body = match headers.get("content-length") {
            Some(len) => {
                let len: usize = len
                    .parse()
                    .map_err(|_| "invalid content-length".to_owned())?;
                if len > MAX_BODY_BYTES {
                    return Err(FrameError::BodyTooLarge);
                }
                let mut body = vec![0u8; len];
                reader
                    .read_exact(&mut body)
                    .map_err(|e| format!("body read error: {e}"))?;
                body
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
}

/// A framing outcome with the error reduced to the status it answers
/// (413 vs 400); the reason text is free to differ.
type Outcome = Result<Option<(Request, usize)>, u16>;

fn outcome(result: Result<Option<(Request, usize)>, FrameError>) -> Outcome {
    result.map_err(|err| err.response().status)
}

/// Frames `bytes` as a pipelined stream the way the reactor does, once
/// one-shot per frame and once fed a byte at a time through a resumed
/// cursor, and checks both against the reference at every step.
fn agrees_with_reference(bytes: &[u8]) -> Result<(), TestCaseError> {
    // One-shot, frame by frame.
    let mut rest = bytes;
    loop {
        let expected = outcome(reference::try_parse(rest));
        prop_assert_eq!(&outcome(Request::try_parse(rest)), &expected);
        match expected {
            Ok(Some((_, consumed))) => rest = &rest[consumed..],
            _ => break,
        }
    }
    // Byte at a time: every prefix of the unconsumed buffer.
    let mut buf = Vec::new();
    let mut cursor = FrameCursor::default();
    for &byte in bytes {
        buf.push(byte);
        let expected = outcome(reference::try_parse(&buf));
        prop_assert_eq!(
            &outcome(Request::try_parse_resuming(&buf, &mut cursor)),
            &expected
        );
        match expected {
            Ok(Some((_, consumed))) => {
                buf.drain(..consumed);
            }
            Ok(None) => {}
            Err(_) => break,
        }
    }
    Ok(())
}

/// Frames `buf` the way the reactor does: parse, drain, repeat until
/// the buffer is incomplete or unframable. Returns the frames taken.
fn frame_requests(buf: &[u8]) -> usize {
    let mut rest = buf;
    let mut frames = 0;
    while let Ok(Some((_, consumed))) = Request::try_parse(rest) {
        assert!(
            consumed > 0 && consumed <= rest.len(),
            "consumed {consumed} of {}",
            rest.len()
        );
        rest = &rest[consumed..];
        frames += 1;
    }
    frames
}

/// As [`frame_requests`], for the client's response stream.
fn frame_responses(buf: &[u8]) -> usize {
    let mut rest = buf;
    let mut frames = 0;
    while let Ok(Some((_, consumed))) = Response::try_parse(rest) {
        assert!(
            consumed > 0 && consumed <= rest.len(),
            "consumed {consumed} of {}",
            rest.len()
        );
        rest = &rest[consumed..];
        frames += 1;
    }
    frames
}

/// One valid request: a `GET` of the Table 1 routes or a `POST` with a
/// body, optionally asking to close.
fn request(kind: u8, uid: u32, body_len: usize, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let mut out = match kind % 3 {
        0 => format!("GET /online/?uid={uid} HTTP/1.1\r\nHost: x\r\n{connection}\r\n"),
        1 => format!("GET /rate/?uid={uid}&item=7&like=1 HTTP/1.0\r\n{connection}\r\n"),
        _ => format!("POST /neighbors/ HTTP/1.1\r\nContent-Length: {body_len}\r\n{connection}\r\n"),
    }
    .into_bytes();
    if kind % 3 == 2 {
        out.extend((0..body_len).map(|i| (uid as usize + i) as u8));
    }
    out
}

/// One valid response, as the servers write it.
fn response(kind: u8, uid: u32, body_len: usize, close: bool) -> Vec<u8> {
    let body: Vec<u8> = (0..body_len).map(|i| (uid as usize ^ i) as u8).collect();
    let response = match kind % 3 {
        0 => Response::ok("application/json", body),
        1 => Response::bad_request(&format!("bad uid {uid}")),
        _ => Response::payload_too_large("over the cap"),
    };
    let disposition = if close {
        Disposition::Close
    } else {
        Disposition::KeepAlive
    };
    let mut out = Vec::new();
    response.with_disposition(disposition).write_into(&mut out);
    out
}

/// HTTP-shaped pieces, so random sequences reach the header and body
/// paths, including absurd and conflicting lengths.
const TOKENS: &[&str] = &[
    "GET ",
    "POST ",
    "HTTP/1.1 ",
    "/online/?uid=1",
    " HTTP/1.1",
    " HTTP/1.0",
    "HTTP/1.1 200 OK",
    "\r\n",
    "\r\n\r\n",
    "\n",
    "Content-Length: ",
    "content-length:",
    "0",
    "5",
    "07",
    "18446744073709551615",
    "99999999999999999999999",
    "-1",
    "Connection: close",
    ": ",
    "hello",
    "\u{e9}",
    "\u{0}",
];

/// A byte edit: overwrite, insert or delete at a position taken modulo
/// the stream length.
#[derive(Debug, Clone)]
enum Edit {
    Set(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Edit::Set(at, b)),
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Edit::Insert(at, b)),
        any::<usize>().prop_map(Edit::Delete),
    ]
}

fn apply(mut bytes: Vec<u8>, edits: &[Edit], cut: usize) -> Vec<u8> {
    for edit in edits {
        let len = bytes.len();
        match *edit {
            Edit::Set(at, b) if len > 0 => bytes[at % len] = b,
            Edit::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Edit::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            _ => {}
        }
    }
    let keep = cut % (bytes.len() + 1);
    bytes.truncate(keep);
    bytes
}

type Message = (u8, u32, usize, bool);

fn messages() -> impl Strategy<Value = Vec<Message>> {
    proptest::collection::vec((0u8..3, any::<u32>(), 0usize..40, any::<bool>()), 1..5)
}

#[test]
fn over_cap_content_length_is_too_large_on_both_sides() {
    let huge = b"POST /x HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n";
    assert_eq!(Request::try_parse(huge), Err(FrameError::BodyTooLarge));
    assert_eq!(FrameError::BodyTooLarge.response().status, 413);
    assert_eq!(FrameError::Malformed("x".into()).response().status, 400);
    let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n";
    assert!(Response::try_parse(huge).is_err());
}

/// The reference agrees on `bytes`, which parse to `expected`.
fn check(bytes: &[u8], expected: &Outcome) {
    let ours = outcome(Request::try_parse(bytes));
    assert_eq!(&ours, expected, "{:?}", String::from_utf8_lossy(bytes));
    assert_eq!(ours, outcome(reference::try_parse(bytes)));
    agrees_with_reference(bytes).unwrap();
}

/// A `Request` as the parser builds it.
fn request_of(
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    minor: u8,
) -> Request {
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: Vec::new(),
        headers: headers
            .iter()
            .map(|&(name, value)| (name.to_owned(), value.to_owned()))
            .collect(),
        body: body.to_vec(),
        minor_version: minor,
    }
}

#[test]
fn edge_cases_agree_with_the_reference() {
    // Bare-LF line endings: without CRLFCRLF the head never completes…
    check(b"GET /x HTTP/1.1\nHost: a\n\n", &Ok(None));
    // …but lines may still end in a bare LF before the CRLFCRLF.
    let raw = b"GET /x HTTP/1.1\nHost: a\r\n\r\n";
    let expected = request_of("GET", "/x", &[("host", "a")], b"", 1);
    check(raw, &Ok(Some((expected, raw.len()))));
    // A header line without `:` is skipped.
    let raw = b"GET /x HTTP/1.1\r\nno colon here\r\nHost: a\r\n\r\n";
    let expected = request_of("GET", "/x", &[("host", "a")], b"", 1);
    check(raw, &Ok(Some((expected, raw.len()))));
    // Non-UTF-8 header bytes are a 400.
    check(b"GET /x HTTP/1.1\r\nX-A: \xff\xfe\r\n\r\n", &Err(400));
    check(b"GET /\xff HTTP/1.1\r\n\r\n", &Err(400));
    // HTTP/1.x is accepted with its minor version; anything else is a 400.
    for (version, minor) in [("HTTP/1.0", 0), ("HTTP/1.1", 1)] {
        let raw = format!("GET /x {version}\r\n\r\n");
        let expected = request_of("GET", "/x", &[], b"", minor);
        check(raw.as_bytes(), &Ok(Some((expected, raw.len()))));
    }
    check(b"GET /x HTTP/2.0\r\n\r\n", &Err(400));
    // Identical duplicate Content-Length collapses; conflicting ones are a
    // 400 as soon as the head is complete.
    let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi";
    let expected = request_of("POST", "/x", &[("content-length", "2")], b"hi", 1);
    check(raw, &Ok(Some((expected, raw.len()))));
    check(
        b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
        &Err(400),
    );
    // An empty body declared with `Content-Length: 0`.
    let raw = b"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET";
    let expected = request_of("POST", "/x", &[("content-length", "0")], b"", 1);
    check(raw, &Ok(Some((expected, raw.len() - 3))));
    // A whitespace-only line ends the header block early; the frame still
    // ends at the CRLFCRLF and carries the later-declared length.
    let raw = b"GET /x HTTP/1.1\r\n \r\nContent-Length: 2\r\n\r\nhi";
    let expected = request_of("GET", "/x", &[], b"", 1);
    check(raw, &Ok(Some((expected, raw.len()))));
    // A length declared before such a line counts its body from there.
    let raw = b"GET /x HTTP/1.1\r\nContent-Length: 2\r\n \r\nab\r\n\r\nhi";
    let expected = request_of("GET", "/x", &[("content-length", "2")], b"ab", 1);
    check(raw, &Ok(Some((expected, raw.len()))));
}

#[test]
fn byte_at_a_time_framing_is_linear() {
    // A ~61 KB head, then a body, fed one byte per call: the cursor must
    // never fall more than three bytes behind the buffer (so no byte is
    // rescanned), and the result must equal a one-shot parse.
    let mut wire = String::from("POST /neighbors/ HTTP/1.1\r\nHost: x\r\n");
    while wire.len() < 61_000 {
        wire.push_str("X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    wire.push_str("Content-Length: 4096\r\n\r\n");
    let mut wire = wire.into_bytes();
    wire.extend((0..4096u32).map(|i| i as u8));
    let one_shot = Request::try_parse(&wire).unwrap().unwrap();

    let mut buf = Vec::with_capacity(wire.len());
    let mut cursor = FrameCursor::default();
    for (i, &byte) in wire.iter().enumerate() {
        buf.push(byte);
        match Request::try_parse_resuming(&buf, &mut cursor).unwrap() {
            None => assert!(
                cursor.resume_point() + 3 >= buf.len(),
                "cursor at {} after {} bytes",
                cursor.resume_point(),
                buf.len()
            ),
            Some(parsed) => {
                assert_eq!(i + 1, wire.len(), "framed early");
                assert_eq!(parsed, one_shot);
                assert_eq!(cursor, FrameCursor::default(), "cursor not reset");
                return;
            }
        }
    }
    panic!("never framed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_like_the_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        agrees_with_reference(&bytes)?;
    }

    #[test]
    fn token_soup_parses_like_the_reference(
        tokens in proptest::collection::vec(0..TOKENS.len(), 0..24),
    ) {
        let text: String = tokens.into_iter().map(|i| TOKENS[i]).collect();
        agrees_with_reference(text.as_bytes())?;
    }

    #[test]
    fn mutated_pipelines_parse_like_the_reference(
        list in messages(),
        edits in proptest::collection::vec(edit(), 1..6),
        cut in any::<usize>(),
    ) {
        let requests: Vec<u8> = list
            .iter()
            .flat_map(|&(kind, uid, len, close)| request(kind, uid, len, close))
            .collect();
        agrees_with_reference(&apply(requests, &edits, cut))?;
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        frame_requests(&bytes);
        frame_responses(&bytes);
    }

    #[test]
    fn token_soup_never_panics(tokens in proptest::collection::vec(0..TOKENS.len(), 0..24)) {
        let text: String = tokens.into_iter().map(|i| TOKENS[i]).collect();
        frame_requests(text.as_bytes());
        frame_responses(text.as_bytes());
    }

    #[test]
    fn strict_prefixes_of_requests_are_incomplete(list in messages()) {
        let wire: Vec<Vec<u8>> = list
            .iter()
            .map(|&(kind, uid, len, close)| request(kind, uid, len, close))
            .collect();
        let first = wire[0].len();
        let stream = wire.concat();
        for cut in 0..first {
            prop_assert!(matches!(Request::try_parse(&stream[..cut]), Ok(None)), "cut {}", cut);
        }
        let (_, consumed) = Request::try_parse(&stream).unwrap().unwrap();
        prop_assert_eq!(consumed, first);
        prop_assert_eq!(frame_requests(&stream), wire.len());
    }

    #[test]
    fn strict_prefixes_of_responses_are_incomplete(list in messages()) {
        let wire: Vec<Vec<u8>> = list
            .iter()
            .map(|&(kind, uid, len, close)| response(kind, uid, len, close))
            .collect();
        let first = wire[0].len();
        let stream = wire.concat();
        for cut in 0..first {
            prop_assert!(matches!(Response::try_parse(&stream[..cut]), Ok(None)), "cut {}", cut);
        }
        let (_, consumed) = Response::try_parse(&stream).unwrap().unwrap();
        prop_assert_eq!(consumed, first);
        prop_assert_eq!(frame_responses(&stream), wire.len());
    }

    #[test]
    fn mutated_pipelines_never_panic(
        list in messages(),
        edits in proptest::collection::vec(edit(), 1..6),
        cut in any::<usize>(),
    ) {
        let requests: Vec<u8> = list
            .iter()
            .flat_map(|&(kind, uid, len, close)| request(kind, uid, len, close))
            .collect();
        frame_requests(&apply(requests, &edits, cut));
        let responses: Vec<u8> = list
            .iter()
            .flat_map(|&(kind, uid, len, close)| response(kind, uid, len, close))
            .collect();
        frame_responses(&apply(responses, &edits, cut));
    }
}
