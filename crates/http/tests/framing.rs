//! Framing input comes straight from a socket, so `Request::try_parse`
//! (the reactor's read path) and `Response::try_parse` (the client's) must
//! never panic and never claim more bytes than they were given, whatever
//! the bytes: arbitrary ones, HTTP-shaped token soup, and valid pipelined
//! streams that are truncated or mutated. Every strict prefix of a valid
//! message is incomplete (`Ok(None)`), never an error or a short frame.

use hyrec_http::{Disposition, FrameError, Request, Response};
use proptest::prelude::*;

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
    assert_eq!(Request::parse(&huge[..]), Err(FrameError::BodyTooLarge));
    assert_eq!(FrameError::BodyTooLarge.response().status, 413);
    assert_eq!(FrameError::Malformed("x".into()).response().status, 400);
    let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n";
    assert!(Response::try_parse(huge).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
