//! HTTP/1.1 response building and parsing, with optional gzip content
//! encoding and an explicit connection [`Disposition`].

use hyrec_server::JobBody;

/// What happens to the connection after this response — serialized as the
/// `Connection` header.
///
/// Handlers never choose this: the serving front-end decides per request
/// from the parsed `Connection`/HTTP-version fields (see
/// [`crate::Request::wants_keep_alive`]), the connection's
/// max-requests budget and shutdown state, and stamps it onto the response
/// just before serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Disposition {
    /// The connection stays open for further requests.
    #[default]
    KeepAlive,
    /// The connection closes after this response is written.
    Close,
}

/// A response under construction (and, on the client side, as parsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Headers in the order they are written (or were parsed), names
    /// lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes as they will appear on the wire. Empty on a
    /// [`Response::ok_job`], whose body is its job's pieces.
    pub body: Vec<u8>,
    /// Connection lifetime after this response (drives the `Connection`
    /// header on serialization).
    pub disposition: Disposition,
    /// A planned job body, written piece by piece by [`Self::write_into`]
    /// instead of `body`.
    job: Option<JobBody>,
}

impl Response {
    /// A `200 OK` with a body and content type.
    #[must_use]
    pub fn ok(content_type: &str, body: Vec<u8>) -> Self {
        Self {
            status: 200,
            headers: vec![("content-type".to_owned(), content_type.to_owned())],
            body,
            disposition: Disposition::default(),
            job: None,
        }
    }

    /// A JSON `200 OK`, gzip-compressed exactly like the paper's server
    /// ("compressed on the fly by the server using gzip", Section 4.2).
    #[must_use]
    pub fn ok_json_gzip(json_bytes: &[u8]) -> Self {
        Self::ok_pregzipped_json(hyrec_wire::gzip::compress(json_bytes))
    }

    /// A pre-gzipped JSON `200 OK` (body already compressed by the caller).
    #[must_use]
    pub fn ok_pregzipped_json(gzipped: Vec<u8>) -> Self {
        let mut response = Self::ok("application/json", gzipped);
        response
            .headers
            .push(("content-encoding".to_owned(), "gzip".to_owned()));
        response
    }

    /// A personalization job's `200 OK`: the pre-gzipped JSON body of
    /// [`Self::ok_pregzipped_json`], kept as the encoder's planned pieces so
    /// [`Self::write_into`] copies each cached chunk once, straight into
    /// the connection's send buffer.
    #[must_use]
    pub fn ok_job(job: JobBody) -> Self {
        let mut response = Self::ok_pregzipped_json(Vec::new());
        response.job = Some(job);
        response
    }

    /// An error response with a plain-text body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Self {
            status,
            headers: vec![("content-type".to_owned(), "text/plain".to_owned())],
            body: message.as_bytes().to_vec(),
            disposition: Disposition::default(),
            job: None,
        }
    }

    /// `404 Not Found`.
    #[must_use]
    pub fn not_found() -> Self {
        Self::error(404, "not found")
    }

    /// `400 Bad Request` with a reason.
    #[must_use]
    pub fn bad_request(reason: &str) -> Self {
        Self::error(400, reason)
    }

    /// `413 Payload Too Large` with a reason: a body over a size cap.
    #[must_use]
    pub fn payload_too_large(reason: &str) -> Self {
        Self::error(413, reason)
    }

    /// Sets the connection disposition (builder form).
    #[must_use]
    pub fn with_disposition(mut self, disposition: Disposition) -> Self {
        self.disposition = disposition;
        self
    }

    /// Sets the connection disposition in place.
    pub fn set_disposition(&mut self, disposition: Disposition) {
        self.disposition = disposition;
    }

    /// Whether this response announces `Connection: close`.
    #[must_use]
    pub fn closes_connection(&self) -> bool {
        self.disposition == Disposition::Close
    }

    /// Header value (name case-insensitive); the first, if repeated.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        lookup(&self.headers, name)
    }

    /// The body, transparently gunzipped when `Content-Encoding: gzip`.
    ///
    /// # Errors
    ///
    /// Returns the gzip error message if the body is corrupt.
    pub fn decoded_body(&self) -> Result<Vec<u8>, String> {
        let body = match &self.job {
            Some(job) => job.to_vec(),
            None => self.body.clone(),
        };
        if self.header("content-encoding") == Some("gzip") {
            hyrec_wire::gzip::decompress(&body).map_err(|e| e.to_string())
        } else {
            Ok(body)
        }
    }

    /// Serializes into a byte buffer, appending to `out`. Adds
    /// `Content-Length` and derives the `Connection` header from the
    /// response's [`Disposition`].
    ///
    /// The reactor's write path: the buffer is per-connection and reused, so
    /// staging a response costs no allocation in steady state, and a job
    /// body's pieces are copied into it once.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            _ => "Unknown",
        };
        // Writing to a Vec cannot fail.
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason);
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let body_len = self.job.as_ref().map_or(self.body.len(), JobBody::byte_len);
        let _ = write!(out, "content-length: {body_len}\r\n");
        let connection = match self.disposition {
            Disposition::KeepAlive => "keep-alive",
            Disposition::Close => "close",
        };
        let _ = write!(out, "connection: {connection}\r\n\r\n");
        match &self.job {
            Some(job) => job.write_into(out),
            None => out.extend_from_slice(&self.body),
        }
    }

    /// Total bytes this response occupies on the wire (status line +
    /// headers + body) — the quantity metered in the bandwidth figures.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let mut buf = Vec::new();
        self.write_into(&mut buf);
        buf.len()
    }

    /// Incremental parse over an accumulation buffer — the client's
    /// keep-alive read path, mirroring [`crate::Request::try_parse`].
    ///
    /// Returns `Ok(None)` when `buf` does not yet hold a complete
    /// `Content-Length`-delimited response (read more and call again; this
    /// includes a complete header block *without* a `Content-Length`, whose
    /// body is close-delimited — see [`Response::parse_close_delimited`]),
    /// and `Ok(Some((response, consumed)))` when a full response occupies
    /// the first `consumed` bytes. The parsed response's
    /// [`Disposition`] reflects its `Connection` header, so a keep-alive
    /// response round-trips.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on malformed input.
    pub fn try_parse(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
        let Some((status, headers, head_end)) = parse_head(buf)? else {
            return Ok(None);
        };
        let Some(length) = lookup(&headers, "content-length") else {
            return Ok(None); // Close-delimited body: needs EOF.
        };
        let total = length
            .parse::<usize>()
            .ok()
            .and_then(|length| head_end.checked_add(length))
            .ok_or_else(|| "bad content-length".to_owned())?;
        if buf.len() < total {
            return Ok(None);
        }
        let body = buf[head_end..total].to_vec();
        Ok(Some((assemble(status, headers, body), total)))
    }

    /// Parses a close-delimited response: the peer signalled end-of-body by
    /// closing the connection, so everything after the header block is the
    /// body. Used by the client when a response carries no
    /// `Content-Length`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when the header block is incomplete or
    /// malformed — or when a declared `Content-Length` disagrees with the
    /// bytes actually received, so a server dying mid-body surfaces as an
    /// error instead of a silently truncated 200.
    pub fn parse_close_delimited(buf: &[u8]) -> Result<Response, String> {
        match parse_head(buf)? {
            Some((status, headers, head_end)) => {
                let body = buf[head_end..].to_vec();
                if let Some(length) = lookup(&headers, "content-length") {
                    let length: usize = length
                        .parse()
                        .map_err(|_| "bad content-length".to_owned())?;
                    if body.len() != length {
                        return Err(format!(
                            "connection closed mid-body ({} of {length} bytes)",
                            body.len()
                        ));
                    }
                }
                Ok(assemble(status, headers, body))
            }
            None => Err("connection closed mid-header".to_owned()),
        }
    }
}

/// The value of the first header called `name`, compared case-insensitively.
fn lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(key, _)| key.eq_ignore_ascii_case(name))
        .map(|(_, value)| value.as_str())
}

/// Builds a `Response` from parsed parts, deriving the disposition from
/// the `Connection` header (absent ⇒ keep-alive, the HTTP/1.1 default).
fn assemble(status: u16, headers: Vec<(String, String)>, body: Vec<u8>) -> Response {
    let disposition = match lookup(&headers, "connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => Disposition::Close,
        _ => Disposition::KeepAlive,
    };
    Response {
        status,
        headers,
        body,
        disposition,
        job: None,
    }
}

/// A parsed response head: `(status, headers, offset_past_blank_line)`.
type ResponseHead = (u16, Vec<(String, String)>, usize);

/// Parses the status line + header block if `buf` holds a complete one.
fn parse_head(buf: &[u8]) -> Result<Option<ResponseHead>, String> {
    let Some(blank) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..blank]).map_err(|_| "non-utf8 response head".to_owned())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().ok_or("empty response")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad version {version}"));
    }
    let status: u16 = parts
        .next()
        .ok_or("missing status code")?
        .parse()
        .map_err(|_| "non-numeric status".to_owned())?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    Ok(Some((status, headers, blank + 4)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_json_gzip_round_trips() {
        let body = br#"{"hello":[1,2,3]}"#.to_vec();
        let response = Response::ok_json_gzip(&body);
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-encoding"), Some("gzip"));
        assert_eq!(response.decoded_body().unwrap(), body);
    }

    #[test]
    fn pregzipped_json_and_conflict_serialize_to_fixed_bytes() {
        // Headers go out in insertion order, so identical responses are
        // identical bytes; a dead-lease rejection carries its reason phrase.
        let mut wire = Vec::new();
        Response::ok_pregzipped_json(b"x".to_vec()).write_into(&mut wire);
        assert_eq!(
            wire,
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
              content-encoding: gzip\r\ncontent-length: 1\r\n\
              connection: keep-alive\r\n\r\nx"
        );
        let mut wire = Vec::new();
        Response::error(409, "stale").write_into(&mut wire);
        assert!(wire.starts_with(b"HTTP/1.1 409 Conflict\r\n"));
    }

    #[test]
    fn job_response_writes_the_pregzipped_bytes() {
        // A job kept as pieces serializes exactly like its body copied into
        // a pre-gzipped response, and decodes the same on the client side.
        use hyrec_core::{ItemId, UserId, Vote};
        let server = hyrec_server::HyRecServer::new();
        server.record(UserId(1), ItemId(5), Vote::Like);
        server.record(UserId(2), ItemId(5), Vote::Like);
        let job = server.build_job(UserId(1));
        let planned = hyrec_server::JobEncoder::new()
            .plan_jobs(std::slice::from_ref(&job))
            .pop()
            .unwrap();
        let (mut pieces, mut copied) = (b"prefix".to_vec(), b"prefix".to_vec());
        let response = Response::ok_job(planned.clone());
        response.write_into(&mut pieces);
        Response::ok_pregzipped_json(planned.to_vec()).write_into(&mut copied);
        assert_eq!(pieces, copied);
        assert_eq!(response.wire_len(), copied.len() - b"prefix".len());
        assert_eq!(
            response.decoded_body().unwrap(),
            hyrec_wire::gzip::decompress(&planned.to_vec()).unwrap()
        );
    }

    #[test]
    fn plain_body_passthrough() {
        let response = Response::ok("text/plain", b"hi".to_vec());
        assert_eq!(response.decoded_body().unwrap(), b"hi");
    }

    #[test]
    fn error_constructors() {
        assert_eq!(Response::not_found().status, 404);
        let bad = Response::bad_request("missing uid");
        assert_eq!(bad.status, 400);
        assert_eq!(bad.body, b"missing uid");
        assert_eq!(Response::payload_too_large("cap").status, 413);
    }

    #[test]
    fn write_to_produces_valid_http() {
        let response = Response::ok("text/plain", b"body".to_vec());
        let mut buf = Vec::new();
        response.write_into(&mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nbody"));
    }

    #[test]
    fn connection_header_derives_from_disposition() {
        // Regression: `write_into` used to hardcode `Connection: close`.
        let keep = Response::ok("text/plain", b"k".to_vec());
        let mut buf = Vec::new();
        keep.write_into(&mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "got: {text}");
        assert!(!text.contains("connection: close"), "got: {text}");

        let close = Response::ok("text/plain", b"c".to_vec()).with_disposition(Disposition::Close);
        let mut buf = Vec::new();
        close.write_into(&mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("connection: close\r\n"), "got: {text}");
    }

    #[test]
    fn keep_alive_response_round_trips_through_client_parsing() {
        // Regression for the keep-alive redesign: a served keep-alive
        // response must come back intact through the client's incremental
        // parser, reporting the exact consumed length (so pipelined
        // responses behind it are preserved).
        let response = Response::ok("application/json", b"{\"ok\":true}".to_vec());
        assert_eq!(response.disposition, Disposition::KeepAlive);
        let mut wire = Vec::new();
        response.write_into(&mut wire);
        let wire_len = wire.len();
        wire.extend_from_slice(b"HTTP/1.1 200 OK\r\n"); // pipelined next head
        let (parsed, consumed) = Response::try_parse(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire_len);
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, response.body);
        assert_eq!(parsed.disposition, Disposition::KeepAlive);
        assert_eq!(parsed.header("connection"), Some("keep-alive"));
        assert_eq!(parsed.header("content-type"), Some("application/json"));
    }

    #[test]
    fn close_response_parses_with_close_disposition() {
        let mut wire = Vec::new();
        Response::ok("text/plain", b"bye".to_vec())
            .with_disposition(Disposition::Close)
            .write_into(&mut wire);
        let (parsed, _) = Response::try_parse(&wire).unwrap().unwrap();
        assert!(parsed.closes_connection());
    }

    #[test]
    fn try_parse_incremental_framing() {
        let mut wire = Vec::new();
        Response::ok("text/plain", b"hello".to_vec()).write_into(&mut wire);
        for cut in 0..wire.len() {
            assert_eq!(
                Response::try_parse(&wire[..cut]).unwrap(),
                None,
                "cut {cut}"
            );
        }
        let (parsed, consumed) = Response::try_parse(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(parsed.body, b"hello");
    }

    #[test]
    fn close_delimited_body_needs_eof() {
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\ngone";
        // No content-length: try_parse cannot frame it…
        assert_eq!(Response::try_parse(raw).unwrap(), None);
        // …but at EOF the remainder is the body.
        let parsed = Response::parse_close_delimited(raw).unwrap();
        assert_eq!(parsed.status, 404);
        assert_eq!(parsed.body, b"gone");
    }

    #[test]
    fn try_parse_rejects_garbage() {
        assert!(Response::try_parse(b"not http\r\n\r\n").is_err());
        assert!(Response::try_parse(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(Response::parse_close_delimited(b"HTTP/1.1 200").is_err());
    }

    #[test]
    fn truncated_content_length_body_is_an_error_at_eof() {
        // A server dying mid-body must not surface as a silent 200 with a
        // short body (the old read_exact path errored; so must this one).
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nonly-a-little";
        assert_eq!(Response::try_parse(raw).unwrap(), None);
        let err = Response::parse_close_delimited(raw).unwrap_err();
        assert!(err.contains("mid-body"), "got: {err}");
    }

    #[test]
    fn wire_len_counts_everything() {
        let response = Response::ok("text/plain", b"xy".to_vec());
        assert!(response.wire_len() > 2 + 17); // body + status line at least
    }

    #[test]
    fn corrupt_gzip_is_an_error() {
        let mut response = Response::ok_json_gzip(b"{}");
        response.body[12] ^= 0xFF;
        assert!(response.decoded_body().is_err());
    }
}
