//! A small blocking HTTP client for tests, examples and load generation.
//!
//! Connection-oriented since the keep-alive redesign: a client holds one
//! persistent socket to its server and reuses it across requests (the
//! browser behaviour the paper's Table 1 traffic assumes), reconnecting
//! automatically when the server closes the connection — idle timeout,
//! max-requests budget, `Connection: close` responses, or restarts.
//! `with_keep_alive(false)` restores the seed one-connection-per-request
//! behaviour for baseline measurements.

use crate::response::Response;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Read chunk size for the response accumulation loop.
const READ_CHUNK: usize = 16 * 1024;

/// Blocking HTTP/1.1 client bound to one server address.
///
/// Cloning yields an independent client (same address and settings, its
/// own connection) — clone per thread for concurrent load.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    keep_alive: bool,
    conn: Mutex<Option<ClientConn>>,
}

impl Clone for HttpClient {
    fn clone(&self) -> Self {
        Self {
            addr: self.addr,
            timeout: self.timeout,
            keep_alive: self.keep_alive,
            conn: Mutex::new(None),
        }
    }
}

/// A persistent connection: the socket plus any bytes read past the end of
/// the previous response (pipelined leftovers).
#[derive(Debug)]
struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Creates a keep-alive client for `addr` with a 10 s timeout.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            timeout: Duration::from_secs(10),
            keep_alive: true,
            conn: Mutex::new(None),
        }
    }

    /// Overrides the socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Selects the connection mode: `true` (the default) reuses one
    /// persistent socket, `false` sends `Connection: close` and opens a
    /// fresh socket per request (the seed behaviour).
    #[must_use]
    pub fn with_keep_alive(mut self, keep_alive: bool) -> Self {
        self.keep_alive = keep_alive;
        self
    }

    /// Issues `GET <target>`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on connection, I/O or parse failures.
    pub fn get(&self, target: &str) -> Result<Response, String> {
        self.request("GET", target, &[])
    }

    /// Issues `POST <target>` with a body.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on connection, I/O or parse failures.
    pub fn post(&self, target: &str, body: &[u8]) -> Result<Response, String> {
        self.request("POST", target, body)
    }

    /// Drops the cached connection (the next request reconnects).
    pub fn reset_connection(&self) {
        *self.conn.lock().expect("client connection poisoned") = None;
    }

    fn request(&self, method: &str, target: &str, body: &[u8]) -> Result<Response, String> {
        let mut guard = self.conn.lock().expect("client connection poisoned");
        // A cached connection may have been closed server-side since the
        // last request (idle reaping, max-requests, restart) — on failure,
        // retry exactly once on a fresh socket. A fresh connection's
        // failure is returned as-is.
        loop {
            let reusing = guard.is_some();
            if !reusing {
                *guard = Some(self.connect()?);
            }
            let conn = guard.as_mut().expect("connection just ensured");
            match Self::round_trip(conn, method, target, body, self.keep_alive) {
                Ok(response) => {
                    if !self.keep_alive || response.closes_connection() {
                        *guard = None;
                    }
                    return Ok(response);
                }
                Err(err) => {
                    *guard = None;
                    if !reusing {
                        return Err(err);
                    }
                }
            }
        }
    }

    fn connect(&self) -> Result<ClientConn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| format!("timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(ClientConn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes one request and reads one response off the connection,
    /// leaving any pipelined surplus bytes in the connection buffer.
    fn round_trip(
        conn: &mut ClientConn,
        method: &str,
        target: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> Result<Response, String> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(
            conn.stream,
            "{method} {target} HTTP/1.1\r\nhost: hyrec\r\ncontent-length: {}\r\n\
             connection: {connection}\r\naccept-encoding: gzip\r\n\r\n",
            body.len()
        )
        .map_err(|e| format!("write: {e}"))?;
        conn.stream
            .write_all(body)
            .map_err(|e| format!("write body: {e}"))?;
        conn.stream.flush().map_err(|e| format!("flush: {e}"))?;

        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if let Some((response, consumed)) =
                Response::try_parse(&conn.buf).map_err(|e| format!("parse: {e}"))?
            {
                conn.buf.drain(..consumed);
                return Ok(response);
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF delimits a response without Content-Length; an
                    // empty buffer means the server closed before replying.
                    if conn.buf.is_empty() {
                        return Err("connection closed before response".to_owned());
                    }
                    let response = Response::parse_close_delimited(&conn.buf)
                        .map_err(|e| format!("parse: {e}"))?;
                    conn.buf.clear();
                    return Ok(return_closed(response));
                }
                Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// A close-delimited response implies the connection is done: mark it so
/// the caller drops the cached socket.
fn return_closed(mut response: Response) -> Response {
    response.set_disposition(crate::response::Disposition::Close);
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::Disposition;

    #[test]
    fn parses_basic_response() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 2\r\n\r\nhi";
        let (response, consumed) = Response::try_parse(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-type"), Some("text/plain"));
        assert_eq!(response.body, b"hi");
    }

    #[test]
    fn parses_response_without_length_at_eof() {
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\ngone";
        let response = Response::parse_close_delimited(raw).unwrap();
        assert_eq!(response.status, 404);
        assert_eq!(response.body, b"gone");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Response::try_parse(b"not http\r\n\r\n").is_err());
        assert!(Response::try_parse(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(Response::parse_close_delimited(b"").is_err());
    }

    #[test]
    fn close_delimited_response_is_marked_close() {
        let response = return_closed(Response::ok("text/plain", b"x".to_vec()));
        assert_eq!(response.disposition, Disposition::Close);
    }

    #[test]
    fn connect_failure_is_an_error() {
        // Port 1 on localhost is almost certainly closed.
        let client = HttpClient::new("127.0.0.1:1".parse().unwrap())
            .with_timeout(Duration::from_millis(200));
        assert!(client.get("/x").is_err());
    }

    #[test]
    fn clone_is_an_independent_client() {
        let client = HttpClient::new("127.0.0.1:1".parse().unwrap());
        let twin = client.clone();
        assert_eq!(twin.addr, client.addr);
        assert!(twin.conn.lock().unwrap().is_none());
    }
}
