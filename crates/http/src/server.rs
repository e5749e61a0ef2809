//! The thread-per-connection front-end: TCP listener + worker pool +
//! router, now connection-oriented — each worker loops on its socket
//! serving keep-alive requests until the client closes, the idle timeout
//! expires, or the per-connection request budget runs out.

use crate::request::Request;
use crate::response::Disposition;
use crate::router::Router;
use crate::threadpool::ThreadPool;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Default idle timeout between requests on a kept-alive connection.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll granularity of the between-requests wait (lets idle workers notice
/// shutdown without holding the full idle timeout).
const IDLE_POLL: Duration = Duration::from_millis(100);
/// Read timeout once a request has started arriving.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A minimal HTTP/1.1 server with keep-alive connections.
///
/// The worker-pool size caps concurrent *connections* (it capped requests
/// when every connection carried exactly one) — still the knob behind the
/// Figure 9 concurrency experiment, and the reason the reactor front-end
/// exists: persistent browsers hold their worker for the whole session.
pub struct HttpServer {
    listener: TcpListener,
    workers: usize,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    idle_timeout: Duration,
    max_requests_per_conn: u64,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.local_addr)
            .field("workers", &self.workers)
            .field("idle_timeout", &self.idle_timeout)
            .field("max_requests_per_conn", &self.max_requests_per_conn)
            .finish()
    }
}

/// Handle for stopping a running server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    requests: Arc<AtomicU64>,
}

impl ServerHandle {
    /// Address the server is bound to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of requests served so far (across all connections).
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Signals shutdown and waits for the accept loop to finish.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the listener so `accept` returns.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl HttpServer {
    /// Binds to `addr` (`127.0.0.1:0` for an ephemeral port) with a
    /// connection pool of `workers` threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind<A: ToSocketAddrs>(addr: A, workers: usize) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            workers: workers.max(1),
            local_addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            requests: Arc::new(AtomicU64::new(0)),
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            max_requests_per_conn: u64::MAX,
        })
    }

    /// Sets how long a kept-alive connection may sit idle between requests
    /// before the worker hangs up (default 10 s).
    #[must_use]
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout.max(Duration::from_millis(1));
        self
    }

    /// Caps requests served per connection (default unlimited); the last
    /// budgeted response is stamped `Connection: close`.
    #[must_use]
    pub fn with_max_requests_per_conn(mut self, max_requests: u64) -> Self {
        self.max_requests_per_conn = max_requests.max(1);
        self
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts serving `router` on a background accept thread; returns a
    /// handle for shutdown.
    #[must_use]
    pub fn serve(self, router: Router) -> ServerHandle {
        let shutdown = Arc::clone(&self.shutdown);
        let requests = Arc::clone(&self.requests);
        let addr = self.local_addr;
        let accept_thread = thread::spawn(move || {
            let pool = ThreadPool::new(self.workers);
            let router = Arc::new(router);
            for stream in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let router = Arc::clone(&router);
                let shutdown = Arc::clone(&self.shutdown);
                let requests = Arc::clone(&self.requests);
                let idle_timeout = self.idle_timeout;
                let max_requests = self.max_requests_per_conn;
                pool.execute(move || {
                    handle_connection(
                        stream,
                        &router,
                        &shutdown,
                        &requests,
                        idle_timeout,
                        max_requests,
                    );
                });
            }
            pool.join();
        });
        ServerHandle {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            requests,
        }
    }
}

/// Serves one connection to completion: requests loop over a persistent
/// `BufReader` (so pipelined bytes survive between parses) until the
/// client closes, the idle timeout expires, the request budget runs out,
/// the client asks to close, or the server shuts down.
fn handle_connection(
    stream: TcpStream,
    router: &Router,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
    idle_timeout: Duration,
    max_requests: u64,
) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut served = 0u64;
    loop {
        if !wait_for_request(&mut reader, shutdown, idle_timeout) {
            return;
        }
        let _ = reader
            .get_ref()
            .set_read_timeout(Some(REQUEST_READ_TIMEOUT));
        match Request::parse_from(&mut reader) {
            Ok(request) => {
                served += 1;
                requests.fetch_add(1, Ordering::Relaxed);
                let keep = request.wants_keep_alive()
                    && served < max_requests
                    && !shutdown.load(Ordering::SeqCst);
                let mut response = router.dispatch(&request);
                response.set_disposition(if keep {
                    Disposition::KeepAlive
                } else {
                    Disposition::Close
                });
                if response.write_to(reader.get_mut()).is_err() || !keep {
                    return;
                }
            }
            Err(err) => {
                // Framing is unrecoverable mid-stream: answer and hang up.
                let response = err.response().with_disposition(Disposition::Close);
                let _ = response.write_to(reader.get_mut());
                return;
            }
        }
    }
}

/// Blocks until request bytes are buffered. Returns `false` on EOF, socket
/// error, shutdown, or after `idle_timeout` of quiet — all of which mean
/// "hang up without serving".
fn wait_for_request(
    reader: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
    idle_timeout: Duration,
) -> bool {
    let idle_started = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
        match reader.fill_buf() {
            Ok(buffered) => return !buffered.is_empty(),
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                if idle_started.elapsed() >= idle_timeout {
                    return false;
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::response::Response;

    fn ping_router() -> Router {
        let mut router = Router::new();
        router.get("/ping", |_| Response::ok("text/plain", b"pong".to_vec()));
        router.get("/echo", |req: &Request| {
            let msg = req.query_param("msg").unwrap_or("").to_owned();
            Response::ok("text/plain", msg.into_bytes())
        });
        router
    }

    #[test]
    fn serves_requests_over_tcp() {
        let server = HttpServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let client = HttpClient::new(addr);
        let response = client.get("/ping").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"pong");

        let response = client.get("/echo?msg=hello").unwrap();
        assert_eq!(response.body, b"hello");

        let response = client.get("/missing").unwrap();
        assert_eq!(response.status, 404);

        assert!(handle.request_count() >= 3);
        handle.stop();
    }

    #[test]
    fn keep_alive_connection_carries_multiple_requests() {
        use std::io::{Read, Write};
        let server = HttpServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        // One raw socket, two sequential requests: the first response must
        // say keep-alive and the socket must stay usable.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        for round in 0..2 {
            stream
                .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            loop {
                if let Some((response, consumed)) = Response::try_parse(&buf).unwrap() {
                    buf.drain(..consumed);
                    assert_eq!(response.status, 200, "round {round}");
                    assert_eq!(response.body, b"pong");
                    assert_eq!(response.header("connection"), Some("keep-alive"));
                    break;
                }
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server hung up mid-keep-alive");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
        assert_eq!(handle.request_count(), 2);
        handle.stop();
    }

    #[test]
    fn max_requests_budget_closes_the_connection() {
        use std::io::{Read, Write};
        let server = HttpServer::bind("127.0.0.1:0", 1)
            .unwrap()
            .with_max_requests_per_conn(2);
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut read_one = |stream: &mut TcpStream, buf: &mut Vec<u8>| loop {
            if let Some((response, consumed)) = Response::try_parse(buf).unwrap() {
                buf.drain(..consumed);
                return response;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server hung up before responding");
            buf.extend_from_slice(&chunk[..n]);
        };
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let first = read_one(&mut stream, &mut buf);
        assert_eq!(first.header("connection"), Some("keep-alive"));
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let second = read_one(&mut stream, &mut buf);
        assert_eq!(second.header("connection"), Some("close"));
        // The socket is now closed server-side.
        let n = stream.read(&mut chunk).unwrap_or(0);
        assert_eq!(n, 0, "connection outlived its request budget");
        handle.stop();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = HttpServer::bind("127.0.0.1:0", 4).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut joins = Vec::new();
        for _ in 0..16 {
            joins.push(thread::spawn(move || {
                let client = HttpClient::new(addr);
                let response = client.get("/ping").unwrap();
                assert_eq!(response.status, 200);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        handle.stop();
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let server = HttpServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "got: {buf}");
        handle.stop();
    }

    #[test]
    fn stop_terminates_accept_loop() {
        let server = HttpServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());
        handle.stop();
        // After stop, connections are refused or reset — either way no pong.
        let client = HttpClient::new(addr);
        assert!(client.get("/ping").is_err());
    }
}
