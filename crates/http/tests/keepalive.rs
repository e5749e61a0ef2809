//! Connection-lifetime integration tests for the reactor front-end: idle
//! reaping, the max-requests-per-connection budget, and client reconnect
//! behaviour over real sockets.

use hyrec_http::{HttpClient, ReactorServer, Request, Response, Router};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ping_router() -> Router {
    let mut router = Router::new();
    router.get("/ping", |_| Response::ok("text/plain", b"pong".to_vec()));
    router.get("/echo", |req: &Request| {
        let msg = req.query_param("msg").unwrap_or("").to_owned();
        Response::ok("text/plain", msg.into_bytes())
    });
    router
}

/// Reads exactly one `Content-Length`-delimited response off a raw socket.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((response, consumed)) = Response::try_parse(buf).expect("valid response") {
            buf.drain(..consumed);
            return response;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed before a full response arrived");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn slow_client_is_reaped_by_the_idle_sweep() {
    let server = ReactorServer::bind("127.0.0.1:0", 1)
        .unwrap()
        .with_idle_timeout(Duration::from_millis(200));
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    // A client that sends half a request and stalls must be hung up on —
    // dead browsers cannot pin buffers.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /ping HT").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let started = Instant::now();
    let mut chunk = [0u8; 64];
    let n = stream.read(&mut chunk).expect("reaped connections EOF");
    assert_eq!(n, 0, "expected EOF, got {n} bytes");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(150),
        "reaped suspiciously early ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "idle reaping too slow ({elapsed:?})"
    );

    // An *active* connection with the same timeout keeps working.
    let client = HttpClient::new(addr);
    assert_eq!(client.get("/ping").unwrap().status, 200);
    handle.stop();
}

#[test]
fn idle_keep_alive_connection_is_reaped_between_requests() {
    let server = ReactorServer::bind("127.0.0.1:0", 1)
        .unwrap()
        .with_idle_timeout(Duration::from_millis(200));
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut buf = Vec::new();
    let response = read_response(&mut stream, &mut buf);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("keep-alive"));

    // Go quiet past the idle timeout: the server hangs up.
    let mut chunk = [0u8; 64];
    let n = stream.read(&mut chunk).expect("reaped connections EOF");
    assert_eq!(n, 0, "idle keep-alive connection was not reaped");
    handle.stop();
}

#[test]
fn max_requests_budget_stamps_close_and_ends_the_connection() {
    const BUDGET: u64 = 10;
    let server = ReactorServer::bind("127.0.0.1:0", 1)
        .unwrap()
        .with_max_requests_per_conn(BUDGET);
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    for request_number in 1..=BUDGET {
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let response = read_response(&mut stream, &mut buf);
        assert_eq!(response.status, 200);
        let expected = if request_number < BUDGET {
            "keep-alive"
        } else {
            // The budget's last response warns the client off.
            "close"
        };
        assert_eq!(
            response.header("connection"),
            Some(expected),
            "request {request_number} of {BUDGET}"
        );
    }
    // The 11th request on a 10-max connection is never served: the server
    // has hung up, so the write may succeed (into the kernel buffer) but
    // the read sees EOF/reset, and a well-behaved client reconnects.
    let _ = stream.write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n");
    let mut chunk = [0u8; 64];
    let n = stream.read(&mut chunk).unwrap_or(0);
    assert_eq!(n, 0, "connection outlived its request budget");
    assert_eq!(handle.request_count(), BUDGET);
    handle.stop();
}

#[test]
fn pipelining_past_the_budget_truncates_at_the_budget() {
    // Write 4 pipelined requests at a 2-max server: exactly 2 are served
    // (the second stamped close), the rest discarded.
    let server = ReactorServer::bind("127.0.0.1:0", 1)
        .unwrap()
        .with_max_requests_per_conn(2);
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = Vec::new();
    for i in 0..4 {
        wire.extend_from_slice(
            format!("GET /echo?msg=m{i} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes(),
        );
    }
    stream.write_all(&wire).unwrap();

    let mut buf = Vec::new();
    let first = read_response(&mut stream, &mut buf);
    assert_eq!(first.body, b"m0");
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = read_response(&mut stream, &mut buf);
    assert_eq!(second.body, b"m1");
    assert_eq!(second.header("connection"), Some("close"));
    // Nothing further arrives; the connection ends.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "bytes after the close response");
    assert_eq!(handle.request_count(), 2);
    handle.stop();
}

#[test]
fn deep_pipeline_with_half_close_answers_every_request() {
    // 150 pipelined requests — far past the reactor's internal pipeline
    // cap — followed by shutdown(SHUT_WR). Every buffered request must
    // still be answered, in order, as the pipeline drains; only then does
    // the connection close.
    const DEPTH: usize = 150;
    let server = ReactorServer::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut wire = Vec::new();
    for i in 0..DEPTH {
        wire.extend_from_slice(
            format!("GET /echo?msg=m{i} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes(),
        );
    }
    stream.write_all(&wire).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut buf = Vec::new();
    for i in 0..DEPTH {
        let response = read_response(&mut stream, &mut buf);
        assert_eq!(response.status, 200);
        assert_eq!(response.body, format!("m{i}").into_bytes(), "position {i}");
        let expected = if i + 1 < DEPTH { "keep-alive" } else { "close" };
        assert_eq!(
            response.header("connection"),
            Some(expected),
            "position {i}"
        );
    }
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty());
    assert_eq!(handle.request_count(), DEPTH as u64);
    handle.stop();
}

#[test]
fn vanished_reader_with_staged_bytes_is_reaped() {
    // A browser that requests a large body and never reads it: once the
    // socket buffers fill, the staged response stops draining, and the
    // idle sweep must reap the connection instead of pinning the write
    // buffer forever.
    let big = vec![b'x'; 8 * 1024 * 1024];
    let mut router = Router::new();
    router.get("/big", move |_| Response::ok("text/plain", big.clone()));
    let server = ReactorServer::bind("127.0.0.1:0", 1)
        .unwrap()
        .with_idle_timeout(Duration::from_millis(300));
    let addr = server.local_addr();
    let handle = server.serve(router);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /big HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    // Read nothing while the idle timeout elapses several times over.
    std::thread::sleep(Duration::from_millis(1500));
    // The server must have hung up mid-body: draining the socket now
    // yields strictly less than the full response (or an error once the
    // reset is observed).
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut drained = Vec::new();
    let _ = stream.read_to_end(&mut drained);
    assert!(
        drained.len() < 8 * 1024 * 1024,
        "full body delivered ({} bytes): the stalled writer was never reaped",
        drained.len()
    );
    handle.stop();
}

#[test]
fn stop_racing_a_connect_fails_fast_instead_of_hanging() {
    // Regression: `ReactorHandle::stop()` used to deregister the listener
    // from epoll but keep the fd open for the whole drain, so a connect
    // racing the stop was *accepted by the kernel* into a queue nobody
    // would ever serve — the client hung until its own timeout. The fix
    // closes the listener the moment draining starts: racing connects are
    // refused (or reset) promptly, while in-flight work still completes.
    let mut router = Router::new();
    router.get("/ping", |_| Response::ok("text/plain", b"pong".to_vec()));
    router.get("/slow", |_| {
        std::thread::sleep(Duration::from_millis(1200));
        Response::ok("text/plain", b"slow".to_vec())
    });
    let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr();
    let handle = server.serve(router);

    // Occupy the (only) shard so the drain has something to wait for.
    let slow_client = std::thread::spawn(move || {
        let client = HttpClient::new(addr).with_timeout(Duration::from_secs(10));
        let response = client.get("/slow").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"slow");
    });
    std::thread::sleep(Duration::from_millis(300));

    let stopped = Arc::new(AtomicBool::new(false));
    let stopper = {
        let stopped = Arc::clone(&stopped);
        std::thread::spawn(move || {
            handle.stop();
            stopped.store(true, Ordering::SeqCst);
        })
    };
    // Give the drain a moment to begin (the slow handler pins it open for
    // roughly another 900 ms).
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        !stopped.load(Ordering::SeqCst),
        "drain finished early; the race window never existed"
    );

    // A connect racing the drain must resolve promptly — refused outright,
    // or (if it slipped into the queue before the close) reset on first
    // read — never parked until a client-side timeout.
    let started = Instant::now();
    match TcpStream::connect(addr) {
        Err(_) => {} // refused: the listener is really gone
        Ok(mut stream) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let _ = stream.write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n");
            let mut chunk = [0u8; 64];
            let n = stream.read(&mut chunk).unwrap_or(0);
            assert_eq!(n, 0, "a draining server served a racing connection");
        }
    }
    let observed = started.elapsed();
    assert!(
        observed < Duration::from_millis(500),
        "racing connect took {observed:?} to resolve (listener left open during drain?)"
    );
    assert!(
        !stopped.load(Ordering::SeqCst),
        "stop() returned before the in-flight request drained"
    );

    stopper.join().unwrap();
    slow_client.join().unwrap();
}

#[test]
fn client_reconnects_transparently_across_server_close() {
    // A keep-alive client outliving its connection budget must reconnect
    // automatically — the browser-refresh pattern.
    let server = ReactorServer::bind("127.0.0.1:0", 1)
        .unwrap()
        .with_max_requests_per_conn(3);
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    let client = HttpClient::new(addr);
    for round in 0..10 {
        let response = client
            .get(&format!("/echo?msg=r{round}"))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(response.status, 200);
        assert_eq!(response.body, format!("r{round}").into_bytes());
    }
    assert_eq!(handle.request_count(), 10);
    // 3-request budget → ceil(10/3) = 4 connections.
    assert_eq!(handle.stats().connections(), 4);
    handle.stop();
}

#[test]
fn explicit_connection_close_is_honoured() {
    let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    // HTTP/1.1 with `Connection: close`: served, stamped close, hung up.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut buf = Vec::new();
    let response = read_response(&mut stream, &mut buf);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty());

    // HTTP/1.0 without keep-alive defaults to close.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /ping HTTP/1.0\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut buf = Vec::new();
    let response = read_response(&mut stream, &mut buf);
    assert_eq!(response.header("connection"), Some("close"));
    handle.stop();
}

#[test]
fn close_mode_client_opens_a_connection_per_request() {
    let server = ReactorServer::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr();
    let handle = server.serve(ping_router());

    let client = HttpClient::new(addr).with_keep_alive(false);
    for _ in 0..5 {
        assert_eq!(client.get("/ping").unwrap().status, 200);
    }
    let keep = HttpClient::new(addr);
    for _ in 0..5 {
        assert_eq!(keep.get("/ping").unwrap().status, 200);
    }
    // 5 close-mode connections + 1 keep-alive connection.
    assert_eq!(handle.stats().connections(), 6);
    assert_eq!(handle.request_count(), 10);
    handle.stop();
}
