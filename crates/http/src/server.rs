//! Whole-server behaviour of the front-end as a client sees it: serving,
//! keep-alive, the per-connection request budget, malformed input and
//! shutdown. The reactor's own unit tests run one shard; these run the
//! same scenarios on a sharded server, where every shard owns an
//! `SO_REUSEPORT` listener on the one address.

mod tests {
    use crate::client::HttpClient;
    use crate::reactor::ReactorServer;
    use crate::request::Request;
    use crate::response::Response;
    use crate::router::Router;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::thread;
    use std::time::Duration;

    /// Event loops per test server.
    const SHARDS: usize = 2;

    fn ping_router() -> Router {
        let mut router = Router::new();
        router.get("/ping", |_| Response::ok("text/plain", b"pong".to_vec()));
        router.get("/echo", |req: &Request| {
            let msg = req.query_param("msg").unwrap_or("").to_owned();
            Response::ok("text/plain", msg.into_bytes())
        });
        router
    }

    /// Reads one framed response off `stream`, keeping any surplus bytes
    /// in `buf`.
    fn read_one(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((response, consumed)) = Response::try_parse(buf).unwrap() {
                buf.drain(..consumed);
                return response;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server hung up before responding");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn serves_requests_over_tcp() {
        let server = ReactorServer::bind_sharded("127.0.0.1:0", SHARDS, 1).unwrap();
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
        let server = ReactorServer::bind_sharded("127.0.0.1:0", SHARDS, 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        // One raw socket, two sequential requests: the first response must
        // say keep-alive and the socket must stay usable.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        for round in 0..2 {
            stream
                .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            let response = read_one(&mut stream, &mut buf);
            assert_eq!(response.status, 200, "round {round}");
            assert_eq!(response.body, b"pong");
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
        assert_eq!(handle.request_count(), 2);
        handle.stop();
    }

    #[test]
    fn max_requests_budget_closes_the_connection() {
        let server = ReactorServer::bind_sharded("127.0.0.1:0", SHARDS, 1)
            .unwrap()
            .with_max_requests_per_conn(2);
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
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
        let mut chunk = [0u8; 64];
        let n = stream.read(&mut chunk).unwrap_or(0);
        assert_eq!(n, 0, "connection outlived its request budget");
        handle.stop();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = ReactorServer::bind_sharded("127.0.0.1:0", SHARDS, 2).unwrap();
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
        let server = ReactorServer::bind_sharded("127.0.0.1:0", SHARDS, 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "got: {buf}");
        handle.stop();
    }

    #[test]
    fn stop_terminates_accept_loop() {
        let server = ReactorServer::bind_sharded("127.0.0.1:0", SHARDS, 1).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(ping_router());
        handle.stop();
        // After stop every shard's listener is closed: connections are
        // refused or reset — either way no pong.
        let client = HttpClient::new(addr);
        assert!(client.get("/ping").is_err());
    }
}
