//! Property tests for pipelined/partial-read request framing — the
//! invariant the reactor's rolling read buffer depends on: however the
//! network fragments a byte stream of back-to-back requests,
//! `Request::try_parse` yields exactly those requests, in order, with no
//! bytes lost or invented — plus the end-to-end sharded form: pipelined
//! bursts split across a live multi-reactor server never reorder within a
//! connection.

use hyrec_http::{BatchPolicy, ReactorServer, Request, Response, Router};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// A generated request: method selector, path segment, query id, body.
type Spec = (bool, u8, u16, Vec<u8>);

/// Renders a spec as wire bytes. POSTs carry a `Content-Length` body;
/// GETs carry a query instead.
fn render(spec: &Spec) -> Vec<u8> {
    let (is_post, path_seg, qid, body) = spec;
    if *is_post {
        let mut wire = format!(
            "POST /seg{path_seg}/ HTTP/1.1\r\nhost: hyrec\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        wire
    } else {
        format!("GET /seg{path_seg}/?qid={qid} HTTP/1.1\r\nhost: hyrec\r\n\r\n").into_bytes()
    }
}

/// Feeds `stream` into a rolling buffer in chunks split at the given
/// boundaries, draining complete frames exactly the way the reactor does.
/// Returns the parsed requests and the total bytes consumed.
fn frame_chunked(stream: &[u8], cuts: &[usize]) -> (Vec<Request>, usize) {
    let mut buf: Vec<u8> = Vec::new();
    let mut parsed = Vec::new();
    let mut consumed_total = 0usize;
    let feed = |buf: &mut Vec<u8>, parsed: &mut Vec<Request>, total: &mut usize| {
        while let Some((request, consumed)) =
            Request::try_parse(buf).expect("generated requests are well-formed")
        {
            buf.drain(..consumed);
            *total += consumed;
            parsed.push(request);
        }
    };
    let mut offset = 0usize;
    for &cut in cuts {
        let cut = cut.min(stream.len());
        if cut <= offset {
            continue;
        }
        buf.extend_from_slice(&stream[offset..cut]);
        offset = cut;
        feed(&mut buf, &mut parsed, &mut consumed_total);
    }
    if offset < stream.len() {
        buf.extend_from_slice(&stream[offset..]);
        feed(&mut buf, &mut parsed, &mut consumed_total);
    }
    assert!(buf.is_empty(), "unconsumed leftover bytes: {}", buf.len());
    (parsed, consumed_total)
}

/// One 4-shard reactor shared by every proptest case (spinning a server
/// per case would dominate the run). Never stopped: the handle lives for
/// the test process, and process exit tears the threads down.
fn sharded_echo_addr() -> SocketAddr {
    static SERVER: OnceLock<(hyrec_http::reactor::ReactorHandle, SocketAddr)> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let mut router = Router::new();
            // A coalescable route: its requests run when a pass ends, after
            // scalar requests framed in the same pass, so the reorder queue
            // is on the hot path of this property.
            router.route(
                "GET",
                "/b/",
                BatchPolicy { max_batch: 8 },
                |requests: &[Request], out: &mut Vec<Response>| {
                    out.extend(requests.iter().map(|r| {
                        let qid = r.query_param("qid").unwrap_or("?");
                        Response::ok("text/plain", format!("q{qid}").into_bytes())
                    }));
                },
            );
            // And a scalar route for mixed-traffic bursts.
            router.get("/s/", |r: &Request| {
                let qid = r.query_param("qid").unwrap_or("?");
                Response::ok("text/plain", format!("q{qid}").into_bytes())
            });
            let server = ReactorServer::bind("127.0.0.1:0", 4).expect("bind sharded reactor");
            let addr = server.local_addr();
            (server.serve(router), addr)
        })
        .1
}

/// Pipelines `qids` on one fresh connection, split into chunks at the
/// given raw cut points, then asserts the responses come back complete and
/// strictly in request order. Plain asserts (not `prop_assert`): this runs
/// on spawned threads, and a panic fails the owning case just the same.
fn drive_pipelined_connection(addr: SocketAddr, qids: &[u16], raw_cuts: &[u16], batched: bool) {
    let path = if batched { "/b/" } else { "/s/" };
    let mut wire = Vec::new();
    for qid in qids {
        wire.extend_from_slice(
            format!("GET {path}?qid={qid} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes(),
        );
    }
    let mut cuts: Vec<usize> = raw_cuts
        .iter()
        .map(|&c| c as usize % (wire.len() + 1))
        .collect();
    cuts.push(wire.len());
    cuts.sort_unstable();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut offset = 0usize;
    for cut in cuts {
        if cut > offset {
            stream.write_all(&wire[offset..cut]).expect("write chunk");
            offset = cut;
        }
    }

    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut received = 0usize;
    while received < qids.len() {
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed mid-pipeline");
        buf.extend_from_slice(&chunk[..n]);
        while let Some((response, consumed)) = Response::try_parse(&buf).expect("parse") {
            buf.drain(..consumed);
            assert_eq!(response.status, 200);
            assert_eq!(
                response.body,
                format!("q{}", qids[received]).into_bytes(),
                "response {received} out of order for burst {qids:?}"
            );
            received += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // 2–8 back-to-back requests split at arbitrary byte boundaries parse
    // to the same requests, in order, consuming every byte exactly once.
    #[test]
    fn pipelined_requests_survive_arbitrary_splits(
        specs in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..200)),
            2..8usize,
        ),
        raw_cuts in proptest::collection::vec(any::<u16>(), 0..12usize),
    ) {
        let mut stream = Vec::new();
        for spec in &specs {
            stream.extend_from_slice(&render(spec));
        }
        // Map the raw cut points into (sorted) positions within the stream.
        let mut cuts: Vec<usize> = raw_cuts
            .iter()
            .map(|&c| c as usize % (stream.len() + 1))
            .collect();
        cuts.sort_unstable();

        let (parsed, consumed) = frame_chunked(&stream, &cuts);

        prop_assert_eq!(parsed.len(), specs.len());
        prop_assert_eq!(consumed, stream.len());
        for (request, spec) in parsed.iter().zip(&specs) {
            let (is_post, path_seg, qid, body) = spec;
            prop_assert_eq!(&request.path, &format!("/seg{}/", path_seg));
            if *is_post {
                prop_assert_eq!(&request.method, "POST");
                prop_assert_eq!(&request.body, body);
            } else {
                prop_assert_eq!(&request.method, "GET");
                let qid_text = qid.to_string();
                prop_assert_eq!(request.query_param("qid"), Some(qid_text.as_str()));
                prop_assert!(request.body.is_empty());
            }
            prop_assert!(request.wants_keep_alive());
        }
    }

    // Pipelined bursts landing on a live 4-shard reactor — several
    // connections at once (spread across event loops by the accept
    // sharding), each burst split at arbitrary byte boundaries, mixing
    // batched and scalar routes — must never reorder responses *within* a
    // connection: per-connection sequence numbers and the reorder queue
    // hold regardless of which shard a connection landed on or which
    // pass ran its batch.
    #[test]
    fn sharded_pipelined_bursts_never_reorder_within_a_connection(
        conns in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u16>(), 1..6usize),
                proptest::collection::vec(any::<u16>(), 0..6usize),
                any::<bool>(),
            ),
            2..5usize,
        ),
    ) {
        let addr = sharded_echo_addr();
        let joins: Vec<_> = conns
            .into_iter()
            .map(|(qids, raw_cuts, batched)| {
                std::thread::spawn(move || {
                    drive_pipelined_connection(addr, &qids, &raw_cuts, batched);
                })
            })
            .collect();
        for join in joins {
            join.join().expect("pipelined connection thread panicked");
        }
    }

    // Byte-at-a-time delivery — the worst fragmentation the kernel can
    // produce — frames identically to one-shot delivery.
    #[test]
    fn byte_at_a_time_equals_one_shot(
        specs in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..40)),
            2..5usize,
        ),
    ) {
        let mut stream = Vec::new();
        for spec in &specs {
            stream.extend_from_slice(&render(spec));
        }
        let every_byte: Vec<usize> = (1..=stream.len()).collect();
        let (trickled, _) = frame_chunked(&stream, &every_byte);
        let (one_shot, _) = frame_chunked(&stream, &[stream.len()]);
        prop_assert_eq!(trickled, one_shot);
    }
}
