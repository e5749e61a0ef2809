//! Concurrent load smoke over live sockets, one test per connection mode:
//! `Connection: close`, keep-alive, keep-alive rotated every 3 requests,
//! and keep-alive on 4 reactor shards.
//!
//! Each test starts the API router on a reactor, lets 32 browsers loose on
//! it at once — a `/rate/` vote, then fetch → widget → `POST /neighbors/`
//! rounds, so concurrent `/rate/` and `/online/` calls coalesce — and
//! checks that every response is 200, that the reactor counted exactly the
//! requests sent, that connections were reused (or not) as the mode says,
//! and that `stop()` drains promptly.

use hyrec_client::Widget;
use hyrec_core::{ItemId, UserId, Vote};
use hyrec_http::api::hyrec_router;
use hyrec_http::reactor::ReactorHandle;
use hyrec_http::{HttpClient, ReactorServer, Response};
use hyrec_server::HyRecServer;
use hyrec_wire::PersonalizationJob;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Concurrent browsers (one client thread each).
const CLIENTS: usize = 32;
/// Fetch → widget → post rounds per browser, after one `/rate/` vote.
const ROUNDS: usize = 3;
/// Requests each browser sends.
const PER_CLIENT: usize = 1 + 2 * ROUNDS;
/// Users in the population; browser `c` plays user `c`.
const USERS: u32 = 200;

/// How the browsers connect, and how many reactor shards serve them.
#[derive(Debug, Clone, Copy)]
struct Mode {
    keep_alive: bool,
    /// Reconnect after this many requests on one connection (`0` = never).
    rotate_every: usize,
    reactors: usize,
}

fn populated_server() -> Arc<HyRecServer> {
    let hyrec = HyRecServer::builder()
        .k(5)
        .anonymize_users(false)
        .seed(7)
        .build();
    let votes: Vec<(UserId, ItemId, Vote)> = (0..USERS)
        .flat_map(|u| {
            (0..20u32).map(move |i| (UserId(u), ItemId((u * 17 + i * 3) % 60_000), Vote::Like))
        })
        .collect();
    let _ = hyrec.record_many(&votes);
    Arc::new(hyrec)
}

/// One browser's connection, rotated every `rotate_every` requests.
struct Browser {
    client: HttpClient,
    rotate_every: usize,
    sent: usize,
}

impl Browser {
    fn send(&mut self, path: &str, post_body: Option<&[u8]>) -> Response {
        if self.rotate_every > 0 && self.sent > 0 && self.sent.is_multiple_of(self.rotate_every) {
            self.client.reset_connection();
        }
        self.sent += 1;
        let response = match post_body {
            Some(body) => self.client.post(path, body),
            None => self.client.get(path),
        }
        .unwrap_or_else(|err| panic!("{path}: {err}"));
        assert_eq!(response.status, 200, "{path} must be 200");
        response
    }
}

/// Runs the load in `mode` and returns the still-running server.
fn run_load(mode: Mode) -> ReactorHandle {
    let server = if mode.reactors == 1 {
        ReactorServer::bind("127.0.0.1:0", 4)
    } else {
        ReactorServer::bind_sharded("127.0.0.1:0", mode.reactors, 1)
    }
    .unwrap();
    let addr = server.local_addr();
    let handle = server.serve(hyrec_router(populated_server()));

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let browsers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut browser = Browser {
                    client: HttpClient::new(addr)
                        .with_timeout(Duration::from_secs(30))
                        .with_keep_alive(mode.keep_alive),
                    rotate_every: mode.rotate_every,
                    sent: 0,
                };
                let widget = Widget::new();
                barrier.wait();
                browser.send(&format!("/rate/?uid={c}&item=9000&like=1"), None);
                for _ in 0..ROUNDS {
                    let body = browser.send(&format!("/online/?uid={c}"), None).body;
                    let job = PersonalizationJob::decode(&body).expect("job decodes");
                    let update = widget.run_job(&job).update.encode();
                    browser.send("/neighbors/", Some(&update));
                }
                browser.sent
            })
        })
        .collect();
    let sent: usize = browsers
        .into_iter()
        .map(|b| b.join().expect("browser thread panicked"))
        .sum();
    assert_eq!(sent, CLIENTS * PER_CLIENT);
    assert_eq!(handle.request_count() as usize, sent, "request accounting");
    handle
}

/// `stop()` returns promptly with nothing left in flight.
fn stop_promptly(handle: ReactorHandle) {
    let start = Instant::now();
    handle.stop();
    let drain = start.elapsed();
    assert!(drain < Duration::from_secs(3), "shutdown took {drain:?}");
}

#[test]
fn close_mode_load_is_all_200_and_drains() {
    let handle = run_load(Mode {
        keep_alive: false,
        rotate_every: 0,
        reactors: 1,
    });
    assert_eq!(
        handle.stats().connections() as usize,
        CLIENTS * PER_CLIENT,
        "Connection: close opens one connection per request"
    );
    stop_promptly(handle);
}

#[test]
fn keep_alive_load_reuses_connections() {
    let handle = run_load(Mode {
        keep_alive: true,
        rotate_every: 0,
        reactors: 1,
    });
    let connections = handle.stats().connections() as usize;
    assert!(
        connections < CLIENTS * PER_CLIENT,
        "keep-alive opened one connection per request ({connections})"
    );
    stop_promptly(handle);
}

#[test]
fn keep_alive_load_rotated_every_3_requests() {
    let handle = run_load(Mode {
        keep_alive: true,
        rotate_every: 3,
        reactors: 1,
    });
    assert_eq!(
        handle.stats().connections() as usize,
        CLIENTS * PER_CLIENT.div_ceil(3)
    );
    stop_promptly(handle);
}

#[test]
fn keep_alive_load_on_4_shards_spreads_and_aggregates() {
    let handle = run_load(Mode {
        keep_alive: true,
        rotate_every: 0,
        reactors: 4,
    });
    let stats = handle.stats();
    assert_eq!(stats.shards().len(), 4);
    assert_eq!(
        stats.shards().iter().map(|s| s.requests()).sum::<u64>(),
        stats.requests(),
        "per-shard requests must sum to the aggregate"
    );
    assert_eq!(
        stats.shards().iter().map(|s| s.connections()).sum::<u64>(),
        stats.connections(),
        "per-shard connections must sum to the aggregate"
    );
    let active = stats
        .shards()
        .iter()
        .filter(|s| s.connections() > 0)
        .count();
    assert!(active >= 2, "every connection landed on one shard");
    stop_promptly(handle);
}
