//! Path-prefix routing through a single [`Handler`] trait.
//!
//! Every route is a batched handler behind a [`BatchPolicy`]: the handler
//! receives a slice of requests and must append exactly one response per
//! request, in order. A *scalar* route is the policy-of-1 special case
//! ([`BatchPolicy::scalar`]) — each request fills its batch at once and
//! runs as soon as it is framed. Routes whose policy allows more than one
//! request per call are *coalescable*: each reactor shard gathers the
//! requests its own connections send to them during one pass of its event
//! loop (pipelined bursts and concurrent connections alike), up to the
//! policy cap, and runs them as one handler call at the end of the pass.
//! Batch composition follows from what one pass framed, never from a timer.

use crate::request::Request;
use crate::response::Response;

/// A request handler: the one trait the reactor dispatches through.
///
/// `handle` must push exactly one response per request onto `out`, in
/// input order. Closures of shape `Fn(&[Request], &mut Vec<Response>)`
/// implement it via a blanket impl; plain request/response closures wrap
/// with [`Scalar`].
pub trait Handler: Send + Sync {
    /// Serves a batch of requests, appending one response per request (in
    /// order) to `out`.
    fn handle(&self, batch: &[Request], out: &mut Vec<Response>);
}

impl<F> Handler for F
where
    F: Fn(&[Request], &mut Vec<Response>) + Send + Sync,
{
    fn handle(&self, batch: &[Request], out: &mut Vec<Response>) {
        self(batch, out);
    }
}

/// Adapter turning a plain `Fn(&Request) -> Response` into a [`Handler`]
/// (applied element-wise — the shape scalar routes are written in).
pub struct Scalar<F>(pub F);

impl<F> Handler for Scalar<F>
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, batch: &[Request], out: &mut Vec<Response>) {
        out.extend(batch.iter().map(&self.0));
    }
}

/// Coalescing parameters of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most requests one handler call serves. Requests one shard frames in
    /// one pass of its event loop run together, split into calls of at
    /// most this many; `1` runs every request alone (the scalar special
    /// case).
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { max_batch: 128 }
    }
}

impl BatchPolicy {
    /// The policy-of-1: every request runs alone, as soon as it is framed.
    #[must_use]
    pub fn scalar() -> Self {
        Self { max_batch: 1 }
    }

    /// Whether this policy ever gathers more than one request per call.
    #[must_use]
    pub fn is_batched(&self) -> bool {
        self.max_batch > 1
    }
}

/// A registered route: method + prefix + policy + handler.
pub struct Route {
    method: String,
    prefix: String,
    policy: BatchPolicy,
    handler: Box<dyn Handler>,
}

impl Route {
    /// The coalescing parameters.
    #[must_use]
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Runs the handler on a gathered batch.
    ///
    /// # Panics
    ///
    /// Panics if the handler breaks the one-response-per-request contract.
    #[must_use]
    pub fn run(&self, requests: &[Request]) -> Vec<Response> {
        let mut responses = Vec::with_capacity(requests.len());
        self.handler.handle(requests, &mut responses);
        assert_eq!(
            responses.len(),
            requests.len(),
            "batch handler for {} returned {} responses for {} requests",
            self.prefix,
            responses.len(),
            requests.len()
        );
        responses
    }
}

/// How a request resolves against the routing table.
pub enum Resolution {
    /// A route matched; the index is stable and usable with
    /// [`Router::route_at`].
    Route(usize),
    /// A path matched but with a different method.
    MethodNotAllowed,
    /// Nothing matched.
    NotFound,
}

/// Longest-prefix router over a single [`Handler`] route table.
///
/// A prefix registered with a trailing slash also matches the bare path:
/// `/online/` matches `/online` (and vice versa `/online` matches
/// `/online/...` by ordinary prefixing), so clients may omit or include the
/// trailing slash interchangeably.
///
/// ```
/// use hyrec_http::router::Resolution;
/// use hyrec_http::{Request, Response, Router};
///
/// let mut router = Router::new();
/// router.get("/ping", |_req| Response::ok("text/plain", b"pong".to_vec()));
/// let (req, _) = Request::try_parse(b"GET /ping HTTP/1.1\r\n\r\n").unwrap().unwrap();
/// let Resolution::Route(index) = router.resolve(&req) else { panic!("unrouted") };
/// assert_eq!(router.route_at(index).run(&[req])[0].body, b"pong");
/// ```
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let paths: Vec<String> = self
            .routes
            .iter()
            .map(|r| {
                format!(
                    "{} {}{}",
                    r.method,
                    r.prefix,
                    if r.policy.is_batched() {
                        " (batched)"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        f.debug_struct("Router").field("routes", &paths).finish()
    }
}

/// Whether `path` falls under `prefix`, treating a trailing-slash prefix
/// and its bare form as the same endpoint. A bare prefix only matches on a
/// segment boundary (`/rate` matches `/rate` and `/rate/…`, never
/// `/ratex`).
fn path_matches(prefix: &str, path: &str) -> bool {
    if prefix.ends_with('/') {
        path.starts_with(prefix) || path == &prefix[..prefix.len() - 1]
    } else {
        path.strip_prefix(prefix)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    }
}

impl Router {
    /// An empty router (resolves everything to [`Resolution::NotFound`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for an arbitrary method under `prefix` with an
    /// explicit coalescing policy — the one registration point every sugar
    /// method funnels through.
    pub fn route<H: Handler + 'static>(
        &mut self,
        method: &str,
        prefix: &str,
        policy: BatchPolicy,
        handler: H,
    ) -> &mut Self {
        self.routes.push(Route {
            method: method.to_ascii_uppercase(),
            prefix: prefix.to_owned(),
            policy,
            handler: Box::new(handler),
        });
        self
    }

    /// Registers a scalar (policy-of-1) handler for `GET` requests.
    pub fn get<F>(&mut self, prefix: &str, handler: F) -> &mut Self
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        self.route("GET", prefix, BatchPolicy::scalar(), Scalar(handler))
    }

    /// Registers a scalar (policy-of-1) handler for `POST` requests.
    pub fn post<F>(&mut self, prefix: &str, handler: F) -> &mut Self
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        self.route("POST", prefix, BatchPolicy::scalar(), Scalar(handler))
    }

    /// Number of registered routes.
    #[must_use]
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The route at `index` (as returned by [`Resolution::Route`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn route_at(&self, index: usize) -> &Route {
        &self.routes[index]
    }

    /// Resolves a request against the route table, longest prefix first;
    /// on equal prefix length a coalescable route beats a scalar one (more
    /// specific intent), otherwise the earlier registration wins.
    #[must_use]
    pub fn resolve(&self, request: &Request) -> Resolution {
        let mut best: Option<(usize, &Route)> = None;
        let mut path_matched = false;
        for (index, route) in self.routes.iter().enumerate() {
            if !path_matches(&route.prefix, &request.path) {
                continue;
            }
            path_matched = true;
            if route.method != request.method {
                continue;
            }
            let better = best.is_none_or(|(_, b)| {
                route.prefix.len() > b.prefix.len()
                    || (route.prefix.len() == b.prefix.len()
                        && route.policy.is_batched()
                        && !b.policy.is_batched())
            });
            if better {
                best = Some((index, route));
            }
        }
        match best {
            Some((index, _)) => Resolution::Route(index),
            None if path_matched => Resolution::MethodNotAllowed,
            None => Resolution::NotFound,
        }
    }
}

/// A reactor shard's gather state: one pending batch per route. Each
/// shard owns one and touches it only from its own event loop,
/// so it takes no lock, and a shard's batches never wait on another
/// shard's work. Entries carry an opaque destination `D` (connection,
/// sequence) that the shard uses to route each response back to its
/// connection.
pub(crate) struct Gather<D> {
    /// One slot per route (indexed by route-table index). A scalar route's
    /// slot fills and empties within one push.
    slots: Vec<GatheredBatch<D>>,
    /// Each route's `max_batch`.
    caps: Vec<usize>,
}

/// A batch for one handler call: destination-tagged requests of one route,
/// in arrival order.
pub(crate) struct GatheredBatch<D> {
    /// Route-table index the batch belongs to.
    pub route: usize,
    /// Where each response goes, parallel to `requests`.
    pub destinations: Vec<D>,
    /// The requests, in arrival order.
    pub requests: Vec<Request>,
}

impl<D> GatheredBatch<D> {
    fn empty(route: usize) -> Self {
        Self {
            route,
            destinations: Vec::new(),
            requests: Vec::new(),
        }
    }
}

impl<D> Gather<D> {
    /// One empty slot per route in `router`.
    pub(crate) fn new(router: &Router) -> Self {
        Self {
            slots: (0..router.route_count())
                .map(GatheredBatch::empty)
                .collect(),
            caps: router.routes.iter().map(|r| r.policy.max_batch).collect(),
        }
    }

    /// Adds a request to `route`'s pending batch and returns the batch if
    /// that filled it (under the policy-of-1, every request does).
    pub(crate) fn push(
        &mut self,
        route: usize,
        destination: D,
        request: Request,
    ) -> Option<GatheredBatch<D>> {
        let slot = &mut self.slots[route];
        slot.destinations.push(destination);
        slot.requests.push(request);
        (slot.requests.len() >= self.caps[route])
            .then(|| std::mem::replace(slot, GatheredBatch::empty(route)))
    }

    /// Takes every pending batch, in route order.
    pub(crate) fn take_all(&mut self) -> Vec<GatheredBatch<D>> {
        self.slots
            .iter_mut()
            .filter(|slot| !slot.requests.is_empty())
            .map(|slot| {
                let route = slot.route;
                std::mem::replace(slot, GatheredBatch::empty(route))
            })
            .collect()
    }

    /// Whether every slot is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.iter().all(|slot| slot.requests.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, target: &str) -> Request {
        let wire = format!("{method} {target} HTTP/1.1\r\n\r\n");
        Request::try_parse(wire.as_bytes()).unwrap().unwrap().0
    }

    /// Serves one request the way the reactor does: resolve, then run the
    /// route on a batch of one; misses answer 404 or 405.
    fn dispatch(router: &Router, request: &Request) -> Response {
        match router.resolve(request) {
            Resolution::Route(index) => {
                let mut responses = router.route_at(index).run(std::slice::from_ref(request));
                responses.pop().expect("one response per request")
            }
            Resolution::MethodNotAllowed => Response::error(405, "method not allowed"),
            Resolution::NotFound => Response::not_found(),
        }
    }

    #[test]
    fn dispatches_longest_prefix() {
        let mut router = Router::new();
        router.get("/", |_| Response::ok("text/plain", b"root".to_vec()));
        router.get("/api/", |_| Response::ok("text/plain", b"api".to_vec()));
        router.get("/api/deep/", |_| {
            Response::ok("text/plain", b"deep".to_vec())
        });

        assert_eq!(dispatch(&router, &req("GET", "/x")).body, b"root");
        assert_eq!(dispatch(&router, &req("GET", "/api/online")).body, b"api");
        assert_eq!(dispatch(&router, &req("GET", "/api/deep/1")).body, b"deep");
    }

    #[test]
    fn unknown_path_is_404() {
        let mut router = Router::new();
        router.get("/only/", |_| Response::ok("text/plain", Vec::new()));
        assert_eq!(dispatch(&router, &req("GET", "/nope")).status, 404);
    }

    #[test]
    fn wrong_method_is_405() {
        let mut router = Router::new();
        router.get("/thing", |_| Response::ok("text/plain", Vec::new()));
        assert_eq!(dispatch(&router, &req("POST", "/thing")).status, 405);
    }

    #[test]
    fn get_and_post_coexist() {
        let mut router = Router::new();
        router.get("/dual", |_| Response::ok("text/plain", b"get".to_vec()));
        router.post("/dual", |_| Response::ok("text/plain", b"post".to_vec()));
        assert_eq!(dispatch(&router, &req("GET", "/dual")).body, b"get");
        assert_eq!(dispatch(&router, &req("POST", "/dual")).body, b"post");
    }

    #[test]
    fn trailing_slash_routes_are_equivalent() {
        // Regression: `/online/` registered, `/online` requested (and the
        // mirror case). The seed router was trailing-slash sensitive.
        let mut router = Router::new();
        router.get("/online/", |_| Response::ok("text/plain", b"on".to_vec()));
        router.get("/rate", |_| Response::ok("text/plain", b"rt".to_vec()));

        assert_eq!(dispatch(&router, &req("GET", "/online/")).body, b"on");
        assert_eq!(dispatch(&router, &req("GET", "/online")).body, b"on");
        assert_eq!(dispatch(&router, &req("GET", "/online/?uid=1")).body, b"on");
        assert_eq!(dispatch(&router, &req("GET", "/rate")).body, b"rt");
        assert_eq!(dispatch(&router, &req("GET", "/rate/")).body, b"rt");
        // But unrelated longer segments must not match the bare form.
        assert_eq!(dispatch(&router, &req("GET", "/onlinex")).status, 404);
        assert_eq!(dispatch(&router, &req("GET", "/ratex")).status, 404);
    }

    #[test]
    fn batched_route_dispatches_scalar_as_batch_of_one() {
        let mut router = Router::new();
        router.route(
            "GET",
            "/batch/",
            BatchPolicy::default(),
            |requests: &[Request], out: &mut Vec<Response>| {
                out.extend(requests.iter().map(|r| {
                    let uid = r.query_param("uid").unwrap_or("?");
                    Response::ok("text/plain", format!("batched:{uid}").into_bytes())
                }));
            },
        );
        assert_eq!(
            dispatch(&router, &req("GET", "/batch/?uid=7")).body,
            b"batched:7"
        );
        assert_eq!(dispatch(&router, &req("POST", "/batch/")).status, 405);
        assert_eq!(router.route_count(), 1);
        assert!(router.route_at(0).policy().is_batched());
    }

    #[test]
    fn route_resolution_and_run() {
        let mut router = Router::new();
        router.get("/a/", |_| Response::ok("text/plain", b"scalar".to_vec()));
        router.route(
            "GET",
            "/a/deeper/",
            BatchPolicy::default(),
            |requests: &[Request], out: &mut Vec<Response>| {
                out.extend(
                    requests
                        .iter()
                        .map(|_| Response::ok("text/plain", b"batch".to_vec())),
                );
            },
        );
        // Longest prefix wins across policies.
        match router.resolve(&req("GET", "/a/deeper/x")) {
            Resolution::Route(index) => {
                assert!(router.route_at(index).policy().is_batched());
                let out = router
                    .route_at(index)
                    .run(&[req("GET", "/a/deeper/x"), req("GET", "/a/deeper/y")]);
                assert_eq!(out.len(), 2);
                assert_eq!(out[0].body, b"batch");
            }
            _ => panic!("expected route resolution"),
        }
        match router.resolve(&req("GET", "/a/only")) {
            Resolution::Route(index) => {
                assert!(!router.route_at(index).policy().is_batched());
                assert_eq!(dispatch(&router, &req("GET", "/a/only")).body, b"scalar");
            }
            _ => panic!("expected route resolution"),
        }
    }

    #[test]
    fn batched_beats_scalar_on_equal_prefix() {
        let mut router = Router::new();
        router.get("/same/", |_| Response::ok("text/plain", b"scalar".to_vec()));
        router.route(
            "GET",
            "/same/",
            BatchPolicy::default(),
            |requests: &[Request], out: &mut Vec<Response>| {
                out.extend(
                    requests
                        .iter()
                        .map(|_| Response::ok("text/plain", b"batch".to_vec())),
                );
            },
        );
        assert_eq!(dispatch(&router, &req("GET", "/same/")).body, b"batch");
    }

    #[test]
    fn gather_fills_and_takes_pending_batches() {
        let mut router = Router::new();
        let answer = |requests: &[Request], out: &mut Vec<Response>| {
            out.extend(
                requests
                    .iter()
                    .map(|_| Response::ok("text/plain", Vec::new())),
            );
        };
        router.route("GET", "/g/", BatchPolicy { max_batch: 3 }, answer);
        router.route("GET", "/h/", BatchPolicy { max_batch: 3 }, answer);
        router.get("/s/", |_| Response::ok("text/plain", Vec::new()));
        let mut gather: Gather<u32> = Gather::new(&router);
        assert!(gather.is_empty());

        // The first two entries join the slot; the third crosses max_batch
        // and comes back as the whole batch.
        assert!(gather.push(0, 1, req("GET", "/g/")).is_none());
        assert!(gather.push(0, 2, req("GET", "/g/")).is_none());
        assert!(!gather.is_empty());
        let full = gather
            .push(0, 3, req("GET", "/g/"))
            .expect("third push fills");
        assert_eq!(full.route, 0);
        assert_eq!(full.destinations, vec![1, 2, 3]);
        assert_eq!(full.requests.len(), 3);
        assert!(gather.is_empty());

        // A scalar route's request is a full batch of one at once.
        let alone = gather.push(2, 4, req("GET", "/s/")).expect("policy-of-1");
        assert_eq!((alone.route, alone.destinations), (2, vec![4]));

        // Partial batches leave together, in route order, however their
        // requests arrived.
        assert!(gather.push(1, 5, req("GET", "/h/")).is_none());
        assert!(gather.push(0, 6, req("GET", "/g/")).is_none());
        assert!(gather.push(1, 7, req("GET", "/h/")).is_none());
        let pending = gather.take_all();
        assert_eq!(
            pending
                .iter()
                .map(|b| (b.route, b.destinations.clone()))
                .collect::<Vec<_>>(),
            vec![(0, vec![6]), (1, vec![5, 7])]
        );
        assert!(gather.is_empty());
        assert!(gather.take_all().is_empty());
    }

    #[test]
    #[should_panic(expected = "batch handler")]
    fn batch_handler_arity_is_enforced() {
        let mut router = Router::new();
        router.route(
            "GET",
            "/bad/",
            BatchPolicy::default(),
            |_: &[Request], _: &mut Vec<Response>| {},
        );
        let _ = dispatch(&router, &req("GET", "/bad/"));
    }
}
