//! Workloads, their configurations, and the seeded request plan.
//!
//! Everything the generator sends is decided here, from the seed alone,
//! before any timing starts: which uids go into which burst, which burst
//! goes to which connection, which items a vote names, and which bodies
//! are sampled for checking. A run is a fixed number of operations, so two
//! runs with one seed ask the server for the same work.

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `GET /online/` only, deep pipelined bursts on two connections.
    OnlineRead,
    /// Alternating bursts of `GET /rate/` (new items) and `GET /online/`
    /// on one connection.
    RateMix,
    /// Fetch burst, widget on every body, `POST /neighbors/` burst, on the
    /// scheduled router over one connection.
    BrowserLoop,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Self::OnlineRead, Self::RateMix, Self::BrowserLoop];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::OnlineRead => "online_read",
            Self::RateMix => "rate_mix",
            Self::BrowserLoop => "browser_loop",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the scheduled (leased) router.
    #[must_use]
    pub fn scheduled(self) -> bool {
        self == Self::BrowserLoop
    }

    /// Operations per second of `--seconds`: a run is
    /// `seconds × nominal_rate` operations, so it lasts about `--seconds`
    /// on a 2-core x86-64 host while its length stays a pure function of
    /// the arguments.
    fn nominal_rate(self) -> usize {
        match self {
            Self::OnlineRead => 3_800,
            Self::RateMix => 4_000,
            Self::BrowserLoop => 210,
        }
    }
}

/// Everything a run needs besides the server: population shape, load
/// shape and run length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the population and of the request plan.
    pub seed: u64,
    /// Users in the population.
    pub users: u32,
    /// Liked items per user.
    pub profile_size: u32,
    /// Neighbourhood size.
    pub k: usize,
    /// Operations in the timed run.
    pub ops: usize,
    /// Requests per pipelined burst.
    pub depth: usize,
    /// Keep-alive connections the generator drives.
    pub connections: usize,
    /// One `/online/` body in this many is decoded and checked (every
    /// body in `browser_loop`, whose loop decodes them all anyway).
    pub sample_every: u64,
    /// Bursts per segment of the timed pass; the host-speed probe runs
    /// between segments (about a quarter of a second of work each).
    pub segment_bursts: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Server worker threads (one reactor in front of them).
    pub workers: usize,
}

impl Config {
    /// The benchmark's configuration: 10k users × 100 liked items, k = 10
    /// (≈109 candidates per job), one reactor and `nproc` workers.
    #[must_use]
    pub fn full(workload: Workload, seed: u64, seconds: u64) -> Self {
        let (depth, connections) = match workload {
            Workload::OnlineRead => (32, 2),
            Workload::RateMix => (32, 1),
            Workload::BrowserLoop => (8, 1),
        };
        let seconds = usize::try_from(seconds).expect("seconds fits usize");
        let ops = round_up(seconds * workload.nominal_rate(), depth * connections * 2);
        Self {
            workload,
            seed,
            users: 10_000,
            profile_size: 100,
            k: 10,
            ops,
            depth,
            connections,
            sample_every: if workload == Workload::BrowserLoop {
                1
            } else {
                128
            },
            segment_bursts: round_up(workload.nominal_rate() / depth / 4, connections * 2),
            setups: 3,
            workers: nproc(),
        }
    }

    /// A configuration small enough for tests: same shapes, tiny sizes.
    #[must_use]
    pub fn small(workload: Workload, seed: u64) -> Self {
        let full = Self::full(workload, seed, 1);
        Self {
            users: 300,
            profile_size: 20,
            ops: round_up(96, full.depth * full.connections * 2),
            sample_every: 4.min(full.sample_every),
            segment_bursts: 4,
            setups: 1,
            workers: 2,
            ..full
        }
    }

    /// The same configuration with `ops` operations.
    #[must_use]
    pub fn with_ops(&self, ops: usize) -> Self {
        Self {
            ops: round_up(ops.max(1), self.depth * self.connections * 2),
            ..self.clone()
        }
    }
}

fn round_up(value: usize, multiple: usize) -> usize {
    value.div_ceil(multiple) * multiple
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Which endpoint a burst hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /online/?uid=`.
    Online,
    /// `GET /rate/?uid=&item=&like=`.
    Rate,
}

/// One pipelined burst, written with a single `write` call.
#[derive(Debug, Clone)]
pub struct Burst {
    /// Burst id, carried in every request's `x-burst-id` header.
    pub id: u64,
    /// Connection index the burst is sent on.
    pub conn: usize,
    /// Endpoint of every request in the burst (bursts are homogeneous).
    pub kind: Kind,
    /// Requested uid per request; distinct within a burst, as they would
    /// be for distinct browsers.
    pub uids: Vec<u32>,
    /// Which requests' bodies are decoded and checked.
    pub sampled: Vec<bool>,
    /// The burst's request bytes.
    pub bytes: Vec<u8>,
}

/// Items voted on in `rate_mix` are new: ids above every population item.
const NEW_ITEM_BASE: u32 = 60_000;

/// Builds the request plan for a configuration.
///
/// `browser_loop` plans only its fetch bursts (even ids); each is followed
/// by a `POST /neighbors/` burst (the next odd id) whose bodies the widget
/// computes from the responses.
#[must_use]
pub fn plan(config: &Config) -> Vec<Burst> {
    let mut rng = SplitMix64::new(config.seed ^ 0x005E_ED0F_B0B5);
    let bursts = config.ops / config.depth;
    let mut next_item = NEW_ITEM_BASE;
    (0..bursts)
        .map(|b| {
            let kind = if config.workload == Workload::RateMix && b % 2 == 0 {
                Kind::Rate
            } else {
                Kind::Online
            };
            let id = if config.workload == Workload::BrowserLoop {
                2 * b as u64
            } else {
                b as u64
            };
            let uids = distinct_uids(&mut rng, config.depth, config.users);
            let mut bytes = Vec::with_capacity(uids.len() * 80);
            let mut sampled = Vec::with_capacity(uids.len());
            for (index, &uid) in uids.iter().enumerate() {
                let target = match kind {
                    Kind::Online => format!("/online/?uid={uid}"),
                    Kind::Rate => {
                        let like = u32::from(!rng.next_u64().is_multiple_of(5));
                        next_item += 1;
                        format!("/rate/?uid={uid}&item={next_item}&like={like}")
                    }
                };
                push_request(&mut bytes, "GET", &target, id, index, &[]);
                sampled.push(
                    kind == Kind::Online && rng.next_u64().is_multiple_of(config.sample_every),
                );
            }
            Burst {
                id,
                conn: b % config.connections,
                kind,
                uids,
                sampled,
                bytes,
            }
        })
        .collect()
}

/// Appends one HTTP/1.1 request tagged with its burst id and position.
pub fn push_request(
    out: &mut Vec<u8>,
    method: &str,
    target: &str,
    burst: u64,
    index: usize,
    body: &[u8],
) {
    out.extend_from_slice(
        format!("{method} {target} HTTP/1.1\r\nhost: bench\r\nx-burst-id: {burst}.{index}\r\n")
            .as_bytes(),
    );
    if !body.is_empty() {
        out.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// The key a request is known by in traces: burst id and position.
#[must_use]
pub fn request_key(burst: u64, index: usize) -> u64 {
    (burst << 8) | index as u64
}

fn distinct_uids(rng: &mut SplitMix64, count: usize, users: u32) -> Vec<u32> {
    assert!(count <= users as usize, "burst deeper than the population");
    let mut uids: Vec<u32> = Vec::with_capacity(count);
    while uids.len() < count {
        let uid = (rng.next_u64() % u64::from(users)) as u32;
        if !uids.contains(&uid) {
            uids.push(uid);
        }
    }
    uids
}

/// SplitMix64: a small seeded generator, so the plan does not depend on
/// any random-number crate's stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
