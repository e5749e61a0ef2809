//! Compressed-fragment caching for personalization jobs.
//!
//! The orchestrator's per-request work is "retrieve a candidate set … and
//! build a personalization job" (Section 3.1) — crucially *not* any
//! recommendation computation. The dominant cost of shipping a job is
//! serializing and gzip-compressing ~120 candidate profiles plus the
//! requester's own; since a profile only changes when its owner rates
//! something, this encoder caches **already-compressed** DEFLATE chunks
//! (zlib `Z_SYNC_FLUSH` framing, byte-aligned and freely concatenatable),
//! each with its CRC-32 and a CRC shift operator. The cache holds one entry
//! per user with two slots, each filled on first use:
//!
//! - the *candidate fragment* `,{"uid":<uid>,"profile":{…}}`, served
//!   whenever the user is a candidate in someone's job;
//! - the *requester chunk* `{"liked":[…],"disliked":[…]},"candidates":[null`,
//!   served whenever the user asks for a job of their own.
//!
//! A slot is valid while the profile keeps the [`Profile::stamp`] the slot
//! was compressed from. Every change of a profile's votes draws a fresh
//! stamp and clones keep theirs, so checking a slot is one integer compare
//! — no pass over the item lists — and a hit costs that compare plus a
//! reference-count bump. A miss (the user voted since the slot was filled)
//! recompresses that slot and takes its CRC-32. Shift operators are
//! interned per raw length, so fragments of one length share one. A
//! requester with an empty profile (a user the server has never seen) gets
//! one process-wide constant chunk and creates no entry, so a stream of
//! fresh uids cannot evict real fragments.
//!
//! A body is then, in order:
//!
//! 1. the gzip header;
//! 2. the per-request head
//!    `{"uid":…,"k":…,"r":…[,"lease":…,"epoch":…],"profile":`, written as
//!    one non-final *stored* block — a copy, no Huffman work;
//! 3. the requester's cached chunk;
//! 4. the cached candidate fragments;
//! 5. the precomputed `]}` suffix chunk, the stream terminator and the
//!    gzip trailer, whose CRC folds the cached CRCs with
//!    [`hyrec_wire::crc::ShiftOp::combine`].
//!
//! Planning a body ([`JobEncoder::plan_jobs`]) writes only its head and
//! its 13-byte tail; the cached chunks stay shared, so the front-end copies
//! each of them once, straight into a connection's send buffer, with
//! [`JobBody::write_into`]. [`JobEncoder::encode_jobs`] writes the same
//! pieces into a `Vec` per job. On a warm cache a request runs no
//! compressor, leased or not: a CRC-32 of the few dozen head bytes, CRC
//! folds and one copy of each chunk. [`JobEncoder::resolve`] and
//! [`ResolvedBatch::assemble`] expose the two halves (cache work, then
//! per-job assembly) so each can be timed alone; [`JobEncoder::stats`]
//! counts the cache's hits, misses and evictions.
//!
//! This is the engineering reason the HyRec front-end outruns the CRec
//! front-end in Figure 8: CRec must recompute item popularity over every
//! candidate profile per request, while HyRec's per-request CPU is
//! memcpys.
//!
//! Every piece of JSON text comes from the writers in
//! [`hyrec_wire::messages`], the ones [`PersonalizationJob::to_json`] uses,
//! so a body inflates to that text with one difference: the candidates
//! array carries a leading `null` sentinel (so every candidate fragment can
//! be comma-prefixed), which [`PersonalizationJob::decode`] skips.

use hyrec_core::fast_hash::KeyedHashMap;
use hyrec_core::FastHashMap;
use hyrec_core::{Profile, UserId};
use hyrec_wire::crc::{crc32, ShiftOp};
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::deflate::{compress_chunk, STREAM_TERMINATOR};
use hyrec_wire::gzip;
use hyrec_wire::messages::{write_candidate, write_requester, JOB_END};
use hyrec_wire::PersonalizationJob;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Default bound on the number of cached users.
///
/// At typical profile sizes a user's two slots are a few hundred bytes
/// each, so the default bound keeps the cache in the tens of megabytes;
/// million-user deployments should size it to their hot set via
/// [`JobEncoder::with_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 64 * 1024;

/// Bytes a stored DEFLATE block adds to its payload (RFC 1951 §3.2.4): a
/// header byte with BFINAL = 0 and BTYPE = 00, whose padding bits align the
/// block, then LEN and NLEN.
const STORED_OVERHEAD: usize = 5;

/// Bytes after a body's last chunk: the stream terminator, then the gzip
/// trailer (CRC-32 and ISIZE, little-endian).
const TAIL_LEN: usize = STREAM_TERMINATOR.len() + 8;

/// A pre-compressed piece of a job body: its DEFLATE chunk plus what the
/// gzip trailer needs to account for it without touching the raw bytes.
struct Fragment {
    chunk: Box<[u8]>,
    crc: u32,
    /// Advances a CRC past the raw bytes; its `len()` is their length.
    shift: Arc<ShiftOp>,
}

impl Fragment {
    /// Compresses `raw` with an operator of its own (for the process-wide
    /// constants; cached fragments share interned operators).
    fn compress(raw: &[u8]) -> Self {
        Self {
            chunk: compress_chunk(raw, Effort::FAST).into_boxed_slice(),
            crc: crc32(raw),
            shift: Arc::new(ShiftOp::for_len(raw.len() as u64)),
        }
    }

    /// Folds the raw bytes into a running CRC and length.
    #[inline]
    fn fold(&self, crc: &mut u32, total_len: &mut u64) {
        *crc = self.shift.combine(*crc, self.crc);
        *total_len += self.shift.len();
    }
}

/// The body's closing [`JOB_END`], identical in every job: compressed once
/// per process.
static SUFFIX: LazyLock<Fragment> = LazyLock::new(|| Fragment::compress(JOB_END));

/// The requester chunk of an empty profile, identical for every user the
/// server has never seen: compressed once per process and never cached, so
/// its stamp is never compared.
static EMPTY_REQUESTER: LazyLock<Arc<Cached>> = LazyLock::new(|| {
    let mut raw = Vec::new();
    slot_json(&mut raw, Slot::Requester, UserId(0), &Profile::new());
    Arc::new(Cached {
        stamp: 0,
        fragment: Fragment::compress(&raw),
    })
});

/// Which of a user's two cached pieces a body needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    /// `,{"uid":<uid>,"profile":{…}}` (leading comma — the array opens
    /// with a `null` sentinel so every candidate entry is comma-prefixed).
    Candidate,
    /// `{…},"candidates":[null`: the requester's profile, closing the
    /// head's `"profile":` key and opening the candidates array.
    Requester,
}

/// Serializes the raw bytes of `user`'s `slot`.
fn slot_json(out: &mut Vec<u8>, slot: Slot, user: UserId, profile: &Profile) {
    match slot {
        Slot::Candidate => {
            out.push(b',');
            write_candidate(out, user, profile);
        }
        Slot::Requester => {
            write_requester(out, profile);
            out.extend_from_slice(b"null");
        }
    }
}

/// A filled slot: a fragment and the [`Profile::stamp`] of the profile it
/// was compressed from.
struct Cached {
    stamp: u64,
    fragment: Fragment,
}

/// One cached user.
struct Entry {
    /// Indexed by [`Slot`].
    slots: [Option<Arc<Cached>>; 2],
    /// Encoder tick of the last hit on either slot — the eviction clock.
    /// Atomic so cache hits can refresh it under the *read* lock.
    last_used: AtomicU64,
}

/// The cache behind one lock: entries keyed by the client-chosen user ids
/// (hence the keyed hasher), and the shift operators they share.
#[derive(Default)]
struct Cache {
    entries: KeyedHashMap<UserId, Entry>,
    /// One operator per raw length in use: fragment lengths take a few
    /// hundred distinct values, so sharing them saves a 136-byte matrix per
    /// fragment.
    shifts: FastHashMap<u64, Arc<ShiftOp>>,
}

/// Memoizing, chunk-assembling encoder for personalization jobs.
///
/// Thread-safe; share one per server. Output decodes with
/// [`PersonalizationJob::decode`].
///
/// ```
/// use hyrec_server::encoder::JobEncoder;
/// use hyrec_server::HyRecServer;
/// use hyrec_core::{ItemId, UserId, Vote};
/// use hyrec_wire::PersonalizationJob;
///
/// let server = HyRecServer::new();
/// server.record(UserId(1), ItemId(5), Vote::Like);
/// server.record(UserId(2), ItemId(5), Vote::Like);
/// let job = server.build_job(UserId(1));
///
/// let encoder = JobEncoder::new();
/// let bytes = encoder.encode(&job);
/// let decoded = PersonalizationJob::decode(&bytes)?;
/// assert_eq!(decoded, job);
/// # Ok::<(), hyrec_wire::WireError>(())
/// ```
pub struct JobEncoder {
    cache: RwLock<Cache>,
    /// Totals behind [`Self::stats`], one relaxed add each per batch.
    hits: AtomicU64,
    misses: AtomicU64,
    requester_hits: AtomicU64,
    requester_misses: AtomicU64,
    evictions: AtomicU64,
    /// Entry-count bound; exceeding it triggers an epoch sweep back down
    /// to half the bound (amortized O(1) per insert).
    capacity: usize,
    /// Monotonic batch counter driving `last_used` (one tick per
    /// encode/encode_jobs call, not per fragment — cheaper and just as good
    /// an LRU approximation).
    tick: AtomicU64,
}

/// Cache totals of a [`JobEncoder`] since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncoderStats {
    /// Candidates served from a cached fragment.
    pub hits: u64,
    /// Candidates whose fragment was missing or stale. A fragment missing
    /// for several jobs of one batch is compressed once but counted once
    /// per candidate.
    pub misses: u64,
    /// Jobs whose requester chunk was served from the cache.
    pub requester_hits: u64,
    /// Jobs whose requester chunk was missing or stale, counted per job
    /// like `misses`. A requester with an empty profile uses the shared
    /// constant chunk and counts as neither hit nor miss.
    pub requester_misses: u64,
    /// Entries (users) dropped by the capacity sweep.
    pub evictions: u64,
}

/// Every cached piece of a batch of jobs, resolved against the cache by
/// [`JobEncoder::resolve`]; [`ResolvedBatch::plan`] turns it into bodies.
pub struct ResolvedBatch {
    /// Per job, in order: its requester chunk, then one fragment per
    /// candidate. Shared with the batch's [`JobBody`]s.
    slots: Arc<Vec<Arc<Cached>>>,
}

/// One job body, planned but not copied: its head, its cached pieces and
/// its tail. [`JobBody::write_into`] is the only code that lays a body
/// out, so a body written into a socket's send buffer and one returned by
/// [`JobEncoder::encode`] are the same bytes.
#[derive(Clone)]
pub struct JobBody {
    /// The gzip header, then the per-request head
    /// `{"uid":…,"k":…,"r":…[,"lease":…,"epoch":…],"profile":` as one
    /// non-final stored block — a copy, no Huffman work.
    head: Box<[u8]>,
    /// The batch's resolved pieces; this body's are `batch[pieces]`: the
    /// requester chunk, then one fragment per candidate.
    batch: Arc<Vec<Arc<Cached>>>,
    pieces: std::ops::Range<usize>,
    /// The stream terminator and the gzip trailer, whose CRC was folded
    /// from the head's and the cached CRCs when the body was planned.
    tail: [u8; TAIL_LEN],
    /// Total bytes on the wire.
    len: usize,
}

impl JobBody {
    /// The body's length in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.len
    }

    /// Appends the body to `out`: the head, each cached chunk, the `]}`
    /// suffix chunk and the tail, each copied once.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.len);
        out.extend_from_slice(&self.head);
        for cached in &self.batch[self.pieces.clone()] {
            out.extend_from_slice(&cached.fragment.chunk);
        }
        out.extend_from_slice(&SUFFIX.chunk);
        out.extend_from_slice(&self.tail);
    }

    /// The body as one buffer.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.write_into(&mut out);
        out
    }
}

impl std::fmt::Debug for JobBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobBody")
            .field("len", &self.len)
            .field("pieces", &self.pieces.len())
            .finish()
    }
}

/// Bodies are equal when their bytes are.
impl PartialEq for JobBody {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.to_vec() == other.to_vec()
    }
}

impl Eq for JobBody {}

impl Default for JobEncoder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for JobEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobEncoder")
            .field("cached_profiles", &self.cached_profiles())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl JobEncoder {
    /// Creates an empty encoder with the default cache bound.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty encoder bounded to at most `capacity` cached users
    /// (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            cache: RwLock::new(Cache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            requester_hits: AtomicU64::new(0),
            requester_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
        }
    }

    /// Number of cached users: entries holding a candidate fragment, a
    /// requester chunk or both.
    #[must_use]
    pub fn cached_profiles(&self) -> usize {
        self.cache.read().entries.len()
    }

    /// The cache bound, in users.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> EncoderStats {
        EncoderStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            requester_hits: self.requester_hits.load(Ordering::Relaxed),
            requester_misses: self.requester_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Encodes a job to a gzip member assembled from cached fragments.
    #[must_use]
    pub fn encode(&self, job: &PersonalizationJob) -> Vec<u8> {
        self.encode_jobs(std::slice::from_ref(job))
            .pop()
            .expect("one job in, one body out")
    }

    /// Batched [`Self::encode`]: encodes a coalesced batch of jobs, one gzip
    /// member per job, byte-identical to encoding each job on its own.
    ///
    /// The batch amortizes what the scalar path pays per request: the
    /// cache is consulted under **one** read lock for all jobs, freshly
    /// compressed pieces are installed under one write lock, and one JSON
    /// scratch buffer serves all misses. A piece missing for several jobs
    /// of the batch is compressed once.
    #[must_use]
    pub fn encode_jobs(&self, jobs: &[PersonalizationJob]) -> Vec<Vec<u8>> {
        self.resolve(jobs).assemble(jobs)
    }

    /// [`Self::encode_jobs`] without the copies: one planned [`JobBody`] per
    /// job, for a caller that writes each body straight into its own
    /// buffer (the HTTP front-end's send buffer).
    #[must_use]
    pub fn plan_jobs(&self, jobs: &[PersonalizationJob]) -> Vec<JobBody> {
        self.resolve(jobs).plan(jobs)
    }

    /// First half of [`Self::encode_jobs`]: finds every job's requester
    /// chunk and candidate fragments, compressing and caching the ones
    /// that are missing or stale.
    #[must_use]
    pub fn resolve(&self, jobs: &[PersonalizationJob]) -> ResolvedBatch {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let candidates: usize = jobs.iter().map(|job| job.candidates.len()).sum();
        let wanted = jobs.iter().flat_map(|job| {
            std::iter::once((Slot::Requester, job.uid, &*job.profile)).chain(
                job.candidates
                    .iter()
                    .map(|candidate| (Slot::Candidate, candidate.user, &*candidate.profile)),
            )
        });

        // Pass 1 — under one read lock, a hit is a stamp compare and a
        // refcount bump. A miss records its position and, once per
        // distinct (slot, user, stamp), the profile to compress after the
        // lock drops.
        let mut slots: Vec<Option<Arc<Cached>>> = Vec::with_capacity(jobs.len() + candidates);
        let mut misses: Vec<(Slot, UserId, &Profile)> = Vec::new();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut miss_index: KeyedHashMap<(Slot, UserId, u64), usize> = KeyedHashMap::default();
        let mut requesters = 0u64;
        let mut requester_misses = 0u64;
        {
            let cache = self.cache.read();
            for (slot, user, profile) in wanted {
                if slot == Slot::Requester {
                    if profile.is_empty() {
                        slots.push(Some(Arc::clone(&EMPTY_REQUESTER)));
                        continue;
                    }
                    requesters += 1;
                }
                let stamp = profile.stamp();
                if let Some(entry) = cache.entries.get(&user) {
                    if let Some(hit) = entry.slots[slot as usize]
                        .as_ref()
                        .filter(|hit| hit.stamp == stamp)
                    {
                        entry.last_used.store(tick, Ordering::Relaxed);
                        slots.push(Some(Arc::clone(hit)));
                        continue;
                    }
                }
                if slot == Slot::Requester {
                    requester_misses += 1;
                }
                let next = misses.len();
                let miss = *miss_index.entry((slot, user, stamp)).or_insert(next);
                if miss == next {
                    misses.push((slot, user, profile));
                }
                pending.push((slots.len(), miss));
                slots.push(None);
            }
        }
        let candidate_misses = pending.len() as u64 - requester_misses;
        self.hits
            .fetch_add(candidates as u64 - candidate_misses, Ordering::Relaxed);
        self.misses.fetch_add(candidate_misses, Ordering::Relaxed);
        self.requester_hits
            .fetch_add(requesters - requester_misses, Ordering::Relaxed);
        self.requester_misses
            .fetch_add(requester_misses, Ordering::Relaxed);

        if !misses.is_empty() {
            // Pass 2 — compress the misses with no lock held.
            let mut scratch = Vec::new();
            let compressed: Vec<(Box<[u8]>, u32, u64)> = misses
                .iter()
                .map(|&(slot, user, profile)| {
                    scratch.clear();
                    slot_json(&mut scratch, slot, user, profile);
                    (
                        compress_chunk(&scratch, Effort::FAST).into_boxed_slice(),
                        crc32(&scratch),
                        scratch.len() as u64,
                    )
                })
                .collect();

            // Pass 3 — under one write lock, intern each shift operator
            // and fill each slot, then sweep if the bound is exceeded. (If
            // one user's slot appears with two stamps in a batch —
            // impossible via `build_jobs`, which snapshots each profile
            // once — the later fill wins; every body still carries the
            // piece of its own job's profile.)
            let mut cache = self.cache.write();
            let Cache { entries, shifts } = &mut *cache;
            let filled: Vec<Arc<Cached>> = misses
                .iter()
                .zip(compressed)
                .map(|(&(slot, user, profile), (chunk, crc, len))| {
                    let shift = shifts
                        .entry(len)
                        .or_insert_with(|| Arc::new(ShiftOp::for_len(len)));
                    let cached = Arc::new(Cached {
                        stamp: profile.stamp(),
                        fragment: Fragment {
                            chunk,
                            crc,
                            shift: Arc::clone(shift),
                        },
                    });
                    let entry = entries.entry(user).or_insert_with(|| Entry {
                        slots: [None, None],
                        last_used: AtomicU64::new(tick),
                    });
                    *entry.last_used.get_mut() = tick;
                    entry.slots[slot as usize] = Some(Arc::clone(&cached));
                    cached
                })
                .collect();
            self.evict_excess(&mut cache);
            drop(cache);
            for (position, miss) in pending {
                slots[position] = Some(Arc::clone(&filled[miss]));
            }
        }

        ResolvedBatch {
            slots: Arc::new(
                slots
                    .into_iter()
                    .map(|slot| slot.expect("every miss compressed"))
                    .collect(),
            ),
        }
    }

    /// Epoch sweep: when the cache exceeds its bound, drop the
    /// least-recently-used half so inserts stay amortized O(1), then the
    /// shift operators no remaining fragment uses.
    fn evict_excess(&self, cache: &mut Cache) {
        if cache.entries.len() <= self.capacity {
            return;
        }
        let target = self.capacity / 2;
        let mut ages: Vec<(u64, UserId)> = cache
            .entries
            .iter()
            .map(|(user, entry)| (entry.last_used.load(Ordering::Relaxed), *user))
            .collect();
        ages.sort_unstable();
        let excess = cache.entries.len() - target;
        for &(_, user) in ages.iter().take(excess) {
            cache.entries.remove(&user);
        }
        // An operator only the table holds belongs to no fragment, cached
        // or in flight; new holders appear only under this write lock.
        cache.shifts.retain(|_, shift| Arc::strong_count(shift) > 1);
        self.evictions.fetch_add(excess as u64, Ordering::Relaxed);
    }
}

impl ResolvedBatch {
    /// Second half of [`JobEncoder::encode_jobs`]: plans one body per job.
    /// Each body's head is written and its trailer CRC folded from the
    /// head's and the cached CRCs with [`ShiftOp::combine`]; the cached
    /// chunks are shared, not copied.
    ///
    /// # Panics
    ///
    /// If `jobs` are not the jobs this batch was resolved from.
    #[must_use]
    pub fn plan(&self, jobs: &[PersonalizationJob]) -> Vec<JobBody> {
        let total: usize = jobs.iter().map(|job| 1 + job.candidates.len()).sum();
        assert_eq!(total, self.slots.len(), "jobs differ from the batch");
        let suffix = &*SUFFIX;
        let mut head = Vec::new();
        let mut start = 0;
        jobs.iter()
            .map(|job| {
                let pieces = start..start + 1 + job.candidates.len();
                start = pieces.end;

                // The stored block's header goes in first; LEN and NLEN
                // are filled in once the head text's length is known.
                head.clear();
                head.extend_from_slice(&gzip::HEADER);
                head.extend_from_slice(&[0; STORED_OVERHEAD]);
                let text = head.len();
                job.write_head(&mut head);
                let len =
                    u16::try_from(head.len() - text).expect("a job head fits one stored block");
                head[text - 4..text - 2].copy_from_slice(&len.to_le_bytes());
                head[text - 2..text].copy_from_slice(&(!len).to_le_bytes());

                let mut crc = crc32(&head[text..]);
                let mut total_len = u64::from(len);
                let mut body_len = head.len() + suffix.chunk.len() + TAIL_LEN;
                for cached in &self.slots[pieces.clone()] {
                    cached.fragment.fold(&mut crc, &mut total_len);
                    body_len += cached.fragment.chunk.len();
                }
                suffix.fold(&mut crc, &mut total_len);

                let mut tail = [0; TAIL_LEN];
                tail[..STREAM_TERMINATOR.len()].copy_from_slice(&STREAM_TERMINATOR);
                tail[TAIL_LEN - 8..TAIL_LEN - 4].copy_from_slice(&crc.to_le_bytes());
                tail[TAIL_LEN - 4..]
                    .copy_from_slice(&((total_len & 0xFFFF_FFFF) as u32).to_le_bytes());
                JobBody {
                    head: head.as_slice().into(),
                    batch: Arc::clone(&self.slots),
                    pieces,
                    tail,
                    len: body_len,
                }
            })
            .collect()
    }

    /// [`Self::plan`], each body written into a buffer of its own.
    ///
    /// # Panics
    ///
    /// If `jobs` are not the jobs this batch was resolved from.
    #[must_use]
    pub fn assemble(&self, jobs: &[PersonalizationJob]) -> Vec<Vec<u8>> {
        self.plan(jobs).iter().map(JobBody::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_core::CandidateSet;

    fn job() -> PersonalizationJob {
        let mut candidates = CandidateSet::new();
        candidates.insert(UserId(2), Profile::from_liked([4u32, 5, 6]));
        candidates.insert(UserId(3), Profile::from_votes([7u32], [8u32]));
        PersonalizationJob {
            uid: UserId(1),
            k: 2,
            r: 3,
            lease: 0,
            epoch: 0,
            profile: Profile::from_liked([1u32, 2]).into(),
            candidates,
        }
    }

    #[test]
    fn output_is_decodable_and_equal() {
        let job = job();
        let encoder = JobEncoder::new();
        let bytes = encoder.encode(&job);
        let decoded = PersonalizationJob::decode(&bytes).unwrap();
        assert_eq!(decoded, job);
    }

    #[test]
    fn gzip_frame_is_self_consistent() {
        // The assembled member must pass full gzip validation (CRC, ISIZE).
        let job = job();
        let encoder = JobEncoder::new();
        let bytes = encoder.encode(&job);
        let raw = hyrec_wire::gzip::decompress(&bytes).unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("{\"uid\":1"));
        assert!(text.contains("\"candidates\":[null,"));
        assert!(text.ends_with("]}"));
    }

    #[test]
    fn bodies_inflate_to_the_job_text_with_a_null_sentinel() {
        // The encoder's pieces and `PersonalizationJob::to_json` come from
        // the same writers: a body is the job's text with `null` first in
        // its candidates array, cold cache or warm.
        let leased = PersonalizationJob {
            lease: 31,
            epoch: 4,
            ..job()
        };
        let unknown_requester = PersonalizationJob {
            profile: Profile::new().into(),
            ..job()
        };
        let no_candidates = PersonalizationJob {
            candidates: CandidateSet::new(),
            ..job()
        };
        let encoder = JobEncoder::new();
        for job in [job(), leased, unknown_requester, no_candidates] {
            let sentinel = if job.candidates.is_empty() {
                "null"
            } else {
                "null,"
            };
            let open = "\"candidates\":[";
            let expected = job
                .to_json()
                .replacen(open, &format!("{open}{sentinel}"), 1);
            for _ in 0..2 {
                let raw = hyrec_wire::gzip::decompress(&encoder.encode(&job)).unwrap();
                assert_eq!(String::from_utf8(raw).unwrap(), expected);
            }
        }
    }

    #[test]
    fn planned_pieces_write_the_encoded_bytes() {
        // A batch planned as pieces and written into a send buffer that
        // already holds bytes must append exactly what `encode` returns for
        // each job alone, from a cold cache and from a warm one.
        let jobs = [
            job(),
            PersonalizationJob {
                lease: 31,
                epoch: 4,
                ..job()
            },
            PersonalizationJob {
                uid: UserId(1_000_000),
                profile: Profile::new().into(),
                ..job()
            },
            PersonalizationJob {
                candidates: CandidateSet::new(),
                ..job()
            },
        ];
        let (planner, scalar) = (JobEncoder::new(), JobEncoder::new());
        for pass in ["cold", "warm"] {
            let bodies = planner.plan_jobs(&jobs);
            assert_eq!(bodies.len(), jobs.len());
            for (job, body) in jobs.iter().zip(&bodies) {
                let mut out = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
                let prefix = out.len();
                body.write_into(&mut out);
                let expected = scalar.encode(job);
                assert_eq!(
                    &out[prefix..],
                    &expected[..],
                    "{pass} uid {}",
                    job.uid.raw()
                );
                assert_eq!(
                    body.byte_len(),
                    expected.len(),
                    "{pass} uid {}",
                    job.uid.raw()
                );
                assert_eq!(&PersonalizationJob::decode(&out[prefix..]).unwrap(), job);
            }
        }
    }

    #[test]
    fn job_and_update_bodies_end_at_their_trailers() {
        // gzip rejects bytes between a member's last block and its
        // trailer, so an assembled job body and an update body must each
        // end their DEFLATE stream exactly there.
        let job = job();
        let bytes = JobEncoder::new().encode(&job);
        assert_eq!(PersonalizationJob::decode(&bytes).unwrap(), job);
        let update = hyrec_wire::KnnUpdate {
            uid: UserId(1),
            lease: 4,
            epoch: 2,
            neighbors: vec![hyrec_core::Neighbor {
                user: UserId(3),
                similarity: 0.5,
            }],
        };
        assert_eq!(
            hyrec_wire::KnnUpdate::decode(&update.encode()).unwrap(),
            update
        );
    }

    #[test]
    fn cache_hits_on_unchanged_profiles() {
        let job = job();
        let encoder = JobEncoder::new();
        let _ = encoder.encode(&job);
        // Two candidates and the requester, one entry each.
        assert_eq!(encoder.cached_profiles(), 3);
        let a = encoder.encode(&job);
        let b = encoder.encode(&job);
        assert_eq!(a, b);
        assert_eq!(encoder.cached_profiles(), 3);
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let encoder = JobEncoder::with_capacity(3);
        let warm = job();
        // Cold batch: the second job repeats the first, so its requester
        // chunk and two candidates are compressed once but counted as
        // misses per job and per candidate.
        let _ = encoder.encode_jobs(&[warm.clone(), warm.clone()]);
        assert_eq!(
            encoder.stats(),
            EncoderStats {
                hits: 0,
                misses: 4,
                requester_hits: 0,
                requester_misses: 2,
                evictions: 0
            }
        );
        // Warm batch: every candidate and both requesters hit.
        let _ = encoder.encode_jobs(&[warm.clone(), warm.clone()]);
        assert_eq!(encoder.stats().hits, 4);
        assert_eq!(encoder.stats().misses, 4);
        assert_eq!(encoder.stats().requester_hits, 2);

        // Changed profile (a clone keeps its stamp until it records a
        // vote): one candidate misses, one hits.
        let mut changed = warm.clone();
        changed.candidates = CandidateSet::new();
        for candidate in warm.candidates.iter() {
            let mut profile = Profile::clone(&candidate.profile);
            if candidate.user == UserId(2) {
                profile.record(hyrec_core::ItemId(77), hyrec_core::Vote::Like);
            }
            changed.candidates.insert(candidate.user, profile);
        }
        let _ = encoder.encode_jobs(&[changed.clone()]);
        assert_eq!(
            encoder.stats(),
            EncoderStats {
                hits: 5,
                misses: 5,
                requester_hits: 3,
                requester_misses: 2,
                evictions: 0
            }
        );

        // The requester votes: its chunk misses in both jobs, its
        // candidates hit.
        let mut voted = changed;
        let mut profile = Profile::clone(&voted.profile);
        profile.record(hyrec_core::ItemId(78), hyrec_core::Vote::Like);
        voted.profile = profile.into();
        let _ = encoder.encode_jobs(&[voted.clone(), voted]);
        assert_eq!(
            encoder.stats(),
            EncoderStats {
                hits: 9,
                misses: 5,
                requester_hits: 3,
                requester_misses: 4,
                evictions: 0
            }
        );

        // Two new users overflow the bound of 3 users (requester 1 plus
        // candidates 2, 3, 8 and 9): the sweep keeps 1.
        let mut crowd = job();
        let mut candidates = CandidateSet::new();
        candidates.insert(UserId(8), Profile::from_liked([1u32]));
        candidates.insert(UserId(9), Profile::from_liked([2u32]));
        crowd.candidates = candidates;
        let _ = encoder.encode_jobs(&[crowd]);
        assert_eq!(encoder.stats().misses, 7);
        assert_eq!(encoder.stats().requester_misses, 5);
        assert_eq!(encoder.stats().evictions, 4);
        assert_eq!(encoder.cached_profiles(), 1);
    }

    #[test]
    fn unknown_requesters_never_enter_the_cache() {
        // Fresh uids carry empty profiles: they share one constant chunk,
        // so however many arrive they neither fill nor evict entries.
        let encoder = JobEncoder::with_capacity(4);
        let known = job();
        let _ = encoder.encode(&known);
        let (cached, before) = (encoder.cached_profiles(), encoder.stats());
        assert_eq!(cached, 3);
        for batch in 0..100u32 {
            let jobs: Vec<PersonalizationJob> = (0..100u32)
                .map(|i| PersonalizationJob {
                    uid: UserId(1_000_000 + batch * 100 + i),
                    profile: Profile::new().into(),
                    ..known.clone()
                })
                .collect();
            let bodies = encoder.encode_jobs(&jobs);
            assert_eq!(PersonalizationJob::decode(&bodies[7]).unwrap(), jobs[7]);
            assert_eq!(bodies[7], JobEncoder::new().encode(&jobs[7]));
        }
        assert_eq!(encoder.cached_profiles(), cached);
        let after = encoder.stats();
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(
            (after.requester_hits, after.requester_misses),
            (before.requester_hits, before.requester_misses)
        );
        assert_eq!(after.hits, before.hits + 2 * 10_000);
    }

    #[test]
    fn racing_requester_fills_give_equal_bodies() {
        // Two threads miss on the same requester chunk at once, every
        // round with a fresh stamp: both compress, both install, and the
        // bodies agree with each other and with a cold encoder's.
        let encoder = JobEncoder::new();
        let barrier = std::sync::Barrier::new(2);
        let mut profile = Profile::from_liked([1u32, 2]);
        for round in 0..200u32 {
            profile.record(hyrec_core::ItemId(100 + round), hyrec_core::Vote::Like);
            let racing = PersonalizationJob {
                profile: profile.clone().into(),
                ..job()
            };
            let (a, b) = std::thread::scope(|scope| {
                let race = || {
                    barrier.wait();
                    encoder.encode(&racing)
                };
                let a = scope.spawn(race);
                let b = scope.spawn(race);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(a, b, "round {round}");
            assert_eq!(a, JobEncoder::new().encode(&racing), "round {round}");
        }
        let stats = encoder.stats();
        assert_eq!(stats.requester_hits + stats.requester_misses, 400);
        assert!(stats.requester_misses >= 200, "every round misses once");
        assert_eq!(encoder.cached_profiles(), 3);
    }

    #[test]
    fn cache_invalidates_on_profile_change() {
        let mut job = job();
        let encoder = JobEncoder::new();
        let before = PersonalizationJob::decode(&encoder.encode(&job)).unwrap();
        assert_eq!(before.candidates.len(), 2);

        // Mutate a *candidate* profile: the cached fragment must refresh.
        let mut candidates = CandidateSet::new();
        let mut changed = Profile::from_liked([4u32, 5, 6]);
        changed.record(hyrec_core::ItemId(999), hyrec_core::Vote::Like);
        candidates.insert(UserId(2), changed);
        candidates.insert(UserId(3), Profile::from_votes([7u32], [8u32]));
        job.candidates = candidates;

        let after = PersonalizationJob::decode(&encoder.encode(&job)).unwrap();
        let c2 = after
            .candidates
            .iter()
            .find(|c| c.user == UserId(2))
            .unwrap();
        assert!(c2.profile.likes(hyrec_core::ItemId(999)));
    }

    #[test]
    fn leased_job_encodes_credentials() {
        let mut leased = job();
        leased.lease = 31;
        leased.epoch = 4;
        let encoder = JobEncoder::new();
        let decoded = PersonalizationJob::decode(&encoder.encode(&leased)).unwrap();
        assert_eq!(decoded, leased);
        assert_eq!((decoded.lease, decoded.epoch), (31, 4));
        // The raw JSON carries the fields in the canonical position.
        let raw = hyrec_wire::gzip::decompress(&encoder.encode(&leased)).unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.contains(",\"lease\":31,\"epoch\":4,\"profile\":"));
        // The unleased twin's bytes are identical to the scalar wire shape
        // (no lease keys at all) and still cache-share fragments.
        let plain = encoder.encode(&job());
        let text = String::from_utf8(hyrec_wire::gzip::decompress(&plain).unwrap()).unwrap();
        assert!(!text.contains("lease"));
    }

    #[test]
    fn stamp_distinguishes_likes_from_dislikes() {
        // The same items flipped from liked to disliked: a new stamp, so
        // the cached fragment for that candidate is recompressed.
        let mut profile = Profile::from_liked([1u32, 2]);
        let single = |profile: &Profile| {
            let mut candidates = CandidateSet::new();
            candidates.insert(UserId(2), profile.clone());
            PersonalizationJob {
                candidates,
                ..job()
            }
        };
        let encoder = JobEncoder::new();
        let liked = encoder.encode(&single(&profile));
        let stamp = profile.stamp();
        assert!(profile.record(hyrec_core::ItemId(1), hyrec_core::Vote::Dislike));
        assert!(profile.record(hyrec_core::ItemId(2), hyrec_core::Vote::Dislike));
        assert_ne!(profile.stamp(), stamp);
        let disliked_job = single(&profile);
        let disliked = encoder.encode(&disliked_job);
        assert_ne!(liked, disliked);
        assert_eq!(disliked, JobEncoder::new().encode(&disliked_job));
        assert_eq!(PersonalizationJob::decode(&disliked).unwrap(), disliked_job);
    }

    #[test]
    fn empty_job_encodes() {
        let job = PersonalizationJob {
            uid: UserId(0),
            k: 1,
            r: 1,
            lease: 0,
            epoch: 0,
            profile: Profile::new().into(),
            candidates: CandidateSet::new(),
        };
        let encoder = JobEncoder::new();
        let decoded = PersonalizationJob::decode(&encoder.encode(&job)).unwrap();
        assert_eq!(decoded, job);
    }

    #[test]
    fn encode_jobs_matches_scalar_encode() {
        // A batch with heavy candidate overlap (the converged-table regime):
        // batched output must be byte-identical to scalar encodes, both from
        // a cold cache and a warm one.
        let jobs: Vec<PersonalizationJob> = (0..8u32)
            .map(|j| {
                let mut candidates = CandidateSet::new();
                for u in 0..20u32 {
                    candidates.insert(
                        UserId(100 + (u + j) % 25),
                        Profile::from_liked((0..15u32).map(|i| ((u + j) % 25) * 10 + i)),
                    );
                }
                PersonalizationJob {
                    uid: UserId(j),
                    k: 5,
                    r: 5,
                    lease: 0,
                    epoch: 0,
                    profile: Profile::from_liked([j, j + 1, j + 2]).into(),
                    candidates,
                }
            })
            .collect();

        let batch_encoder = JobEncoder::new();
        let scalar_encoder = JobEncoder::new();
        let batched = batch_encoder.encode_jobs(&jobs);
        let scalar: Vec<Vec<u8>> = jobs.iter().map(|job| scalar_encoder.encode(job)).collect();
        assert_eq!(batched, scalar, "cold-cache divergence");
        assert_eq!(
            batch_encoder.cached_profiles(),
            scalar_encoder.cached_profiles()
        );

        // Warm pass: all hits, still identical.
        assert_eq!(
            batch_encoder.encode_jobs(&jobs),
            jobs.iter()
                .map(|job| scalar_encoder.encode(job))
                .collect::<Vec<_>>()
        );
        // Every body decodes to its job.
        for (job, body) in jobs.iter().zip(&batched) {
            assert_eq!(&PersonalizationJob::decode(body).unwrap(), job);
        }
        assert!(batch_encoder.encode_jobs(&[]).is_empty());
    }

    #[test]
    fn cache_bound_holds_under_churn() {
        let encoder = JobEncoder::with_capacity(16);
        assert_eq!(encoder.capacity(), 16);
        // 40 rounds of jobs over a rolling window of fresh users: the cache
        // must never exceed its bound, and recently-used fragments must
        // survive the sweeps that evict stale ones.
        for round in 0..40u32 {
            let mut candidates = CandidateSet::new();
            for u in 0..8u32 {
                candidates.insert(
                    UserId(round * 8 + u),
                    Profile::from_liked([round * 8 + u, u]),
                );
            }
            let job = PersonalizationJob {
                uid: UserId(0),
                k: 3,
                r: 3,
                lease: 0,
                epoch: 0,
                profile: Profile::from_liked([1u32]).into(),
                candidates,
            };
            let first = encoder.encode(&job);
            assert!(
                encoder.cached_profiles() <= 16,
                "round {round}: cache grew to {}",
                encoder.cached_profiles()
            );
            // Re-encoding right away is served from cache, byte-identical.
            assert_eq!(encoder.encode(&job), first);
        }
    }

    #[test]
    fn eviction_prefers_stale_fragments() {
        let encoder = JobEncoder::with_capacity(8);
        let hot_job = PersonalizationJob {
            uid: UserId(0),
            k: 2,
            r: 2,
            lease: 0,
            epoch: 0,
            profile: Profile::from_liked([1u32]).into(),
            candidates: {
                let mut c = CandidateSet::new();
                c.insert(UserId(1), Profile::from_liked([10u32, 11]));
                c
            },
        };
        // Touch the hot fragment every round while churning cold users.
        for round in 0..30u32 {
            let _ = encoder.encode(&hot_job);
            let mut candidates = CandidateSet::new();
            candidates.insert(UserId(1000 + round), Profile::from_liked([round]));
            let cold = PersonalizationJob {
                uid: UserId(2),
                k: 2,
                r: 2,
                lease: 0,
                epoch: 0,
                profile: Profile::new().into(),
                candidates,
            };
            let _ = encoder.encode(&cold);
        }
        // The hot user's fragment was re-ticked every round; a final encode
        // after all that churn still hits (cache size stays at bound, so a
        // miss would be observable as a recompression — assert via cache
        // introspection instead: the bound held and output is stable).
        assert!(encoder.cached_profiles() <= 8);
        let a = encoder.encode(&hot_job);
        let b = encoder.encode(&hot_job);
        assert_eq!(a, b);
    }

    #[test]
    fn many_candidates_round_trip() {
        let mut candidates = CandidateSet::new();
        for u in 10..150u32 {
            candidates.insert(
                UserId(u),
                Profile::from_liked((0..40u32).map(|i| u * 13 + i * 3).collect::<Vec<_>>()),
            );
        }
        let job = PersonalizationJob {
            uid: UserId(1),
            k: 10,
            r: 10,
            lease: 0,
            epoch: 0,
            profile: Profile::from_liked(0u32..50).into(),
            candidates,
        };
        let encoder = JobEncoder::new();
        let decoded = PersonalizationJob::decode(&encoder.encode(&job)).unwrap();
        assert_eq!(decoded, job);
        // Second encode is all cache hits and byte-identical.
        assert_eq!(encoder.encode(&job), encoder.encode(&job));
    }
}
