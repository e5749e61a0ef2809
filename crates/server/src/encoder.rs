//! Compressed-fragment caching for personalization jobs.
//!
//! The orchestrator's per-request work is "retrieve a candidate set … and
//! build a personalization job" (Section 3.1) — crucially *not* any
//! recommendation computation. The dominant cost of shipping a job is
//! serializing and gzip-compressing ~120 candidate profiles plus the
//! requester's own; since a profile only changes when its owner rates
//! something, this encoder keeps **already-compressed** DEFLATE chunks
//! (zlib `Z_SYNC_FLUSH` framing, byte-aligned and freely concatenatable),
//! each with its CRC-32 and a CRC shift operator. A user's pieces are
//! memoized on the profile version they were written from
//! ([`Profile::memo`]), in two slots, each filled on first use:
//!
//! - the *candidate fragment* `,{"uid":<uid>,"profile":{…}}`, served
//!   whenever the user is a candidate in someone's job;
//! - the *requester chunk* `{"liked":[…],"disliked":[…]},"candidates":[null`,
//!   served whenever the user asks for a job of their own.
//!
//! Every change of a profile's votes clears its memo, and a clone starts
//! with an empty one, so a memoized piece is current by construction: a hit
//! reads the memo with no lock and clones the piece's `Arc`. A candidate
//! fragment also names a uid, a pseudonym when anonymizing, so it hits
//! only for the uid the job shows; rotating the pseudonyms empties the
//! stored profiles' memos ([`hyrec_core::UserTable::clear_memos`]). A miss
//! (the user voted since, or the pseudonyms rotated) compresses that piece
//! and takes its CRC-32, and the piece is memoized when its job is done, so
//! later jobs of the same batch hit. A slot is filled once per version: a
//! racing fill, or a job that still shows a pre-rotation pseudonym, uses
//! its own piece for that batch alone. Pieces live exactly as long as their
//! profile version: there is no map, no sweep and no bound to tune, and at
//! most two pieces per live version. Shift operators are interned per raw
//! length, so pieces of one length share one. A requester with an empty
//! profile (a user the server has never seen) gets one process-wide
//! constant chunk and fills nothing.
//!
//! A body is then, in order:
//!
//! 1. the gzip header;
//! 2. the per-request head
//!    `{"uid":…,"k":…,"r":…[,"lease":…,"epoch":…],"profile":`, written as
//!    one non-final *stored* block — a copy, no Huffman work;
//! 3. the requester's memoized chunk;
//! 4. the memoized candidate fragments;
//! 5. the precomputed `]}` suffix chunk, the stream terminator and the
//!    gzip trailer, whose CRC folds the memoized CRCs with
//!    [`hyrec_wire::crc::ShiftOp::combine`].
//!
//! Planning a body ([`JobEncoder::plan_jobs`]) writes only its head and
//! its 13-byte tail; the memoized chunks stay shared, so the front-end
//! copies each of them once, straight into a connection's send buffer, with
//! [`JobBody::write_into`]. [`JobEncoder::encode_jobs`] writes the same
//! pieces into a `Vec` per job. On warm profiles a request runs no
//! compressor, leased or not: a CRC-32 of the few dozen head bytes, CRC
//! folds and one copy of each chunk. [`JobEncoder::resolve`] and
//! [`ResolvedBatch::assemble`] expose the two halves (finding the pieces,
//! then per-job assembly) so each can be timed alone; [`JobEncoder::stats`]
//! counts hits and misses.
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

use hyrec_core::profile::MemoSlot;
use hyrec_core::FastHashMap;
use hyrec_core::{Profile, UserId};
use hyrec_wire::crc::{crc32, ShiftOp};
use hyrec_wire::deflate::lz77::Effort;
use hyrec_wire::deflate::{compress_chunk, STREAM_TERMINATOR};
use hyrec_wire::gzip;
use hyrec_wire::messages::{write_candidate, write_requester, JOB_END};
use hyrec_wire::PersonalizationJob;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Bytes a stored DEFLATE block adds to its payload (RFC 1951 §3.2.4): a
/// header byte with BFINAL = 0 and BTYPE = 00, whose padding bits align the
/// block, then LEN and NLEN.
const STORED_OVERHEAD: usize = 5;

/// Bytes after a body's last chunk: the stream terminator, then the gzip
/// trailer (CRC-32 and ISIZE, little-endian).
const TAIL_LEN: usize = STREAM_TERMINATOR.len() + 8;

/// A pre-compressed piece of a job body: its DEFLATE chunk plus what the
/// gzip trailer needs to account for it without touching the raw bytes.
/// Requester chunks and candidate fragments are memoized on the profile
/// version they were written from.
struct Piece {
    chunk: Box<[u8]>,
    /// Advances a CRC past the raw bytes; its `len()` is their length.
    shift: Arc<ShiftOp>,
    /// A clone of the filling encoder's `live` token: while the piece
    /// lives it counts in [`JobEncoder::cached_profiles`].
    _live: Arc<()>,
    crc: u32,
    /// The uid a candidate fragment was written for; the other pieces
    /// carry no uid, so there it is not read.
    user: UserId,
}

impl Piece {
    /// Compresses `raw` with an operator and a token of its own (for the
    /// process-wide constants; memoized pieces share interned operators).
    fn constant(raw: &[u8]) -> Self {
        Self {
            chunk: compress_chunk(raw, Effort::FAST).into_boxed_slice(),
            shift: Arc::new(ShiftOp::for_len(raw.len() as u64)),
            _live: Arc::new(()),
            crc: crc32(raw),
            user: UserId(0),
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
static SUFFIX: LazyLock<Piece> = LazyLock::new(|| Piece::constant(JOB_END));

/// The requester chunk of an empty profile, identical for every user the
/// server has never seen: compressed once per process and never memoized.
static EMPTY_REQUESTER: LazyLock<Arc<Piece>> = LazyLock::new(|| {
    let mut raw = Vec::new();
    piece_json(&mut raw, MemoSlot::Requester, UserId(0), &Profile::new());
    Arc::new(Piece::constant(&raw))
});

/// Serializes the raw bytes of `user`'s piece in `slot`: for a candidate
/// `,{"uid":<uid>,"profile":{…}}` (leading comma — the array opens with a
/// `null` sentinel so every candidate entry is comma-prefixed); for a
/// requester `{…},"candidates":[null`, closing the head's `"profile":` key
/// and opening the candidates array.
fn piece_json(out: &mut Vec<u8>, slot: MemoSlot, user: UserId, profile: &Profile) {
    match slot {
        MemoSlot::Candidate => {
            out.push(b',');
            write_candidate(out, user, profile);
        }
        MemoSlot::Requester => {
            write_requester(out, profile);
            out.extend_from_slice(b"null");
        }
    }
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
#[derive(Default)]
pub struct JobEncoder {
    /// One operator per raw length in use: piece lengths take a few hundred
    /// distinct values, so sharing them saves a 136-byte matrix per piece.
    /// Never pruned; its size is bounded by the number of distinct lengths.
    shifts: Mutex<FastHashMap<u64, Arc<ShiftOp>>>,
    /// Every piece this encoder fills holds a clone, so its strong count
    /// less one is the number of live pieces.
    live: Arc<()>,
    /// Totals behind [`Self::stats`], one relaxed add each per batch.
    hits: AtomicU64,
    misses: AtomicU64,
    requester_hits: AtomicU64,
    requester_misses: AtomicU64,
}

/// Totals of a [`JobEncoder`] since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncoderStats {
    /// Candidates served from a memoized fragment.
    pub hits: u64,
    /// Candidate fragments compressed: missing, or written for another
    /// uid. A fragment several jobs of one batch need is compressed, and
    /// counted, once; the other jobs hit.
    pub misses: u64,
    /// Jobs whose requester chunk was memoized.
    pub requester_hits: u64,
    /// Requester chunks compressed, counted like `misses`. A requester with
    /// an empty profile uses the shared constant chunk and counts as
    /// neither hit nor miss.
    pub requester_misses: u64,
}

/// Every piece of a batch of jobs, found or compressed by
/// [`JobEncoder::resolve`]; [`ResolvedBatch::plan`] turns it into bodies.
pub struct ResolvedBatch {
    /// Per job, in order: its requester chunk, then one fragment per
    /// candidate. Shared with the batch's [`JobBody`]s.
    slots: Arc<Vec<Arc<Piece>>>,
}

/// One job body, planned but not copied: its head, its memoized pieces and
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
    batch: Arc<Vec<Arc<Piece>>>,
    pieces: std::ops::Range<usize>,
    /// The stream terminator and the gzip trailer, whose CRC was folded
    /// from the head's and the pieces' CRCs when the body was planned.
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

    /// Appends the body to `out`: the head, each memoized chunk, the `]}`
    /// suffix chunk and the tail, each copied once.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.len);
        out.extend_from_slice(&self.head);
        for piece in &self.batch[self.pieces.clone()] {
            out.extend_from_slice(&piece.chunk);
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

impl std::fmt::Debug for JobEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobEncoder")
            .field("cached_profiles", &self.cached_profiles())
            .finish()
    }
}

impl JobEncoder {
    /// Creates an encoder that has filled no piece yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live pieces this encoder filled: candidate fragments and
    /// requester chunks still memoized on a profile version or held by an
    /// unsent body. At most two per live profile version.
    #[must_use]
    pub fn cached_profiles(&self) -> usize {
        Arc::strong_count(&self.live) - 1
    }

    /// A snapshot of the hit and miss counters.
    #[must_use]
    pub fn stats(&self) -> EncoderStats {
        EncoderStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            requester_hits: self.requester_hits.load(Ordering::Relaxed),
            requester_misses: self.requester_misses.load(Ordering::Relaxed),
        }
    }

    /// Encodes a job to a gzip member assembled from memoized pieces.
    #[must_use]
    pub fn encode(&self, job: &PersonalizationJob) -> Vec<u8> {
        self.encode_jobs(std::slice::from_ref(job))
            .pop()
            .expect("one job in, one body out")
    }

    /// Batched [`Self::encode`]: encodes a coalesced batch of jobs, one gzip
    /// member per job, byte-identical to encoding each job on its own.
    ///
    /// One JSON scratch buffer serves all misses, and a piece several jobs
    /// of the batch need is compressed once: the first job installs it and
    /// the others hit.
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
    /// chunk and candidate fragments, compressing and memoizing the ones
    /// that are missing.
    ///
    /// One pass over the jobs. A job's misses are compressed as they are
    /// met and memoized together when the job is done, so later jobs of the
    /// batch hit and the pieces one job filled sit next to each other in
    /// memory, apart from their chunks. The hit path then walks densely
    /// packed pieces: on a 10k-user population in 32-job batches, a warm
    /// `resolve` took ~75 µs against ~175 µs with each piece allocated
    /// between chunks (2-vCPU VM).
    #[must_use]
    pub fn resolve(&self, jobs: &[PersonalizationJob]) -> ResolvedBatch {
        let candidates: usize = jobs.iter().map(|job| job.candidates.len()).sum();
        let mut slots: Vec<Arc<Piece>> = Vec::with_capacity(jobs.len() + candidates);
        let mut scratch = Vec::new();
        let mut filled: Vec<(usize, MemoSlot, &Profile, Piece)> = Vec::new();
        let (mut requesters, mut requester_misses, mut misses) = (0u64, 0u64, 0u64);
        for job in jobs {
            let wanted = std::iter::once((MemoSlot::Requester, job.uid, &*job.profile)).chain(
                job.candidates
                    .iter()
                    .map(|candidate| (MemoSlot::Candidate, candidate.user, &*candidate.profile)),
            );
            for (slot, user, profile) in wanted {
                if slot == MemoSlot::Requester {
                    if profile.is_empty() {
                        slots.push(Arc::clone(&EMPTY_REQUESTER));
                        continue;
                    }
                    requesters += 1;
                }
                if let Some(piece) = memoized(slot, user, profile) {
                    slots.push(piece);
                    continue;
                }
                match slot {
                    MemoSlot::Requester => requester_misses += 1,
                    MemoSlot::Candidate => misses += 1,
                }
                let piece = self.compress(slot, user, profile, &mut scratch);
                filled.push((slots.len(), slot, profile, piece));
                // Replaced once the job's misses are memoized.
                slots.push(Arc::clone(&EMPTY_REQUESTER));
            }
            for (position, slot, profile, piece) in filled.drain(..) {
                let piece = Arc::new(piece);
                // A filled slot (a racing fill, or a fragment for another
                // uid) keeps what it holds; this piece then serves this
                // batch alone.
                let _ = profile.set_memo(slot, Arc::clone(&piece) as _);
                slots[position] = piece;
            }
        }
        self.hits
            .fetch_add(candidates as u64 - misses, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.requester_hits
            .fetch_add(requesters - requester_misses, Ordering::Relaxed);
        self.requester_misses
            .fetch_add(requester_misses, Ordering::Relaxed);
        ResolvedBatch {
            slots: Arc::new(slots),
        }
    }

    /// Compresses `user`'s piece in `slot` and takes its CRC-32 with no
    /// lock held, then interns its shift operator.
    fn compress(
        &self,
        slot: MemoSlot,
        user: UserId,
        profile: &Profile,
        scratch: &mut Vec<u8>,
    ) -> Piece {
        scratch.clear();
        piece_json(scratch, slot, user, profile);
        let len = scratch.len() as u64;
        let chunk = compress_chunk(scratch, Effort::FAST).into_boxed_slice();
        let crc = crc32(scratch);
        let shift = Arc::clone(
            self.shifts
                .lock()
                .entry(len)
                .or_insert_with(|| Arc::new(ShiftOp::for_len(len))),
        );
        Piece {
            chunk,
            shift,
            _live: Arc::clone(&self.live),
            crc,
            user,
        }
    }
}

/// `user`'s piece in `slot` if `profile` memoizes it: a requester chunk
/// names no uid, a candidate fragment must name `user`.
fn memoized(slot: MemoSlot, user: UserId, profile: &Profile) -> Option<Arc<Piece>> {
    let piece = Arc::clone(profile.memo(slot)?).downcast::<Piece>().ok()?;
    (slot == MemoSlot::Requester || piece.user == user).then_some(piece)
}

impl ResolvedBatch {
    /// Second half of [`JobEncoder::encode_jobs`]: plans one body per job.
    /// Each body's head is written and its trailer CRC folded from the
    /// head's and the pieces' CRCs with [`ShiftOp::combine`]; the memoized
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
                for piece in &self.slots[pieces.clone()] {
                    piece.fold(&mut crc, &mut total_len);
                    body_len += piece.chunk.len();
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

    /// `job` encoded from deep copies of its profiles by a fresh encoder:
    /// copies start with empty memos, so nothing memoized on `job`'s own
    /// profiles reaches this body.
    fn cold(job: &PersonalizationJob) -> Vec<u8> {
        let copy = PersonalizationJob {
            profile: Profile::clone(&job.profile).into(),
            candidates: job
                .candidates
                .pairs()
                .map(|(user, profile)| (user, profile.clone()))
                .collect(),
            ..job.clone()
        };
        JobEncoder::new().encode(&copy)
    }

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
        // each job alone on cold profiles, from cold memos and from warm
        // ones.
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
        let planner = JobEncoder::new();
        for pass in ["cold", "warm"] {
            let bodies = planner.plan_jobs(&jobs);
            assert_eq!(bodies.len(), jobs.len());
            for (job, body) in jobs.iter().zip(&bodies) {
                let mut out = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
                let prefix = out.len();
                body.write_into(&mut out);
                let expected = cold(job);
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
        // Two candidate fragments and the requester chunk, one piece each.
        assert_eq!(encoder.cached_profiles(), 3);
        let a = encoder.encode(&job);
        let b = encoder.encode(&job);
        assert_eq!(a, b);
        assert_eq!(encoder.cached_profiles(), 3);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let encoder = JobEncoder::new();
        let warm = job();
        // Cold batch: the second job repeats the first, so its requester
        // chunk and two candidates are compressed by the first job, which
        // counts the misses, and memoized for the second, which hits.
        let _ = encoder.encode_jobs(&[warm.clone(), warm.clone()]);
        assert_eq!(
            encoder.stats(),
            EncoderStats {
                hits: 2,
                misses: 2,
                requester_hits: 1,
                requester_misses: 1,
            }
        );
        // Warm batch: every candidate and both requesters hit.
        let _ = encoder.encode_jobs(&[warm.clone(), warm.clone()]);
        assert_eq!(encoder.stats().hits, 6);
        assert_eq!(encoder.stats().misses, 2);
        assert_eq!(encoder.stats().requester_hits, 3);

        // One candidate is a new version (a deep copy that recorded a
        // vote), the other keeps its memoized version: one miss, one hit.
        let mut changed = warm.clone();
        changed.candidates = CandidateSet::new();
        for candidate in warm.candidates.iter() {
            if candidate.user == UserId(2) {
                let mut profile = Profile::clone(&candidate.profile);
                profile.record(hyrec_core::ItemId(77), hyrec_core::Vote::Like);
                changed.candidates.insert(candidate.user, profile);
            } else {
                changed
                    .candidates
                    .insert(candidate.user, Arc::clone(&candidate.profile));
            }
        }
        let _ = encoder.encode_jobs(&[changed.clone()]);
        assert_eq!(
            encoder.stats(),
            EncoderStats {
                hits: 7,
                misses: 3,
                requester_hits: 4,
                requester_misses: 1,
            }
        );

        // The requester votes: its chunk is compressed once for both jobs,
        // its candidates hit.
        let mut voted = changed;
        let mut profile = Profile::clone(&voted.profile);
        profile.record(hyrec_core::ItemId(78), hyrec_core::Vote::Like);
        voted.profile = profile.into();
        let _ = encoder.encode_jobs(&[voted.clone(), voted]);
        assert_eq!(
            encoder.stats(),
            EncoderStats {
                hits: 11,
                misses: 3,
                requester_hits: 5,
                requester_misses: 2,
            }
        );
    }

    #[test]
    fn unknown_requesters_never_enter_the_cache() {
        // Fresh uids carry empty profiles: they share one constant chunk,
        // so however many arrive they fill no piece.
        let encoder = JobEncoder::new();
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
            assert_eq!(bodies[7], cold(&jobs[7]));
        }
        assert_eq!(encoder.cached_profiles(), cached);
        let after = encoder.stats();
        assert_eq!(
            (after.requester_hits, after.requester_misses),
            (before.requester_hits, before.requester_misses)
        );
        assert_eq!(after.hits, before.hits + 2 * 10_000);
    }

    #[test]
    fn racing_requester_fills_give_equal_bodies() {
        // Two threads miss on the same requester chunk at once, every
        // round on a new profile version: both may compress, both install,
        // and the bodies agree with each other and with a cold encoder's.
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
            assert_eq!(a, cold(&racing), "round {round}");
            // The job's requester chunk and two candidate fragments; the
            // losing fill and earlier rounds' versions are gone.
            assert_eq!(encoder.cached_profiles(), 3, "round {round}");
        }
        let stats = encoder.stats();
        assert_eq!(stats.requester_hits + stats.requester_misses, 400);
        assert!(stats.requester_misses >= 200, "every round misses once");
        assert_eq!(encoder.cached_profiles(), 0, "every version is dropped");
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
    fn a_flipped_vote_replaces_the_fragment() {
        // The same items flipped from liked to disliked on the same stored
        // profile (an unshared `Arc`, mutated in place): the votes clear
        // its memo, so the fragment for that candidate is recompressed.
        let mut profile = Arc::new(Profile::from_liked([1u32, 2]));
        let single = |profile: &Arc<Profile>| {
            let mut candidates = CandidateSet::new();
            candidates.insert(UserId(2), Arc::clone(profile));
            PersonalizationJob {
                candidates,
                ..job()
            }
        };
        let encoder = JobEncoder::new();
        let liked = encoder.encode(&single(&profile));
        assert!(profile.memo(MemoSlot::Candidate).is_some());
        let stored = Arc::get_mut(&mut profile).expect("no job holds the profile");
        assert!(stored.record(hyrec_core::ItemId(1), hyrec_core::Vote::Dislike));
        assert!(stored.record(hyrec_core::ItemId(2), hyrec_core::Vote::Dislike));
        let disliked_job = single(&profile);
        let disliked = encoder.encode(&disliked_job);
        assert_ne!(liked, disliked);
        assert_eq!(disliked, cold(&disliked_job));
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
        // batched output must be byte-identical to scalar encodes of cold
        // profiles, both from cold memos and warm ones.
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
        let batched = batch_encoder.encode_jobs(&jobs);
        let scalar: Vec<Vec<u8>> = jobs.iter().map(cold).collect();
        assert_eq!(batched, scalar, "cold-memo divergence");
        // Eight requester chunks; each job's candidates are fresh profiles,
        // so 20 fragments per job.
        assert_eq!(batch_encoder.cached_profiles(), 8 + 8 * 20);
        let misses = batch_encoder.stats().misses;

        // Warm pass: all hits, still identical.
        assert_eq!(batch_encoder.encode_jobs(&jobs), scalar);
        assert_eq!(batch_encoder.stats().misses, misses);
        // Every body decodes to its job.
        for (job, body) in jobs.iter().zip(&batched) {
            assert_eq!(&PersonalizationJob::decode(body).unwrap(), job);
        }
        assert!(batch_encoder.encode_jobs(&[]).is_empty());
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
