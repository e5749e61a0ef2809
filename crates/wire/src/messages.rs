//! Message schemas of the HyRec web API (Table 1 of the paper).
//!
//! Two messages cross the wire:
//!
//! * Server → widget: a [`PersonalizationJob`] answering
//!   `GET /online/?uid=<uid>` — the requester's profile plus the candidate
//!   set assembled by the sampler.
//! * Widget → server: a [`KnnUpdate`] via
//!   `GET /neighbors/?uid=<uid>&id0=<fid0>&id1=<fid1>&…` — the new KNN
//!   selection (with similarity scores so the server can track convergence).
//!
//! Both serialize to the JSON shapes the paper's Jackson stack would emit,
//! and both report their exact wire size raw and gzipped — the quantities of
//! Figure 10 and the client-bandwidth comparison of Section 5.6.
//!
//! The byte writers here ([`PersonalizationJob::write_head`],
//! [`write_requester`], [`write_candidate`], [`JOB_END`]) are the only code
//! that knows a job's JSON shape: [`PersonalizationJob::to_json`] chains
//! them, and the server's chunk-caching encoder compresses the same pieces
//! separately, so both produce the same text.

use crate::error::WireError;
use crate::gzip;
use crate::json::{push_number, push_uint, JsonRef, JsonValue};
use hyrec_core::{CandidateSet, ItemId, Neighbor, Neighborhood, Profile, UserId};
use std::sync::Arc;

/// The personalization job the orchestrator ships to a widget (Section 3.1).
///
/// Profiles are shared handles (`Arc`): job assembly on the server borrows
/// the global profile table's allocations rather than copying item vectors,
/// and serialization reads through the same borrows.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizationJob {
    /// Pseudonymous id of the requesting user.
    pub uid: UserId,
    /// Neighbourhood size the widget must select (system parameter `k`).
    pub k: usize,
    /// Number of items to recommend (system parameter `r`).
    pub r: usize,
    /// Job lease id issued by the scheduler (`0` = unleased; the field is
    /// then omitted from the wire shape, keeping the seed format intact).
    /// The widget must echo it in its [`KnnUpdate`].
    pub lease: u64,
    /// The leased user's refresh epoch; echoed with the lease so the
    /// server can recognize completions of superseded jobs.
    pub epoch: u64,
    /// The requesting user's own profile `P_u`.
    pub profile: Arc<Profile>,
    /// The candidate set `S_u` with full candidate profiles.
    pub candidates: CandidateSet,
}

impl PersonalizationJob {
    /// Serializes to the compact JSON wire shape:
    /// [`Self::write_head`], [`write_requester`], the candidates through
    /// [`write_candidate`] separated by commas, then [`JOB_END`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_head(&mut out);
        write_requester(&mut out, &self.profile);
        for (i, candidate) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_candidate(&mut out, candidate.user, &candidate.profile);
        }
        out.extend_from_slice(JOB_END);
        String::from_utf8(out).expect("the writers emit ASCII")
    }

    /// Appends the job's head,
    /// `{"uid":…,"k":…,"r":…[,"lease":…,"epoch":…],"profile":`. An
    /// unleased job (lease and epoch both 0) has no lease keys, the wire
    /// shape from before the scheduler.
    pub fn write_head(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"uid\":");
        push_uint(out, u64::from(self.uid.raw()));
        out.extend_from_slice(b",\"k\":");
        push_uint(out, self.k as u64);
        out.extend_from_slice(b",\"r\":");
        push_uint(out, self.r as u64);
        push_lease(out, self.lease, self.epoch);
        out.extend_from_slice(b",\"profile\":");
    }

    /// Reads a job from its parsed JSON wire shape, walking the tape once:
    /// each id array folds straight into the profile's `Vec<ItemId>`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Schema`] when required fields are missing or of
    /// the wrong type.
    pub fn from_json(doc: &JsonValue) -> Result<Self, WireError> {
        let value = doc.root();
        let uid = field_u32(value, "uid")?;
        let k = field_u32(value, "k")? as usize;
        let r = field_u32(value, "r")? as usize;
        let lease = optional_u64(value, "lease")?;
        let epoch = optional_u64(value, "epoch")?;
        let profile = parse_profile(
            value
                .get("profile")
                .ok_or_else(|| WireError::Schema("missing `profile`".into()))?,
        )?;
        let list = value
            .get("candidates")
            .and_then(JsonRef::as_array)
            .ok_or_else(|| WireError::Schema("missing `candidates` array".into()))?;
        let mut candidates = CandidateSet::with_capacity(list.len());
        for entry in list {
            // Chunk-assembling encoders pad the array with `null` sentinels
            // (see `hyrec_server::encoder`); skip them.
            if entry.is_null() {
                continue;
            }
            let cuid = field_u32(entry, "uid")?;
            let cprofile = parse_profile(
                entry
                    .get("profile")
                    .ok_or_else(|| WireError::Schema("candidate missing `profile`".into()))?,
            )?;
            candidates.insert(UserId(cuid), cprofile);
        }
        Ok(Self {
            uid: UserId(uid),
            k,
            r,
            lease,
            epoch,
            profile: Arc::new(profile),
            candidates,
        })
    }

    /// Serialized size in bytes, raw JSON (the `json` series of Figure 10).
    #[must_use]
    pub fn json_bytes(&self) -> usize {
        self.to_json().len()
    }

    /// Serialized size in bytes after gzip (the `gzip` series of Figure 10).
    #[must_use]
    pub fn gzip_bytes(&self) -> usize {
        self.encode().len()
    }

    /// Encodes to gzipped JSON bytes, the exact on-the-wire representation.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        gzip::compress(self.to_json().as_bytes())
    }

    /// Decodes from gzipped JSON bytes.
    ///
    /// # Errors
    ///
    /// Propagates gzip, JSON and schema errors.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let raw = gzip::decompress(bytes)?;
        let text =
            String::from_utf8(raw).map_err(|_| WireError::Schema("message is not utf-8".into()))?;
        Self::from_json(&JsonValue::parse(&text)?)
    }
}

/// The KNN selection a widget reports back (Arrow 3 in Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct KnnUpdate {
    /// Pseudonymous id of the reporting user.
    pub uid: UserId,
    /// The job lease this completion answers (`0` = unleased/legacy; the
    /// field is then omitted from the wire shape).
    pub lease: u64,
    /// The refresh epoch echoed from the job.
    pub epoch: u64,
    /// The new neighbourhood, ranked by descending similarity.
    pub neighbors: Vec<Neighbor>,
}

impl KnnUpdate {
    /// Builds an update from a neighbourhood.
    #[must_use]
    pub fn from_neighborhood(uid: UserId, hood: &Neighborhood) -> Self {
        Self {
            uid,
            lease: 0,
            epoch: 0,
            neighbors: hood.iter().copied().collect(),
        }
    }

    /// Stamps the lease credentials a widget must echo from its job.
    #[must_use]
    pub fn with_lease(mut self, lease: u64, epoch: u64) -> Self {
        self.lease = lease;
        self.epoch = epoch;
        self
    }

    /// Converts back into a [`Neighborhood`].
    #[must_use]
    pub fn to_neighborhood(&self) -> Neighborhood {
        Neighborhood::from_neighbors(self.neighbors.iter().copied())
    }

    /// Serializes to the compact JSON wire shape,
    /// `{"uid":…[,"lease":…,"epoch":…],"neighbors":[{"uid":…,"sim":…},…]}`,
    /// each similarity quantized to 6 decimal digits.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        out.extend_from_slice(b"{\"uid\":");
        push_uint(&mut out, u64::from(self.uid.raw()));
        push_lease(&mut out, self.lease, self.epoch);
        out.extend_from_slice(b",\"neighbors\":[");
        for (i, n) in self.neighbors.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"uid\":");
            push_uint(&mut out, u64::from(n.user.raw()));
            out.extend_from_slice(b",\"sim\":");
            push_number(&mut out, quantize(n.similarity));
            out.push(b'}');
        }
        out.extend_from_slice(b"]}");
        String::from_utf8(out).expect("the writer emits ASCII")
    }

    /// Reads an update from its parsed JSON wire shape.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Schema`] on missing or mistyped fields.
    pub fn from_json(doc: &JsonValue) -> Result<Self, WireError> {
        let value = doc.root();
        let uid = field_u32(value, "uid")?;
        let lease = optional_u64(value, "lease")?;
        let epoch = optional_u64(value, "epoch")?;
        let list = value
            .get("neighbors")
            .and_then(JsonRef::as_array)
            .ok_or_else(|| WireError::Schema("missing `neighbors` array".into()))?;
        let mut neighbors = Vec::with_capacity(list.len());
        for entry in list {
            let nuid = field_u32(entry, "uid")?;
            let sim = entry
                .get("sim")
                .and_then(JsonRef::as_f64)
                .ok_or_else(|| WireError::Schema("neighbor missing `sim`".into()))?;
            neighbors.push(Neighbor {
                user: UserId(nuid),
                similarity: sim,
            });
        }
        Ok(Self {
            uid: UserId(uid),
            lease,
            epoch,
            neighbors,
        })
    }

    /// Serialized size in bytes, raw JSON.
    #[must_use]
    pub fn json_bytes(&self) -> usize {
        self.to_json().len()
    }

    /// Encodes to gzipped JSON bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        gzip::compress(self.to_json().as_bytes())
    }

    /// Most JSON bytes [`KnnUpdate::decode`] inflates: 1 MiB, some twenty
    /// times a k = 1000 update (~50 KB). Updates arrive as untrusted
    /// `POST /neighbors/` bodies, and DEFLATE expands up to ~1000:1.
    pub const MAX_JSON_BYTES: usize = 1 << 20;

    /// Decodes from gzipped JSON bytes, inflating at most
    /// [`KnnUpdate::MAX_JSON_BYTES`].
    ///
    /// # Errors
    ///
    /// Propagates gzip, JSON and schema errors; a body that inflates past
    /// the cap is a [`WireError::TooLarge`].
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let raw = gzip::decompress_limited(bytes, Self::MAX_JSON_BYTES)?;
        let text =
            String::from_utf8(raw).map_err(|_| WireError::Schema("message is not utf-8".into()))?;
        Self::from_json(&JsonValue::parse(&text)?)
    }
}

/// The end of a job, `]}`: it closes the candidates array and the job.
pub const JOB_END: &[u8] = b"]}";

/// Appends the requester's part of a job, which follows
/// [`PersonalizationJob::write_head`]: the profile, then the key that opens
/// the candidates array, `{"liked":[…],"disliked":[…]},"candidates":[`.
pub fn write_requester(out: &mut Vec<u8>, profile: &Profile) {
    write_profile(out, profile);
    out.extend_from_slice(b",\"candidates\":[");
}

/// Appends one element of a job's candidates array,
/// `{"uid":…,"profile":{"liked":[…],"disliked":[…]}}`.
pub fn write_candidate(out: &mut Vec<u8>, user: UserId, profile: &Profile) {
    out.extend_from_slice(b"{\"uid\":");
    push_uint(out, u64::from(user.raw()));
    out.extend_from_slice(b",\"profile\":");
    write_profile(out, profile);
    out.push(b'}');
}

/// `{"liked":[…],"disliked":[…]}`.
fn write_profile(out: &mut Vec<u8>, profile: &Profile) {
    out.extend_from_slice(b"{\"liked\":[");
    push_items(out, profile.liked());
    out.extend_from_slice(b"],\"disliked\":[");
    push_items(out, profile.disliked());
    out.extend_from_slice(b"]}");
}

/// Appends comma-separated item ids, the inside of a JSON id array.
pub fn push_items(out: &mut Vec<u8>, items: impl Iterator<Item = ItemId>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_uint(out, u64::from(item.raw()));
    }
}

/// `,"lease":…,"epoch":…`, or nothing for an unleased message.
fn push_lease(out: &mut Vec<u8>, lease: u64, epoch: u64) {
    if lease != 0 || epoch != 0 {
        out.extend_from_slice(b",\"lease\":");
        push_uint(out, lease);
        out.extend_from_slice(b",\"epoch\":");
        push_uint(out, epoch);
    }
}

/// Rounds similarity to 6 decimal digits so the wire shape is compact and
/// platform-independent (f64 formatting differences never leak into bytes).
fn quantize(sim: f64) -> f64 {
    (sim * 1e6).round() / 1e6
}

/// Optional non-negative integer field: absent ⇒ `0`, present-but-mistyped
/// ⇒ schema error (a lease must never be silently dropped).
fn optional_u64(value: JsonRef<'_>, key: &str) -> Result<u64, WireError> {
    match value.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| WireError::Schema(format!("invalid `{key}`"))),
    }
}

fn field_u32(value: JsonRef<'_>, key: &str) -> Result<u32, WireError> {
    value
        .get(key)
        .and_then(as_u32)
        .ok_or_else(|| WireError::Schema(format!("missing or invalid `{key}`")))
}

/// `value.as_u64()` narrowed to `u32`, converting through `u32` directly
/// (ids are the bulk of a job, and the narrow conversions are cheaper).
fn as_u32(value: JsonRef<'_>) -> Option<u32> {
    value.as_f64().and_then(to_u32)
}

/// `n` as a `u32`, if it is one exactly.
fn to_u32(n: f64) -> Option<u32> {
    if !(0.0..=f64::from(u32::MAX)).contains(&n) {
        return None;
    }
    let int = n as u32;
    (f64::from(int) == n).then_some(int)
}

fn parse_profile(value: JsonRef<'_>) -> Result<Profile, WireError> {
    let items = |key: &str| -> Result<Vec<ItemId>, WireError> {
        let list = value
            .get(key)
            .and_then(JsonRef::as_array)
            .ok_or_else(|| WireError::Schema(format!("profile missing `{key}`")))?;
        list.collect_numbers(|n| to_u32(n).map(ItemId))
            .ok_or_else(|| WireError::Schema("non-integer item id".into()))
    };
    Ok(Profile::from_votes(items("liked")?, items("disliked")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> PersonalizationJob {
        let mut candidates = CandidateSet::new();
        candidates.insert(UserId(10), Profile::from_liked([1u32, 2, 3]));
        candidates.insert(UserId(11), Profile::from_votes([4u32], [5u32]));
        PersonalizationJob {
            uid: UserId(1),
            k: 10,
            r: 5,
            lease: 0,
            epoch: 0,
            profile: Profile::from_liked([1u32, 9]).into(),
            candidates,
        }
    }

    #[test]
    fn job_json_round_trip() {
        let job = sample_job();
        let back =
            PersonalizationJob::from_json(&JsonValue::parse(&job.to_json()).unwrap()).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn job_wire_round_trip() {
        let job = sample_job();
        let bytes = job.encode();
        let back = PersonalizationJob::decode(&bytes).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn gzip_is_smaller_for_real_jobs() {
        // Representative job: 120 candidates × 100-item profiles.
        let mut candidates = CandidateSet::new();
        for u in 0..120u32 {
            let profile = Profile::from_liked((0..100u32).map(|i| (u * 31 + i * 17) % 10_000));
            candidates.insert(UserId(u), profile);
        }
        let job = PersonalizationJob {
            uid: UserId(1),
            k: 10,
            r: 10,
            lease: 0,
            epoch: 0,
            profile: Profile::from_liked(0u32..100).into(),
            candidates,
        };
        let raw = job.json_bytes();
        let packed = job.gzip_bytes();
        assert!(packed < raw / 2, "gzip {packed} vs raw {raw}");
    }

    #[test]
    fn update_round_trips() {
        let update = KnnUpdate {
            uid: UserId(3),
            lease: 0,
            epoch: 0,
            neighbors: vec![
                Neighbor {
                    user: UserId(8),
                    similarity: 0.75,
                },
                Neighbor {
                    user: UserId(9),
                    similarity: 0.5,
                },
            ],
        };
        let back = KnnUpdate::decode(&update.encode()).unwrap();
        assert_eq!(back, update);
        assert_eq!(back.to_neighborhood().len(), 2);
    }

    #[test]
    fn update_similarity_is_quantized() {
        let update = KnnUpdate {
            uid: UserId(1),
            lease: 0,
            epoch: 0,
            neighbors: vec![Neighbor {
                user: UserId(2),
                similarity: 1.0 / 3.0,
            }],
        };
        let back = KnnUpdate::from_json(&JsonValue::parse(&update.to_json()).unwrap()).unwrap();
        assert!((back.neighbors[0].similarity - 0.333_333).abs() < 1e-9);
    }

    #[test]
    fn leased_job_round_trips_and_unleased_wire_shape_is_unchanged() {
        // Unleased jobs must keep the seed wire shape (no lease/epoch
        // keys), so pre-scheduler clients and byte-identity fixtures hold.
        let unleased = sample_job();
        let text = unleased.to_json().to_string();
        assert!(!text.contains("lease"), "unleased job leaked lease field");
        assert!(!text.contains("epoch"), "unleased job leaked epoch field");

        let mut leased = sample_job();
        leased.lease = 42;
        leased.epoch = 7;
        let text = leased.to_json().to_string();
        assert!(text.contains("\"lease\":42"));
        assert!(text.contains("\"epoch\":7"));
        let back = PersonalizationJob::decode(&leased.encode()).unwrap();
        assert_eq!(back, leased);
    }

    #[test]
    fn leased_update_round_trips_and_rejects_mistyped_lease() {
        let update = KnnUpdate {
            uid: UserId(3),
            lease: 9,
            epoch: 2,
            neighbors: vec![Neighbor {
                user: UserId(8),
                similarity: 0.75,
            }],
        };
        let text = update.to_json().to_string();
        assert!(text.contains("\"lease\":9"));
        let back = KnnUpdate::decode(&update.encode()).unwrap();
        assert_eq!(back, update);

        // An unleased update stays on the seed shape.
        let plain = KnnUpdate::from_neighborhood(UserId(1), &update.to_neighborhood());
        assert!(!plain.to_json().to_string().contains("lease"));
        // with_lease stamps credentials.
        let stamped = plain.clone().with_lease(5, 1);
        assert_eq!((stamped.lease, stamped.epoch), (5, 1));

        // A mistyped lease is a schema error, never silently dropped.
        let bad = JsonValue::parse(r#"{"uid":1,"lease":"x","neighbors":[]}"#).unwrap();
        assert!(KnnUpdate::from_json(&bad).is_err());
    }

    #[test]
    fn schema_errors_are_descriptive() {
        let bad = JsonValue::parse(r#"{"uid": "not a number"}"#).unwrap();
        let err = PersonalizationJob::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("uid"));

        let bad = JsonValue::parse(r#"{"uid": 1, "k": 1, "r": 1}"#).unwrap();
        assert!(PersonalizationJob::from_json(&bad).is_err());
    }

    #[test]
    fn ids_must_be_integers_that_fit_u32() {
        for (id, ok) in [
            ("0", true),
            ("-0", true),
            ("4294967295", true),
            ("4294967296", false),
            ("-1", false),
            ("1.5", false),
            ("1e3", true),
            ("\"7\"", false),
        ] {
            let text = format!(r#"{{"uid":{id},"neighbors":[]}}"#);
            let parsed = KnnUpdate::from_json(&JsonValue::parse(&text).unwrap());
            assert_eq!(parsed.is_ok(), ok, "{id}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PersonalizationJob::decode(b"not gzip").is_err());
        assert!(KnnUpdate::decode(&[]).is_err());
        // Valid gzip of invalid JSON.
        let bytes = gzip::compress(b"{nope}");
        assert!(KnnUpdate::decode(&bytes).is_err());
        // Valid gzip of non-utf8.
        let bytes = gzip::compress(&[0xFF, 0xFE, 0x00]);
        assert!(KnnUpdate::decode(&bytes).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_profile() -> impl Strategy<Value = Profile> {
            (
                proptest::collection::vec(0u32..5000, 0..40),
                proptest::collection::vec(0u32..5000, 0..10),
            )
                .prop_map(|(liked, disliked)| Profile::from_votes(liked, disliked))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn arbitrary_jobs_round_trip(
                uid in 0u32..1000,
                k in 1usize..30,
                r in 1usize..20,
                profile in arb_profile(),
                cands in proptest::collection::vec((0u32..500, arb_profile()), 0..20),
            ) {
                let candidates: CandidateSet = cands
                    .into_iter()
                    .map(|(u, p)| (UserId(u), p))
                    .collect();
                let job = PersonalizationJob {
                    uid: UserId(uid),
                    k,
                    r,
                    lease: 0,
                    epoch: 0,
                    profile: profile.into(),
                    candidates,
                };
                let back = PersonalizationJob::decode(&job.encode()).unwrap();
                prop_assert_eq!(back, job);
            }
        }
    }
}
