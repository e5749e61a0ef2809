//! Trace replay: driving HyRec and the offline baselines through a
//! workload, with periodic metric probes.
//!
//! This is the engine behind Figures 3, 4 and 5: "we replay the rating
//! activity of each user over time. When a user rates an item in the
//! workload, the client sends a request to the server, triggering the
//! computation of recommendations" (Section 5.2).

use crate::metrics;
use hyrec_client::Widget;
use hyrec_core::{SharedProfile, UserId};
use hyrec_datasets::{Timestamp, Trace};
use hyrec_server::offline::{ExhaustiveBackend, OfflineBackend};
use hyrec_server::{HyRecConfig, HyRecServer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Configuration for a HyRec replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Recommendation list size `r`.
    pub r: usize,
    /// Optional bound on inter-request time, in seconds: users idle longer
    /// than this get a synthetic refresh request (the paper's `IR=7` days
    /// variant in Figure 3).
    pub inter_request_bound: Option<u64>,
    /// Seconds between metric probes.
    pub probe_interval: u64,
    /// Compute the ideal-KNN upper bound at every probe (quadratic; keep
    /// for ML1-scale runs only).
    pub compute_ideal: bool,
    /// RNG seed forwarded to the server's sampler.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            k: 10,
            r: 10,
            inter_request_bound: None,
            probe_interval: 2 * 86_400, // every 2 simulated days
            compute_ideal: false,
            seed: 42,
        }
    }
}

/// One metric probe along the replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// Simulated time of the probe.
    pub time: Timestamp,
    /// Mean view similarity of the live KNN table (re-scored against
    /// current profiles).
    pub view_similarity: f64,
    /// Ideal upper bound at the same instant, when requested.
    pub ideal_view_similarity: Option<f64>,
    /// Mean candidate-set size over the jobs built since the last probe
    /// (Figure 5's y-axis).
    pub avg_candidate_size: f64,
}

/// Result of a HyRec replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Metric probes in time order.
    pub probes: Vec<ProbePoint>,
    /// Per-user iteration counts (number of personalization jobs run).
    pub iterations: HashMap<UserId, u64>,
    /// Per-user final view similarity (re-scored at the end).
    pub final_per_user: HashMap<UserId, f64>,
    /// Per-user ideal view similarity at the end (for Figure 4 ratios),
    /// when `compute_ideal` was set.
    pub ideal_per_user: Option<HashMap<UserId, f64>>,
}

impl ReplayResult {
    /// Final mean view similarity (last probe).
    #[must_use]
    pub fn final_view_similarity(&self) -> f64 {
        self.probes.last().map_or(0.0, |p| p.view_similarity)
    }

    /// Per-user `(iterations, achieved / ideal)` ratios — the scatter of
    /// Figure 4. Users with zero ideal similarity are skipped.
    #[must_use]
    pub fn figure4_points(&self) -> Vec<(u64, f64)> {
        let Some(ideal) = &self.ideal_per_user else {
            return Vec::new();
        };
        let mut points = Vec::new();
        for (user, achieved) in &self.final_per_user {
            let Some(&bound) = ideal.get(user) else {
                continue;
            };
            if bound > 1e-9 {
                let iterations = self.iterations.get(user).copied().unwrap_or(0);
                points.push((iterations, (achieved / bound).min(1.0)));
            }
        }
        points.sort_unstable_by_key(|(i, _)| *i);
        points
    }
}

/// The state of one HyRec replay: the server and widget, the counters
/// behind the probes, and the IR-bounded variant's refresh queue.
struct HyRecReplay<'a> {
    config: &'a ReplayConfig,
    server: HyRecServer,
    widget: Widget,
    iterations: HashMap<UserId, u64>,
    probes: Vec<ProbePoint>,
    candidate_sizes_sum: u64,
    candidate_jobs: u64,
    /// Synthetic refresh requests for the IR-bounded variant: a min-heap
    /// of `(due_time, user)`.
    refresh_queue: BinaryHeap<Reverse<(u64, u32)>>,
    last_request: HashMap<UserId, u64>,
}

impl HyRecReplay<'_> {
    /// Serves a batch of requests, each a user and the time it is due at,
    /// through the server's batched entry points: one `build_jobs`, the
    /// widget on every job, one `apply_updates`. A trace event is a batch
    /// of one; both calls give the same result however a request stream is
    /// split, so batching the refresh backlog changes no job.
    fn serve(&mut self, batch: &[(UserId, u64)]) {
        let users: Vec<UserId> = batch.iter().map(|&(user, _)| user).collect();
        let jobs = self.server.build_jobs(&users);
        let updates: Vec<_> = jobs
            .iter()
            .map(|job| {
                self.candidate_sizes_sum += job.candidates.len() as u64;
                self.candidate_jobs += 1;
                self.widget.run_job(job).update
            })
            .collect();
        self.server.apply_updates(&updates);
        for &(user, due) in batch {
            *self.iterations.entry(user).or_insert(0) += 1;
            self.last_request.insert(user, due);
            if let Some(bound) = self.config.inter_request_bound {
                self.refresh_queue.push(Reverse((due + bound, user.0)));
            }
        }
    }

    /// Fires the synthetic refreshes due by `now` (IR-bounded variant).
    /// The due entries at each queue drain are served as one batch. The
    /// outer loop re-drains until quiescent so cascaded refreshes (a
    /// long-idle user owes several bound-spaced refreshes before `now`)
    /// still fire; `last_request` is updated at collection time so an entry
    /// later in the same drain sees the refresh.
    fn refresh_due(&mut self, now: u64) {
        let Some(bound) = self.config.inter_request_bound else {
            return;
        };
        loop {
            let mut due_refreshes: Vec<(UserId, u64)> = Vec::new();
            while let Some(&Reverse((due, uid))) = self.refresh_queue.peek() {
                if due > now {
                    break;
                }
                self.refresh_queue.pop();
                let user = UserId(uid);
                // Only refresh if the user has actually been idle that long.
                let idle_since = self.last_request.get(&user).copied().unwrap_or(0);
                if now.saturating_sub(idle_since) >= bound {
                    self.last_request.insert(user, due);
                    due_refreshes.push((user, due));
                }
            }
            if due_refreshes.is_empty() {
                break;
            }
            self.serve(&due_refreshes);
        }
    }

    /// Records a metric probe at `time` and resets the candidate-size
    /// counters.
    fn probe(&mut self, time: u64) {
        // The paper's metric uses the similarities *stored* in the KNN
        // table (computed at selection time): an inactive user's entry
        // goes stale, which is exactly the activity effect Figures 3-4
        // measure. The ideal bound is evaluated on current profiles.
        let view = self.server.average_view_similarity();
        let ideal = self.config.compute_ideal.then(|| {
            let profiles: HashMap<UserId, SharedProfile> =
                self.server.table().snapshot().into_iter().collect();
            metrics::ideal_view_similarity(&profiles, self.config.k)
        });
        self.probes.push(ProbePoint {
            time: Timestamp(time),
            view_similarity: view,
            ideal_view_similarity: ideal,
            avg_candidate_size: if self.candidate_jobs == 0 {
                0.0
            } else {
                self.candidate_sizes_sum as f64 / self.candidate_jobs as f64
            },
        });
        self.candidate_sizes_sum = 0;
        self.candidate_jobs = 0;
    }
}

/// Replays a binary trace through the full HyRec loop (server + widget).
///
/// Each rating event records the vote, then triggers a personalization job
/// and a KNN write-back, exactly the paper's request flow.
#[must_use]
pub fn replay_hyrec(trace: &Trace, config: &ReplayConfig) -> ReplayResult {
    let mut replay = HyRecReplay {
        config,
        server: HyRecServer::with_config(
            HyRecConfig::builder()
                .k(config.k)
                .r(config.r)
                .seed(config.seed)
                .build(),
        ),
        widget: Widget::new(),
        iterations: HashMap::new(),
        probes: Vec::new(),
        candidate_sizes_sum: 0,
        candidate_jobs: 0,
        refresh_queue: BinaryHeap::new(),
        last_request: HashMap::new(),
    };
    let mut next_probe = config.probe_interval;

    for event in trace.iter() {
        let now = event.time.0;
        // Synthetic refreshes due before this event, then the probes.
        replay.refresh_due(now);
        while now >= next_probe {
            replay.probe(next_probe);
            next_probe += config.probe_interval;
        }
        // The paper's flow: profile update, then the personalization job.
        replay.server.record(event.user, event.item, event.vote);
        replay.serve(&[(event.user, now)]);
    }
    // Final probe at the horizon.
    replay.probe(trace.horizon().0);

    let HyRecReplay {
        server,
        iterations,
        probes,
        ..
    } = replay;
    let final_per_user: HashMap<UserId, f64> =
        server.table().view_similarities().into_iter().collect();
    let ideal_per_user = if config.compute_ideal {
        let profiles: HashMap<UserId, SharedProfile> =
            server.table().snapshot().into_iter().collect();
        Some(metrics::ideal_knn(&profiles, config.k).per_user_view_similarity(&profiles))
    } else {
        None
    };

    ReplayResult {
        probes,
        iterations,
        final_per_user,
        ideal_per_user,
    }
}

/// Replays the *Offline-Ideal* baseline: profiles accumulate continuously;
/// the KNN table is recomputed exhaustively every `period` seconds and
/// stays frozen in between (the staircase of Figure 3).
#[must_use]
pub fn replay_offline_ideal(
    trace: &Trace,
    k: usize,
    period: u64,
    probe_interval: u64,
) -> Vec<ProbePoint> {
    let backend = ExhaustiveBackend::default();
    let mut profiles: HashMap<UserId, SharedProfile> = HashMap::new();
    // Mean of the similarities stored at the last recompute: constant
    // between recomputations, which is the paper's staircase.
    let mut stored_view = 0.0f64;
    let mut next_recompute = period;
    let mut next_probe = probe_interval;
    let mut probes = Vec::new();

    let advance = |now: u64,
                   profiles: &HashMap<UserId, SharedProfile>,
                   stored_view: &mut f64,
                   next_recompute: &mut u64,
                   next_probe: &mut u64,
                   probes: &mut Vec<ProbePoint>| {
        while now >= *next_recompute || now >= *next_probe {
            if *next_recompute <= *next_probe {
                let flat: Vec<(UserId, SharedProfile)> = profiles
                    .iter()
                    .map(|(u, p)| (*u, SharedProfile::clone(p)))
                    .collect();
                let table = backend.compute(&flat, k);
                *stored_view = if table.is_empty() {
                    0.0
                } else {
                    table.iter().map(|(_, h)| h.view_similarity()).sum::<f64>() / table.len() as f64
                };
                *next_recompute += period;
            } else {
                probes.push(ProbePoint {
                    time: Timestamp(*next_probe),
                    view_similarity: *stored_view,
                    ideal_view_similarity: None,
                    avg_candidate_size: 0.0,
                });
                *next_probe += probe_interval;
            }
        }
    };

    for event in trace.iter() {
        advance(
            event.time.0,
            &profiles,
            &mut stored_view,
            &mut next_recompute,
            &mut next_probe,
            &mut probes,
        );
        SharedProfile::make_mut(profiles.entry(event.user).or_default())
            .record(event.item, event.vote);
    }
    // Final probe.
    probes.push(ProbePoint {
        time: trace.horizon(),
        view_similarity: stored_view,
        ideal_view_similarity: None,
        avg_candidate_size: 0.0,
    });
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_datasets::{DatasetSpec, TraceGenerator};

    fn small_trace() -> Trace {
        TraceGenerator::new(DatasetSpec::ML1.scaled(0.05), 3)
            .generate()
            .binarize()
    }

    #[test]
    fn hyrec_replay_converges_toward_ideal() {
        let trace = small_trace();
        let config = ReplayConfig {
            k: 5,
            probe_interval: 10 * 86_400,
            compute_ideal: true,
            ..ReplayConfig::default()
        };
        let result = replay_hyrec(&trace, &config);
        assert!(!result.probes.is_empty());

        let last = result.probes.last().unwrap();
        let ideal = last.ideal_view_similarity.expect("ideal requested");
        assert!(ideal > 0.0);
        // The paper reports within 10-20% of ideal on ML1; the small scaled
        // trace is harder, so accept 60%+.
        assert!(
            last.view_similarity > ideal * 0.6,
            "view {:.4} vs ideal {:.4}",
            last.view_similarity,
            ideal
        );
        // Convergence: final view similarity beats the first probe's.
        assert!(last.view_similarity > result.probes[0].view_similarity);
    }

    #[test]
    fn candidate_sizes_shrink_after_warmup() {
        // Needs communities larger than k for the 2-hop sets to collapse:
        // use a 15% slice (≈140 users across 12 communities). The IR bound
        // keeps idle users iterating, so the late-trace candidate sizes
        // reflect convergence rather than staleness — without it the shrink
        // is at the mercy of the tail of the activity distribution.
        let trace = TraceGenerator::new(DatasetSpec::ML1.scaled(0.15), 3)
            .generate()
            .binarize();
        let config = ReplayConfig {
            k: 5,
            probe_interval: 10 * 86_400,
            inter_request_bound: Some(7 * 86_400),
            ..Default::default()
        };
        let result = replay_hyrec(&trace, &config);
        let sizes: Vec<f64> = result
            .probes
            .iter()
            .map(|p| p.avg_candidate_size)
            .filter(|&s| s > 0.0)
            .collect();
        assert!(sizes.len() >= 3);
        // Candidate sets grow while tables fill, peak, then shrink as the
        // KNN converges and the 2-hop sets overlap (Figure 5's shape).
        let peak = sizes.iter().cloned().fold(0.0f64, f64::max);
        let late = sizes[sizes.len() - 1];
        assert!(
            late < peak * 0.85,
            "candidate set should shrink after convergence: peak {peak:.1} late {late:.1}"
        );
        // And never exceed the paper's bound.
        let bound = hyrec_core::candidate_set_bound(5) as f64;
        assert!(sizes.iter().all(|&s| s <= bound + 1e-9));
    }

    #[test]
    fn iteration_counts_match_events_without_ir() {
        let trace = small_trace();
        let result = replay_hyrec(
            &trace,
            &ReplayConfig {
                k: 3,
                ..Default::default()
            },
        );
        let total: u64 = result.iterations.values().sum();
        assert_eq!(total, trace.len() as u64);
    }

    #[test]
    fn ir_bound_adds_refresh_iterations() {
        let trace = small_trace();
        let without = replay_hyrec(
            &trace,
            &ReplayConfig {
                k: 3,
                ..Default::default()
            },
        );
        let with = replay_hyrec(
            &trace,
            &ReplayConfig {
                k: 3,
                inter_request_bound: Some(7 * 86_400),
                ..Default::default()
            },
        );
        let total = |r: &ReplayResult| r.iterations.values().sum::<u64>();
        assert!(
            total(&with) > total(&without),
            "IR bound must add synthetic refreshes: {} vs {}",
            total(&with),
            total(&without)
        );
    }

    #[test]
    fn figure4_points_are_ratios() {
        let trace = small_trace();
        let config = ReplayConfig {
            k: 4,
            compute_ideal: true,
            ..Default::default()
        };
        let result = replay_hyrec(&trace, &config);
        let points = result.figure4_points();
        assert!(!points.is_empty());
        for (iterations, ratio) in &points {
            assert!(*iterations >= 1);
            assert!((0.0..=1.0).contains(ratio));
        }
    }

    #[test]
    fn offline_staircase_updates_on_period() {
        let trace = small_trace();
        let horizon = trace.horizon().0;
        let probes = replay_offline_ideal(&trace, 5, horizon / 4 + 1, horizon / 20 + 1);
        assert!(probes.len() >= 10);
        // Early probes (before the first recompute) score zero.
        assert_eq!(probes[0].view_similarity, 0.0);
        // Final probes are positive (table computed at least thrice).
        assert!(probes.last().unwrap().view_similarity > 0.0);
    }

    #[test]
    fn hyrec_converges_while_unrefreshed_offline_stays_at_zero() {
        // The view-similarity advantage of HyRec over a *periodically
        // refreshed* offline table is transient (mid-staircase) — the
        // paper's durable advantage is recommendation quality (Figure 6,
        // tested in `quality`). The robust replay-level invariant is the
        // cold-start one: before the first recompute the offline table
        // provides nothing, while HyRec personalizes from the first rating.
        let trace = small_trace();
        let horizon = trace.horizon().0;
        let hyrec = replay_hyrec(
            &trace,
            &ReplayConfig {
                k: 5,
                probe_interval: horizon / 10 + 1,
                ..Default::default()
            },
        );
        let offline = replay_offline_ideal(&trace, 5, horizon * 2, horizon / 10 + 1);
        assert_eq!(offline.last().unwrap().view_similarity, 0.0);
        assert!(hyrec.final_view_similarity() > 0.05);
        // And the offline staircase with a real period is eventually
        // populated (sanity of the staircase mechanics).
        let stepped = replay_offline_ideal(&trace, 5, horizon / 3 + 1, horizon / 10 + 1);
        assert!(stepped.last().unwrap().view_similarity > 0.0);
    }
}
