//! The simulated P2P network: cycles, churn, and bandwidth metering.

use crate::cluster::ClusterView;
use crate::rps;
use crate::view::{PartialView, ViewEntry};
use hyrec_core::{recommend, Neighbor, Neighborhood, Profile, Recommendation, UserId, Vote};
use hyrec_wire::json::push_uint;
use hyrec_wire::messages::push_items;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// How message bytes are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeMode {
    /// Raw JSON bytes (what a plain P2P implementation ships).
    Json,
    /// Gzipped JSON (a generous lower bound for the P2P side).
    Gzip,
}

/// Configuration of the decentralized recommender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// RPS partial-view size.
    pub rps_view_size: usize,
    /// Cluster view size (the `k` of the P2P KNN).
    pub k: usize,
    /// Seconds between gossip cycles ("typically every minute",
    /// Section 5.6).
    pub cycle_seconds: u64,
    /// Byte-counting mode for the bandwidth report.
    pub size_mode: SizeMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            rps_view_size: 10,
            k: 10,
            cycle_seconds: 60,
            size_mode: SizeMode::Json,
            seed: 0x90551,
        }
    }
}

/// Per-node bandwidth accounting summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthReport {
    /// Total bytes sent by all nodes.
    pub total_bytes: u64,
    /// Mean bytes sent per node.
    pub mean_bytes_per_node: f64,
    /// Maximum bytes sent by any single node.
    pub max_bytes_per_node: u64,
    /// Number of gossip cycles executed.
    pub cycles: u64,
}

struct Node {
    user: UserId,
    profile: Profile,
    online: bool,
    rps_view: PartialView,
    cluster_view: ClusterView,
    bytes_sent: u64,
}

/// A deterministic, single-process simulation of the decentralized
/// recommender of Section 2.3.
///
/// Each [`GossipNetwork::run_cycle`] call makes every online node initiate
/// one RPS shuffle and one clustering exchange, exactly the per-minute
/// behaviour whose cumulative traffic Section 5.6 compares against HyRec.
pub struct GossipNetwork {
    nodes: Vec<Node>,
    index: HashMap<UserId, usize>,
    config: GossipConfig,
    rng: StdRng,
    cycles: u64,
}

impl std::fmt::Debug for GossipNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipNetwork")
            .field("nodes", &self.nodes.len())
            .field("cycles", &self.cycles)
            .field("config", &self.config)
            .finish()
    }
}

impl GossipNetwork {
    /// Builds the network; initial RPS views are seeded with ring
    /// neighbours (standard bootstrap).
    #[must_use]
    pub fn new(profiles: Vec<(UserId, Profile)>, config: GossipConfig) -> Self {
        let n = profiles.len();
        let index: HashMap<UserId, usize> = profiles
            .iter()
            .enumerate()
            .map(|(i, (u, _))| (*u, i))
            .collect();
        let nodes: Vec<Node> = profiles
            .into_iter()
            .enumerate()
            .map(|(i, (user, profile))| {
                let mut rps_view = PartialView::new(config.rps_view_size);
                if n > 1 {
                    for offset in 1..=config.rps_view_size.min(n - 1) {
                        let peer = (i + offset) % n;
                        rps_view.merge(
                            user,
                            [ViewEntry {
                                peer: UserId(peer as u32),
                                age: 0,
                            }],
                        );
                    }
                }
                Node {
                    user,
                    profile,
                    online: true,
                    rps_view,
                    cluster_view: ClusterView::new(config.k),
                    bytes_sent: 0,
                }
            })
            .collect();
        // Ring bootstrap used positional ids; remap to actual user ids.
        let mut network = Self {
            nodes,
            index,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            cycles: 0,
        };
        network.fix_bootstrap_ids();
        network
    }

    /// The ring bootstrap above filled views with *positions*; replace them
    /// with the corresponding user ids.
    fn fix_bootstrap_ids(&mut self) {
        let ids: Vec<UserId> = self.nodes.iter().map(|n| n.user).collect();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mut fresh = PartialView::new(self.config.rps_view_size);
            let positions: Vec<usize> = node
                .rps_view
                .entries()
                .iter()
                .map(|e| e.peer.0 as usize)
                .collect();
            let me = ids[i];
            fresh.merge(
                me,
                positions
                    .into_iter()
                    .filter(|&p| p < ids.len())
                    .map(|p| ViewEntry {
                        peer: ids[p],
                        age: 0,
                    }),
            );
            node.rps_view = fresh;
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the network has no node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Marks a node online/offline (churn). Offline nodes neither initiate
    /// nor answer exchanges — the deployment weakness HyRec's server-side
    /// KNN storage avoids.
    pub fn set_online(&mut self, user: UserId, online: bool) {
        if let Some(&i) = self.index.get(&user) {
            self.nodes[i].online = online;
        }
    }

    /// Applies a local rating (the node's own profile changes; its cluster
    /// view is re-scored).
    pub fn record(&mut self, user: UserId, item: hyrec_core::ItemId, vote: Vote) {
        if let Some(&i) = self.index.get(&user) {
            self.nodes[i].profile.record(item, vote);
            let profile = self.nodes[i].profile.clone();
            self.nodes[i].cluster_view.rescore(&profile);
        }
    }

    /// Runs `cycles` gossip cycles.
    pub fn run(&mut self, cycles: usize) {
        for _ in 0..cycles {
            self.run_cycle();
        }
    }

    /// Runs one cycle: every online node ages its RPS view, then initiates
    /// one RPS shuffle and one clustering exchange.
    pub fn run_cycle(&mut self) {
        self.cycles += 1;
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        for i in 0..n {
            if !self.nodes[i].online {
                continue;
            }
            self.nodes[i].rps_view.age_all();
            self.nodes[i].cluster_view.age_all();
            self.rps_exchange(i);
            self.cluster_exchange(i);
        }
    }

    fn rps_exchange(&mut self, i: usize) {
        let partner = match self.nodes[i].rps_view.oldest() {
            Some(e) => e.peer,
            None => return,
        };
        let Some(&j) = self.index.get(&partner) else {
            return;
        };
        if j == i {
            return;
        }
        if !self.nodes[j].online {
            // Dead peer: drop it from the view (failure detection).
            self.nodes[i].rps_view.remove(partner);
            return;
        }
        let (a, b) = (self.nodes[i].user, self.nodes[j].user);
        let capacity = self.config.rps_view_size;

        // Split-borrow the two nodes.
        let (lo, hi) = (i.min(j), i.max(j));
        let (left, right) = self.nodes.split_at_mut(hi);
        let (node_a, node_b) = if i < j {
            (&mut left[lo], &mut right[0])
        } else {
            (&mut right[0], &mut left[lo])
        };

        // Meter the payloads both directions before merging.
        let payload_len = rps::shuffle_len(capacity) + 1;
        let bytes = Self::rps_message_bytes(payload_len, self.config.size_mode);
        node_a.bytes_sent += bytes;
        node_b.bytes_sent += bytes;

        rps::apply_shuffle(
            a,
            &mut node_a.rps_view,
            b,
            &mut node_b.rps_view,
            capacity,
            &mut self.rng,
        );
    }

    fn cluster_exchange(&mut self, i: usize) {
        // Partner: a random cluster peer (rotating partners spreads
        // descriptors), else a random RPS peer to bootstrap (Vicinity).
        let cluster_entries = self.nodes[i].cluster_view.entries();
        let partner = if cluster_entries.is_empty() {
            let entries = self.nodes[i].rps_view.entries();
            if entries.is_empty() {
                None
            } else {
                Some(entries[self.rng.gen_range(0..entries.len())].peer)
            }
        } else {
            Some(cluster_entries[self.rng.gen_range(0..cluster_entries.len())].peer)
        };
        let Some(partner) = partner else { return };
        let Some(&j) = self.index.get(&partner) else {
            return;
        };
        if j == i || !self.nodes[j].online {
            return;
        }

        // Payloads: own descriptor + own cluster view, both directions.
        let payload_a: Vec<(UserId, Profile, u32)> = descriptor_payload(&self.nodes[i]);
        let payload_b: Vec<(UserId, Profile, u32)> = descriptor_payload(&self.nodes[j]);

        let bytes_a = Self::cluster_message_bytes(&payload_a, self.config.size_mode);
        let bytes_b = Self::cluster_message_bytes(&payload_b, self.config.size_mode);
        self.nodes[i].bytes_sent += bytes_a;
        self.nodes[j].bytes_sent += bytes_b;

        // Merge: each side considers the other's payload.
        let me_i = self.nodes[i].user;
        let my_profile_i = self.nodes[i].profile.clone();
        self.nodes[i].cluster_view.merge(
            me_i,
            &my_profile_i,
            payload_b.iter().map(|(u, p, age)| (*u, p, *age)),
        );
        let me_j = self.nodes[j].user;
        let my_profile_j = self.nodes[j].profile.clone();
        self.nodes[j].cluster_view.merge(
            me_j,
            &my_profile_j,
            payload_a.iter().map(|(u, p, age)| (*u, p, *age)),
        );

        // Vicinity's random leg: the initiator also pulls profiles from a
        // couple of RPS peers so the cluster view can escape local optima.
        // Each pull is one descriptor of traffic *sent by the polled peer*.
        let rps_peers: Vec<UserId> = self.nodes[i]
            .rps_view
            .entries()
            .iter()
            .map(|e| e.peer)
            .collect();
        let mut pulled: Vec<(UserId, Profile, u32)> = Vec::new();
        for _ in 0..2.min(rps_peers.len()) {
            let peer = rps_peers[self.rng.gen_range(0..rps_peers.len())];
            let Some(&p) = self.index.get(&peer) else {
                continue;
            };
            if p == i || !self.nodes[p].online {
                continue;
            }
            let descriptor = vec![(self.nodes[p].user, self.nodes[p].profile.clone(), 0u32)];
            self.nodes[p].bytes_sent +=
                Self::cluster_message_bytes(&descriptor, self.config.size_mode);
            pulled.extend(descriptor);
        }
        if !pulled.is_empty() {
            self.nodes[i].cluster_view.merge(
                me_i,
                &my_profile_i,
                pulled.iter().map(|(u, p, age)| (*u, p, *age)),
            );
        }
    }

    fn rps_message_bytes(descriptors: usize, mode: SizeMode) -> u64 {
        // uid (u32 as decimal) + age: ~16 bytes JSON per descriptor.
        message_size(0..descriptors, mode, |out, i| {
            out.extend_from_slice(b"{\"uid\":");
            push_uint(out, u64::from(i as u32 * 7919));
            out.extend_from_slice(b",\"age\":2}");
        })
    }

    fn cluster_message_bytes(payload: &[(UserId, Profile, u32)], mode: SizeMode) -> u64 {
        message_size(payload, mode, |out, (u, p, age)| {
            out.extend_from_slice(b"{\"uid\":");
            push_uint(out, u64::from(u.raw()));
            out.extend_from_slice(b",\"age\":");
            push_uint(out, u64::from(*age));
            out.extend_from_slice(b",\"liked\":[");
            push_items(out, p.liked());
            out.extend_from_slice(b"]}");
        })
    }

    /// The node's current KNN approximation (its cluster view).
    #[must_use]
    pub fn knn_of(&self, user: UserId) -> Option<Neighborhood> {
        let &i = self.index.get(&user)?;
        Some(Neighborhood::from_neighbors(
            self.nodes[i]
                .cluster_view
                .entries()
                .iter()
                .map(|e| Neighbor {
                    user: e.peer,
                    similarity: e.similarity,
                }),
        ))
    }

    /// Local recommendation (Algorithm 2 over the node's own cluster view —
    /// no network interaction needed, Section 2.3).
    #[must_use]
    pub fn recommend(&self, user: UserId, r: usize) -> Vec<Recommendation> {
        let Some(&i) = self.index.get(&user) else {
            return Vec::new();
        };
        let node = &self.nodes[i];
        recommend::most_popular(
            &node.profile,
            node.cluster_view.entries().iter().map(|e| &e.profile),
            r,
        )
    }

    /// Mean view similarity across all nodes (the P2P analogue of the KNN
    /// table's average view similarity).
    #[must_use]
    pub fn average_view_similarity(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(|n| n.cluster_view.view_similarity())
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Total bytes sent by all nodes so far.
    #[must_use]
    pub fn total_bytes_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Full bandwidth report (the Section 5.6 numbers).
    #[must_use]
    pub fn bandwidth_report(&self) -> BandwidthReport {
        let total: u64 = self.total_bytes_sent();
        BandwidthReport {
            total_bytes: total,
            mean_bytes_per_node: if self.nodes.is_empty() {
                0.0
            } else {
                total as f64 / self.nodes.len() as f64
            },
            max_bytes_per_node: self.nodes.iter().map(|n| n.bytes_sent).max().unwrap_or(0),
            cycles: self.cycles,
        }
    }
}

fn descriptor_payload(node: &Node) -> Vec<(UserId, Profile, u32)> {
    let mut payload = Vec::with_capacity(node.cluster_view.len() + 1);
    // Own descriptor is always fresh (age 0); relayed snapshots gain a hop.
    payload.push((node.user, node.profile.clone(), 0));
    payload.extend(
        node.cluster_view
            .entries()
            .iter()
            .map(|e| (e.peer, e.profile.clone(), e.age.saturating_add(1))),
    );
    payload
}

/// Size of the JSON array of `descriptors`, each written by `write`,
/// counted as `mode` says.
fn message_size<T>(
    descriptors: impl IntoIterator<Item = T>,
    mode: SizeMode,
    write: impl Fn(&mut Vec<u8>, T),
) -> u64 {
    let mut raw = vec![b'['];
    for (i, descriptor) in descriptors.into_iter().enumerate() {
        if i > 0 {
            raw.push(b',');
        }
        write(&mut raw, descriptor);
    }
    raw.push(b']');
    match mode {
        SizeMode::Json => raw.len() as u64,
        SizeMode::Gzip => hyrec_wire::gzip::compress(&raw).len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_core::ItemId;

    fn clustered_network(clusters: u32, per_cluster: u32) -> GossipNetwork {
        let profiles: Vec<(UserId, Profile)> = (0..clusters * per_cluster)
            .map(|u| {
                let c = u % clusters;
                (
                    UserId(u),
                    Profile::from_liked((0..6u32).map(|i| c * 100 + i).collect::<Vec<_>>()),
                )
            })
            .collect();
        GossipNetwork::new(
            profiles,
            GossipConfig {
                k: 5,
                ..GossipConfig::default()
            },
        )
    }

    #[test]
    fn converges_to_clusters_within_twenty_cycles() {
        let mut network = clustered_network(4, 15);
        network.run(20);
        assert!(
            network.average_view_similarity() > 0.9,
            "avg view similarity {:.3}",
            network.average_view_similarity()
        );
        // Spot-check a node's KNN is in-cluster.
        let hood = network.knn_of(UserId(0)).unwrap();
        for n in hood.iter() {
            assert_eq!(n.user.0 % 4, 0, "out-of-cluster neighbour {}", n.user);
        }
    }

    #[test]
    fn bandwidth_grows_with_cycles() {
        let mut network = clustered_network(2, 10);
        network.run(5);
        let early = network.total_bytes_sent();
        network.run(5);
        let later = network.total_bytes_sent();
        assert!(later > early);
        let report = network.bandwidth_report();
        assert_eq!(report.cycles, 10);
        assert!(report.mean_bytes_per_node > 0.0);
        assert!(report.max_bytes_per_node >= report.mean_bytes_per_node as u64);
    }

    #[test]
    fn bandwidth_totals_are_pinned_in_both_size_modes() {
        // The metered descriptor bytes are part of the Section 5.6
        // comparison: a change to how they are written must count the
        // same bytes in either mode.
        for (size_mode, expected) in [(SizeMode::Json, 187_806u64), (SizeMode::Gzip, 102_599)] {
            let mut network = clustered_network(3, 12);
            network.config.size_mode = size_mode;
            network.run(6);
            assert_eq!(network.total_bytes_sent(), expected, "{size_mode:?}");
        }
    }

    #[test]
    fn offline_nodes_do_not_gossip() {
        let mut network = clustered_network(2, 10);
        for u in 0..20u32 {
            network.set_online(UserId(u), false);
        }
        network.run(5);
        assert_eq!(network.total_bytes_sent(), 0);
        assert_eq!(network.average_view_similarity(), 0.0);
    }

    #[test]
    fn churn_halves_do_not_block_convergence() {
        let mut network = clustered_network(2, 16);
        // A third of each cluster goes offline.
        for u in (0..32u32).step_by(3) {
            network.set_online(UserId(u), false);
        }
        network.run(25);
        // Online nodes still converge among themselves.
        let hood = network.knn_of(UserId(1)).unwrap();
        assert!(!hood.is_empty());
        assert!(hood.view_similarity() > 0.5);
    }

    #[test]
    fn local_recommendation_uses_cluster_profiles() {
        // Varied (non-identical) profiles within each cluster: users like
        // overlapping 6-subsets of their cluster's 10 items, so views never
        // saturate at similarity 1.0 and keep churning realistically.
        let profiles: Vec<(UserId, Profile)> = (0..20u32)
            .map(|u| {
                let c = u % 2;
                let liked: Vec<u32> = (0..6u32).map(|o| c * 100 + (u / 2 + o) % 10).collect();
                (UserId(u), Profile::from_liked(liked))
            })
            .collect();
        let mut network = GossipNetwork::new(
            profiles,
            GossipConfig {
                k: 5,
                ..GossipConfig::default()
            },
        );
        network.run(15);
        // Give one cluster-0 peer an item nobody else has.
        network.record(UserId(2), ItemId(999), Vote::Like);
        // Profiles propagate via gossip snapshots, so freshness lags by a
        // few cycles (the paper's P2P staleness): give it time to spread.
        network.run(12);
        // The fresh snapshot reaches *some* same-cluster node's view, whose
        // local Algorithm 2 then surfaces the novel item.
        let reached = (0..20u32).filter(|&u| u != 2).any(|u| {
            network
                .recommend(UserId(u), 10)
                .iter()
                .any(|r| r.item == ItemId(999))
        });
        assert!(reached, "novel item failed to propagate to any node");
    }

    #[test]
    fn record_rescores_cluster_view() {
        let mut network = clustered_network(2, 10);
        network.run(10);
        let before = network.knn_of(UserId(0)).unwrap().view_similarity();
        // Wipe u0's taste: similarity to its old cluster collapses.
        for i in 0..6u32 {
            network.record(UserId(0), ItemId(i * 100), Vote::Dislike);
        }
        for i in 0..6u32 {
            network.record(UserId(0), ItemId(5000 + i), Vote::Like);
        }
        let after = network.knn_of(UserId(0)).unwrap().view_similarity();
        assert!(after < before);
    }

    #[test]
    fn tiny_networks_are_safe() {
        let mut network = GossipNetwork::new(Vec::new(), GossipConfig::default());
        network.run(3);
        assert!(network.is_empty());
        let mut network =
            GossipNetwork::new(vec![(UserId(1), Profile::new())], GossipConfig::default());
        network.run(3);
        assert_eq!(network.len(), 1);
        assert_eq!(network.total_bytes_sent(), 0);
    }
}
