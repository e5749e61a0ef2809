//! Server configuration.

use std::fmt;

/// Configuration of a [`crate::HyRecServer`].
///
/// Defaults follow the paper: `k = 10` neighbours ("k is a system parameter
/// ranging from ten to a few tens of nodes"), `r = 10` recommendations, `k`
/// random users per candidate set, pseudonymized candidate ids. Pseudonyms
/// are reshuffled only when the operator (or the simulator, once per
/// simulated epoch) calls [`crate::HyRecServer::rotate_pseudonyms`]; the
/// configuration sets no period.
#[derive(Debug, Clone, PartialEq)]
pub struct HyRecConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Recommendation list size `r`.
    pub r: usize,
    /// Number of uniformly random users added to every candidate set
    /// (the paper uses `k`; exposed separately for ablations).
    pub random_candidates: usize,
    /// Whether candidate user ids are pseudonymized (Section 3.1).
    pub anonymize_users: bool,
    /// Optional cap on profile sizes shipped in jobs (Section 6 suggests
    /// content providers may constrain profiles). `None` = unbounded.
    pub profile_cap: Option<usize>,
    /// RNG seed for the sampler (determinism for experiments).
    pub seed: u64,
}

impl Default for HyRecConfig {
    fn default() -> Self {
        Self {
            k: 10,
            r: 10,
            random_candidates: 10,
            anonymize_users: true,
            profile_cap: None,
            seed: 0xC0FFEE,
        }
    }
}

impl HyRecConfig {
    /// Starts a builder with default values.
    #[must_use]
    pub fn builder() -> HyRecConfigBuilder {
        HyRecConfigBuilder::default()
    }

    /// The paper's candidate-set size bound for this configuration:
    /// `k + k² + random_candidates` (equals `2k + k²` at defaults).
    #[must_use]
    pub fn candidate_bound(&self) -> usize {
        self.k + self.k * self.k + self.random_candidates
    }
}

impl fmt::Display for HyRecConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={} r={} rand={} anon={} cap={:?}",
            self.k, self.r, self.random_candidates, self.anonymize_users, self.profile_cap
        )
    }
}

/// Builder for [`HyRecConfig`] (Rust guideline C-BUILDER).
///
/// ```
/// use hyrec_server::HyRecConfig;
/// let config = HyRecConfig::builder().k(20).r(5).build();
/// assert_eq!(config.k, 20);
/// assert_eq!(config.candidate_bound(), 2 * 20 + 20 * 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HyRecConfigBuilder {
    config: HyRecConfig,
    random_explicit: bool,
}

impl HyRecConfigBuilder {
    /// Sets the neighbourhood size `k`. Unless overridden, the number of
    /// random candidates follows `k` as in the paper.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        if !self.random_explicit {
            self.config.random_candidates = k;
        }
        self
    }

    /// Sets the recommendation list size `r`.
    #[must_use]
    pub fn r(mut self, r: usize) -> Self {
        self.config.r = r;
        self
    }

    /// Overrides the number of random users per candidate set.
    #[must_use]
    pub fn random_candidates(mut self, n: usize) -> Self {
        self.config.random_candidates = n;
        self.random_explicit = true;
        self
    }

    /// Enables or disables user-id pseudonymization.
    #[must_use]
    pub fn anonymize_users(mut self, on: bool) -> Self {
        self.config.anonymize_users = on;
        self
    }

    /// Caps profile sizes shipped in personalization jobs.
    #[must_use]
    pub fn profile_cap(mut self, cap: usize) -> Self {
        self.config.profile_cap = Some(cap);
        self
    }

    /// Seeds the sampler RNG.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` — a recommender with no neighbours is meaningless
    /// and would make every candidate set empty.
    #[must_use]
    pub fn build(self) -> HyRecConfig {
        assert!(self.config.k > 0, "k must be positive");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HyRecConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.r, 10);
        assert_eq!(c.random_candidates, 10);
        assert!(c.anonymize_users);
        assert_eq!(c.candidate_bound(), 120); // 2k + k^2 for k = 10
    }

    #[test]
    fn builder_random_follows_k() {
        let c = HyRecConfig::builder().k(20).build();
        assert_eq!(c.random_candidates, 20);
        assert_eq!(c.candidate_bound(), 440);
    }

    #[test]
    fn builder_random_override_sticks() {
        let c = HyRecConfig::builder().random_candidates(5).k(20).build();
        assert_eq!(c.random_candidates, 5);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_is_rejected() {
        let _ = HyRecConfig::builder().k(0).build();
    }

    #[test]
    fn display_and_cap() {
        let c = HyRecConfig::builder().profile_cap(100).build();
        assert_eq!(c.profile_cap, Some(100));
        assert!(c.to_string().contains("cap=Some(100)"));
    }
}
