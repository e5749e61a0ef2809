//! Server configuration.

use std::fmt;
use std::marker::PhantomData;

/// Configuration of a [`crate::HyRecServer`].
///
/// Defaults follow the paper: `k = 10` neighbours ("k is a system parameter
/// ranging from ten to a few tens of nodes"), `r = 10` recommendations,
/// pseudonymized candidate ids. The sampler's random leg is `k` users, as
/// in the paper; a custom [`crate::Sampler`] (such as
/// [`crate::NoRandomSampler`]) changes how candidates are drawn.
/// Pseudonyms are reshuffled only when the operator calls
/// [`crate::HyRecServer::rotate_pseudonyms`] (no simulator or figure does;
/// only tests call it); the configuration sets no period. Jobs ship whole
/// profiles, as in the paper (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct HyRecConfig {
    /// Neighbourhood size `k`.
    pub k: usize,
    /// Recommendation list size `r`.
    pub r: usize,
    /// Whether candidate user ids are pseudonymized (Section 3.1).
    pub anonymize_users: bool,
    /// RNG seed for the sampler (determinism for experiments).
    pub seed: u64,
}

impl Default for HyRecConfig {
    fn default() -> Self {
        Self {
            k: 10,
            r: 10,
            anonymize_users: true,
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
    /// [`hyrec_core::candidate_set_bound`] of `k`, i.e. `2k + k²`.
    #[must_use]
    pub fn candidate_bound(&self) -> usize {
        hyrec_core::candidate_set_bound(self.k)
    }
}

impl fmt::Display for HyRecConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k={} r={} anon={}", self.k, self.r, self.anonymize_users)
    }
}

/// Builder for [`HyRecConfig`] (Rust guideline C-BUILDER), finishing in
/// `T`: the config itself, or a server built from it
/// ([`crate::HyRecServer::builder`]).
///
/// ```
/// use hyrec_server::HyRecConfig;
/// let config = HyRecConfig::builder().k(20).r(5).build();
/// assert_eq!(config.k, 20);
/// assert_eq!(config.candidate_bound(), 2 * 20 + 20 * 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HyRecConfigBuilder<T = HyRecConfig> {
    config: HyRecConfig,
    output: PhantomData<fn() -> T>,
}

impl<T: From<HyRecConfig>> HyRecConfigBuilder<T> {
    /// Sets the neighbourhood size `k`.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets the recommendation list size `r`.
    #[must_use]
    pub fn r(mut self, r: usize) -> Self {
        self.config.r = r;
        self
    }

    /// Enables or disables user-id pseudonymization.
    #[must_use]
    pub fn anonymize_users(mut self, on: bool) -> Self {
        self.config.anonymize_users = on;
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
    pub fn build(self) -> T {
        assert!(self.config.k > 0, "k must be positive");
        T::from(self.config)
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
        assert!(c.anonymize_users);
        assert_eq!(c.candidate_bound(), 120); // 2k + k^2 for k = 10
    }

    #[test]
    fn builder_random_follows_k() {
        let c = HyRecConfig::builder().k(20).build();
        assert_eq!(c.candidate_bound(), 440);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_is_rejected() {
        let _ = HyRecConfig::builder().k(0).build();
    }

    #[test]
    fn display_and_cap() {
        // The only cap left is the candidate-set bound.
        let c = HyRecConfig::builder().k(4).r(6).build();
        assert_eq!(c.to_string(), "k=4 r=6 anon=true");
        assert_eq!(c.candidate_bound(), 24);
    }
}
