//! The CRec front-end — the centralized baseline's request path.
//!
//! In the Offline-CRec architecture (Section 5.4–5.5) a front-end server
//! answers every client request by computing item recommendations *on the
//! server* from the KNN table that a back-end refreshed offline. This is the
//! "CRec" line of Figures 8 and 9: its per-request cost grows with profile
//! size because Algorithm 2 runs server-side, whereas HyRec's server only
//! assembles and compresses a message.

use hyrec_core::{recommend, Neighborhood, Profile, Recommendation, UserId, UserTable};

/// Centralized front-end serving recommendations from precomputed KNN.
///
/// Borrows the global table; the back-end (any [`crate::OfflineBackend`])
/// refreshes its KNN rows out of band.
///
/// ```
/// use hyrec_core::{ItemId, Neighbor, Neighborhood, UserId, UserTable, Vote};
/// use hyrec_server::CRecFrontEnd;
///
/// let table = UserTable::new();
/// table.record(UserId(1), ItemId(1), Vote::Like);
/// table.record(UserId(2), ItemId(1), Vote::Like);
/// table.record(UserId(2), ItemId(2), Vote::Like);
/// table.update(UserId(1), Neighborhood::from_neighbors([
///     Neighbor { user: UserId(2), similarity: 0.7 },
/// ]));
///
/// let front = CRecFrontEnd::new(&table);
/// let recs = front.recommend(UserId(1), 5);
/// assert_eq!(recs[0].item, ItemId(2));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CRecFrontEnd<'a> {
    table: &'a UserTable,
}

impl<'a> CRecFrontEnd<'a> {
    /// Creates a front-end over the global table.
    #[must_use]
    pub fn new(table: &'a UserTable) -> Self {
        Self { table }
    }

    /// Serves one request: Algorithm 2 over the user's stored neighbours.
    ///
    /// Unknown users or users with no KNN entry get an empty list (the
    /// centralized architecture cannot recommend before the next offline
    /// KNN pass — the cold-start weakness Section 5.3 highlights).
    #[must_use]
    pub fn recommend(&self, user: UserId, r: usize) -> Vec<Recommendation> {
        let profile = self.table.profile_of(user).unwrap_or_default();
        let hood = self.table.knn_of(user).unwrap_or_default();
        self.recommend_from(&profile, &hood, r)
    }

    /// The server-side recommendation kernel, exposed for benchmarking the
    /// exact per-request work (Figure 8 measures this loop).
    #[must_use]
    pub fn recommend_from(
        &self,
        profile: &Profile,
        hood: &Neighborhood,
        r: usize,
    ) -> Vec<Recommendation> {
        // `profile_of` hands back shared handles; no profile is copied here.
        let neighbor_profiles: Vec<std::sync::Arc<Profile>> = hood
            .users()
            .filter_map(|v| self.table.profile_of(v))
            .collect();
        recommend::most_popular(profile, neighbor_profiles.iter().map(AsRef::as_ref), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrec_core::{ItemId, Neighbor, Vote};

    fn table() -> UserTable {
        let table = UserTable::new();
        // u1 likes 1; u2 and u3 like overlapping sets.
        table.record(UserId(1), ItemId(1), Vote::Like);
        for i in [1u32, 2, 3] {
            table.record(UserId(2), ItemId(i), Vote::Like);
        }
        for i in [2u32, 3, 4] {
            table.record(UserId(3), ItemId(i), Vote::Like);
        }
        table.update(
            UserId(1),
            Neighborhood::from_neighbors([
                Neighbor {
                    user: UserId(2),
                    similarity: 0.6,
                },
                Neighbor {
                    user: UserId(3),
                    similarity: 0.3,
                },
            ]),
        );
        table
    }

    #[test]
    fn recommends_neighbors_popular_unseen_items() {
        let table = table();
        let front = CRecFrontEnd::new(&table);
        let recs = front.recommend(UserId(1), 10);
        // Items 2 and 3 are liked by both neighbours; 1 is excluded (seen).
        assert_eq!(recs[0].item, ItemId(2));
        assert_eq!(recs[0].popularity, 2);
        assert!(recs.iter().all(|rec| rec.item != ItemId(1)));
    }

    #[test]
    fn user_without_knn_gets_nothing() {
        let table = table();
        let front = CRecFrontEnd::new(&table);
        assert!(front.recommend(UserId(2), 5).is_empty());
        assert!(front.recommend(UserId(999), 5).is_empty());
    }

    #[test]
    fn respects_r() {
        let table = table();
        let front = CRecFrontEnd::new(&table);
        assert_eq!(front.recommend(UserId(1), 1).len(), 1);
        assert!(front.recommend(UserId(1), 0).is_empty());
    }

    #[test]
    fn missing_neighbor_profiles_are_skipped() {
        let table = UserTable::new();
        table.record(UserId(1), ItemId(1), Vote::Like);
        table.update(
            UserId(1),
            Neighborhood::from_neighbors([Neighbor {
                user: UserId(77),
                similarity: 0.9,
            }]),
        );
        let front = CRecFrontEnd::new(&table);
        assert!(front.recommend(UserId(1), 5).is_empty());
    }
}
