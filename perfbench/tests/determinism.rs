//! Same seed, same work: fingerprints of the single-connection workloads
//! repeat exactly, and the traced router serves the program's bytes.

use hyrec_perfbench::plan::{self, Config, Workload};
use hyrec_perfbench::run;

fn fingerprint(workload: Workload, seed: u64) -> String {
    let outcome = run::untraced(&Config::small(workload, seed)).unwrap();
    assert!(
        outcome.correct,
        "{workload:?} seed {seed}: {:?}",
        outcome.notes
    );
    assert_eq!(outcome.failed, 0);
    outcome.fingerprint
}

#[test]
fn same_seed_runs_give_identical_fingerprints() {
    for workload in [Workload::RateMix, Workload::BrowserLoop] {
        let first = fingerprint(workload, 11);
        assert_eq!(first, fingerprint(workload, 11), "{workload:?}");
        assert_ne!(first, fingerprint(workload, 12), "{workload:?}");
    }
}

#[test]
fn plans_repeat_and_keep_uids_distinct_within_a_burst() {
    for workload in Workload::ALL {
        let config = Config::small(workload, 3);
        let bursts = plan::plan(&config);
        assert_eq!(
            bursts.iter().map(|b| b.uids.len()).sum::<usize>(),
            config.ops
        );
        for burst in &bursts {
            let mut uids = burst.uids.clone();
            uids.sort_unstable();
            uids.dedup();
            assert_eq!(
                uids.len(),
                burst.uids.len(),
                "{workload:?} burst {}",
                burst.id
            );
        }
        let again = plan::plan(&config);
        assert!(bursts.iter().zip(&again).all(|(a, b)| a.bytes == b.bytes));
    }
}

#[test]
fn traced_router_serves_the_programs_bytes() {
    for workload in Workload::ALL {
        let compared = run::identity_check(&Config::small(workload, 5)).unwrap();
        assert!(compared > 0, "{workload:?}");
    }
}
