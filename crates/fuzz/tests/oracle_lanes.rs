//! Lane-schedule invariance: `run_case` fans a case's oracle lanes out when
//! it runs on an ordinary thread and runs them inline inside a `par_map`
//! worker (a campaign shard). Either way the folded summary must be the
//! same — fingerprint, counters, signature histogram and the session's
//! cache and service counters — with and without a seeded fault schedule.

use lilac_fuzz::{run_fuzz, FuzzConfig, FuzzSummary};
use lilac_util::par::{par_map, worker_count};

fn observed(s: &FuzzSummary) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        format!("{:016x}", s.fingerprint),
        (s.cases, s.checked_ok, s.rejected, s.gen_cases, s.sub_cases),
        (s.obligations, s.queries, s.cycles),
        &s.signatures,
        (s.shared_cache_entries, s.faults_injected, s.degraded_units, s.failed_units),
        s.cache_quarantines,
    )
}

#[test]
fn lanes_fold_identically_fanned_out_and_inline() {
    for faults in [None, Some(1)] {
        let config = FuzzConfig { cases: 100, seed: 0, faults, ..FuzzConfig::default() };
        // On the test thread every case fans its three lanes out.
        let fanned_out = run_fuzz(&config);
        assert!(fanned_out.failures.is_empty(), "100 seed-0 cases must stay oracle-clean");
        // Two whole runs as the items of one fan-out: each runs on a worker
        // (on a multi-core host), where every lane runs inline.
        let inline = par_map(&[config.clone(), config.clone()], |config| {
            assert_eq!(worker_count(3), 1, "a fan-out inside a worker runs inline");
            run_fuzz(config)
        });
        for summary in &inline {
            assert_eq!(
                observed(summary),
                observed(&fanned_out),
                "inline lanes diverged from fanned-out lanes (faults {faults:?})"
            );
        }
    }
}
