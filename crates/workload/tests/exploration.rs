//! Schedule-exploration integration tests: every protocol kind must stay
//! atomic across seeded adversarial schedules (message drop / delay /
//! reorder / duplication, server and client crashes, and in-budget element
//! corruption for SODAerr), and the harness itself must catch a deliberately
//! broken protocol and minimize the counterexample.
//!
//! The tier-1 pass keeps the schedule counts small so `cargo test -q` stays
//! fast; the `fuzz_smoke` test at the bottom is `#[ignore]`d and run by the
//! nightly CI job (or manually) with a larger budget:
//!
//! ```text
//! EXPLORE_SCHEDULES=200 cargo test --release -p soda-workload \
//!     --test exploration -- --ignored --nocapture
//! ```
//!
//! To replay a reported counterexample, re-run `generate_scenario` +
//! `run_scenario` with the printed seed (see `explore::Counterexample`).
//!
//! The shrinker's local-minimality property is checked here against a
//! weakened-ABD cluster. The store is not explored: `store_model.rs` checks
//! that every key runs as its lone cluster would, so a store schedule that
//! breaks a key is a cluster schedule this shrinker can minimize.

mod common;

use common::schedules_from_env;
use soda_consistency::Violation;
use soda_registry::{PartitionWindow, ProtocolKind};
use soda_workload::explore::{
    explore, generate_scenario, run_scenario, shrink, AdversaryKnobs, ExploreConfig, NetIntensity,
    Report, Scenario,
};
use std::ops::Range;

/// The campaign's protocol and size, which tell apart the two SODAerr
/// campaigns of [`campaigns`].
fn label(cfg: &ExploreConfig) -> String {
    format!("{} n={}", cfg.kind.name(), cfg.n)
}

/// Runs the campaign and fails the test with its verdict unless it is clean.
fn expect_clean(cfg: &ExploreConfig, seed_start: u64, schedules: usize) -> Report {
    let report = explore(cfg, seed_start, schedules);
    if let Err(verdict) = report.check() {
        panic!("{} over {schedules} schedules: {verdict}", label(cfg));
    }
    report
}

/// How many of the `seeds`' scenarios satisfy `wanted` — the smokes' guard
/// against a campaign that never samples what it is meant to soak.
fn count_scenarios(
    cfg: &ExploreConfig,
    seeds: Range<u64>,
    wanted: impl Fn(&Scenario) -> bool,
) -> usize {
    seeds
        .filter(|&seed| wanted(&generate_scenario(cfg, seed)))
        .count()
}

/// The protocol configurations every exploration test sweeps, all five
/// protocols. SODAerr runs twice: at `n = 5`, where `k = n − f − 2e = 1`
/// is below a majority, so `write-put` waits for the majority; and at
/// `n = 7`, where `k = 3` is a real code. CASGC gets a generous GC depth so
/// garbage collection never blocks reads for liveness reasons (safety is
/// what exploration checks).
fn campaigns() -> Vec<ExploreConfig> {
    vec![
        ExploreConfig::new(ProtocolKind::Soda, 5, 2),
        ExploreConfig::new(ProtocolKind::SodaErr { e: 1 }, 5, 2),
        ExploreConfig::new(ProtocolKind::SodaErr { e: 1 }, 7, 2),
        ExploreConfig::new(ProtocolKind::Abd, 5, 2),
        ExploreConfig::new(ProtocolKind::Cas, 5, 2),
        ExploreConfig::new(ProtocolKind::Casgc { gc: 4 }, 5, 2),
    ]
}

#[test]
fn all_five_protocols_survive_adversarial_schedules() {
    for cfg in campaigns() {
        expect_clean(&cfg, 0, 40);
    }
}

#[test]
fn crash_only_exploration_also_passes() {
    // The crash-only adversary (the old fault model) as a sanity baseline.
    for mut cfg in campaigns() {
        cfg.knobs = AdversaryKnobs::off();
        expect_clean(&cfg, 100, 15);
    }
}

#[test]
fn weakened_abd_is_caught_and_minimized() {
    // ABD with single-server "quorums": phase-1 and phase-2 accesses no
    // longer intersect, so stale reads and duplicate tags appear quickly.
    // This validates the whole pipeline end to end: the harness must find a
    // violation, shrink it, and the minimized scenario must replay from its
    // seed.
    let cfg = ExploreConfig {
        quorum_override: Some(1),
        // Net faults off: the broken quorum alone must be caught, proving
        // detection does not depend on adversarial delivery.
        knobs: AdversaryKnobs::off(),
        max_server_crashes: 0,
        client_crash_p: 0.0,
        ..ExploreConfig::new(ProtocolKind::Abd, 5, 2)
    };
    let report = explore(&cfg, 0, 60);
    assert!(
        !report.all_atomic(),
        "sub-majority quorums must produce atomicity violations"
    );
    let cex = &report.counterexamples[0];

    // Seed-reproducibility: regenerating from the recorded seed gives the
    // recorded scenario, and re-running it still violates.
    let regenerated = generate_scenario(&cfg, cex.seed);
    assert_eq!(
        regenerated, cex.original,
        "scenario derivation must be pure"
    );
    assert!(
        run_scenario(&cfg, &cex.original).violation.is_some(),
        "original scenario must replay its violation"
    );

    // The minimized scenario still violates and is no larger than the
    // original.
    assert!(
        run_scenario(&cfg, &cex.minimized).violation.is_some(),
        "minimized scenario must still violate"
    );
    assert!(cex.minimized.ops.len() <= cex.original.ops.len());
    assert!(
        cex.minimized.ops.len() >= 2,
        "a violation needs at least two operations, got:\n{}",
        cex.minimized
    );
    // The reproduction recipe is printable and names the seed, and the
    // campaign's verdict leads with it.
    let rendered = cex.to_string();
    assert!(
        rendered.contains(&format!("seed {}", cex.seed)) && rendered.contains("minimized repro"),
        "{rendered}"
    );
    let verdict = report.check().unwrap_err();
    assert!(
        verdict.starts_with("not atomic") && verdict.contains(&rendered),
        "{verdict}"
    );
    // The campaign is deterministic, shrinker included: a second run
    // reports the same counterexamples, minimized scenarios and all.
    assert_eq!(explore(&cfg, 0, 60), report);
}

#[test]
fn weakened_abd_is_caught_under_the_full_adversary_too() {
    let cfg = ExploreConfig {
        quorum_override: Some(2),
        ..ExploreConfig::new(ProtocolKind::Abd, 5, 2)
    };
    let report = explore(&cfg, 0, 60);
    assert!(
        !report.all_atomic(),
        "quorum 2 of 5 must be caught under the adversary"
    );
}

/// The shrinker is greedy to a fixpoint, so its output is locally minimal
/// along every axis it steps: dropping any single remaining event, halving
/// any surviving fault intensity, or bisecting any surviving window loses
/// the violation — otherwise the shrinker would have taken that step itself.
/// Checked over the first `want` violating seeds that `select`s.
fn assert_shrinking_reaches_a_local_minimum(
    cfg: &ExploreConfig,
    want: usize,
    select: impl Fn(&Scenario) -> bool,
) {
    let violates = |scenario: &Scenario| run_scenario(cfg, scenario).violation.is_some();
    let mut checked = 0;
    for seed in 0..200 {
        let scenario = generate_scenario(cfg, seed);
        if checked == want || !select(&scenario) || !violates(&scenario) {
            continue;
        }
        checked += 1;
        let (minimized, _) = shrink(cfg, &scenario);
        assert!(violates(&minimized), "seed {seed}: the repro must replay");

        // Nothing grows during shrinking.
        let (before, after) = (scenario.net, minimized.net);
        assert!(after.drop_p <= before.drop_p, "seed {seed}");
        assert!(after.duplicate_p <= before.duplicate_p, "seed {seed}");
        assert!(after.reorder_p <= before.reorder_p, "seed {seed}");
        assert!(after.extra_delay <= before.extra_delay, "seed {seed}");
        assert!(after.reorder_window <= before.reorder_window, "seed {seed}");
        let lists = minimized.event_lists();
        for (list, (&now, &was)) in lists.iter().zip(&scenario.event_lists()).enumerate() {
            assert!(now <= was, "seed {seed}: event list {list} grew");
        }

        for (list, &len) in lists.iter().enumerate() {
            for index in 0..len {
                let mut smaller = minimized.clone();
                smaller.remove_event(list, index);
                assert!(
                    !violates(&smaller),
                    "seed {seed}: event {index} of list {list} is removable:\n{minimized}"
                );
            }
        }
        for knob in 0..NetIntensity::KNOBS {
            if let Some(net) = after.halved(knob) {
                let mut calmer = minimized.clone();
                calmer.net = net;
                assert!(
                    !violates(&calmer),
                    "seed {seed}: intensity {knob} not bisected to a minimum:\n{minimized}"
                );
            }
        }
        for index in 0..minimized.partitions.len() {
            for advance_start in [false, true] {
                let mut shorter = minimized.clone();
                let window = &mut shorter.partitions[index];
                if window.len() <= 1 {
                    continue;
                }
                if advance_start {
                    window.start += window.len().div_ceil(2);
                } else {
                    window.end = window.start + window.len() / 2;
                }
                assert!(
                    !violates(&shorter),
                    "seed {seed}: window {index} not bisected to a minimum:\n{minimized}"
                );
            }
        }
    }
    assert_eq!(checked, want, "too few violating seeds");
}

/// Sub-majority ABD violates by itself, so every fault the adversary adds on
/// top is noise the shrinker must strip or bisect down to a local minimum.
fn weakened_cluster() -> ExploreConfig {
    ExploreConfig {
        quorum_override: Some(1),
        ..ExploreConfig::new(ProtocolKind::Abd, 5, 2)
    }
}

#[test]
fn shrinking_strips_irrelevant_faults() {
    // With the partition sampler on, so windows are among the noise.
    let cluster = weakened_cluster().with_partitions(0.5, 400);
    assert_shrinking_reaches_a_local_minimum(&cluster, 3, |_| true);
}

#[test]
fn shrinking_bisects_fault_intensities_to_a_local_minimum() {
    // On scenarios that start with network faults on: what survives is
    // bisected, and switched off wholesale only if the violation allows it.
    let noisy = |net: &NetIntensity| net.has_net_faults();
    assert_shrinking_reaches_a_local_minimum(&weakened_cluster(), 4, |s| noisy(&s.net));
}

/// ROADMAP's fix-first seeds under the standard adversary. The five SODAerr
/// seeds made two writes share a version while SODAerr's `write-put` waited
/// for `k` acks, fewer than a majority at these points; with
/// `max(k, majority)` they are clean. The ABD seed is fix-first (B): a
/// replacement that rejoins while a write its predecessor acked is in
/// flight, and it keeps reporting two writes with one version until (B)
/// lands. The completed-op counts are pinned too: a change that moves one
/// has moved an RNG draw or a message.
#[test]
fn the_fix_first_seeds_are_clean_for_sodaerr_and_still_fail_for_abd() {
    let sodaerr = |n| ExploreConfig::new(ProtocolKind::SodaErr { e: 1 }, n, 2);
    let abd = ExploreConfig::new(ProtocolKind::Abd, 5, 2);
    for (cfg, seed, versions, completed) in [
        (sodaerr(5), 2747, None, 6),
        (sodaerr(5), 4650, None, 3),
        (sodaerr(5), 5280, None, 8),
        (sodaerr(7), 116_046, None, 2),
        (sodaerr(7), 158_983, None, 8),
        (abd, 982_938_824_570, Some((3, 6)), 8),
    ] {
        let cfg = cfg.with_partitions(0.3, 400);
        let outcome = run_scenario(&cfg, &generate_scenario(&cfg, seed));
        let kind = cfg.kind.name();
        assert_eq!(outcome.completed_ops, completed, "{kind} seed {seed}");
        let duplicate = match outcome.violation {
            None => None,
            Some(Violation::DuplicateWriteVersion { first, second, .. }) => Some((first, second)),
            Some(other) => panic!("{kind} seed {seed}: {other:?}"),
        };
        assert_eq!(duplicate, versions, "{kind} seed {seed}");
    }
}

#[test]
fn all_five_protocols_survive_partitioned_schedules() {
    // Partition windows on top of the full adversary: atomicity must hold,
    // and the liveness checker must stay quiet (lossy scenarios are exempt
    // by design; clean ones must actually complete everything).
    for cfg in campaigns() {
        expect_clean(&cfg.with_partitions(0.7, 1200), 0, 15);
    }
}

#[test]
fn hand_built_windows_are_applied_the_way_the_cluster_sees_them() {
    // The cluster builder rejects a window with no ranks, with ranks the
    // cluster does not have, or that heals before it opens; the runner has
    // to skip or trim them instead, as `build_store` does, or a hand-built
    // (or shrunk) scenario panics.
    let cfg = ExploreConfig::new(ProtocolKind::Abd, 5, 2);
    let window = |ranks: &[usize], start, end| PartitionWindow {
        ranks: ranks.to_vec(),
        start,
        end,
    };
    let run_with = |partitions| {
        let scenario = Scenario {
            partitions,
            ..generate_scenario(&cfg, 3)
        };
        let outcome = run_scenario(&cfg, &scenario);
        assert!(outcome.violation.is_none() && !outcome.hit_event_cap);
        (outcome.completed_ops, outcome.pending)
    };
    let nothing_cut = run_with(vec![
        window(&[], 0, 500),
        window(&[cfg.n, cfg.n + 3], 0, 500),
        window(&[1], 300, 300),
    ]);
    assert_eq!(nothing_cut, run_with(Vec::new()));
    // A rank out of range is dropped from its window, not the window with it.
    // (Three ranks exceed f = 2, so the cut cluster visibly starves.)
    let trimmed = run_with(vec![window(&[0, 1, 2, cfg.n], 0, 100_000)]);
    assert_eq!(trimmed, run_with(vec![window(&[0, 1, 2], 0, 100_000)]));
    assert_ne!(
        trimmed, nothing_cut,
        "the surviving ranks must still be cut"
    );
}

/// The partition-focused fuzz-smoke pass CI runs nightly: every scenario
/// samples partition/heal windows (`partition_p = 1.0`) on top of the full
/// adversary, and repairs stay on, so the campaign is dense in
/// crash → partition → heal → repair chains. Asserts **zero atomicity and
/// zero liveness** violations. Ignored in tier-1; scale with
/// `EXPLORE_SCHEDULES`.
#[test]
#[ignore = "nightly fuzz-smoke budget; run with --ignored (EXPLORE_SCHEDULES to scale)"]
fn partition_fuzz_smoke() {
    let schedules = schedules_from_env(200);
    let seed_start = 9_000u64;
    for mut cfg in campaigns() {
        cfg = cfg.with_partitions(1.0, 1600);
        cfg.repair_p = 1.0;
        // Vacuity guard: the seed range must actually contain windows, and
        // scenarios combining crashes, repairs and windows (the chains).
        let seeds = seed_start..seed_start + schedules as u64;
        let windowed = count_scenarios(&cfg, seeds.clone(), |s| !s.partitions.is_empty());
        let with_chains = count_scenarios(&cfg, seeds, |s| {
            !s.partitions.is_empty() && !s.server_crashes.is_empty() && !s.server_repairs.is_empty()
        });
        assert!(
            windowed * 2 >= schedules,
            "{}: only {windowed}/{schedules} schedules contain windows",
            label(&cfg)
        );
        assert!(
            with_chains > 0,
            "{}: no crash → partition → heal → repair chain in {schedules} schedules",
            label(&cfg)
        );
        let report = expect_clean(&cfg, seed_start, schedules);
        eprintln!(
            "{:>11}: {schedules} schedules ({windowed} with windows, {with_chains} \
             crash→partition→heal→repair), {} ops, all atomic, all live",
            label(&cfg),
            report.completed_ops
        );
    }
}

/// The repair-focused fuzz-smoke pass CI runs nightly: every crash is
/// repaired (`repair_p = 1.0`), so the campaign is dense in
/// crash → repair → crash chains exercising the dynamic fault budget.
/// Ignored in tier-1; scale with `EXPLORE_SCHEDULES`.
#[test]
#[ignore = "nightly fuzz-smoke budget; run with --ignored (EXPLORE_SCHEDULES to scale)"]
fn repair_fuzz_smoke() {
    let schedules = schedules_from_env(200);
    let seed_start = 5_000u64;
    for mut cfg in campaigns() {
        cfg.repair_p = 1.0;
        // The campaign is vacuous unless repairs (and post-repair crashes)
        // actually fire: count them over the exact seed range first.
        let seeds = seed_start..seed_start + schedules as u64;
        let with_repairs = count_scenarios(&cfg, seeds.clone(), |s| !s.server_repairs.is_empty());
        let with_follow_up = count_scenarios(&cfg, seeds, |s| {
            let first_repair = s.server_repairs.iter().map(|&(_, at)| at).min();
            first_repair.is_some_and(|at| s.server_crashes.iter().any(|&(_, crash)| crash > at))
        });
        assert!(
            with_repairs * 4 >= schedules,
            "{}: only {with_repairs}/{schedules} schedules contain repairs",
            label(&cfg)
        );
        assert!(
            with_follow_up > 0,
            "{}: no crash → repair → crash chain in {schedules} schedules",
            label(&cfg)
        );
        let report = expect_clean(&cfg, seed_start, schedules);
        eprintln!(
            "{:>11}: {schedules} schedules ({with_repairs} with repairs, {with_follow_up} \
             crash→repair→crash), {} ops, all atomic, all live",
            label(&cfg),
            report.completed_ops
        );
    }
}

/// The capped fuzz-smoke pass CI runs nightly (and the acceptance run uses
/// with `EXPLORE_SCHEDULES=1000`). Ignored in tier-1 to keep `cargo test -q`
/// fast.
#[test]
#[ignore = "nightly fuzz-smoke budget; run with --ignored (EXPLORE_SCHEDULES to scale)"]
fn fuzz_smoke() {
    let schedules = schedules_from_env(200);
    for cfg in campaigns() {
        let report = expect_clean(&cfg, 1_000, schedules);
        eprintln!(
            "{:>11}: {schedules} schedules, {} ops completed, {} writes pending, all atomic, \
             all live",
            label(&cfg),
            report.completed_ops,
            report.pending
        );
    }
}
