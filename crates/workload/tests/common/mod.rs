//! Shared by the `exploration` and `store_exploration` test binaries.

use soda_workload::engine::{campaign, Report, Target};
use std::ops::Range;

/// The nightly smokes' campaign budget: `EXPLORE_SCHEDULES`, or `default`.
pub fn schedules_from_env(default: usize) -> usize {
    std::env::var("EXPLORE_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs the campaign and fails the test with its verdict unless it is clean.
pub fn expect_clean<T: Target>(target: &T, seed_start: u64, schedules: usize) -> Report<T> {
    let report = campaign(target, seed_start, schedules);
    if let Err(verdict) = report.check() {
        panic!("{} over {schedules} schedules: {verdict}", target.name());
    }
    report
}

/// How many of the `seeds`' scenarios satisfy `wanted` — the smokes' guard
/// against a campaign that never samples what it is meant to soak.
pub fn count_scenarios<T: Target>(
    target: &T,
    seeds: Range<u64>,
    wanted: impl Fn(&T::Scenario) -> bool,
) -> usize {
    seeds.filter(|&seed| wanted(&target.generate(seed))).count()
}
