//! Shared by the `exploration` and `store_model` test binaries.

/// The nightly smokes' campaign budget: `EXPLORE_SCHEDULES`, or `default`.
pub fn schedules_from_env(default: usize) -> usize {
    std::env::var("EXPLORE_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
