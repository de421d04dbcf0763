//! Network configuration: message delay models and per-link overrides.

use crate::process::ProcessId;
use crate::rng::SimRng;
use std::collections::HashMap;

/// Distribution from which per-message delivery delays are sampled (in ticks).
///
/// The paper assumes arbitrary finite delays for the asynchronous model and a
/// bound Δ for the latency analysis (Section V-C); both are expressible here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this many ticks.
    Constant(u64),
    /// Uniformly distributed in `[min, max]` (inclusive).
    Uniform {
        /// Minimum delay in ticks.
        min: u64,
        /// Maximum delay in ticks.
        max: u64,
    },
}

impl DelayModel {
    /// Samples a delay in ticks. Always returns at least 1 so that causality
    /// (send strictly-before delivery) is preserved.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> u64 {
        let raw = match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => {
                let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
                rng.gen_range(lo..=hi)
            }
        };
        raw.max(1)
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Uniform { min: 1, max: 10 }
    }
}

/// Configuration of the simulated network.
#[derive(Clone, Debug, Default)]
pub struct NetworkConfig {
    /// Default delay model for every channel.
    pub default_delay: DelayModel,
    /// Per-directed-link overrides of the delay model (e.g. to make one
    /// server arbitrarily slow, producing adversarial schedules).
    pub link_overrides: HashMap<(ProcessId, ProcessId), DelayModel>,
}

impl NetworkConfig {
    /// Configuration in which every message takes exactly `delta` ticks.
    pub fn constant(delta: u64) -> Self {
        NetworkConfig {
            default_delay: DelayModel::Constant(delta),
            link_overrides: HashMap::new(),
        }
    }

    /// Configuration with uniformly random delays in `[1, delta]`, i.e. the
    /// bounded-delay network of the latency analysis with bound Δ = `delta`.
    pub fn uniform(delta: u64) -> Self {
        NetworkConfig {
            default_delay: DelayModel::Uniform { min: 1, max: delta },
            link_overrides: HashMap::new(),
        }
    }

    /// Adds a per-link delay override and returns `self` (builder style).
    pub fn with_link(mut self, from: ProcessId, to: ProcessId, model: DelayModel) -> Self {
        self.link_overrides.insert((from, to), model);
        self
    }

    /// The delay model applying to a particular directed link.
    pub fn delay_for(&self, from: ProcessId, to: ProcessId) -> DelayModel {
        // Fast path: without overrides (the common case) skip the hash-map
        // probe — it would hash the pair on every single message.
        if self.link_overrides.is_empty() {
            return self.default_delay;
        }
        self.link_overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_delay_is_constant_and_at_least_one() {
        let mut rng = SimRng::network(0);
        let m = DelayModel::Constant(5);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 5);
        }
        assert_eq!(DelayModel::Constant(0).sample(&mut rng), 1);
    }

    #[test]
    fn uniform_delay_stays_in_range() {
        let mut rng = SimRng::network(1);
        let m = DelayModel::Uniform { min: 2, max: 9 };
        for _ in 0..200 {
            let d = m.sample(&mut rng);
            assert!((2..=9).contains(&d));
        }
        // Swapped bounds are tolerated.
        let swapped = DelayModel::Uniform { min: 9, max: 2 };
        for _ in 0..50 {
            assert!((2..=9).contains(&swapped.sample(&mut rng)));
        }
    }

    #[test]
    fn link_override_changes_delay_model() {
        let cfg = NetworkConfig::constant(3).with_link(
            ProcessId(0),
            ProcessId(1),
            DelayModel::Constant(50),
        );
        assert_eq!(
            cfg.delay_for(ProcessId(0), ProcessId(1)),
            DelayModel::Constant(50)
        );
        assert_eq!(
            cfg.delay_for(ProcessId(1), ProcessId(0)),
            DelayModel::Constant(3)
        );
    }
}
