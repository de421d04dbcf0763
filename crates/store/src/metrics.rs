//! Store-level metrics: per-shard and aggregate operation counts,
//! message/storage costs, and latency histograms.

use std::fmt;

/// A power-of-two latency histogram over simulated ticks: bucket `i` counts
/// operations with latency in `[2^(i-1), 2^i)` (bucket 0 is latency 0).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 24],
    count: u64,
    total_ticks: u64,
    max_ticks: u64,
}

impl LatencyHistogram {
    /// Records one operation latency.
    pub fn record(&mut self, ticks: u64) {
        let bucket = (64 - u64::leading_zeros(ticks) as usize).min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ticks += ticks;
        self.max_ticks = self.max_ticks.max(ticks);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_ticks += other.total_ticks;
        self.max_ticks = self.max_ticks.max(other.max_ticks);
    }

    /// Number of recorded operations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in ticks (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ticks as f64 / self.count as f64
        }
    }

    /// Maximum recorded latency in ticks.
    pub fn max(&self) -> u64 {
        self.max_ticks
    }

    /// The smallest latency bound `2^i` such that at least `quantile` of the
    /// recorded operations finished within it (an upper bound on the
    /// quantile, at bucket resolution). Returns 0 when empty.
    pub fn quantile_bound(&self, quantile: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (self.count as f64 * quantile.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= threshold {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max_ticks
    }

    /// The raw buckets.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "n={} mean={:.1} p99≤{} max={}",
            self.count,
            self.mean(),
            self.quantile_bound(0.99),
            self.max_ticks
        )
    }
}

/// Metrics for one shard: which shard, which protocol, and the totals over
/// all its per-key clusters. The totals' fields read straight off the shard
/// metrics (`m.completed_puts`) through `Deref`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Name of the protocol the shard runs.
    pub protocol: &'static str,
    /// The shard's counters — the same ones the store-wide aggregate sums.
    pub totals: StoreTotals,
}

impl std::ops::Deref for ShardMetrics {
    type Target = StoreTotals;

    fn deref(&self) -> &StoreTotals {
        &self.totals
    }
}

/// Operation counts, message/storage costs and latency histograms summed
/// over a set of per-key clusters: one shard's
/// ([`ShardMetrics::totals`]) or the whole store's
/// ([`StoreMetrics::aggregate`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreTotals {
    /// Distinct keys seen so far.
    pub keys: usize,
    /// Completed put operations.
    pub completed_puts: u64,
    /// Completed get operations.
    pub completed_gets: u64,
    /// Tickets issued that have not completed.
    pub pending_tickets: u64,
    /// Messages sent by the clusters.
    pub messages_sent: u64,
    /// Messages the network adversary dropped.
    pub messages_lost: u64,
    /// Messages cut by scheduled partition windows (deterministic outages,
    /// counted separately from the probabilistic `messages_lost`).
    pub messages_partitioned: u64,
    /// Object-value data bytes sent (the paper's communication cost,
    /// un-normalized).
    pub data_bytes_sent: u64,
    /// Object-value bytes currently stored across the servers.
    pub stored_bytes: u64,
    /// Put latency histogram (simulated ticks).
    pub put_latency: LatencyHistogram,
    /// Get latency histogram (simulated ticks).
    pub get_latency: LatencyHistogram,
    /// Server repairs completed (replacement servers whose state
    /// re-acquisition from survivors finished).
    pub repairs_completed: u64,
    /// Repair bandwidth: bytes of value / coded-element data received by
    /// replacement servers while repairing. For SODA this is bounded by
    /// `(k + 2e) · ⌈size/k⌉` per repaired server per cluster — the
    /// erasure-coding advantage over full-replica transfer.
    pub repair_traffic_bytes: u64,
    /// Repair latency histogram (simulated ticks from repair start to
    /// completion).
    pub repair_latency: LatencyHistogram,
    /// Repairs that gave up with a typed error (survivors unreachable for
    /// the whole retry budget — e.g. behind a partition window). Failed
    /// repairs are retryable; this counts the give-ups, not the ranks.
    pub repairs_failed: u64,
    /// Always 0. The erasure decoder caches no decode matrix, so there is
    /// no hit to count. The field stays because the benchmark reports it.
    pub decode_cache_hits: u64,
    /// Always 0, like `decode_cache_hits`. The field stays because the
    /// benchmark reports it.
    pub decode_cache_misses: u64,
    /// Always 0: decode-matrix inversions are not counted. The field stays
    /// because the benchmark reports it.
    pub decode_inversions: u64,
}

impl StoreTotals {
    /// Folds `other` into `self` — the one place the field list is summed,
    /// for shards into the store-wide aggregate.
    pub(crate) fn add(&mut self, other: &StoreTotals) {
        self.keys += other.keys;
        self.completed_puts += other.completed_puts;
        self.completed_gets += other.completed_gets;
        self.pending_tickets += other.pending_tickets;
        self.messages_sent += other.messages_sent;
        self.messages_lost += other.messages_lost;
        self.messages_partitioned += other.messages_partitioned;
        self.data_bytes_sent += other.data_bytes_sent;
        self.stored_bytes += other.stored_bytes;
        self.put_latency.merge(&other.put_latency);
        self.get_latency.merge(&other.get_latency);
        self.repairs_completed += other.repairs_completed;
        self.repair_traffic_bytes += other.repair_traffic_bytes;
        self.repair_latency.merge(&other.repair_latency);
        self.repairs_failed += other.repairs_failed;
    }

    /// Completed operations of both kinds.
    pub fn completed_ops(&self) -> u64 {
        self.completed_puts + self.completed_gets
    }
}

/// Per-shard metrics plus the aggregate, as returned by
/// [`crate::ShardedStore::metrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreMetrics {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardMetrics>,
    /// Totals across all shards.
    pub aggregate: StoreTotals,
}

/// Lifetime counters of the parallel drains behind
/// [`StoreRuntime::WorkStealing`](crate::StoreRuntime::WorkStealing) and
/// its alias [`StoreRuntime::Threaded`](crate::StoreRuntime::Threaded), as
/// returned by [`crate::ShardedStore::pool_metrics`].
///
/// These are **scheduling** counters: unlike everything in [`StoreMetrics`],
/// which is derived from deterministic simulations and is bit-identical
/// across runtimes, `busy_nanos` is wall-clock time and varies run to run.
/// `tasks_executed` is deterministic for a fixed operation sequence (one per
/// key cluster per drain).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Threads per drain, the calling thread included.
    pub workers: usize,
    /// Key clusters run, summed over drains.
    pub tasks_executed: u64,
    /// Always 0. Every thread claims clusters from one shared cursor, so
    /// there is no per-thread queue to steal from. The field stays because
    /// the benchmark reports it.
    pub steals: u64,
    /// Wall-clock nanoseconds the draining threads spent claiming and
    /// running clusters, summed over threads (so up to `workers ×` the
    /// drains' wall-clock time).
    pub busy_nanos: u64,
}

impl PoolMetrics {
    /// Wall-clock time the draining threads spent claiming and running
    /// clusters, summed over threads.
    pub fn busy(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.busy_nanos)
    }
}

impl fmt::Display for PoolMetrics {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "workers={} tasks={} steals={} busy={:.1?}",
            self.workers,
            self.tasks_executed,
            self.steals,
            self.busy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_merges() {
        let mut a = LatencyHistogram::default();
        a.record(0);
        a.record(3);
        a.record(100);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 100);
        assert!((a.mean() - 103.0 / 3.0).abs() < 1e-9);

        let mut b = LatencyHistogram::default();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 1000);
        // All four ops finished within 2^10 = 1024 ticks.
        assert!(a.quantile_bound(1.0) <= 1024);
        // Buckets: 0 → bucket 0; 3 → bucket 2; 100 → bucket 7; 1000 → 10.
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[2], 1);
        assert_eq!(a.buckets()[7], 1);
        assert_eq!(a.buckets()[10], 1);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = LatencyHistogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_bound(0.5), 0);
        assert!(h.to_string().contains("n=0"));
    }

    #[test]
    fn totals_add_field_by_field() {
        let shard = |puts: u64| StoreTotals {
            keys: 2,
            completed_puts: puts,
            completed_gets: 1,
            messages_sent: 10,
            messages_lost: 1,
            messages_partitioned: 2,
            data_bytes_sent: 100,
            stored_bytes: 50,
            repairs_completed: 1,
            repair_traffic_bytes: 30,
            repairs_failed: 1,
            ..StoreTotals::default()
        };
        let mut totals = StoreTotals::default();
        totals.add(&shard(3));
        totals.add(&shard(4));
        assert_eq!(totals.keys, 4);
        assert_eq!(totals.completed_puts, 7);
        assert_eq!(totals.completed_ops(), 9);
        assert_eq!(totals.messages_sent, 20);
        assert_eq!(totals.messages_partitioned, 4);
        assert_eq!(totals.stored_bytes, 100);
        assert_eq!(totals.repairs_completed, 2);
        assert_eq!(totals.repair_traffic_bytes, 60);
        assert_eq!(totals.repairs_failed, 2);
    }

    #[test]
    fn shard_metrics_read_their_totals_directly() {
        let m = ShardMetrics {
            shard: 3,
            protocol: "ABD",
            totals: StoreTotals {
                completed_gets: 5,
                ..StoreTotals::default()
            },
        };
        assert_eq!(m.completed_gets, 5);
        assert_eq!(m.completed_ops(), 5);
    }
}
