//! A sharded, multi-object atomic KV store layered over the register
//! protocols.
//!
//! The paper (and the rest of this workspace) emulates a *single* atomic
//! register per cluster. A store serving a real keyspace needs the layer this
//! crate provides — the layering CASGC's multi-object composition argument
//! (Cadambe et al.) and RADON-style deployments assume:
//!
//! * Placement — a byte-string keyspace placed onto `S` shards by
//!   consistent hashing over a ring of virtual nodes
//!   ([`ShardedStore::shard_of`]).
//! * [`StoreBuilder`] — each shard holds one
//!   [`soda_registry::ClusterBuilder`] template, and every key placed on the
//!   shard gets its own register cluster: the template with a seed derived
//!   from the store seed, the key and the shard
//!   ([`ShardedStore::cluster_builder_for`]). Only the protocol
//!   ([`soda_registry::ProtocolKind`]; mixed SODA/ABD/CAS fleets in one
//!   store are legal) and the partition windows are per shard; the network
//!   model, the network adversary, the client handles per key and the
//!   test-only quorum override apply to every shard.
//!
//!   Atomic objects compose, so per-key registers give per-key atomicity,
//!   provided the store drives each key's cluster exactly as a lone cluster
//!   built from that builder would be driven. The model test
//!   `crates/workload/tests/store_model.rs` checks this op for op under
//!   every runtime, and [`ShardedStore::check_per_key_atomicity`] checks
//!   the result after the fact.
//! * [`ShardedStore`] — the batched, async-flavored client API: [`put`],
//!   [`get`], [`multi_get`] and [`put_batch`] return [`Ticket`]s immediately;
//!   [`run_until_quiescent`] drains every shard: scoped threads claim **key
//!   clusters** one at a time from a shared cursor and run each to
//!   quiescence (one thread, the caller, under
//!   [`StoreRuntime::Simulation`]; several under
//!   [`StoreRuntime::WorkStealing`] and its alias
//!   [`StoreRuntime::Threaded`], with [`PoolMetrics`] exposing the drains'
//!   scheduling counters); [`poll`] redeems tickets. Histories are
//!   bit-identical across runtimes.
//! * [`StoreMetrics`] — per-shard and aggregate op counts, message/storage
//!   cost and latency histograms, assembled from the clusters'
//!   [`soda_simnet::Stats`] and operation records.
//! * [`ShardedStore::check_per_key_atomicity`] — projects the store-wide
//!   history per key ([`soda_consistency::KeyedHistory`]) and runs the
//!   tag-based atomicity checker over every projection.
//!
//! [`put`]: ShardedStore::put
//! [`get`]: ShardedStore::get
//! [`multi_get`]: ShardedStore::multi_get
//! [`put_batch`]: ShardedStore::put_batch
//! [`run_until_quiescent`]: ShardedStore::run_until_quiescent
//! [`poll`]: ShardedStore::poll
//!
//! # Quick start
//!
//! ```
//! use soda_registry::ProtocolKind;
//! use soda_store::{StoreBuilder, StoreRuntime};
//!
//! // 4 shards: two SODA, one ABD, one CASGC — a mixed fleet.
//! let mut store = StoreBuilder::new(4, ProtocolKind::Soda, 5, 2)
//!     .with_shard_kind(2, ProtocolKind::Abd)
//!     .with_shard_kind(3, ProtocolKind::Casgc { gc: 2 })
//!     .with_seed(42)
//!     .build()
//!     .unwrap();
//!
//! let tickets = store.put_batch(vec![
//!     (b"user:1".to_vec(), b"ada".to_vec()),
//!     (b"user:2".to_vec(), b"grace".to_vec()),
//! ]);
//! store.run_until_quiescent();
//! assert!(tickets.iter().all(|&t| store.poll(t).is_done()));
//!
//! let get = store.get(b"user:2".to_vec());
//! store.run_until_quiescent();
//! assert_eq!(store.poll(get).value(), Some(b"grace".as_slice()));
//!
//! store.check_per_key_atomicity().unwrap();
//! let metrics = store.metrics();
//! assert_eq!(metrics.aggregate.completed_ops(), 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod map;
mod metrics;
mod store;

pub use builder::{StoreBuildError, StoreBuilder, StoreRuntime};
pub use metrics::{LatencyHistogram, PoolMetrics, ShardMetrics, StoreMetrics, StoreTotals};
pub use store::{OpOutcome, ShardedStore, StoreError, StoreRunOutcome, Ticket, TicketStatus};
