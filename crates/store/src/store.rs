//! The sharded multi-object store proper.

use crate::builder::StoreRuntime;
use crate::map::{fnv1a, ShardMap};
use crate::metrics::{PoolMetrics, ShardMetrics, StoreMetrics, StoreTotals};
use soda_consistency::{KeyViolation, KeyedHistory, KeyedOp};
use soda_registry::{ClusterBuilder, ClusterDescriptor, OpKind, OpRecord, RegisterCluster, Value};
use soda_simnet::{ProcessId, SimTime};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why the store refused a runtime fault-injection request.
///
/// Unlike [`StoreBuildError`](crate::StoreBuildError) (construction-time
/// parameter validation), these arise while a built store is being driven —
/// most importantly when a crash request would push a shard past its declared
/// fault tolerance and silently wedge every operation routed to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The named shard does not exist.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// Number of shards in the store.
        shards: usize,
    },
    /// The named server rank does not exist in the shard's clusters.
    RankOutOfRange {
        /// The shard addressed.
        shard: usize,
        /// The offending rank.
        rank: usize,
        /// Servers per cluster on that shard.
        n: usize,
    },
    /// Applying the crash would leave more than `f` servers simultaneously
    /// dead or under repair, so the shard would lose its quorums and wedge
    /// with pending operations. The budget is *dynamic*: repaired servers
    /// return to it, so the bound is on currently-dead servers, not crashes
    /// in total.
    ExceedsCrashBudget {
        /// The shard addressed.
        shard: usize,
        /// Servers that would be dead or repairing after the request.
        requested: usize,
        /// The shard's crash budget: its clusters' `f`.
        tolerated: usize,
    },
    /// Repair was requested for a server that is not currently down.
    ServerNotDown {
        /// The shard addressed.
        shard: usize,
        /// The rank that is already healthy (or already repairing).
        rank: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ShardOutOfRange { shard, shards } => {
                write!(out, "shard {shard} out of range for {shards} shards")
            }
            StoreError::RankOutOfRange { shard, rank, n } => {
                write!(
                    out,
                    "shard {shard}: server rank {rank} out of range for n = {n}"
                )
            }
            StoreError::ExceedsCrashBudget {
                shard,
                requested,
                tolerated,
            } => write!(
                out,
                "shard {shard}: {requested} servers would be dead or repairing, \
                 exceeding the crash budget f = {tolerated} (the shard would wedge)"
            ),
            StoreError::ServerNotDown { shard, rank } => write!(
                out,
                "shard {shard}: server rank {rank} is not down (nothing to repair)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Hardware thread count, queried once — `available_parallelism` hits the OS
/// on every call and the answer cannot change under us.
fn hardware_parallelism() -> usize {
    use std::sync::OnceLock;
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The threads that drain the store under `runtime`, the calling thread
/// included: 1 for [`StoreRuntime::Simulation`], one per hardware thread for
/// [`StoreRuntime::Threaded`] and `WorkStealing { workers: 0 }` (so 1 on a
/// single-hardware-thread host, where threads buy no parallelism), and an
/// explicit count as given even on a single core, so tests can exercise
/// parallel drains on any host.
fn workers_for(runtime: StoreRuntime) -> usize {
    match runtime {
        StoreRuntime::Simulation => 1,
        StoreRuntime::Threaded | StoreRuntime::WorkStealing { workers: 0 } => {
            hardware_parallelism()
        }
        StoreRuntime::WorkStealing { workers } => workers,
    }
}

/// Handle for one asynchronously-invoked store operation. Obtained from
/// [`ShardedStore::put`] / [`ShardedStore::get`] (and their batched
/// variants), redeemed with [`ShardedStore::poll`] once the store has been
/// driven by [`ShardedStore::run_until_quiescent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// What happened to a ticketed operation.
#[derive(Clone, Debug)]
pub enum TicketStatus {
    /// The operation has not completed (still queued, in flight, or starved
    /// by crashes/network faults).
    Pending,
    /// The operation completed.
    Done(OpOutcome),
}

impl TicketStatus {
    /// True once the operation completed.
    pub fn is_done(&self) -> bool {
        matches!(self, TicketStatus::Done(_))
    }

    /// The returned value: `Some` for a get that found a value, `None` for a
    /// pending ticket, a put, or a get of an absent key.
    pub fn value(&self) -> Option<&[u8]> {
        match self {
            TicketStatus::Done(outcome) if outcome.kind == OpKind::Read => outcome.value.as_deref(),
            _ => None,
        }
    }
}

/// A completed store operation.
#[derive(Clone, Debug)]
pub struct OpOutcome {
    /// The key the operation addressed: the one allocation the key's cluster
    /// holds, shared by all of that key's outcomes and
    /// [`ShardedStore::keyed_history`] operations.
    pub key: Arc<[u8]>,
    /// The shard that served it.
    pub shard: usize,
    /// Put ([`OpKind::Write`]) or get ([`OpKind::Read`]).
    pub kind: OpKind,
    /// The value written, or the value a get returned (`None` when the key
    /// had never been written — the store treats the registers' empty initial
    /// value as *absent*, so empty values cannot be stored). The same
    /// allocation as the value in the client's operation record and in
    /// [`ShardedStore::keyed_history`].
    pub value: Option<Value>,
    /// Operation latency in the shard's simulated ticks.
    pub latency_ticks: u64,
}

/// Result of one [`ShardedStore::run_until_quiescent`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreRunOutcome {
    /// Tickets completed so far (store lifetime total).
    pub completed_tickets: usize,
    /// Tickets still pending after quiescence (their operations were starved
    /// by crashes or never got a client handle).
    pub pending_tickets: usize,
    /// True if any shard's simulation hit its event cap (indicates a protocol
    /// bug; never expected).
    pub hit_event_cap: bool,
}

/// One client handle of a key cluster: the simulated process behind it and
/// the store tickets routed through it.
struct Handle {
    process: ProcessId,
    /// Ticket ids in invocation order. A handle's operations complete in
    /// invocation order (clients queue), so the i-th record of the process's
    /// completed-op log settles the i-th ticket.
    tickets: Vec<u64>,
    /// How many tickets have been settled — which is also the cursor into
    /// the process's completed-op log that the next harvest resumes from.
    done: usize,
}

impl Handle {
    fn new(process: ProcessId) -> Self {
        Handle {
            process,
            tickets: Vec::new(),
            done: 0,
        }
    }
}

/// One key's register cluster within a shard, plus the ticket bookkeeping
/// that maps the cluster's per-client operation records back to store
/// tickets.
struct KeyCluster {
    key: Arc<[u8]>,
    cluster: Box<dyn RegisterCluster>,
    /// Round-robin cursors over the writer/reader handles.
    next_writer: usize,
    next_reader: usize,
    writers: Vec<Handle>,
    readers: Vec<Handle>,
}

impl KeyCluster {
    /// Settles newly completed operations into `outcomes` and `settled`.
    ///
    /// Each handle with tickets outstanding asks the cluster only for the
    /// records its process completed beyond the ones already settled, so a
    /// harvest costs time in the operations that finished since the last one,
    /// not in the cluster's history. `scratch` is an empty buffer reused
    /// across every handle of every cluster of every drain.
    fn harvest(
        &mut self,
        shard: usize,
        settled: &mut StoreTotals,
        outcomes: &mut [Option<OpOutcome>],
        scratch: &mut Vec<OpRecord>,
    ) {
        for handle in self.writers.iter_mut().chain(&mut self.readers) {
            if handle.done == handle.tickets.len() {
                continue;
            }
            self.cluster
                .completed_since(handle.process, handle.done, scratch);
            for (record, &ticket) in scratch.drain(..).zip(&handle.tickets[handle.done..]) {
                handle.done += 1;
                let latency_ticks = record.latency();
                let value = match record.kind {
                    OpKind::Write => {
                        settled.completed_puts += 1;
                        settled.put_latency.record(latency_ticks);
                        record.value
                    }
                    OpKind::Read => {
                        settled.completed_gets += 1;
                        settled.get_latency.record(latency_ticks);
                        record.value.filter(|v| !v.is_empty())
                    }
                };
                outcomes[ticket as usize - 1] = Some(OpOutcome {
                    key: self.key.clone(),
                    shard,
                    kind: record.kind,
                    value,
                    latency_ticks,
                });
            }
        }
    }

    /// Tickets issued on this cluster that have not settled.
    fn pending(&self) -> usize {
        self.writers
            .iter()
            .chain(&self.readers)
            .map(|handle| handle.tickets.len() - handle.done)
            .sum()
    }
}

/// One shard: a fleet of per-key register clusters, each built from the
/// shard's template with a seed derived from its key.
struct Shard {
    index: usize,
    template: ClusterBuilder,
    clusters: Vec<KeyCluster>,
    /// Each key's index in `clusters`; shares the cluster's key allocation.
    key_index: HashMap<Arc<[u8]>, usize>,
    /// Ranks currently crashed in every cluster of the shard, existing and
    /// future.
    downed: BTreeSet<usize>,
    /// Ranks whose repair has been scheduled but not yet observed complete in
    /// every existing cluster. They still count against the crash budget.
    repairing: BTreeSet<usize>,
    /// The counters bumped as tickets settle, so that
    /// [`ShardedStore::metrics`] never walks an operation log: completed
    /// puts and gets and their latency histograms. Every other field stays
    /// zero here and is read off the clusters when metrics are asked for.
    settled: StoreTotals,
}

impl Shard {
    /// The builder of `key`'s cluster: the shard's template with a seed
    /// derived from the store seed, the key and the shard.
    fn cluster_builder(&self, key: &[u8], store_seed: u64) -> ClusterBuilder {
        let seed = store_seed
            ^ fnv1a(key).rotate_left(17)
            ^ (self.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.template.clone().with_seed(seed)
    }

    /// The cluster for `key`, created lazily from the shard's template.
    fn cluster_for(&mut self, key: &[u8], store_seed: u64) -> &mut KeyCluster {
        if let Some(&idx) = self.key_index.get(key) {
            return &mut self.clusters[idx];
        }
        let mut cluster = self
            .cluster_builder(key, store_seed)
            .build()
            .expect("the template was validated at store build time");
        // A fresh cluster starts with all servers alive; only the ranks that
        // are *currently* down get crashed. Ranks mid-repair elsewhere were
        // never crashed here, so they simply stay healthy.
        for &rank in &self.downed {
            cluster.crash_server_at(cluster.now(), rank);
        }
        let descriptor = *cluster.descriptor();
        let writers = (0..descriptor.num_writers)
            .map(|w| Handle::new(cluster.writer_process(w)))
            .collect();
        let readers = (0..descriptor.num_readers)
            .map(|r| Handle::new(cluster.reader_process(r)))
            .collect();
        let idx = self.clusters.len();
        let key: Arc<[u8]> = key.into();
        self.key_index.insert(key.clone(), idx);
        self.clusters.push(KeyCluster {
            key,
            cluster,
            next_writer: 0,
            next_reader: 0,
            writers,
            readers,
        });
        &mut self.clusters[idx]
    }

    /// Marks `rank` downed and crashes it in every cluster of the shard.
    /// Crashing a rank that was mid-repair kills its replacement; either way
    /// the rank is now plain dead. Returns false, changing nothing, if the
    /// rank was already down.
    fn crash(&mut self, rank: usize) -> bool {
        if !self.downed.insert(rank) {
            return false;
        }
        self.repairing.remove(&rank);
        for kc in &mut self.clusters {
            kc.cluster.crash_server_at(kc.cluster.now(), rank);
        }
        true
    }
}

/// A sharded, multi-object atomic KV store: a byte-string keyspace placed
/// onto `S` shards by consistent hashing, each shard a register-cluster fleet
/// with its own protocol choice (mixed fleets allowed) and partition windows.
/// See the crate docs for the composition argument and
/// [`StoreBuilder`](crate::StoreBuilder) for construction.
pub struct ShardedStore {
    map: ShardMap,
    shards: Vec<Shard>,
    seed: u64,
    runtime: StoreRuntime,
    /// Threads per drain, the calling thread included; see [`workers_for`].
    workers: usize,
    /// Clusters run, summed over drains.
    clusters_run: u64,
    /// Time the draining threads spent in their claim loops, summed.
    busy: Duration,
    /// One slot per ticket issued, filled when the ticket settles. Ticket
    /// ids are dense (1, 2, 3, …), so ticket `id` lives at index `id - 1`.
    outcomes: Vec<Option<OpOutcome>>,
    /// Empty between harvests; see [`KeyCluster::harvest`].
    scratch: Vec<OpRecord>,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("keys_per_shard", &self.keys_per_shard())
            .field("runtime", &self.runtime)
            .field("tickets_issued", &self.outcomes.len())
            .field("tickets_done", &self.completed_tickets())
            .finish()
    }
}

impl ShardedStore {
    pub(crate) fn new(
        map: ShardMap,
        templates: Vec<ClusterBuilder>,
        seed: u64,
        runtime: StoreRuntime,
    ) -> Self {
        let shards = templates
            .into_iter()
            .enumerate()
            .map(|(index, template)| Shard {
                index,
                template,
                clusters: Vec::new(),
                key_index: HashMap::new(),
                downed: BTreeSet::new(),
                repairing: BTreeSet::new(),
                settled: StoreTotals::default(),
            })
            .collect();
        ShardedStore {
            map,
            shards,
            seed,
            runtime,
            workers: workers_for(runtime),
            clusters_run: 0,
            busy: Duration::ZERO,
            outcomes: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that serves `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.map.shard_of(key)
    }

    /// The builder `key`'s cluster is (or will be) built from: its shard's
    /// template with the key's derived seed. A lone cluster built from it
    /// and driven with the calls the store makes on the key has the key's
    /// history, op for op.
    pub fn cluster_builder_for(&self, key: &[u8]) -> ClusterBuilder {
        self.shards[self.shard_of(key)].cluster_builder(key, self.seed)
    }

    /// Distinct keys the store has seen, per shard.
    pub fn keys_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.clusters.len()).collect()
    }

    /// Scheduling counters of the parallel drains: clusters run and summed
    /// thread busy-time. `None` when one thread drains the store
    /// ([`StoreRuntime::Simulation`], or the automatic worker count on a
    /// single-hardware-thread host). Unlike [`Self::metrics`], busy time is
    /// a wall-clock artifact and varies run to run; histories never do.
    pub fn pool_metrics(&self) -> Option<PoolMetrics> {
        (self.workers > 1).then_some(PoolMetrics {
            workers: self.workers,
            tasks_executed: self.clusters_run,
            steals: 0,
            busy_nanos: self.busy.as_nanos() as u64,
        })
    }

    /// Threads draining the store, the calling thread included: 1 under
    /// [`StoreRuntime::Simulation`].
    pub fn pool_workers(&self) -> usize {
        self.workers
    }

    fn issue_ticket(&mut self) -> Ticket {
        self.outcomes.push(None);
        Ticket(self.outcomes.len() as u64)
    }

    /// Tickets settled so far, store-wide.
    fn completed_tickets(&self) -> usize {
        let completed: u64 = self.shards.iter().map(|s| s.settled.completed_ops()).sum();
        completed as usize
    }

    /// Queues a put of `value` under `key`. Empty values are rejected (the
    /// registers' empty initial value encodes *absent*).
    ///
    /// # Panics
    /// Panics if `value` is empty.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Ticket {
        assert!(
            !value.is_empty(),
            "empty values are reserved for 'absent' (key {:?})",
            String::from_utf8_lossy(&key)
        );
        let ticket = self.issue_ticket();
        let shard_idx = self.map.shard_of(&key);
        let seed = self.seed;
        let shard = &mut self.shards[shard_idx];
        let kc = shard.cluster_for(&key, seed);
        let writers = kc.writers.len();
        let handle = kc.next_writer;
        kc.next_writer = (kc.next_writer + 1) % writers;
        kc.writers[handle].tickets.push(ticket.0);
        kc.cluster.invoke_write(handle, value);
        ticket
    }

    /// Queues a get of `key`.
    pub fn get(&mut self, key: Vec<u8>) -> Ticket {
        let ticket = self.issue_ticket();
        let shard_idx = self.map.shard_of(&key);
        let seed = self.seed;
        let shard = &mut self.shards[shard_idx];
        let kc = shard.cluster_for(&key, seed);
        let readers = kc.readers.len();
        let handle = kc.next_reader;
        kc.next_reader = (kc.next_reader + 1) % readers;
        kc.readers[handle].tickets.push(ticket.0);
        kc.cluster.invoke_read(handle);
        ticket
    }

    /// Queues one put per `(key, value)` pair, routing each to its shard.
    pub fn put_batch(
        &mut self,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Vec<Ticket> {
        pairs
            .into_iter()
            .map(|(key, value)| self.put(key, value))
            .collect()
    }

    /// Queues one get per key, routing each to its shard.
    pub fn multi_get(&mut self, keys: impl IntoIterator<Item = Vec<u8>>) -> Vec<Ticket> {
        keys.into_iter().map(|key| self.get(key)).collect()
    }

    /// The status of a ticket. Completions are harvested by
    /// [`Self::run_until_quiescent`], not here.
    ///
    /// This clones the outcome so `TicketStatus` can be held while the store
    /// is driven further. The clone copies no bytes: key and value are
    /// shared, so it bumps two reference counts. A hot loop that only
    /// inspects outcomes can use the borrowing [`Self::outcome`] instead.
    ///
    /// # Panics
    /// Panics on a ticket this store never issued.
    pub fn poll(&self, ticket: Ticket) -> TicketStatus {
        match self.outcome(ticket) {
            Some(outcome) => TicketStatus::Done(outcome.clone()),
            None => TicketStatus::Pending,
        }
    }

    /// Borrowed view of a completed ticket's outcome — `None` while the
    /// ticket is pending. The allocation-free twin of [`Self::poll`].
    ///
    /// # Panics
    /// Panics on a ticket this store never issued.
    pub fn outcome(&self, ticket: Ticket) -> Option<&OpOutcome> {
        (ticket.0 as usize)
            .checked_sub(1)
            .and_then(|slot| self.outcomes.get(slot))
            .unwrap_or_else(|| panic!("ticket {} was not issued by this store", ticket.0))
            .as_ref()
    }

    /// Drives every shard until no messages remain anywhere, then settles
    /// tickets. [`Self::pool_workers`] threads drain the store together, each
    /// claiming the next key cluster and running it to quiescence; under
    /// [`StoreRuntime::Simulation`] that is one thread, the caller, going
    /// through the clusters in `(shard, cluster-index)` order. Every runtime
    /// produces bit-identical histories: clusters are self-contained
    /// deterministic simulations, and tickets and repairs are settled on the
    /// calling thread in `(shard, cluster-index)` order after the drain,
    /// whatever order the threads ran the clusters in.
    ///
    /// A shard whose clusters cannot make progress (e.g. a majority of its
    /// servers crashed) still quiesces — its operations simply stay pending —
    /// so a dead shard never blocks the others.
    ///
    /// # Panics
    /// Re-raises the panic of a cluster simulation, once every thread of
    /// the drain has stopped.
    pub fn run_until_quiescent(&mut self) -> StoreRunOutcome {
        let hit_event_cap = self.drain();
        let scratch = &mut self.scratch;
        for shard in &mut self.shards {
            for kc in &mut shard.clusters {
                kc.harvest(shard.index, &mut shard.settled, &mut self.outcomes, scratch);
            }
            // Settle repairs per rank from the clusters' typed repair
            // reports. A rank leaves `repairing` once every cluster that
            // repaired it reports completion (clusters created after the
            // crash never repaired it and stay healthy there). A rank whose
            // repair *failed* anywhere (RepairError::Unreachable — the
            // replacement exhausted its retry budget, e.g. behind a partition
            // that outlived every retry) goes back to `downed`: it is crashed
            // in any cluster where it is still healthy so the whole shard
            // agrees the rank is plain dead, and a later
            // `repair_shard_server` may retry it.
            if !shard.repairing.is_empty() {
                let mut settled = Vec::new();
                let mut failed = Vec::new();
                'ranks: for &rank in &shard.repairing {
                    let mut any_failed = false;
                    for kc in &shard.clusters {
                        match kc.cluster.repair_report(rank) {
                            Some(report) if report.failed() => any_failed = true,
                            // Still pulling state somewhere (only reachable
                            // when a simulation hit its event cap) — leave
                            // the rank in `repairing` for the next run.
                            Some(report) if report.completed_at.is_none() => continue 'ranks,
                            _ => {}
                        }
                    }
                    if any_failed {
                        failed.push(rank);
                    } else {
                        settled.push(rank);
                    }
                }
                for rank in settled {
                    shard.repairing.remove(&rank);
                }
                for rank in failed {
                    shard.crash(rank);
                }
            }
        }
        let completed_tickets = self.completed_tickets();
        StoreRunOutcome {
            completed_tickets,
            pending_tickets: self.outcomes.len() - completed_tickets,
            hit_event_cap,
        }
    }

    /// Runs every key cluster to quiescence on [`Self::pool_workers`]
    /// threads: the calling thread and `workers − 1` scoped ones, each
    /// claiming the next cluster from one shared cursor until none is left.
    /// A claimed cluster belongs to its thread alone while it runs, and the
    /// cursor's lock is released before the run, so a panicking simulation
    /// never poisons it. Returns true if any simulation hit its event cap.
    fn drain(&mut self) -> bool {
        let cursor = Mutex::new(self.shards.iter_mut().flat_map(|shard| &mut shard.clusters));
        let claim_loop = || {
            let started = Instant::now();
            let (mut ran, mut hit_cap) = (0, false);
            loop {
                let claimed = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some(kc) = claimed else { break };
                hit_cap |= kc.cluster.run_to_quiescence().hit_event_cap;
                ran += 1;
            }
            (ran, hit_cap, started.elapsed())
        };
        let (ran, hit_cap, busy) = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.workers).map(|_| scope.spawn(claim_loop)).collect();
            let own = claim_loop();
            helpers
                .into_iter()
                .map(|helper| {
                    helper
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .fold(own, |(ran, hit_cap, busy), (r, h, b)| {
                    (ran + r, hit_cap | h, busy + b)
                })
        });
        self.clusters_run += ran;
        self.busy += busy;
        hit_cap
    }

    /// Crashes server ranks `0..count` in every cluster of `shard`, existing
    /// and future, after validating the shard's **dynamic** fault-tolerance
    /// invariant: at most the shard's crash budget `f` servers
    /// simultaneously dead or under repair. A request that
    /// would exceed the budget is refused with
    /// [`StoreError::ExceedsCrashBudget`] and changes nothing — previously
    /// such a request silently wedged the shard with pending operations.
    pub fn crash_shard_servers(&mut self, shard: usize, count: usize) -> Result<(), StoreError> {
        self.crash_shard_ranks(shard, 0..count)
    }

    /// Crashes one specific server rank in every cluster of `shard`, existing
    /// and future, under the same validation as
    /// [`Self::crash_shard_servers`].
    pub fn crash_shard_server(&mut self, shard: usize, rank: usize) -> Result<(), StoreError> {
        self.crash_shard_ranks(shard, std::iter::once(rank))
    }

    fn crash_shard_ranks(
        &mut self,
        shard: usize,
        ranks: impl IntoIterator<Item = usize>,
    ) -> Result<(), StoreError> {
        let s = self.shard_mut(shard)?;
        let ClusterDescriptor { n, f, .. } = s.template.descriptor();
        let ranks: BTreeSet<usize> = ranks.into_iter().collect();
        if let Some(&rank) = ranks.iter().find(|&&r| r >= n) {
            return Err(StoreError::RankOutOfRange { shard, rank, n });
        }
        let mut down_after: BTreeSet<usize> = s.downed.union(&s.repairing).copied().collect();
        down_after.extend(ranks.iter().copied());
        // The crash budget is the declared tolerance `f`, also for SODAerr:
        // its corruption budget `e` is already priced into the code
        // dimension (`k = n − f − 2e`), so reads need `k + 2e = n − f`
        // responders, and corrupting servers keep responding.
        let tolerated = f;
        if down_after.len() > tolerated {
            return Err(StoreError::ExceedsCrashBudget {
                shard,
                requested: down_after.len(),
                tolerated,
            });
        }
        for rank in ranks {
            s.crash(rank);
        }
        Ok(())
    }

    /// Crashes server ranks `0..count` in every cluster of `shard` **without**
    /// the fault-tolerance validation of [`Self::crash_shard_servers`]. With
    /// `count > f` the shard loses its quorums: its operations stop
    /// completing (they stay pending), while other shards are unaffected.
    /// This is the adversarial entry point for tests that deliberately kill a
    /// shard. The one check is [`StoreError::ShardOutOfRange`].
    pub fn crash_shard_servers_unchecked(
        &mut self,
        shard: usize,
        count: usize,
    ) -> Result<(), StoreError> {
        let s = self.shard_mut(shard)?;
        for rank in 0..count.min(s.template.descriptor().n) {
            s.crash(rank);
        }
        Ok(())
    }

    /// Schedules the **repair** of a downed server rank in every existing
    /// cluster of `shard`: a fresh replacement with empty state takes over
    /// the rank and re-acquires its state from survivors (re-encoding fetched
    /// coded elements on SODA/SODAerr shards, adopting the majority maximum
    /// on ABD shards, full-replica state transfer on CAS/CASGC shards — see
    /// [`soda_registry::RegisterCluster::repair_server_at`]).
    ///
    /// The rank keeps counting against the crash budget until the next
    /// [`Self::run_until_quiescent`] observes every cluster's repair
    /// complete; after that the budget is free again, so a *different* rank
    /// can be crashed — the dynamic invariant the static `downed_servers`
    /// watermark could not express. Clusters created for new keys after the
    /// repair start healthy at this rank.
    pub fn repair_shard_server(&mut self, shard: usize, rank: usize) -> Result<(), StoreError> {
        let s = self.shard_mut(shard)?;
        let n = s.template.descriptor().n;
        if rank >= n {
            return Err(StoreError::RankOutOfRange { shard, rank, n });
        }
        if !s.downed.remove(&rank) {
            return Err(StoreError::ServerNotDown { shard, rank });
        }
        s.repairing.insert(rank);
        for kc in &mut s.clusters {
            kc.cluster.repair_server_at(kc.cluster.now(), rank);
        }
        Ok(())
    }

    /// The ranks currently crashed on `shard` (repaired ranks have left the
    /// set).
    pub fn shard_downed_servers(&self, shard: usize) -> Result<Vec<usize>, StoreError> {
        Ok(self.shard(shard)?.downed.iter().copied().collect())
    }

    /// Servers on `shard` currently dead or still under repair — the quantity
    /// the dynamic fault-tolerance invariant bounds by the shard's crash
    /// budget.
    pub fn shard_dead_or_repairing(&self, shard: usize) -> Result<usize, StoreError> {
        let s = self.shard(shard)?;
        Ok(s.downed.len() + s.repairing.len())
    }

    /// Shard `shard`, or [`StoreError::ShardOutOfRange`].
    fn shard(&self, shard: usize) -> Result<&Shard, StoreError> {
        let shards = self.shards.len();
        self.shards
            .get(shard)
            .ok_or(StoreError::ShardOutOfRange { shard, shards })
    }

    /// Shard `shard`, mutably, or [`StoreError::ShardOutOfRange`].
    fn shard_mut(&mut self, shard: usize) -> Result<&mut Shard, StoreError> {
        let shards = self.shards.len();
        self.shards
            .get_mut(shard)
            .ok_or(StoreError::ShardOutOfRange { shard, shards })
    }

    /// The store-wide operation history, labeled by key, with every cluster's
    /// completed operations closed under its pending writes. Client ids are
    /// namespaced per cluster so the per-key projections are well-formed.
    /// Keys and values are shared with the clusters and the ticket outcomes,
    /// not copied.
    pub fn keyed_history(&self) -> KeyedHistory {
        let mut history = KeyedHistory::new(Vec::new());
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            for (key_idx, kc) in shard.clusters.iter().enumerate() {
                let namespace = ((shard_idx as u64) << 48) | (((key_idx as u64) & 0xFF_FFFF) << 24);
                for op in kc.cluster.closed_history(&[]).ops() {
                    history.push(KeyedOp {
                        key: kc.key.clone(),
                        client: namespace | (op.client & 0xFF_FFFF),
                        kind: op.kind,
                        invoked: op.invoked,
                        responded: op.responded,
                        value: op.value.clone(),
                        version: op.version,
                    });
                }
            }
        }
        history
    }

    /// Machine-checks atomicity of every key's projected history (atomic
    /// registers compose, so this is the store-level correctness condition).
    pub fn check_per_key_atomicity(&self) -> Result<(), KeyViolation> {
        self.keyed_history().check_each_key()
    }

    /// Per-shard and aggregate operation counts, message/storage costs and
    /// latency histograms. Operation counts and put/get latencies are
    /// counters bumped as tickets settle; the rest is read off each cluster's
    /// current state — so a call costs time in the number of clusters, never
    /// in the number of operations they have served.
    pub fn metrics(&self) -> StoreMetrics {
        let mut aggregate = StoreTotals::default();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let descriptor = shard.template.descriptor();
            let mut totals = StoreTotals {
                keys: shard.clusters.len(),
                ..shard.settled.clone()
            };
            for kc in &shard.clusters {
                let stats = kc.cluster.stats();
                totals.messages_sent += stats.messages_sent;
                totals.messages_lost += stats.messages_lost;
                totals.messages_partitioned += stats.messages_partitioned;
                totals.data_bytes_sent += stats.data_bytes_sent;
                totals.stored_bytes += kc.cluster.total_stored_bytes();
                totals.pending_tickets += kc.pending() as u64;
                for report in (0..descriptor.n).filter_map(|rank| kc.cluster.repair_report(rank)) {
                    totals.repair_traffic_bytes += report.traffic_bytes;
                    if let Some(latency) = report.latency() {
                        totals.repairs_completed += 1;
                        totals.repair_latency.record(latency);
                    }
                    if report.failed() {
                        totals.repairs_failed += 1;
                    }
                }
            }
            aggregate.add(&totals);
            per_shard.push(ShardMetrics {
                shard: shard.index,
                protocol: descriptor.kind.name(),
                totals,
            });
        }
        StoreMetrics {
            per_shard,
            aggregate,
        }
    }

    /// Total simulated ticks advanced across all clusters (a deterministic
    /// "work" proxy usable by either runtime).
    pub fn total_simulated_ticks(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.clusters.iter())
            .map(|kc| kc.cluster.now().since(SimTime::from_ticks(0)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreBuilder;
    use soda_registry::ProtocolKind;

    /// A key is one allocation and so is a value: the ticket outcome, the
    /// client's operation record and the keyed history hold the same
    /// buffers, for every protocol.
    #[test]
    fn outcomes_records_and_history_share_each_allocation() {
        for kind in soda_registry::ALL_KINDS {
            let mut store = StoreBuilder::new(1, kind, 7, 2)
                .with_seed(17)
                .build()
                .unwrap();
            // Sequential rounds, so tickets, records and history ops line up.
            let mut tickets = Vec::new();
            for round in 0..2u8 {
                tickets.push(store.put(b"k".to_vec(), vec![round + 1; 256]));
                store.run_until_quiescent();
                tickets.push(store.get(b"k".to_vec()));
                store.run_until_quiescent();
            }
            let outcomes: Vec<&OpOutcome> = tickets
                .iter()
                .map(|&ticket| store.outcome(ticket).expect("settled"))
                .collect();
            let records = store.shards[0].clusters[0].cluster.completed_ops();
            let history = store.keyed_history();
            assert_eq!((records.len(), history.len()), (4, 4), "{}", kind.name());

            let key = &store.shards[0].clusters[0].key;
            for ((outcome, record), op) in outcomes.iter().zip(&records).zip(history.ops()) {
                assert_eq!(outcome.kind, record.kind, "{}", kind.name());
                let value = outcome.value.as_ref().expect("every op has a value");
                let recorded = record.value.as_ref().expect("every record has a value");
                assert!(
                    Value::ptr_eq(value, recorded),
                    "{}: record copy",
                    kind.name()
                );
                assert_eq!(
                    op.value.as_ptr(),
                    value.as_ptr(),
                    "{}: history copy",
                    kind.name()
                );
                assert!(
                    Arc::ptr_eq(&outcome.key, key),
                    "{}: outcome key",
                    kind.name()
                );
                assert!(Arc::ptr_eq(&op.key, key), "{}: history key", kind.name());
            }
            assert_eq!(outcomes[3].value.as_deref(), Some(&[2u8; 256][..]));
            if kind == ProtocolKind::Abd {
                // ABD servers store and return the writer's buffer, so a read
                // returns the allocation the put made.
                let (written, read) = (&outcomes[2].value, &outcomes[3].value);
                assert!(Value::ptr_eq(
                    written.as_ref().unwrap(),
                    read.as_ref().unwrap()
                ));
            }
        }
    }
}
