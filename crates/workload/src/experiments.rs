//! The paper's claims as one checked list.
//!
//! The paper's product is a set of cost claims: Table I, Theorems 3.2, 5.3,
//! 5.4, 5.6, 5.7 and 6.3, and the two mechanisms its comparison with CASGC
//! rests on (relaying to registered readers, storage that does not depend on
//! concurrency). Each sweep below runs one of them and returns a [`Table`] of
//! [`Claim`]s: a measured quantity, its closed form, the relation between
//! them and whether it holds. Closed forms come from
//! [`soda_protocol::cost::paper`], evaluated through [`ClusterDescriptor`]'s
//! `paper_*` methods. [`reproduce`] runs all nine tables at the parameters
//! this repo reports; `soda-bench`'s `reproduce` binary prints them and exits
//! non-zero on a failed claim, and a tier-1 test asserts the same.
//!
//! Storage is claimed *equal* to its closed form, communication and latency
//! *at most* theirs, except ABD's costs, which are exact: a fault-free ABD
//! write sends `n` values and a read is charged `2n`. A coded element counts
//! as the `⌈(|v| + 1)/k⌉` bytes it occupies rather than the model's `|v|/k`
//! (every element carries its share of the one end-marker byte that closes
//! the value, rounded up: the model's `⌈|v|/k⌉` unless `k` divides `|v|`).
//!
//! Every cluster in this module is built and driven through the
//! [`soda_registry`] facade; the protocol under measurement is just a
//! [`ProtocolKind`] value. The cost sweeps run one three-phase procedure,
//! `measure`, on the [`ClusterBuilder`] each describes, so Table I's numbers
//! are directly comparable:
//!
//! 1. **setup**: one write establishes a non-initial version everywhere;
//! 2. **solo write**: writer 0's second write, with nothing else running,
//!    measures the write communication cost and latency;
//! 3. **read under concurrency**: one read is invoked together with `δw`
//!    writes, measuring the read communication cost, the read latency and
//!    the number of writes *actually* concurrent with the read; storage is
//!    measured once the system quiesces.
//!
//! One rule charges a read under every protocol: the value-data bytes into
//! plus out of its reader's process over the phase. Readers that send only
//! metadata (SODA, SODAerr, CAS, CASGC) are charged what they receive; an
//! ABD read is also charged the value it writes back. A solo write or
//! measured read that never completes costs and takes infinitely much, as a
//! repair that never completes does, so every claim on it fails.

use crate::json_row;
use soda_consistency::Kind;
use soda_protocol::cost::paper;
use soda_protocol::{Layout, OpRecord};
use soda_registry::{ClusterBuilder, ClusterDescriptor, ProtocolKind, RegisterCluster};
use soda_simnet::{NetworkConfig, ProcessId, Stats};
use std::fmt;

/// Renders rows of strings as a fixed-width text table. Widths count
/// characters, as the `{:<width$}` padding does, so `δ` and `≤` align.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (cell, width) in cells.iter().zip(widths) {
            line.push_str(&format!("{cell:<width$} | "));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One checked claim: a measured quantity beside its closed form.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The paper artifact the claim belongs to, e.g. `"Table I"`.
    pub source: &'static str,
    /// What was measured, and at which parameters.
    pub quantity: String,
    /// The measured value.
    pub measured: f64,
    /// `"="` or `"≤"`: how `measured` must relate to `closed_form`.
    pub relation: &'static str,
    /// The paper's closed form at the same parameters.
    pub closed_form: f64,
    /// What `measured` is checked against: `closed_form · (1 + padding)`,
    /// the closed form with its coded elements at the bytes they occupy.
    /// Equal to `closed_form` where nothing is coded.
    pub bound: f64,
    /// Whether the relation holds, up to the coded-element padding.
    pub holds: bool,
}

json_row!(Claim {
    source,
    quantity,
    measured,
    relation,
    closed_form,
    bound,
    holds,
});

#[derive(Clone, Copy)]
enum Relation {
    Equal,
    AtMost,
}

impl Claim {
    /// `padding` is the relative excess of the measured quantity's coded
    /// elements over the model's size for them (0 for replicated values,
    /// counts and ticks).
    fn new(
        source: &'static str,
        quantity: String,
        measured: f64,
        relation: Relation,
        closed_form: f64,
        padding: f64,
    ) -> Claim {
        const EPS: f64 = 1e-9;
        let bound = closed_form * (1.0 + padding);
        let upper = bound + EPS;
        let (relation, holds) = match relation {
            Relation::Equal => ("=", closed_form - EPS <= measured && measured <= upper),
            Relation::AtMost => ("≤", measured <= upper),
        };
        Claim {
            source,
            quantity,
            measured,
            relation,
            closed_form,
            bound,
            holds,
        }
    }
}

/// Relative excess of a `⌈(|v| + 1)/k⌉`-byte coded element over `|v|/k`;
/// 0 for replication (`k` is `None`).
fn padding(k: Option<usize>, value_size: usize) -> f64 {
    k.map_or(0.0, |k| {
        ((value_size + 1).div_ceil(k) * k) as f64 / value_size as f64 - 1.0
    })
}

/// One table of claims, as one sweep produces it.
#[derive(Clone, Debug)]
pub struct Table {
    /// What the table reproduces, and at which parameters.
    pub title: String,
    /// The claims, in sweep order.
    pub claims: Vec<Claim>,
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .claims
            .iter()
            .map(|c| {
                vec![
                    c.quantity.clone(),
                    format!("{:.3}", c.measured),
                    c.relation.to_string(),
                    format!("{:.3}", c.closed_form),
                    format!("{:.3}", c.bound),
                    if c.holds { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        let headers = ["quantity", "measured", "", "closed form", "bound", "holds"];
        write!(f, "{}\n\n{}", self.title, render_table(&headers, &rows))
    }
}

/// Collects one table's claims and counts its measured runs' atomic
/// histories, which [`Sheet::finish`] claims as one row.
struct Sheet {
    source: &'static str,
    value_size: usize,
    claims: Vec<Claim>,
    runs: usize,
    atomic: usize,
}

impl Sheet {
    fn new(source: &'static str, value_size: usize) -> Self {
        Sheet {
            source,
            value_size,
            claims: Vec::new(),
            runs: 0,
            atomic: 0,
        }
    }

    fn run(&mut self, builder: ClusterBuilder, delta_w: usize) -> Measured {
        let measured = measure(builder, delta_w, self.value_size);
        self.runs += 1;
        self.atomic += usize::from(measured.atomic);
        measured
    }

    fn claim(
        &mut self,
        quantity: String,
        measured: f64,
        relation: Relation,
        closed_form: f64,
        k: Option<usize>,
    ) {
        let padding = padding(k, self.value_size);
        let claim = Claim::new(
            self.source,
            quantity,
            measured,
            relation,
            closed_form,
            padding,
        );
        self.claims.push(claim);
    }

    fn equal(&mut self, quantity: String, measured: f64, closed_form: f64) {
        self.claim(quantity, measured, Relation::Equal, closed_form, None);
    }

    fn at_most(&mut self, quantity: String, measured: f64, closed_form: f64) {
        self.claim(quantity, measured, Relation::AtMost, closed_form, None);
    }

    /// SODA's write is also checked against the MD-VALUE fan-out, SODAerr's
    /// closed form, which is tighter than Theorem 5.4's `5f²`.
    fn write(&mut self, label: &str, o: &Measured) {
        let d = &o.descriptor;
        let write = format!("{label} write");
        self.claim(
            write,
            o.write_cost,
            cost_relation(d.kind),
            d.paper_write_cost(),
            d.k(),
        );
        if let (ProtocolKind::Soda, Some(k)) = (d.kind, d.k()) {
            let fanout = paper::md_value_fanout(d.n, d.f, k);
            let quantity = format!("{label} write (fan-out)");
            self.claim(quantity, o.write_cost, Relation::AtMost, fanout, Some(k));
        }
    }

    fn read(&mut self, label: &str, o: &Measured) {
        let d = &o.descriptor;
        let dw = o.delta_w_actual;
        let closed = d.paper_read_cost(dw);
        let quantity = format!("{label} read, δw={dw}");
        self.claim(quantity, o.read_cost, cost_relation(d.kind), closed, d.k());
    }

    fn storage(&mut self, label: &str, o: &Measured, relation: Relation) {
        let d = &o.descriptor;
        let quantity = format!("{label} storage");
        self.claim(
            quantity,
            o.storage_cost,
            relation,
            d.paper_storage_cost(),
            d.k(),
        );
    }

    fn costs(&mut self, label: &str, o: &Measured) {
        self.write(label, o);
        self.read(label, o);
        self.storage(label, o, Relation::Equal);
    }

    fn finish(mut self, title: String) -> Table {
        if self.runs > 0 {
            let (atomic, runs) = (self.atomic as f64, self.runs as f64);
            self.equal("atomic histories".into(), atomic, runs);
        }
        Table {
            title,
            claims: self.claims,
        }
    }
}

/// ABD's fault-free costs are exact (`n` values per write, `2n` per read);
/// every other protocol's cost closed form is an upper bound.
fn cost_relation(kind: ProtocolKind) -> Relation {
    match kind {
        ProtocolKind::Abd => Relation::Equal,
        _ => Relation::AtMost,
    }
}

/// What [`measure`] reads off one cluster: costs in values, latencies in
/// ticks, the writes actually concurrent with the measured read, and whether
/// the history is atomic. `descriptor`'s `paper_*` methods give the closed
/// forms.
struct Measured {
    descriptor: ClusterDescriptor,
    write_cost: f64,
    read_cost: f64,
    storage_cost: f64,
    delta_w_actual: usize,
    write_latency: f64,
    read_latency: f64,
    atomic: bool,
}

/// A `size`-byte value counting up from `fill`; the explorer writes these too.
pub(crate) fn value_of(size: usize, fill: u8) -> Vec<u8> {
    (0..size).map(|i| fill.wrapping_add(i as u8)).collect()
}

/// Runs the module doc's three phases on `builder`'s cluster, given one
/// reader and `max(δw, 1)` writers, with `delta_w` writes concurrent with
/// the measured read and every value `value_size` bytes.
///
/// # Panics
/// Panics if the builder does not build (see [`ClusterBuilder::validate`]).
fn measure(builder: ClusterBuilder, delta_w: usize, value_size: usize) -> Measured {
    let writers = delta_w.max(1);
    let mut cluster = builder
        .with_clients(writers, 1)
        .build()
        .unwrap_or_else(|e| panic!("invalid gate cluster: {e}"));

    // Phase 1: setup write.
    cluster.invoke_write(0, value_of(value_size, 1));
    cluster.run_to_quiescence();

    // Phase 2: solo write to measure write cost.
    let before_write = cluster.stats().data_bytes_sent;
    cluster.invoke_write(0, value_of(value_size, 2));
    cluster.run_to_quiescence();
    let write_bytes = cluster.stats().data_bytes_sent - before_write;

    // Phase 3: one read invoked together with delta_w concurrent writes,
    // charged the value bytes into and out of its reader.
    let reader = cluster.reader_process(0).index();
    let reader_bytes = |stats: &Stats| {
        stats
            .per_process
            .get(reader)
            .map_or(0, |p| p.data_bytes_received + p.data_bytes_sent)
    };
    let before_read = reader_bytes(cluster.stats());
    let start = cluster.now() + 10;
    cluster.invoke_read_at(start, 0);
    for i in 0..delta_w {
        cluster.invoke_write_at(start, i % writers, value_of(value_size, 3 + i as u8));
    }
    cluster.run_to_quiescence();
    let read_bytes = reader_bytes(cluster.stats()) - before_read;

    let values = |bytes: u64| bytes as f64 / value_size as f64;
    let storage_cost = values(cluster.total_stored_bytes());

    let ops = cluster.completed_ops();
    let history = cluster.history(&[]);
    // The solo write is writer 0's second operation and the measured read
    // reader 0's first. One that never completed costs and takes infinitely
    // much, so every claim on it fails.
    let priced = |client: ProcessId, seq: u64, bytes: u64| {
        ops.iter()
            .find(|o| o.client == u64::from(client.0) && o.seq == seq)
            .map_or((f64::INFINITY, f64::INFINITY), |o| {
                (values(bytes), o.latency() as f64)
            })
    };
    let (write_cost, write_latency) = priced(cluster.writer_process(0), 2, write_bytes);
    let (read_cost, read_latency) = priced(cluster.reader_process(0), 1, read_bytes);
    Measured {
        descriptor: *cluster.descriptor(),
        write_cost,
        read_cost,
        storage_cost,
        delta_w_actual: history
            .ops()
            .iter()
            .filter(|o| o.kind == Kind::Read)
            .map(|o| history.concurrent_writes(o.id))
            .max()
            .unwrap_or(0),
        write_latency,
        read_latency,
        atomic: history.check_atomicity().is_ok(),
    }
}

/// Every table at the parameters this repo reports.
pub fn reproduce() -> Vec<Table> {
    let storage_points = [
        (4, 1),
        (6, 2),
        (10, 4),
        (20, 9),
        (30, 5),
        (50, 24),
        (100, 49),
    ];
    vec![
        table1(&[10, 20, 50], 2, 8 * 1024, 42),
        storage_cost_sweep(&storage_points, 16 * 1024, 7),
        write_cost_sweep(&[1, 2, 3, 4, 6, 8, 10], 16 * 1024, 11),
        read_cost_sweep(10, 4, &[0, 1, 2, 4, 8, 12, 16], 8 * 1024, 13),
        latency_sweep(&[(5, 2), (10, 4), (20, 9), (30, 14)], 100, 4 * 1024, 17),
        sodaerr_sweep(12, 2, &[0, 1, 2, 3, 4], 8 * 1024, 19),
        md_state_experiment(&[(5, 2), (10, 4), (15, 7), (25, 12)], 8 * 1024, 23),
        relay_ablation(4 * 1024, 29),
        storage_elasticity(10, 4, &[0, 1, 2, 4, 8], 1, 8 * 1024, 31),
    ]
}

/// Table I: ABD, CASGC (provisioned for `delta_w`) and SODA at
/// `f = fmax = ⌊(n−1)/2⌋`, with `delta_w` writes concurrent with the
/// measured read.
pub fn table1(ns: &[usize], delta_w: usize, value_size: usize, seed: u64) -> Table {
    let mut sheet = Sheet::new("Table I", value_size);
    for &n in ns {
        let f = Layout::fmax(n);
        for kind in [
            ProtocolKind::Abd,
            ProtocolKind::Casgc { gc: delta_w },
            ProtocolKind::Soda,
        ] {
            let outcome = sheet.run(ClusterBuilder::new(kind, n, f).with_seed(seed), delta_w);
            sheet.costs(&format!("{} n={n} f={f}", kind.name()), &outcome);
        }
    }
    sheet.finish(format!(
        "Table I: ABD, CASGC (δ = {delta_w}) and SODA at f = fmax, {delta_w} writes \
         concurrent with the read, |v| = {value_size} B"
    ))
}

/// Theorem 5.3: SODA's total storage cost is `n/(n−f)`. The same argument
/// carried over to repair: a replacement re-encodes its element from `k`
/// survivors, so it pulls at most what the cluster stores — never the `n`
/// values of replication.
pub fn storage_cost_sweep(points: &[(usize, usize)], value_size: usize, seed: u64) -> Table {
    let mut sheet = Sheet::new("Theorem 5.3", value_size);
    for &(n, f) in points {
        let builder = ClusterBuilder::new(ProtocolKind::Soda, n, f).with_seed(seed);
        let outcome = sheet.run(builder, 0);
        let label = format!("SODA n={n} f={f}");
        sheet.storage(&label, &outcome, Relation::Equal);
        let d = &outcome.descriptor;
        let repair = repair_traffic(n, f, value_size, seed);
        let quantity = format!("{label} repair traffic");
        sheet.claim(
            quantity,
            repair,
            Relation::AtMost,
            d.paper_storage_cost(),
            d.k(),
        );
    }
    sheet.finish(format!(
        "Theorem 5.3: SODA stores n/(n−f), and a repair pulls no more, |v| = {value_size} B"
    ))
}

/// Normalized traffic of repairing rank 1 of a SODA cluster after one
/// write; infinite if the repair does not complete.
fn repair_traffic(n: usize, f: usize, value_size: usize, seed: u64) -> f64 {
    let mut cluster = ClusterBuilder::new(ProtocolKind::Soda, n, f)
        .with_seed(seed)
        .build()
        .expect("valid SODA parameters");
    cluster.invoke_write(0, vec![0xC0; value_size]);
    cluster.run_to_quiescence();
    let crash_at = cluster.now();
    cluster.crash_server_at(crash_at, 1);
    cluster.repair_server_at(crash_at + 10, 1);
    cluster.run_to_quiescence();
    cluster
        .repair_report(1)
        .filter(|report| report.completed_at.is_some())
        .map_or(f64::INFINITY, |report| {
            report.traffic_bytes as f64 / value_size as f64
        })
}

/// Theorem 5.4: SODA's write costs at most `5f²` (and at most the MD-VALUE
/// fan-out); ABD's costs `n`. Uses `n = 2f + 1`, maximum fault tolerance.
pub fn write_cost_sweep(fs: &[usize], value_size: usize, seed: u64) -> Table {
    let mut sheet = Sheet::new("Theorem 5.4", value_size);
    for &f in fs {
        let n = 2 * f + 1;
        for kind in [ProtocolKind::Soda, ProtocolKind::Abd] {
            let outcome = sheet.run(ClusterBuilder::new(kind, n, f).with_seed(seed), 0);
            sheet.write(&format!("{} n={n} f={f}", kind.name()), &outcome);
        }
    }
    sheet.finish(format!(
        "Theorem 5.4: a SODA write costs at most 5f², an ABD write n, n = 2f + 1, \
         |v| = {value_size} B"
    ))
}

/// Theorem 5.6: SODA's read costs at most `n/(n−f)·(δw + 1)`, `δw` being
/// the writes actually concurrent with it.
pub fn read_cost_sweep(
    n: usize,
    f: usize,
    delta_ws: &[usize],
    value_size: usize,
    seed: u64,
) -> Table {
    let mut sheet = Sheet::new("Theorem 5.6", value_size);
    for &delta_w in delta_ws {
        let builder = ClusterBuilder::new(ProtocolKind::Soda, n, f).with_seed(seed);
        let outcome = sheet.run(builder, delta_w);
        sheet.read(&format!("δw target={delta_w}: SODA"), &outcome);
    }
    sheet.finish(format!(
        "Theorem 5.6: a SODA read costs at most n/(n−f)·(δw + 1), n = {n}, f = {f}, \
         |v| = {value_size} B"
    ))
}

/// Theorem 5.7: with every message taking exactly Δ, a SODA write finishes
/// within 5Δ and a read within 6Δ.
pub fn latency_sweep(points: &[(usize, usize)], delta: u64, value_size: usize, seed: u64) -> Table {
    let mut sheet = Sheet::new("Theorem 5.7", value_size);
    for &(n, f) in points {
        let builder = ClusterBuilder::new(ProtocolKind::Soda, n, f)
            .with_seed(seed)
            .with_network(NetworkConfig::constant(delta));
        let outcome = sheet.run(builder, 0);
        let label = format!("SODA n={n} f={f}");
        let write = outcome.write_latency / delta as f64;
        let read = outcome.read_latency / delta as f64;
        let write_bound = paper::SODA_WRITE_LATENCY_DELTAS as f64;
        let read_bound = paper::SODA_READ_LATENCY_DELTAS as f64;
        sheet.at_most(format!("{label} write latency (Δ)"), write, write_bound);
        sheet.at_most(format!("{label} read latency (Δ)"), read, read_bound);
    }
    sheet.finish(format!(
        "Theorem 5.7: with delays of exactly Δ = {delta} ticks a SODA write takes at most \
         5Δ and a read 6Δ"
    ))
}

/// Theorem 6.3: SODAerr's costs as the error budget `e` grows, with `e`
/// byzantine servers actually serving corrupted elements (`e = 0` is plain
/// SODA).
pub fn sodaerr_sweep(n: usize, f: usize, es: &[usize], value_size: usize, seed: u64) -> Table {
    let mut sheet = Sheet::new("Theorem 6.3", value_size);
    for &e in es {
        let kind = if e == 0 {
            ProtocolKind::Soda
        } else {
            ProtocolKind::SodaErr { e }
        };
        let builder = ClusterBuilder::new(kind, n, f)
            .with_seed(seed)
            .with_byzantine_servers((0..e).collect());
        let outcome = sheet.run(builder, 0);
        sheet.costs(&format!("{} e={e}", kind.name()), &outcome);
    }
    sheet.finish(format!(
        "Theorem 6.3: SODAerr with e byzantine servers stores n/(n−f−2e), reads at most \
         n/(n−f−2e)·(δw + 1), writes at most the MD-VALUE fan-out, n = {n}, f = {f}, \
         |v| = {value_size} B"
    ))
}

/// Theorem 3.2: once a dispersal completes, every server holds exactly one
/// coded element and no buffered value, even when the writer crashes
/// mid-send. Then a burst of two writes and two reads, invoked together so
/// that each read is concurrent with both writes, runs to quiescence: every
/// reader registration and every `H` entry is gone again, including the
/// READ-DISPERSE reports that reach a server after it unregistered the read.
pub fn md_state_experiment(points: &[(usize, usize)], value_size: usize, seed: u64) -> Table {
    let mut sheet = Sheet::new("Theorem 3.2", value_size);
    for &(n, f) in points {
        for crash_writer in [false, true] {
            // Writer 0 makes the dispersal under test; writers 1 and 2 and
            // both readers make the burst.
            let mut cluster = ClusterBuilder::new(ProtocolKind::Soda, n, f)
                .with_seed(seed)
                .with_clients(3, 2)
                .build_soda()
                .expect("valid SODA parameters");
            cluster.invoke_write(0, vec![7u8; value_size]);
            if crash_writer {
                // Let the writer issue its write-get and the first couple of
                // dispersal messages, then crash it.
                let crash_at = cluster.now() + 25;
                cluster.crash_writer_at(crash_at, 0);
            }
            cluster.run_to_quiescence();
            let burst_at = cluster.now();
            for client in 0..2 {
                cluster.invoke_write(client + 1, vec![client as u8; value_size]);
                cluster.invoke_read(client);
            }
            cluster.run_to_quiescence();
            let burst: Vec<_> = cluster
                .completed_ops()
                .into_iter()
                .filter(|op| op.invoked_at >= burst_at)
                .collect();
            let overlaps_a_write = |read: &&OpRecord| {
                burst.iter().any(|write| {
                    write.kind.is_write()
                        && read.invoked_at < write.completed_at
                        && write.invoked_at < read.completed_at
                })
            };
            let concurrent_reads = burst
                .iter()
                .filter(|op| op.kind.is_read())
                .filter(overlaps_a_write)
                .count();
            let element = (value_size + 1).div_ceil(n - f) as u64;
            let residual: u64 = cluster
                .stored_bytes_per_server()
                .iter()
                .map(|&b| b.saturating_sub(element))
                .sum();
            let label = format!("n={n} f={f} writer crashed={crash_writer}");
            let registrations = cluster.total_registered_readers() as f64;
            let history = cluster.total_history_entries() as f64;
            sheet.equal(format!("{label} residual bytes"), residual as f64, 0.0);
            sheet.equal(
                format!("{label} burst ops completed"),
                burst.len() as f64,
                4.0,
            );
            sheet.equal(
                format!("{label} reads concurrent with a write"),
                concurrent_reads as f64,
                2.0,
            );
            sheet.equal(format!("{label} registrations"), registrations, 0.0);
            sheet.equal(format!("{label} history entries"), history, 0.0);
        }
    }
    sheet.finish(format!(
        "Theorem 3.2: after MD-VALUE completes a server keeps one coded element and \
         nothing else, writer crash or not, and after a burst of concurrent reads and \
         writes no registration or H entry, |v| = {value_size} B"
    ))
}

/// Why reader registration + relaying (Fig. 5, response 3) is essential for
/// liveness (Theorem 5.1): the racing read completes with it and never
/// without it; the write completes either way.
///
/// The scenario is adversarial but entirely within the asynchronous model:
/// a write's dispersal reaches the first backbone server quickly while every
/// other path of the dispersal is slow, and a read starts once that one server
/// has stored the new tag. The read's get phase therefore requests the new tag
/// `t_r`, but at registration time only one server can supply an element for
/// it. With relaying, the remaining servers forward their elements as soon as
/// the slow dispersal reaches them, and the read finishes. Without relaying
/// they stay silent forever and the read never terminates.
pub fn relay_ablation(value_size: usize, seed: u64) -> Table {
    use soda_simnet::{DelayModel, SimTime};
    let n = 5usize;
    let f = 2usize;
    let mut sheet = Sheet::new("Theorem 5.1", value_size);
    for relay_enabled in [true, false] {
        // Servers are processes 0..4, the writer is 5, the reader is 6.
        let writer_pid = ProcessId(n as u32);
        let reader_pid = ProcessId(n as u32 + 1);
        let mut network = NetworkConfig::constant(5);
        // The writer's dispersal reaches backbone server 0 quickly; the other
        // two backbone servers hear from the writer only after a long delay,
        // and server 0's own relays are slower still. The write-get phase is
        // unaffected because servers 3 and 4 answer it quickly.
        network = network
            .with_link(writer_pid, ProcessId(1), DelayModel::Constant(300))
            .with_link(writer_pid, ProcessId(2), DelayModel::Constant(300));
        for rank in 1..n {
            network = network.with_link(
                ProcessId(0),
                ProcessId(rank as u32),
                DelayModel::Constant(800),
            );
        }
        // Keep servers 3 and 4 out of the read's first majority so the get
        // phase is answered by servers 0..2 (including the one with the new tag).
        network = network
            .with_link(ProcessId(3), reader_pid, DelayModel::Constant(100))
            .with_link(ProcessId(4), reader_pid, DelayModel::Constant(100));

        let mut builder = ClusterBuilder::new(ProtocolKind::Soda, n, f)
            .with_seed(seed)
            .with_network(network);
        if !relay_enabled {
            builder = builder.with_relay_disabled();
        }
        let mut cluster = builder.build_soda().expect("valid SODA parameters");
        debug_assert_eq!(cluster.writer_process(0), writer_pid);
        debug_assert_eq!(cluster.reader_process(0), reader_pid);
        // The concurrent write starts immediately; the read starts once the
        // write's dispersal has reached (only) backbone server 0.
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, vec![0xAB; value_size]);
        cluster.invoke_read_at(SimTime::from_ticks(60), 0);
        cluster.run_to_quiescence();
        let ops = cluster.completed_ops();
        let reads = ops.iter().filter(|o| o.kind.is_read()).count() as f64;
        let writes = ops.len() as f64 - reads;
        let relay = if relay_enabled { "on" } else { "off" };
        let read_completes = if relay_enabled { 1.0 } else { 0.0 };
        sheet.equal(
            format!("relay {relay}: reads completed"),
            reads,
            read_completes,
        );
        sheet.equal(format!("relay {relay}: writes completed"), writes, 1.0);
    }
    sheet.finish(format!(
        "Theorem 5.1, ablated: a read racing a slowly dispersing write completes only \
         with relaying, n = {n}, f = {f}"
    ))
}

/// CASGC provisions storage for a worst-case concurrency `δ` and pays
/// `n/(n−2f)·(δ + 1)` however little concurrency happens; SODA always
/// stores `n/(n−f)` and pays for the concurrency a read actually meets
/// (Section I-B).
pub fn storage_elasticity(
    n: usize,
    f: usize,
    provisioned: &[usize],
    actual_delta_w: usize,
    value_size: usize,
    seed: u64,
) -> Table {
    let mut sheet = Sheet::new("Section I-B", value_size);
    let builder = |kind| ClusterBuilder::new(kind, n, f).with_seed(seed);
    for &delta in provisioned {
        let soda = sheet.run(builder(ProtocolKind::Soda), actual_delta_w);
        let casgc = sheet.run(builder(ProtocolKind::Casgc { gc: delta }), actual_delta_w);
        sheet.storage(&format!("δ={delta} SODA"), &soda, Relation::Equal);
        // CASGC's closed form is its provisioned worst case, reached only
        // once δ + 1 versions have been written.
        sheet.storage(&format!("δ={delta} CASGC"), &casgc, Relation::AtMost);
        sheet.read(&format!("δ={delta} SODA"), &soda);
        sheet.read(&format!("δ={delta} CASGC"), &casgc);
    }
    sheet.finish(format!(
        "Section I-B: CASGC stores for its provisioned δ, SODA for none, n = {n}, f = {f}, \
         {actual_delta_w} write(s) concurrent with the read, |v| = {value_size} B"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::to_json;
    use soda_registry::PartitionWindow;

    fn assert_holds(table: &Table) {
        assert!(table.claims.iter().all(|c| c.holds), "{table}");
    }

    #[test]
    fn render_table_aligns_columns() {
        let text = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(text.contains("| a   | bbbb |"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn to_json_produces_valid_output() {
        let claim = Claim::new(
            "Theorem 5.3",
            "SODA n=5 f=2 storage".into(),
            1.7,
            Relation::Equal,
            5.0 / 3.0,
            padding(Some(3), 64),
        );
        assert!(claim.holds, "{claim:?}");
        // The padded row shows the bound it is checked against, above the
        // closed form.
        let table = Table {
            title: "Theorem 5.3".into(),
            claims: vec![claim.clone()],
        };
        let rendered = table.to_string();
        let row = rendered.lines().find(|l| l.contains("storage")).unwrap();
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let (closed_form, bound): (f64, f64) =
            (cells[4].parse().unwrap(), cells[5].parse().unwrap());
        assert!(bound > closed_form, "{row}");
        assert_eq!(
            cells[4..],
            [
                format!("{:.3}", claim.closed_form),
                format!("{:.3}", claim.bound),
                "yes".into(),
                String::new()
            ],
            "{row}"
        );
        let json = to_json(&[claim]);
        assert!(json.contains("\"relation\": \"=\""), "{json}");
        assert!(json.contains("\"bound\": "), "{json}");
        assert!(json.contains("\"holds\": true"), "{json}");
    }

    #[test]
    fn storage_sweep_matches_formula() {
        assert_holds(&storage_cost_sweep(&[(5, 2), (8, 3)], 2048, 7));
    }

    #[test]
    fn write_cost_stays_under_bound_and_below_abd_for_large_f() {
        assert_holds(&write_cost_sweep(&[2, 3], 2048, 3));
    }

    #[test]
    fn read_cost_grows_with_concurrency_but_respects_bound() {
        let table = read_cost_sweep(5, 2, &[0, 2], 1024, 5);
        assert_holds(&table);
        assert!(table.claims[1].measured >= table.claims[0].measured * 0.9);
    }

    #[test]
    fn latency_within_paper_bounds() {
        assert_holds(&latency_sweep(&[(5, 2)], 20, 1024, 2));
    }

    #[test]
    fn md_state_has_no_residual_value_bytes() {
        assert_holds(&md_state_experiment(&[(5, 2)], 1500, 4));
    }

    #[test]
    fn relay_ablation_shows_liveness_gap() {
        assert_holds(&relay_ablation(1024, 9));
    }

    #[test]
    fn soda_scenario_produces_consistent_measurements() {
        let soda = ClusterBuilder::new(ProtocolKind::Soda, 5, 2).with_seed(1);
        let outcome = measure(soda, 0, 2048);
        assert!(outcome.atomic, "history must be atomic");
        assert!(outcome.write_cost > 0.0);
        assert!(outcome.read_cost > 0.0);
        // Storage is close to n/(n-f) = 5/3.
        assert!((outcome.storage_cost - 5.0 / 3.0).abs() < 0.1);
        assert!(outcome.read_cost.is_finite() && outcome.read_latency.is_finite());
        assert!(outcome.write_latency > 0.0);
        assert!(outcome.read_latency > 0.0);
    }

    #[test]
    fn soda_scenario_with_concurrency_reports_delta_w() {
        let soda = ClusterBuilder::new(ProtocolKind::Soda, 5, 2).with_seed(1);
        let outcome = measure(soda, 3, 1024);
        assert!(outcome.atomic);
        assert!(outcome.delta_w_actual >= 1, "writes must overlap the read");
        // Read cost grows with concurrency but stays within the paper bound
        // n/(n-f) * (delta_w_actual + 1) plus chunking slack.
        let bound = 5.0 / 3.0 * (outcome.delta_w_actual + 1) as f64 + 0.5;
        assert!(
            outcome.read_cost <= bound,
            "read cost {} exceeds bound {}",
            outcome.read_cost,
            bound
        );
    }

    #[test]
    fn abd_scenario_costs_scale_with_n() {
        let builder = ClusterBuilder::new(ProtocolKind::Abd, 5, 2)
            .with_seed(3)
            .with_network(NetworkConfig::uniform(8));
        let outcome = measure(builder, 0, 2048);
        assert!(outcome.atomic);
        assert!(outcome.storage_cost > 4.9, "ABD stores n full copies");
        assert!(outcome.write_cost >= 5.0, "ABD write cost is at least n");
    }

    #[test]
    fn casgc_scenario_costs_match_coded_baseline() {
        let builder = ClusterBuilder::new(ProtocolKind::Casgc { gc: 2 }, 5, 1)
            .with_seed(4)
            .with_network(NetworkConfig::uniform(8));
        let outcome = measure(builder, 0, 2048);
        assert!(outcome.atomic);
        // Per-op communication ~ n/(n-2f) = 5/3.
        assert!(outcome.write_cost < 3.0);
        assert!(outcome.read_cost < 3.0);
    }

    #[test]
    fn every_kind_runs_the_same_scenario() {
        for kind in [
            ProtocolKind::Soda,
            ProtocolKind::SodaErr { e: 1 },
            ProtocolKind::Abd,
            ProtocolKind::Cas,
            ProtocolKind::Casgc { gc: 1 },
        ] {
            let n = if kind.error_budget() > 0 { 7 } else { 5 };
            let outcome = measure(ClusterBuilder::new(kind, n, 2).with_seed(1), 1, 1024);
            assert!(outcome.atomic, "{}: history must be atomic", kind.name());
            assert!(outcome.read_cost.is_finite(), "{}", kind.name());
            assert!(outcome.read_latency.is_finite(), "{}", kind.name());
            assert!(outcome.write_cost > 0.0, "{}", kind.name());
        }
    }

    /// With ranks 0–2 of five cut off for the whole run no quorum answers:
    /// the solo write and the measured read never complete, and every claim
    /// on them fails.
    #[test]
    fn a_starved_operation_fails_its_claims() {
        let cut = PartitionWindow {
            ranks: vec![0, 1, 2],
            start: 0,
            end: u64::MAX,
        };
        for kind in [ProtocolKind::Soda, ProtocolKind::Abd] {
            let builder = ClusterBuilder::new(kind, 5, 2)
                .with_seed(1)
                .with_partition_window(&cut);
            let mut sheet = Sheet::new("starved", 1024);
            let o = sheet.run(builder, 1);
            let starved = [o.write_cost, o.read_cost, o.write_latency, o.read_latency];
            assert_eq!(starved, [f64::INFINITY; 4], "{}", kind.name());
            sheet.write(kind.name(), &o);
            sheet.read(kind.name(), &o);
            let claims = &sheet.claims;
            assert!(claims.len() >= 2, "{claims:?}");
            assert!(claims.iter().all(|c| !c.holds), "{claims:?}");
        }
    }

    /// The paper gate: every claim of every table, at the parameters the
    /// `reproduce` binary reports.
    #[test]
    fn every_paper_claim_holds() {
        let tables = reproduce();
        assert_eq!(tables.len(), 9);
        for table in &tables {
            assert_holds(table);
        }
    }
}
