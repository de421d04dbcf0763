//! Layer micro-probes: each replays the traced workload's own parameters one
//! layer down, through that layer's public API, so a layer's number can be
//! set against the store's.

use crate::gen;
use crate::spec::ExploreShape;
use soda_gf::{mul_slice, mul_slice_xor, xor_slice, Gf256};
use soda_registry::{ClusterBuilder, ProtocolKind};
use soda_rs_code::{BerlekampWelchCode, CodedElement, MdsCode, VandermondeCode, LENGTH_HEADER};
use soda_simnet::{
    Context, DelayModel, LinkFaults, Message, NetFaultPlan, NetworkConfig, Process, ProcessId,
    Simulation,
};
use soda_workload::explore::{generate_scenario, run_scenario, AdversaryKnobs};
use std::hint::black_box;
use std::time::Instant;

/// Every probe measures for at least this long.
const PROBE_SECONDS: f64 = 0.12;

/// Parameters a traced workload hands to the probes.
pub struct ProbeParams {
    pub n: usize,
    pub f: usize,
    pub value_size: usize,
    /// Operations each key's cluster serves in one epoch of the workload.
    pub ops_per_key: usize,
    pub seed: u64,
}

pub type Measured = Vec<(String, f64)>;

/// Repeats `body` until `PROBE_SECONDS` have passed; returns seconds per
/// call.
fn per_call(mut body: impl FnMut()) -> f64 {
    body();
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        body();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= PROBE_SECONDS {
            return elapsed / calls as f64;
        }
    }
}

/// `registry.<kind>.*`: a bare cluster of the workload's shape, driven one
/// operation at a time the way a key's cluster is driven inside the store.
pub fn registry(p: &ProbeParams, kind: ProtocolKind, slug: &str, out: &mut Measured) {
    let mut rng = gen::stream(p.seed, 10);
    let build = |seed: u64| {
        ClusterBuilder::new(kind, p.n, p.f)
            .with_clients(2, 2)
            .with_seed(seed)
            .build()
            .expect("the workload's cluster parameters are valid")
    };
    let (mut build_s, mut put_s, mut get_s, mut repair_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut clusters, mut puts, mut gets, mut all_messages) = (0u64, 0u64, 0u64, 0u64);
    let mut counted = (0u64, 0u64, 1.0);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < 2.0 * PROBE_SECONDS || clusters < 2 {
        let start = Instant::now();
        let mut cluster = build(rng.next_u64());
        build_s += start.elapsed().as_secs_f64();
        clusters += 1;
        for op in 0..p.ops_per_key.max(2) {
            if op % 2 == 0 {
                let value = gen::value(&mut rng, p.value_size);
                let start = Instant::now();
                cluster.invoke_write(op / 2 % 2, value);
                cluster.run_to_quiescence();
                put_s += start.elapsed().as_secs_f64();
                puts += 1;
            } else {
                let start = Instant::now();
                cluster.invoke_read(op / 2 % 2);
                cluster.run_to_quiescence();
                get_s += start.elapsed().as_secs_f64();
                gets += 1;
            }
        }
        let stats = cluster.stats();
        all_messages += stats.messages_sent;
        if clusters == 1 {
            // Counts come from the first cluster alone, so they are exact per
            // seed however many clusters the time allows.
            counted = (
                stats.messages_sent,
                stats.data_bytes_sent,
                p.ops_per_key.max(2) as f64,
            );
        }
        // Crash rank 0, then time its repair from the survivors.
        cluster.crash_server_at(cluster.now(), 0);
        cluster.run_to_quiescence();
        let start = Instant::now();
        cluster.repair_server_at(cluster.now(), 0);
        cluster.run_to_quiescence();
        repair_s += start.elapsed().as_secs_f64();
        assert!(
            cluster.repair_reports().iter().all(|r| !r.failed()),
            "{slug}: probe repair failed"
        );
    }
    let mut push = |name: &str, value: f64| out.push((format!("registry.{slug}.{name}"), value));
    push("build_us", build_s / clusters as f64 * 1e6);
    push("put_us", put_s / puts as f64 * 1e6);
    push("get_us", get_s / gets as f64 * 1e6);
    push("repair_us", repair_s / clusters as f64 * 1e6);
    push("msgs_per_op", counted.0 as f64 / counted.2);
    push("data_bytes_per_op", counted.1 as f64 / counted.2);
    push("ns_per_msg", (put_s + get_s) / all_messages as f64 * 1e9);
}

#[derive(Clone, Debug)]
struct Hop(u32);
impl Message for Hop {}

/// Forwards every message to the next process until its hop budget is spent.
struct Echo {
    next: ProcessId,
}

impl Process<Hop> for Echo {
    fn on_message(&mut self, _from: ProcessId, msg: Hop, ctx: &mut Context<'_, Hop>) {
        if msg.0 > 0 {
            ctx.send(self.next, Hop(msg.0 - 1));
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn echo_ring(seed: u64, processes: usize) -> Simulation<Hop> {
    let mut sim = Simulation::new(seed, NetworkConfig::uniform(10));
    for i in 0..processes {
        sim.add_process(Box::new(Echo {
            next: ProcessId(((i + 1) % processes) as u32),
        }));
    }
    sim
}

/// `simnet.*`: the event loop alone, under an echo process — passthrough, and
/// for the campaign (`with_faults`) also with the standard adversary's maximum
/// intensities on every link.
pub fn simnet(p: &ProbeParams, with_faults: bool, out: &mut Measured) {
    // A cluster of the workload is n servers plus two writers and two readers.
    let processes = p.n + 4;
    let knobs = AdversaryKnobs::standard();
    let faulty = NetFaultPlan::none().with_default(LinkFaults {
        drop_p: knobs.drop_p_max,
        duplicate_p: knobs.duplicate_p_max,
        extra_delay: Some(DelayModel::Uniform {
            min: 0,
            max: knobs.extra_delay_max,
        }),
        reorder_p: knobs.reorder_p_max,
        reorder_window: knobs.reorder_window,
    });
    let plans = [
        ("simnet.ns_per_event", None),
        ("simnet.ns_per_event_faulty", Some(faulty)),
    ];
    for (name, plan) in plans.into_iter().take(1 + usize::from(with_faults)) {
        let (mut events, mut seed) = (0u64, p.seed);
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < PROBE_SECONDS {
            let mut sim = echo_ring(seed, processes);
            if let Some(plan) = &plan {
                sim.set_net_fault_plan(plan.clone());
            }
            for i in 0..processes {
                sim.send_external(ProcessId(i as u32), Hop(2000));
            }
            events += sim.run_to_quiescence().events_processed;
            seed += 1;
        }
        out.push((
            name.into(),
            started.elapsed().as_secs_f64() / events as f64 * 1e9,
        ));
    }
    let construct = per_call(|| {
        black_box(echo_ring(black_box(p.seed), processes));
    });
    out.push(("simnet.construct_us".into(), construct * 1e6));
}

/// `rs.*` throughput in MiB of value per second on the workload's `[n, n−f]`
/// code and value size; for a workload with a SODAerr shard (`with_errors`)
/// also Berlekamp–Welch on `[n, n−f−2]` with one corrupted element among
/// `k + 2`.
pub fn rs(p: &ProbeParams, with_errors: bool, out: &mut Measured) {
    let value = gen::value(&mut gen::stream(p.seed, 11), p.value_size);
    let mib = p.value_size as f64 / (1024.0 * 1024.0);
    let code = VandermondeCode::for_fault_tolerance(p.n, p.f).expect("valid [n, n-f] code");
    let k = code.k();
    let elements = code.encode(&value).expect("encode");
    let mut push = |name: &str, seconds: f64| out.push((format!("rs.{name}"), mib / seconds));
    push(
        "encode_mib_s",
        per_call(|| {
            black_box(code.encode(black_box(&value)).expect("encode"));
        }),
    );
    push(
        "encode_one_mib_s",
        per_call(|| {
            black_box(
                code.encode_one(black_box(&value), p.n - 1)
                    .expect("encode_one"),
            );
        }),
    );
    let tail: Vec<CodedElement> = elements[p.n - k..].to_vec();
    push(
        "decode_mib_s",
        per_call(|| {
            black_box(code.decode(black_box(&tail)).expect("decode"));
        }),
    );
    let systematic: Vec<CodedElement> = elements[..k].to_vec();
    push(
        "decode_systematic_mib_s",
        per_call(|| {
            black_box(code.decode(black_box(&systematic)).expect("decode"));
        }),
    );
    if !with_errors {
        return;
    }
    let bw = BerlekampWelchCode::for_fault_tolerance(p.n, p.f, 1).expect("valid [n, n-f-2] code");
    let mut received: Vec<CodedElement> = bw.encode(&value).expect("encode")[..bw.k() + 2].to_vec();
    let mut corrupted = received[0].data.to_vec();
    corrupted.iter_mut().for_each(|byte| *byte ^= 0x5A);
    received[0] = CodedElement::new(received[0].index, corrupted);
    push(
        "bw_decode_mib_s",
        per_call(|| {
            let decoded = bw
                .decode_with_errors(black_box(&received), 1)
                .expect("decode");
            assert_eq!(decoded.len(), value.len());
            black_box(decoded);
        }),
    );
}

/// `gf.*`: the slice kernels on one coded element of the workload, and the
/// `k × k` inversion a decode-cache miss pays.
pub fn gf(p: &ProbeParams, out: &mut Measured) {
    let k = p.n - p.f;
    let len = (p.value_size + LENGTH_HEADER).div_ceil(k);
    let mut rng = gen::stream(p.seed, 12);
    let src = gen::value(&mut rng, len);
    let mut dst = gen::value(&mut rng, len);
    let c = Gf256::new(0x53);
    let gib = len as f64 / (1024.0 * 1024.0 * 1024.0);
    let mut push = |name: &str, seconds: f64| out.push((format!("gf.{name}"), gib / seconds));
    // Small elements would be dominated by the loop around the call, so each
    // call works through the slice many times.
    let reps = (1 << 16) / len.max(1) + 1;
    push(
        "mul_slice_xor_gib_s",
        per_call(|| {
            for _ in 0..reps {
                mul_slice_xor(c, black_box(&src), black_box(&mut dst));
            }
        }) / reps as f64,
    );
    push(
        "mul_slice_gib_s",
        per_call(|| {
            for _ in 0..reps {
                mul_slice(c, black_box(&mut dst));
            }
        }) / reps as f64,
    );
    push(
        "xor_slice_gib_s",
        per_call(|| {
            for _ in 0..reps {
                xor_slice(black_box(&src), black_box(&mut dst));
            }
        }) / reps as f64,
    );
    let code = VandermondeCode::for_fault_tolerance(p.n, p.f).expect("valid [n, n-f] code");
    let survivors: Vec<usize> = (p.f..p.n).collect();
    let sub = code.encoding_matrix().select_rows(&survivors);
    let inverse = per_call(|| {
        black_box(
            black_box(&sub)
                .inverse()
                .expect("MDS submatrix is invertible"),
        );
    });
    out.push(("gf.matrix_inverse_us".into(), inverse * 1e6));
}

/// `workload.*` on the campaign's configs, and the single-register checker's
/// cost per checked operation (the store workloads measure the keyed checker
/// on their own histories instead).
///
/// The schedules are the block of the campaign's swept window that `seed`
/// picks, walked from its start (and around, should a fast host get through).
pub fn workload(shape: &ExploreShape, seed: u64, out: &mut Measured) {
    let (mut generate_s, mut run_s, mut check_s) = (0.0, 0.0, 0.0);
    let (mut schedules, mut checked_ops) = (0u64, 0u64);
    let first = shape.block_start(gen::stream(seed, 13).next_u64());
    let mut next = first;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < 3.0 * PROBE_SECONDS {
        for cfg in &shape.configs {
            let start = Instant::now();
            let scenario = generate_scenario(cfg, next);
            generate_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let outcome = run_scenario(cfg, &scenario);
            run_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let verdict = black_box(outcome.history.check_atomicity());
            check_s += start.elapsed().as_secs_f64();
            assert!(verdict.is_ok() && outcome.violation.is_none());
            checked_ops += outcome.history.len() as u64;
            schedules += 1;
        }
        next = first + (next + 1 - first) % shape.block_len();
    }
    let n = schedules as f64;
    out.push((
        "workload.generate_us_per_schedule".into(),
        generate_s / n * 1e6,
    ));
    out.push(("workload.run_us_per_schedule".into(), run_s / n * 1e6));
    out.push(("workload.schedules_per_s".into(), n / (generate_s + run_s)));
    out.push((
        "consistency.check_us_per_op".into(),
        check_s / checked_ops.max(1) as f64 * 1e6,
    ));
}
