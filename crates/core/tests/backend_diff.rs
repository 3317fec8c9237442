//! The analyzers against an independent oracle.
//!
//! Every `mica-core` analyzer has one implementation, its `retire_block`.
//! This harness checks it against [`oracle::Oracle`], a per-instruction
//! implementation written straight from the Table II definitions that
//! shares no analyzer code, and demands **bit-identical** results:
//!
//! 1. all 122 zoo kernels, through the production profiling entry point
//!    and through recorded-trace replays on every partition in
//!    [`DELIVERIES`];
//! 2. randomized instruction streams (including adversarial addresses at
//!    the top of the address space) on the same partitions and a sampled
//!    odd block size, covering [`CharacterizationSuite`],
//!    [`ExtendedSuite`] (the reuse-distance metrics, which have a single
//!    `access` implementation, only across partitions) and
//!    [`PhaseProfiler`] (against the oracle run over fixed intervals);
//! 3. adversarial partitions that split basic blocks mid-body;
//! 4. closed-form known answers, so the oracle itself is pinned too;
//! 5. the quarantine interaction: a kernel panicking under `MICA_FAULTS`
//!    must quarantine identically whether the VM's blocks reach the
//!    analyzers whole or one instruction per call, and the surviving
//!    [`ProfileSet`]s must serialize byte-identically.

mod oracle;

use mica_core::{metrics, CharacterizationSuite, ExtendedSuite, MicaVector, PhaseProfiler};
use mica_workloads::benchmark_table;
use oracle::Oracle;
use tinyisa::{
    regs::*, Asm, CtrlInfo, DynInst, InstClass, MemAccess, RegRef, Trace, TraceRecorder, TraceSink,
    Vm,
};

/// Per-kernel budget. 10 000 instructions is the profiling floor
/// (`MICA_SCALE` tiny), enough to exercise every analyzer on every kernel
/// while the full 122-benchmark matrix stays fast.
const BUDGET: u64 = 10_000;

/// Replays a recorded trace into a sink on some partition.
type Delivery = fn(&Trace, &mut dyn TraceSink);

/// The registry of delivery partitions. A new partition is one line here.
const DELIVERIES: &[(&str, Delivery)] = &[
    ("per-inst", |t, s| t.replay(s)),
    ("blocks-1", |t, s| t.replay_blocks(s, 1)),
    ("blocks-7", |t, s| t.replay_blocks(s, 7)),
    ("blocks-256", |t, s| t.replay_blocks(s, 256)),
    ("blocks-whole-trace", |t, s| t.replay_blocks(s, usize::MAX)),
];

/// Bit-level equality: `==` on f64 would let `-0.0 == 0.0` or two NaNs
/// slip through; the artifact files serialize bits.
fn assert_bits_eq(expected: &[f64], got: &[f64], ctx: &str) {
    assert_eq!(expected.len(), got.len(), "{ctx}: metric count");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(
            e.to_bits(),
            g.to_bits(),
            "{ctx}: metric {i} diverges: oracle {e} vs {g}"
        );
    }
}

fn record(vm: &mut Vm, budget: u64) -> Trace {
    let mut rec = TraceRecorder::new();
    vm.run(&mut rec, budget).expect("kernel runs");
    rec.into_trace()
}

fn suite_vector(trace: &Trace, deliver: Delivery) -> MicaVector {
    let mut suite = CharacterizationSuite::new();
    deliver(trace, &mut suite);
    suite.finish()
}

/// Check the extended suite and the phase profiler on one partition: the
/// 47 base metrics and the branch behavior against the oracle, the reuse
/// metrics against `reuse` (the same stream on another partition), and
/// every interval against the oracle over fixed intervals.
fn check_extended_and_phases(
    trace: &Trace,
    deliver: &dyn Fn(&mut dyn TraceSink),
    reuse: &[f64],
    interval: usize,
    ctx: &str,
) {
    let oracle = Oracle::of(trace.events());
    let mut ext = ExtendedSuite::new();
    deliver(&mut ext);
    let all = ext.finish_all();
    assert_bits_eq(oracle.finish().values(), &all[..47], &format!("{ctx}: extended base"));
    assert_bits_eq(&oracle.branch_metrics(), &all[47..50], &format!("{ctx}: branch behavior"));
    assert_bits_eq(reuse, &all[50..], &format!("{ctx}: reuse distance"));

    let mut phase = PhaseProfiler::new(interval as u64);
    deliver(&mut phase);
    let got = phase.into_phases();
    let want = oracle::phases(trace.events(), interval);
    assert_eq!(want.len(), got.len(), "{ctx}: phase count");
    for (p, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_bits_eq(w.values(), g.values(), &format!("{ctx}: phase {p}"));
    }
}

/// The reuse-distance metrics of the per-instruction delivery.
fn reference_reuse(trace: &Trace) -> Vec<f64> {
    let mut ext = ExtendedSuite::new();
    trace.replay(&mut ext);
    ext.finish_all()[50..].to_vec()
}

#[test]
fn all_zoo_kernels_match_the_oracle_on_every_partition() {
    for spec in benchmark_table() {
        let name = spec.name();
        let trace = record(&mut spec.build_vm().expect("kernel assembles"), BUDGET);
        let oracle = Oracle::of(trace.events());
        let expected = oracle.finish();

        // The production entry point: live VM blocks into the suite.
        let live = mica_experiments::profile::characterize(&spec, BUDGET).expect("kernel runs");
        assert_bits_eq(expected.values(), live.values(), &format!("{name}: characterize"));

        for (tier, deliver) in DELIVERIES {
            let got = suite_vector(&trace, *deliver);
            assert_bits_eq(expected.values(), got.values(), &format!("{name}: {tier}"));
        }
    }
}

#[test]
fn extended_and_phase_profiles_match_the_oracle() {
    // A cross-section of the zoo: one kernel per suite — the full matrix
    // above already covers the 47-metric suite everywhere.
    let mut seen = std::collections::HashSet::new();
    for spec in benchmark_table() {
        if !seen.insert(spec.suite.to_string()) {
            continue;
        }
        let name = spec.name();
        let trace = record(&mut spec.build_vm().expect("kernel assembles"), BUDGET);
        let reuse = reference_reuse(&trace);
        for (tier, deliver) in DELIVERIES {
            check_extended_and_phases(
                &trace,
                &|sink| deliver(&trace, sink),
                &reuse,
                977,
                &format!("{name}: {tier}"),
            );
        }
    }
}

/// Build a pseudo-random but fully deterministic instruction stream from a
/// seed: a few dozen static PCs, loads/stores with strided and random
/// addresses (including the top of the address space, where the working
/// set used to overflow), conditional branches with mixed bias, and reads
/// of registers that never had a producer.
fn random_stream(seed: u64, len: usize) -> Vec<DynInst> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let r = step();
        let pc = 0x1000 + (r % 48) * 4;
        let class = match r % 10 {
            0 | 1 => InstClass::Load,
            2 => InstClass::Store,
            3 => InstClass::Branch,
            4 => InstClass::IntMul,
            5 => InstClass::Fp,
            _ => InstClass::IntAlu,
        };
        let dst = match step() % 4 {
            // Cold destination gaps: some registers are read-only below.
            0 => None,
            1 => Some(RegRef::Fp((step() % 16) as u8)),
            _ => Some(RegRef::Int((step() % 24) as u8)),
        };
        let srcs = [
            Some(RegRef::Int((step() % 32) as u8)),
            if step() % 3 == 0 { Some(RegRef::Int((step() % 32) as u8)) } else { None },
            None,
        ];
        let mem = match class {
            InstClass::Load | InstClass::Store => {
                let addr = match step() % 8 {
                    // The overflow corner: last bytes of the address space.
                    0 => u64::MAX - (step() % 16),
                    1 => step(), // fully random
                    _ => 0x2_0000 + (step() % 4096) * 8,
                };
                Some(MemAccess {
                    addr,
                    size: [0, 1, 2, 4, 8][(step() % 5) as usize],
                    is_store: class == InstClass::Store,
                })
            }
            _ => None,
        };
        let ctrl = if class == InstClass::Branch {
            Some(CtrlInfo { taken: step() % 3 != 0, target: pc + 8, conditional: true })
        } else if step() % 61 == 0 {
            Some(CtrlInfo { taken: true, target: 0x1000, conditional: false })
        } else {
            None
        };
        out.push(DynInst { pc, class, dst, srcs, mem, ctrl });
    }
    out
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]

    #[test]
    fn randomized_streams_match_the_oracle(
        seed in proptest::any::<u64>(),
        len in 1usize..700,
        block in 1usize..300,
    ) {
        let stream = random_stream(seed, len);
        let mut rec = TraceRecorder::new();
        for inst in &stream {
            rec.retire(inst);
        }
        let trace = rec.into_trace();
        let expected = Oracle::of(&stream).finish();

        for (tier, deliver) in DELIVERIES {
            let got = suite_vector(&trace, *deliver);
            assert_bits_eq(expected.values(), got.values(), &format!("seed {seed}, len {len}, {tier}"));
        }

        // And at the sampled (odd, unaligned) block size, for all suites.
        let ctx = format!("seed {seed}, len {len}, blocks-{block}");
        let mut suite = CharacterizationSuite::new();
        trace.replay_blocks(&mut suite, block);
        assert_bits_eq(expected.values(), suite.finish().values(), &ctx);
        check_extended_and_phases(
            &trace,
            &|sink| trace.replay_blocks(sink, block),
            &reference_reuse(&trace),
            53,
            &ctx,
        );
    }
}

/// Adversarial partitions of [`Trace::replay_blocks`], pinned explicitly:
/// size 1 (every instruction is its own block), a size strictly greater
/// than the trace length (one giant delivery), and small odd sizes that
/// are guaranteed to split basic blocks mid-body (the zoo's loop bodies
/// are several instructions long, so size 3 lands a partition boundary
/// inside a basic block on every kernel).
#[test]
fn adversarial_partitions_match_the_oracle() {
    for program in ["CRC32", "sha", "mcf"] {
        let spec = benchmark_table()
            .into_iter()
            .find(|s| s.program == program)
            .expect("kernel exists");
        let name = spec.name();
        let trace = record(&mut spec.build_vm().expect("kernel assembles"), BUDGET);
        let expected = Oracle::of(trace.events()).finish();

        let len = trace.len();
        assert!(len > 3, "{name}: trace long enough to partition");
        for block_size in [1, 3, 5, len - 1, len, len + 1, 2 * len] {
            let mut suite = CharacterizationSuite::new();
            trace.replay_blocks(&mut suite, block_size);
            assert_bits_eq(
                expected.values(),
                suite.finish().values(),
                &format!("{name}: adversarial partition size {block_size}"),
            );
        }
    }
}

/// Run `program` live for `budget` instructions through the suite, and
/// again into the oracle; both vectors, plus the oracle's instruction
/// count.
fn known_answer(program: Asm, budget: u64) -> (MicaVector, MicaVector, u64) {
    let program = program.assemble().expect("assembles");
    let mut suite = CharacterizationSuite::new();
    Vm::new(program.clone()).run(&mut suite, budget).expect("runs");
    let trace = record(&mut Vm::new(program), budget);
    let oracle = Oracle::of(trace.events());
    (oracle.finish(), suite.finish(), oracle.instructions())
}

#[test]
fn serial_dependency_chain_has_known_ilp_and_distances() {
    // k instructions, each reading the register the previous one wrote:
    // instruction i completes at cycle i on every window (IPC exactly 1),
    // and every live read is at distance 1.
    const K: u64 = 1_000;
    let mut a = Asm::new();
    for _ in 0..K {
        a.addi(T0, T0, 1);
    }
    a.halt();
    let (oracle, production, executed) = known_answer(a, K);
    assert_eq!(executed, K, "the budget stops before halt");
    for (who, v) in [("oracle", &oracle), ("production", &production)] {
        for m in [metrics::ILP_32, metrics::ILP_64, metrics::ILP_128, metrics::ILP_256] {
            assert_eq!(v.get(m), 1.0, "{who}: {m}");
        }
        assert_eq!(v.get(metrics::DEP_DIST_LE_1), 1.0, "{who}");
        // K-1 live reads per K writes.
        assert_eq!(v.get(metrics::AVG_DEGREE_OF_USE), (K - 1) as f64 / K as f64, "{who}");
    }
    assert_bits_eq(oracle.values(), production.values(), "dependency chain");
}

#[test]
fn stride_8_store_loop_has_known_mix_and_strides() {
    // The crate-level example: a 5-instruction loop body with one 8-byte
    // store per iteration, walking an array at stride 8, 1000 times.
    // 2 setup + 5 × 1000 body + halt = 5003 instructions, 1000 stores.
    let mut a = Asm::new();
    let head = a.label();
    a.li(T0, 0);
    a.li(T2, 0x8000);
    a.bind(head);
    a.st8(T0, T2, 0);
    a.addi(T2, T2, 8);
    a.addi(T0, T0, 1);
    a.slti(T1, T0, 1000);
    a.bne(T1, ZERO, head);
    a.halt();
    let (oracle, production, executed) = known_answer(a, 1_000_000);
    assert_eq!(executed, 5_003);
    for (who, v) in [("oracle", &oracle), ("production", &production)] {
        assert_eq!(v.get(metrics::PCT_STORES), 1_000.0 / 5_003.0, "{who}");
        assert!((v.get(metrics::PCT_STORES) - 0.2).abs() < 1e-3, "{who}");
        assert_eq!(v.get(metrics::GLOBAL_STORE_STRIDE_0), 0.0, "{who}: no zero strides");
        for m in [
            metrics::GLOBAL_STORE_STRIDE_8,
            metrics::GLOBAL_STORE_STRIDE_64,
            metrics::GLOBAL_STORE_STRIDE_512,
            metrics::GLOBAL_STORE_STRIDE_4096,
        ] {
            assert_eq!(v.get(m), 1.0, "{who}: {m}: all stride mass at 8");
        }
    }
    assert_bits_eq(oracle.values(), production.values(), "stride-8 store loop");
}

/// The quarantine interaction: panic isolation must not depend on the
/// delivery tier. A kernel that panics under the fault plan quarantines
/// identically under `ref` and `batch`, and the 121 survivors serialize
/// byte-identically.
#[test]
fn quarantine_is_identical_under_both_backends() {
    use mica_core::Backend;
    use mica_experiments::profile::profile_all_with;
    use mica_fault::plan::{self, FaultPlan};

    std::env::set_var("MICA_THREADS", "4");
    std::env::set_var("MICA_LOG", "off");

    plan::install(FaultPlan::parse("panic:kernel=CRC32").expect("plan parses"));
    let ref_run = profile_all_with(1e-9, Backend::Ref).expect("ref run completes");
    let batch_run = profile_all_with(1e-9, Backend::Batch).expect("batch run completes");
    plan::clear();

    assert_eq!(ref_run.quarantined.len(), 1, "{:?}", ref_run.quarantined);
    assert!(ref_run.quarantined[0].name.contains("CRC32"));
    assert_eq!(ref_run.quarantined, batch_run.quarantined, "same kernel, same reason");
    assert_eq!(ref_run.set.records.len(), batch_run.set.records.len());
    assert_eq!(
        serde_json::to_string(&ref_run.set).expect("serializes"),
        serde_json::to_string(&batch_run.set).expect("serializes"),
        "survivors must serialize byte-identically across backends"
    );
}
