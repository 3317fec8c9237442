//! The traced per-layer ledger of the perfbench benchmark.
//!
//! Times, from outside, the public entry points of each layer — the
//! workload table, the tinyisa VM, the core analyzers, the uarch-sim
//! machine models, the experiments driver, the worker pool and the
//! statistics — over the 122-kernel table at one budget scale, and prints
//! one JSON object of per-layer metrics on stdout.
//!
//! ```text
//! MICA_THREADS=2 ledger --scale 1e-9 --spans spans.json --work DIR
//! ```
//!
//! Every kernel runs through five serial passes over clones of one built
//! VM: a null sink (`CountingSink`), an untraced fan-out of all analyzers,
//! the same fan-out with one span per analyzer per delivered block, the
//! `CharacterizationSuite` as one sink, and the production
//! `profile_benchmark_with`. The untraced and traced fan-out passes give
//! the tracing overhead; the separately measured layers summed against the
//! production pass give `experiments.closure_frac`. Each pass's outputs
//! are checked against the production record, and a mismatch is counted
//! in `failed`.

mod spans;

use mica_core::{Backend, CharacterizationSuite, MicaVector};
use mica_experiments::analysis::{hpc_dataset, mica_dataset};
use mica_experiments::profile::{
    check_cache, profile_all_with, profile_benchmark_with, scaled_budget, validate_scale,
};
use mica_experiments::query::{DistanceMetric, QuerySpace};
use mica_stats::{
    auc, choose_k_by_bic, correlation_elimination, pairwise_distances, roc_curve,
    select_features_k, zscore_normalize, GaConfig,
};
use mica_workloads::{benchmark_table, table_fingerprint};
use spans::{layer_times, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use tinyisa::{CountingSink, DynInst, TraceSink};
use uarch_sim::{Ev56Model, Ev67Model};

/// Accepted range of `experiments.closure_frac`: the separately timed
/// layers must explain the production kernel time to within a quarter.
const CLOSURE_TOLERANCE: (f64, f64) = (0.75, 1.25);

/// 0-based index of metric 21, the D-stream working set in 4 KiB pages.
const D_WSS_PAGES: usize = 20;

/// The analyzer families the fan-out times, in delivery order.
const ANALYZERS: [&str; 8] = [
    "core.mix",
    "core.ilp",
    "core.reg",
    "core.wss",
    "core.strides",
    "core.ppm",
    "uarch-sim.ev56",
    "uarch-sim.ev67",
];

/// Deliver `block` to one sink the way the resolved backend does:
/// `batch` hands over the block, `ref` retires one instruction at a time.
fn deliver<S: TraceSink + ?Sized>(sink: &mut S, block: &[DynInst], backend: Backend) {
    match backend {
        Backend::Batch => sink.retire_block(block),
        Backend::Ref => {
            for inst in block {
                sink.retire(inst);
            }
        }
    }
}

/// Closes one analyzer's interval per call, sharing each clock read with
/// the next analyzer; a no-op when untraced.
struct Stopwatch<'a> {
    tracer: Option<&'a mut Tracer>,
    last: u64,
}

impl<'a> Stopwatch<'a> {
    fn start(tracer: Option<&'a mut Tracer>) -> Self {
        let last = tracer.as_ref().map_or(0, |t| t.now());
        Stopwatch { tracer, last }
    }

    fn lap(&mut self, name: &'static str) {
        if let Some(t) = self.tracer.as_mut() {
            let now = t.now();
            t.record(name, self.last, now);
            self.last = now;
        }
    }
}

/// Every analyzer as its own sink, fed block by block: the six MICA
/// families through the fields of a `CharacterizationSuite` (so its
/// `finish` still assembles the 47-metric vector) and the two machine
/// models directly.
struct FanOut<'t> {
    suite: CharacterizationSuite,
    ev56: Ev56Model,
    ev67: Ev67Model,
    backend: Backend,
    tracer: Option<&'t mut Tracer>,
}

impl<'t> FanOut<'t> {
    fn new(backend: Backend, tracer: Option<&'t mut Tracer>) -> Self {
        FanOut {
            suite: CharacterizationSuite::new(),
            ev56: Ev56Model::new(),
            ev67: Ev67Model::new(),
            backend,
            tracer,
        }
    }
}

impl TraceSink for FanOut<'_> {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        let b = self.backend;
        let FanOut {
            suite,
            ev56,
            ev67,
            tracer,
            ..
        } = self;
        let mut watch = Stopwatch::start(tracer.as_deref_mut());
        deliver(&mut suite.mix, block, b);
        watch.lap(ANALYZERS[0]);
        deliver(&mut suite.ilp, block, b);
        watch.lap(ANALYZERS[1]);
        deliver(&mut suite.reg, block, b);
        watch.lap(ANALYZERS[2]);
        deliver(&mut suite.wss, block, b);
        watch.lap(ANALYZERS[3]);
        deliver(&mut suite.strides, block, b);
        watch.lap(ANALYZERS[4]);
        for p in &mut suite.ppm {
            deliver(p, block, b);
        }
        watch.lap(ANALYZERS[5]);
        deliver(ev56, block, b);
        watch.lap(ANALYZERS[6]);
        deliver(ev67, block, b);
        watch.lap(ANALYZERS[7]);
    }
}

/// The whole `CharacterizationSuite` as one sink, as the server runs it.
struct SuiteSink<'t> {
    suite: CharacterizationSuite,
    backend: Backend,
    tracer: &'t mut Tracer,
}

impl TraceSink for SuiteSink<'_> {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        let mut watch = Stopwatch::start(Some(&mut *self.tracer));
        deliver(&mut self.suite, block, self.backend);
        watch.lap("core.suite");
    }
}

struct Args {
    scale: f64,
    spans: Option<PathBuf>,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = None;
    let mut spans = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--scale" => scale = Some(value.parse::<f64>().map_err(|e| format!("--scale: {e}"))?),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let scale = scale.ok_or("--scale is required")?;
    validate_scale(scale).map_err(|e| e.to_string())?;
    Ok(Args {
        scale,
        spans,
        work: work.ok_or("--work is required")?,
    })
}

/// Correctness checks of the ledger's own passes.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Bit-for-bit equality of two 47-metric vectors (NaN-safe, unlike `==`).
fn same_bits(a: &MicaVector, b: &MicaVector) -> bool {
    let (a, b) = (a.values(), b.values());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        std::process::exit(2);
    });
    let backend = Backend::from_env();
    let table = benchmark_table();
    let mut t = Tracer::new();
    let mut checks = Checks::default();
    let (mut insts, mut pages, mut d_wss_pages) = (0u64, 0u64, 0.0f64);

    let fingerprints: Vec<u64> = (0..3)
        .map(|_| t.span("workloads.fingerprint", |_| table_fingerprint()))
        .collect();
    checks.expect(fingerprints.iter().all(|&f| f == fingerprints[0]), || {
        format!("table_fingerprint() is not stable: {fingerprints:?}")
    });

    for spec in &table {
        let name = spec.name();
        let budget = scaled_budget(spec, args.scale);
        let vm = t
            .span("workloads.build_vm", |_| spec.build_vm())
            .unwrap_or_else(|e| {
                eprintln!("ledger: {name} failed to assemble: {e}");
                std::process::exit(1);
            });
        pages += vm.mem().resident_pages() as u64;

        let mut counted = CountingSink::default();
        let mut run = vm.clone();
        let vm_ok = t
            .span("tinyisa.vm_run", |_| run.run(&mut counted, budget))
            .is_ok();

        let mut untraced = FanOut::new(backend, None);
        let mut run = vm.clone();
        let untraced_ok = t
            .span("ledger.fanout_untraced", |_| run.run(&mut untraced, budget))
            .is_ok();

        let mut run = vm.clone();
        let (traced_ok, traced) = t.span("ledger.fanout_traced", |t| {
            let mut fan = t.span("ledger.sink_setup", |_| FanOut::new(backend, None));
            fan.tracer = Some(&mut *t);
            let ok = run.run(&mut fan, budget).is_ok();
            let FanOut {
                suite, ev56, ev67, ..
            } = fan;
            let out = t.span("ledger.sink_finish", move |_| {
                (suite.finish(), ev56.ipc(), ev67.ipc())
            });
            (ok, out)
        });

        let mut run = vm.clone();
        let (suite_ok, suite_vec) = t.span("ledger.suite_run", |t| {
            let mut sink = SuiteSink {
                suite: CharacterizationSuite::new(),
                backend,
                tracer: t,
            };
            let ok = run.run(&mut sink, budget).is_ok();
            (ok, sink.suite.finish())
        });
        drop(vm);

        let rec = t.span("experiments.profile_benchmark", |_| {
            profile_benchmark_with(spec, budget, backend)
        });
        let rec = match rec {
            Ok(rec) => rec,
            Err(e) => {
                checks.expect(false, || {
                    format!("{name}: profile_benchmark_with failed: {e}")
                });
                continue;
            }
        };
        insts += rec.executed_instructions;
        d_wss_pages += rec.mica.values()[D_WSS_PAGES];
        checks.expect(vm_ok && untraced_ok && traced_ok && suite_ok, || {
            format!("{name}: a ledger pass faulted")
        });
        checks.expect(counted.retired() == rec.executed_instructions, || {
            format!(
                "{name}: null sink saw {} insts, profile {}",
                counted.retired(),
                rec.executed_instructions
            )
        });
        checks.expect(same_bits(&untraced.suite.finish(), &rec.mica), || {
            format!("{name}: untraced fan-out vector differs")
        });
        checks.expect(same_bits(&traced.0, &rec.mica), || {
            format!("{name}: traced fan-out vector differs")
        });
        checks.expect(same_bits(&suite_vec, &rec.mica), || {
            format!("{name}: suite-sink vector differs")
        });
        checks.expect(
            traced.1.to_bits() == rec.hpc.ipc_ev56.to_bits()
                && traced.2.to_bits() == rec.hpc.ipc_ev67.to_bits(),
            || format!("{name}: fan-out EV56/EV67 IPC differs from the HPC profile"),
        );
    }

    let outcome = t.span("par.profile_all", |_| profile_all_with(args.scale, backend));
    let set = match outcome {
        Ok(outcome) => {
            checks.expect(outcome.quarantined.is_empty(), || {
                format!(
                    "profile_all_with quarantined {} kernels",
                    outcome.quarantined.len()
                )
            });
            outcome.set
        }
        Err(e) => {
            eprintln!("ledger: profile_all_with failed: {e}");
            std::process::exit(1);
        }
    };
    std::fs::create_dir_all(&args.work).unwrap_or_else(|e| {
        eprintln!("ledger: cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    });
    let cache = args.work.join("profiles.json");
    let saved = t.span("experiments.save", |_| set.save(&cache));
    checks.expect(saved.is_ok(), || {
        format!("ProfileSet::save failed: {saved:?}")
    });
    let loaded = t.span("experiments.check_cache", |_| {
        check_cache(&cache, args.scale)
    });
    checks.expect(loaded.as_ref().is_ok_and(|l| *l == set), || {
        format!(
            "check_cache did not return the saved set: {:?}",
            loaded.as_ref().err()
        )
    });

    let space = t.span("experiments.query_build", |_| QuerySpace::build(&set, 8));
    t.span("experiments.neighbors", |_| {
        for rec in &set.records {
            let point = space
                .project(rec.mica.values())
                .expect("47-metric vector projects");
            black_box(space.neighbors(&point, 5, DistanceMetric::Euclidean));
        }
    });

    let mica = mica_dataset(&set);
    let z = zscore_normalize(&mica);
    let ga = t.span("stats.ga", |_| {
        select_features_k(&mica, 8, GaConfig::default())
    });
    t.span("stats.corr_elim", |_| {
        for keep in [17, 12, 7] {
            black_box(correlation_elimination(&mica, keep));
        }
    });
    let dists = t.span("stats.distances", |_| pairwise_distances(&z));
    let z_ga = z.select_columns(&ga.selected);
    t.span("stats.bic", |_| {
        black_box(choose_k_by_bic(&z_ga, 70, 0x4d49_4341))
    });
    let hpc = pairwise_distances(&zscore_normalize(&hpc_dataset(&set)));
    let area = t.span("stats.roc", |_| {
        auc(&roc_curve(hpc.values(), dists.values(), 0.2, 200))
    });
    checks.expect(area.is_finite(), || {
        format!("ROC AUC is not finite: {area}")
    });

    let layers = layer_times(t.spans());
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let ms = |name: &str| get(name).total_ns as f64 / 1e6;
    let per_inst = |ns: u64| ns as f64 / insts.max(1) as f64;
    let each_ms = |name: &str| -> Vec<f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    let kernel_ns = get("experiments.profile_benchmark").total_ns;

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert(
        "workloads.fingerprint_ms",
        median(each_ms("workloads.fingerprint")),
    );
    m.insert("workloads.build_ms", ms("workloads.build_vm"));
    m.insert(
        "workloads.build_max_ms",
        each_ms("workloads.build_vm")
            .into_iter()
            .fold(0.0, f64::max),
    );
    m.insert("workloads.resident_pages", pages as f64);
    m.insert("workloads.data_use_frac", d_wss_pages / pages.max(1) as f64);
    m.insert("tinyisa.insts", insts as f64);
    m.insert(
        "tinyisa.vm_ns_per_inst",
        per_inst(get("tinyisa.vm_run").self_ns),
    );
    for (name, metric) in ANALYZERS.iter().zip([
        "core.mix_ns_per_inst",
        "core.ilp_ns_per_inst",
        "core.reg_ns_per_inst",
        "core.wss_ns_per_inst",
        "core.strides_ns_per_inst",
        "core.ppm_ns_per_inst",
        "uarch-sim.ev56_ns_per_inst",
        "uarch-sim.ev67_ns_per_inst",
    ]) {
        m.insert(metric, per_inst(get(name).self_ns));
    }
    m.insert(
        "core.suite_ns_per_inst",
        per_inst(get("core.suite").self_ns),
    );
    m.insert("experiments.kernel_ns_per_inst", per_inst(kernel_ns));
    let explained = get("workloads.build_vm").total_ns
        + get("tinyisa.vm_run").self_ns
        + ANALYZERS.iter().map(|a| get(a).self_ns).sum::<u64>()
        + get("ledger.sink_setup").total_ns
        + get("ledger.sink_finish").total_ns;
    let closure = explained as f64 / kernel_ns.max(1) as f64;
    m.insert("experiments.closure_frac", closure);
    checks.expect(
        (CLOSURE_TOLERANCE.0..=CLOSURE_TOLERANCE.1).contains(&closure),
        || format!("closure {closure:.3} outside {CLOSURE_TOLERANCE:?}"),
    );
    m.insert(
        "trace.overhead_frac",
        get("ledger.fanout_traced").total_ns as f64
            / get("ledger.fanout_untraced").total_ns.max(1) as f64
            - 1.0,
    );
    m.insert("experiments.cache_load_ms", ms("experiments.check_cache"));
    m.insert("experiments.save_ms", ms("experiments.save"));
    m.insert("experiments.query_build_ms", ms("experiments.query_build"));
    m.insert(
        "experiments.neighbors_us",
        ms("experiments.neighbors") * 1e3 / set.records.len().max(1) as f64,
    );
    m.insert(
        "par.speedup",
        kernel_ns as f64 / get("par.profile_all").total_ns.max(1) as f64,
    );
    m.insert("stats.ga_ms", ms("stats.ga"));
    m.insert("stats.ga_generations", ga.generations_run as f64);
    m.insert("stats.corr_elim_ms", ms("stats.corr_elim"));
    m.insert("stats.distances_ms", ms("stats.distances"));
    m.insert("stats.bic_ms", ms("stats.bic"));
    m.insert("stats.roc_ms", ms("stats.roc"));

    if let Some(path) = &args.spans {
        if let Err(e) = t.write_json(path) {
            checks.expect(false, || {
                format!("cannot write spans to {}: {e}", path.display())
            });
        }
    }

    let metrics: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}:{v:?}", json_string(k)))
        .collect();
    let failures: Vec<String> = checks.failures.iter().map(|f| json_string(f)).collect();
    println!(
        "{{\"backend\":{},\"scale\":{:?},\"spans\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{}}}}}",
        json_string(backend.name()),
        args.scale,
        t.spans().len(),
        checks.attempted,
        checks.failures.len(),
        failures.join(","),
        metrics.join(","),
    );
}
