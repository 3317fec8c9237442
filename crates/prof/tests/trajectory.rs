//! The committed `BENCH_pipeline.json` trajectory must be able to gate
//! the CI run. `Baseline::comparable` only matches entries recorded with
//! the same bin, threads, scale, backend and table fingerprint; a
//! trajectory recorded against another table makes `mica-prof check` pass
//! vacuously on every run. Re-record it (`mica-prof record`, one `ref`
//! and one `batch` run of `profile` at the CI configuration) whenever the
//! table fingerprint changes.

use mica_experiments::runner::RunSummary;
use mica_prof::baseline::Baseline;
use std::path::Path;

/// The identity of the CI perf-gate run (`MICA_SCALE=1e-9`,
/// `MICA_THREADS=4`) on `backend`; timings are irrelevant to matching.
fn ci_run(backend: &str) -> RunSummary {
    RunSummary {
        bin: "profile".to_string(),
        scale: 1e-9,
        threads: 4,
        backend: backend.to_string(),
        pmu_period: None,
        table_fingerprint: mica_workloads::table_fingerprint(),
        wall_s: 0.0,
        stages: Vec::new(),
        counters: Vec::new(),
        histograms: Vec::new(),
        quarantined: Vec::new(),
    }
}

#[test]
fn committed_trajectory_gates_the_current_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    let base = Baseline::load_or_empty(&path);
    assert!(!base.entries.is_empty(), "{} is missing or unparseable", path.display());
    for backend in ["ref", "batch"] {
        let cur = ci_run(backend);
        let comparable = base.comparable(&cur);
        assert!(
            !comparable.is_empty(),
            "no entry in {} is comparable to a CI `profile` run on backend={backend} with \
             table fingerprint {}: the perf gate would pass vacuously; re-record the trajectory",
            path.display(),
            cur.table_fingerprint
        );
        assert!(
            comparable.iter().all(|e| e.summary.stages.iter().any(|s| s.name == "profile")),
            "comparable {backend} entries must be real `profile` runs with stage timings"
        );
    }
}
