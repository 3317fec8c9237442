"""The four workloads and the traced run. Each returns a Report: the
metrics it measured, the operations it attempted and failed, and what it
learned about the program's configuration for the environment record."""

import hashlib
import json
import os
import shutil
import time

import servemix
from harness import (BENCH_DIR, CI_SCALE, DEEP_SCALE, BenchError, Child, bin_path, child_env,
                     launch_probe, median, run_child)

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

# The eight children `all` runs, in order, with the CSVs each writes.
ALL_CHILDREN = {
    "table1": ["table1.csv"],
    "fig1": ["fig1.csv"],
    "table3": ["table3.csv"],
    "fig2_fig3": ["fig2.csv", "fig3.csv", "fig3_false_positive.csv"],
    "fig4": ["fig4.csv"],
    "fig5": ["fig5.csv"],
    "table4": ["table4.csv"],
    "fig6": ["fig6_clusters.csv"],
}

# Set-ups per run; set-up time is their median.
SETUPS = 3
LAUNCH_PROBES = 5


class Report:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failures = []
        self.backend = None

    def count(self, attempted, failures):
        """Add `attempted` operations, of which each entry of `failures` failed."""
        self.attempted += attempted
        self.failures.extend(failures)

    @property
    def failed(self):
        return len(self.failures)


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def record_digest(record):
    """Digest of one profile record: its 47-metric vector, its HPC profile
    and its identity. The set's `fingerprint` is not part of any record, so
    a change of fingerprint scheme alone does not fail the check."""
    return digest(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())


def profile_digests(path):
    """{benchmark name: record digest} of a profiles.json, and its scale."""
    with open(path) as f:
        data = json.load(f)
    return {r["name"]: record_digest(r) for r in data["records"]}, data["scale"]


def check_profiles(path, scale, expected):
    """One failure per kernel whose record is missing or differs, bit for
    bit, from the kept digest; every kernel fails if the file is unusable."""
    try:
        got, got_scale = profile_digests(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: unusable profiles.json ({e.__class__.__name__}: {e})"] * len(expected)
    if got_scale != float(scale):
        return [f"{path}: scale {got_scale}, expected {scale}"] * len(expected)
    return [f"{name}: record missing or different from the kept digest"
            for name, want in expected.items() if got.get(name) != want]


def summary_backend(results):
    try:
        with open(os.path.join(results, "run-profile.json")) as f:
            return json.load(f)["backend"]
    except (OSError, ValueError, KeyError):
        return None


def profile_once(ws, scale, expected, label="profile"):
    """One cold `profile` process; returns (wall s, peak RSS MiB, results
    dir, failures)."""
    results = ws.fresh(label)
    wall, code, rss = run_child([bin_path("profile")], child_env(results, scale),
                                os.path.join(results, "log"))
    if code != 0:
        return wall, rss, results, [f"profile exited {code} (log {results}/log)"] * len(expected)
    return wall, rss, results, check_profiles(os.path.join(results, "profiles.json"), scale,
                                              expected)


def cli_metrics(setups, walls, rss):
    """End-to-end metrics of a workload whose operation is one CLI process.
    Its requests are those processes: a closed loop of one client."""
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mib": median(rss),
        "req_per_s": len(walls) / sum(walls),
        "req_p50_ms": median(walls) * 1e3,
        # A run holds tens of processes at most, too few for any percentile
        # with ten samples beyond it; the slowest one stands for the tail.
        "req_p99_ms": max(walls) * 1e3,
    }


def run_profile(ws, scale, seconds):
    """profile-fixed / profile-deep: cold `profile` processes back to back."""
    rep = Report()
    expected = load_expected()["profiles"][scale]
    setups = [launch_probe(ws) for _ in range(LAUNCH_PROBES)]
    walls, rss = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        wall, peak, results, failures = profile_once(ws, scale, expected)
        walls.append(wall)
        rss.append(peak)
        rep.count(len(expected), failures)
        rep.backend = rep.backend or summary_backend(results)
    rep.metrics = cli_metrics(setups, walls, rss)
    return rep


def prime(ws, rep, expected):
    """Profile at the CI scale into a fresh directory: the cache `all-warm`
    and `serve-mixed` start from. Its kernels count as operations."""
    wall, _, results, failures = profile_once(ws, CI_SCALE, expected, "prime")
    rep.count(len(expected), failures)
    rep.backend = rep.backend or summary_backend(results)
    return wall, os.path.join(results, "profiles.json")


def check_all_children(results, expected_csv):
    """One failure per `all` child that did not run, did not reuse the
    cache, or wrote a CSV that differs from the kept digest."""
    failures = []
    for child, csvs in ALL_CHILDREN.items():
        try:
            with open(os.path.join(results, f"run-{child}.json")) as f:
                counters = {c["name"]: c["value"] for c in json.load(f)["counters"]}
        except (OSError, ValueError, KeyError, TypeError):
            failures.append(f"{child}: no run summary (did not run or did not finish)")
            continue
        if counters.get("profile.cache.hit") != 1:
            failures.append(f"{child}: profile.cache.hit = {counters.get('profile.cache.hit')}")
            continue
        bad = []
        for name in csvs:
            try:
                with open(os.path.join(results, name), "rb") as f:
                    if digest(f.read()) != expected_csv[name]:
                        bad.append(name)
            except OSError:
                bad.append(name)
        if bad:
            failures.append(f"{child}: {', '.join(bad)} differ from the kept digest")
    return failures


def run_all(ws, seconds):
    """all-warm: `all` over a cache this run primed itself."""
    rep = Report()
    expected = load_expected()
    setups, cache = [], None
    for _ in range(SETUPS):
        wall, cache = prime(ws, rep, expected["profiles"][CI_SCALE])
        setups.append(wall)
    walls, rss = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        results = ws.fresh("all")
        shutil.copy(cache, os.path.join(results, "profiles.json"))
        wall, code, peak = run_child([bin_path("all")], child_env(results, CI_SCALE),
                                     os.path.join(results, "log"))
        walls.append(wall)
        rss.append(peak)
        failures = check_all_children(results, expected["all_csv"])
        if code != 0 and not failures:
            failures = [f"all exited {code}"]
        rep.count(len(ALL_CHILDREN), failures)
    rep.metrics = cli_metrics(setups, walls, rss)
    return rep


def known_vectors_path(ws, seed):
    return os.path.join(ws.base, f"serve-vectors-{seed}.json")


def serve_traffic(ws, rep, seed, seconds, cache):
    """SETUPS servers one after another: each boots (set-up time is spawn
    to its first `ready`), serves its own seeded stream of the mix for
    `seconds / SETUPS`, and drains. Returns (ready times, latencies ms,
    serving wall s, each server's peak RSS MiB up to its drain, access log
    rows, checker)."""
    table = servemix.table_vectors(cache)
    known_path = known_vectors_path(ws, seed)
    checker = servemix.Checker(table, servemix.load_known(known_path))
    ready, latencies, peaks, rows, wall = [], [], [], [], 0.0
    for i in range(SETUPS):
        server = servemix.Server(ws, cache, seconds)
        ready.append(server.wait_ready())
        try:
            wall += servemix.run_session(server.port, f"{seed}/{i}", checker, latencies,
                                         seconds / SETUPS, -(-servemix.MIN_REQUESTS // SETUPS))
            peak = server.peak_rss_mib()
        finally:
            code, rss, log = server.drain()
        peaks.append(peak or rss)
        rows.extend(log)
        rep.count(1, [] if code == 0 else [f"mica-serve drained with exit {code}"])
    servemix.save_known(known_path, checker.known)
    rep.count(len(latencies), checker.failures)
    return ready, latencies, wall, peaks, rows, checker


def run_serve(ws, seed, seconds):
    """serve-mixed: the seeded mix over THREADS connections."""
    rep = Report()
    expected = load_expected()["profiles"][CI_SCALE]
    _, cache = prime(ws, rep, expected)
    ready, latencies, wall, peaks, _, _ = serve_traffic(ws, rep, seed, seconds, cache)
    rep.metrics = servemix.latency_metrics(latencies, wall)
    rep.metrics.update(setup_s=median(ready), wall_s=median(latencies) / 1e3,
                       peak_rss_mib=median(peaks))
    return rep


def run_trace(ws, workload, seed, seconds):
    """The traced run: the ledger at the workload's scale (0.1 for
    profile-deep, the CI scale otherwise), then a serve session for the
    serve.* metrics. Its spans are kept in `<target>/perfbench/last-trace.json`."""
    rep = Report()
    scale = DEEP_SCALE if workload == "profile-deep" else CI_SCALE
    expected = load_expected()["profiles"]
    work = ws.fresh("ledger")
    out_path = os.path.join(work, "ledger.json")
    spans = os.path.join(ws.base, "last-trace.json")
    with open(out_path, "wb") as out:
        child = Child([bin_path("ledger"), "--scale", scale, "--spans", spans, "--work", work],
                      child_env(work, scale), os.path.join(work, "log"), stdout=out)
        _, code, _ = child.wait()
    if code != 0:
        raise BenchError(f"ledger exited {code} (log {work}/log)")
    with open(out_path) as f:
        ledger = json.load(f)
    rep.backend = ledger["backend"]
    rep.metrics.update(ledger["metrics"])
    rep.count(ledger["attempted"], ledger["failures"])
    rep.count(len(expected[scale]),
              check_profiles(os.path.join(work, "profiles.json"), scale, expected[scale]))

    _, cache = prime(ws, rep, expected[CI_SCALE])
    _, latencies, _, _, rows, checker = serve_traffic(ws, rep, seed, seconds / 2, cache)
    rep.metrics.update(servemix.access_metrics(rows, checker, len(latencies)))
    return rep


def record_expected(ws):
    """Write expected.json from the current build: per-kernel record
    digests at both scales, and the CSV digests of a warm `all`."""
    out = {"profiles": {}, "all_csv": {}}
    for scale in (CI_SCALE, DEEP_SCALE):
        results = ws.fresh("record")
        _, code, _ = run_child([bin_path("profile")], child_env(results, scale),
                               os.path.join(results, "log"))
        if code != 0:
            raise BenchError(f"profile exited {code} at scale {scale}")
        out["profiles"][scale], _ = profile_digests(os.path.join(results, "profiles.json"))
        if scale == CI_SCALE:
            _, code, _ = run_child([bin_path("all")], child_env(results, scale),
                                   os.path.join(results, "log"))
            if code != 0:
                raise BenchError(f"all exited {code}")
            for csvs in ALL_CHILDREN.values():
                for name in csvs:
                    with open(os.path.join(results, name), "rb") as f:
                        out["all_csv"][name] = digest(f.read())
    with open(EXPECTED_PATH, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
