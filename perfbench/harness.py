"""Plumbing shared by every perfbench workload: locating and building the
program, running child processes with the default configuration, the
environment record, percentiles, and the result line."""

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

# Worker threads (MICA_THREADS) and client connections: the nproc of the
# 2-core reference machine. Fixed, so results stay comparable on wider
# machines; the environment record states the real nproc beside it.
THREADS = 2

# Scales the workloads run at: the CI scale, where fixed per-kernel and
# per-process costs dominate, and a scale where per-instruction analysis
# dominates.
CI_SCALE = "1e-9"
DEEP_SCALE = "0.1"

# Longest a child may run before it is killed (and its operation fails).
CHILD_TIMEOUT_S = 120.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    """The benchmark cannot run here: no sources, or the build failed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def root():
    """The checkout the benchmark measures: the working directory."""
    here = os.getcwd()
    if not (os.path.isfile(os.path.join(here, "Cargo.toml"))
            and os.path.isdir(os.path.join(here, "crates", "experiments"))):
        raise BenchError(f"{here} is not a mica-suite checkout (no Cargo.toml and crates/)")
    return here


def target_dir():
    """Cargo's target directory; `.bench_build` unless CARGO_TARGET_DIR says otherwise."""
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def bin_path(name):
    return os.path.join(target_dir(), "release", name)


def _cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=root(), env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"build failed ({' '.join(cmd)}): exit {done.returncode}")


def build(with_ledger):
    """Build the shipped release binaries and, for traced runs, the ledger.
    A no-op rebuild takes about a second, so every run builds."""
    _cargo_build(["-p", "mica-experiments", "-p", "mica-serve"])
    if with_ledger:
        _cargo_build(["--manifest-path", os.path.join(BENCH_DIR, "ledger", "Cargo.toml")])


class Workspace:
    """Scratch space of one benchmark run, inside the target directory and
    removed when the run ends. Every operation gets a fresh results
    directory here, never the repository's `results/`."""

    def __init__(self):
        self.base = os.path.join(target_dir(), "perfbench")
        os.makedirs(self.base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=self.base)
        self._n = 0

    def fresh(self, label):
        self._n += 1
        path = os.path.join(self.dir, f"{self._n:04d}-{label}")
        os.makedirs(path)
        return path

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def child_env(results_dir, scale, extra=None):
    """The users' default configuration: every inherited MICA_* variable is
    dropped (so MICA_BACKEND, MICA_PMU and MICA_ANALYZER_TIMING are unset),
    then only the thread count, scale and results directory are set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MICA_")}
    env.update(MICA_THREADS=str(THREADS), MICA_SCALE=scale, MICA_RESULTS_DIR=results_dir,
               TMPDIR=results_dir)
    env.update(extra or {})
    return env


class Child:
    """A started child process whose end is observed with wait4, which
    gives its peak resident memory (for a process that waits for its own
    children, the maximum over them too)."""

    def __init__(self, argv, env, log_path, stdout=None, timeout=CHILD_TIMEOUT_S):
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=root(), stdout=stdout or self._log,
                                     stderr=self._log, stdin=subprocess.DEVNULL)
        self._timer = threading.Timer(timeout, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()
        self._ended = None

    def signal(self, sig):
        if not self.exited():
            self.proc.send_signal(sig)

    def exited(self):
        """Whether the process has ended; reaps it if so, without blocking."""
        if self._ended is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid == 0:
                return False
            self._ended = (time.perf_counter(), status, usage)
        return True

    def wait(self):
        """Returns (wall seconds since start, exit code, peak RSS in MiB)."""
        if self._ended is None:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self._ended = (time.perf_counter(), status, usage)
        ended, status, usage = self._ended
        wall = ended - self.started
        self._timer.cancel()
        self._log.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, self.proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            if not self.exited():
                self.proc.kill()
            self.wait()


def run_child(argv, env, log_path):
    return Child(argv, env, log_path).wait()


def launch_probe(ws):
    """Start the `profile` binary on a scale it must reject and wait for it.
    This is what a cold profiling workload does before its first measured
    operation: it proves the binary starts and resolves its configuration,
    and it pays the process's start-up work."""
    started = time.perf_counter()
    results = ws.fresh("probe")
    _, code, _ = run_child([bin_path("profile")], child_env(results, "0"),
                           os.path.join(results, "log"))
    elapsed = time.perf_counter() - started
    if code != 1:
        raise BenchError(f"launch probe: profile exited {code} on MICA_SCALE=0, expected 1")
    return elapsed


# --- statistics --------------------------------------------------------

def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank percentile, q in (0, 1)."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - math.ceil(q * n)


def tail_percentile(xs, q):
    """The q-percentile, only when at least ten samples lie beyond it
    (p99 therefore needs 1 000 samples); None otherwise."""
    if samples_beyond(len(xs), q) < 10:
        return None
    return percentile(xs, q)


# --- environment record -------------------------------------------------

def _tree_digest(top):
    """Content digest of the sources, standing in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    skip = {".git", "target", ".bench_build", "results"}
    for base in ("Cargo.toml", "Cargo.lock", "crates", "compat", "src"):
        path = os.path.join(top, base)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, top).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return "tree-sha256:" + h.hexdigest()[:16]


def _output(cmd):
    try:
        done = subprocess.run(cmd, cwd=root(), capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload, seed, trace, backend, env):
    return {
        "commit": _output(["git", "rev-parse", "HEAD"]) or _tree_digest(root()),
        "rustc": _output(["rustc", "-V"]),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "build_profile": "release",
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": backend,
        "mica_env": {k: v for k, v in sorted(env.items()) if k.startswith("MICA_")},
    }


# --- result line ---------------------------------------------------------

def contract_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json promises for this mode."""
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(trace, attempted, failed, values):
    metrics = {}
    for name, unit in contract_metrics(trace):
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
