"""The serve-mixed traffic: a seeded request sequence per connection, a
closed-loop client over THREADS connections, server boot and drain, and
the checks that count wrong answers as failures."""

import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import threading
import time

from harness import (CHILD_TIMEOUT_S, CI_SCALE, THREADS, BenchError, Child, bin_path,
                     child_env, median, tail_percentile)

# The mix, as one block of 30 requests per connection in seeded order:
# 50% table lookups, 40% zoo submissions and 10% asm kernels, a third of
# the zoo and asm ones repeating an earlier key of the same connection
# (closed loop: that earlier answer is already in the index). Fixed
# blocks instead of independent draws keep every run's composition, and
# so the bimodal latency mix, the same.
BLOCK = (["table"] * 15 + ["zoo"] * 8 + ["zoo-repeat"] * 4 + ["asm"] * 2
         + ["asm-repeat"] * 1)
# Explicit asm budget: every listing halts well before it, and a fixed
# budget keeps the answer independent of deadline-derived fuel.
ASM_BUDGET = 100_000
STRIDES = (8, 16, 64, 4096)
MASKS = (1, 3, 7)
# p99 needs ten samples beyond it.
MIN_REQUESTS = 1000
NUM_METRICS = 47
READY_TIMEOUT_S = 60.0

_LISTENING = re.compile(rb"listening on 127\.0\.0\.1:(\d+)")


def asm_listing(n, stride, mask):
    """A small halting kernel: a strided load/store walk with a
    data-dependent branch, n iterations of nine instructions."""
    return "\n".join([
        f"li x7, {n}",
        "li x8, 1048576",
        "loop:",
        "ld8 x9, 0(x8)",
        "add x10, x10, x9",
        "st8 x10, 8(x8)",
        f"addi x8, x8, {stride}",
        f"andi x11, x7, {mask}",
        "beq x11, x0, skip",
        "addi x12, x12, 1",
        "skip:",
        "addi x7, x7, -1",
        "bne x7, x0, loop",
        "halt",
    ])


class Sequence:
    """The requests one connection sends, a pure function of the stream
    (workload seed and server), the connection index and the reference
    benchmark names."""

    def __init__(self, stream, conn, names):
        self.rng = random.Random(f"perfbench/serve-mixed/{stream}/{conn}")
        self.conn = conn
        self.names = sorted(names)
        split = random.Random(f"perfbench/serve-mixed/{stream}")
        self.share = split.sample(self.names, len(self.names))[conn::THREADS]
        self.zoo = []
        self.asm = []
        self.order = []
        self.slots = []
        self.count = 0

    def _pick(self, seen, repeat, fresh):
        if repeat and seen:
            return self.rng.choice(seen)
        key = fresh()
        seen.append(key)
        return key

    def _next_benchmark(self):
        """Fresh zoo submissions walk seeded shuffles of this connection's
        share of the table. Every run builds each kernel (blast's 8 MiB
        database included) equally often, so the tail does not hinge on how
        often the few heavy kernels happen to be drawn; and no kernel is
        built by both connections, so the server's peak memory does not
        hinge on two heavy builds happening to coincide."""
        if not self.order:
            self.order = self.rng.sample(self.share, len(self.share))
        return self.order.pop()

    def next(self):
        self.count += 1
        rid = f"c{self.conn}-{self.count}"
        if not self.slots:
            self.slots = self.rng.sample(BLOCK, len(BLOCK))
        slot = self.slots.pop()
        repeat = slot.endswith("-repeat")
        if slot == "table":
            return {"id": rid, "kind": "table", "name": self.rng.choice(self.names)}
        if slot.startswith("zoo"):
            # The low bit carries the connection, so fresh keys of two
            # connections never collide and every repeat is a true repeat.
            name, data_seed = self._pick(self.zoo, repeat, lambda: (
                self._next_benchmark(), (self.rng.getrandbits(31) << 1) | self.conn))
            return {"id": rid, "kind": "zoo", "name": name, "seed": data_seed}
        params = self._pick(self.asm, repeat, lambda: (
            self.rng.randint(100, 3000), self.rng.choice(STRIDES), self.rng.choice(MASKS)))
        return {"id": rid, "kind": "asm", "asm": asm_listing(*params), "budget": ASM_BUDGET}


def submission_key(req):
    if req["kind"] == "zoo":
        return f"zoo|{req['name']}|{req['seed']}"
    if req["kind"] == "asm":
        text = hashlib.sha256(req["asm"].encode()).hexdigest()[:16]
        return f"asm|{text}|{req['budget']}"
    return None


def vector_digest(vector):
    return hashlib.sha256(json.dumps(vector).encode()).hexdigest()[:16]


class Checker:
    """Judges each answer. `table` answers must equal their profiles.json
    record; a repeated zoo/asm key must come back cached with the vector of
    its first answer; and a zoo/asm vector must equal the one any earlier
    run recorded for the same key (`known`, keyed by submission key)."""

    def __init__(self, table, known):
        self.table = table
        self.known = known
        self.first = None
        self.failures = []
        self.ok = 0
        self.cached = 0
        self.refused = 0

    def new_server(self):
        """A fresh server has an empty index: forget the first answers."""
        self.first = [{} for _ in range(THREADS)]

    def check(self, conn, req, resp):
        """Returns None when the answer is right, else why it is not."""
        status = resp.get("status")
        if status != "ok":
            if status in ("overloaded", "draining"):
                self.refused += 1
            return f"{req['id']} ({req['kind']}): status {status}: {resp.get('error')}"
        self.ok += 1
        result = resp.get("result") or {}
        vector = result.get("vector")
        if not isinstance(vector, list) or len(vector) != NUM_METRICS:
            return f"{req['id']}: answer has no {NUM_METRICS}-metric vector"
        if result.get("cached") is True:
            self.cached += 1
        if req["kind"] == "table":
            if vector != self.table.get(req["name"]):
                return f"{req['id']}: table answer for {req['name']} differs from profiles.json"
            return None
        key = submission_key(req)
        first = self.first[conn].get(key)
        if first is not None:
            if result.get("cached") is not True:
                return f"{req['id']}: repeated key {key} was not answered from the cache"
            if vector != first:
                return f"{req['id']}: repeated key {key} changed its vector"
        else:
            self.first[conn][key] = vector
        digest = vector_digest(vector)
        if self.known.setdefault(key, digest) != digest:
            return f"{req['id']}: {key} differs from the vector an earlier run recorded"
        return None


def table_vectors(profiles_path):
    with open(profiles_path) as f:
        data = json.load(f)
    return {r["name"]: r["mica"]["values"] for r in data["records"]}


class Server:
    """One mica-serve process on an ephemeral port, in its own results
    directory seeded with the primed profile cache."""

    def __init__(self, ws, cache, seconds):
        self.results = ws.fresh("serve")
        shutil.copy(cache, os.path.join(self.results, "profiles.json"))
        env = child_env(self.results, CI_SCALE, {"MICA_SERVE_ADDR": "127.0.0.1:0"})
        self.log = os.path.join(self.results, "serve.log")
        self.child = Child([bin_path("mica-serve")], env, self.log,
                           timeout=READY_TIMEOUT_S + seconds + CHILD_TIMEOUT_S)
        self.port = None

    def wait_ready(self):
        """Seconds from spawn until `ops ready` first answers true."""
        deadline = self.child.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.port is None:
                with open(self.log, "rb") as f:
                    found = _LISTENING.search(f.read())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None and self._ready():
                return time.perf_counter() - self.child.started
            if self.child.exited():
                break
            time.sleep(0.002)
        self.child.kill()
        raise BenchError(f"mica-serve never became ready (log: {self.log})")

    def _ready(self):
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=5) as s:
                s.sendall(b'{"id":"ready","kind":"ops","op":"ready"}\n')
                line = s.makefile("rb").readline()
            return json.loads(json.loads(line)["ops"])["ready"] is True
        except (OSError, ValueError, KeyError, TypeError):
            return False

    def peak_rss_mib(self):
        """The server's peak resident memory so far (VmHWM), or None where
        /proc is unavailable. Read before the drain, so it covers boot and
        traffic but not the shutdown's one-off serialization."""
        try:
            with open(f"/proc/{self.child.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def drain(self):
        """SIGTERM, wait; returns (exit code, peak RSS MiB, access log rows)."""
        self.child.signal(signal.SIGTERM)
        _, code, rss = self.child.wait()
        rows = []
        path = os.path.join(self.results, "serve-access.jsonl")
        if os.path.exists(path):
            with open(path) as f:
                rows = [json.loads(line) for line in f if line.strip()]
        return code, rss, rows


def run_session(port, stream, checker, latencies, seconds, min_requests):
    """Closed loop on one fresh server: each connection sends its next
    request only after the previous answer arrived, until `seconds` have
    passed and at least `min_requests` were answered. Appends every
    answered request's latency (ms) to `latencies`; returns the wall time."""
    checker.new_server()
    lock = threading.Lock()
    done = [0]
    started = time.perf_counter()
    stop_at = started + seconds

    def client(conn):
        seq = Sequence(stream, conn, checker.table)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                reader = sock.makefile("rb")
                while True:
                    with lock:
                        if time.perf_counter() >= stop_at and done[0] >= min_requests:
                            return
                    req = seq.next()
                    line = (json.dumps(req) + "\n").encode()
                    t0 = time.perf_counter()
                    sock.sendall(line)
                    raw = reader.readline()
                    ms = (time.perf_counter() - t0) * 1e3
                    if not raw:
                        raise OSError("server closed the connection")
                    answer = json.loads(raw)
                    with lock:
                        latencies.append(ms)
                        done[0] += 1
                        problem = checker.check(conn, req, answer)
                        if problem:
                            checker.failures.append(problem)
        except (OSError, ValueError) as e:
            with lock:
                checker.failures.append(f"connection {conn}: {e}")

    threads = [threading.Thread(target=client, args=(c,)) for c in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - started


def latency_metrics(latencies, wall):
    p99 = tail_percentile(latencies, 0.99)
    if p99 is None:
        raise BenchError(f"{len(latencies)} requests are too few for a p99")
    return {"req_per_s": len(latencies) / wall, "req_p50_ms": median(latencies),
            "req_p99_ms": p99}


def access_metrics(rows, checker, attempted):
    """serve.* per-layer metrics from the drained access log and answers."""
    data = [r for r in rows if r.get("kind") in ("table", "zoo", "asm")]
    waits = [r["queue_wait_us"] / 1e3 for r in data]
    p99 = tail_percentile(waits, 0.99)
    if p99 is None:
        raise BenchError(f"access log has {len(waits)} data-plane rows, too few for a p99")
    out = {
        "serve.queue_wait_ms_p50": median(waits),
        "serve.queue_wait_ms_p99": p99,
        "serve.cache_hit_frac": checker.cached / max(1, checker.ok),
        "serve.refused_frac": checker.refused / max(1, attempted),
    }
    for kind in ("table", "zoo", "asm"):
        execs = [r["exec_us"] / 1e3 for r in data if r["kind"] == kind and r["outcome"] == "ok"]
        out[f"serve.exec_{kind}_ms_p50"] = median(execs) if execs else 0.0
    return out


def load_known(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def save_known(path, known):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, sort_keys=True)
    os.replace(tmp, path)
