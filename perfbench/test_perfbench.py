"""Tests of the benchmark's own logic; they need no build.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import tempfile
import unittest

import servemix
import workloads
from harness import percentile, result_line, samples_beyond, tail_percentile

NAMES = [f"Suite/prog{i}/in" for i in range(122)]


def record(name, value):
    return {"name": name, "suite": "Suite", "program": name, "input": "in",
            "paper_icount_millions": 1, "executed_instructions": 10000,
            "mica": {"values": [value] * servemix.NUM_METRICS},
            "hpc": {"ipc_ev56": 1.0, "instructions": 10000}}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(samples_beyond(1000, 0.99), 10)
        self.assertEqual(samples_beyond(999, 0.99), 9)
        self.assertIsNone(tail_percentile(list(range(999)), 0.99))
        self.assertEqual(tail_percentile(list(range(1, 1001)), 0.99), 990)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(tail_percentile(list(range(19)), 0.5))
        self.assertEqual(tail_percentile(list(range(1, 21)), 0.5), 10)

    def test_nearest_rank(self):
        self.assertEqual(percentile([5, 1, 3], 0.5), 3)
        self.assertEqual(percentile([7], 0.99), 7)


class ServeSequence(unittest.TestCase):
    def take(self, seed, conn, n=3000):
        seq = servemix.Sequence(seed, conn, NAMES)
        return [seq.next() for _ in range(n)]

    def test_same_seed_same_sequence(self):
        self.assertEqual(self.take(7, 0), self.take(7, 0))
        self.assertNotEqual(self.take(7, 0), self.take(8, 0))
        self.assertNotEqual(self.take(7, 0), self.take(7, 1))

    def test_mix_and_repeat_shares(self):
        reqs = self.take(7, 0)
        kinds = [r["kind"] for r in reqs]
        for kind, share in (("table", 0.5), ("zoo", 0.4), ("asm", 0.1)):
            self.assertEqual(kinds.count(kind) / len(reqs), share)
        zoo = [servemix.submission_key(r) for r in reqs if r["kind"] == "zoo"]
        repeats = len(zoo) - len(set(zoo))
        self.assertAlmostEqual(repeats / len(zoo), 1 / 3, delta=0.01)

    def test_fresh_zoo_submissions_cover_the_table_evenly(self):
        drawn = []
        for conn in (0, 1):
            seq = servemix.Sequence(7, conn, NAMES)
            drawn.append([seq._next_benchmark() for _ in range(3 * len(NAMES) // 2)])
        self.assertFalse(set(drawn[0]) & set(drawn[1]))
        both = drawn[0] + drawn[1]
        self.assertEqual({both.count(n) for n in NAMES}, {3})

    def test_fresh_zoo_keys_of_two_connections_are_disjoint(self):
        keys = [{servemix.submission_key(r) for r in self.take(7, c) if r["kind"] == "zoo"}
                for c in (0, 1)]
        self.assertFalse(keys[0] & keys[1])


class FailureCounting(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "profiles.json")
        self.records = [record(n, i / 7) for i, n in enumerate(NAMES)]
        self.write({"scale": 1e-9, "fingerprint": 1, "records": self.records})
        self.expected, _ = workloads.profile_digests(self.path)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, data):
        with open(self.path, "w") as f:
            json.dump(data, f)

    def test_fingerprint_change_is_not_a_failure(self):
        self.write({"scale": 1e-9, "fingerprint": 2, "records": self.records})
        self.assertEqual(workloads.check_profiles(self.path, "1e-9", self.expected), [])

    def test_one_changed_bit_fails_one_kernel(self):
        self.records[5]["mica"]["values"][3] = 5 / 7 + 2 ** -50
        self.write({"scale": 1e-9, "fingerprint": 1, "records": self.records})
        failures = workloads.check_profiles(self.path, "1e-9", self.expected)
        self.assertEqual(len(failures), 1)
        self.assertIn(NAMES[5], failures[0])

    def test_corrupted_profiles_json_fails_every_kernel(self):
        with open(self.path, "r+") as f:
            f.truncate(1000)
        rep = workloads.Report()
        rep.count(len(self.expected), workloads.check_profiles(self.path, "1e-9", self.expected))
        self.assertEqual((rep.attempted, rep.failed), (122, 122))
        line = json.loads(result_line(0, rep.attempted, rep.failed, {
            m: 1.0 for m in ("setup_s", "wall_s", "peak_rss_mib", "req_per_s", "req_p50_ms",
                             "req_p99_ms")}))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"] / line["attempted"], 1.0)

    def test_wrong_scale_fails_every_kernel(self):
        self.assertEqual(len(workloads.check_profiles(self.path, "0.1", self.expected)), 122)

    def test_missing_all_children_fail(self):
        failures = workloads.check_all_children(self.dir.name, {})
        self.assertEqual(len(failures), len(workloads.ALL_CHILDREN))


class AnswerChecks(unittest.TestCase):
    def answer(self, vector, cached, status="ok"):
        return {"status": status, "error": None if status == "ok" else "x",
                "result": {"vector": vector, "cached": cached} if status == "ok" else None}

    def setUp(self):
        self.table = {n: [i / 3] * servemix.NUM_METRICS for i, n in enumerate(NAMES)}
        self.checker = servemix.Checker(self.table, {})
        self.checker.new_server()

    def test_table_answer_must_equal_profiles_json(self):
        req = {"id": "a", "kind": "table", "name": NAMES[4]}
        self.assertIsNone(self.checker.check(0, req, self.answer(self.table[NAMES[4]], True)))
        wrong = list(self.table[NAMES[4]])
        wrong[0] += 1e-12
        self.assertIn("differs", self.checker.check(0, req, self.answer(wrong, True)))

    def test_repeated_key_must_be_cached_and_identical(self):
        req = {"id": "z", "kind": "zoo", "name": NAMES[0], "seed": 6}
        vec = [0.5] * servemix.NUM_METRICS
        self.assertIsNone(self.checker.check(0, req, self.answer(vec, False)))
        self.assertIn("cache", self.checker.check(0, req, self.answer(vec, False)))
        self.assertIsNone(self.checker.check(0, req, self.answer(vec, True)))
        self.assertIn("changed", self.checker.check(0, req, self.answer([0.25] * 47, True)))
        self.checker.new_server()
        self.assertIsNone(self.checker.check(0, req, self.answer(vec, False)))

    def test_vectors_must_match_earlier_runs(self):
        req = {"id": "s", "kind": "asm", "asm": servemix.asm_listing(100, 8, 1), "budget": 9}
        key = servemix.submission_key(req)
        checker = servemix.Checker(self.table, {key: servemix.vector_digest([1.0] * 47)})
        checker.new_server()
        self.assertIn("earlier run", checker.check(0, req, self.answer([2.0] * 47, False)))

    def test_refusals_are_failures(self):
        req = {"id": "r", "kind": "table", "name": NAMES[0]}
        self.assertIsNotNone(self.checker.check(0, req, self.answer(None, False, "overloaded")))
        self.assertEqual(self.checker.refused, 1)


if __name__ == "__main__":
    unittest.main()
