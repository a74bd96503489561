"""Negative tests of the benchmark's correctness checks: each check must
fire on a corrupted output and stay quiet on the correct one.

    python3 -m unittest discover -s perfbench/tests
"""

import hashlib
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import checks  # noqa: E402
import run  # noqa: E402

TABLE = (b"Table 4: CPU systems\n+---------+-------+\n| Trinity | 1.234 |\n"
         b"+---------+-------+\n\n")


def flip(data, at):
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


class ByteIdentity(unittest.TestCase):
    """table all vs --jobs 1, and merged journal/store vs --jobs 1."""

    def test_identical_passes(self):
        self.assertIsNone(checks.same_bytes(TABLE, TABLE, "table all"))

    def test_flipped_byte_fires_and_names_offset(self):
        problem = checks.same_bytes(flip(TABLE, 30), TABLE, "table all")
        self.assertIn("byte 30", problem)

    def test_truncated_output_fires(self):
        self.assertIsNotNone(checks.same_bytes(TABLE[:-1], TABLE, "table all"))

    def test_corrupted_merged_journal_fires(self):
        journal = bytes(random.Random(1).randrange(256) for _ in range(4096))
        problem = checks.same_bytes(flip(journal, 4000), journal, "merged journal")
        self.assertIn("byte 4000", problem)

    def test_exit_code(self):
        self.assertIsNone(checks.exit_code(0, 0, "table all"))
        self.assertIsNotNone(checks.exit_code(1, 0, "table all"))


class Trace(unittest.TestCase):
    GOOD = json.dumps({"traceEvents": [{"name": "send", "ph": "X"}]}).encode()

    def test_well_formed_trace_passes(self):
        self.assertIsNone(checks.trace_well_formed(self.GOOD))

    def test_truncated_trace_fires(self):
        self.assertIsNotNone(checks.trace_well_formed(self.GOOD[:-3]))

    def test_trace_without_events_fires(self):
        self.assertIsNotNone(checks.trace_well_formed(b'{"traceEvents": []}'))

    def test_changed_trace_bytes_fire(self):
        first = hashlib.sha256(self.GOOD).digest()
        later = hashlib.sha256(flip(self.GOOD, 5)).digest()
        self.assertIsNone(checks.trace_stable(first, first))
        self.assertIsNotNone(checks.trace_stable(later, first))


class Gate(unittest.TestCase):
    PASS = b"gate: 108 cell(s) compared, 0 regression(s) at threshold 2.00% -> PASS\n"
    FAIL = (b"REGRESSION: Trinity / on-node latency / latency: +15.64%\n"
            b"gate: 108 cell(s) compared, 53 regression(s) at threshold 2.00% -> FAIL\n")

    def test_expected_verdicts_pass(self):
        self.assertIsNone(checks.gate_verdict(0, self.PASS, expect_regression=False))
        self.assertIsNone(checks.gate_verdict(3, self.FAIL, expect_regression=True))

    def test_clean_pair_that_fails_fires(self):
        self.assertIsNotNone(checks.gate_verdict(3, self.FAIL, expect_regression=False))

    def test_regression_pair_that_passes_fires(self):
        self.assertIsNotNone(checks.gate_verdict(0, self.PASS, expect_regression=True))

    def test_exit_code_disagreeing_with_verdict_fires(self):
        self.assertIsNotNone(checks.gate_verdict(0, self.FAIL, expect_regression=True))
        self.assertIsNotNone(checks.gate_verdict(1, b"", expect_regression=False))


class Resume(unittest.TestCase):
    def test_appended_journal_fires(self):
        self.assertIsNone(checks.unchanged_by_resume(b"NBJ1", b"NBJ1", "journal"))
        self.assertIsNotNone(checks.unchanged_by_resume(b"NBJ1", b"NBJ1+rec", "journal"))


class Serve(unittest.TestCase):
    DONE = {"id": "req-000007", "tenant": "c0", "state": "done",
            "tables": {"4": TABLE.decode()}, "incidents": []}

    def body(self, **changes):
        return json.dumps(dict(self.DONE, **changes)).encode()

    def test_completed_request_passes(self):
        problem, doc = checks.serve_done(200, self.body())
        self.assertIsNone(problem)
        self.assertEqual(doc["tables"], self.DONE["tables"])

    def test_refused_request_fires(self):
        self.assertIsNotNone(checks.serve_done(429, b'{"error": "rejected"}')[0])

    def test_failed_or_incident_request_fires(self):
        self.assertIsNotNone(checks.serve_done(200, self.body(state="failed"))[0])
        incident = [{"machine": "Eagle", "cell": "on-node latency", "failed": True}]
        self.assertIsNotNone(checks.serve_done(200, self.body(incidents=incident))[0])
        self.assertIsNotNone(checks.serve_done(200, b"{truncated")[0])

    def test_memo_hit_differing_from_first_cold_result_fires(self):
        primed = self.DONE["tables"]
        self.assertIsNone(checks.memo_hit_matches(self.DONE, primed))
        corrupted = dict(self.DONE, tables={"4": TABLE.decode().replace("1.234", "1.235")})
        self.assertIsNotNone(checks.memo_hit_matches(corrupted, primed))

    def test_get_differing_from_its_post_fires(self):
        posted = self.body()
        self.assertIsNone(checks.get_matches(200, posted, posted))
        self.assertIsNotNone(checks.get_matches(200, flip(posted, 10), posted))
        self.assertIsNotNone(checks.get_matches(404, posted, posted))

    def test_cold_result_differing_from_cli_fires(self):
        ascii_table = TABLE.decode()
        cli = (ascii_table + "\n").encode()
        self.assertIsNone(checks.cold_matches_cli(ascii_table, cli, 117))
        self.assertIsNotNone(checks.cold_matches_cli(ascii_table, flip(cli, 40), 117))


class Snapshot(unittest.TestCase):
    def snapshot(self, build_type="Release", sanitize="", coverage="OFF"):
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "CMakeCache.txt").write_text(
                f"CMAKE_BUILD_TYPE:STRING={build_type}\n"
                f"CMAKE_CXX_COMPILER:FILEPATH=/nonexistent/c++\n"
                f"NODEBENCH_SANITIZE:STRING={sanitize}\n"
                f"NODEBENCH_COVERAGE:BOOL={coverage}\n")
            (Path(d) / "src").mkdir()
            return checks.build_snapshot(d, d)

    def test_snapshot_records_the_build(self):
        snap = self.snapshot()
        for key in ("nproc", "cpu_model", "compiler", "build_type", "sanitize",
                    "coverage", "git_rev"):
            self.assertIn(key, snap)
        self.assertEqual(snap["build_type"], "Release")
        self.assertIsNone(checks.unmeasurable(snap))

    def test_debug_sanitizer_and_coverage_builds_are_refused(self):
        self.assertIsNotNone(checks.unmeasurable(self.snapshot(build_type="Debug")))
        self.assertIsNotNone(checks.unmeasurable(self.snapshot(build_type="")))
        self.assertIsNotNone(checks.unmeasurable(self.snapshot(sanitize="address")))
        self.assertIsNotNone(checks.unmeasurable(self.snapshot(coverage="ON")))


class Method(unittest.TestCase):
    def test_seeded_order_keeps_dependencies_and_repeats_per_seed(self):
        steps = ["journaled", "resume", "supervise", "gate_clean", "gate_regress"]
        after = {"resume": "journaled", "gate_clean": "supervise"}
        orders = set()
        for seed in range(40):
            order = run.seeded_order(random.Random(seed), steps, after)
            self.assertEqual(order, run.seeded_order(random.Random(seed), steps, after))
            self.assertLess(order.index("journaled"), order.index("resume"))
            self.assertLess(order.index("supervise"), order.index("gate_clean"))
            orders.add(tuple(order))
        self.assertGreater(len(orders), 1)

    def test_timing_is_the_lowest_median_of_the_complete_windows(self):
        # Windows 0 and 1 are complete; window 2 is the partial tail of the
        # run and is left out, however fast its samples were.
        samples = [(0, 5.0), (0, 6.0), (0, 7.0), (1, 4.0), (1, 9.0), (1, 4.5),
                   (2, 1.0)]
        groups = run.window_groups(samples, 2)
        self.assertEqual(groups, [[5.0, 6.0, 7.0], [4.0, 9.0, 4.5]])
        self.assertEqual(run.lowest_median(groups), 4.5)
        # Serve-mix blocks: a time past the end of the run is in the last.
        self.assertEqual(run.window_of(8.2, (0.0, 8.0), 8), 7)

    def test_percentile_rule_needs_ten_samples_beyond(self):
        self.assertIn("no percentile", run.describe("x_ms", [1.0] * 19, "ms"))
        self.assertIn("p75=", run.describe("x_ms", [1.0] * 40, "ms"))
        self.assertIn("p90=", run.describe("x_ms", [1.0] * 100, "ms"))
        self.assertIn("p99=", run.describe("x_ms", [1.0] * 1000, "ms"))


class Declaration(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics the runner prints."""

    def test_metric_names_and_units_match_the_runner(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         {name: unit for name, (unit, _) in run.LAYER_METRICS.items()})
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.DECLARED))


if __name__ == "__main__":
    unittest.main()
