"""Self-tests of the benchmark's generator, checks and tracing.

    python3 e2ebench/selftest.py

Run from the root of a presh checkout.  The file name keeps it out of the
repository's pytest run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import presh.cli  # noqa: E402
from presh.dsl import parse_model  # noqa: E402
from presh.lattice import Subset  # noqa: E402
from presh.model import oracle_sections  # noqa: E402


def _cli(workload: inputs.Workload, directory: Path, op: str) -> tuple[int, str]:
    workspace = inputs.write(workload, directory)
    argv = ["--workspace", str(workspace), "--max-enum", str(workload.max_enum())]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = presh.cli.main(argv + workload.commands()[op])
    return code, out.getvalue()


class Generator(unittest.TestCase):
    def test_same_seed_gives_byte_identical_files(self):
        for name in inputs.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                inputs.write(inputs.build(name, 7), Path(a))
                inputs.write(inputs.build(name, 7), Path(b))
                for path in Path(a).iterdir():
                    self.assertEqual(path.read_bytes(), (Path(b) / path.name).read_bytes())
        self.assertNotEqual(inputs.build("merge", 1).files, inputs.build("merge", 2).files)

    def test_chain_closed_form_matches_the_oracle(self):
        n, k = 5, 4
        spec = inputs._chain_spec("Small", 0, n - 1, k)
        model = parse_model(spec.text())
        for size in range(n + 1):
            for positions in combinations(range(n), size):
                obj = Subset(f"x{i:02d}" for i in positions)
                self.assertEqual(inputs.chain_object_count(positions, k),
                                 len(oracle_sections(model, obj)), str(obj))
        full = oracle_sections(model, Subset(spec.fibers))
        pins = {1: 0, 3: 2}
        pinned = [a for a in full if a.values[1] == "v0" and a.values[3] == "v2"]
        self.assertEqual(inputs.chain_walks(n, k, pins), len(pinned))

    def test_blocking_search_finds_the_gap(self):
        spec = inputs._chain_spec("Small", 0, 5, 4)
        self.assertEqual(inputs.blocking_scopes(spec, {"x01": "v0", "x03": "v3"}),
                         [("x01", "x02", "x03")])
        self.assertEqual(inputs.blocking_scopes(spec, {"x01": "v0", "x04": "v3"}), [])


class Checks(unittest.TestCase):
    def test_dropped_section_counts_as_a_failed_operation(self):
        workload = inputs.build("hub", 0)
        expected = verify.Expected(workload)
        with tempfile.TemporaryDirectory() as tmp:
            code, good = _cli(workload, Path(tmp), "sections")
        self.assertIsNone(expected.check("sections", code, good))
        body = json.loads(good)
        body["sections"].pop()
        body["count"] -= 1
        bad = json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
        self.assertIsNotNone(expected.check("sections", code, bad))
        record = {"traced": False, "setup": [0.1, 0.002], "batches": [],
                  "query_calibration": 0.002,
                  "ops": [["sections", 0.1, 0.002, 0, 0, ""], ["sections", 0.1, 0.002, 0, 1, ""]]}
        expected.query_counts = []
        attempted, failed, _, _ = run.tally({"rounds": [record], "outputs": [good, bad]},
                                            expected)
        self.assertEqual((attempted, failed), (3, 1))

    def test_samples_are_scaled_by_their_calibration(self):
        record = {"traced": False, "setup": [0.1, run.CALIBRATION_S],
                  "query_calibration": 2 * run.CALIBRATION_S,
                  "batches": [[1e-5, [4]], [3e-5, [4]]],
                  "ops": [["count", 0.4, 2 * run.CALIBRATION_S, 0, 0, ""]]}
        expected = verify.Expected(inputs.build("hub", 0))
        expected.check = lambda op, code, out: None
        expected.query_counts = [4, 4]
        _, _, times, _ = run.tally({"rounds": [record], "outputs": [""]}, expected)
        typical = run.medians({op: t for op, t in times.items() if t})
        self.assertAlmostEqual(typical["setup"], 0.1)
        self.assertAlmostEqual(typical["count"], 0.2)
        self.assertAlmostEqual(typical["query"], 1e-5)


class Tracing(unittest.TestCase):
    def test_missing_hook_is_absent_and_reads_zero(self):
        tracer = spans.Tracer()
        hooks = spans.HOOKS
        spans.HOOKS = tuple(  # as if a later change renamed transfer
            (name, module, "renamed" if name == "ops.transfer" else attr, measure)
            for name, module, attr, measure in hooks
        )
        try:
            tracer.install()
            tracer.run = 1
            workload = inputs.build("hub", 0)
            with tempfile.TemporaryDirectory() as tmp:
                code, _ = _cli(workload, Path(tmp), "count")
        finally:
            tracer.uninstall()
            spans.HOOKS = hooks
        self.assertEqual(code, 0)
        self.assertEqual(tracer.absent, ["presh.cli.renamed", "presh.ops.renamed"])
        layers = spans.layer_metrics(tracer.spans, {1: ("count", 18)})
        self.assertEqual(set(layers), set(spans.UNITS))
        self.assertGreater(layers["kernel.calls"], 0)
        self.assertEqual(layers["ops.transfer_s"], 0.0)
        self.assertFalse(hasattr(presh.cli.main, "__wrapped__"))

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        with tracer.span("cli.main"):
            with tracer.span("dsl.parse"):
                pass
        (root, child) = tracer.spans
        layers = spans.layer_metrics(tracer.spans, {0: ("check", None)})
        self.assertAlmostEqual(
            layers["cli.self_s"],
            (root[spans.END] - root[spans.START]) - (child[spans.END] - child[spans.START]),
        )


if __name__ == "__main__":
    unittest.main()
