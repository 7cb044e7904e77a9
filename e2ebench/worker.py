"""Run one workload's operations in a fresh interpreter and record what they did.

    python3 e2ebench/worker.py JOB.json

The job (written by ``run.py``) names the presh sources, the workspace, the
CLI commands, the model text for the library queries, how long to measure
and whether to trace.  Each round first times one set-up in a fresh
interpreter, then sends every command through ``presh.cli.main``
in-process, one after the other: a closed loop with a single caller.  The
worker writes times, exit codes and outputs to the job's result file;
``run.py`` checks them.

Before the set-up, after it, after every command and after the library
queries the worker times a fixed calibration loop (:func:`calibrate`) that
shares no code with presh.  Each sample is stored with the mean of the two
calibrations around it, so ``run.py`` can scale it to a fixed speed of the
core (see ``run.scaled``).

With tracing on, odd rounds run with the span hooks installed and even
rounds without, so the same run gives per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import re
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

MIN_ROUNDS = 4
BATCHES = 10
CALIBRATION_ROWS = 3000
_COUNT_LINE = re.compile(r"sections of \S+ at \{[^}]*\}: (\d+)\n")

# A fresh interpreter up to a ready workspace: import, parse, execute.  It
# prints the monotonic clock when ready, which the worker shares.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import presh.cli
presh.cli.execute(presh.cli.parse_workspace_file(sys.argv[2]), max_enum=int(sys.argv[3]))
print(repr(time.perf_counter()))
"""


def time_setup(job: dict) -> float | None:
    """Seconds from spawning an interpreter to a ready workspace, or None."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, job["src"], job["workspace"], str(job["max_enum"])],
        capture_output=True, text=True, timeout=60,
    )
    try:
        if done.returncode != 0:
            raise ValueError(done.stderr.strip()[-500:])
        return float(done.stdout) - t0
    except ValueError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return None


def calibration_loop() -> int:
    """Fixed pure-Python work shaped like presh's own: tuples, a dict of
    lists, a frozenset and a keyed sort."""
    rows = []
    index: dict[tuple, list] = {}
    for i in range(CALIBRATION_ROWS):
        key = (i % 7, i % 11, i % 13)
        rows.append(key)
        index.setdefault(key[:2], []).append(i)
    seen = frozenset(rows)
    ordered = sorted(rows, key=lambda r: (r[2], r[0]))
    return sum(map(len, index.values())) + len(seen) + len(ordered)


def calibrate() -> float:
    """Fastest of three runs of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def _rows_returned(op: str, out: str) -> int | None:
    if op == "count":
        match = _COUNT_LINE.match(out)
        return int(match.group(1)) if match else 0
    if op == "sections":
        try:
            return json.loads(out)["count"]
        except (ValueError, KeyError):
            return 0
    return None


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import presh.cli
    import presh.presheaf
    from presh.dsl import parse_model
    from presh.kernel import BACKEND
    from presh.lattice import Subset
    from presh.model import compile_model
    from presh.presheaf import Assignment

    import spans

    # library use: compile once, then ask many (not timed)
    model = parse_model(job["model_text"])
    compiled = compile_model(model)
    universe = Subset(model.fibers)
    queries = [Assignment.from_mapping(q) for q in job["queries"]]
    batch = max(1, len(queries) // BATCHES)

    tracer = spans.Tracer() if job["trace"] else None
    outputs: dict[str, int] = {}
    rounds = []
    layers = []
    run_id = 0
    start = time.perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= job["seconds"]:
        begun = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        ops = {}
        before = calibrate()
        setup = time_setup(job)
        after = calibrate()
        record = {"traced": traced, "ops": [], "batches": [],
                  "setup": None if setup is None else [setup, (before + after) / 2]}
        for op, argv in job["commands"]:
            before = after
            run_id += 1
            if traced:
                tracer.run = run_id
            stdout, stderr = io.StringIO(), io.StringIO()
            gc.collect()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    code = presh.cli.main(argv)
                except Exception:  # a crash is a failed operation, not a failed run
                    code = -1
                    traceback.print_exc()
                elapsed = time.perf_counter() - t0
            after = calibrate()
            text = stdout.getvalue()
            out_id = outputs.setdefault(text, len(outputs))
            record["ops"].append([op, elapsed, (before + after) / 2, code, out_id,
                                  stderr.getvalue()[-2000:]])
            ops[run_id] = (op, _rows_returned(op, text))
        for i in range(0, len(queries), batch):
            run_id += 1
            extensions = presh.presheaf.extensions
            gc.collect()
            timing = contextlib.nullcontext()
            if traced:
                tracer.run = run_id
                ops[run_id] = ("query", None)
                timing = tracer.span("bench.queries")
            with timing:
                t0 = time.perf_counter()
                try:
                    counts = [len(extensions(compiled, a, universe))
                              for a in queries[i:i + batch]]
                except Exception:  # counted as failed queries
                    traceback.print_exc()
                    counts = [-1] * len(queries[i:i + batch])
                elapsed = time.perf_counter() - t0
            record["batches"].append([elapsed / len(counts), counts])
        record["query_calibration"] = (after + calibrate()) / 2
        if traced:
            tracer.uninstall()
            layers.append([spans.layer_metrics(tracer.spans[first_span:], ops),
                           median(calibration for _, _, calibration, *_ in record["ops"])])
        rounds.append(record)
        last = time.perf_counter() - begun

    result = {
        "backend": BACKEND,
        "python": sys.version.split()[0],
        "batch": batch,
        "rounds": rounds,
        "outputs": sorted(outputs, key=outputs.get),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.write(Path(job["trace_file"]))
        result["layers"] = layers
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
