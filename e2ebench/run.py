"""End-to-end benchmark of the presh workflow.

    python3 e2ebench/run.py --workload hub|chain|merge --seed N --seconds S --trace 0|1

Run from the root of a presh checkout.  The run writes the workload's
seeded ``.psh``/``.pshw`` files under ``e2ebench/out/``, then hands the
rounds to a worker process (``worker.py``): each round times a fresh
interpreter up to a ready workspace, then calls ``presh.cli.main``
in-process for every command, until ``--seconds`` are used up.  Every
output is checked against a computation made apart from the compile path
(``verify.py``).  Each metric is the median of its samples over the run,
every sample scaled to a reference speed of the core (``scaled``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
name the run (Python, kernel backend, cores, revision) and list each metric
with its unit.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKER_TIMEOUT = 150
#: Reference time of the worker's calibration loop; every timed sample is
#: scaled to it (``scaled``).  About the loop's time on the machine of the
#: README's figures in its fast state.
CALIBRATION_S = 0.0018
COMMANDS = ("count", "sections", "extend", "check", "merge", "transfer")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"{op}_s": "s" for op in COMMANDS},
    "query_p50_s": "s",
}


def revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "presh").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def scaled(elapsed: float, calibration: float) -> float:
    """A sample's time at the reference speed of the core: the time it would
    have taken had the calibration loop timed around it taken
    ``CALIBRATION_S``.  On a shared host the core's speed can change for
    seconds to minutes at a time; presh's code and the loop slow down alike,
    so the ratio stays."""
    return elapsed * CALIBRATION_S / calibration


def tally(result: dict, expected) -> tuple[int, int, dict, dict]:
    """Check every operation the worker ran; returns operations attempted,
    operations failed, and the untraced and traced scaled times of each kind
    (for the queries, the time per query of every batch)."""
    attempted = failed = 0
    verdicts = {}
    times = {op: [] for op in ("setup", *COMMANDS, "query")}
    traced_times = {op: [] for op in ("setup", *COMMANDS, "query")}
    for record in result["rounds"]:
        spent = traced_times if record["traced"] else times
        attempted += 1
        if record["setup"] is None:
            failed += 1
        else:
            spent["setup"].append(scaled(*record["setup"]))
        for op, elapsed, calibration, code, out_id, stderr in record["ops"]:
            key = (op, code, out_id)
            if key not in verdicts:
                verdicts[key] = expected.check(op, code, result["outputs"][out_id])
                if verdicts[key]:
                    print(f"# FAILED {op}: {verdicts[key]} {stderr.strip()[-300:]}",
                          file=sys.stderr)
            attempted += 1
            failed += verdicts[key] is not None
            spent[op].append(scaled(elapsed, calibration))
        counts = [c for _, batch in record["batches"] for c in batch]
        attempted += len(counts)
        failed += sum(c != w for c, w in zip(counts, expected.query_counts, strict=True))
        spent["query"].extend(scaled(per_query, record["query_calibration"])
                              for per_query, _ in record["batches"])
    return attempted, failed, times, traced_times


def medians(times: dict) -> dict:
    """Each kind's median scaled time over the run (queries: over every batch
    of every round)."""
    return {op: median(samples) for op, samples in times.items()}


def layer_medians(layers: list, units: dict) -> dict:
    """Each per-layer metric's median over the traced rounds; times are scaled
    by the median calibration around the round's commands."""
    return {
        metric: median(
            scaled(values[metric], calibration) if unit == "s" else values[metric]
            for values, calibration in layers
        )
        for metric, unit in units.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("hub", "chain", "merge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "presh" / "__init__.py").is_file():
        print(f"e2ebench: no presh sources at {SRC / 'presh'}", file=sys.stderr)
        return 2
    # Every set-up and the worker import presh from bytecode, also where the
    # environment stops Python writing it (PYTHONDONTWRITEBYTECODE); without
    # this a fresh checkout times compiling the sources in every set-up.
    compileall.compile_dir(str(SRC / "presh"), quiet=1)
    sys.path.insert(0, str(SRC))
    import inputs
    import spans
    import verify
    from presh.kernel import BACKEND

    workload = inputs.build(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-{args.seed}"
    workspace = inputs.write(workload, run_dir)
    max_enum = workload.max_enum()
    print(f"# e2ebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python={sys.version.split()[0]} backend={BACKEND} "
          f"nproc={len(os.sched_getaffinity(0))} git={revision()} src={source_digest()}")

    prefix = ["--workspace", str(workspace), "--max-enum", str(max_enum)]
    job = {
        "src": str(SRC),
        "workspace": str(workspace),
        "max_enum": max_enum,
        "commands": [[op, prefix + argv] for op, argv in workload.commands().items()],
        "model_text": workload.specs[workload.model].text(),
        "queries": workload.queries,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "result": str(run_dir / f"result-{args.trace}.json"),
        "trace_file": str(run_dir / "spans.jsonl"),
    }
    job_path = run_dir / f"job-{args.trace}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                              cwd=ROOT, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: worker ran over {WORKER_TIMEOUT} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"e2ebench: worker exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    if result["backend"] != BACKEND:
        print(f"e2ebench: worker backend {result['backend']} != {BACKEND}", file=sys.stderr)
        return 1

    expected = verify.Expected(workload)
    attempted, failed, times, traced_times = tally(result, expected)

    if args.trace:
        units = spans.UNITS
        metrics = layer_medians(result["layers"], units)
        untraced = medians(times)
        for op, traced in medians(traced_times).items():
            if op == "setup":
                continue
            print(f"# overhead {op}: traced {traced:.6g} s / untraced {untraced[op]:.6g} s"
                  f" = {traced / untraced[op]:.3f}")
        print(f"# spans={result['spans']} absent={','.join(result['absent']) or 'none'}")
    else:
        typical = medians(times)
        metrics = {f"{op}_s": typical[op] for op in ("setup", *COMMANDS)}
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["query_p50_s"] = typical["query"]
        units = END_TO_END
        metrics = {m: metrics[m] for m in END_TO_END}
    print(f"# rounds={len(result['rounds'])} queries/batch={result['batch']} "
          f"attempted={attempted} failed={failed}")
    for name, value in metrics.items():
        print(f"# {name:<26} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
