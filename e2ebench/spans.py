"""Spans around presh's public functions, and the per-layer metrics read off them.

The benchmark wraps the functions that each layer's callers resolve at call
time (a module attribute: ``presh.cli.compile_model`` is what the CLI calls,
``presh.kernel.enumerate_assignments`` what the compile path calls), so no
file of presh changes.  A span records its name, start, end, parent span,
the run id of the operation it belongs to, and an optional count.  Spans
stay in memory and are written out when the run ends.

A hooked function that presh no longer has is listed as absent and simply
records no spans, so its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _objects(args, kwargs, result):
    return len(getattr(result, "objects", ()))


def _rows(args, kwargs, result):
    return len(result)


def _model_key(args, kwargs, result):
    """Content of the compiled model, name left out, so that recompiling an
    equal model counts as the same model."""
    model = args[0] if args else kwargs.get("model")
    try:
        return hash((tuple((f, tuple(fib.values)) for f, fib in model.fibers.items()),
                     tuple(model.tables)))
    except (AttributeError, TypeError):
        return id(model)


def _scanned(args, kwargs, result):
    """Rows stored at the target object, which ``extensions`` scans."""
    try:
        presheaf, _, target = args[:3]
        return len(presheaf.sections[target])
    except (AttributeError, KeyError, TypeError, ValueError):
        return 0


#: (span name, module, attribute, what to count).  Some functions are hooked
#: where two callers resolve them, e.g. ``compile_model`` in the CLI and in ops.
HOOKS = (
    ("cli.main", "presh.cli", "main", None),
    ("dsl.parse", "presh.cli", "parse_workspace_file", None),
    ("cli.execute", "presh.cli", "execute", None),
    ("lattice.family", "presh.model", "close_family", _objects),
    ("lattice.family", "presh.cli", "close_family", _objects),
    ("lattice.adjunction", "presh.cli", "check_adjunction_triple", None),
    ("model.compile", "presh.cli", "compile_model", _model_key),
    ("model.compile", "presh.ops", "compile_model", _model_key),
    ("kernel.enumerate", "presh.kernel", "enumerate_assignments", _rows),
    ("presheaf.wrap", "presh.model", "unchecked_assignments", _rows),
    ("presheaf.validate", "presh.cli", "validate_laws", None),
    ("presheaf.yoneda", "presh.cli", "yoneda_check", None),
    ("presheaf.extensions", "presh.cli", "extensions", _scanned),
    ("presheaf.extensions", "presh.presheaf", "extensions", _scanned),
    ("presheaf.blocking", "presh.cli", "blocking_sets", None),
    ("ops.amalgamate", "presh.cli", "amalgamate", None),
    ("ops.amalgamate", "presh.ops", "amalgamate", None),
    ("ops.emergent", "presh.cli", "emergent_sections", None),
    ("ops.overlap", "presh.cli", "overlap_union_report", None),
    ("ops.transfer", "presh.cli", "transfer", None),
    ("ops.transfer", "presh.ops", "transfer", None),
    ("ops.analogy", "presh.cli", "analogy_check", None),
)

#: Per-layer metrics and their units; times are seconds of outermost spans.
TIMED = {
    "dsl.parse_s": "dsl.parse",
    "cli.execute_s": "cli.execute",
    "lattice.family_s": "lattice.family",
    "lattice.adjunction_s": "lattice.adjunction",
    "model.compile_s": "model.compile",
    "kernel.enumerate_s": "kernel.enumerate",
    "presheaf.wrap_s": "presheaf.wrap",
    "presheaf.validate_s": "presheaf.validate",
    "presheaf.yoneda_s": "presheaf.yoneda",
    "presheaf.extensions_s": "presheaf.extensions",
    "presheaf.blocking_s": "presheaf.blocking",
    "ops.amalgamate_s": "ops.amalgamate",
    "ops.emergent_s": "ops.emergent",
    "ops.overlap_s": "ops.overlap",
    "ops.transfer_s": "ops.transfer",
    "ops.analogy_s": "ops.analogy",
}
COUNTED = {
    "lattice.objects": "lattice.family",
    "kernel.rows": "kernel.enumerate",
    "presheaf.assignments": "presheaf.wrap",
    "presheaf.scanned_rows": "presheaf.extensions",
}
CALLS = {"model.compile_calls": "model.compile", "kernel.calls": "kernel.enumerate"}
UNITS = {
    **{m: "s" for m in TIMED},
    "cli.self_s": "s",
    **{m: "count" for m in (*COUNTED, *CALLS)},
    "cli.useful_ratio": "ratio",
    "model.compiles_per_model": "ratio",
}

# span fields
ID, PARENT, RUN, NAME, START, END, VALUE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for name, module_name, attr, measure in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.run, name, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(record[ID])
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, function, measure):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(record)
            if measure is not None:
                record[VALUE] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "run", "name", "start", "end", "value")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def layer_metrics(spans: list[list], ops: dict[int, tuple[str, int | None]]) -> dict:
    """Per-layer metrics of one round.

    ``ops`` maps each run id of the round to its operation name and, for
    ``count`` and ``sections``, the number of rows the command returned.
    """
    by_id = {s[ID]: s for s in spans}
    children: dict[int, float] = {}
    outermost: dict[str, float] = {}
    for s in spans:
        duration = s[END] - s[START]
        if s[PARENT] is not None:
            children[s[PARENT]] = children.get(s[PARENT], 0.0) + duration
        up = s[PARENT]
        while up is not None and by_id[up][NAME] != s[NAME]:
            up = by_id[up][PARENT]
        if up is None:
            outermost[s[NAME]] = outermost.get(s[NAME], 0.0) + duration
    out = {metric: outermost.get(name, 0.0) for metric, name in TIMED.items()}
    out["cli.self_s"] = sum(
        s[END] - s[START] - children.get(s[ID], 0.0) for s in spans if s[NAME] == "cli.main"
    )
    for metric, name in COUNTED.items():
        out[metric] = sum(s[VALUE] or 0 for s in spans if s[NAME] == name)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in spans if s[NAME] == name)
    distinct = sum(
        len({s[VALUE] for s in spans if s[NAME] == "model.compile" and s[RUN] == run})
        for run in ops
    )
    out["model.compiles_per_model"] = out["model.compile_calls"] / distinct if distinct else 0.0
    returned = sum(rows for op, rows in ops.values() if rows is not None)
    enumerated = sum(
        s[VALUE] or 0
        for s in spans
        if s[NAME] == "kernel.enumerate" and ops[s[RUN]][1] is not None
    )
    out["cli.useful_ratio"] = returned / enumerated if enumerated else 0.0
    return out

