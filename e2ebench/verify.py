"""What every benchmark operation must print, computed apart from the compile path.

Global section sets come from ``presh.model.oracle_sections``, the brute-force
filter over the full value product that shares no code with the kernel, run
on models the benchmark wrote itself (see :mod:`inputs`).  Emergent sections,
cross-combinations and the transfer are derived from those sets by hand,
blocking scopes come from the benchmark's own exists-search, and the chain's
counts are also checked against their closed form.
"""

from __future__ import annotations

import json
from itertools import combinations, product

import inputs
from presh.dsl import parse_model
from presh.lattice import Subset
from presh.model import oracle_sections

CHECK_LINES = ["closure: ok", "adjunction: ok", "yoneda: ok", "analogy: ok"]


def _braces(names) -> str:
    return "{" + ",".join(sorted(names)) + "}"


def _row(section: dict, features: tuple[str, ...]) -> tuple[str, ...] | None:
    if tuple(sorted(section)) != features:
        return None
    return tuple(section[f] for f in features)


class Expected:
    """Reference outputs of one workload's operations."""

    def __init__(self, workload: inputs.Workload):
        self.w = workload
        self._oracle: dict[tuple[str, tuple[str, ...]], frozenset] = {}
        specs = workload.specs
        left, right = (specs[n] for n in workload.merge)
        self.merged = inputs.guarded_merge(f"{left.name}_{right.name}", left, right)
        self.globals = self.sections(specs[workload.model])
        self.merge_globals = self.sections(self.merged)
        self.emergent = {
            s for s in self.merge_globals
            if any(self._restrict(s, self.merged, src) not in self.sections(src)
                   for src in (left, right))
        }
        overlap = sorted(set(left.fibers) & set(right.fibers))
        self.cross = {}
        for k in range(len(overlap) + 1):
            for u in combinations(overlap, k):
                extra = (self.sections(self.merged, u) - self.sections(left, u)
                         - self.sections(right, u))
                if extra:
                    self.cross[_braces(u)] = extra
        h = workload.transfer
        source = specs[h.source]
        image = tuple(sorted(h.feature_map.values()))
        admitted = self.sections(source, image)
        tfeatures = tuple(sorted(h.feature_map))
        spots = [image.index(h.feature_map[t]) for t in tfeatures]
        self.transfer = set()
        for combo in product(*(tuple(h.value_maps[t]) for t in tfeatures)):
            mapped = [None] * len(image)
            for t, i, tv in zip(tfeatures, spots, combo):
                mapped[i] = h.value_maps[t][tv]
            if tuple(mapped) in admitted:
                self.transfer.add(combo)
        self.skipped = sorted(
            {scope for _, scope, _ in source.tables if not set(scope) <= set(image)},
            key=lambda s: (len(s), s),
        )
        self.blocking = inputs.blocking_scopes(specs[workload.extend_model], workload.extend)
        features = specs[workload.model].features
        self.query_counts = [
            sum(all(s[features.index(f)] == v for f, v in q.items()) for s in self.globals)
            for q in workload.queries
        ]
        if workload.name == "chain":
            self._check_chain_closed_forms()

    def sections(self, spec: inputs.Spec, obj: tuple[str, ...] | None = None) -> frozenset:
        obj = spec.features if obj is None else tuple(sorted(obj))
        body = spec.text().split("\n", 3)[3]  # content without the model name
        key = (body, obj)
        if key not in self._oracle:
            model = parse_model(spec.text())
            self._oracle[key] = frozenset(
                a.values for a in oracle_sections(model, Subset(obj))
            )
        return self._oracle[key]

    @staticmethod
    def _restrict(row, spec: inputs.Spec, to: inputs.Spec) -> tuple[str, ...]:
        features = spec.features
        return tuple(row[features.index(f)] for f in to.features)

    def _check_chain_closed_forms(self) -> None:
        n, k = inputs.CHAIN_FEATURES, inputs.CHAIN_VALUES
        position = {f"x{i:02d}": i for i in range(n)}
        value = {f"v{j}": j for j in range(k)}
        problems = []
        if len(self.globals) != inputs.chain_walks(n, k):
            problems.append("global count")
        for q, count in zip(self.w.queries, self.query_counts):
            pins = {position[f]: value[v] for f, v in q.items()}
            if count != inputs.chain_walks(n, k, pins):
                problems.append(f"query {q}")
        (i, a), (j, b) = sorted((position[f], value[v]) for f, v in self.w.extend.items())
        forced = [tuple(f"x{p:02d}" for p in range(i, j + 1))]
        if abs(a - b) <= j - i or self.blocking != forced:
            problems.append("blocking scope")
        if self.emergent or self.cross:
            problems.append("emergent sections of a guard-free merge")
        if problems:
            raise RuntimeError("chain oracle disagrees with the closed form: "
                               + ", ".join(problems))

    # -- per-operation checks: each returns None or what is wrong

    def check(self, op: str, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            return getattr(self, f"_check_{op}")(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_count(self, out: str) -> str | None:
        spec = self.w.specs[self.w.model]
        want = f"sections of {self.w.model} at {_braces(spec.features)}: {len(self.globals)}\n"
        return None if out == want else f"count output {out[:200]!r}, want {want!r}"

    def _section_set(self, listed: list, features, want: set, what: str) -> str | None:
        rows = [_row(s, features) for s in listed]
        if None in rows:
            return f"{what}: a section over the wrong features"
        if len(set(rows)) != len(rows):
            return f"{what}: repeated sections"
        got = set(rows)
        if got != want:
            return (f"{what}: {len(got - want)} sections not in the oracle set, "
                    f"{len(want - got)} missing")
        return None

    def _check_sections(self, out: str) -> str | None:
        body = json.loads(out)
        features = self.w.specs[self.w.model].features
        if body["count"] != len(self.globals) or body["object"] != list(features):
            return f"sections header count={body['count']} object={body['object']}"
        return self._section_set(body["sections"], features, self.globals, "sections")

    def _check_extend(self, out: str) -> str | None:
        spec = self.w.specs[self.w.extend_model]
        literal = ",".join(f"{f}={v}" for f, v in sorted(self.w.extend.items()))
        want = [
            f"extensions of {literal} to {_braces(spec.features)}: 0",
            "no extension; blocking scopes:",
        ] + [f"  {_braces(b)}" for b in sorted(self.blocking, key=lambda s: (len(s), s))]
        got = out.splitlines()
        return None if got == want else f"extend output {got}, want {want}"

    def _check_check(self, out: str) -> str | None:
        got = out.splitlines()
        return None if got == CHECK_LINES else f"check output {got}"

    def _check_merge(self, out: str) -> str | None:
        body = json.loads(out)
        left, right = (self.w.specs[n] for n in self.w.merge)
        features = self.merged.features
        if body["result"] != self.merged.name:
            return f"merge result {body['result']}"
        problem = self._section_set(
            body["global_sections"], features, self.merge_globals, "merge globals"
        ) or self._section_set(body["emergent"], features, self.emergent, "emergent")
        if problem:
            return problem
        if set(body["cross_combinations"]) != set(self.cross):
            return f"cross-combinations at {sorted(body['cross_combinations'])}"
        for u, listed in body["cross_combinations"].items():
            problem = self._section_set(listed, tuple(u[1:-1].split(",")),
                                        self.cross[u], f"cross at {u}")
            if problem:
                return problem
        for s in body["global_sections"]:
            for src in (left, right):
                inside = {f: s[f] for f in src.features}
                if (all(v in src.fibers[f] for f, v in inside.items())
                        and not inputs.satisfies(src, inside)):
                    return f"merged section {s} violates {src.name} inside its fibers"
        return None

    def _check_transfer(self, out: str) -> str | None:
        body = json.loads(out)
        h = self.w.transfer
        want_analogy = {"target": h.target, "passed": True, "violations": []}
        if body.get("analogy") != want_analogy:
            return f"analogy {body.get('analogy')}"
        if [tuple(s) for s in body["skipped_scopes"]] != self.skipped:
            return f"skipped scopes {body['skipped_scopes']}"
        features = tuple(sorted(h.feature_map))
        return self._section_set(body["global_sections"], features, self.transfer,
                                 "transfer")
