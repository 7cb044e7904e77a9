"""Seeded inputs of the end-to-end benchmark, and reference computations on them.

Everything here is plain Python over the benchmark's own model form
(:class:`Spec`) and shares no code with presh: the workload generators, the
guarded merge and the pullback used to write the transfer targets, an
exists-search for blocking scopes, and the closed forms of the chain.

The same workload name and seed always give byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HUB_FILES = ("digital_hub.pshw", "pc.psh", "camcorder.psh", "itunes.psh")

ALLOW = "allow"
FORBID = "forbid"


@dataclass
class Spec:
    """A model: fibers in declaration order, tables over sorted scopes."""

    name: str
    fibers: dict[str, tuple[str, ...]]
    tables: list[tuple[str, tuple[str, ...], frozenset]] = field(default_factory=list)

    def text(self) -> str:
        out = ["format 1", "", f"model {self.name}"]
        for f, values in self.fibers.items():
            out.append(f"feature {f}: " + " | ".join(values))
        for polarity, scope, rows in sorted(self.tables, key=lambda t: (t[1], t[0])):
            body = ", ".join("(" + ", ".join(r) + ")" for r in sorted(rows))
            out.append(f"{polarity} ({', '.join(scope)}): {body}")
        return "\n".join(out) + "\n"

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(sorted(self.fibers))


@dataclass
class Identification:
    """Target features onto source features, with value maps alongside."""

    name: str
    target: str
    source: str
    feature_map: dict[str, str]
    value_maps: dict[str, dict[str, str]]

    def text(self) -> str:
        out = [f"identify {self.name}: {self.target} -> {self.source} {{"]
        for t, s in self.feature_map.items():
            out.append(f"  feature {t} -> {s} {{")
            out.extend(f"    {tv} -> {sv}" for tv, sv in self.value_maps[t].items())
            out.append("  }")
        out.append("}")
        return "\n".join(out)


@dataclass
class Workload:
    """What one run of a workload feeds the program, and what it asks."""

    name: str
    files: dict[str, str]
    specs: dict[str, Spec]
    model: str  # M: the model of count, sections and the library queries
    merge: tuple[str, str]
    transfer: Identification
    extend: dict[str, str]  # a local section of extend_model that does not extend
    extend_model: str
    queries: list[dict[str, str]]

    @property
    def workspace(self) -> str:
        return next(name for name in self.files if name.endswith(".pshw"))

    def commands(self) -> dict[str, list[str]]:
        literal = ",".join(f"{f}={v}" for f, v in sorted(self.extend.items()))
        return {
            "count": ["sections", self.model, "--count"],
            "sections": ["--format", "machine", "sections", self.model],
            "extend": ["extend", self.extend_model, literal],
            "check": ["check"],
            "merge": ["--format", "machine", "merge", *self.merge],
            "transfer": ["--format", "machine", "transfer", self.transfer.name,
                         self.transfer.source],
        }

    def max_enum(self) -> int:
        """Ten times the largest presheaf estimate the CLI computes here."""
        largest = 1
        for spec in self.specs.values():
            estimate = 1
            for values in spec.fibers.values():
                estimate *= 1 + len(values)
            largest = max(largest, estimate)
        return 10 * largest


# ---------------------------------------------------------------------------
# reference operations on specs


def satisfies(spec: Spec, binding: dict[str, str]) -> bool:
    """Does a binding pass every table whose scope it covers?"""
    for polarity, scope, rows in spec.tables:
        if all(f in binding for f in scope):
            row = tuple(binding[f] for f in scope)
            if (row in rows) != (polarity == ALLOW):
                return False
    return True


def guarded_merge(name: str, left: Spec, right: Spec) -> Spec:
    """Shared fibers take the union of values; each source table only binds
    while an assignment stays inside that source's fibers."""
    fibers = {}
    for f, values in left.fibers.items():
        extra = tuple(v for v in right.fibers.get(f, ()) if v not in values)
        fibers[f] = values + extra
    fibers.update((f, v) for f, v in right.fibers.items() if f not in fibers)
    tables = set()
    for source in (left, right):
        for polarity, scope, rows in source.tables:
            grown = any(len(fibers[f]) > len(source.fibers[f]) for f in scope)
            if polarity == FORBID or not grown:
                tables.add((polarity, scope, rows))
                continue
            inside = [set(source.fibers[f]) for f in scope]
            kept = frozenset(
                combo
                for combo in product(*(fibers[f] for f in scope))
                if combo in rows or any(v not in inside[i] for i, v in enumerate(combo))
            )
            tables.add((ALLOW, scope, kept))
    return Spec(name, fibers, sorted(tables, key=lambda t: (t[1], t[0], sorted(t[2]))))


def pull_back(spec: Spec, h: Identification, name: str) -> Spec:
    """Tables whose scope the identification covers, read through the value maps."""
    back = {s: t for t, s in h.feature_map.items()}
    fibers = {t: tuple(vmap) for t, vmap in h.value_maps.items()}
    tables = []
    for polarity, scope, rows in spec.tables:
        if any(f not in back for f in scope):
            continue
        tscope = tuple(sorted(back[f] for f in scope))
        pos = {f: i for i, f in enumerate(scope)}
        kept = set()
        for combo in product(*(fibers[t] for t in tscope)):
            image = [None] * len(scope)
            for t, tv in zip(tscope, combo):
                image[pos[h.feature_map[t]]] = h.value_maps[t][tv]
            if tuple(image) in rows:
                kept.add(combo)
        tables.append((polarity, tscope, frozenset(kept)))
    return Spec(name, fibers, tables)


def renaming(spec: Spec, name: str, target: str, rng: random.Random,
             rename: Callable[[str], str]) -> tuple[Spec, Identification]:
    """A target written independently of presh: every feature renamed, every
    fiber's values renamed to ``w<i>`` under a seeded permutation, tables
    carried over."""
    fmap, vmaps = {}, {}
    for f, values in spec.fibers.items():
        t = rename(f)
        names = [f"w{i}" for i in range(len(values))]
        rng.shuffle(names)
        fmap[t] = f
        vmaps[t] = dict(sorted(zip(names, values)))
    h = Identification(name, target, spec.name, fmap, vmaps)
    forward = {t: {sv: tv for tv, sv in vmap.items()} for t, vmap in vmaps.items()}
    back = {s: t for t, s in fmap.items()}
    tables = []
    for polarity, scope, rows in spec.tables:
        tscope = tuple(sorted(back[f] for f in scope))
        order = [scope.index(fmap[t]) for t in tscope]
        renamed = frozenset(
            tuple(forward[t][row[i]] for t, i in zip(tscope, order)) for row in rows
        )
        tables.append((polarity, tscope, renamed))
    fibers = {back[f]: tuple(sorted(vmaps[back[f]])) for f in spec.fibers}
    return Spec(target, fibers, tables), h


def solutions(spec: Spec, pinned: dict[str, str], obj: tuple[str, ...],
              limit: int | None = None) -> int:
    """Count the assignments on ``obj`` that agree with ``pinned`` and pass
    every table whose scope lies inside ``obj``, stopping at ``limit``."""
    order = [f for f in obj if f in pinned] + [f for f in obj if f not in pinned]
    rank = {f: i for i, f in enumerate(order)}
    due: list[list] = [[] for _ in order]
    for polarity, scope, rows in spec.tables:
        if all(f in rank for f in scope):
            due[max(rank[f] for f in scope)].append((polarity == ALLOW, scope, rows))
    binding: dict[str, str] = {}
    found = 0

    def search(i: int) -> bool:
        nonlocal found
        if i == len(order):
            found += 1
            return found == limit
        f = order[i]
        for v in (pinned[f],) if f in pinned else spec.fibers[f]:
            binding[f] = v
            if all((tuple(binding[g] for g in scope) in rows) == allow
                   for allow, scope, rows in due[i]) and search(i + 1):
                return True
        return False

    search(0)
    return found


def extends(spec: Spec, pinned: dict[str, str], obj: tuple[str, ...]) -> bool:
    """Exists-search: does ``pinned`` extend to a section at ``obj``?"""
    return solutions(spec, pinned, obj, limit=1) > 0


def blocking_scopes(spec: Spec, pinned: dict[str, str]) -> list[tuple[str, ...]]:
    """Inclusion-minimal objects above the pinned domain where it does not extend."""
    dom = tuple(sorted(pinned))
    rest = [f for f in spec.features if f not in pinned]
    blocked = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            obj = tuple(sorted(dom + extra))
            if any(set(b) <= set(obj) for b in blocked):
                continue
            if not extends(spec, pinned, obj):
                blocked.append(obj)
    return blocked


#: Library queries per round; the worker times them in batches of a tenth.
QUERIES = {"hub": 2000, "chain": 40, "merge": 1000}


def pick_queries(spec: Spec, rng: random.Random, count: int) -> list[dict[str, str]]:
    """Seeded two-feature local sections that extend to the whole universe."""
    features = spec.features
    out = []
    while len(out) < count:
        f, g = rng.sample(features, 2)
        pinned = {f: rng.choice(spec.fibers[f]), g: rng.choice(spec.fibers[g])}
        if extends(spec, pinned, features):
            out.append(dict(sorted(pinned.items())))
    return out


# ---------------------------------------------------------------------------
# chain: two overlapping halves of an allow-chain |i-j| <= 1


CHAIN_FEATURES = 7
CHAIN_VALUES = 4


def _chain_spec(name: str, lo: int, hi: int, k: int) -> Spec:
    values = tuple(f"v{j}" for j in range(k))
    rows = frozenset((values[a], values[b]) for a in range(k) for b in range(k)
                     if abs(a - b) <= 1)
    fibers = {f"x{i:02d}": values for i in range(lo, hi + 1)}
    tables = [(ALLOW, (f"x{i:02d}", f"x{i + 1:02d}"), rows) for i in range(lo, hi)]
    return Spec(name, fibers, tables)


def chain_walks(length: int, k: int, pins: dict[int, int] | None = None) -> int:
    """Closed form: walks on ``length`` nodes of the k-value path graph with
    self-loops, optionally pinned at some positions (a vector-matrix DP)."""
    pins = pins or {}
    if length == 0:
        return 1
    vec = [1 if pins.get(0, a) == a else 0 for a in range(k)]
    for i in range(1, length):
        vec = [
            sum(vec[b] for b in range(k) if abs(a - b) <= 1) if pins.get(i, a) == a else 0
            for a in range(k)
        ]
    return sum(vec)


def chain_object_count(obj: tuple[int, ...], k: int) -> int:
    """Sections of a chain at a set of positions: product over maximal runs."""
    total, run, prev = 1, 0, None
    for i in sorted(obj):
        if prev is not None and i != prev + 1:
            total *= chain_walks(run, k)
            run = 0
        run += 1
        prev = i
    return total * chain_walks(run, k)


def chain(seed: int) -> Workload:
    n, k = CHAIN_FEATURES, CHAIN_VALUES
    rng = random.Random(f"chain/{seed}")
    mid = n // 2
    left = _chain_spec("Left", 0, mid, k)
    right = _chain_spec("Right", mid - 1, n - 1, k)
    full = _chain_spec("Chain", 0, n - 1, k)
    target, h = renaming(full, "Rename", "Target", rng, lambda f: "y" + f[1:])
    # a section blocked by the value gap: |a - b| > j - i forces {x_i..x_j}
    i, j = (0, 2) if rng.random() < 0.5 else (n - 3, n - 1)
    a, b = (0, k - 1) if rng.random() < 0.5 else (k - 1, 0)
    extend = {f"x{i:02d}": f"v{a}", f"x{j:02d}": f"v{b}"}
    queries = pick_queries(full, rng, QUERIES["chain"])
    files = {
        "left.psh": left.text(),
        "right.psh": right.text(),
        "target.psh": target.text(),
        "chain.pshw": "\n".join([
            "format 1", "",
            'include "left.psh"', 'include "right.psh"', 'include "target.psh"', "",
            "merge Chain = Left + Right", "",
            h.text(), "",
        ]),
    }
    specs = {"Left": left, "Right": right, "Chain": full, "Target": target}
    return Workload("chain", files, specs, "Chain", ("Left", "Right"), h, extend,
                    "Chain", queries)


# ---------------------------------------------------------------------------
# merge: seeded random sources with dense 3-ary tables over shared features


SHARED = ("s0", "s1", "s2")
#: (polarity, scope, share of rows listed): 4 allow tables and 2 forbid tables
#: per source, over the source's own features ``p0..p2`` and the shared ones.
MERGE_TABLES = (
    (ALLOW, ("p0", "p1", "p2"), 0.55),
    (ALLOW, ("p0", "p1", "s0"), 0.55),
    (ALLOW, ("p1", "p2", "s1"), 0.55),
    (ALLOW, ("p0", "p2", "s2"), 0.55),
    (FORBID, ("s0", "s1", "s2"), 0.22),
    (FORBID, ("p2", "s0", "s1"), 0.22),
)

#: Number of merged global sections a draw must have.  Library queries scan
#: them, so holding their number fixed keeps the cost of a run the same across
#: seeds.
MERGE_GLOBALS = 24


def _random_source(name: str, own: str, extra_value: str, rng: random.Random) -> Spec:
    fibers = {f: ("c0", extra_value) for f in SHARED}
    fibers.update({f"{own}{i}": ("c0", "c1") for i in range(3)})
    tables = []
    for polarity, pattern, share in MERGE_TABLES:
        scope = tuple(sorted(f.replace("p", own) for f in pattern))
        rows = sorted(product(*(fibers[f] for f in scope)))
        tables.append((polarity, scope, frozenset(rng.sample(rows, round(share * len(rows))))))
    return Spec(name, dict(sorted(fibers.items())), tables)


def merge(seed: int) -> Workload:
    rng = random.Random(f"merge/{seed}")
    while True:
        left = _random_source("Left", "a", "c1", rng)
        right = _random_source("Right", "b", "c2", rng)
        merged = guarded_merge("Merged", left, right)
        if solutions(merged, {}, merged.features) == MERGE_GLOBALS:
            break
    target, h = renaming(merged, "Rename", "Target", rng, lambda f: "t_" + f)
    features = merged.features
    extend = None
    for _ in range(1000):
        f, g = sorted(rng.sample(features, 2))
        pinned = {f: rng.choice(merged.fibers[f]), g: rng.choice(merged.fibers[g])}
        if not extends(merged, pinned, features):
            extend = pinned
            break
    if extend is None:
        raise RuntimeError(f"merge/{seed}: no blocked two-feature section found")
    files = {
        "left.psh": left.text(),
        "right.psh": right.text(),
        "target.psh": target.text(),
        "merge.pshw": "\n".join([
            "format 1", "",
            'include "left.psh"', 'include "right.psh"', 'include "target.psh"', "",
            "merge Merged = Left + Right", "",
            h.text(), "",
        ]),
    }
    specs = {"Left": left, "Right": right, "Merged": merged, "Target": target}
    queries = pick_queries(merged, rng, QUERIES["merge"])
    return Workload("merge", files, specs, "Merged", ("Left", "Right"), h, extend,
                    "Merged", queries)


# ---------------------------------------------------------------------------
# hub: the bundled digital-hub case study, unchanged


def hub(seed: int) -> Workload:
    data = ROOT / "src" / "presh" / "data"
    files = {name: (data / name).read_text(encoding="utf-8") for name in HUB_FILES}
    specs = {}
    for name in HUB_FILES[1:]:
        spec = parse_spec(files[name])
        specs[spec.name] = spec
    h = parse_identification(files["digital_hub.pshw"], "AudioVideo")
    specs["IMovieHub"] = guarded_merge("IMovieHub", specs["PC"], specs["Camcorder"])
    specs["ITunesFromVideo"] = pull_back(specs["IMovieHub"], h, "ITunesFromVideo")
    specs["DigitalHub"] = guarded_merge(
        "DigitalHub", specs["IMovieHub"], specs["ITunesFromVideo"]
    )
    extend = {"film": "prof_and_amateur", "edit": "quick_and_easy_editing"}
    queries = pick_queries(specs["DigitalHub"], random.Random(f"hub/{seed}"), QUERIES["hub"])
    return Workload("hub", files, specs, "DigitalHub", ("PC", "Camcorder"), h, extend,
                    "Camcorder", queries)


def parse_spec(text: str) -> Spec:
    """Read the subset of the model language the bundled files use."""
    spec = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("model "):
            spec = Spec(line.split()[1], {})
        elif line.startswith("feature "):
            name, values = line[len("feature "):].split(":", 1)
            spec.fibers[name.strip()] = tuple(v.strip() for v in values.split("|"))
        elif line.startswith(("allow ", "forbid ")):
            polarity, rest = line.split(" ", 1)
            head, body = rest.split(":", 1)
            written = [f.strip() for f in head.strip()[1:-1].split(",")]
            scope = tuple(sorted(written))
            order = [written.index(f) for f in scope]
            rows = frozenset(
                tuple(vals[i] for i in order)
                for vals in (
                    [v.strip() for v in chunk.strip(" ,()").split(",")]
                    for chunk in body.split(")")
                    if chunk.strip(" ,")
                )
            )
            spec.tables.append((polarity, scope, rows))
    return spec


def parse_identification(text: str, name: str) -> Identification:
    """Read one ``identify`` block written one value pair per line."""
    h, current = None, None
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].replace("{", " ").replace(":", " ").split()
        if words[:2] == ["identify", name]:
            h = Identification(name, words[2], words[4], {}, {})
        elif h is None or not words:
            continue
        elif words[0] == "feature":
            current = words[1]
            h.feature_map[current] = words[3]
            h.value_maps[current] = {}
        elif words[0] == "}":
            if current is None:
                return h
            current = None
        else:
            h.value_maps[current][words[0]] = words[2]
    raise ValueError(f"no identification {name!r}")


WORKLOADS = {"hub": hub, "chain": chain, "merge": merge}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def write(workload: Workload, directory: Path) -> Path:
    """Write the workload's files; returns the workspace path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (directory / name).write_bytes(text.encode("utf-8"))
    return directory / workload.workspace
