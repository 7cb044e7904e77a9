"""Command-line surface.

Subcommands: ``check | sections | extend | merge | transfer | diff | render``.
A workspace (``--workspace``, a ``.pshw`` or single-model ``.psh`` file) is
parsed and its directives executed before any command runs; commands then
address artifacts by name.

Exit codes: 0 success, 1 a check failed, 2 usage or parse error, 3 an
enumeration bound was hit and the computation refused.  With
``--format machine`` every command prints one JSON object with stable,
documented field names (see README); output is byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .dsl import (
    CheckDirective,
    MergeDirective,
    ParseError,
    TransferDirective,
    Workspace,
    parse_workspace_file,
    serialize,
)
from .errors import EnumerationBoundError, MalformedInputError, PreshError
from .lattice import Subset, check_adjunction_triple, close_family
from .model import Model, compile_model
from .ops import (
    amalgamate,
    analogy_check,
    condition,
    diff_presheaves,
    emergent_sections,
    overlap_union_report,
    transfer,
)
from .presheaf import (
    Assignment,
    AssignmentPresheaf,
    _require_local_section,
    _token,
    _yoneda_report,
    # no command calls it (extend reads ``_ObjectRows.blocking``), but
    # e2ebench/spans.py hooks the name here
    blocking_sets,
    extensions,
    random_abstract_presheaf,
    representable,
    validate_laws,
)
from .report import LawReport, Record
from . import render as render_mod

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

ALL_SUITES = ("closure", "adjunction", "yoneda", "analogy")


class _CheckFailed(PreshError):
    def __init__(self, lines: list[str]):
        super().__init__("\n".join(lines))
        self.lines = lines


class Execution(Record):
    """A parsed workspace with its directives carried out."""

    workspace: Workspace
    max_enum: int
    artifacts: dict[str, Model]
    _compiled: dict[tuple, AssignmentPresheaf]

    def __init__(self, workspace: Workspace, max_enum: int):
        self.workspace = workspace
        self.max_enum = max_enum
        self.artifacts = {}
        # the table scopes each transfer directive left out, when it left any
        self.transfer_skips: dict[TransferDirective, tuple[Subset, ...]] = {}
        self._compiled = {}
        # the law report of each compiled presheaf, under the same key
        self._reports: dict[tuple, LawReport] = {}

    def artifact(self, name: str) -> Model:
        model = self.artifacts.get(name)
        if model is None:
            known = ", ".join(sorted(self.artifacts)) or "none"
            raise MalformedInputError(f"unknown artifact {name!r} (defined: {known})")
        return model

    def compile(self, model: Model) -> AssignmentPresheaf:
        """The compiled presheaf of ``model``, refused when its sections over
        all objects could exceed ``max_enum``.

        Each model content compiles once: sections depend on the fibers and
        tables only, not on the name or the labels.  The estimate covers the
        whole lattice and is checked before any object is read.  The objects
        are built as they are read, and later readers in the same execution
        (a directive, then the suites of ``check``) reuse them.
        """
        key = _content_key(model)
        if key not in self._compiled:
            estimate = 1
            for fib in model.fibers.values():
                estimate *= 1 + len(fib.values)
            if estimate > self.max_enum:
                raise EnumerationBoundError(
                    f"presheaf of {model.name!r} refused",
                    required=estimate,
                    bound=self.max_enum,
                )
            self._compiled[key] = compile_model(model)
        return self._compiled[key]

    def validate(self, model: Model) -> LawReport:
        """The law report of ``model``'s compiled presheaf, validated once per
        content: the ``check`` directive and the closure suite share it."""
        key = _content_key(model)
        if key not in self._reports:
            self._reports[key] = validate_laws(self.compile(model))
        return self._reports[key]

    def notes(self) -> list[str]:
        """One line per table scope a transfer directive skipped."""
        return [
            f"note: transfer {d.result} = {d.identification} of {d.source}: "
            f"skipped table scope {scope} (unmapped features)"
            for d, scopes in self.transfer_skips.items()
            for scope in scopes
        ]


def _content_key(model: Model) -> tuple:
    """What a model's sections depend on: its fibers and its tables."""
    return (tuple(model.fibers.values()), model.tables)


def execute(workspace: Workspace, *, max_enum: int) -> Execution:
    ex = Execution(workspace, max_enum)
    ex.artifacts.update(workspace.models)
    for directive in workspace.directives:
        if isinstance(directive, MergeDirective):
            merged = amalgamate(
                ex.artifact(directive.left),
                ex.artifact(directive.right),
                name=directive.result,
            )
            ex.artifacts[directive.result] = merged.result
        elif isinstance(directive, TransferDirective):
            decl = workspace.identifications[directive.identification]
            model, skipped = transfer(
                decl.ident, ex.artifact(directive.source), name=directive.result
            )
            ex.artifacts[directive.result] = model
            if skipped:
                ex.transfer_skips[directive] = skipped
        elif isinstance(directive, CheckDirective):
            report = ex.validate(ex.artifact(directive.target))
            if not report.passed:
                raise _CheckFailed(
                    [f"check {directive.target}: FAIL"]
                    + [f"  {v}" for v in report.violations]
                )
    return ex


# ---------------------------------------------------------------------------
# helpers


def _parse_object_spec(spec: str | None, model: Model) -> Subset:
    """The object ``spec`` names, or the model's universe when it is None."""
    if spec is None:
        return model.features
    body = spec.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    names = [n.strip() for n in body.split(",") if n.strip()]
    unknown = [n for n in names if n not in model.fibers]
    if unknown:
        known = Subset(n for n in names if n in model.fibers)
        candidates = [
            str(known.union(Subset([f])))
            for f in model.feature_order()
            if f not in known
        ]
        raise MalformedInputError(
            f"unknown feature {unknown[0]!r} in object spec; nearest family "
            "objects: " + ", ".join([str(known)] + candidates[:4])
        )
    return Subset(names)


def _parse_assignment(literal: str, model: Model) -> Assignment:
    binding: dict[str, str] = {}
    for part in literal.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise MalformedInputError(f"bad assignment literal {part!r}, need f=v")
        f, v = part.split("=", 1)
        f, v = f.strip(), v.strip()
        fib = model.fibers.get(f)
        if fib is None:
            raise MalformedInputError(f"unknown feature {f!r}")
        if v not in fib:
            raise MalformedInputError(
                f"{v!r} is not a value of {f!r} (fiber: {', '.join(fib.values)})"
            )
        if f in binding:
            raise MalformedInputError(f"feature {f!r} bound twice")
        binding[f] = v
    return Assignment.from_mapping(binding)


#: What ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` runs,
#: built once instead of once per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _JsonText(str):
    """A payload value already encoded as JSON text, written as is."""


class _Out:
    def __init__(self, machine: bool):
        self.machine = machine
        self.lines: list[str] = []
        self.payload: dict = {}

    def text(self, line: str = "") -> None:
        self.lines.append(line)

    def rows(self, key: str, names: tuple[str, ...], rows) -> None:
        """A list of sections over ``names``, one per value row: objects
        under ``key`` in machine output, ``f=v`` lines in text output.

        In machine output the list is encoded here, to the text that
        ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` gives for
        the list of ``{name: value}`` objects.  Each column's distinct values
        are encoded once, as whole members (``,"name":value``, the first
        opening the object and the last closing it), and each object is the
        join of its row's members.  ``names`` is sorted, as a ``Subset``'s
        names are, so the members are in ``sort_keys`` order."""
        if self.machine:
            columns = []
            for i, (name, column) in enumerate(zip(names, zip(*rows))):
                head = ("," if i else "{") + _encode(name) + ":"
                tail = "}" if i == len(names) - 1 else ""
                member = {v: head + _encode(v) + tail for v in set(column)}
                columns.append(map(member.__getitem__, column))
            # zipping no columns would lose the rows of a zero-feature object
            objects = map("".join, zip(*columns)) if names else ["{}"] * len(rows)
            self.payload[key] = _JsonText("[%s]" % ",".join(objects))
        else:
            self.lines.extend("  " + _token(names, row) for row in rows)

    def flush(self, command: str, exit_code: int) -> int:
        """Print the output: the text lines, or one JSON object of the
        command, the exit code and the payload, keys sorted, with separators
        ``(",", ":")``.  Each value is encoded as ``json.dumps`` with
        ``sort_keys`` encodes it, unless :meth:`rows` already did, so the
        line is byte-identical to ``json.dumps`` of the whole body."""
        if self.machine:
            body = {"command": command, "exit": exit_code}
            body.update(self.payload)
            print("{%s}" % ",".join([
                _encode(k) + ":" + (v if isinstance(v, _JsonText) else _encode(v))
                for k, v in sorted(body.items())
            ]))
        else:
            for line in self.lines:
                print(line)
        return exit_code


# ---------------------------------------------------------------------------
# commands


def cmd_check(ex: Execution, args, out: _Out) -> int:
    # A suite named twice runs once, in first-seen order.
    names = (s.strip() for s in args.laws.split(","))
    suites = tuple(dict.fromkeys(s for s in names if s))
    if not suites:
        raise MalformedInputError(
            f"no law suite given (choose from {', '.join(ALL_SUITES)})"
        )
    for s in suites:
        if s not in ALL_SUITES:
            raise MalformedInputError(
                f"unknown law suite {s!r} (choose from {', '.join(ALL_SUITES)})"
            )
    failed = False
    results: dict[str, dict] = {}
    for suite in suites:
        violations: list[str] = []
        if suite == "closure":
            for name in sorted(ex.artifacts):
                report = ex.validate(ex.artifact(name))
                violations.extend(f"{name}: {v}" for v in report.violations)
        elif suite == "adjunction":
            family = close_family(Subset([f"a{i}" for i in range(5)]))
            for s1, s2 in family.inclusions():
                report = check_adjunction_triple(s1, s2)
                violations.extend(str(v) for v in report.violations)
        elif suite == "yoneda":
            for n in range(4):
                family = close_family(Subset([f"g{i}" for i in range(n)]))
                # one representable per object, shared by the seven sheaves
                reps = {d: representable(family, d) for d in family.objects_sorted}
                sheaves = [reps[family.universe]] + [
                    random_abstract_presheaf(args.seed * 97 + n * 10 + i, family)
                    for i in range(6)
                ]
                for f in sheaves:
                    for d in family.objects_sorted:
                        report = _yoneda_report(reps[d], f, d)
                        violations.extend(f"|S|={n} at {d}: {v}" for v in report.violations)
        elif suite == "analogy":
            for decl in ex.workspace.identifications.values():
                if decl.target_name not in ex.artifacts:
                    continue
                p_target = ex.compile(ex.artifact(decl.target_name))
                transferred, _ = transfer(
                    decl.ident, ex.artifact(decl.source_name), name=decl.target_name
                )
                report = analogy_check(ex.compile(transferred), p_target)
                violations.extend(f"{decl.ident.name}: {v}" for v in report.violations)
        results[suite] = {"passed": not violations, "violations": violations}
        if violations:
            failed = True
            out.text(f"{suite}: FAIL ({len(violations)} violations)")
            for v in violations:
                out.text(f"  {v}")
        else:
            out.text(f"{suite}: ok")
    out.payload["suites"] = results
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_sections(ex: Execution, args, out: _Out) -> int:
    model = ex.artifact(args.model)
    p = ex.compile(model)
    obj = _parse_object_spec(args.object, model)
    if args.count:
        count = p.rows.count(obj)
    else:
        rows = p.rows[obj]
        count = len(rows)
    out.payload.update(
        {
            "model": args.model,
            "object": list(obj.names),
            "count": count,
            "sections": None,
        }
    )
    out.text(f"sections of {args.model} at {obj}: {count}")
    if not args.count:
        out.rows("sections", obj.names, rows)
    return EXIT_OK


def cmd_extend(ex: Execution, args, out: _Out) -> int:
    """The extensions of a local section ``a`` to the target and, when there
    are none, the blocking scopes above ``a``'s domain ``D``.

    Both are read off the model conditioned on ``a`` (:func:`ops.condition`):
    its rows at an object ``z`` are ``a``'s extensions to ``D ∪ z`` without
    ``a``'s values, so the kernel enumerates no row that disagrees with
    ``a``.  The extensions to the target are those of the empty section to
    ``target ∖ D``, with ``a``'s values put back; each blocking scope is
    ``D ∪ z`` for an inclusion-minimal object ``z`` with no rows, found by
    :meth:`presh.model._ObjectRows.blocking`, which reads only the objects
    that decide them, as the conditioned presheaf is compiled and so closed.
    Adding ``D`` keeps the canonical row order and the shortlex scope order.
    """
    model = ex.artifact(args.model)
    # refuses on the whole model's estimate, before any object is read
    p = ex.compile(model)
    a = _parse_assignment(args.assignment, model)
    target = _parse_object_spec(args.target, model)
    d = a.domain
    # of the whole model, this reads only d's prefix chain
    _require_local_section(p, a)
    if not d.issubset(target):
        raise MalformedInputError(f"{d} is not contained in {target}")
    c = ex.compile(condition(model, a))
    empty = Assignment(Subset(()), ())
    fixed = a.as_dict()
    exts = []
    for b in extensions(c, empty, target.difference(d)):
        rest = iter(b.values)
        row = tuple(fixed[f] if f in fixed else next(rest) for f in target.names)
        exts.append(row)
    out.payload.update(
        {"model": args.model, "assignment": fixed, "target": list(target.names)}
    )
    out.text(f"extensions of {a} to {target}: {len(exts)}")
    out.rows("extensions", target.names, exts)
    if not exts:
        blocks = [d.union(z) for z in c.rows.blocking()]
        out.payload["blocking"] = [list(w.names) for w in blocks]
        out.text("no extension; blocking scopes:")
        for w in blocks:
            out.text(f"  {w}")
    return EXIT_OK


def _emit(model: Model, path: str, out: _Out) -> None:
    Path(path).write_text(serialize(model), encoding="utf-8")
    out.text(f"wrote {path}")
    out.payload["emitted"] = path


def cmd_merge(ex: Execution, args, out: _Out) -> int:
    left = ex.artifact(args.left)
    right = ex.artifact(args.right)
    merged = amalgamate(left, right, name=args.name)
    p = ex.compile(merged.result)
    p_left, p_right = ex.compile(left), ex.compile(right)
    emergent = emergent_sections(p, p_left, p_right)
    overlap = overlap_union_report(p, p_left, p_right)
    out.text(f"merge {merged.result.name} = {args.left} + {args.right}")
    for record in merged.shared:
        if record.reordered:
            out.text(
                f"warning: shared fiber {record.feature!r} declared in a "
                "different order on each side; left order kept"
            )
    universe = p.family.universe
    out.text(f"global sections: {len(p.rows[universe])}")
    out.text(f"emergent sections: {len(emergent)}")
    out.rows("emergent", universe.names, [a.values for a in emergent])
    cross = [
        (u, d.only_in_right)
        for u, d in overlap.per_object.items()
        if d.only_in_right
    ]
    if cross:
        out.text("cross-combinations on the overlap (amalgam only):")
        for u, extra in cross:
            for a in extra:
                out.text(f"  {u}: {a}")
    out.payload.update(
        {
            "result": merged.result.name,
            "cross_combinations": {
                str(u): [a.as_dict() for a in extra] for u, extra in cross
            },
        }
    )
    if out.machine:  # text output prints only the count
        out.rows("global_sections", universe.names, p.rows[universe])
    if args.emit:
        _emit(merged.result, args.emit, out)
    return EXIT_OK


def cmd_transfer(ex: Execution, args, out: _Out) -> int:
    decl = ex.workspace.identifications.get(args.identification)
    if decl is None:
        raise MalformedInputError(f"unknown identification {args.identification!r}")
    model, skipped = transfer(decl.ident, ex.artifact(args.source), name=args.name)
    p = ex.compile(model)
    universe = p.family.universe
    gs = p.rows[universe]
    out.text(f"transfer {model.name} = {decl.ident.name} of {args.source}")
    for scope in skipped:
        out.text(f"  skipped table scope {scope} (unmapped features)")
    out.text(f"global sections: {len(gs)}")
    out.rows("global_sections", universe.names, gs)
    out.payload.update(
        {"result": model.name, "skipped_scopes": [list(s.names) for s in skipped]}
    )
    code = EXIT_OK
    if decl.target_name in ex.artifacts:
        report = analogy_check(p, ex.compile(ex.artifact(decl.target_name)))
        out.payload["analogy"] = {
            "target": decl.target_name,
            "passed": report.passed,
            "violations": [str(v) for v in report.violations],
        }
        if report.passed:
            out.text(f"analogy against {decl.target_name}: ok")
        else:
            out.text(f"analogy against {decl.target_name}: FAIL")
            for v in report.violations:
                out.text(f"  {v}")
            code = EXIT_CHECK_FAILED
    if args.emit:
        _emit(model, args.emit, out)
    return code


def cmd_diff(ex: Execution, args, out: _Out) -> int:
    diff = diff_presheaves(
        ex.compile(ex.artifact(args.left)), ex.compile(ex.artifact(args.right))
    )
    dirty = diff.dirty_objects()
    out.payload["objects"] = {
        str(u): {
            "only_in_left": [a.as_dict() for a in diff.per_object[u].only_in_left],
            "only_in_right": [a.as_dict() for a in diff.per_object[u].only_in_right],
        }
        for u in dirty
    }
    if not dirty:
        out.text(f"{args.left} and {args.right} agree on all shared objects")
        return EXIT_OK
    out.text(f"{args.left} vs {args.right}:")
    for u in dirty:
        d = diff.per_object[u]
        for a in d.only_in_left:
            out.text(f"  {u}: < {a}")
        for a in d.only_in_right:
            out.text(f"  {u}: > {a}")
    return EXIT_OK


def cmd_render(ex: Execution, args, out: _Out) -> int:
    if args.artifact == "workspace":
        if args.render_format != "dot":
            raise MalformedInputError("the workspace graph only renders as dot")
        text = render_mod.dot_workspace(ex.workspace, ex.artifacts)
    else:
        model = ex.artifact(args.artifact)
        p = ex.compile(model)
        if args.render_format == "dot":
            text = render_mod.dot_cover_family(p, model.name)
        else:
            text = render_mod.canvas(model, p)
    out.payload["rendering"] = text
    out.lines.extend(text.rstrip("\n").split("\n"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code contract: usage errors are 2
        self.print_usage(sys.stderr)
        raise MalformedInputError(message)

    def _get_formatter(self):
        # the width argparse uses without a terminal, so usage text is byte-stable
        return self.formatter_class(prog=self.prog, width=78)


def _max_enum(text: str) -> int:
    """A ``--max-enum`` value: an integer, at least 0."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return bound


@functools.cache
def build_parser() -> _ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = _ArgumentParser(prog="presh", description=__doc__)
    parser.add_argument("--workspace", required=True, help="path to a .pshw or .psh file")
    parser.add_argument(
        "--format", choices=("text", "machine"), default="text", dest="fmt"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    parser.add_argument(
        "--max-enum",
        type=_max_enum,
        default=10**6,
        help="refusal bound for exhaustive enumerations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run law suites over the workspace")
    p.add_argument("--laws", default=",".join(ALL_SUITES))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sections", help="list sections of a model at an object")
    p.add_argument("model")
    p.add_argument("--object", default=None, help="e.g. {a,b} or a,b; default universe")
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("extend", help="extend a local section to a larger object")
    p.add_argument("model")
    p.add_argument("assignment", help="literal like feature=value,feature=value")
    p.add_argument("target", nargs="?", default=None, help="default universe")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("merge", help="amalgamate two models")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--name", default=None)
    p.add_argument("--emit", default=None, help="write the result as canonical .psh")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("transfer", help="apply an identification to a model")
    p.add_argument("identification")
    p.add_argument("source")
    p.add_argument("--name", default=None)
    p.add_argument("--emit", default=None)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("diff", help="objectwise section diff of two models")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("render", help="dot or canvas rendering")
    p.add_argument("artifact", help="model name, or 'workspace' for the hub graph")
    p.add_argument("render_format", choices=("dot", "canvas"), metavar="format")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _Out(machine=False)
    try:
        out.machine = args.fmt == "machine"
        workspace = parse_workspace_file(args.workspace)
        ex = execute(workspace, max_enum=args.max_enum)
        for line in ex.notes():
            print(line, file=sys.stderr)
        code = args.func(ex, args, out)
        return out.flush(args.command, code)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CheckFailed as exc:
        for line in exc.lines:
            print(line, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except EnumerationBoundError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (MalformedInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
