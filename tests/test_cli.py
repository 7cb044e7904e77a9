import difflib
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import presh
from presh import model as model_mod
from presh.cli import _Out, build_parser, main
from presh.dsl import (
    CheckDirective,
    IdentificationDecl,
    MergeDirective,
    TransferDirective,
    Workspace,
    parse_model,
    serialize,
)
from presh.model import compile_model, oracle_sections, random_model
from presh.presheaf import restrict_assignment, row_sort_key

from util import (
    random_identification,
    random_pair,
    record_builds,
    reference_blocking_sets,
    reference_diff_presheaves,
    reference_emergent_sections,
    reference_overlap_union_report,
    reference_validate_assignment,
)

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def hub_path(data_dir):
    return str(data_dir / "digital_hub.pshw")


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys, data_dir):
        code, _, _ = run(
            capsys, "--workspace", str(data_dir / "organization.psh"), "sections",
            "Organization",
        )
        assert code == 0

    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.psh"
        bad.write_text("model m\nfeature a: x | x\n")
        code, _, err = run(capsys, "--workspace", str(bad), "sections", "m")
        assert code == 2
        assert "duplicate value" in err
        assert "2:16" in err

    def test_workspace_not_utf8_is_2_with_span(self, capsys, tmp_path):
        bad = tmp_path / "bad.pshw"
        bad.write_bytes(b"format 1\nmodel A\nfeature x: a\xff\n")
        code, out, err = run(capsys, "--workspace", str(bad), "sections", "A")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {bad}:3:13: invalid UTF-8 byte 0xff (invalid start byte)\n"
        )

    def test_include_not_utf8_is_2_at_the_include_string(self, capsys, tmp_path):
        (tmp_path / "bad.psh").write_bytes(b"model A\nfeature x: a\xff\n")
        ws = tmp_path / "w.pshw"
        ws.write_text('format 1\ninclude "bad.psh"\n')
        code, out, err = run(capsys, "--workspace", str(ws), "sections", "A")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {ws}:2:9: cannot include 'bad.psh': ")
        assert "can't decode byte 0xff" in err

    def test_check_failure_is_1(self, capsys):
        code, _, _ = run(
            capsys,
            "--workspace",
            str(FIXTURES / "broken_analogy.pshw"),
            "check",
            "--laws=analogy",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "command, model",
        [
            (["sections", "PC"], "PC"),
            (["extend", "Camcorder", "film=prof_and_amateur"], "Camcorder"),
            (["merge", "PC", "Camcorder"], "PC_Camcorder"),
            (["transfer", "AudioVideo", "IMovieHub"], "AudioVideo_IMovieHub"),
            (["diff", "PC", "Camcorder"], "PC"),
            (["render", "PC", "dot"], "PC"),
            (["check", "--laws=closure"], "Camcorder"),
            (["check", "--laws=analogy"], "ITunes"),
        ],
        ids=[
            "sections", "extend", "merge", "transfer", "diff", "render",
            "check-closure", "check-analogy",
        ],
    )
    def test_every_command_honours_max_enum(
        self, capsys, tmp_path, data_dir, command, model
    ):
        # the hub without its check line, so refusals come from the command
        for name in ("pc.psh", "camcorder.psh", "itunes.psh"):
            (tmp_path / name).write_text((data_dir / name).read_text())
        hub = (data_dir / "digital_hub.pshw").read_text()
        assert "check DigitalHub\n" in hub
        ws = tmp_path / "hub.pshw"
        ws.write_text(hub.replace("check DigitalHub\n", ""))
        code, out, err = run(capsys, "--workspace", str(ws), "--max-enum", "2", *command)
        assert code == 3
        assert out == ""
        assert err.startswith(f"refused: presheaf of {model!r} refused")

    def test_analogy_refuses_a_transfer_larger_than_its_target(self, capsys, tmp_path):
        ws = tmp_path / "w.pshw"
        ws.write_text(
            "model A\nfeature f: a | b\n"
            "model B\nfeature g: a\n"
            "identify h: B -> A {\n  feature g -> f {\n    a -> a\n    b -> b\n  }\n}\n"
        )
        code, _, err = run(
            capsys, "--workspace", str(ws), "--max-enum", "2", "check", "--laws=analogy"
        )
        assert code == 3
        assert err.startswith("refused: presheaf of 'B' refused (required 3, bound 2)")

    @pytest.mark.parametrize(
        "command",
        [["check", "--laws=analogy"], ["check", "--laws=closure"], ["transfer", "h", "A"]],
        ids=["check-analogy", "check-closure", "transfer"],
    )
    def test_analogy_target_over_the_lattice_bound_is_refused(
        self, capsys, tmp_path, command
    ):
        # the transfer has the target's 13 features but not its fiber of t0,
        # so the analogy compares the two objectwise and walks the lattice;
        # the closure suite walks every object of the target
        ws = tmp_path / "w.pshw"
        ws.write_text(
            "model A\n"
            + "".join(f"feature f{i}: a\n" for i in range(13))
            + "model T\nfeature t0: a | b\n"
            + "".join(f"feature t{i}: a\n" for i in range(1, 13))
            + "identify h: T -> A {\n"
            + "".join(f"  feature t{i} -> f{i} {{\n    a -> a\n  }}\n" for i in range(13))
            + "}\n"
        )
        code, out, err = run(capsys, "--workspace", str(ws), *command)
        assert code == 3
        assert out == ""
        assert err.startswith("refused: family over 13 features refused")

    @pytest.mark.parametrize(
        "command",
        [["check", "--laws=analogy"], ["transfer", "h", "A"]],
        ids=["check-analogy", "transfer"],
    )
    def test_analogy_against_a_target_over_the_lattice_bound_fails_on_its_features(
        self, capsys, tmp_path, command
    ):
        # the feature sets differ, so the analogy fails before it reads an
        # object of the 13-feature target
        ws = tmp_path / "w.pshw"
        ws.write_text(
            "model A\nfeature f: a\nmodel T\n"
            + "".join(f"feature t{i}: a\n" for i in range(13))
            + "identify h: T -> A {\n  feature g -> f {\n    a -> a\n  }\n}\n"
        )
        code, out, err = run(capsys, "--workspace", str(ws), *command)
        assert (code, err) == (1, "")
        targets = ",".join(sorted(f"t{i}" for i in range(13)))
        assert (
            f"  {'h: ' if command[0] == 'check' else ''}analogy-feature-set: "
            f"transferred features {{g}} vs target {{{targets}}}\n"
        ) in out

    def test_usage_error_is_2(self, capsys, hub_path):
        code, _, _ = run(capsys, "--workspace", hub_path, "nonsense")
        assert code == 2

    def test_missing_file_is_2(self, capsys):
        code, _, _ = run(capsys, "--workspace", "no/such/file.pshw", "check")
        assert code == 2


class TestSections:
    def test_org_universe(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "organization.psh"), "sections",
            "Organization",
        )
        assert code == 0
        assert "3" in out.splitlines()[0]
        assert "levels=many,size=large" in out


class TestExtend:
    def test_blocked_local_section_prints_blocking_scopes(self, capsys, hub_path):
        code, out, _ = run(
            capsys, "--workspace", hub_path, "extend", "Camcorder",
            "film=prof_and_amateur,edit=quick_and_easy_editing",
        )
        assert code == 0
        assert "extensions" in out and ": 0" in out
        assert "blocking scopes:" in out
        assert "{edit,film,screen}" in out

    def test_restriction_of_global_section_extends(self, capsys, hub_path):
        code, out, _ = run(
            capsys, "--workspace", hub_path, "extend", "Camcorder",
            "film=prof_and_amateur",
        )
        assert code == 0
        assert ": 1" in out.splitlines()[0]

    def test_refusal_names_the_full_models_estimate(self, capsys, tmp_path):
        # conditioned on a=x the estimate is 4 (b alone), under the bound;
        # the whole model's 4 * 4 = 16 is not, and it decides
        ws = tmp_path / "w.psh"
        ws.write_text("model W\nfeature a: x | y | z\nfeature b: p | q | r\n")
        ex = presh.cli.execute(presh.parse_workspace_file(str(ws)), max_enum=10)
        a = presh.Assignment.from_mapping({"a": "x"})
        ex.compile(presh.condition(ex.artifact("W"), a))
        code, out, err = run(
            capsys, "--workspace", str(ws), "--max-enum", "10", "extend", "W", "a=x"
        )
        assert code == 3
        assert out == ""
        assert err == "refused: presheaf of 'W' refused (required 16, bound 10)\n"

    def test_reads_only_the_conditioned_presheaf(self, capsys, monkeypatch, hub_path):
        import presh.cli

        compiled = []

        def recording_compile(model):
            compiled.append(model_mod.compile_model(model))
            return compiled[-1]

        monkeypatch.setattr(presh.cli, "compile_model", recording_compile)
        code, _, _ = run(
            capsys, "--workspace", hub_path, "extend", "Camcorder",
            "film=prof_and_amateur,edit=quick_and_easy_editing",
        )
        assert code == 0
        # the DigitalHub directive, Camcorder, then Camcorder conditioned on
        # the section: the full model is read on the section's prefix chain
        # only, and the conditioned one is over {screen} alone, where the
        # (edit, screen) table leaves no value
        _, full, conditioned = compiled
        assert list(full.rows._built) == [(), ("edit",), ("edit", "film")]
        assert list(conditioned.fibers) == ["screen"]
        assert conditioned.rows._built == {(): ((),), ("screen",): ()}

    def test_the_empty_section_reuses_the_models_presheaf(self, hub_path):
        ex = presh.cli.execute(presh.parse_workspace_file(hub_path), max_enum=10**6)
        model = ex.artifact("Camcorder")
        empty = presh.Assignment(presh.Subset(()), ())
        assert ex.compile(presh.condition(model, empty)) is ex.compile(model)


def _oracle_extend(model, p, a, target):
    """What ``extend`` prints for the local section ``a`` and ``target``, from
    the brute-force sections at ``target`` and the reference blocking scopes:
    the text lines and the machine payload."""
    key = row_sort_key(model.fibers, target.names)
    exts = sorted(
        (b for b in oracle_sections(model, target)
         if restrict_assignment(b, a.domain) == a),
        key=lambda b: key(b.values),
    )
    lines = [f"extensions of {a} to {target}: {len(exts)}"]
    lines += [f"  {b}" for b in exts]
    payload = {
        "command": "extend",
        "exit": 0,
        "model": model.name,
        "assignment": a.as_dict(),
        "target": list(target.names),
        "extensions": [b.as_dict() for b in exts],
    }
    if not exts:
        blocks = reference_blocking_sets(p, a)
        lines.append("no extension; blocking scopes:")
        lines += [f"  {w}" for w in blocks]
        payload["blocking"] = [list(w.names) for w in blocks]
    return lines, payload


def test_extend_answers_like_the_oracle_on_random_models(capsys, tmp_path):
    # every local section at an object of one or two features, through
    # ``main`` in both formats, to the universe and to a random superset,
    # under a random --max-enum: a run answers as the oracle does, or is
    # refused on the whole model's estimate
    rng = random.Random(16)
    outcomes = {"refused": 0, "extends": 0, "blocked": 0}
    for seed in range(24):
        m = random_model(seed, max_features=5, max_fiber=3)
        ws = tmp_path / f"{m.name}.psh"
        ws.write_text(serialize(m), encoding="utf-8")
        p = compile_model(m)
        estimate = math.prod(1 + len(fib.values) for fib in m.fibers.values())
        for u in p.family.objects_sorted:
            if not 1 <= len(u) <= 2:
                continue
            supersets = list(filter(u.issubset, p.family.objects_sorted))
            for a in sorted(oracle_sections(m, u), key=lambda a: a.values):
                literal = ",".join(f"{f}={v}" for f, v in a.as_dict().items())
                for target in (None, rng.choice(supersets)):
                    lines, payload = _oracle_extend(
                        m, p, a, target or p.family.universe
                    )
                    spec = [] if target is None else [str(target)]
                    for fmt in ("text", "machine"):
                        bound = rng.randint(estimate // 2, 2 * estimate)
                        code, out, err = run(
                            capsys, "--workspace", str(ws), "--format", fmt,
                            "--max-enum", str(bound), "extend", m.name, literal, *spec,
                        )
                        if bound < estimate:
                            outcomes["refused"] += 1
                            assert (code, out, err) == (
                                3,
                                "",
                                f"refused: presheaf of {m.name!r} refused "
                                f"(required {estimate}, bound {bound})\n",
                            ), (seed, a, target, fmt)
                            continue
                        outcomes["blocked" if "blocking" in payload else "extends"] += 1
                        assert (code, err) == (0, ""), (seed, a, target, fmt)
                        if fmt == "text":
                            assert out.splitlines() == lines, (seed, a, target)
                        else:
                            assert json.loads(out) == payload, (seed, a, target)
                            assert out == _canonical(out), (seed, a, target)
    assert min(outcomes.values()) > 100, outcomes


def _canonical(out: str) -> str:
    """The JSON in ``out`` as ``json.dumps`` writes it with sorted keys and
    separators ``(",", ":")``, byte for byte what machine output prints."""
    return json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


def _estimate(model) -> int:
    return math.prod(1 + len(fib.values) for fib in model.fibers.values())


def _sorted_sections(sections, fibers, u):
    key = row_sort_key(fibers, u.names)
    return sorted(sections, key=lambda a: key(a.values))


def _random_workspace(seed: int, tmp_path):
    """A seeded ``random_pair`` ``L`` + ``R`` with ``merge M = L + R``, an
    identification ``h`` into ``L`` with ``transfer X = h of L``, and
    ``check M``; the identification's target is ``X`` on odd seeds, so
    ``transfer`` also checks the analogy, and an undeclared name on even
    ones.  Returns the file, ``h``, the target's name, the artifacts as the
    library builds them, and the notes the transfer directive writes."""
    left, right = random_pair(seed, max_features=4, max_fiber=3)
    left, right = left.with_name("L"), right.with_name("R")
    h = random_identification(seed, left)
    target = "X" if seed % 2 else "T"
    ws = Workspace((
        left,
        right,
        IdentificationDecl(h, target, "L"),
        MergeDirective("M", "L", "R"),
        TransferDirective("X", h.name, "L"),
        CheckDirective("M"),
    ))
    path = tmp_path / f"w{seed}.pshw"
    path.write_text(serialize(ws), encoding="utf-8")
    transferred, skipped = presh.transfer(h, left, name="X")
    artifacts = {
        "L": left,
        "R": right,
        "M": presh.amalgamate(left, right, name="M").result,
        "X": transferred,
    }
    notes = "".join(
        f"note: transfer X = {h.name} of L: skipped table scope {s} (unmapped features)\n"
        for s in skipped
    )
    return path, h, target, artifacts, notes


def _expected_sections(model, obj, count):
    secs = _sorted_sections(oracle_sections(model, obj), model.fibers, obj)
    shown = [] if count else secs
    lines = [f"sections of {model.name} at {obj}: {len(secs)}"] + [f"  {a}" for a in shown]
    payload = {
        "command": "sections",
        "exit": 0,
        "model": model.name,
        "object": list(obj.names),
        "count": len(secs),
        "sections": None if count else [a.as_dict() for a in secs],
    }
    return lines, payload


def _expected_transfer(h, left, target, artifacts):
    model, skipped = presh.transfer(h, left)
    pulled = presh.pullback_presheaf(h, compile_model(left))
    universe = pulled.family.universe
    gs = _sorted_sections(pulled.sections_at(universe), pulled.fibers, universe)
    lines = [f"transfer {model.name} = {h.name} of L"]
    lines += [f"  skipped table scope {s} (unmapped features)" for s in skipped]
    lines += [f"global sections: {len(gs)}"] + [f"  {a}" for a in gs]
    payload = {
        "command": "transfer",
        "exit": 0,
        "result": model.name,
        "skipped_scopes": [list(s.names) for s in skipped],
        "global_sections": [a.as_dict() for a in gs],
    }
    if target in artifacts:
        # the target is the transfer directive's result, so it commutes
        lines.append(f"analogy against {target}: ok")
        payload["analogy"] = {"target": target, "passed": True, "violations": []}
    return model, lines, payload


def _expected_merge(artifacts):
    left, right = artifacts["L"], artifacts["R"]
    merged = presh.amalgamate(left, right).result
    compiled = tuple(compile_model(m) for m in (merged, left, right))
    universe = compiled[0].family.universe
    gs = _sorted_sections(oracle_sections(merged, universe), merged.fibers, universe)
    emergent = reference_emergent_sections(*compiled)
    cross = [
        (u, d.only_in_right)
        for u, d in reference_overlap_union_report(*compiled).items()
        if d.only_in_right
    ]
    lines = [f"merge {merged.name} = L + R", f"global sections: {len(gs)}"]
    lines += [f"emergent sections: {len(emergent)}"] + [f"  {a}" for a in emergent]
    if cross:
        lines.append("cross-combinations on the overlap (amalgam only):")
        lines += [f"  {u}: {a}" for u, extra in cross for a in extra]
    payload = {
        "command": "merge",
        "exit": 0,
        "result": merged.name,
        "emergent": [a.as_dict() for a in emergent],
        "cross_combinations": {str(u): [a.as_dict() for a in e] for u, e in cross},
        "global_sections": [a.as_dict() for a in gs],
    }
    return merged, lines, payload


def test_commands_answer_like_the_references_on_random_workspaces(capsys, tmp_path):
    # sections (whole, --count, --object) against the oracle, transfer against
    # the presheaf pullback and merge against the reference merge reports,
    # through ``main`` in both formats, under a random --max-enum: a run
    # answers as the references do, or is refused on the first model it
    # compiles over the bound (the check directive's ``M`` comes first)
    rng = random.Random(17)
    outcomes = {"refused": 0, "sections": 0, "transfer": 0, "merge": 0}
    for seed in range(45):
        path, h, target, artifacts, notes = _random_workspace(seed, tmp_path)
        runs = []
        for name, model in artifacts.items():
            p = compile_model(model)
            obj = rng.choice([None, rng.choice(p.family.objects_sorted)])
            count = rng.random() < 0.5
            lines, payload = _expected_sections(
                model, obj if obj is not None else p.family.universe, count
            )
            argv = ["sections", name]
            argv += [] if obj is None else ["--object", str(obj)]
            argv += ["--count"] if count else []
            runs.append(("sections", argv, [model], lines, payload))
        model, lines, payload = _expected_transfer(h, artifacts["L"], target, artifacts)
        runs.append(("transfer", ["transfer", h.name, "L"], [model], lines, payload))
        merged, lines, payload = _expected_merge(artifacts)
        runs.append(
            ("merge", ["merge", "L", "R"], [merged, artifacts["L"], artifacts["R"]],
             lines, payload)
        )
        for kind, argv, compiled, lines, payload in runs:
            ahead = [artifacts["M"]] + compiled
            estimates = [_estimate(m) for m in ahead]
            for fmt in ("text", "machine"):
                bound = rng.randint(min(estimates) // 2, 3 * max(estimates))
                code, out, err = run(
                    capsys, "--workspace", str(path), "--format", fmt,
                    "--max-enum", str(bound), *argv,
                )
                where = (seed, argv, fmt, bound)
                over = [m for m in ahead if _estimate(m) > bound]
                if over:
                    outcomes["refused"] += 1
                    first = over[0]
                    refusal = (
                        f"refused: presheaf of {first.name!r} refused "
                        f"(required {_estimate(first)}, bound {bound})\n"
                    )
                    # a refusal in the check directive comes before the notes
                    before = "" if first is artifacts["M"] else notes
                    assert (code, out, err) == (3, "", before + refusal), where
                    continue
                outcomes[kind] += 1
                assert (code, err) == (0, notes), where
                if fmt == "text":
                    assert out.splitlines() == lines, where
                else:
                    assert json.loads(out) == payload, where
                    assert out == _canonical(out), where
    assert min(outcomes.values()) > 50, outcomes


def _expected_diff(artifacts, left, right):
    per_object = reference_diff_presheaves(
        compile_model(artifacts[left]), compile_model(artifacts[right])
    )
    dirty = {u: d for u, d in per_object.items() if d.only_in_left or d.only_in_right}
    if dirty:
        lines = [f"{left} vs {right}:"]
        for u, d in dirty.items():
            lines += [f"  {u}: < {a}" for a in d.only_in_left]
            lines += [f"  {u}: > {a}" for a in d.only_in_right]
    else:
        lines = [f"{left} and {right} agree on all shared objects"]
    payload = {
        "command": "diff",
        "exit": 0,
        "objects": {
            str(u): {
                "only_in_left": [a.as_dict() for a in d.only_in_left],
                "only_in_right": [a.as_dict() for a in d.only_in_right],
            }
            for u, d in dirty.items()
        },
    }
    return lines, payload


def _dot_nodes(lines):
    return [line for line in lines if "[label=" in line]


def test_diff_and_render_answer_like_the_references_on_random_workspaces(
    capsys, tmp_path
):
    # diff against the reference diff and the node counts of ``render dot``
    # against the oracle, on the workspaces of the test above, through
    # ``main`` in both formats, under a random --max-enum: a run answers as
    # the references do, or is refused on the first model it compiles over
    # the bound
    rng = random.Random(18)
    outcomes = {"refused": 0, "diff": 0, "render": 0}
    for seed in range(55):
        path, _, _, artifacts, notes = _random_workspace(seed, tmp_path)
        left, right = rng.choice(sorted(artifacts)), rng.choice(sorted(artifacts))
        drawn = rng.choice(sorted(artifacts))
        runs = [
            ("diff", ["diff", left, right], [artifacts[left], artifacts[right]]),
            ("render", ["render", drawn, "dot"], [artifacts[drawn]]),
        ]
        for kind, argv, compiled in runs:
            ahead = [artifacts["M"]] + compiled
            estimates = [_estimate(m) for m in ahead]
            for fmt in ("text", "machine"):
                bound = rng.randint(min(estimates) // 2, 3 * max(estimates))
                code, out, err = run(
                    capsys, "--workspace", str(path), "--format", fmt,
                    "--max-enum", str(bound), *argv,
                )
                where = (seed, argv, fmt, bound)
                over = [m for m in ahead if _estimate(m) > bound]
                if over:
                    outcomes["refused"] += 1
                    first = over[0]
                    refusal = (
                        f"refused: presheaf of {first.name!r} refused "
                        f"(required {_estimate(first)}, bound {bound})\n"
                    )
                    before = "" if first is artifacts["M"] else notes
                    assert (code, out, err) == (3, "", before + refusal), where
                    continue
                outcomes[kind] += 1
                assert (code, err) == (0, notes), where
                if kind == "diff":
                    lines, payload = _expected_diff(artifacts, left, right)
                    got = out.splitlines() if fmt == "text" else json.loads(out)
                    assert got == (lines if fmt == "text" else payload), where
                    continue
                model = artifacts[drawn]
                nodes = [
                    f'  "{u}" [label="{u}\\n{len(oracle_sections(model, u))}"];'
                    for u in compile_model(model).family.objects_sorted
                ]
                if fmt == "machine":
                    body = json.loads(out)
                    assert sorted(body) == ["command", "exit", "rendering"], where
                    out = body["rendering"]
                assert _dot_nodes(out.splitlines()) == nodes, where
    assert min(outcomes.values()) > 40, outcomes


def _expected_check(suites, h, target, artifacts):
    results = {}
    for suite in suites:
        violations = []
        if suite == "closure":
            for name in sorted(artifacts):
                report = reference_validate_assignment(compile_model(artifacts[name]))
                violations += [f"{name}: {v}" for v in report.violations]
        elif suite == "analogy" and target in artifacts:
            pulled = presh.pullback_presheaf(h, compile_model(artifacts["L"]))
            per_object = reference_diff_presheaves(
                pulled, compile_model(artifacts[target])
            )
            for u, d in per_object.items():
                violations += [
                    f"{h.name}: analogy-sections: {a} at {u} only in the target"
                    for a in d.only_in_right
                ]
                violations += [
                    f"{h.name}: analogy-sections: {a} at {u} only in the transfer"
                    for a in d.only_in_left
                ]
        results[suite] = {"passed": not violations, "violations": violations}
    return results


def test_check_answers_like_the_references_on_random_workspaces(capsys, tmp_path):
    # check's closure suite against the reference validator on every
    # artifact, and its analogy suite against the reference diff of the
    # pullback and the target (the target is declared on odd seeds only),
    # through ``main`` in both formats, under a random --max-enum; the fixed
    # adjunction and yoneda sweeps run, with the rest, on three seeds only
    rng = random.Random(19)
    outcomes = {"refused": 0, "check": 0, "all": 0}
    for seed in range(80):
        path, h, target, artifacts, notes = _random_workspace(seed, tmp_path)
        full = seed in (1, 2, 3)
        suites = ("closure", "adjunction", "yoneda", "analogy") if full else (
            "closure", "analogy"
        )
        results = _expected_check(suites, h, target, artifacts)
        # the check directive compiles M; the closure suite then compiles
        # every artifact in name order
        ahead = [artifacts["M"]] + [artifacts[n] for n in sorted(artifacts)]
        estimates = [_estimate(m) for m in ahead]
        for fmt in ("text", "machine"):
            bound = rng.randint(min(estimates) // 2, 3 * max(estimates))
            argv = ["check"] if full else ["check", "--laws=closure,analogy"]
            code, out, err = run(
                capsys, "--workspace", str(path), "--format", fmt,
                "--max-enum", str(bound), *argv,
            )
            where = (seed, argv, fmt, bound)
            over = [m for m in ahead if _estimate(m) > bound]
            if over:
                outcomes["refused"] += 1
                first = over[0]
                refusal = (
                    f"refused: presheaf of {first.name!r} refused "
                    f"(required {_estimate(first)}, bound {bound})\n"
                )
                before = "" if first is artifacts["M"] else notes
                assert (code, out, err) == (3, "", before + refusal), where
                continue
            outcomes["all" if full else "check"] += 1
            failed = any(not r["passed"] for r in results.values())
            assert (code, err) == (1 if failed else 0, notes), where
            if fmt == "text":
                lines = []
                for suite, r in results.items():
                    if r["passed"]:
                        lines.append(f"{suite}: ok")
                        continue
                    lines.append(f"{suite}: FAIL ({len(r['violations'])} violations)")
                    lines += [f"  {v}" for v in r["violations"]]
                assert out.splitlines() == lines, where
            else:
                payload = {"command": "check", "exit": code, "suites": results}
                assert json.loads(out) == payload, where
                assert out == _canonical(out), where
    assert min(outcomes.values()) > 1 and outcomes["check"] > 80, outcomes


class TestMergeTransferDiff:
    def test_merge_prints_the_emergent_section(self, capsys, hub_path):
        code, out, _ = run(capsys, "--workspace", hub_path, "merge", "PC", "Camcorder")
        assert code == 0
        assert "emergent sections: 6" in out
        assert (
            "computing=large,edit=quick_and_easy_editing,"
            "film=prof_and_amateur,screen=large" in out
        )
        assert "cross-combinations" in out

    def test_merge_emit_round_trips(self, capsys, hub_path, tmp_path):
        target = tmp_path / "hub.psh"
        code, _, _ = run(
            capsys, "--workspace", hub_path, "merge", "PC", "Camcorder",
            "--name", "VideoHub", "--emit", str(target),
        )
        assert code == 0
        emitted = parse_model(target.read_text())
        assert emitted.name == "VideoHub"
        assert "edit" in emitted.fibers and "computing" in emitted.fibers

    def test_transfer_reports_passing_analogy(self, capsys, hub_path):
        code, out, _ = run(
            capsys, "--workspace", hub_path, "transfer", "AudioVideo", "IMovieHub"
        )
        assert code == 0
        assert "analogy against ITunes: ok" in out
        assert (
            "computing=large,music=music_usage_everywhere,"
            "share=bought_and_shared_online,storage=large" in out
        )

    def test_reordered_shared_fiber_warns(self, capsys, tmp_path):
        ws = tmp_path / "pair.pshw"
        ws.write_text(
            "model L\nfeature a: x | y\n\nmodel R\nfeature a: y | x\n"
        )
        code, out, _ = run(capsys, "--workspace", str(ws), "merge", "L", "R")
        assert code == 0
        assert "different order" in out

    def test_diff_of_model_with_itself_is_clean(self, capsys, hub_path):
        code, out, _ = run(capsys, "--workspace", hub_path, "diff", "PC", "PC")
        assert code == 0
        assert "agree" in out

    def test_diff_reports_direction(self, capsys, hub_path):
        code, out, _ = run(
            capsys, "--workspace", hub_path, "diff", "Camcorder", "IMovieHub"
        )
        assert code == 0
        assert ">" in out


class TestRender:
    def test_hub_workspace_dot_matches_golden(self, capsys, hub_path):
        # without --format, the record the hub-render-workspace case pins for text
        code, out, err = run(
            capsys, "--workspace", hub_path, "render", "workspace", "dot"
        )
        golden = GOLDEN_CLI / _golden_name("hub-render-workspace", "text")
        assert _record(code, out, err) == golden.read_text(encoding="utf-8")

    def test_single_feature_chain(self, capsys, tmp_path):
        one = tmp_path / "one.psh"
        one.write_text("model One\nfeature x: v\n")
        code, out, _ = run(
            capsys, "--workspace", str(one), "render", "One", "dot"
        )
        assert code == 0
        assert '"{}" -> "{x}";' in out

    def test_unknown_format_is_2(self, capsys, hub_path):
        code, _, _ = run(capsys, "--workspace", hub_path, "render", "PC", "svg")
        assert code == 2


class TestMachineOutput:
    def test_byte_stability_across_runs(self, capsys, hub_path):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(
                capsys, "--workspace", hub_path, "--format", "machine", "merge",
                "PC", "Camcorder",
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_machine_render_emits_json(self, capsys, hub_path):
        code, out, _ = run(
            capsys, "--workspace", hub_path, "--format", "machine", "render",
            "workspace", "dot",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "render"
        assert payload["rendering"].startswith("digraph workspace")

    # names and values JSON must escape, and ``%``s that text formatting
    # would read; each name sorted, as a Subset's names are
    NAMES = tuple(sorted(['a"q', "b\\s", "%s", "100%", "é", "z\t"]))
    VALUES = ('x"', "\\", "%d", "50%", "ü", "😀", "\n", "v0")

    @pytest.mark.parametrize(
        "lists",
        [
            [("sections", NAMES, 40)],
            [("sections", NAMES[:1], 40), ("emergent", NAMES[2:], 40)],
            [("sections", NAMES, 0)],
            [("sections", (), 40)],  # a zero-feature object: {} per row
            [("sections", (), 0)],
            [],  # --count: the list stays null
        ],
        ids=["rows", "two-lists", "no-rows", "empty-object", "empty-no-rows", "count"],
    )
    def test_section_lists_are_byte_identical_to_json_dumps(self, capsys, lists):
        # _Out against one json.dumps of the body, its lists as dicts
        rng = random.Random(23)
        out = _Out(machine=True)
        body = {"command": "sections", "exit": 0}
        for o in (out.payload, body):
            o.update({
                "sections": None,
                "count": 7,
                "object": list(self.NAMES),
                "Zeta": {"b": [{"z": "1", "a": '"'}], "a": "é%"},
            })
        for key, names, count in lists:
            rows = [tuple(rng.choice(self.VALUES) for _ in names) for _ in range(count)]
            out.rows(key, names, rows)
            body[key] = [dict(zip(names, row)) for row in rows]
        assert out.flush("sections", 0) == 0
        expected = json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
        assert capsys.readouterr().out == expected


class TestCheck:
    def test_full_suite_on_the_hub_is_fast(self, capsys, hub_path):
        import time

        start = time.monotonic()
        code, out, _ = run(capsys, "--workspace", hub_path, "check")
        elapsed = time.monotonic() - start
        assert code == 0
        for suite in ("closure", "adjunction", "yoneda", "analogy"):
            assert f"{suite}: ok" in out
        assert elapsed < 5.0

    def test_broken_analogy_prints_witnesses(self, capsys):
        code, out, _ = run(
            capsys, "--workspace", str(FIXTURES / "broken_analogy.pshw"), "check",
            "--laws=analogy",
        )
        assert code == 1
        assert "analogy: FAIL" in out
        assert "only in the transfer" in out

    def test_failing_check_directive_is_1_with_its_violations(
        self, capsys, monkeypatch, hub_path
    ):
        violations = (
            presh.Violation("closure", "first witness"),
            presh.Violation("closure", "second witness"),
        )
        monkeypatch.setattr(presh.cli, "validate_laws", lambda p: presh.LawReport(violations))
        for fmt in ("text", "machine"):
            code, out, err = run(
                capsys, "--workspace", hub_path, "--format", fmt, "sections", "PC"
            )
            assert (code, out) == (1, "")
            assert err == (
                "check DigitalHub: FAIL\n"
                "  closure: first witness\n"
                "  closure: second witness\n"
            )

    def test_analogy_skips_an_identification_with_an_undeclared_target(
        self, capsys, tmp_path
    ):
        # ``h`` maps onto a target no model declares, ``g`` onto ``B``
        ws = tmp_path / "w.pshw"
        ws.write_text(
            "model A\nfeature f: a | b\nmodel B\nfeature t: a | b\n"
            "identify h: Nowhere -> A {\n  feature t -> f {\n    a -> a\n  }\n}\n"
            "identify g: B -> A {\n  feature t -> f {\n    a -> a\n    b -> b\n  }\n}\n"
        )
        code, out, err = run(capsys, "--workspace", str(ws), "check", "--laws=analogy")
        assert (code, out, err) == (0, "analogy: ok\n", "")
        # a table in B that the transfer does not have makes ``g`` fail
        ws.write_text(ws.read_text().replace("b\nidentify h", "b\nforbid (t): (b)\nidentify h"))
        code, out, _ = run(capsys, "--workspace", str(ws), "check", "--laws=analogy")
        assert code == 1
        assert out.startswith("analogy: FAIL (")
        assert all(line.startswith("  g: ") for line in out.splitlines()[1:])

    def test_yoneda_suite_passes_for_any_seed_and_repeats(
        self, capsys, monkeypatch, hub_path
    ):
        drawn = []

        def recording(seed, family):
            drawn.append(presh.random_abstract_presheaf(seed, family))
            return drawn[-1]

        monkeypatch.setattr(presh.cli, "random_abstract_presheaf", recording)
        per_seed = []
        for seed in (1, 7, 1234):
            first = len(drawn)
            for fmt in ("text", "machine"):
                argv = ["--format", fmt, "--seed", str(seed), "check", "--laws=yoneda"]
                runs = [run(capsys, "--workspace", hub_path, *argv) for _ in range(2)]
                assert runs[0] == runs[1], (seed, fmt)
                code, out, err = runs[0]
                assert (code, err) == (0, "")
                if fmt == "text":
                    assert out == "yoneda: ok\n"
                else:
                    assert json.loads(out)["suites"] == {
                        "yoneda": {"passed": True, "violations": []}
                    }
            per_seed.append(drawn[first:])
        # each run draws the same presheaves, and another seed draws others
        for draws in per_seed:
            n = len(draws) // 4
            assert n and draws == draws[:n] * 4
        assert len({tuple(map(repr, draws)) for draws in per_seed}) == 3


    def test_yoneda_suite_builds_one_representable_per_object(
        self, capsys, monkeypatch, hub_path
    ):
        calls = []

        def counting(family, c):
            calls.append((family.universe, c))
            return presh.representable(family, c)

        monkeypatch.setattr(presh.cli, "representable", counting)
        code, out, _ = run(capsys, "--workspace", hub_path, "check", "--laws=yoneda")
        assert (code, out) == (0, "yoneda: ok\n")
        # families over 0-3 features: 1 + 2 + 4 + 8 objects
        assert len(calls) == 15
        assert len(set(calls)) == 15

def test_each_command_compiles_each_model_once(capsys, monkeypatch, hub_path):
    keys = []
    init = model_mod._ObjectRows.__init__

    def recording_init(self, family, model):
        keys.append((tuple(model.fibers.values()), model.tables))
        init(self, family, model)

    monkeypatch.setattr(model_mod._ObjectRows, "__init__", recording_init)
    for command in (
        ["check"],
        ["sections", "DigitalHub"],
        ["extend", "Camcorder", "film=prof_and_amateur"],
        ["merge", "PC", "Camcorder"],
        ["transfer", "AudioVideo", "IMovieHub"],
        ["diff", "ITunes", "ITunesFromVideo"],
        ["render", "DigitalHub", "canvas"],
    ):
        keys.clear()
        code, _, _ = run(capsys, "--workspace", hub_path, *command)
        assert code == 0, command
        assert keys, command
        assert len(keys) == len(set(keys)), command


@pytest.mark.parametrize(
    "command, calls",
    [
        # the `check DigitalHub` directive alone
        (["sections", "DigitalHub", "--count"], 1),
        (["check", "--laws=adjunction"], 1),
        # six artifacts, five contents (ITunesFromVideo compiles to ITunes's
        # presheaf); the directive's DigitalHub report is reused by the suite
        (["check", "--laws=closure"], 5),
        (["check"], 5),
    ],
)
def test_each_command_validates_each_presheaf_once(
    capsys, monkeypatch, hub_path, command, calls
):
    import presh.cli

    validated = []
    validate = presh.cli.validate_laws

    def counting_validate(p):
        validated.append(p)
        return validate(p)

    monkeypatch.setattr(presh.cli, "validate_laws", counting_validate)
    code, _, _ = run(capsys, "--workspace", hub_path, *command)
    assert code == 0
    assert len(validated) == calls
    assert len({id(p) for p in validated}) == calls


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_section_lists_print_from_rows(capsys, monkeypatch, hub_path, fmt):
    # sections and transfer print the presheaf's rows as they are, without
    # decoding them to Assignments first
    built = []
    init = presh.presheaf.Assignment.__init__

    def counting_init(self, domain, values):
        built.append((domain, values))
        init(self, domain, values)

    monkeypatch.setattr(presh.presheaf.Assignment, "__init__", counting_init)
    for command in (
        ["sections", "DigitalHub"],
        ["sections", "DigitalHub", "--count"],
        ["sections", "Camcorder", "--object", "film,screen"],
        ["transfer", "AudioVideo", "IMovieHub"],
    ):
        code, out, _ = run(capsys, "--workspace", hub_path, "--format", fmt, *command)
        assert (code, built) == (0, []), command
        assert out, command


WINE_FEATURES = (
    "aging", "complexity", "marketing", "prestige", "price", "range", "terminology"
)


@pytest.mark.parametrize(
    "query, expected",
    [
        # no table after prestige reads aging or prestige, so the count
        # tallies from there on and builds no wider object
        (["--count"], [WINE_FEATURES[:k] for k in range(1, 5)]),
        (["--object", "{price,range}"], [("price",), ("price", "range")]),
    ],
    ids=["count", "object"],
)
def test_sections_builds_only_the_prefix_chain(
    capsys, monkeypatch, data_dir, query, expected
):
    built = record_builds(monkeypatch)
    wine = str(data_dir / "wine.psh")
    code, _, _ = run(capsys, "--workspace", wine, "sections", "Wine", *query)
    assert code == 0
    assert [names for _, names in built] == expected


def test_check_builds_each_object_once_across_suites(capsys, monkeypatch, hub_path):
    built = record_builds(monkeypatch)
    code, _, _ = run(capsys, "--workspace", hub_path, "check", "--laws=closure,analogy")
    assert code == 0
    # object rows are a Mapping, which cannot be hashed: key them by id
    assert len(built) == len({(id(rows), names) for rows, names in built})
    models = {id(rows): rows for rows, _ in built}
    # closure reads every object, so each non-empty one is built exactly once
    assert len(built) == sum(2 ** len(rows.base) - 1 for rows in models.values())


ITUNES_FEATURES = ("computing", "music", "share", "storage")


@pytest.fixture()
def pullback_hub(capsys, tmp_path, data_dir):
    """The hub workspace, without its check line, whose ``ITunes`` is the
    ``transfer --emit`` output of ``AudioVideo`` of ``IMovieHub``."""
    for name in ("pc.psh", "camcorder.psh", "itunes.psh"):
        (tmp_path / name).write_text((data_dir / name).read_text())
    ws = tmp_path / "hub.pshw"
    ws.write_text(
        (data_dir / "digital_hub.pshw").read_text().replace("check DigitalHub\n", "")
    )
    code, _, _ = run(
        capsys, "--workspace", str(ws), "transfer", "AudioVideo", "IMovieHub",
        "--name", "ITunes", "--emit", str(tmp_path / "itunes.psh"),
    )
    assert code == 0
    return str(ws)


@pytest.fixture()
def redundant_row_hub(pullback_hub, tmp_path):
    """As ``pullback_hub``, with one more forbid row on a combination the
    ``(share, storage)`` table already excludes: the same sections at every
    object, from different tables."""
    itunes = tmp_path / "itunes.psh"
    itunes.write_text(
        itunes.read_text()
        + "forbid (computing, share, storage): (large, bought_and_shared_online, small)\n"
    )
    return pullback_hub


def test_transfer_onto_its_own_pullback_builds_only_the_universe_chain(
    capsys, monkeypatch, pullback_hub
):
    built = record_builds(monkeypatch)
    code, out, _ = run(capsys, "--workspace", pullback_hub, "transfer", "AudioVideo",
                       "IMovieHub")
    assert code == 0
    assert out.splitlines()[-1] == "analogy against ITunes: ok"
    assert [names for _, names in built] == [
        ITUNES_FEATURES[:k] for k in range(1, 5)
    ]
    assert len({id(rows) for rows, _ in built}) == 1


def test_analogy_suite_on_its_own_pullback_builds_nothing(
    capsys, monkeypatch, pullback_hub
):
    built = record_builds(monkeypatch)
    code, out, _ = run(capsys, "--workspace", pullback_hub, "check", "--laws=analogy")
    assert (code, out) == (0, "analogy: ok\n")
    assert built == []


@pytest.mark.parametrize(
    "command, last_line",
    [
        (["transfer", "AudioVideo", "IMovieHub"], "analogy against ITunes: ok"),
        (["check", "--laws=analogy"], "analogy: ok"),
    ],
    ids=["transfer", "check-analogy"],
)
def test_analogy_with_equal_sections_but_other_tables_compares_every_object(
    capsys, monkeypatch, redundant_row_hub, command, last_line
):
    built = record_builds(monkeypatch)
    code, out, _ = run(capsys, "--workspace", redundant_row_hub, *command)
    assert code == 0
    assert out.splitlines()[-1] == last_line
    # the transfer and the target are two presheaves, each built in full
    assert len(built) == len({(id(rows), names) for rows, names in built})
    assert len({id(rows) for rows, _ in built}) == 2
    assert len(built) == 2 * (2 ** len(ITUNES_FEATURES) - 1)


def test_one_process_answers_like_fresh_processes(capsys, hub_path):
    commands = [
        ["--workspace", hub_path, "nonsense"],
        ["--workspace", hub_path, "sections", "Camcorder", "--object", "film,screen"],
        ["--workspace", hub_path, "transfer", "AudioVideo", "IMovieHub"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(presh.__file__).parents[1]))
    build_parser.cache_clear()
    in_process = [run(capsys, *argv) for argv in commands]
    fresh = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "presh.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    assert in_process == fresh


# Byte-identical CLI output: every command line below, in text and in
# machine format, against the exit code, stdout and stderr stored under
# tests/golden/cli/.  Tier-1 runs each case in-process.  The __main__ block
# at the end of this file rewrites the goldens, only when an output change
# is intended:
#     PYTHONPATH=src python tests/test_cli.py
# or, given a command, runs each case through it as a subprocess and names
# every record that differs, every golden missing and every golden without
# a case (CI does this with the installed console script):
#     python tests/test_cli.py presh
#     PYTHONPATH=src python tests/test_cli.py python -m presh.cli
# A behaviour of a command on a workspace below is a row here, not a
# hand-written test; those are kept for temporary files, monkeypatches,
# messages that hold an absolute path, and argparse's or Python's wording.
GOLDEN_CLI = GOLDEN / "cli"
FORMATS = ("text", "machine")
DATA = Path(__file__).resolve().parents[1] / "src/presh/data"
WORKSPACES = {
    "hub": DATA / "digital_hub.pshw",
    "wine": DATA / "wine.psh",
    "organization": DATA / "organization.psh",
    "broken": FIXTURES / "broken_analogy.pshw",
    "blocking": FIXTURES / "blocking.psh",
    # the hub with every allow/forbid line ending in a comma and every
    # identification feature block on one line, which only the token path
    # of the parser reads
    "comma": FIXTURES / "comma_tables/digital_hub.pshw",
    # 12 features of 8 values, consecutive features allowed to differ by at
    # most one step: 807,574 global sections
    "wide": FIXTURES / "wide_chain.psh",
    # two 8-feature chains sharing one feature, merged into 15 features:
    # past the lattice bound, 16 global sections
    "widemerge": FIXTURES / "wide_merge.pshw",
}
CLI_CASES = {
    "hub-check": ("hub", "check"),
    "hub-check-closure": ("hub", "check", "--laws=closure"),
    "hub-check-adjunction": ("hub", "check", "--laws=adjunction"),
    "hub-check-yoneda": ("hub", "check", "--laws=yoneda"),
    "hub-check-analogy": ("hub", "check", "--laws=analogy"),
    "hub-check-repeated-suite": ("hub", "check", "--laws=yoneda,closure,yoneda"),
    "hub-check-unknown-suite": ("hub", "check", "--laws=sheafification"),
    "hub-check-empty-laws": ("hub", "check", "--laws="),
    "hub-check-comma-laws": ("hub", "check", "--laws=,"),
    "hub-check-commas-laws": ("hub", "check", "--laws= , ,"),
    "hub-sections": ("hub", "sections", "DigitalHub"),
    "hub-sections-count": ("hub", "sections", "DigitalHub", "--count"),
    "hub-sections-object": ("hub", "sections", "Camcorder", "--object", "film,screen"),
    "hub-sections-object-count": (
        "hub", "sections", "IMovieHub", "--object", "{edit,film}", "--count"
    ),
    "hub-sections-empty-object": ("hub", "sections", "PC", "--object", "{}"),
    "hub-sections-unknown-model": ("hub", "sections", "Nope"),
    "hub-extend": ("hub", "extend", "Camcorder", "film=prof_and_amateur"),
    "hub-extend-target": (
        "hub", "extend", "IMovieHub", "screen=large", "{edit,film,screen}"
    ),
    "hub-extend-blocked": (
        "hub", "extend", "Camcorder", "film=prof_and_amateur,edit=quick_and_easy_editing"
    ),
    "hub-extend-not-contained": (
        "hub", "extend", "Camcorder", "film=prof_and_amateur", "screen"
    ),
    "hub-extend-empty": ("hub", "extend", "Camcorder", ""),
    "hub-extend-domain-target": ("hub", "extend", "PC", "film=prof_only", "film"),
    "hub-extend-invalid-value": ("hub", "extend", "PC", "film=wrong"),
    "hub-extend-no-equals": ("hub", "extend", "Camcorder", "film"),
    "hub-extend-unknown-feature": ("hub", "extend", "Camcorder", "nope=x"),
    "hub-extend-bound-twice": (
        "hub", "extend", "Camcorder", "film=prof_and_amateur,film=prof_and_amateur"
    ),
    "hub-merge": ("hub", "merge", "PC", "Camcorder"),
    "hub-merge-hub": ("hub", "merge", "IMovieHub", "ITunesFromVideo", "--name", "Hub"),
    # the error names the kind of name that failed: a model name here
    "hub-merge-invalid-name": ("hub", "merge", "PC", "Camcorder", "--name", "x y"),
    "hub-transfer": ("hub", "transfer", "AudioVideo", "IMovieHub"),
    "hub-transfer-invalid-name": (
        "hub", "transfer", "AudioVideo", "IMovieHub", "--name", "bad name"
    ),
    "hub-transfer-unknown-identification": ("hub", "transfer", "nosuch", "PC"),
    "hub-diff": ("hub", "diff", "Camcorder", "IMovieHub"),
    "hub-diff-reversed": ("hub", "diff", "IMovieHub", "Camcorder"),
    "hub-diff-transfer": ("hub", "diff", "ITunes", "ITunesFromVideo"),
    "hub-diff-self": ("hub", "diff", "PC", "PC"),
    "hub-render-dot": ("hub", "render", "DigitalHub", "dot"),
    "hub-render-canvas": ("hub", "render", "DigitalHub", "canvas"),
    "hub-render-workspace": ("hub", "render", "workspace", "dot"),
    "hub-render-workspace-canvas": ("hub", "render", "workspace", "canvas"),
    "hub-refused-sections": ("hub", "--max-enum", "2", "sections", "PC"),
    # a negative bound is malformed input, not a bound every estimate exceeds
    "hub-negative-max-enum": ("hub", "--max-enum", "-5", "sections", "PC"),
    "hub-non-integer-max-enum": ("hub", "--max-enum", "abc", "sections", "PC"),
    "wine-sections-count": ("wine", "sections", "Wine", "--count"),
    # aging is read by no table after prestige; the table on (aging,
    # marketing) does not fit the object
    "wine-sections-count-object": (
        "wine", "sections", "Wine", "--object", "{aging,complexity,prestige,range}",
        "--count",
    ),
    "wine-sections-empty-object": ("wine", "sections", "Wine", "--object", "{}"),
    "wine-sections-unknown-object": (
        "wine", "sections", "Wine", "--object", "price,bouquet"
    ),
    "wine-refused-sections": ("wine", "--max-enum", "10", "sections", "Wine"),
    "wine-render-canvas": ("wine", "render", "Wine", "canvas"),
    "organization-sections": ("organization", "sections", "Organization"),
    "organization-check": ("organization", "check", "--laws=closure,adjunction"),
    "organization-render-dot": ("organization", "render", "Organization", "dot"),
    "wide-sections-count": ("wide", "--max-enum", "300000000000", "sections", "W", "--count"),
    # the merge and the count read a few objects of the 15-feature amalgam,
    # under a bound above its 3**15 estimate; the closure suite walks every
    # object and is refused
    "widemerge-merge": ("widemerge", "--max-enum", "20000000", "merge", "L", "R"),
    "widemerge-sections-count": (
        "widemerge", "--max-enum", "20000000", "sections", "L_R", "--count"
    ),
    "widemerge-check-closure": (
        "widemerge", "--max-enum", "20000000", "check", "--laws=closure"
    ),
    "comma-sections": ("comma", "sections", "DigitalHub"),
    "comma-transfer": ("comma", "transfer", "AudioVideo", "IMovieHub"),
    "broken-check": ("broken", "check"),
    "broken-check-closure": ("broken", "check", "--laws=closure"),
    "broken-check-analogy": ("broken", "check", "--laws=analogy"),
    "broken-sections": ("broken", "sections", "A"),
    "broken-sections-count": ("broken", "sections", "B", "--count"),
    "broken-extend": ("broken", "extend", "A", "f=b"),
    "broken-extend-not-local": ("broken", "extend", "B", "g=a"),
    "broken-extend-empty": ("broken", "extend", "B", ""),
    "broken-merge": ("broken", "merge", "A", "B"),
    "broken-transfer": ("broken", "transfer", "h", "A"),
    "broken-diff": ("broken", "diff", "A", "B"),
    "broken-render-dot": ("broken", "render", "B", "dot"),
    "broken-render-canvas": ("broken", "render", "A", "canvas"),
    "broken-refused-merge": ("broken", "--max-enum", "2", "merge", "A", "B"),
    "blocking-extend": ("blocking", "extend", "Blocking", "a=y"),
    "blocking-extend-blocked": ("blocking", "extend", "Blocking", "a=x"),
    "blocking-extend-target": ("blocking", "extend", "Blocking", "a=x,d=m", "{a,b,d}"),
    "blocking-extend-not-local-target": (
        "blocking", "extend", "Blocking", "b=p,c=s", "{a,b,c}"
    ),
    # the section is checked for being local before the target for containing it
    "blocking-extend-not-local-not-contained": (
        "blocking", "extend", "Blocking", "b=p,c=s", "{a,b}"
    ),
    "blocking-extend-universe": ("blocking", "extend", "Blocking", "a=y,b=q,c=t,d=n"),
}


def _golden_name(case: str, fmt: str) -> str:
    return f"{case}.{fmt}.txt"


def _argv(case: str, fmt: str) -> list[str]:
    workspace, *command = CLI_CASES[case]
    return ["--workspace", str(WORKSPACES[workspace]), "--format", fmt, *command]


def _record(code: int, out: str, err: str) -> str:
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def _cli_record(case: str, fmt: str) -> str:
    """The golden record of ``case`` in ``fmt``, from ``main`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(_argv(case, fmt))
    return _record(code, out.getvalue(), err.getvalue())


def _script_record(command: list[str], case: str, fmt: str) -> str:
    """The golden record of ``case`` in ``fmt``, from ``command`` (such as
    ``["presh"]``) run as a subprocess."""
    proc = subprocess.run([*command, *_argv(case, fmt)], capture_output=True, check=False)
    return _record(
        proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    )


def golden_mismatches(record, cases=CLI_CASES, golden_dir=GOLDEN_CLI) -> list[str]:
    """One message per golden file name under ``golden_dir`` that is wrong:
    a case and format whose ``record(case, fmt)`` differs from its golden
    (with a unified diff), a case and format with no golden, and a golden
    of no case in ``cases``; sorted by file name."""
    expected = {_golden_name(case, fmt): (case, fmt) for case in cases for fmt in FORMATS}
    present = {path.name for path in golden_dir.iterdir()}
    problems = []
    for name in sorted(expected.keys() | present):
        if name not in expected:
            problems.append(f"{name}: golden without a case")
        elif name not in present:
            problems.append(f"{name}: no golden")
        else:
            golden = (golden_dir / name).read_text(encoding="utf-8")
            got = record(*expected[name])
            if got != golden:
                diff = difflib.unified_diff(
                    golden.splitlines(keepends=True), got.splitlines(keepends=True),
                    "golden", "run",
                )
                problems.append(f"{name}: differs\n" + "".join(diff).rstrip("\n"))
    return problems


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_golden(case, fmt):
    golden = (GOLDEN_CLI / _golden_name(case, fmt)).read_text(encoding="utf-8")
    assert _cli_record(case, fmt) == golden


def test_usage_text_does_not_follow_the_terminal_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    golden = GOLDEN_CLI / _golden_name("hub-negative-max-enum", "text")
    assert _cli_record("hub-negative-max-enum", "text") == golden.read_text(encoding="utf-8")


def test_every_cli_golden_has_a_case():
    names = {path.name for path in GOLDEN_CLI.iterdir()}
    assert names == {_golden_name(case, fmt) for case in CLI_CASES for fmt in FORMATS}


def test_cli_goldens_cover_every_exit_code():
    # success, a failed check, malformed input and a refusal: pruning the
    # table must not drop an exit path of ``main``
    exits = set()
    for path in GOLDEN_CLI.iterdir():
        with path.open(encoding="utf-8") as f:
            exits.add(f.readline())
    assert exits >= {f"exit {code}\n" for code in (0, 1, 2, 3)}


def _one_line_feature_blocks(text: str) -> tuple[str, int]:
    """``text`` with each identification feature block, from ``feature t -> s {``
    to its ``}``, on one line, its value pairs joined by commas."""

    def one_line(m: re.Match) -> str:
        pairs = ", ".join(line.strip() for line in m[2].splitlines())
        return f"{m[1]} {pairs} }}"

    return re.subn(r"(?m)^(  feature .* \{)\n((?:    .*\n)+)  \}$", one_line, text)


def test_comma_ended_tables_print_what_the_hub_prints():
    # the fixture is the bundled hub with a comma after each table line and
    # each identification feature block on one line
    commas = blocks = 0
    for path in (FIXTURES / "comma_tables").iterdir():
        bundled = (DATA / path.name).read_text(encoding="utf-8")
        expected, n = re.subn(r"(?m)^((?:allow|forbid) .*)$", r"\1,", bundled)
        expected, k = _one_line_feature_blocks(expected)
        assert path.read_text(encoding="utf-8") == expected, path.name
        commas += n
        blocks += k
    assert commas > 0 and blocks > 0
    for fmt in FORMATS:
        for case in ("sections", "transfer"):
            comma, hub = (
                (GOLDEN_CLI / _golden_name(f"{name}-{case}", fmt)).read_text(encoding="utf-8")
                for name in ("comma", "hub")
            )
            assert comma == hub, (case, fmt)


def test_wide_merge_goldens_count_what_the_oracle_counts():
    # the 15-feature amalgam: the merge and the count print the oracle's
    # number of global sections
    ws = presh.parse_workspace_file(str(WORKSPACES["widemerge"]))
    left, right = ws.models["L"], ws.models["R"]
    merged = presh.amalgamate(left, right).result
    assert len(merged.features) == 15
    n = len(oracle_sections(merged, merged.features))
    merge, count = (
        (GOLDEN_CLI / _golden_name(f"widemerge-{case}", "text")).read_text(encoding="utf-8")
        for case in ("merge", "sections-count")
    )
    assert f"\nglobal sections: {n}\n" in merge
    assert f"}}: {n}\n" in count


def test_golden_check_names_each_changed_missing_and_orphan_golden(tmp_path):
    cases = ("hub-sections", "broken-extend")
    for case in cases:
        for fmt in FORMATS:
            name = _golden_name(case, fmt)
            (tmp_path / name).write_bytes((GOLDEN_CLI / name).read_bytes())
    assert golden_mismatches(_cli_record, cases, tmp_path) == []
    changed = tmp_path / "hub-sections.machine.txt"
    data = bytearray(changed.read_bytes())
    data[data.index(b"--- stdout\n") + 11] ^= 1
    changed.write_bytes(bytes(data))
    (tmp_path / "broken-extend.text.txt").unlink()
    (tmp_path / "broken-extend-orphan.text.txt").write_text("exit 0\n")
    problems = golden_mismatches(_cli_record, cases, tmp_path)
    assert [problem.splitlines()[0] for problem in problems] == [
        "broken-extend-orphan.text.txt: golden without a case",
        "broken-extend.text.txt: no golden",
        "hub-sections.machine.txt: differs",
    ]
    assert "\n-z" in problems[-1] and "\n+{" in problems[-1]


# The model text ``--emit`` writes, pinned byte for byte under tests/golden/emit/.
EMIT_CASES = {
    "hub-merge-emit": ("merge", "PC", "Camcorder", "--name", "VideoHub"),
    "hub-transfer-emit": ("transfer", "AudioVideo", "IMovieHub", "--name", "ITunes"),
}


@pytest.mark.parametrize("case", sorted(EMIT_CASES))
def test_emitted_model_matches_golden(capsys, hub_path, tmp_path, case):
    target = tmp_path / "emitted.psh"
    code, _, _ = run(
        capsys, "--workspace", hub_path, *EMIT_CASES[case], "--emit", str(target)
    )
    assert code == 0
    golden = GOLDEN / "emit" / f"{case}.psh"
    assert target.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")



class TestLessTravelledPaths:
    def test_transfer_lists_each_skipped_table_scope(self, capsys, tmp_path):
        ws = tmp_path / "skip.pshw"
        ws.write_text(
            "format 1\n\nmodel S\nfeature f: a | b\nfeature g: x | y\n"
            "forbid (f, g): (a, x)\n\nmodel T\nfeature t: a | b\n\n"
            "identify h: T -> S {\n  feature t -> f {\n    a -> a\n    b -> b\n"
            "  }\n}\n"
        )
        code, out, _ = run(capsys, "--workspace", str(ws), "transfer", "h", "S")
        assert code == 0
        assert out.splitlines() == [
            "transfer h_S = h of S",
            "  skipped table scope {f,g} (unmapped features)",
            "global sections: 2",
            "  t=a",
            "  t=b",
            "analogy against T: ok",
        ]

    def test_transfer_directive_notes_each_skipped_table_scope(self, capsys, tmp_path):
        ws = tmp_path / "skip.pshw"
        ws.write_text(
            "format 1\n\nmodel A\nfeature f: x | y\nfeature g: p | q\n"
            "forbid (f, g): (x, p)\n\nmodel T\nfeature t: x | y\n\n"
            "identify h: T -> A {\n  feature t -> f {\n    x -> x\n    y -> y\n"
            "  }\n}\n\ntransfer B = h of A\n"
        )
        ex = presh.cli.execute(presh.parse_workspace_file(str(ws)), max_enum=10**6)
        (directive,) = ex.workspace.directives
        assert ex.transfer_skips == {directive: (presh.Subset(["f", "g"]),)}
        code, out, err = run(capsys, "--workspace", str(ws), "sections", "B")
        assert (code, out.splitlines()) == (0, ["sections of B at {t}: 2", "  t=x", "  t=y"])
        assert err == (
            "note: transfer B = h of A: skipped table scope {f,g} (unmapped features)\n"
        )

    def test_canvas_without_global_sections_says_none(self, capsys, tmp_path):
        empty = tmp_path / "empty.psh"
        empty.write_text("model N\nfeature a: x | y\nforbid (a): (x), (y)\n")
        code, out, _ = run(capsys, "--workspace", str(empty), "render", "N", "canvas")
        assert code == 0
        assert out.endswith("sections:\n  (none)\n")

    def test_canvas_without_features_shows_the_empty_section(self, capsys, tmp_path):
        bare = tmp_path / "bare.psh"
        bare.write_text("model E\n")
        code, out, err = run(capsys, "--workspace", str(bare), "render", "E", "canvas")
        assert (code, err) == (0, "")
        assert out == "canvas: E\n  value\nsections:\n  *1\n"

    def test_object_spec_with_no_candidate_left_names_only_the_known_part(
        self, capsys, tmp_path
    ):
        single = tmp_path / "single.psh"
        single.write_text("model A\nfeature a: x | y\n")
        code, out, err = run(
            capsys, "--workspace", str(single), "sections", "A", "--object", "a,b"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown feature 'b' in object spec; nearest family objects: {a}\n"
        )


if __name__ == "__main__":
    if len(sys.argv) == 1:
        GOLDEN_CLI.mkdir(exist_ok=True)
        for case in CLI_CASES:
            for fmt in FORMATS:
                path = GOLDEN_CLI / _golden_name(case, fmt)
                path.write_text(_cli_record(case, fmt), encoding="utf-8")
    else:
        problems = golden_mismatches(functools.partial(_script_record, sys.argv[1:]))
        for problem in problems:
            print(problem)
        print(
            f"{len(CLI_CASES) * len(FORMATS)} records through {' '.join(sys.argv[1:])}:"
            f" {len(problems)} wrong"
        )
        sys.exit(1 if problems else 0)
