import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from presh import model as model_mod
from presh.cli import main
from presh.dsl import parse_model

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

    def test_check_failure_is_1(self, capsys):
        code, _, _ = run(
            capsys,
            "--workspace",
            str(FIXTURES / "broken_analogy.pshw"),
            "check",
            "--laws=analogy",
        )
        assert code == 1

    def test_refusal_is_3(self, capsys, data_dir):
        code, _, err = run(
            capsys,
            "--workspace",
            str(data_dir / "wine.psh"),
            "--max-enum",
            "10",
            "sections",
            "Wine",
        )
        assert code == 3
        assert "refused" in err

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
        # the target does not match the transfer, but is compiled before
        # the two are compared
        ws = tmp_path / "w.pshw"
        ws.write_text(
            "model A\nfeature f: a\nmodel T\n"
            + "".join(f"feature t{i}: a\n" for i in range(13))
            + "identify h: T -> A {\n  feature g -> f {\n    a -> a\n  }\n}\n"
        )
        code, out, err = run(capsys, "--workspace", str(ws), *command)
        assert code == 3
        assert out == ""
        assert err.startswith("refused: family over 13 features refused")

    @pytest.mark.parametrize("laws", ["", ",", " , ,"], ids=["empty", "comma", "commas"])
    def test_empty_law_list_is_2(self, capsys, hub_path, laws):
        code, out, err = run(capsys, "--workspace", hub_path, "check", f"--laws={laws}")
        assert code == 2
        assert out == ""
        assert err == (
            "error: no law suite given (choose from closure, adjunction, yoneda, analogy)\n"
        )

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

    def test_wine_count(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "wine.psh"), "sections", "Wine",
            "--count",
        )
        assert code == 0
        assert ": 2" in out

    def test_empty_object(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "wine.psh"), "sections", "Wine",
            "--object", "{}",
        )
        assert code == 0
        assert ": 1" in out

    def test_unknown_object_suggests_neighbours(self, capsys, data_dir):
        code, _, err = run(
            capsys, "--workspace", str(data_dir / "wine.psh"), "sections", "Wine",
            "--object", "price,bouquet",
        )
        assert code == 2
        assert "nearest family objects" in err
        assert "{price}" in err

    def test_unknown_model_is_2(self, capsys, hub_path):
        code, _, err = run(capsys, "--workspace", hub_path, "sections", "Nope")
        assert code == 2
        assert "unknown artifact" in err


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

    def test_target_equal_to_domain_returns_itself(self, capsys, hub_path):
        code, out, _ = run(
            capsys, "--workspace", hub_path, "extend", "PC", "film=prof_only",
            "film",
        )
        assert code == 0
        assert "film=prof_only" in out

    def test_invalid_literal_is_2(self, capsys, hub_path):
        code, _, err = run(
            capsys, "--workspace", hub_path, "extend", "PC", "film=wrong"
        )
        assert code == 2
        assert "not a value" in err


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
    def test_wine_canvas_matches_golden(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "wine.psh"), "render", "Wine",
            "canvas",
        )
        assert code == 0
        assert out == (GOLDEN / "wine_canvas.txt").read_text()
        assert out.count("*1") == 8  # seven columns plus the legend line
        assert out.count("*2") == 8

    def test_hub_workspace_dot_matches_golden(self, capsys, hub_path):
        code, out, _ = run(
            capsys, "--workspace", hub_path, "render", "workspace", "dot"
        )
        assert code == 0
        assert out == (GOLDEN / "hub_workspace.dot").read_text()

    def test_org_cover_dot_matches_golden(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "organization.psh"), "render",
            "Organization", "dot",
        )
        assert code == 0
        assert out == (GOLDEN / "organization_cover.dot").read_text()

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
    def test_sections_payload_fields(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "organization.psh"),
            "--format", "machine", "sections", "Organization",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "sections"
        assert payload["count"] == 3
        assert {"size": "small", "levels": "few"} in payload["sections"]

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

    def test_check_payload_lists_suites(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "organization.psh"),
            "--format", "machine", "check", "--laws=closure,adjunction",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["suites"]["closure"]["passed"] is True
        assert payload["suites"]["adjunction"]["passed"] is True


class TestCheck:
    def test_org_closure_ok(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--workspace", str(data_dir / "organization.psh"), "check",
            "--laws=closure",
        )
        assert code == 0
        assert "closure: ok" in out

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

    def test_unknown_suite_is_2(self, capsys, hub_path):
        code, _, err = run(
            capsys, "--workspace", hub_path, "check", "--laws=sheafification"
        )
        assert code == 2
        assert "unknown law suite" in err


def test_each_command_compiles_each_model_once(capsys, monkeypatch, hub_path):
    keys = []
    init = model_mod._CompiledModel.__init__

    def recording_init(self, model):
        keys.append((tuple(model.fibers.values()), model.tables))
        init(self, model)

    monkeypatch.setattr(model_mod._CompiledModel, "__init__", recording_init)
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


# Byte-identical CLI output: every command line below, in text and in
# machine format, against stdout, stderr and the exit code stored under
# tests/golden/cli/.  Rewrite the files with
# ``PYTHONPATH=src python tests/test_cli.py``
# only when an output change is intended.
GOLDEN_CLI = GOLDEN / "cli"
WORKSPACES = {
    "hub": Path(__file__).resolve().parents[1] / "src/presh/data/digital_hub.pshw",
    "broken": FIXTURES / "broken_analogy.pshw",
}
CLI_CASES = {
    "hub-check": ("hub", "check"),
    "hub-check-closure": ("hub", "check", "--laws=closure"),
    "hub-check-adjunction": ("hub", "check", "--laws=adjunction"),
    "hub-check-yoneda": ("hub", "check", "--laws=yoneda"),
    "hub-check-analogy": ("hub", "check", "--laws=analogy"),
    "hub-sections": ("hub", "sections", "DigitalHub"),
    "hub-sections-count": ("hub", "sections", "DigitalHub", "--count"),
    "hub-sections-object": ("hub", "sections", "Camcorder", "--object", "film,screen"),
    "hub-sections-object-count": (
        "hub", "sections", "IMovieHub", "--object", "{edit,film}", "--count"
    ),
    "hub-sections-empty-object": ("hub", "sections", "PC", "--object", "{}"),
    "hub-extend": ("hub", "extend", "Camcorder", "film=prof_and_amateur"),
    "hub-extend-target": (
        "hub", "extend", "IMovieHub", "screen=large", "{edit,film,screen}"
    ),
    "hub-extend-blocked": (
        "hub", "extend", "Camcorder", "film=prof_and_amateur,edit=quick_and_easy_editing"
    ),
    "hub-merge": ("hub", "merge", "PC", "Camcorder"),
    "hub-merge-hub": ("hub", "merge", "IMovieHub", "ITunesFromVideo", "--name", "Hub"),
    "hub-transfer": ("hub", "transfer", "AudioVideo", "IMovieHub"),
    "hub-diff": ("hub", "diff", "Camcorder", "IMovieHub"),
    "hub-diff-transfer": ("hub", "diff", "ITunes", "ITunesFromVideo"),
    "hub-diff-self": ("hub", "diff", "PC", "PC"),
    "hub-render-dot": ("hub", "render", "DigitalHub", "dot"),
    "hub-render-canvas": ("hub", "render", "DigitalHub", "canvas"),
    "hub-render-workspace": ("hub", "render", "workspace", "dot"),
    "hub-refused-sections": ("hub", "--max-enum", "2", "sections", "PC"),
    "broken-check": ("broken", "check"),
    "broken-check-closure": ("broken", "check", "--laws=closure"),
    "broken-check-analogy": ("broken", "check", "--laws=analogy"),
    "broken-sections": ("broken", "sections", "A"),
    "broken-sections-count": ("broken", "sections", "B", "--count"),
    "broken-extend": ("broken", "extend", "A", "f=b"),
    "broken-extend-not-local": ("broken", "extend", "B", "g=a"),
    "broken-merge": ("broken", "merge", "A", "B"),
    "broken-transfer": ("broken", "transfer", "h", "A"),
    "broken-diff": ("broken", "diff", "A", "B"),
    "broken-render-dot": ("broken", "render", "B", "dot"),
    "broken-render-canvas": ("broken", "render", "A", "canvas"),
    "broken-refused-merge": ("broken", "--max-enum", "2", "merge", "A", "B"),
}


def _cli_record(workspace: str, fmt: str, *command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        argv = ["--workspace", str(WORKSPACES[workspace]), "--format", fmt, *command]
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_golden(case, fmt):
    golden = (GOLDEN_CLI / f"{case}.{fmt}.txt").read_text(encoding="utf-8")
    assert _cli_record(CLI_CASES[case][0], fmt, *CLI_CASES[case][1:]) == golden


if __name__ == "__main__":
    GOLDEN_CLI.mkdir(exist_ok=True)
    for case, (workspace, *command) in CLI_CASES.items():
        for fmt in ("text", "machine"):
            record = _cli_record(workspace, fmt, *command)
            (GOLDEN_CLI / f"{case}.{fmt}.txt").write_text(record, encoding="utf-8")
