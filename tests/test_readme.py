from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written(capsys, monkeypatch, tmp_path):
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n") :]
    body = library[library.index("```python\n") + len("```python\n") :]
    source = body[: body.index("```\n")]
    # the example finds the bundled files wherever it runs from
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines() == [
        "edit=difficult_and_inconvenient_editing,film=prof_and_amateur,screen=small",
        "(Subset(names=('edit', 'film', 'screen')),)",
    ]
