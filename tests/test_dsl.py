import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presh import dsl
from presh.dsl import (
    CheckDirective,
    MergeDirective,
    ParseError,
    TransferDirective,
    canonicalize,
    parse_model,
    parse_workspace,
    parse_workspace_file,
    serialize,
)
from presh.errors import PreshError
from presh.lattice import Subset
from presh.model import compile_model, random_model
from presh.presheaf import Assignment
from util import without_cover_lines


ORG_TEXT = """\
# a two-feature configuration space
model Organization
feature size: large | small
feature levels: many | few
forbid (size, levels): (small, many)
"""


def spans(err: ParseError):
    return (err.span.line, err.span.column)


class TestParseModel:
    def test_org_round_trips_through_compilation(self):
        m = parse_model(ORG_TEXT)
        p = compile_model(m)
        got = set(p.sections_at(Subset(["size", "levels"])))
        assert got == {
            Assignment.from_mapping({"size": "large", "levels": "many"}),
            Assignment.from_mapping({"size": "large", "levels": "few"}),
            Assignment.from_mapping({"size": "small", "levels": "few"}),
        }

    def test_features_only_is_unconstrained(self):
        m = parse_model("model m\nfeature a: x | y\n")
        assert m.tables == ()
        assert len(compile_model(m).sections_at(Subset(["a"]))) == 2

    def test_scope_written_order_is_respected(self):
        # (size, levels) written unsorted: tuples must permute into canonical
        # scope order, not be misread positionally
        m = parse_model(ORG_TEXT)
        table = m.tables[0]
        assert table.scope.names == ("levels", "size")
        assert table.tuples == (("many", "small"),)

    def test_format_header_accepted(self):
        m = parse_model("format 1\nmodel m\nfeature a: x\n")
        assert m.name == "m"

    def test_labels_attach(self):
        text = 'model m\nfeature a: x\nlabel a "Feature A"\nlabel a.x "value x"\n'
        m = parse_model(text)
        assert m.labels == {"a": "Feature A", "a.x": "value x"}

    def test_exactly_one_model(self):
        with pytest.raises(ParseError):
            parse_model("model a\nfeature f: x\nmodel b\nfeature g: y\n")
        with pytest.raises(ParseError):
            parse_model("# nothing\n")


class TestErrorSpans:
    def test_undeclared_value_exact_span(self):
        text = "model m\nfeature size: s | l\nallow (size): (xl)\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert spans(err.value) == (3, 16)
        assert err.value.expected == "one of s|l"
        assert err.value.found == "xl"

    def test_unknown_feature_in_scope(self):
        text = "model m\nfeature a: x\nforbid (b): (x)\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert spans(err.value) == (3, 9)
        assert "unknown feature 'b'" in err.value.message

    def test_duplicate_value(self):
        text = "model m\nfeature a: x | x\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert spans(err.value) == (2, 16)

    def test_arity_mismatch_points_at_the_tuple(self):
        text = "model m\nfeature a: x\nfeature b: y\nallow (a, b): (x)\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert spans(err.value) == (4, 15)
        assert err.value.expected == "2 values"

    def test_cover_seed_names_unknown_feature(self):
        with pytest.raises(ParseError) as err:
            parse_model("model m\nfeature a: x\ncover: {a,z}\n")
        assert spans(err.value) == (3, 11)
        assert "unknown feature 'z'" in err.value.message

    def test_duplicate_feature(self):
        with pytest.raises(ParseError) as err:
            parse_model("model m\nfeature a: x\nfeature a: y\n")
        assert spans(err.value) == (3, 9)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_model("model m\nfeature a: x\n@oops\n")
        assert spans(err.value) == (3, 1)

    def test_label_for_unknown_value(self):
        with pytest.raises(ParseError) as err:
            parse_model('model m\nfeature a: x\nlabel a.y "nope"\n')
        assert spans(err.value) == (3, 9)

    def test_forward_reference_in_merge(self):
        text = "model A\nfeature f: x\nmerge X = A + B\nmodel B\nfeature g: y\n"
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert spans(err.value) == (3, 15)
        assert "undefined reference 'B'" in err.value.message

    def test_duplicate_names_across_kinds(self):
        text = "model A\nfeature f: x\nmerge A = A + A\n"
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert "duplicate name 'A'" in err.value.message

    def test_transfer_requires_an_identification(self):
        text = "model A\nfeature f: x\ntransfer T = A of A\n"
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert "undefined identification" in err.value.message

    def test_unclosed_identification_block(self):
        text = "model A\nfeature f: x\nidentify h: T -> A {\n  feature t -> f {\n"
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert "never closed" in err.value.message

    def test_model_file_rejects_directives(self):
        with pytest.raises(ParseError) as err:
            parse_model("model A\nfeature f: x\ncheck A\n")
        assert "not allowed in a model file" in err.value.message

    def test_bad_format_version(self):
        with pytest.raises(ParseError) as err:
            parse_model("format 2\nmodel m\nfeature a: x\n")
        assert spans(err.value) == (1, 8)

    def test_include_requires_psh(self, tmp_path):
        ws = tmp_path / "w.pshw"
        ws.write_text('include "other.pshw"\n')
        with pytest.raises(ParseError) as err:
            parse_workspace(ws.read_text(), base=tmp_path)
        assert "only model files" in err.value.message

    def test_missing_include_reported_at_the_string(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_workspace('include "gone.psh"\n', base=tmp_path)
        assert spans(err.value) == (1, 9)

    def test_nul_in_include_path_reported_at_the_string(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_workspace('include "nul\x00.psh"\n', base=tmp_path)
        assert spans(err.value) == (1, 9)
        assert err.value.message.startswith("cannot include 'nul\\x00.psh': ")


def test_parsing_the_hub_builds_no_span(monkeypatch, data_dir):
    built = []

    class CountingSpan(dsl.SourceSpan):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dsl, "SourceSpan", CountingSpan)
    parse_workspace_file(data_dir / "digital_hub.pshw")
    assert built == []
    with pytest.raises(ParseError):
        parse_workspace("model A\nfeature f: x | x\n")
    assert built == [(2, 16, 1)]


class TestWorkspace:
    def test_hub_structure(self, hub_workspace):
        ws = hub_workspace
        assert sorted(ws.models) == ["Camcorder", "ITunes", "PC"]
        assert list(ws.identifications) == ["AudioVideo"]
        kinds = [type(d) for d in ws.directives]
        assert kinds == [
            MergeDirective,
            TransferDirective,
            MergeDirective,
            CheckDirective,
        ]

    def test_models_only_workspace_has_no_directives(self):
        ws = parse_workspace("model A\nfeature f: x\n")
        assert ws.directives == ()
        assert list(ws.models) == ["A"]

    def test_identification_target_may_be_fresh(self):
        text = (
            "model A\nfeature f: x\n"
            "identify h: SomewhereNew -> A { feature t -> f { v -> x } }\n"
        )
        ws = parse_workspace(text)
        assert ws.identifications["h"].target_name == "SomewhereNew"

    def test_comma_separated_value_pairs_on_one_line(self):
        text = (
            "model A\nfeature f: x | y\n"
            "identify h: T -> A { feature t -> f { a -> x, b -> y } }\n"
        )
        ws = parse_workspace(text)
        assert ws.identifications["h"].ident.value_maps["t"] == {"a": "x", "b": "y"}


class TestRoundTrip:
    def test_pinned_files_are_canonical(self, data_dir):
        for name in (
            "organization.psh",
            "wine.psh",
            "pc.psh",
            "camcorder.psh",
            "itunes.psh",
        ):
            text = (data_dir / name).read_text()
            assert canonicalize(text) == without_cover_lines(text), name

    def test_pinned_workspace_is_canonical(self, data_dir, hub_workspace):
        assert serialize(hub_workspace) == serialize(
            parse_workspace(serialize(hub_workspace))
        )

    def test_parse_serialize_identity_on_pinned_models(self, data_dir):
        for name in ("organization.psh", "wine.psh", "camcorder.psh"):
            m = parse_model((data_dir / name).read_text())
            assert parse_model(serialize(m)) == m

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_random_model_round_trip(self, seed):
        m = random_model(seed)
        assert parse_model(serialize(m)) == m

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_serialize_is_a_fixed_point(self, seed):
        m = random_model(seed)
        text = serialize(m)
        assert serialize(parse_model(text)) == text

    def test_canonicalize_normalizes_noise(self):
        messy = (
            "# header comment\n\nmodel   m\n"
            "feature a: x | y\n"
            "feature b: p | q\n"
            "forbid (b, a): (q , y)   # trailing\n"
            "allow (a): (x), (y)\n"
        )
        tidy = (
            "format 1\n\nmodel m\n"
            "feature a: x | y\n"
            "feature b: p | q\n"
            "allow (a): (x), (y)\n"
            "forbid (a, b): (y, q)\n"
        )
        assert canonicalize(messy) == tidy
        assert canonicalize(tidy) == tidy

    def test_workspace_round_trip(self, hub_workspace):
        text = serialize(hub_workspace)
        again = parse_workspace(text)
        assert again == hub_workspace

    def test_cover_lines_are_accepted_and_ignored(self):
        head = "model m\nfeature a: x | y\nfeature b: p | q\n"
        plain = head + "forbid (a, b): (x, p)\n"
        seeded = head + "cover: {a,b}, {b}\ncover: {a}\nforbid (a, b): (x, p)\n"
        m = parse_model(seeded)
        assert m == parse_model(plain)
        assert "cover" not in serialize(m)
        assert serialize(m) == canonicalize(plain)

    def test_label_escaping(self):
        m = parse_model('model m\nfeature a: x\nlabel a "say \\"hi\\" \\\\ twice"\n')
        assert m.labels["a"] == 'say "hi" \\ twice'
        assert parse_model(serialize(m)) == m


# Parse outcomes pinned byte for byte: one input per rejection the parser
# can raise and per table-line edge case, plus seeded 1-3 character
# mutations of the bundled data files.
# Each line holds the outcome of one case: a digest of the canonical text
# when it parses, else the error's message, span, expected and found.
# Rewrite the file with ``PYTHONPATH=src python tests/test_dsl.py`` only when
# a parse result or error is meant to change.
PARSE_GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.jsonl"
DATA_DIR = Path(__file__).resolve().parents[1] / "src/presh/data"
DATA_FILES = (
    "camcorder.psh",
    "digital_hub.pshw",
    "itunes.psh",
    "organization.psh",
    "pc.psh",
    "wine.psh",
)
_M = "model m\nfeature a: x | y\nfeature b: p | q\n"
_W = "model A\nfeature f: x | y\n"
PARSE_CASES = {
    "unexpected-character": ("model", _M + "allow (a): (x) $\n"),
    "unterminated-string": ("model", _M + 'label a "open\n'),
    "end-of-line-after-format": ("model", "format\n"),
    "end-of-line-in-label": ("model", _M + "label a.\n"),
    "expected-colon": ("model", "model m\nfeature a x\n"),
    "expected-colon-at-end": ("model", "model m\nfeature a\n"),
    "expected-bar": ("model", "model m\nfeature a: x, y\n"),
    "expected-close-paren": ("model", _M + "allow (a): (x\n"),
    "expected-model-name": ("model", "model 1\n"),
    "trailing-input": ("model", "model m extra\n"),
    "format-not-first": ("model", "model m\nformat 1\n"),
    "unsupported-format": ("model", "format 2\nmodel m\n"),
    "outside-model-block": ("model", "feature a: x\n"),
    "unexpected-at-top-level": ("model", "bogus x\n"),
    "feature-declared-twice": ("model", _M + "feature a: z\n"),
    "duplicate-value": ("model", "model m\nfeature a: x | x\n"),
    "label-unknown-feature": ("model", _M + 'label c "C"\n'),
    "label-unknown-value": ("model", _M + 'label a.z "Z"\n'),
    "label-not-quoted": ("model", _M + "label a x\n"),
    "label-missing": ("model", _M + "label a\n"),
    "number-as-value": ("model", "model m\nfeature a: 1\n"),
    "comments-and-tabs": ("model", "# c\nmodel m # c\n\tfeature a:\tx|y#c\n\n"),
    "cover-unknown-feature": ("model", _M + "cover: {a,c}\n"),
    "cover-missing-comma": ("model", _M + "cover: {a} {b}\n"),
    "scope-unknown-feature": ("model", _M + "forbid (a, c): (x, p)\n"),
    "scope-repeated-feature": ("model", _M + "forbid (a, a): (x, x)\n"),
    "tuple-arity": ("model", _M + "forbid (a, b): (x)\n"),
    "tuple-unknown-value": ("model", _M + "forbid (a, b): (x, z)\n"),
    "tuple-missing-comma": ("model", _M + "allow (a): (x) (y)\n"),
    "model-file-directive": ("model", _M + "check m\n"),
    "model-file-no-model": ("model", "# nothing\n"),
    "model-file-two-models": ("model", _M + "model n\nfeature c: z\n"),
    "duplicate-name": ("workspace", _W + "model A\n"),
    "undefined-reference": ("workspace", _W + "merge C = A + B\n"),
    "identification-as-model": (
        "workspace",
        _W + "identify h: T -> A { feature t -> f { v -> x } }\nmerge C = h + A\n",
    ),
    "include-not-quoted": ("workspace", "include pc.psh\n"),
    "include-nothing": ("workspace", "include\n"),
    "include-not-psh": ("workspace", 'include "digital_hub.pshw"\n'),
    "include-missing": ("workspace", 'include "gone.psh"\n'),
    "include-duplicate-name": (
        "workspace", "model PC\nfeature f: x\ninclude \"pc.psh\"\n"
    ),
    "identify-unknown-source": ("workspace", "identify h: T -> A {\n"),
    "identify-never-closed": (
        "workspace", _W + "identify h: T -> A {\n  feature t -> f {\n"
    ),
    "identify-empty-value-map": (
        "workspace", _W + "identify h: T -> A {\n  feature t -> f {\n  }\n}\n"
    ),
    "identify-feature-block-open": (
        "workspace",
        _W + "identify h: T -> A {\n feature t -> f {\n feature u -> f {\n",
    ),
    "identify-target-twice": (
        "workspace",
        _W + "identify h: T -> A {\n feature t -> f { v -> x }\n feature t -> f {\n",
    ),
    "identify-source-twice": (
        "workspace",
        "model A\nfeature f: x\nfeature g: y\n"
        "identify h: T -> A {\n feature t -> f { v -> x }\n feature u -> f {\n",
    ),
    "identify-expected-feature": ("workspace", _W + "identify h: T -> A { v -> x }\n"),
    "identify-value-twice": (
        "workspace", _W + "identify h: T -> A { feature t -> f { v -> x, v -> y } }\n"
    ),
    "identify-trailing-input": (
        "workspace", _W + "identify h: T -> A { feature t -> f { v -> x } } x\n"
    ),
    "transfer-undefined-identification": (
        "workspace", _W + "transfer B = h of A\n"
    ),
    "transfer-expected-of": (
        "workspace",
        _W + "identify h: T -> A { feature t -> f { v -> x } }\ntransfer B = h on A\n",
    ),
    "check-undefined": ("workspace", _W + "check B\n"),
    "directive-in-order": ("workspace", _W + "merge A = A + A\n"),
    # table lines: edge cases of the regex path and shapes only tokens read
    "table-trailing-comma": ("model", _M + "allow (a, b): (x, p), (y, q),\n"),
    "table-values-without-commas": ("model", _M + "allow (a, b): (x p), (y q)\n"),
    "table-without-blanks": ("model", _M + "allow(a):(x)\n"),
    "table-tab-separators": ("model", _M + "forbid\t(a,\tb):\t(x,\tp),\t(y,\tq)\n"),
    "table-trailing-comment": ("model", _M + "allow (a): (x), (y)  # both\n"),
    "table-empty-body": ("model", _M + "allow (a):\n"),
    "table-duplicate-tuples": ("model", _M + "forbid (a, b): (x, p), (x, p)\n"),
    "table-hyphenated-value": (
        "model", "model m\nfeature a: x-1 | y\nallow (a): (x-1)\n"
    ),
    "table-arrow-in-tuple": ("model", _M + "allow (a): (x->y)\n"),
    "table-scope-out-of-order": ("model", _M + "forbid (b, a): (p, x), (q, y)\n"),
}
_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCXYZ0123456789_ \t\n"
    ':|{}()=+,.->"#\\' + "é"
)


def _mutate(text: str, seed: int) -> str:
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    pos = rng.randrange(len(text))
    op = rng.choice(("delete", "insert", "replace"))
    fresh = "".join(rng.choice(_ALPHABET) for _ in range(k))
    if op == "delete":
        return text[:pos] + text[pos + k :]
    if op == "insert":
        return text[:pos] + fresh + text[pos:]
    return text[:pos] + fresh + text[pos + k :]


def _parse_cases():
    for name, (kind, text) in PARSE_CASES.items():
        yield name, kind, text
    kinds = {".psh": "model", ".pshw": "workspace"}
    for name in DATA_FILES:
        path = DATA_DIR / name
        yield name, kinds[path.suffix], path.read_text()
    for seed in range(300):
        path = DATA_DIR / DATA_FILES[seed % len(DATA_FILES)]
        yield f"{path.name}~{seed}", kinds[path.suffix], _mutate(path.read_text(), seed)


def _parse_outcome(kind: str, text: str) -> dict:
    try:
        if kind == "model":
            value = parse_model(text, source="<in>")
        else:
            value = parse_workspace(text, source="<in>", base=DATA_DIR)
    except ParseError as err:
        return {
            "error": str(err).replace(str(DATA_DIR), "<data>"),
            "line": err.span.line,
            "column": err.span.column,
            "length": err.span.length,
            "expected": err.expected,
            "found": err.found,
        }
    except PreshError as err:
        return {"raised": type(err).__name__, "error": str(err)}
    digest = hashlib.sha256(serialize(value).encode("utf-8")).hexdigest()
    return {"ok": digest[:16]}


def _parse_record() -> str:
    return "".join(
        json.dumps({"case": name, **_parse_outcome(kind, text)}) + "\n"
        for name, kind, text in _parse_cases()
    )


def test_parse_outcomes_match_golden():
    assert _parse_record() == PARSE_GOLDEN.read_text(encoding="utf-8")


def _swap_name(text: str, seed: int) -> str:
    # one name on one table line becomes another feature or value name, or
    # an undeclared one: a repeated or unknown feature, a value out of its
    # fiber, or a table that still reads
    rng = random.Random(seed)
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith(("allow", "forbid"))]
    if not at:
        return text
    i = rng.choice(at)
    names = list(re.finditer(r"[A-Za-z_][A-Za-z0-9_-]*", lines[i]))[1:]
    hit = rng.choice(names)
    fresh = rng.choice(sorted(set(re.findall(r"\b[xv]\d\b", text))) + ["x9", "v9"])
    lines[i] = lines[i][: hit.start()] + fresh + lines[i][hit.end() :]
    return "".join(lines)


def _random_model_texts():
    for seed in range(150):
        text = serialize(random_model(seed, max_tables=4))
        yield text
        for k in range(4):
            yield _mutate(text, 1000 * seed + k)
            yield _swap_name(text, 1000 * seed + k)


def test_table_regex_and_token_path_agree(monkeypatch):
    # canonical table lines are read with one regex match and every other
    # line is tokenized: parsing with a regex that never matches (every
    # table on the token path) must give the same digest, or the same
    # error, span, expected and found, on seeded texts and their mutations
    declined = []
    read_table = dsl._Parser._read_table

    def counting(self, match):
        added = read_table(self, match)
        declined.append(not added)
        return added

    monkeypatch.setattr(dsl._Parser, "_read_table", counting)
    texts = list(_random_model_texts())
    as_shipped = [_parse_outcome("model", t) for t in texts]
    # both branches of the regex path, and errors as well as models
    assert sum(declined) > 50 and declined.count(False) > 500, len(declined)
    assert sum("error" in o for o in as_shipped) > 200
    monkeypatch.setattr(dsl, "_TABLE_RE", re.compile(r"(?!)"))
    assert [_parse_outcome("model", t) for t in texts] == as_shipped


def test_canonical_table_lines_are_never_tokenized(monkeypatch):
    # a silent fallback to the token path would keep every outcome and lose
    # the speed, so it is pinned here: no table line that ``serialize``
    # wrote, or that the bundled files hold, reaches the tokenizer
    tokenized = []
    tokenize = dsl._tokenize

    def recording(line, lineno, source):
        tokenized.append(line)
        return tokenize(line, lineno, source)

    monkeypatch.setattr(dsl, "_tokenize", recording)
    tables = 0
    for seed in range(150):
        text = serialize(random_model(seed, max_tables=4))
        parse_model(text)
        tables += text.count("\nallow (") + text.count("\nforbid (")
    for name in DATA_FILES:
        parse_workspace_file(DATA_DIR / name)
    assert tables > 200
    assert tokenized and not [
        line for line in tokenized if line.startswith(("allow", "forbid"))
    ]


if __name__ == "__main__":
    PARSE_GOLDEN.write_text(_parse_record(), encoding="utf-8")
