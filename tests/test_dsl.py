import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presh.dsl import (
    CheckDirective,
    MergeDirective,
    ParseError,
    TransferDirective,
    canonicalize,
    parse_model,
    parse_workspace,
    serialize,
)
from presh.lattice import Subset
from presh.model import compile_model, random_model
from presh.presheaf import Assignment


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
            assert canonicalize(text) == text, name

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

    def test_label_escaping(self):
        m = parse_model('model m\nfeature a: x\nlabel a "say \\"hi\\" \\\\ twice"\n')
        assert m.labels["a"] == 'say "hi" \\ twice'
        assert parse_model(serialize(m)) == m
