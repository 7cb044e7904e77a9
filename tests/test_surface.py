"""The public names of the ``presh`` package, pinned so that adding or
removing an export is a reviewed change to this list, and the names the
benchmark's spans hook, pinned so that a rename that unhooks one fails here."""

import importlib.util
import types
from pathlib import Path

import presh
import presh.cli

SPANS = Path(__file__).resolve().parents[1] / "e2ebench" / "spans.py"

PUBLIC = [
    "AbstractPresheaf",
    "Assignment",
    "AssignmentPresheaf",
    "ConstraintTable",
    "CoverFamily",
    "DiffReport",
    "EnumerationBoundError",
    "FeatureIdentification",
    "Fiber",
    "LawReport",
    "MalformedInputError",
    "MergedModel",
    "Model",
    "NatTransformation",
    "ParseError",
    "PreshError",
    "SourceSpan",
    "Subset",
    "Violation",
    "Workspace",
    "amalgamate",
    "analogy_check",
    "blocking_sets",
    "canonicalize",
    "check_adjunction_triple",
    "close_family",
    "closure_complete",
    "compile_model",
    "condition",
    "diff_presheaves",
    "emergent_sections",
    "extend_functor_f1",
    "extensions",
    "global_sections",
    "nat_transformations",
    "oracle_sections",
    "overlap_union_report",
    "parse_model",
    "parse_workspace",
    "parse_workspace_file",
    "pullback_presheaf",
    "random_abstract_presheaf",
    "random_model",
    "representable",
    "restrict_assignment",
    "restriction_functor_r",
    "serialize",
    "transfer",
    "validate_laws",
    "yoneda_check",
]


def test_public_names_are_the_pinned_list():
    names = sorted(
        name
        for name, value in vars(presh).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def test_every_benchmark_hook_resolves_but_the_known_stale_ones():
    # ``spans.Tracer.install`` wraps each hooked name and lists the ones
    # presh no longer has; those read 0 in the benchmark instead of failing.
    # The three listed are stale already: a fix to ``spans.HOOKS`` drops
    # them here too.
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == [
            "presh.ops.compile_model",
            "presh.model.unchecked_assignments",
            "presh.cli.yoneda_check",
        ]
    finally:
        tracer.uninstall()
    assert not hasattr(presh.cli.main, "__wrapped__")
