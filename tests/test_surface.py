"""The public names of the ``presh`` package, pinned so that adding or
removing an export is a reviewed change to this list."""

import types

import presh

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
