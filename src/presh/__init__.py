"""presh: finite presheaves over feature-subset lattices.

Model a system as features with finite value ranges plus constraint tables,
compile that to a presheaf of admissible assignments, inspect global and
local sections and their extension failures, amalgamate models over shared
features, and transfer structure between domains along feature
identifications.
"""

from .errors import (
    EnumerationBoundError,
    MalformedInputError,
    PreshError,
)
from .lattice import (
    CoverFamily,
    Subset,
    check_adjunction_triple,
    close_family,
    extend_functor_f1,
    is_subobject,
    join,
    meet,
    restrict_family,
    restriction_functor_r,
)
from .model import (
    ConstraintTable,
    Model,
    compile_model,
    family_of,
    oracle_sections,
    random_model,
)
from .ops import (
    DiffReport,
    FeatureIdentification,
    MergedModel,
    amalgamate,
    analogy_check,
    condition,
    diff_presheaves,
    emergent_sections,
    extend_fiber,
    add_feature,
    overlap_union_report,
    remove_feature,
    transfer,
)
from .presheaf import (
    AbstractPresheaf,
    Assignment,
    AssignmentPresheaf,
    Fiber,
    NatTransformation,
    blocking_sets,
    closure_complete,
    extensions,
    global_sections,
    nat_transformations,
    pullback_presheaf,
    random_abstract_presheaf,
    representable,
    restrict_assignment,
    validate_laws,
    yoneda_check,
)
from .report import LawReport, Violation
from .dsl import (
    ParseError,
    SourceSpan,
    Workspace,
    canonicalize,
    parse_model,
    parse_workspace,
    parse_workspace_file,
    serialize,
)

__version__ = "0.1.0"
