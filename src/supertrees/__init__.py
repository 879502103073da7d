"""k-uniform supertrees with boundary: Dirichlet spectra, spiral-like
orderings, structure rewiring, and exhaustive Faber-Krahn verification.

Only ``spectral`` imports numpy, and the package imports it on the first
lookup of one of its names (PEP 562), so the rest starts without numpy."""

import importlib

from .config import DEFAULT_TOLERANCES, Tolerances
from .core import (
    BoundaryPartition,
    CanonicalCode,
    DegreeSequence,
    LevelStructure,
    Supertree,
    VertexId,
    apply_vertex_permutation,
    boundary_partition,
    build_supertree,
    canonical_code,
    degree_sequence,
    distance,
    is_isomorphic,
    level_structure,
    parse_sht,
    serialize_sht,
)
from .enumeration import (
    FamilySpec,
    FkCertificate,
    enumerate_family,
    enumerate_supertrees,
    feasible_degree_sequences,
    fk1_sweep,
    fk2_sweep,
    verify_fk_theorem1,
    verify_fk_theorem2,
    verify_majorization_monotonicity,
)
from .errors import (
    BadVertexId,
    ContainsCycle,
    DegreeTooSmall,
    Disconnected,
    DuplicateEdge,
    EdgeOverlapTooLarge,
    EmptyFamily,
    IndexOutOfRange,
    InfeasibleDegreeSequence,
    InvalidSpec,
    LengthMismatch,
    NoInteriorVertices,
    NotAnEigenfunction,
    NotAPermutation,
    NotKUniform,
    NotMajorized,
    ResultNotSupertree,
    ShtFormatError,
    SupertreeError,
    ZeroFunction,
)
from .slo import (
    SloViolation,
    VertexLabel,
    check_slo,
    construct_slo_supertree,
    find_slo_ordering,
    relabel,
    relabel_ordering,
)
from .transforms import (
    HypothesisCheck,
    ShiftSpec,
    SwitchSpec,
    apply_shift,
    apply_switch,
    check_shift_hypothesis,
    check_switch_hypothesis,
    majorizes,
    unit_transform_chain,
    unit_transformation,
)

__version__ = "0.1.0"

_SPECTRAL = ("DirichletEigenpair", "DirichletLaplacian", "assemble_laplacian",
             "dirichlet_laplacian", "first_dirichlet_eigenpair",
             "first_dirichlet_eigenvalues", "rayleigh_quotient")


def __getattr__(name: str):
    if name != "spectral" and name not in _SPECTRAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # stored, so that later lookups are plain global reads
    module = importlib.import_module(".spectral", __name__)
    globals()[name] = value = module if name == "spectral" else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SPECTRAL))


__all__ = [
    "BadVertexId",
    "BoundaryPartition",
    "CanonicalCode",
    "ContainsCycle",
    "DEFAULT_TOLERANCES",
    "DegreeSequence",
    "DegreeTooSmall",
    "Disconnected",
    "DuplicateEdge",
    "EdgeOverlapTooLarge",
    "EmptyFamily",
    "FamilySpec",
    "FkCertificate",
    "HypothesisCheck",
    "IndexOutOfRange",
    "InfeasibleDegreeSequence",
    "InvalidSpec",
    "LengthMismatch",
    "LevelStructure",
    "NoInteriorVertices",
    "NotAPermutation",
    "NotAnEigenfunction",
    "NotKUniform",
    "NotMajorized",
    "ResultNotSupertree",
    "ShtFormatError",
    "SloViolation",
    "Supertree",
    "SupertreeError",
    "SwitchSpec",
    "ShiftSpec",
    "Tolerances",
    "VertexId",
    "VertexLabel",
    "ZeroFunction",
    "apply_shift",
    "apply_switch",
    "apply_vertex_permutation",
    "boundary_partition",
    "build_supertree",
    "canonical_code",
    "check_shift_hypothesis",
    "check_slo",
    "check_switch_hypothesis",
    "construct_slo_supertree",
    "degree_sequence",
    "distance",
    "enumerate_family",
    "enumerate_supertrees",
    "feasible_degree_sequences",
    "find_slo_ordering",
    "fk1_sweep",
    "fk2_sweep",
    "is_isomorphic",
    "level_structure",
    "majorizes",
    "parse_sht",
    "relabel",
    "relabel_ordering",
    "serialize_sht",
    "unit_transform_chain",
    "unit_transformation",
    "verify_fk_theorem1",
    "verify_fk_theorem2",
    "verify_majorization_monotonicity",
    *_SPECTRAL,
]
