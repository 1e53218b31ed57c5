"""Hurwitz equivalence of identity factorizations in the symmetric group.

Decides equivalence through the weighted-component graph invariant,
rewrites factorizations into a canonical form with replayable move
certificates, projects braid tuples to transposition factorizations, and
brute-forces orbits on small instances.
"""

from .braid import (
    BraidTuple,
    BraidWord,
    braid_hurwitz_move,
    format_braid_tuple,
    parse_braid_tuple,
    project_tuple,
)
from .canonical import (
    CanonicalResult,
    canonical_form,
    canonical_shape,
    group_components,
    hurwitz_equivalent,
    pull_edge_to_front,
)
from .errors import (
    FormatError,
    HurwitzError,
    InternalError,
    MoveRangeError,
    PreconditionError,
)
from .factorization import (
    Direction,
    Factor,
    Factorization,
    HurwitzMove,
    MoveCertificate,
    apply_certificate,
    apply_move,
    format_certificate,
    format_factorization,
    invert_certificate,
    parse_certificate,
    parse_factorization,
)
from .graph import (
    ComponentSignature,
    format_signature,
    signature,
    to_dot,
)
from .oracle import (
    DEFAULT_CAP,
    OrbitReport,
    enumerate_identity_factorizations,
    enumerate_orbit,
    orbit_partition,
)

__all__ = [
    "BraidTuple",
    "BraidWord",
    "CanonicalResult",
    "ComponentSignature",
    "DEFAULT_CAP",
    "Direction",
    "Factor",
    "Factorization",
    "FormatError",
    "HurwitzError",
    "HurwitzMove",
    "InternalError",
    "MoveCertificate",
    "MoveRangeError",
    "OrbitReport",
    "PreconditionError",
    "apply_certificate",
    "apply_move",
    "braid_hurwitz_move",
    "canonical_form",
    "canonical_shape",
    "enumerate_identity_factorizations",
    "enumerate_orbit",
    "format_braid_tuple",
    "format_certificate",
    "format_factorization",
    "format_signature",
    "group_components",
    "hurwitz_equivalent",
    "invert_certificate",
    "orbit_partition",
    "parse_braid_tuple",
    "parse_certificate",
    "parse_factorization",
    "project_tuple",
    "pull_edge_to_front",
    "signature",
    "to_dot",
]
