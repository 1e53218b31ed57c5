"""Hurwitz equivalence of identity factorizations in the symmetric group.

Decides equivalence through the weighted-component graph invariant,
rewrites factorizations into a canonical form with replayable move
certificates, projects braid tuples to transposition factorizations, and
brute-forces orbits on small instances.

The public names are exported lazily: ``import hurwitz`` loads no module of
the package, and the first access to a name (``hurwitz.X``,
``from hurwitz import X`` or ``from hurwitz import *``) imports the module
that defines it, so a caller pays only for the modules it uses.
"""

import importlib

# Each public name and the module that defines it.
_MODULES = {
    "BraidTuple": "braid",
    "BraidWord": "braid",
    "CanonicalResult": "canonical",
    "ComponentSignature": "graph",
    "DEFAULT_CAP": "factorization",
    "Direction": "factorization",
    "Factor": "factorization",
    "Factorization": "factorization",
    "FormatError": "errors",
    "HurwitzError": "errors",
    "HurwitzMove": "factorization",
    "InternalError": "errors",
    "MoveCertificate": "factorization",
    "MoveRangeError": "errors",
    "OrbitReport": "oracle",
    "PreconditionError": "errors",
    "apply_certificate": "factorization",
    "apply_move": "factorization",
    "braid_hurwitz_move": "braid",
    "canonical_form": "canonical",
    "canonical_shape": "canonical",
    "enumerate_identity_factorizations": "oracle",
    "enumerate_orbit": "oracle",
    "format_certificate": "factorization",
    "format_factorization": "factorization",
    "format_signature": "graph",
    "group_components": "canonical",
    "hurwitz_equivalent": "canonical",
    "invert_certificate": "factorization",
    "orbit_partition": "oracle",
    "parse_braid_tuple": "braid",
    "parse_certificate": "factorization",
    "parse_factorization": "factorization",
    "project_tuple": "braid",
    "pull_edge_to_front": "canonical",
    "signature": "graph",
}

__all__ = list(_MODULES)


def __getattr__(name):
    try:
        module = _MODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
