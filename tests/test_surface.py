"""The public surface: the names ``hurwitz`` exports, and what importing it
loads."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz
from hurwitz import (
    BraidTuple,
    BraidWord,
    Factorization,
    PreconditionError,
    apply_certificate,
    apply_move,
    braid_hurwitz_move,
    enumerate_identity_factorizations,
    enumerate_orbit,
    orbit_partition,
    pull_edge_to_front,
    signature,
)

PUBLIC = [
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


def test_all_is_pinned_and_every_name_resolves():
    assert sorted(hurwitz.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(hurwitz, name) is not None


def test_no_perm_module():
    # products live in factorization.product_images, as image lists
    assert importlib.util.find_spec("hurwitz.perm") is None


def test_import_loads_only_the_package_and_the_standard_library():
    """Zero runtime dependencies: a fresh interpreter that imports hurwitz
    gains only hurwitz.* and standard-library modules."""
    src = str(Path(hurwitz.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hurwitz\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "hurwitz" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] != "hurwitz"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


F = Factorization(3, [(1, 2), (1, 2)])
B = BraidTuple(3, [BraidWord(3, [1]), BraidWord(3, [1])])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Factorization(3, 5),
        lambda: BraidWord(3, 5),
        lambda: BraidTuple(3, 5),
        lambda: apply_move(F, "F@0"),
        lambda: apply_certificate(F, ["F@0"]),
        lambda: braid_hurwitz_move(B, "F@0"),
        lambda: signature([(1, 2)]),
        lambda: enumerate_orbit(F, cap=2.5),
        lambda: enumerate_orbit(F, cap="5"),
        lambda: list(enumerate_identity_factorizations(3, 2.0)),
        lambda: list(enumerate_identity_factorizations(3.5, 2)),
        lambda: list(enumerate_identity_factorizations("3", 2)),
        lambda: orbit_partition(3, "4"),
        lambda: pull_edge_to_front(F, 1, 2.0),
    ],
    ids=[
        "Factorization(3, 5)",
        "BraidWord(3, 5)",
        "BraidTuple(3, 5)",
        "apply_move(f, 'F@0')",
        "apply_certificate(f, ['F@0'])",
        "braid_hurwitz_move(b, 'F@0')",
        "signature([(1, 2)])",
        "enumerate_orbit(f, cap=2.5)",
        "enumerate_orbit(f, cap='5')",
        "enumerate_identity_factorizations(3, 2.0)",
        "enumerate_identity_factorizations(3.5, 2)",
        "enumerate_identity_factorizations('3', 2)",
        "orbit_partition(3, '4')",
        "pull_edge_to_front(f, 1, 2.0)",
    ],
)
def test_wrong_typed_arguments_raise_precondition_error(call):
    """A public entry point given an argument of the wrong type raises a
    HurwitzError, never TypeError or AttributeError, and never returns."""
    with pytest.raises(PreconditionError):
        call()
