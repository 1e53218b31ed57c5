"""The public surface: the names ``hurwitz`` exports, and what importing it
loads."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hurwitz

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
