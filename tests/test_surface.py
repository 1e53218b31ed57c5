"""The public surface: the names ``hurwitz`` exports, and what importing it
loads."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz
from hurwitz import (
    BraidTuple,
    BraidWord,
    ComponentSignature,
    Direction,
    Factorization,
    HurwitzMove,
    PreconditionError,
    apply_certificate,
    apply_move,
    braid_hurwitz_move,
    canonical_form,
    canonical_shape,
    enumerate_identity_factorizations,
    enumerate_orbit,
    format_certificate,
    format_factorization,
    format_signature,
    group_components,
    hurwitz_equivalent,
    invert_certificate,
    orbit_partition,
    parse_braid_tuple,
    parse_certificate,
    parse_factorization,
    project_tuple,
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
]


def test_all_is_pinned_and_every_name_resolves():
    assert sorted(hurwitz.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(hurwitz, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        hurwitz.nope


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(hurwitz))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hurwitz import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"hurwitz.{hurwitz._MODULES[name]}")
    assert getattr(hurwitz, name) is getattr(module, name)


# Public names that nothing in the package or the benchmark's worker uses,
# each with the reason it stays.
UNUSED_PUBLIC = {
    "invert_certificate": "README's f1 to f2 recipe, and the planned "
    "`equiv --cert` witness",
}


def _used_names(path):
    """Every name, attribute and imported name that ``path`` mentions."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def test_every_public_name_has_a_caller():
    """A public name is used by the package's own modules or by the
    benchmark's worker, or is in UNUSED_PUBLIC with its reason: a name that
    only tests call is one the surface does not need."""
    package = Path(hurwitz.__file__).resolve().parent
    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*map(_used_names, [*sources, worker]))
    assert set(hurwitz.__all__) - used == set(UNUSED_PUBLIC)


def test_every_private_definition_has_a_caller():
    """Each private function, method or class of the package is named in
    the package's code, as a name or an attribute: one that nothing names
    is left over from a change.  Private is a name with a leading
    underscore, or any definition inside a function or a private class;
    dunders are left out.  Imports, docstrings and comments do not count."""
    package = Path(hurwitz.__file__).resolve().parent
    defined, named = [], set()
    for path in sorted(package.glob("*.py")):
        stack = [(ast.parse(path.read_text(), str(path)), False)]
        while stack:  # (node, whether its definitions are private)
            node, hidden = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = hidden
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    dunder = child.name.startswith("__") and child.name.endswith("__")
                    private = hidden or child.name.startswith("_") and not dunder
                    if private and not dunder:
                        defined.append((child.name, f"{path.name}:{child.lineno}"))
                    inner = private or not isinstance(child, ast.ClassDef)
                elif isinstance(child, ast.Name):
                    named.add(child.id)
                elif isinstance(child, ast.Attribute):
                    named.add(child.attr)
                stack.append((child, inner))
    unnamed = [f"{where} {name}" for name, where in defined if name not in named]
    assert defined
    assert unnamed == []


def test_only_the_move_maker_constructs_moves():
    """Package code makes a HurwitzMove only inside ``factorization._move``,
    which shares one object per code below its bound, so no caller
    bypasses the sharing.  Doctests are text and do not count."""
    package = Path(hurwitz.__file__).resolve().parent
    makers, calls = [], []
    for path in sorted(package.glob("*.py")):
        stack = [(ast.parse(path.read_text(), str(path)), None)]
        while stack:  # (node, the function it is in)
            node, function = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call) and "HurwitzMove" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                inside = (path.name, function) == ("factorization.py", "_move")
                (makers if inside else calls).append(f"{path.name}:{node.lineno}")
            stack.extend((child, function) for child in ast.iter_child_nodes(node))
    assert makers
    assert calls == []


_LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def test_only_the_planner_run_changes_the_factors():
    """In ``canonical.py`` only ``_Planner.run`` calls ``_replay``, and no
    code assigns into a planner's factor list, rebinds it outside
    ``_Planner.__init__`` or calls a list method that changes it; a name
    bound to ``<expr>.factors`` in a function counts as the list there.  So
    the planner's log is exactly the moves that shaped its factors."""
    path = Path(hurwitz.__file__).resolve().parent / "canonical.py"
    found = []
    stack = [(ast.parse(path.read_text(), str(path)), (), frozenset())]
    while stack:  # (node, the classes and functions it is in, list aliases)
        node, where, aliases = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where += (node.name,)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            aliases |= {
                target.id
                for n in ast.walk(node)
                if isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Attribute)
                and n.value.attr == "factors"
                for target in n.targets
                if isinstance(target, ast.Name)
            }

        def is_list(expr):
            return (
                isinstance(expr, ast.Attribute) and expr.attr == "factors"
                or isinstance(expr, ast.Name) and expr.id in aliases
            )

        here = f"{'.'.join(where)}:{getattr(node, 'lineno', 0)}"
        callee = getattr(node, "func", None)
        if isinstance(node, ast.Call) and "_replay" in (
            getattr(callee, "id", None),
            getattr(callee, "attr", None),
        ):
            if where[-2:] != ("_Planner", "run"):
                found.append(f"{here} calls _replay")
        elif isinstance(node, ast.Call) and getattr(callee, "attr", None) in _LIST_MUTATORS:
            if is_list(callee.value):
                found.append(f"{here} calls {callee.attr} on the factors")
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets += t.elts
            elif isinstance(t, ast.Starred):
                targets.append(t.value)
            elif (
                isinstance(t, ast.Subscript) and is_list(t.value)
                or isinstance(node, ast.AugAssign) and is_list(t)
                or isinstance(t, ast.Attribute)
                and t.attr == "factors"
                and where[-2:] != ("_Planner", "__init__")
            ):
                found.append(f"{here} writes the factors")
        stack.extend((child, where, aliases) for child in ast.iter_child_nodes(node))
    assert found == []


def test_no_module_imports_a_name_it_never_mentions():
    """Each name a module of the package imports appears again in its own
    text, code, comments and doctests included: an import nothing reads is
    left over from a change.  ``__init__.py``, which exports lazily, and
    ``__future__`` features are left out."""
    package = Path(hurwitz.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        imports = [
            node
            for node in ast.walk(ast.parse(text, str(path)))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        rest = text.splitlines()
        for node in imports:
            rest[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
        rest = "\n".join(rest)
        unused += [
            f"{path.name}: {name}"
            for node in imports
            if getattr(node, "module", None) != "__future__"
            for name in [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            if not re.search(rf"\b{re.escape(name)}\b", rest)
        ]
    assert unused == []


def test_no_perm_module():
    # products live in factorization.product_images, as image lists
    assert importlib.util.find_spec("hurwitz.perm") is None


def test_package_has_no_assert():
    """Checks in the package raise errors: an assert would vanish under
    ``python -O`` and, when it fails, print a traceback from the CLI."""
    package = Path(hurwitz.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_recursion():
    """No function in the package calls itself by name, as ``f(...)`` or
    ``self.f(...)``: recursion depth would grow with the input."""
    package = Path(hurwitz.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = getattr(node, "func", None)
                if isinstance(node, ast.Call) and (
                    isinstance(callee, ast.Name)
                    and callee.id == func.name
                    or isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                    and callee.attr == func.name
                ):
                    found.append(f"{path.name}:{node.lineno} {func.name}")
    assert found == []


def _names_move_class(node):
    return any(
        isinstance(n, ast.Name) and n.id == "HurwitzMove" for n in ast.walk(node)
    )


def _is_exact_move_check(node):
    """``type(<expr>) is HurwitzMove`` or ``is not``."""
    return (
        len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name)
        and node.left.func.id == "type"
        and len(node.left.args) == 1
        and isinstance(node.comparators[0], ast.Name)
        and node.comparators[0].id == "HurwitzMove"
    )


def test_moves_are_type_checked_exactly():
    """A move is told from a look-alike only by ``type(x) is HurwitzMove``:
    an isinstance check, a class pattern or any other comparison with the
    class would take a subclass that the move kernel refuses."""
    package = Path(hurwitz.__file__).resolve().parent
    exact, other = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Name) and x.id == "HurwitzMove"
                for x in [node.left, *node.comparators]
            ):
                if _is_exact_move_check(node):
                    exact.add(path.name)
                else:
                    other.append(where)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass", "_require_type")
                and any(map(_names_move_class, node.args[1:]))
            ) or (isinstance(node, ast.MatchClass) and _names_move_class(node.cls)):
                other.append(where)
    assert other == []
    # the checks the guard keeps are where moves arrive: the kernel and
    # the word-level move
    assert {"factorization.py", "braid.py"} <= exact


def test_import_loads_only_the_package_and_the_standard_library():
    """Zero runtime dependencies: a fresh interpreter that imports hurwitz
    and reads every public name gains only hurwitz.* and standard-library
    modules; the import alone loads no module of the package."""
    src = str(Path(hurwitz.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hurwitz\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "for name in hurwitz.__all__:\n"
        "    getattr(hurwitz, name)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    on_import, loaded = (line.split() for line in proc.stdout.splitlines())
    assert on_import == ["hurwitz"]
    modules = {"hurwitz"} | {f"hurwitz.{m}" for m in hurwitz._MODULES.values()}
    assert [name for name in loaded if name.split(".")[0] == "hurwitz"] == sorted(modules)
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
        lambda: orbit_partition(3, 3, cap="x"),
        lambda: pull_edge_to_front(F, 1, 2.0),
        lambda: format_factorization([(1, 2)]),
        lambda: canonical_form([(1, 2), (1, 2)]),
        lambda: hurwitz_equivalent([(1, 2), (1, 2)], F),
        lambda: hurwitz_equivalent(F, [(1, 2), (1, 2)]),
        lambda: group_components([(1, 2), (1, 2)]),
        lambda: pull_edge_to_front([(1, 2), (1, 2)], 1, 2),
        lambda: enumerate_orbit([(1, 2), (1, 2)]),
        lambda: apply_certificate([(1, 2), (1, 2)], []),
        lambda: apply_move([(1, 2), (1, 2)], HurwitzMove(Direction.FORWARD, 0)),
        lambda: canonical_shape(F),
        lambda: format_signature(F),
        lambda: project_tuple(F),
        lambda: braid_hurwitz_move([], HurwitzMove(Direction.FORWARD, 0)),
        lambda: format_certificate(["F@0"]),
        lambda: format_certificate(5),
        lambda: invert_certificate(["F@0"]),
        lambda: invert_certificate(5),
        lambda: parse_factorization(b"n=3; []"),
        lambda: parse_certificate(5),
        lambda: parse_braid_tuple(None),
        lambda: canonical_shape(ComponentSignature(3, 2, 0, "junk")),
        lambda: format_signature(ComponentSignature(3, 2, 0, "junk")),
        lambda: canonical_shape(ComponentSignature(3, 2, 0, (((1, 2), 1),))),
        lambda: canonical_shape(ComponentSignature(3, 1, 0, (((1, 2), 1),))),
        lambda: canonical_shape(ComponentSignature(3, 2, 0, (((1, 2, 3), 2),))),
        lambda: canonical_shape(ComponentSignature(3, 1, -1, (((1, 2), 2),))),
        lambda: canonical_shape(ComponentSignature(3, 5, 0, (((1, 2), 2),))),
        lambda: canonical_shape(ComponentSignature(3, 4, 0, (((3, 1, 2), 4),))),
        lambda: canonical_shape(ComponentSignature(4, 4, 0, (((3, 4), 2), ((1, 2), 2)))),
        lambda: canonical_shape(ComponentSignature(3, 4, 0, (((1, 2), 2), ((1, 2), 2)))),
        lambda: canonical_shape(ComponentSignature(3, 4, 0, (((1, 2), 2), ((2, 3), 2)))),
        lambda: canonical_shape(ComponentSignature(3, 2**63, 2**63, ())),
        lambda: canonical_shape(ComponentSignature(3, 2**63 + 2, 2**63, (((1, 2), 2),))),
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
        "orbit_partition(3, 3, cap='x')",
        "pull_edge_to_front(f, 1, 2.0)",
        "format_factorization(list)",
        "canonical_form(list)",
        "hurwitz_equivalent(list, f)",
        "hurwitz_equivalent(f, list)",
        "group_components(list)",
        "pull_edge_to_front(list, 1, 2)",
        "enumerate_orbit(list)",
        "apply_certificate(list, [])",
        "apply_move(list, F@0)",
        "canonical_shape(f)",
        "format_signature(f)",
        "project_tuple(f)",
        "braid_hurwitz_move([], F@0)",
        "format_certificate(['F@0'])",
        "format_certificate(5)",
        "invert_certificate(['F@0'])",
        "invert_certificate(5)",
        "parse_factorization(b'n=3; []')",
        "parse_certificate(5)",
        "parse_braid_tuple(None)",
        "canonical_shape(junk signature)",
        "format_signature(junk signature)",
        "canonical_shape(m=2, odd weight 1)",
        "canonical_shape(m=1, odd weight 1)",
        "canonical_shape(weight 2 on 3 points)",
        "canonical_shape(e=-1)",
        "canonical_shape(m=5, weight 2)",
        "canonical_shape(points 3,1,2 out of order)",
        "canonical_shape(components out of order)",
        "canonical_shape(one component twice)",
        "canonical_shape(components share point 2)",
        "canonical_shape(e=m=2**63)",
        "canonical_shape(e=2**63, m=2**63+2)",
    ],
)
def test_wrong_typed_arguments_raise_precondition_error(call):
    """A public entry point given an argument of the wrong type, or a
    well-typed signature that no factorization has, raises a HurwitzError,
    never TypeError, AttributeError or InternalError, and never returns."""
    with pytest.raises(PreconditionError):
        call()
