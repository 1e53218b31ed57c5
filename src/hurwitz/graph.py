"""Weighted graph invariant of a factorization.

Each transposition factor ``(a, b)`` contributes one unit of weight to the
edge ``{a, b}``.  The invariant records, per connected component that carries
at least one edge, the component's vertex set together with its total edge
weight; isolated vertices are dropped.  Identity factors are counted
separately.  Elementary moves replace a factor by a conjugate under another
factor, which permutes edges within a component without changing component
membership or total weight, so the whole record is move-invariant.

``signature`` takes O(m + degree) time for m factors and O(degree) memory
beside one fixed-size chunk of the factors' endpoints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, is_not, mul
from typing import Iterable, Optional

from .factorization import Factorization, _require_type


@dataclass(frozen=True)
class ComponentSignature:
    """The complete equivalence invariant.

    ``components`` holds one ``(vertices, weight)`` entry per edge-bearing
    connected component, sorted by smallest vertex; ``vertices`` is a sorted
    tuple.  Two identity factorizations of the same degree and length are
    connected by elementary moves exactly when their signatures coincide.
    """

    degree: int
    total_factors: int
    identity_factor_count: int
    components: tuple[tuple[tuple[int, ...], int], ...]

    def __str__(self) -> str:
        return format_signature(self)


def component_labels(
    degree: int, edges: Iterable[tuple[int, int]], parent: Optional[list[int]] = None
) -> list[int]:
    """Label every point ``1..degree`` with the smallest point of its component.

    ``labels[0]`` is unused.  Union-find that always hangs the larger root
    under the smaller one, with path halving, so every parent is at most its
    child; one ascending pass then resolves each point to its root.  An edge
    whose endpoints already share a parent is skipped without a search.

    Given ``parent``, a list an earlier call returned, the edges are joined
    into it in place and it is returned without the ascending pass, so the
    edges can come in several calls; the same pass over the points that are
    not roots, in ascending order, resolves it afterwards.
    """
    fresh = parent is None
    if fresh:
        parent = list(range(degree + 1))
    for a, b in edges:
        if parent[a] == parent[b]:
            continue
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    if fresh:
        for v in range(1, degree + 1):
            parent[v] = parent[parent[v]]
    return parent


# signature counts the left endpoints _CHUNK at a time, so its Counter holds
# at most _CHUNK keys whatever the degree; one Counter of them all would hold
# up to degree fresh ints.  Inputs up to _CHUNK factors, all but the largest
# in the benchmark, take one pass of the loop.
_CHUNK = 1 << 17


def signature(factorization: Factorization) -> ComponentSignature:
    """Compute the component signature of a factorization.

    Time O(m + degree), where the O(degree) part runs in C (three list
    allocations and one scan for non-roots); memory O(degree + _CHUNK).
    The endpoint arrays are read a chunk at a time: a Counter of the left
    endpoints gives the identities (point 0) and each point's weight as the
    smaller endpoint of an edge, and the chunk's pairs are joined into one
    running union-find, which skips an identity because ``parent[0] ==
    parent[0]``.  Only the points that carry an edge are resolved and
    grouped, in one Python pass.
    """
    _require_type(factorization, Factorization, "factorization")
    degree = factorization.degree
    lo, hi = factorization._lo, factorization._hi
    points = list(range(degree + 1))
    parent = points[:]
    low = [0] * (degree + 1)  # weight of the edges by their smaller endpoint
    for start in range(0, len(lo), _CHUNK):
        lo_chunk = lo[start:start + _CHUNK]
        for a, w in Counter(lo_chunk).items():
            low[a] += w
        hi_chunk = hi[start:start + _CHUNK]
        component_labels(degree, zip(lo_chunk, hi_chunk), parent)
    identity, low[0] = low[0], 0

    # A point carries an edge when it is not a root or is the root of some
    # point that is not.  A root's entry is still the int object of ``points``,
    # and a point hung under a smaller one never becomes a root again, so
    # an identity test finds the others.  Ascending, each parent is
    # resolved before its children, and each weight is added to its root's.
    members: dict[int, list[int]] = {}
    for v in compress(points, map(is_not, parent, points)):
        root = parent[v] = parent[parent[v]]
        if root in members:
            members[root].append(v)
        else:
            members[root] = [root, v]
        low[root] += low[v]
    components = tuple(
        (tuple(members[root]), low[root]) for root in sorted(members)
    )
    # positional: keywords cost a tenth of a call on the smallest inputs
    return ComponentSignature(degree, len(lo), identity, components)


def format_signature(sig: ComponentSignature) -> str:
    """Render the text form, e.g. ``n=6; m=8; e=0; [{1,4,5}:4,{2,3,6}:4]``.

    >>> from .factorization import parse_factorization
    >>> f = parse_factorization("n=3; [(1,2),(1,2)]")
    >>> format_signature(signature(f))
    'n=3; m=2; e=0; [{1,2}:2]'
    """
    _require_type(sig, ComponentSignature, "signature")
    parts = [
        "{" + ",".join(str(v) for v in vertices) + "}:" + str(weight)
        for vertices, weight in sig.components
    ]
    return (
        f"n={sig.degree}; m={sig.total_factors}; "
        f"e={sig.identity_factor_count}; [{','.join(parts)}]"
    )


def to_dot(factorization: Factorization) -> str:
    """Render the graph in DOT form with deterministic ordering.

    Vertices appear in ascending order, then edges sorted by endpoint pair,
    each labeled with its weight.  An edge is counted as one int,
    ``a * (degree + 1) + b``, which sorts as the pair does; an identity
    is 0.
    """
    _require_type(factorization, Factorization, "factorization")
    span = factorization.degree + 1
    counts = Counter(
        map(add, map(mul, factorization._lo, repeat(span)), factorization._hi)
    )
    counts.pop(0, None)
    lines = ["graph factorization {"]
    for v in range(1, span):
        lines.append(f"  {v};")
    for key, weight in sorted(counts.items()):
        a, b = divmod(key, span)
        lines.append(f'  {a} -- {b} [label="w={weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
