"""Weighted graph invariant of a factorization.

Each transposition factor ``(a, b)`` contributes one unit of weight to the
edge ``{a, b}``.  The invariant records, per connected component that carries
at least one edge, the component's vertex set together with its total edge
weight; isolated vertices are dropped.  Identity factors are counted
separately.  Elementary moves replace a factor by a conjugate under another
factor, which permutes edges within a component without changing component
membership or total weight, so the whole record is move-invariant.

``signature`` takes O(m + degree) time for m factors and O(degree) memory,
whatever m is.  Its components come from the package's one union-find,
inline in ``signature``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, groupby, repeat
from operator import add, is_not, mul
from typing import Iterator

from .errors import PreconditionError
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


def signature(factorization: Factorization) -> ComponentSignature:
    """Compute the component signature of a factorization.

    Time O(m + degree), where the O(degree) part runs in C (three list
    allocations and one scan for non-roots); memory O(degree).  One pass
    over the endpoint arrays adds each factor's unit to the weight of its
    smaller endpoint (point 0 for an identity) and joins its pair into one
    union-find: path halving, the larger root hung under the smaller, so
    every parent is at most its child.  A pair whose endpoints already
    share a parent is skipped without a search; so is an identity, because
    ``parent[0] == parent[0]``.  Only the points that carry an edge are
    resolved and grouped, in one Python pass.
    """
    _require_type(factorization, Factorization, "factorization")
    degree = factorization.degree
    lo, hi = factorization._lo, factorization._hi
    points = list(range(degree + 1))
    parent = points[:]
    low = [0] * (degree + 1)  # weight of the edges by their smaller endpoint
    for a, b in zip(lo, hi):
        low[a] += 1
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
    _require_signature(sig)
    parts = [
        "{" + ",".join(str(v) for v in vertices) + "}:" + str(weight)
        for vertices, weight in sig.components
    ]
    return (
        f"n={sig.degree}; m={sig.total_factors}; "
        f"e={sig.identity_factor_count}; [{','.join(parts)}]"
    )


def _require_signature(sig: object) -> None:
    """Raise PreconditionError unless ``sig`` is a ComponentSignature whose
    fields are shaped as `signature` builds them.  The points are not read
    one by one, which would cost a third of `format_signature`: it renders
    any point, and `canonical_shape` checks each as a factor entry."""
    _require_type(sig, ComponentSignature, "signature")
    counts = (sig.degree, sig.total_factors, sig.identity_factor_count)
    if set(map(type, counts)) != {int} or type(sig.components) is not tuple or not all(
        type(c) is tuple and len(c) == 2 and type(c[0]) is tuple and len(c[0]) > 1
        and type(c[1]) is int
        for c in sig.components
    ):
        raise PreconditionError(
            "a signature holds int counts and (vertices, weight) pairs, each "
            "a tuple of at least two points and an int weight"
        )


def _dot_lines(factorization: Factorization) -> Iterator[str]:
    """The graph's DOT lines without their newlines, made one at a time so
    a writer need not hold them all: the vertices ascending, then the edges
    sorted by endpoint pair, each labeled with its weight.  An edge is keyed
    by one int, ``a * (degree + 1) + b``, which sorts as the pair does, and
    an identity by 0; an edge's weight is the length of its run in the one
    sorted list of keys, which holds an int a factor and no table of the
    edges."""
    span = factorization.degree + 1
    keys = sorted(
        map(add, map(mul, factorization._lo, repeat(span)), factorization._hi)
    )
    yield "graph factorization {"
    for v in range(1, span):
        yield f"  {v};"
    for key, run in groupby(keys):
        if key:
            a, b = divmod(key, span)
            yield f'  {a} -- {b} [label="w={len(list(run))}"];'
    yield "}"
