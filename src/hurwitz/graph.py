"""Weighted graph invariant of a factorization.

Each transposition factor ``(a, b)`` contributes one unit of weight to the
edge ``{a, b}``.  The invariant records, per connected component that carries
at least one edge, the component's vertex set together with its total edge
weight; isolated vertices are dropped.  Identity factors are counted
separately.  Elementary moves replace a factor by a conjugate under another
factor, which permutes edges within a component without changing component
membership or total weight, so the whole record is move-invariant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

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


def component_labels(degree: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Label every point ``1..degree`` with the smallest point of its component.

    ``labels[0]`` is unused.  Union-find that always hangs the larger root
    under the smaller one, with path halving, so every parent is at most its
    child; one ascending pass then resolves each point to its root.
    """
    parent = list(range(degree + 1))
    for a, b in edges:
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
    for v in range(1, degree + 1):
        parent[v] = parent[parent[v]]
    return parent


def signature(factorization: Factorization) -> ComponentSignature:
    """Compute the component signature of a factorization.

    Runs in near-linear time: one counting pass over the factors, then
    component labelling over the distinct edges.
    """
    _require_type(factorization, Factorization, "factorization")
    degree = factorization.degree
    counts = Counter(factorization.factors)
    identity = counts.pop(None, 0)
    labels = component_labels(degree, counts)

    weights: dict[int, int] = {}
    for (a, _), w in counts.items():
        root = labels[a]
        weights[root] = weights.get(root, 0) + w
    members: dict[int, list[int]] = {root: [] for root in sorted(weights)}
    for v in range(1, degree + 1):
        if labels[v] in members:
            members[labels[v]].append(v)

    # each root is its component's smallest point, so members is in order
    return ComponentSignature(
        degree=degree,
        total_factors=len(factorization.factors),
        identity_factor_count=identity,
        components=tuple(
            (tuple(vertices), weights[root]) for root, vertices in members.items()
        ),
    )


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
    each labeled with its weight.
    """
    _require_type(factorization, Factorization, "factorization")
    counts = Counter(factorization.factors)
    counts.pop(None, None)
    lines = ["graph factorization {"]
    for v in range(1, factorization.degree + 1):
        lines.append(f"  {v};")
    for (a, b), weight in sorted(counts.items()):
        lines.append(f'  {a} -- {b} [label="w={weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
