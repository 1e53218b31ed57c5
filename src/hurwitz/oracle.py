"""Brute-force ground truth for small instances.

Two capabilities: breadth-first enumeration of a factorization's orbit under
elementary moves, and exhaustive lexicographic enumeration of all
transposition factorizations of the identity at a given degree and length.
Together they validate, at desk scale, that orbits coincide exactly with
signature classes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import PreconditionError
from .factorization import Factor, Factorization, move_pair
from .graph import ComponentSignature, signature

# Orbit states are bare factor tuples; Factorization wrappers are built only
# at the API boundary.
State = tuple[Factor, ...]

DEFAULT_CAP = 10**6

# Raw enumeration space (n(n-1)/2)^m above this is refused.
ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class OrbitReport:
    """Result of one orbit enumeration.

    ``truncated`` means the cap was hit while unexplored states remained, in
    which case ``orbit_size == cap``.  ``members`` is kept only when
    requested; each member is a factor tuple.
    """

    seed: Factorization
    orbit_size: int
    truncated: bool
    members: Optional[frozenset[State]] = None


def _neighbors(state: State) -> Iterator[State]:
    """All states one elementary move away (both directions, every slot)."""
    for k in range(len(state) - 1):
        s, t = state[k], state[k + 1]
        head, tail = state[:k], state[k + 2:]
        yield head + move_pair(s, t, True) + tail
        yield head + move_pair(s, t, False) + tail


def enumerate_orbit(
    factorization: Factorization,
    cap: int = DEFAULT_CAP,
    keep_members: bool = False,
) -> OrbitReport:
    """BFS closure of a factorization under elementary moves.

    States are deduplicated by their literal normalized factor tuple.  The
    search stops once ``cap`` distinct states are known and more remain.

    >>> enumerate_orbit(Factorization(3, [(1, 2), (1, 2)])).orbit_size
    1
    >>> enumerate_orbit(Factorization(3, [(1, 2), (2, 3)])).orbit_size
    3
    """
    if cap < 1:
        raise PreconditionError(f"cap must be positive, got {cap}")
    seed = factorization.factors
    visited: set[State] = {seed}
    frontier: deque[State] = deque([seed])
    truncated = False
    while frontier and not truncated:
        state = frontier.popleft()
        for nxt in _neighbors(state):
            if nxt in visited:
                continue
            if len(visited) == cap:
                truncated = True
                break
            visited.add(nxt)
            frontier.append(nxt)
    return OrbitReport(
        seed=factorization,
        orbit_size=len(visited),
        truncated=truncated,
        members=frozenset(visited) if keep_members else None,
    )


def enumerate_identity_factorizations(
    degree: int, length: int
) -> Iterator[Factorization]:
    """All transposition factorizations of the identity, lexicographically.

    Streams every ``length``-tuple of transpositions of ``1..degree`` whose
    left-to-right product is the identity, ordered by the natural tuple
    order on the factor sequences.

    >>> [f.factors for f in enumerate_identity_factorizations(3, 2)]
    [((1, 2), (1, 2)), ((1, 3), (1, 3)), ((2, 3), (2, 3))]
    """
    if degree < 2:
        raise PreconditionError(f"degree must be at least 2, got {degree}")
    if length < 0:
        raise PreconditionError(f"length must be non-negative, got {length}")
    alphabet_size = degree * (degree - 1) // 2
    if alphabet_size**length > ENUMERATION_GUARD:
        raise PreconditionError(
            f"{alphabet_size}^{length} candidate tuples exceed the "
            f"enumeration guard ({ENUMERATION_GUARD}); use smaller "
            "degree or length"
        )
    transpositions = [
        (a, b)
        for a in range(1, degree + 1)
        for b in range(a + 1, degree + 1)
    ]

    # DFS over slots, tracking the running product as an image array.
    # Prune when the remaining slots cannot cancel the running product:
    # writing a permutation with c cycles (fixed points included) as a
    # product of transpositions takes at least degree - c of them, and
    # parity must match.  The stack is explicit, so no length recurses.
    images = list(range(degree + 1))  # images[0] unused

    def feasible(remaining: int) -> bool:
        seen = [False] * (degree + 1)
        cycles = 0
        for start in range(1, degree + 1):
            if seen[start]:
                continue
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
        deficit = degree - cycles
        return deficit <= remaining and (remaining - deficit) % 2 == 0

    if not feasible(length):
        return
    choice: list[int] = []  # transposition index of each filled slot
    i = 0  # the next index to try in the first empty slot
    while True:
        if len(choice) == length:
            yield Factorization._trusted(degree, tuple(transpositions[c] for c in choice))
            i = len(transpositions)
        if i < len(transpositions):
            a, b = transpositions[i]
            images[a], images[b] = images[b], images[a]
            if feasible(length - len(choice) - 1):
                choice.append(i)
                i = 0
                continue
        elif not choice:
            return
        else:
            i = choice.pop()
        # undo transposition i in the last slot tried, then try the next one
        a, b = transpositions[i]
        images[a], images[b] = images[b], images[a]
        i += 1


def orbit_partition(
    degree: int, length: int, cap: int = DEFAULT_CAP
) -> list[tuple[ComponentSignature, list[OrbitReport]]]:
    """Partition all identity factorizations into orbits, grouped by signature.

    Every factorization from the exhaustive enumeration is assigned to a BFS
    orbit; orbits are then bucketed by their common signature.  The result
    lists each signature with its orbits, signatures ordered by first
    appearance in the lexicographic enumeration.  A truncated orbit (cap
    hit) keeps its flag set, so callers can tell an exact partition from a
    bounded one.

    The main theorem predicts exactly one orbit per signature.
    """
    pending: dict[State, Factorization] = {
        f.factors: f for f in enumerate_identity_factorizations(degree, length)
    }
    buckets: dict[ComponentSignature, list[OrbitReport]] = {}
    while pending:
        seed_state = next(iter(pending))
        seed = pending[seed_state]
        report = enumerate_orbit(seed, cap=cap, keep_members=True)
        assert report.members is not None
        for state in report.members:
            pending.pop(state, None)
        # Drop the member set; the partition only needs sizes and flags.
        buckets.setdefault(signature(seed), []).append(
            OrbitReport(
                seed=seed,
                orbit_size=report.orbit_size,
                truncated=report.truncated,
            )
        )
    return list(buckets.items())
