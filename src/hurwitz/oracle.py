"""Brute-force ground truth for small instances.

Two capabilities: breadth-first enumeration of a factorization's orbit under
elementary moves, and exhaustive lexicographic enumeration of all
transposition factorizations of the identity at a given degree and length.
Together they validate, at desk scale, that orbits coincide exactly with
signature classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import PreconditionError
from .factorization import (
    MAX_DEGREE,
    Factor,
    Factorization,
    _require_int,
    _require_type,
    move_pair,
)
from .graph import ComponentSignature, signature

# An orbit's members are bare factor tuples; Factorization wrappers are built
# only at the API boundary.  Inside `enumerate_orbit` a state is a tuple of
# small int codes instead (see `_MoveTable`), decoded back to factor tuples
# before any member leaves the module.
State = tuple[Factor, ...]
CodedState = tuple[int, ...]

DEFAULT_CAP = 10**6

# Raw enumeration space (n(n-1)/2)^m above this is refused.  A length above
# DEFAULT_CAP slots is refused too: at degree 2 that space is always 1.
ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class OrbitReport:
    """Result of one orbit enumeration.

    ``truncated`` means the cap was hit while unexplored states remained, in
    which case ``orbit_size == cap``.  ``members`` is kept only when
    requested; each member is a factor tuple (the search's int codes never
    leave `enumerate_orbit`).
    """

    seed: Factorization
    orbit_size: int
    truncated: bool
    members: Optional[frozenset[State]] = None


class _MoveTable:
    """Factor codes and coded moves for one orbit search.

    Code 0 is the identity; codes 1, 2, ... name transpositions in the order
    the search meets them.  Moves never leave a component, so every code is
    an edge among the seed's points and ``width`` (one plus the number of
    such edges) bounds the codes.  ``pairs[s * width + t]`` holds what may
    replace the adjacent codes ``s, t``: the forward result, then the inverse
    result, without a result equal to ``(s, t)`` or to the forward one.
    Entries are filled by `move_pair` on first use, so the table grows with
    the code pairs the search meets and never with the degree.
    """

    def __init__(self, seed: State):
        points = {p for factor in seed if factor is not None for p in factor}
        self.width = 1 + len(points) * (len(points) - 1) // 2
        self.factors: list[Factor] = [None]
        self.codes: dict[Factor, int] = {None: 0}
        self.pairs: dict[int, tuple[tuple[int, int], ...]] = {}

    def encode(self, factor: Factor) -> int:
        code = self.codes.get(factor)
        if code is None:
            code = self.codes[factor] = len(self.factors)
            self.factors.append(factor)
        return code

    def decode(self, state: CodedState) -> State:
        return tuple(map(self.factors.__getitem__, state))

    def fill(self, key: int) -> tuple[tuple[int, int], ...]:
        s, t = divmod(key, self.width)
        results: list[tuple[int, int]] = []
        for forward in (True, False):
            x, y = move_pair(self.factors[s], self.factors[t], forward)
            pair = (self.encode(x), self.encode(y))
            if pair != (s, t) and pair not in results:
                results.append(pair)
        value = self.pairs[key] = tuple(results)
        return value


def _expand(
    state: CodedState,
    table: _MoveTable,
    visited: set[CodedState],
    order: list[CodedState],
    cap: int,
) -> bool:
    """Add the unvisited states one move from ``state`` to ``visited`` and
    ``order``: slots ascending, forward before inverse.  Returns True when
    a new state is met with ``cap`` states already known.

    A skipped move result equals ``state`` or the slot's forward result, so
    it is visited already and skipping it changes no report.
    """
    pairs, width = table.pairs, table.width
    for k in range(len(state) - 1):
        key = state[k] * width + state[k + 1]
        try:
            replacements = pairs[key]
        except KeyError:
            replacements = table.fill(key)
        for pair in replacements:
            nxt = state[:k] + pair + state[k + 2:]
            if nxt in visited:
                continue
            if len(visited) == cap:
                return True
            visited.add(nxt)
            order.append(nxt)
    return False


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
    _require_type(factorization, Factorization, "factorization")
    _require_int(cap, "cap must be positive", 1)
    table = _MoveTable(factorization.factors)
    seed = tuple(map(table.encode, factorization.factors))
    visited = {seed}
    order = [seed]  # BFS order: the loop below reads it as it grows
    truncated = False
    for state in order:
        if _expand(state, table, visited, order, cap):
            truncated = True
            break
    return OrbitReport(
        seed=factorization,
        orbit_size=len(visited),
        truncated=truncated,
        members=frozenset(map(table.decode, visited)) if keep_members else None,
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
    _require_int(degree, f"degree must be in 2..{MAX_DEGREE}", 2, MAX_DEGREE)
    _require_int(length, "length must be non-negative", 0)
    if length > DEFAULT_CAP:
        raise PreconditionError(
            f"length {length} exceeds the enumeration guard of {DEFAULT_CAP} "
            "slots; use a smaller length"
        )
    alphabet_size = degree * (degree - 1) // 2
    # Never form alphabet_size**length for a long length: past bit_length
    # factors a power of 2 or more is over the guard already.
    candidates = alphabet_size ** min(length, ENUMERATION_GUARD.bit_length())
    if candidates > ENUMERATION_GUARD:
        raise PreconditionError(
            f"{alphabet_size}^{length} candidate tuples over {length} slots "
            f"exceed the enumeration guard ({ENUMERATION_GUARD}); use smaller "
            "degree or length"
        )
    if length == 0:  # one empty tuple; n(n-1)/2 transpositions would be waste
        yield Factorization._trusted(degree, ())
        return
    transpositions = [
        (a, b)
        for a in range(1, degree + 1)
        for b in range(a + 1, degree + 1)
    ]

    # DFS over slots, tracking the running product as an image array and its
    # deficit, degree minus cycles (fixed points included): the fewest
    # transpositions that write it.  Appending (a, b) splits a's cycle when
    # b lies on it and merges two cycles otherwise, so the deficit moves by
    # one; a slot is filled only while the slots after it can still cancel
    # the product.  The stack is explicit, so no length recurses.
    if length % 2:  # each factor flips the product's parity
        return
    images = list(range(degree + 1))  # images[0] unused
    deficits = [0]  # the deficit after each filled slot
    choice: list[int] = []  # transposition index of each filled slot
    i = 0  # the next index to try in the first empty slot
    while True:
        if len(choice) == length:
            yield Factorization._trusted(degree, tuple(transpositions[c] for c in choice))
            i = len(transpositions)
        if i < len(transpositions):
            a, b = transpositions[i]
            x = images[a]
            while x != a and x != b:
                x = images[x]
            deficit = deficits[-1] + (1 if x == a else -1)
            if deficit < length - len(choice):
                images[a], images[b] = images[b], images[a]
                choice.append(i)
                deficits.append(deficit)
                i = 0
            else:
                i += 1
        elif not choice:
            return
        else:
            # undo transposition i in the last filled slot, then try the next
            i = choice.pop()
            deficits.pop()
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
