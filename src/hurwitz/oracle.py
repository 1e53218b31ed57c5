"""Brute-force ground truth for small instances.

Two capabilities: breadth-first enumeration of a factorization's orbit under
elementary moves, and exhaustive lexicographic enumeration of all
transposition factorizations of the identity at a given degree and length.
Together they validate, at desk scale, that orbits coincide exactly with
signature classes; the census streams the enumeration through one move table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import PreconditionError
from .factorization import (
    DEFAULT_CAP,
    MAX_DEGREE,
    Factor,
    Factorization,
    _require_int,
    _require_type,
    move_pair,
)
from .graph import ComponentSignature, signature

# An orbit's members are bare factor tuples; Factorization wrappers are built
# only at the API boundary.  Inside a search a state is one int instead, slot
# k's factor code in bits [k*bits, (k+1)*bits) (see `_MoveTable`), decoded
# back to a factor tuple before any member leaves the module.
State = tuple[Factor, ...]

# Raw enumeration space (n(n-1)/2)^m above this is refused.  A length above
# DEFAULT_CAP slots is refused too: at degree 2 that space is always 1.
ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class OrbitReport:
    """Result of one orbit enumeration.

    ``truncated`` means the cap was hit while unexplored states remained, in
    which case ``orbit_size == cap``.  ``members`` is kept only when
    requested; each member is a factor tuple (the search's packed int states
    never leave this module).
    """

    seed: Factorization
    orbit_size: int
    truncated: bool
    members: Optional[frozenset[State]] = None


# A window is _SPAN + 1 consecutive slots, which hold _SPAN pairs.  Window j
# starts at slot j * _SPAN, so consecutive windows share one slot and each
# pair lies in exactly one window.  At 3 bits a code a window is a 99-bit int.
_SPAN = 32


class _MoveTable:
    """Factor codes, packed states and coded moves for orbit searches.

    Code 0 is the identity; codes 1, 2, ... name transpositions in the order
    the searches meet them.  Moves never leave a component, so every code is
    an edge among the seeds' ``points`` points, and ``bits``, the bit length
    of the number of such edges (at least 1), holds any code.  A state packs
    ``slots`` codes into one int, slot k in bits ``[k * bits, (k + 1) * bits)``.

    ``deltas[here]`` lists, for the two-slot value ``here`` of an adjacent
    pair, what a move adds to that value: the forward result, then the
    inverse result, without a result equal to ``here`` or to the forward
    one.  Shifted left by ``k * bits`` it is what the move adds to a state at
    slot k.  Entries are filled by `move_pair` on first use, so the table
    grows with the code pairs the searches meet and never with the degree.
    """

    def __init__(self, points: int, slots: int):
        edges = points * (points - 1) // 2
        self.bits = max(1, edges.bit_length())  # a seed of identities: 1
        self.slots = slots
        self.factors: list[Factor] = [None]
        self.codes: dict[Factor, int] = {None: 0}
        self.deltas: dict[int, tuple[int, ...]] = {}

    def encode(self, factor: Factor) -> int:
        code = self.codes.get(factor)
        if code is None:
            code = self.codes[factor] = len(self.factors)
            self.factors.append(factor)
        return code

    def pack(self, factors: State) -> int:
        """The state of ``factors``, a tuple of ``slots`` factors."""
        codes = list(map(self.encode, factors))
        bits = self.bits

        def join(lo: int, hi: int) -> int:
            # halving keeps every shift and OR on a value of its own size
            if hi - lo <= _SPAN:
                value = 0
                for code in reversed(codes[lo:hi]):
                    value = value << bits | code
                return value
            mid = (lo + hi) // 2
            return join(lo, mid) | join(mid, hi) << (mid - lo) * bits

        return join(0, len(codes))

    def windows(self, state: int) -> list[int]:
        """``state`` cut into its windows (see `_SPAN`), in slot order: one
        window up to _SPAN + 1 slots, in O(m log m) by halving above that."""
        bits, out = self.bits, []

        def split(value: int, slots: int) -> None:
            count = (slots - 2) // _SPAN + 1  # windows in these slots
            if count <= 1:
                out.append(value)
                return
            left = count // 2 * _SPAN
            split(value & ((1 << (left + 1) * bits) - 1), left + 1)
            split(value >> left * bits, slots - left)

        split(state, self.slots)
        return out

    def decode(self, state: int) -> State:
        factors, bits = self.factors, self.bits
        mask = (1 << bits) - 1
        windows = self.windows(state)
        # every window but the last leaves its shared slot to the next
        last = self.slots - _SPAN * (len(windows) - 1)
        full = range(0, (_SPAN + 1) * bits, bits)
        out = [factors[w >> k & mask] for w in windows[:-1] for k in full[:-1]]
        out += [factors[windows[-1] >> k & mask] for k in full[:last]]
        return tuple(out)

    def fill(self, here: int) -> tuple[int, ...]:
        bits = self.bits
        s, t = here & ((1 << bits) - 1), here >> bits
        results: list[int] = []
        for forward in (True, False):
            x, y = move_pair(self.factors[s], self.factors[t], forward)
            value = self.encode(x) | self.encode(y) << bits
            if value != here and value not in results:
                results.append(value)
        deltas = self.deltas[here] = tuple(value - here for value in results)
        return deltas


def _expand(
    state: int,
    table: _MoveTable,
    visited: set[int],
    order: list[int],
    cap: int,
) -> bool:
    """Add the unvisited states one move from ``state`` to ``visited`` and
    ``order``: slots ascending, forward before inverse.  Returns True when
    a new state is met with ``cap`` states already known.

    Each pair is read from its window, a small int; only a move result costs
    a pass over the whole state.  A skipped move result equals ``state`` or
    the slot's forward result, so it is visited already and skipping it
    changes no report.
    """
    deltas, bits = table.deltas, table.bits
    pair_mask = (1 << 2 * bits) - 1
    pairs = table.slots - 1
    shift = 0  # k * bits at slot k
    # a state of at most _SPAN + 1 slots is its own window: skipping the
    # split there saves about a fifth of the search's time
    for j, window in enumerate(table.windows(state) if pairs > _SPAN else (state,)):
        for _ in range(min(_SPAN, pairs - j * _SPAN)):
            here = window & pair_mask
            try:
                moves = deltas[here]
            except KeyError:
                moves = table.fill(here)
            for delta in moves:
                nxt = state + (delta << shift)
                if nxt in visited:
                    continue
                if len(visited) == cap:
                    return True
                visited.add(nxt)
                order.append(nxt)
            window >>= bits
            shift += bits
    return False


def _search(state: int, table: _MoveTable, cap: int) -> tuple[set[int], bool]:
    """BFS closure of the packed ``state`` under elementary moves: the
    visited states, and whether the search stopped at ``cap`` states with
    more to explore."""
    _require_int(cap, "cap must be positive", 1)
    visited = {state}
    order = [state]  # BFS order: the loop below reads it as it grows
    for state in order:
        if _expand(state, table, visited, order, cap):
            return visited, True
    return visited, False


def enumerate_orbit(
    factorization: Factorization,
    cap: int = DEFAULT_CAP,
    keep_members: bool = False,
) -> OrbitReport:
    """BFS closure of a factorization under elementary moves.

    States are deduplicated by their literal normalized factor tuple, which
    the search packs into one int (see `_MoveTable`); members are decoded
    back to factor tuples only for ``keep_members``.  The search stops once
    ``cap`` distinct states are known and more remain.

    >>> enumerate_orbit(Factorization(3, [(1, 2), (1, 2)])).orbit_size
    1
    >>> enumerate_orbit(Factorization(3, [(1, 2), (2, 3)])).orbit_size
    3
    """
    _require_type(factorization, Factorization, "factorization")
    factors = factorization.factors
    points = {p for factor in factors if factor is not None for p in factor}
    table = _MoveTable(len(points), len(factors))
    visited, truncated = _search(table.pack(factors), table, cap)
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
    for factors in _identity_tuples(degree, length):
        yield Factorization._trusted(degree, factors)


def _identity_tuples(degree: int, length: int) -> Iterator[State]:
    """The factor tuples of enumerate_identity_factorizations, in its order
    and with its argument checks."""
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
        yield ()
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
            yield tuple(transpositions[c] for c in choice)
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

    The enumeration's factor tuples stream through one move table over all
    ``degree`` points, and each tuple no earlier orbit reached seeds a BFS
    orbit; members are in the enumeration too, so none is decoded, and only
    a seed is wrapped as a Factorization.  Orbits are bucketed by their
    common signature, signatures ordered by first appearance in the
    lexicographic enumeration.  A truncated orbit (cap hit) keeps its flag
    set, so callers can tell an exact partition from a bounded one.

    The main theorem predicts exactly one orbit per signature.
    """
    table: Optional[_MoveTable] = None
    seen: set[int] = set()
    buckets: dict[ComponentSignature, list[OrbitReport]] = {}
    for factors in _identity_tuples(degree, length):
        if table is None:  # the enumeration has checked degree and length
            table = _MoveTable(degree, length)
        state = table.pack(factors)
        if state in seen:
            continue
        visited, truncated = _search(state, table, cap)
        seen |= visited
        seed = Factorization._trusted(degree, factors)
        buckets.setdefault(signature(seed), []).append(
            OrbitReport(seed=seed, orbit_size=len(visited), truncated=truncated)
        )
    return list(buckets.items())
