"""Brute-force ground truth for small instances.

Two capabilities: breadth-first enumeration of a factorization's orbit under
elementary moves, and exhaustive lexicographic enumeration of all
transposition factorizations of the identity at a given degree and length.
Together they validate, at desk scale, that orbits coincide exactly with
signature classes; the census streams the enumeration through one move table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import PreconditionError
from .factorization import (
    DEFAULT_CAP,
    MAX_DEGREE,
    Factor,
    Factorization,
    _as_factors,
    _Pair,
    _require_int,
    _require_type,
    conjugate_factor,
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


# A state is its runs of _SPAN slots joined little-endian; _SPAN is a multiple
# of 8, so a run is _SPAN * bits / 8 whole bytes.  Window j is run j and the
# next slot: _SPAN + 1 slots holding _SPAN pairs, so consecutive windows share
# one slot and each pair lies in exactly one window (99 bits at 3 bits a code).
_SPAN = 32


class _MoveTable:
    """Factor codes, packed states and coded moves for orbit searches.

    A factor is an endpoint pair.  Code 0 is the identity ``(0, 0)``; codes
    1, 2, ... name transpositions in the order the searches meet them.
    Moves never leave a component, so every code is an edge among the
    seeds' ``points`` points, and ``bits``, the bit length of the number of
    such edges (at least 1), holds any code.  A state packs
    ``slots`` codes into one int, slot k in bits ``[k * bits, (k + 1) * bits)``;
    its bytes are its runs of ``run_bytes`` bytes (see `_SPAN`), so packing,
    windowing and decoding each take O(m).

    ``shifted[i][here]`` lists, for the two-slot value ``here`` of the pair
    at slots i and i + 1 of a window, what a move adds to the window: the
    forward result, then the inverse result, without a result equal to
    ``here`` or to the forward one, each shifted left by ``i * bits``.  So
    ``shifted[0]`` holds the unshifted moves, and window j's moves are
    further shifted by ``_SPAN * j * bits``.  Entries are filled by `shift`
    on first use, so the table grows with the code pairs the searches meet
    and never with the degree; it lives on the table, so the searches of a
    census share it.
    """

    def __init__(self, points: int, slots: int):
        edges = points * (points - 1) // 2
        self.bits = max(1, edges.bit_length())  # a seed of identities: 1
        self.run_bytes = _SPAN * self.bits // 8
        self.slots = slots
        self.factors: list[_Pair] = [(0, 0)]
        self.codes: dict[_Pair, int] = {(0, 0): 0}
        self.shifted: list[dict[int, tuple[int, ...]]] = [
            {} for _ in range(min(slots - 1, _SPAN))
        ]

    def encode(self, factor: _Pair) -> int:
        code = self.codes.get(factor)
        if code is None:
            code = self.codes[factor] = len(self.factors)
            self.factors.append(factor)
        return code

    def pack(self, factors: Sequence[_Pair]) -> int:
        """The state of ``factors``, ``slots`` endpoint pairs."""
        codes, bits, runs = list(map(self.encode, factors)), self.bits, []
        for start in range(0, len(codes), _SPAN):
            run = 0
            for code in reversed(codes[start:start + _SPAN]):
                run = run << bits | code
            runs.append(run)
        if len(runs) == 1:  # a short state is its one run, with no bytes
            return runs[0]
        data = b"".join([run.to_bytes(self.run_bytes, "little") for run in runs])
        return int.from_bytes(data, "little")

    def windows(self, state: int) -> list[int]:
        """``state``, of more than one window, cut into its windows (see
        `_SPAN`) in slot order: the bytes of window j from the start of run
        j, masked to _SPAN + 1 slots."""
        count = (self.slots - 2) // _SPAN + 1
        bits, size = self.bits, self.run_bytes
        # window j is in bytes j * size + [0, size + bits)
        data = state.to_bytes(count * size + bits, "little")
        mask = (1 << (_SPAN + 1) * bits) - 1
        return [
            int.from_bytes(data[start:start + size + bits], "little") & mask
            for start in range(0, count * size, size)
        ]

    def decode(self, state: int) -> State:
        """The public factor tuple of ``state``."""
        factors, bits, slots = self.factors, self.bits, self.slots
        mask, size = (1 << bits) - 1, self.run_bytes
        data = state.to_bytes(-(-slots // _SPAN) * size, "little")
        shifts = range(0, min(slots, _SPAN) * bits, bits)  # one run: its slots only
        starts = range(0, len(data), size)
        runs = (int.from_bytes(data[i:i + size], "little") for i in starts)
        pairs = [factors[run >> k & mask] for run in runs for k in shifts]
        return _as_factors(pairs[:slots])

    def shift(self, i: int, here: int) -> tuple[int, ...]:
        """Enter and return ``shifted[i][here]``."""
        deltas = self.shifted[0].get(here)
        if deltas is None:
            factors, bits = self.factors, self.bits
            s, t = factors[here & ((1 << bits) - 1)], factors[here >> bits]
            results: list[int] = []
            # transpositions are involutions, so t^-1 s t is t s t^-1
            for x, y in ((conjugate_factor(s, t), s), (t, conjugate_factor(t, s))):
                value = self.encode(x) | self.encode(y) << bits
                if value != here and value not in results:
                    results.append(value)
            deltas = self.shifted[0][here] = tuple(value - here for value in results)
        shift = i * self.bits
        moves = self.shifted[i][here] = tuple(delta << shift for delta in deltas)
        return moves


# What an orbit search may hold, in bytes.  A state costs 4 B for each 30
# bits of its packed int and about _STATE_BYTES more: the int's header, its
# set entry, its list slot and the allocator's rounding.  The budget holds
# DEFAULT_CAP states of any one-window state: 33 slots of at most 12 bits
# take 166 B.
_SEARCH_BUDGET = 256 << 20
_STATE_BYTES = 110


def _search(state: int, table: _MoveTable, cap: int) -> tuple[list[int], bool]:
    """BFS closure of the packed ``state`` under elementary moves: the
    visited states in BFS order, and whether the search stopped at ``cap``
    states with more to explore.  PreconditionError if more states than
    _SEARCH_BUDGET holds are needed.

    Every state is expanded here, slots ascending, forward before inverse,
    with the table's per-position moves, so a move result costs one add and
    one set lookup (a call per state took about a third of the search's
    time).  A skipped move result equals the state or the slot's forward
    result, so it is visited already and skipping it changes no report.  A
    state of one window is read in place; a longer one is cut into its
    windows, and window j's moves are shifted further by ``base``.
    """
    size = _STATE_BYTES + 4 * -(-table.slots * table.bits // 30)
    limit = min(cap, max(1, _SEARCH_BUDGET // size))
    visited = {state}
    order = [state]  # BFS order: the loops below read it as it grows
    bits, slots = table.bits, table.shifted
    pair_mask = (1 << 2 * bits) - 1
    if table.slots > _SPAN + 1:
        pairs = table.slots - 1
        # the positions of each window: _SPAN pairs, the last what is left
        rows = [slots[:pairs - j] for j in range(0, pairs, _SPAN)]
        for state in order:
            base = 0  # _SPAN * j * bits at window j
            for window, row in zip(table.windows(state), rows):
                shift = 0  # i * bits at position i
                for slot in row:
                    here = window >> shift & pair_mask
                    try:
                        moves = slot[here]
                    except KeyError:
                        moves = table.shift(shift // bits, here)
                    shift += bits
                    for delta in moves:
                        nxt = state + (delta << base)
                        if nxt in visited:
                            continue
                        if len(visited) == limit:
                            return _stopped(order, cap, size)
                        visited.add(nxt)
                        order.append(nxt)
                base += _SPAN * bits
        return order, False
    for state in order:
        shift = 0  # k * bits at slot k
        for slot in slots:
            here = state >> shift & pair_mask
            try:
                moves = slot[here]
            except KeyError:
                moves = table.shift(shift // bits, here)
            shift += bits
            for delta in moves:
                nxt = state + delta
                if nxt in visited:
                    continue
                if len(visited) == limit:
                    return _stopped(order, cap, size)
                visited.add(nxt)
                order.append(nxt)
    return order, False


def _stopped(order: list[int], cap: int, size: int) -> tuple[list[int], bool]:
    """The truncated result of a search that stopped at ``len(order)``
    states; PreconditionError if that is below ``cap``, where the memory
    budget stopped it."""
    if len(order) < cap:
        raise PreconditionError(
            f"orbit search stopped at its memory budget of "
            f"{_SEARCH_BUDGET >> 20} MiB: {len(order)} states of about {size} B "
            f"each; a cap of at most {len(order)} fits"
        )
    return order, True


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
    _require_int(cap, "cap must be positive", 1)
    points = {*factorization._lo, *factorization._hi} - {0}
    table = _MoveTable(len(points), len(factorization))
    order, truncated = _search(table.pack(factorization._pairs()), table, cap)
    return OrbitReport(
        seed=factorization,
        orbit_size=len(order),
        truncated=truncated,
        members=frozenset(map(table.decode, order)) if keep_members else None,
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


def _identity_tuples(degree: int, length: int) -> Iterator[tuple[_Pair, ...]]:
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
    if length % 2:  # each factor flips the product's parity
        return
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
    _require_int(cap, "cap must be positive", 1)
    table: Optional[_MoveTable] = None
    seen: set[int] = set()
    buckets: dict[ComponentSignature, list[OrbitReport]] = {}
    for factors in _identity_tuples(degree, length):
        if table is None:  # the enumeration has checked degree and length
            table = _MoveTable(degree, length)
        state = table.pack(factors)
        if state in seen:
            continue
        order, truncated = _search(state, table, cap)
        seen.update(order)
        seed = Factorization._trusted(degree, factors)
        buckets.setdefault(signature(seed), []).append(
            OrbitReport(seed=seed, orbit_size=len(order), truncated=truncated)
        )
    return list(buckets.items())
