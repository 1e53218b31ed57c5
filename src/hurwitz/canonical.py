"""Equivalence decision and the constructive canonicalizer.

Deciding equivalence is cheap: two identity factorizations of equal degree
and length are connected by elementary moves exactly when their component
signatures coincide.  The constructive half actually exhibits the moves: it
rewrites any identity factorization into a canonical shape and logs every
elementary move along the way, so the claim can be replayed and checked.

Canonical shape: all identity factors first, then one block per component in
ascending order of smallest vertex.  A component with ascending vertices
``v_0 < v_1 < ... < v_{l-1}`` and weight ``w`` becomes the doubled path
``(v_0,v_1)^2 (v_1,v_2)^2 ... (v_{l-2},v_{l-1})^2`` followed by
``w - 2(l-1)`` further copies of ``(v_0,v_1)``.

The planner never searches.  It is built from a few verified rewrites, each
a ``_Planner`` method:

* ``carry``: a factor travels left through inverse moves or right through
  forward moves, its own value preserved, conjugating what it passes;
  carried onto a factor for an adjacent graph edge, it merges the two into
  a factor for the shortcut edge, shortening a path by one;
* ``group``: each factor is carried left past the factors of later
  component blocks in front of it; factors of different components are
  disjoint and identity factors commute with all, so each such carry only
  swaps, and the factors sort stably into identity-first blocks;
* ``pull``: one BFS of the window graph from a target vertex picks the
  nearest of the given source vertices and fixes a shortest path between
  them; its first two edges merge d - 1 times, each merge landing the
  shortcut at the smaller slot when that leaves the rest of the path
  intact, then the edge is carried to the front (a source whose edge the
  window already holds is only carried, and no BFS runs);
* ``climb``: a pair (v_i, v_k) pulled twice behind path cells 0 .. k - 2
  becomes path cell k - 1, (v_{k-1}, v_k), in one fixed run of
  4(k - 2 - i) + 3 moves, so the path on l vertices costs its pulls plus
  at most (2l - 3)(l - 2) climb moves;
* ``walk_pair``: a leftover doubled pair is conjugated by one path cell
  after another, so its endpoints descend the path, by the five four-move
  rewrites of two adjacent doubled cells below (``_SWAP`` and the four of
  ``_CONJUGATE``), which hold for any two transpositions.  The pair crosses
  a cell while conjugating whenever its next cell lies beyond, so each step
  costs one rewrite, and it swaps past equal cells for free.  No rewrite
  changes a path cell, so the walk predicts every move and every value of
  the pair up front and applies the whole walk as one run of moves.

The leftover weight of a component is walked down to ``(v_0,v_1)`` one
doubled pair at a time, every pair the same way, until only ``(v_0,v_1)``
copies remain behind the path; those stay where they are.  Each finished
pair ends next to path cell 0 and is parked there, in front of the rest of
the path, so no pair ever slides past another leftover pair; the parked
block moves behind the path once, at the end.  The last pair walks straight
on behind the path.

Every intermediate state is produced by a legal move, so the final move log
is itself the equivalence certificate.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import HurwitzError, InternalError, PreconditionError
from .factorization import (
    Factor,
    Factorization,
    HurwitzMove,
    MoveCertificate,
    _Pair,
    _move,
    _replay,
    _require_int,
    _require_type,
    apply_certificate,
    conjugate_factor,
    format_factorization,
)
from .graph import ComponentSignature, _require_signature, format_signature, signature


@dataclass(frozen=True)
class CanonicalResult:
    """A rewritten factorization plus the move log that produced it.

    Replaying ``certificate`` over the planner's input yields ``canonical``
    exactly.
    """

    canonical: Factorization
    certificate: MoveCertificate


def hurwitz_equivalent(f1: Factorization, f2: Factorization) -> bool:
    """Decide whether two identity factorizations are move-connected.

    The inputs must live in the same symmetric group, have the same number
    of factors, and both multiply to the identity; anything else is outside
    the theorem's hypotheses and raises an error rather than returning
    false.

    >>> a = Factorization(3, [(1, 2), (1, 2)])
    >>> b = Factorization(3, [(1, 3), (1, 3)])
    >>> hurwitz_equivalent(a, a)
    True
    >>> hurwitz_equivalent(a, b)
    False
    """
    _require_type(f1, Factorization, "factorization")
    _require_type(f2, Factorization, "factorization")
    if f1.degree != f2.degree:
        raise PreconditionError(
            f"degree mismatch: {f1.degree} vs {f2.degree}; equivalence is "
            "only defined within one symmetric group"
        )
    if len(f1) != len(f2):
        raise PreconditionError(
            f"length mismatch: {len(f1)} vs {len(f2)}; equivalence requires "
            "the same number of factors"
        )
    _require_identity(f1, "equivalence")
    _require_identity(f2, "equivalence")
    return signature(f1) == signature(f2)


def _require_identity(factorization: Factorization, what: str) -> None:
    """Raise PreconditionError unless ``factorization`` is a Factorization
    whose product is the identity."""
    _require_type(factorization, Factorization, "factorization")
    if not factorization.is_identity_factorization():
        raise PreconditionError(f"{what} requires an identity product")


def canonical_shape(sig: ComponentSignature) -> Factorization:
    """Construct the canonical factorization for a signature directly.

    This is the target the planner must reach; building it independently
    from the signature gives a cross-check that costs O(m).  A signature
    that no factorization has, or that `signature` never builds, raises
    PreconditionError naming it: a negative identity count, a factor count
    other than the identities plus the weights or above ``sys.maxsize``, a
    weight that is odd or below 2(|V| - 1), or points that are not ints
    ascending within each component, the components ascending by smallest
    point and none sharing one.  Every check runs before a list is built.
    """
    _require_signature(sig)
    def fail(stage: str, problem: str) -> PreconditionError:
        return PreconditionError(
            f"{stage}: {problem}; signature {format_signature(sig)}"
        )

    seen: set[int] = set()
    smallest = 0
    leftovers = []
    for vertices, weight in sig.components:
        if (
            set(map(type, vertices)) != {int}
            or vertices[0] <= smallest
            or any(map(operator.ge, vertices, vertices[1:]))
            or not seen.isdisjoint(vertices)
        ):
            raise fail(
                "points",
                f"component {vertices}: points must be ints from 1, ascending, "
                f"past the previous component's smallest and in no other",
            )
        smallest = vertices[0]
        seen.update(vertices)
        leftovers.append(_leftover(vertices, weight, fail))
    identities = sig.identity_factor_count
    weights = sum(weight for _, weight in sig.components)
    if identities < 0 or identities + weights != sig.total_factors:
        raise fail(
            "counts",
            f"{sig.total_factors} factors are not {identities} identities "
            f"and {weights} of component weight",
        )
    if sig.total_factors > sys.maxsize:
        raise fail(
            "counts", f"{sig.total_factors} factors are more than a list holds"
        )
    factors: list[Factor] = [None] * identities
    for (vertices, _), leftover in zip(sig.components, leftovers):
        for t in range(len(vertices) - 1):
            factors += [(vertices[t], vertices[t + 1])] * 2
        factors += [(vertices[0], vertices[1])] * leftover
    return Factorization(sig.degree, factors)


def _leftover(
    vertices: Sequence[int], weight: int, fail: Callable[[str, str], HurwitzError]
) -> int:
    """Weight beyond the doubled path; unless it is even and non-negative,
    raises ``fail("leftover", problem)``, which names the caller's input."""
    leftover = weight - 2 * (len(vertices) - 1)
    if leftover < 0 or leftover % 2:
        raise fail(
            "leftover",
            f"component {set(vertices)} with weight {weight}: leftover "
            f"{leftover} is not a non-negative even count",
        )
    return leftover


# The four-move rewrites of the doubled cells ``a a b b`` at slots p .. p + 3,
# as the codes of their moves in order, p taken as 0 (see _Planner.run).
# Each holds for every two transpositions x, y: equal, sharing a point or
# disjoint.  z = x y x throughout.


def _codes(moves: str) -> tuple[int, ...]:
    return tuple(2 * int(m[2:]) + (m[0] == "I") for m in moves.split())


_SWAP = _codes("F@1 F@0 F@2 F@1")  # x x y y -> y y x x
_SHIFT_RIGHT = _codes("F@1 F@2 F@2 F@1")  # x x y y -> x x z z
_SHIFT_LEFT = _codes("F@1 F@0 F@0 F@1")  # y y x x -> z z x x
_CROSS_RIGHT = _codes("F@1 F@0 I@2 I@1")  # y y x x -> x x z z
_CROSS_LEFT = _codes("F@1 F@2 I@0 I@1")  # x x y y -> z z x x

# Conjugating a walked pair by a path cell, keyed by (the pair starts right
# of the cell, the pair ends right of it).  Each leaves the path cell x as
# it is and turns the pair y into x y x.
_CONJUGATE = {
    (False, False): _SHIFT_LEFT,
    (False, True): _CROSS_RIGHT,
    (True, True): _SHIFT_RIGHT,
    (True, False): _CROSS_LEFT,
}


def _slide(
    p: int, cells: list[_Pair], pair: _Pair, g: int, t: int
) -> list[tuple[int, tuple[int, ...]]]:
    """The rewrites, as (slot, codes), that swap the pair from gap g to gap
    t of the doubled path cells at slot p: a _SWAP at slot p + 2k for each
    path cell k it passes, cells[k], unless that equals the pair, since
    swapping equal cells changes nothing."""
    passed = range(g, t) if t > g else range(g - 1, t - 1, -1)
    return [(p + 2 * k, _SWAP) for k in passed if cells[k] != pair]


def _index(factors: list[_Pair], u: int, v: int, lo: int, hi: int) -> int:
    """The first slot in [lo, hi) holding the edge {u, v}, or -1."""
    try:
        return factors.index((u, v) if u < v else (v, u), lo, hi)
    except ValueError:
        return -1


class _Planner:
    """Mutable list of endpoint pairs plus the move log that shaped it.

    All mutation goes through run(): each carry, climb and walk is one run
    of moves, applied to the list by the move kernel and appended to the log
    as the same list, so the log is exactly what was applied.  The log
    shares one immutable move per (direction, slot), taken from _move the
    first time that slot moves in that direction: the process's own move
    below slot 1,024, and above it one made for this planner.
    """

    def __init__(self, factorization: Factorization):
        self.source = factorization
        self.degree = factorization.degree
        self.factors = factorization._pairs()
        self.moves: list[HurwitzMove] = []
        # move code 2k is forward at slot k, 2k + 1 inverse at slot k
        self._shared: list[HurwitzMove | None] = [None] * (2 * len(self.factors))

    def result(self) -> CanonicalResult:
        return CanonicalResult(
            canonical=Factorization._trusted(self.degree, self.factors),
            certificate=tuple(self.moves),
        )

    def _fail(self, stage: str, problem: str) -> InternalError:
        """An InternalError naming the stage and the planner's input, so
        ``hurwitz canon`` on that text reproduces it."""
        return InternalError(
            f"{stage}: {problem}; this is a planner bug; input "
            f"{format_factorization(self.source)}"
        )

    # -- elementary moves --------------------------------------------------

    def run(self, codes: Sequence[int]) -> None:
        """Apply and log one run of shared moves, the moves with the given
        codes.  A move is always true, so ``or`` makes only the missing
        ones."""
        shared = self._shared
        moves = [shared[c] or self._new_move(c) for c in codes]
        _replay(self.factors, moves)
        self.moves += moves

    def _new_move(self, code: int) -> HurwitzMove:
        move = self._shared[code] = _move(code)
        return move

    # -- verified composite rewrites ---------------------------------------

    def carry(self, j: int, dest: int) -> None:
        """Move the factor at j to dest, its value preserved: forward moves
        when dest > j, inverse moves when dest < j.  Every factor it passes
        is conjugated by it, so carrying it onto a neighbour merges the two.
        """
        if dest > j:
            self.run(range(2 * j, 2 * dest, 2))
        else:
            self.run(range(2 * j - 1, 2 * dest - 1, -2))

    def walk_pair(
        self, lo: int, gap: int, steps: Sequence[tuple[int, _Pair]], end: int
    ) -> None:
        """Conjugate the doubled pair at gap by the path cells of steps, in
        one run of moves.

        The pair at gap g sits between path cells g - 1 and g, so path cell
        c is the cell at slot lo + 2c for c < g and one cell further right
        otherwise.  For each step (c, expected) the pair swaps up to cell c
        on the side it is on and is conjugated by it, crossing it when the
        next step's cell, or the end gap, lies beyond it; the pair must then
        equal expected.  Finally it swaps to gap end.

        Swaps and conjugations keep every path cell, so the walk knows each
        move and each value of the pair before it moves anything: it checks
        every expected value against x y x, x the path cell and y the pair,
        applies the whole walk as one run, and checks that the walked cells
        hold the path cells with the pair at gap end.
        """
        f = self.factors
        cs = [c for c, _ in steps]
        q = lo + 2 * max(gap, end, *[c + 1 for c in cs]) + 2  # walks [lo, q)
        region = f[lo:q]
        pair = region[2 * gap]
        cells = region[: 2 * gap : 2] + region[2 * gap + 2 :: 2]
        rewrites = []  # (slot, codes relative to it)
        for i, ((c, expected), nxt) in enumerate(zip(steps, [*cs[1:], end])):
            right, stay_right = gap > c, nxt > c
            rewrites += _slide(lo, cells, pair, gap, c + right)
            rewrites.append((lo + 2 * c, _CONJUGATE[right, stay_right]))
            pair = conjugate_factor(cells[c], pair)
            if pair != expected:
                raise self._fail(
                    "walk",
                    f"step {i} by path cell {c} of the cells at slot {lo} "
                    f"gives {pair}, expected {expected}",
                )
            gap = c + stay_right
        rewrites += _slide(lo, cells, pair, gap, end)
        self.run([2 * s + r for s, codes in rewrites for r in codes])
        cells.insert(end, pair)
        walked = f[lo:q]
        if walked[::2] != cells or walked[1::2] != cells:
            raise self._fail(
                "walk",
                f"slots [{lo},{q}) do not hold the path cells with the pair "
                f"at gap {end}",
            )

    def climb(self, lo: int, i: int, k: int) -> None:
        """Turn the pair (v_i, t) doubled behind path cells 0 .. k - 2 at
        slot lo into (v_{k-1}, t) doubled, i < k - 1, in 4(k - 2 - i) + 3
        moves on slots lo + 2i + 1 .. lo + 2k - 1.  The up run U, F at each
        odd offset s and I at each even one in 2i + 1 .. 2k - 4, leaves
        x = (v_i, v_{k-1}) in front of the pair y y; F I F there turns x y y
        into x z z, z = x y x; U undone then restores the cells it touched.
        """
        top = lo + 2 * k - 3
        # codes 2s and 2s + 3 are F@s and I@(s + 1); code c ^ 1 undoes c
        up = [c for s in range(lo + 2 * i + 1, top, 2) for c in (2 * s, 2 * s + 3)]
        self.run([*up, 2 * top, 2 * top + 3, 2 * top, *[c ^ 1 for c in up[::-1]]])

    # -- the pull rewrite ---------------------------------------------------

    def _bfs(
        self, edges: set[_Pair], start: int
    ) -> tuple[dict[int, set[int]], dict[int, int]]:
        """The graph of the window's distinct edges and BFS distances from
        start."""
        adj: dict[int, set[int]] = {}
        for a, b in edges:
            if not a:
                raise self._fail("pull", "an identity factor in the window")
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        dist = {start: 0}
        queue = [start]
        for v in queue:
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return adj, dist

    def pull(self, lo: int, hi: int, sources: Sequence[int], b: int) -> int:
        """Make factors[lo] equal (a, b), for a source a nearest to b in the
        window graph, using moves inside [lo, hi) only; returns a.

        Requires a path from b to some source in the window graph.  A
        source whose edge the window holds needs only the carry to lo; the
        smallest such source is the nearest, and no BFS runs.  Otherwise
        one BFS from b picks the nearest source a (ties go to the smallest)
        and fixes the lexicographically smallest shortest path
        a = u0, u1, ..., ud = b.  Each merge carries the factors (u0,u1) and
        (u1,u2) onto each other, which turns (u1,u2) into the shortcut
        (u0,u2), and drops u1 from the path.  A carried factor conjugates
        only the passed factors that touch its own points, and the path is
        simple, so carrying (u0,u1) leaves every later path edge intact.
        When (u0,u1) lies left of (u1,u2), (u1,u2) is carried left instead,
        so the shortcut lands nearer lo; that carry conjugates by u2, so it
        is taken only when a copy of (u2,u3) lies outside the carried span
        or the path ends at u2.  Either way the path loses exactly one edge:
        d - 1 merges, then one carry of (a, b) to lo.
        """
        f = self.factors
        if len(sources) == 1:
            j = _index(f, sources[0], b, lo, hi)
            if j >= 0:
                self.carry(j, lo)
                return sources[0]
        edges = set(f[lo:hi])
        # a source adjacent to b is at distance 1, the nearest there is
        near = [v for v in sources if ((v, b) if v < b else (b, v)) in edges]
        if near:
            a = min(near)
            self.carry(self._slot(a, b, lo, hi), lo)
            return a
        adj, dist = self._bfs(edges, b)
        reached = [(dist[v], v) for v in sources if v in dist]
        if not reached:
            raise self._fail(
                "pull",
                f"no path from {b} to any of {{{','.join(map(str, sources))}}} "
                f"in window [{lo},{hi})",
            )
        a = min(reached)[1]
        path = [a]
        while path[-1] != b:
            u = path[-1]
            path.append(min(w for w in adj[u] if dist[w] == dist[u] - 1))
        while len(path) > 2:
            j1 = self._slot(path[0], path[1], lo, hi)
            j2 = self._slot(path[1], path[2], lo, hi)
            if j1 < j2 and (
                len(path) == 3
                or _index(f, path[2], path[3], lo, j1) >= 0
                or _index(f, path[2], path[3], j2 + 1, hi) >= 0
            ):
                self.carry(j2, j1)
            else:
                self.carry(j1, j2)
            del path[1]
        self.carry(self._slot(a, b, lo, hi), lo)
        return a

    def _slot(self, u: int, v: int, lo: int, hi: int) -> int:
        """The first slot in [lo, hi) holding the edge {u, v}; a window
        without one is a planner bug."""
        j = _index(self.factors, u, v, lo, hi)
        if j < 0:
            raise self._fail(
                "pull", f"no copy of edge {{{u},{v}}} in window [{lo},{hi})"
            )
        return j

    # -- grouping ------------------------------------------------------------

    def group(self, sig: ComponentSignature) -> None:
        """Stable-sort factors into identity-first component blocks, in the
        order of ``sig.components``.

        Each factor in turn is carried left past the factors of later blocks
        in front of it.  Factors from different components are disjoint, and
        identity factors commute with everything, so a carry leaves every
        factor it passes unchanged.  One move per inversion, and the scan
        finds each carry's destination one passed slot at a time: O(m +
        moves).
        """
        block = {v: i for i, (vs, _) in enumerate(sig.components) for v in vs}
        keys = [block.get(a, -1) for a, _ in self.factors]
        for j in range(len(keys)):
            key = keys[j]
            dest = j
            while dest and keys[dest - 1] > key:
                dest -= 1
            if dest < j:
                passed = self.factors[dest:j]
                self.carry(j, dest)
                if self.factors[dest + 1 : j + 1] != passed:
                    raise self._fail(
                        "group",
                        f"carrying slot {j} to {dest} changed a passed factor",
                    )
                keys[dest + 1 : j + 1] = keys[dest:j]
                keys[dest] = key

    # -- per-block canonicalization -------------------------------------------

    def _build_path(self, lo: int, hi: int, vertices: Sequence[int]) -> None:
        """Stage 1: produce the doubled ascending path cells.

        The block [lo, hi) must hold the transposition factors of a single
        connected component on the ascending ``vertices`` whose subproduct
        is the identity; both are consequences of grouping an identity
        factorization.  Cell k - 1 is two checked pulls of (v_i, v_k), v_i
        the nearest spanned vertex, and a checked climb of 4(k - 2 - i) + 3.
        """
        f = self.factors
        _leftover(vertices, hi - lo, self._fail)
        for k in range(1, len(vertices)):
            t = vertices[k]
            p = lo + 2 * k  # the pulled pair goes to slots p - 2 and p - 1
            vs = self.pull(p - 2, hi, vertices[:k], t)
            self.pull(p - 1, hi, (vs,), t)
            if f[p - 2 : p] != [(vs, t)] * 2:
                raise self._fail(
                    "path", f"slots [{p - 2},{p}) do not hold {(vs, t)} twice"
                )
            i = vertices.index(vs)
            if i < k - 1:
                self.climb(lo, i, k)
            q = lo + 2 * i
            cells = [(vertices[c], vertices[c + 1]) for c in range(i, k)]
            if f[q:p:2] != cells or f[q + 1 : p : 2] != cells:
                raise self._fail(
                    "climb",
                    f"slots [{q},{p}) do not hold path cells {i}..{k - 1} twice",
                )

    def _normalize_tail(
        self, lo: int, hi: int, vertices: Sequence[int]
    ) -> None:
        """Stage 2: convert the leftover weight into (v0, v1) copies.

        Every leftover pair takes one path.  Once everything behind the path
        is a (v0, v1) copy, those copies stay where they are and the stage
        ends, so a tail that is already canonical costs nothing.  Otherwise
        the first factor behind the path is doubled by a pull, and the pair
        is walked down to (v0, v1), one rewrite per path cell it is
        conjugated by (none when it already is (v0, v1)).  The walk parks
        the pair in front of path cell 1; at the end the parked block moves
        behind the path once, 4(l - 2) moves per parked pair, l being the
        number of vertices.  No pair pays for the pairs finished before it,
        so for a fixed degree the tail grows linearly in m.  A (v0, v1) pair
        met before the last other factor costs 8(l - 2): its swap in front
        of path cell 1 plus the block move.  The pair after which only
        (v0, v1) copies remain walks straight behind the path, 4(l - 2)
        moves fewer than parking it.
        """
        f = self.factors
        v01 = (vertices[0], vertices[1])
        path_cells = len(vertices) - 1
        parked = 0  # finished pairs between path cells 0 and 1
        u0 = lo + 2 * path_cells  # the first slot behind the path
        done = not any(map(v01.__ne__, f[u0:hi]))
        while not done:
            factor = f[u0]
            a, b = factor
            if not a:
                raise self._fail("tail", f"an identity factor at slot {u0}")
            # double it: the rest of the unprocessed region multiplies to
            # (a,b), so it connects a to b and a second copy can be pulled
            self.pull(u0 + 1, hi, (a,), b)
            if f[u0 + 1] != factor:
                raise self._fail(
                    "tail", f"slot {u0 + 1} does not double {factor} at slot {u0}"
                )
            # the walk touches only slots left of u0 + 2, so when this pair
            # is not the last, the next one needs no fresh check; the scan
            # stops at the first other factor and copies nothing
            done = all(f[k] == v01 for k in range(u0 + 2, hi))
            i, j = vertices.index(a), vertices.index(b)
            # lower the far endpoint until the pair spans (v_i, v_{i+1}),
            # then cascade both endpoints down to (v_0, v_1)
            steps = [
                (c, (vertices[i], vertices[c])) for c in range(j - 1, i, -1)
            ]
            for t in range(i, 0, -1):
                steps.append((t - 1, (vertices[t - 1], vertices[t + 1])))
                steps.append((t, (vertices[t - 1], vertices[t])))
            # seen from the walk, path cell 0 is the last (v0, v1) copy in
            # front of path cell 1
            self.walk_pair(
                lo + 2 * parked, path_cells, steps, path_cells if done else 1
            )
            if not done:
                parked += 1
                u0 += 2
        # each parked pair, the last first, walks without steps past path
        # cells 1 .. l - 2
        for q in range(parked, 0, -1):
            self.walk_pair(lo + 2 * q, 0, (), path_cells - 1)


def pull_edge_to_front(
    factorization: Factorization, v1: int, v2: int
) -> CanonicalResult:
    """Rewrite so the first factor is (v1, v2), with the move log.

    The factors must all be transpositions forming a single connected
    component that contains both endpoints.

    >>> f = Factorization(3, [(1, 2), (2, 3)])
    >>> r = pull_edge_to_front(f, 1, 3)
    >>> r.canonical.factors[0]
    (1, 3)
    """
    _require_type(factorization, Factorization, "factorization")
    for v in (v1, v2):
        _require_int(v, "a vertex must be a positive int", 1)
    if v1 == v2:
        raise PreconditionError(f"endpoints must differ, got {v1} twice")
    if 0 in factorization._lo:
        raise PreconditionError("identity factors are not allowed here")
    sig = signature(factorization)
    if len(sig.components) != 1:
        raise PreconditionError(
            f"factors must form a single connected component, found "
            f"{len(sig.components)}"
        )
    vertices = sig.components[0][0]
    for v in (v1, v2):
        if v not in vertices:
            raise PreconditionError(f"vertex {v} is not in the component")
    planner = _Planner(factorization)
    planner.pull(0, len(planner.factors), (v1,), v2)
    return planner.result()


def group_components(factorization: Factorization) -> CanonicalResult:
    """Sort factors into identity-first, component-ordered blocks.

    Identity factors move to the far left; transpositions gather into
    contiguous blocks, one per component, ordered by smallest vertex, with
    the original relative order kept inside each block.  Every move is a
    pure swap of commuting factors.
    """
    _require_identity(factorization, "grouping")
    planner = _Planner(factorization)
    planner.group(signature(factorization))
    return planner.result()


def canonical_form(factorization: Factorization) -> CanonicalResult:
    """Rewrite an identity factorization into canonical shape.

    The certificate replays the input to the output exactly.  The result is
    cross-checked against the shape computed directly from the signature; a
    mismatch means a planner bug and raises an internal error rather than
    being corrected silently.

    >>> f = Factorization(3, [(2, 3), (2, 3), (1, 2), (1, 2)])
    >>> canonical_form(f).canonical.factors
    ((1, 2), (1, 2), (2, 3), (2, 3))
    """
    _require_identity(factorization, "canonical form")
    sig = signature(factorization)
    planner = _Planner(factorization)
    planner.group(sig)
    lo = sig.identity_factor_count
    for vertices, weight in sig.components:
        planner._build_path(lo, lo + weight, vertices)
        planner._normalize_tail(lo, lo + weight, vertices)
        lo += weight
    result = planner.result()
    if result.canonical != canonical_shape(sig):
        raise planner._fail(
            "cross-check", "output does not match the canonical shape"
        )
    if apply_certificate(factorization, result.certificate) != result.canonical:
        raise planner._fail("replay", "certificate does not replay to the output")
    return result
