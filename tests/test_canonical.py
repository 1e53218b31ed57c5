"""Equivalence decision, grouping, edge pulling, and the canonicalizer."""

import hashlib
import itertools
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import canonical
from hurwitz.canonical import (
    _Planner,
    canonical_form,
    canonical_shape,
    group_components,
    hurwitz_equivalent,
    pull_edge_to_front,
)
from hurwitz.cli import main
from hurwitz.errors import InternalError, PreconditionError
from hurwitz.factorization import (
    Direction,
    Factorization,
    HurwitzMove,
    apply_certificate,
    apply_move,
    format_certificate,
    format_factorization,
    invert_certificate,
    parse_certificate,
    parse_factorization,
)
from hurwitz.graph import ComponentSignature, signature
from hurwitz.oracle import enumerate_identity_factorizations, enumerate_orbit

F1 = parse_factorization("n=6; [(2,6),(1,4),(1,5),(3,6),(4,5),(1,5),(2,3),(3,6)]")
F2 = parse_factorization("n=6; [(2,6),(1,5),(3,6),(3,6),(2,6),(1,5),(1,4),(1,4)]")
CANONICAL_6 = "n=6; [(1,4),(1,4),(4,5),(4,5),(2,3),(2,3),(3,6),(3,6)]"


def scrambled(f, rng):
    """f after 4m random moves drawn from rng."""
    for _ in range(4 * len(f)):
        d = rng.choice([Direction.FORWARD, Direction.INVERSE])
        f = apply_move(f, HurwitzMove(d, rng.randrange(len(f) - 1)))
    return f


def deep_single_component_block(seed):
    """One component on 6..12 points: a random doubled spanning tree plus
    1..4 extra doubled edges, scrambled by 4m moves.  This reaches long
    path-building walks, far-endpoint lowering and multi-step cascades."""
    rng = random.Random(f"deep-canonical:{seed}")
    n = rng.randint(6, 14)
    points = rng.sample(range(1, n + 1), rng.randint(6, min(n, 12)))
    edges = [(p, rng.choice(points[:i])) for i, p in enumerate(points) if i]
    edges += [rng.sample(points, 2) for _ in range(rng.randint(1, 4))]
    factors = [tuple(sorted(e)) for e in edges for _ in range(2)]
    return scrambled(Factorization(n, factors), rng)


def doubled_random_tree(seed):
    """A doubled random spanning tree on 8..40 points, scrambled by 4m
    moves: the tree shape of the benchmark's certify inputs, all path
    building and no leftover."""
    rng = random.Random(f"doubled-tree:{seed}")
    n = rng.randint(8, 40)
    points = rng.sample(range(1, n + 1), n)
    edges = [tuple(sorted((p, rng.choice(points[:i])))) for i, p in enumerate(points) if i]
    return scrambled(Factorization(n, [e for e in edges for _ in range(2)]), rng)


@st.composite
def scrambled_identity_factorizations(draw):
    """An identity factorization reached by moves from doubled pairs."""
    n = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    doubled = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
    factors = [None] * draw(st.integers(0, 2))
    for p in doubled:
        factors += [p, p]
    f = Factorization(n, factors)
    for _ in range(draw(st.integers(0, 25))):
        k = draw(st.integers(0, len(f) - 2))
        d = draw(st.sampled_from([Direction.FORWARD, Direction.INVERSE]))
        f = apply_move(f, HurwitzMove(d, k))
    return f


@st.composite
def connected_pulls(draw):
    """Transposition factors forming one connected component (a random
    spanning tree on 2..9 points plus random extra edges and copies, in
    random order) and two distinct points of it."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(2, 12)
    points = rng.sample(range(1, n + 1), rng.randint(2, min(n, 9)))
    edges = [(p, rng.choice(points[:i])) for i, p in enumerate(points) if i]
    edges += [tuple(rng.sample(points, 2)) for _ in range(rng.randint(0, 6))]
    factors = edges + rng.choices(edges, k=rng.randint(0, 4))
    rng.shuffle(factors)
    v1, v2 = rng.sample(points, 2)
    return Factorization(n, factors), v1, v2


def distance(factors, a, b):
    """The number of edges on a shortest path from a to b in the graph of
    factors."""
    dist, queue = {a: 0}, [a]
    for v in queue:
        for f in factors:
            if v in f:
                w = f[0] + f[1] - v
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
    return dist[b]


class TestHurwitzEquivalent:
    def test_worked_example_pair(self):
        assert hurwitz_equivalent(F1, F2)

    def test_distinct_components_not_equivalent(self):
        a = Factorization(3, [(1, 2), (1, 2)])
        b = Factorization(3, [(1, 3), (1, 3)])
        assert not hurwitz_equivalent(a, b)

    def test_reflexive(self):
        assert hurwitz_equivalent(F1, F1)

    def test_identity_factor_count_matters(self):
        a = Factorization(3, [(1, 2), (1, 2), None, None])
        b = Factorization(3, [(1, 2), (1, 2), (1, 2), (1, 2)])
        assert not hurwitz_equivalent(a, b)

    def test_degree_mismatch_is_an_error(self):
        a = Factorization(3, [(1, 2), (1, 2)])
        b = Factorization(4, [(1, 2), (1, 2)])
        with pytest.raises(PreconditionError, match="degree"):
            hurwitz_equivalent(a, b)

    def test_length_mismatch_is_an_error(self):
        a = Factorization(3, [(1, 2), (1, 2)])
        b = Factorization(3, [(1, 2), (1, 2), (1, 2), (1, 2)])
        with pytest.raises(PreconditionError, match="length|number of factors"):
            hurwitz_equivalent(a, b)

    def test_non_identity_product_is_an_error(self):
        good = Factorization(3, [(1, 2), (1, 2)])
        bad = Factorization(3, [(1, 2), (2, 3)])
        with pytest.raises(PreconditionError, match="identity"):
            hurwitz_equivalent(good, bad)
        with pytest.raises(PreconditionError, match="identity"):
            hurwitz_equivalent(bad, good)

    def test_agrees_with_orbit_oracle(self):
        fs = list(enumerate_identity_factorizations(3, 4))
        orbits = {}
        for f in fs:
            if f.factors not in orbits:
                report = enumerate_orbit(f, keep_members=True)
                for member in report.members:
                    orbits[member] = f.factors
        for f, g in itertools.product(fs, repeat=2):
            assert hurwitz_equivalent(f, g) == (
                orbits[f.factors] == orbits[g.factors]
            )


class TestCanonicalShape:
    def test_worked_example_signature(self):
        shape = canonical_shape(signature(F1))
        assert format_factorization(shape) == CANONICAL_6

    def test_leftover_copies_go_to_first_edge(self):
        f = Factorization(3, [(1, 3)] * 6)
        assert canonical_shape(signature(f)).factors == ((1, 3),) * 6

    def test_path_plus_leftovers(self):
        f = Factorization(3, [(1, 2), (1, 2), (2, 3), (2, 3), (1, 3), (1, 3)])
        assert canonical_shape(signature(f)).factors == (
            (1, 2), (1, 2), (2, 3), (2, 3), (1, 2), (1, 2),
        )

    def test_identity_factors_lead(self):
        f = Factorization(3, [None, (1, 2), (1, 2), None])
        assert canonical_shape(signature(f)).factors == (
            None, None, (1, 2), (1, 2),
        )

    def test_odd_leftover_names_stage_and_signature(self):
        # a hand-built signature: weight 3 cannot cover a doubled path on
        # three points
        sig = ComponentSignature(3, 3, 0, (((1, 2, 3), 3),))
        with pytest.raises(PreconditionError) as info:
            canonical_shape(sig)
        assert str(info.value) == (
            "leftover: component {1, 2, 3} with weight 3: leftover -1 is not "
            "a non-negative even count; signature n=3; m=3; e=0; [{1,2,3}:3]"
        )

    def test_planner_leftover_names_stage_and_input(self):
        # a block of two factors spanning three points, which grouping an
        # identity factorization never produces
        f = Factorization(3, [(1, 2), (2, 3)])
        with pytest.raises(InternalError) as info:
            _Planner(f)._build_path(0, 2, [1, 2, 3])
        message = str(info.value)
        assert message.startswith(
            "leftover: component {1, 2, 3} with weight 2: leftover -2 is not "
            "a non-negative even count"
        )
        assert parse_factorization(message.rsplit("input ", 1)[1]) == f


def fails_in_pull(monkeypatch):
    # an identity inside the window a pull searches
    f = Factorization(3, [(1, 2), None, (2, 3)])
    return f, lambda: _Planner(f).pull(0, 3, (1,), 3)


def fails_in_tail(monkeypatch):
    # an identity behind a path, where grouping never leaves one
    f = Factorization(3, [(1, 2), (1, 2), None, None])
    return f, lambda: _Planner(f)._normalize_tail(0, 4, [1, 2])


def fails_in_path(monkeypatch):
    # pulls that name the nearest source but move nothing leave (1,3), not
    # (1,2), where path cell 0 is pulled
    f = Factorization(3, [(1, 3), (1, 3), (1, 2), (1, 2)])
    monkeypatch.setattr(_Planner, "pull", lambda self, lo, hi, sources, b: max(sources))
    return f, lambda: canonical_form(f)


def fails_in_climb(monkeypatch):
    # (1,3) is pulled twice behind path cell (1,2), and the climb that would
    # turn it into (2,3) does nothing
    f = Factorization(3, [(1, 3), (1, 3), (1, 2), (1, 2)])
    monkeypatch.setattr(_Planner, "climb", lambda *args: None)
    return f, lambda: canonical_form(f)


def fails_in_lower(monkeypatch):
    # lower plans its run, but the kernel applies none of it
    f = Factorization(3, [(1, 2), (1, 2), (2, 3), (2, 3), (1, 3), (1, 3)])
    monkeypatch.setattr(canonical, "_replay", lambda *args: None)
    return f, lambda: _Planner(f).lower(0, [1, 2, 3], 0, 2, 1)


def fails_in_check(monkeypatch, name):
    # the function canonical_form checks its output against returns another
    # factorization
    f = Factorization(3, [(2, 3), (2, 3), (1, 2), (1, 2)])
    other = Factorization(3, [(1, 3)] * 4)
    monkeypatch.setattr(canonical, name, lambda *args: other)
    return f, lambda: canonical_form(f)


class TestPlannerFailures:
    """Every planner InternalError names its stage and carries its input as
    text that parses back to it; each is reached by a hand-built input or a
    patched step."""

    @pytest.mark.parametrize(
        "stage, make",
        [
            ("pull: an identity factor in the window", fails_in_pull),
            ("tail: an identity factor at slot 2", fails_in_tail),
            ("path: slots [0,2) do not hold (1, 2) twice", fails_in_path),
            ("climb: slots [0,4) do not hold path cells 0..1 twice", fails_in_climb),
            ("tail: slots [0,6) do not hold the path cells with (1, 2) at gap 1",
             fails_in_lower),
            ("cross-check: output does not match the canonical shape",
             lambda mp: fails_in_check(mp, "canonical_shape")),
            ("replay: certificate does not replay to the output",
             lambda mp: fails_in_check(mp, "apply_certificate")),
        ],
        ids=["pull", "tail", "path", "climb", "lower", "cross-check", "replay"],
    )
    def test_names_stage_and_input(self, monkeypatch, stage, make):
        f, call = make(monkeypatch)
        with pytest.raises(InternalError) as info:
            call()
        message = str(info.value)
        assert message.startswith(stage)
        assert parse_factorization(message.rsplit("input ", 1)[1]) == f


def smallest_points(f):
    """Each point of f's graph mapped to the smallest point of its
    component, by flood fill from each point in ascending order."""
    edges = [x for x in f.factors if x is not None]
    label = {}
    for v in sorted({p for e in edges for p in e}):
        if v in label:
            continue
        label[v] = v
        queue = [v]
        for u in queue:
            for a, b in edges:
                if u in (a, b) and a + b - u not in label:
                    label[a + b - u] = v
                    queue.append(a + b - u)
    return label


class TestGroupComponents:
    def test_worked_example(self):
        result = group_components(F1)
        assert format_factorization(result.canonical) == (
            "n=6; [(1,4),(1,5),(4,5),(1,5),(2,6),(3,6),(2,3),(3,6)]"
        )
        assert apply_certificate(F1, result.certificate) == result.canonical

    def test_identity_factors_first(self):
        f = Factorization(5, [(3, 4), None, (3, 4), (1, 2), None, (1, 2)])
        result = group_components(f)
        assert result.canonical.factors == (
            None, None, (1, 2), (1, 2), (3, 4), (3, 4),
        )

    def test_requires_identity_product(self):
        with pytest.raises(PreconditionError):
            group_components(Factorization(3, [(1, 2), (2, 3)]))

    def test_already_grouped_is_a_noop(self):
        f = Factorization(5, [None, (1, 2), (1, 2), (3, 4), (3, 4)])
        result = group_components(f)
        assert result.canonical == f
        assert result.certificate == ()

    def test_signature_preserved(self):
        result = group_components(F2)
        assert signature(result.canonical) == signature(F2)

    @given(scrambled_identity_factorizations())
    @settings(max_examples=200, deadline=None)
    def test_stable_sort_one_swap_per_inversion(self, f):
        smallest = smallest_points(f)
        key = lambda x: 0 if x is None else smallest[x[0]]
        keys = list(map(key, f.factors))
        result = group_components(f)
        assert result.canonical.factors == tuple(sorted(f.factors, key=key))
        inversions = sum(a > b for a, b in itertools.combinations(keys, 2))
        assert len(result.certificate) == inversions
        current = f
        for move in result.certificate:
            k = move.position
            s, t = current.factors[k : k + 2]
            current = apply_move(current, move)
            assert current.factors[k : k + 2] == (t, s)

    def test_long_carries_take_linear_time(self):
        # one carry of 20,000 slots, then two; a bubble sort made one pass
        # per slot travelled and took about 14 s on each
        for f, moves in [
            (Factorization(2, [(1, 2)] * 20_000 + [None]), 20_000),
            (Factorization(4, [(3, 4)] * 20_000 + [(1, 2), (1, 2)]), 40_000),
        ]:
            t0 = time.perf_counter()
            result = canonical_form(f)
            assert time.perf_counter() - t0 < 2.0
            assert len(result.certificate) == moves


class TestPullEdgeToFront:
    def test_adjacent_edge(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        result = pull_edge_to_front(f, 1, 3)
        assert result.canonical.factors[0] == (1, 3)
        assert apply_certificate(f, result.certificate) == result.canonical

    def test_existing_edge_empty_certificate(self):
        f = Factorization(3, [(1, 2), (1, 2)])
        result = pull_edge_to_front(f, 1, 2)
        assert result.canonical == f
        assert result.certificate == ()

    def test_endpoint_order_irrelevant(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        assert pull_edge_to_front(f, 3, 1).canonical.factors[0] == (1, 3)

    def test_component_block_all_inverse(self):
        f = Factorization(6, [(1, 4), (1, 5), (4, 5), (1, 5)])
        result = pull_edge_to_front(f, 4, 5)
        assert result.canonical.factors[0] == (4, 5)
        assert all(
            m.direction is Direction.INVERSE for m in result.certificate
        )

    def test_long_path_merge(self):
        f = Factorization(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        result = pull_edge_to_front(f, 1, 5)
        assert result.canonical.factors[0] == (1, 5)
        assert result.canonical.product() == f.product()

    @given(connected_pulls())
    @settings(max_examples=200, deadline=None)
    def test_random_connected_component(self, case):
        f, v1, v2 = case
        carries = []
        carry = _Planner.carry

        def counted(planner, j, dest):
            carries.append((j, dest))
            carry(planner, j, dest)

        with patch.object(_Planner, "carry", counted):
            result = pull_edge_to_front(f, v1, v2)
        assert result.canonical.factors[0] == tuple(sorted((v1, v2)))
        assert result.canonical.product() == f.product()
        assert apply_certificate(f, result.certificate) == result.canonical
        # one BFS path of d edges: d - 1 merges, then the carry to the front
        assert len(carries) - 1 <= distance(f.factors, v1, v2) - 1

    def test_missing_path_names_stage_window_and_input(self):
        planner = _Planner(Factorization(4, [(1, 2), (3, 4)]))
        with pytest.raises(InternalError) as info:
            planner.pull(0, 2, (1, 2), 3)
        message = str(info.value)
        assert message.startswith(
            "pull: no path from 3 to any of {1,2} in window [0,2)"
        )
        assert message.endswith("input n=4; [(1,2),(3,4)]")

    def test_missing_edge_copy_names_stage_window_and_input(self):
        # a window graph that claims the edge {2,3}, which the window lacks
        adj = {1: {2}, 2: {1, 3}, 3: {2}}
        dist = {3: 0, 2: 1, 1: 2}
        planner = _Planner(Factorization(3, [(1, 2), (1, 2)]))
        with patch.object(_Planner, "_bfs", lambda *_: (adj, dist)):
            with pytest.raises(InternalError) as info:
                planner.pull(0, 2, (1,), 3)
        message = str(info.value)
        assert message.startswith("pull: no copy of edge {2,3} in window [0,2)")
        text = message.rsplit("input ", 1)[1]
        assert parse_factorization(text) == Factorization(3, [(1, 2), (1, 2)])

    def test_single_source_with_its_edge_only_carries(self):
        def no_search(*_):
            raise AssertionError("pull searched the window")

        planner = _Planner(Factorization(3, [(2, 3), (1, 2), (1, 3), (1, 3)]))
        with patch.object(_Planner, "_bfs", no_search):
            assert planner.pull(0, 4, (3,), 1) == 3
        assert planner.factors[0] == (1, 3)
        assert " ".join(map(str, planner.moves)) == "I@1 I@0"

    def test_adjacent_source_skips_the_search(self):
        def no_search(*_):
            raise AssertionError("pull searched the window")

        # 3 and 2 are both adjacent to 4, 1 is two edges away
        planner = _Planner(Factorization(4, [(1, 2), (3, 4), (2, 4), (1, 2)]))
        with patch.object(_Planner, "_bfs", no_search):
            assert planner.pull(0, 4, (1, 3, 2), 4) == 2
        assert planner.factors[0] == (2, 4)

    def test_nearest_source_wins_and_ties_go_to_the_smallest(self):
        # from 4, source 3 is one edge away and 1 two; 2 and 3 both one
        planner = _Planner(Factorization(4, [(1, 2), (2, 4), (3, 4)]))
        assert planner.pull(0, 3, (1, 3), 4) == 3
        assert planner.factors[0] == (3, 4)
        planner = _Planner(Factorization(4, [(3, 4), (2, 4)]))
        assert planner.pull(0, 2, (3, 2), 4) == 2
        assert planner.factors[0] == (2, 4)

    def test_same_endpoints_rejected(self):
        with pytest.raises(PreconditionError):
            pull_edge_to_front(Factorization(3, [(1, 2), (2, 3)]), 2, 2)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            pull_edge_to_front(Factorization(3, [(1, 2), (2, 3)]), 1, 4)

    def test_identity_factor_rejected(self):
        with pytest.raises(PreconditionError):
            pull_edge_to_front(Factorization(3, [None, (1, 2)]), 1, 2)

    def test_disconnected_rejected(self):
        f = Factorization(4, [(1, 2), (3, 4)])
        with pytest.raises(PreconditionError, match="component"):
            pull_edge_to_front(f, 1, 2)

    def test_vertex_outside_component_rejected(self):
        f = Factorization(4, [(1, 2), (1, 2)])
        with pytest.raises(PreconditionError, match="component"):
            pull_edge_to_front(f, 1, 3)


class TestCanonicalForm:
    def test_worked_example_pair_reaches_the_same_form(self):
        r1, r2 = canonical_form(F1), canonical_form(F2)
        assert format_factorization(r1.canonical) == CANONICAL_6
        assert r1.canonical == r2.canonical

    def test_certificates_replay(self):
        for f in (F1, F2):
            result = canonical_form(f)
            assert apply_certificate(f, result.certificate) == result.canonical

    def test_transfer_certificate(self):
        # route f1 -> canonical -> f2 by replaying one log forward and the
        # other backward
        r1, r2 = canonical_form(F1), canonical_form(F2)
        transfer = r1.certificate + invert_certificate(r2.certificate)
        assert apply_certificate(F1, transfer) == F2

    def test_idempotent_with_empty_certificate(self):
        once = canonical_form(F1)
        again = canonical_form(once.canonical)
        assert again.canonical == once.canonical
        assert again.certificate == ()

    def test_deterministic(self):
        assert canonical_form(F1).certificate == canonical_form(F1).certificate

    def test_empty_factorization(self):
        result = canonical_form(Factorization(3, []))
        assert result.canonical.factors == ()
        assert result.certificate == ()

    def test_identity_factors_only(self):
        result = canonical_form(Factorization(3, [None, None]))
        assert result.canonical.factors == (None, None)
        assert result.certificate == ()

    def test_requires_identity_product(self):
        with pytest.raises(PreconditionError):
            canonical_form(Factorization(3, [(1, 2), (2, 3)]))

    def test_certificate_shares_one_move_per_direction_and_slot(self):
        rng = random.Random("shared-moves")
        pairs = [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]
        f = Factorization(8, [p for p in rng.choices(pairs, k=20) for _ in range(2)])
        f = scrambled(f, rng)
        cert = canonical_form(f).certificate
        assert len(f) == 40 and len(cert) > 2 * (len(f) - 1)
        assert len({id(move) for move in cert}) <= 2 * (len(f) - 1)
        assert parse_certificate(format_certificate(cert)) == list(cert)

    def test_canonical_input_builds_no_move_objects(self):
        # moves are made on first use: building all 2(m - 1) of them up
        # front peaked at about 90 MB here
        f = Factorization(2, [(1, 2)] * 200_000)
        tracemalloc.start()
        try:
            result = canonical_form(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.certificate == ()
        assert peak < 40 * 2**20

    def test_canonical_input_time_follows_distinct_edges(self):
        # a doubled path on 200 points plus (1,2) copies up to 20,000
        # factors: the window graph is built once per path cell, which from
        # every slot took about 1.1 s and from the distinct edges 0.26 s
        points = 200
        path = [(v, v + 1) for v in range(1, points) for _ in range(2)]
        f = Factorization(points, path + [(1, 2)] * (20_000 - len(path)))
        t0 = time.perf_counter()
        result = canonical_form(f)
        assert time.perf_counter() - t0 < 0.6
        assert result.certificate == ()

    def test_certificate_length_stays_modest(self):
        for f in (F1, F2):
            assert len(canonical_form(f).certificate) <= 100

    @pytest.mark.parametrize(
        "degree,length",
        [(2, 2), (2, 4), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6)],
    )
    def test_exhaustive_small_sizes(self, degree, length):
        # canonical_form itself verifies shape and replay on every call, so
        # surviving the full enumeration is the completeness statement:
        # every identity factorization is rewritten to its class shape by a
        # replayable move log
        by_signature = {}
        by_canonical = {}
        for f in enumerate_identity_factorizations(degree, length):
            result = canonical_form(f)
            by_signature.setdefault(signature(f), set()).add(f.factors)
            by_canonical.setdefault(result.canonical.factors, set()).add(f.factors)
        assert by_signature.keys() == {
            signature(Factorization(degree, c)) for c in by_canonical
        }
        # same signature <=> same canonical form
        assert sorted(map(sorted, by_signature.values())) == sorted(
            map(sorted, by_canonical.values())
        )

    @given(scrambled_identity_factorizations())
    @settings(max_examples=150, deadline=None)
    def test_scrambled_inputs_reach_class_shape(self, f):
        result = canonical_form(f)
        assert result.canonical == canonical_shape(signature(f))
        assert apply_certificate(f, result.certificate) == result.canonical

    def test_last_tail_pair_walks_behind_the_path(self):
        # the path is built; the one leftover pair (2,3) goes down to gap 2,
        # one climb by (1,3) turns it into (1,2), and it swaps back up
        # behind the path, 8(l - 3) + 7 = 23 moves; walking it down by path
        # cells 0 and 1 took 24, parking it and moving it behind later 28
        f = Factorization(5, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4),
                              (4, 5), (4, 5), (2, 3), (2, 3)])
        assert len(canonical_form(f).certificate) == 23

    @pytest.mark.parametrize("seed", range(40))
    def test_deep_single_component_blocks(self, seed):
        f = deep_single_component_block(seed)
        result = canonical_form(f)
        assert result.canonical == canonical_shape(signature(f))
        assert apply_certificate(f, result.certificate) == result.canonical


def xyx(x, y):
    """The transposition x y x: x applied to both points of y."""
    a, b = (x[1] if p == x[0] else x[0] if p == x[1] else p for p in y)
    return (a, b) if a < b else (b, a)


S4_TRANSPOSITIONS = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]


def codes(moves):
    """The move codes of a rewrite written as text: 2k is F@k, 2k + 1 I@k."""
    return tuple(2 * int(m[2:]) + (m[0] == "I") for m in moves.split())


# The four-move rewrites of two adjacent doubled cells: the planner's two,
# and the three more that walk_step_by_step conjugates by.
REWRITES = {
    "_SWAP": canonical._SWAP,
    "_SHIFT_RIGHT": codes("F@1 F@2 F@2 F@1"),
    "_SHIFT_LEFT": codes("F@1 F@0 F@0 F@1"),
    "_CROSS_RIGHT": codes("F@1 F@0 I@2 I@1"),
    "_CROSS_LEFT": canonical._CROSS_LEFT,
}

# Conjugating a walked pair by a path cell, keyed by (the pair starts right
# of the cell, the pair ends right of it).  Each leaves the path cell x as
# it is and turns the pair y into x y x.
CONJUGATE = {
    (False, False): REWRITES["_SHIFT_LEFT"],
    (False, True): REWRITES["_CROSS_RIGHT"],
    (True, True): REWRITES["_SHIFT_RIGHT"],
    (True, False): REWRITES["_CROSS_LEFT"],
}


class TestCellRewrites:
    @pytest.mark.parametrize(
        "name,moves,source,target",
        [
            ("_SWAP", "F@1 F@0 F@2 F@1", "xxyy", "yyxx"),
            ("_SHIFT_RIGHT", "F@1 F@2 F@2 F@1", "xxyy", "xxzz"),
            ("_SHIFT_LEFT", "F@1 F@0 F@0 F@1", "yyxx", "zzxx"),
            ("_CROSS_RIGHT", "F@1 F@0 I@2 I@1", "yyxx", "xxzz"),
            ("_CROSS_LEFT", "F@1 F@2 I@0 I@1", "xxyy", "zzxx"),
        ],
    )
    def test_every_pair_of_transpositions(self, name, moves, source, target):
        # equal, sharing a point and disjoint pairs all occur in S_4
        for x, y in itertools.product(S4_TRANSPOSITIONS, repeat=2):
            cells = {"x": x, "y": y, "z": xyx(x, y)}
            planner = _Planner(Factorization(4, [cells[c] for c in source]))
            planner.run(REWRITES[name])
            assert planner.factors == [cells[c] for c in target]
            assert " ".join(map(str, planner.moves)) == moves


def swap_cell_by_cell(planner, p, q):
    """Move the doubled cell at slot p to slot q: one _SWAP rewrite per
    unequal neighbour, each checked on its own; returns the number of equal
    cells skipped."""
    f = planner.factors
    skipped = 0
    for s in [*range(p, q, 2), *range(p - 2, q - 2, -2)]:
        x, y = f[s], f[s + 2]
        if x == y:
            skipped += 1
            continue
        planner.run([2 * s + c for c in canonical._SWAP])
        assert f[s : s + 4] == [y, y, x, x]
    return skipped


def walk_step_by_step(planner, lo, gap, steps, end):
    """The reference for the planner's fixed runs: the doubled pair at gap
    of the doubled path cells at slot lo (path cell c at slot lo + 2c left
    of the gap, one cell further right otherwise) is conjugated by the path
    cell of each step (c, expected) in turn, crossing it when the next
    step's cell, or the end gap, lies beyond, and must then equal expected;
    finally it swaps to gap end.  Per step, the swaps of swap_cell_by_cell
    one at a time, then one conjugating rewrite, each checked on its own;
    returns the number of equal cells skipped."""
    f = planner.factors
    skipped = 0
    nexts = [c for c, _ in steps[1:]] + [end]
    for (c, expected), nxt in zip(steps, nexts):
        right, stay_right = gap > c, nxt > c
        skipped += swap_cell_by_cell(planner, lo + 2 * gap, lo + 2 * (c + right))
        p = lo + 2 * c
        cell, pair = (f[p], f[p + 2]) if right else (f[p + 2], f[p])
        planner.run([2 * p + r for r in CONJUGATE[right, stay_right]])
        z = xyx(cell, pair)
        assert f[p : p + 4] == ([cell, cell, z, z] if stay_right else [z, z, cell, cell])
        gap = c + stay_right
        assert f[lo + 2 * gap] == expected
    return skipped + swap_cell_by_cell(planner, lo + 2 * gap, lo + 2 * end)


def lowering_moves(l, i, end):
    """The moves lower takes for the pair (v_i, v_j) on a path of l
    vertices: parked at gap 1, or behind the path."""
    if end == 1:
        return 4 * (l - 2) + (4 * i - 2 if i else 0)
    return 8 * (l - 3) + (4 * i + 3 if i < 2 else 10)


def check_tail(f):
    """Run canonical_form on f with every lowering checked against the walk
    it replaced: walk_step_by_step lowers the far point down to (v_i,
    v_{i+1}), then cascades both points down to (v_0, v_1).  The lowering
    must leave the same factors, in lowering_moves and no more moves than
    the walk.  Returns the number of lowerings, of walk steps and of equal
    cells the walk skipped."""
    lower = _Planner.lower
    seen = {"pairs": 0, "steps": 0, "skipped": 0}

    def checked(planner, lo, vertices, i, j, end):
        steps = [(c, (vertices[i], vertices[c])) for c in range(j - 1, i, -1)]
        for t in range(i, 0, -1):
            steps.append((t - 1, (vertices[t - 1], vertices[t + 1])))
            steps.append((t, (vertices[t - 1], vertices[t])))
        reference = _Planner(Factorization._trusted(planner.degree, planner.factors))
        seen["skipped"] += walk_step_by_step(
            reference, lo, len(vertices) - 1, steps, end
        )
        before = len(planner.moves)
        lower(planner, lo, vertices, i, j, end)
        moves = len(planner.moves) - before
        assert planner.factors == reference.factors
        assert moves == lowering_moves(len(vertices), i, end)
        assert moves <= len(reference.moves)
        seen["pairs"] += 1
        seen["steps"] += len(steps)

    with patch.object(_Planner, "lower", checked):
        result = canonical_form(f)
    assert apply_certificate(f, result.certificate) == result.canonical
    return seen


def check_climbs(f):
    """Run canonical_form on f with every climb checked against the walk it
    replaced: walk_step_by_step from gap k - 1 through path cells i .. k - 2
    back to gap k - 1, which takes 8(k - 2 - i) + 4 moves to the climb's
    4(k - 2 - i) + 3 and must leave the same factors.  Returns the number of
    climbs."""
    climb = _Planner.climb
    seen = []

    def checked(planner, lo, i, k):
        f = planner.factors
        t = f[lo + 2 * k - 2][1]
        steps = [(c, (f[lo + 2 * c][1], t)) for c in range(i, k - 1)]
        reference = _Planner(Factorization._trusted(planner.degree, f))
        walk_step_by_step(reference, lo, k - 1, steps, k - 1)
        before = len(planner.moves)
        climb(planner, lo, i, k)
        assert planner.factors == reference.factors
        assert len(reference.moves) == 8 * (k - 2 - i) + 4
        assert len(planner.moves) - before == 4 * (k - 2 - i) + 3
        seen.append(k)

    with patch.object(_Planner, "climb", checked):
        result = canonical_form(f)
    assert apply_certificate(f, result.certificate) == result.canonical
    return len(seen)


def moved(f):
    """Every factor tuple one move from the tuple f, by a move rule of the
    test's own (xyx)."""
    for k in range(len(f) - 1):
        s, t = f[k], f[k + 1]
        for pair in ((xyx(s, t), s), (t, xyx(t, s))):
            yield f[:k] + pair + f[k + 2:]


def bfs_distance(a, b):
    """The fewest moves from the factor tuple a to b, by a BFS from both
    ends, one whole layer of the smaller frontier at a time."""
    if a == b:
        return 0
    dist = [{a: 0}, {b: 0}]
    frontier = [[a], [b]]
    while True:
        side = len(frontier[0]) > len(frontier[1])
        here, there = dist[side], dist[not side]
        reached = []
        for f in frontier[side]:
            d = here[f] + 1
            for g in moved(f):
                if g in there:
                    return d + there[g]
                if g not in here:
                    here[g] = d
                    reached.append(g)
        frontier[side] = reached


def doubled(cells):
    return [c for c in cells for _ in range(2)]


class TestClimb:
    def test_any_labels_take_the_stated_moves(self):
        # distinct points in any order, at any offset, between other factors
        rng = random.Random("climb")
        for _ in range(300):
            k = rng.randint(2, 12)
            i = rng.randrange(k - 1)
            v = rng.sample(range(1, 40), k + 1)
            cells = [tuple(sorted(v[c : c + 2])) for c in range(k)]
            pair = tuple(sorted((v[i], v[k])))
            lo = rng.randrange(4)
            other = [None] * lo
            start = other + doubled(cells[:-1] + [pair]) + other
            planner = _Planner(Factorization(40, start))
            planner.climb(lo, i, k)
            assert len(planner.moves) == 4 * (k - 2 - i) + 3
            assert {m.position for m in planner.moves} == set(
                range(lo + 2 * i + 1, lo + 2 * k - 1)
            )
            assert planner.result().canonical.factors == tuple(
                other + doubled(cells) + other
            )

    @pytest.mark.parametrize("n, lengths", [(4, [7, 3]), (5, [11, 7, 3])])
    def test_length_is_the_bfs_distance(self, n, lengths):
        # path 1-2-...-(n-1) doubled behind which (i+1, n) is doubled, climbed
        # to (n-1, n) for every source index i: no shorter route exists
        cells = [(c, c + 1) for c in range(1, n)]
        goal = tuple(doubled(cells))
        for i, length in enumerate(lengths):
            start = tuple(doubled(cells[:-1] + [(i + 1, n)]))
            planner = _Planner(Factorization(n, start))
            planner.climb(0, i, n - 1)
            assert tuple(planner.factors) == goal
            assert len(planner.moves) == length == bfs_distance(start, goal)


class TestTail:
    def test_mirrored_climb_takes_the_stated_moves(self):
        # a pair sharing one point with (w_1, w_k) in front of a path with
        # distinct points in any order, at any offset, between other factors
        rng = random.Random("climb-down")
        for _ in range(300):
            k = rng.randint(2, 12)
            w = rng.sample(range(1, 40), k)
            cells = [tuple(sorted(w[c : c + 2])) for c in range(k - 1)]
            x = tuple(sorted((w[0], w[-1])))
            other_point = rng.choice([p for p in range(1, 40) if p not in x])
            pair = tuple(sorted((rng.choice(x), other_point)))
            z = xyx(x, pair)
            lo = rng.randrange(4)
            other = [None] * lo
            start = other + doubled([pair] + cells) + other
            planner = _Planner(Factorization(40, start))
            planner.run(canonical._climb_down(lo, k))
            assert len(planner.moves) == 4 * (k - 2) + 3
            assert {m.position for m in planner.moves} == set(range(lo, lo + 2 * k - 2))
            assert planner.result().canonical.factors == tuple(
                other + doubled([z] + cells) + other
            )

    @pytest.mark.parametrize("n, lengths", [(4, [3, 7]), (5, [3, 7, 11])])
    def test_mirrored_climb_length_is_the_bfs_distance(self, n, lengths):
        # (1, k+1) doubled in front of the path 2-3-...-n doubled, turned
        # into (1, 2) by the mirrored climb past its first k - 1 cells
        cells = [(c, c + 1) for c in range(2, n)]
        goal = tuple(doubled([(1, 2)] + cells))
        for k, length in enumerate(lengths, 2):
            start = tuple(doubled([(1, k + 1)] + cells))
            planner = _Planner(Factorization(n, start))
            planner.run(canonical._climb_down(0, k))
            assert tuple(planner.factors) == goal
            assert len(planner.moves) == length == bfs_distance(start, goal)

    @pytest.mark.parametrize(
        "end, indices",
        [
            ("park", lambda l: [(0, j) for j in range(1, l)]),
            ("park", lambda l: [(i, j) for i in range(1, l) for j in range(i + 1, l)]),
            ("last", lambda l: [(0, j) for j in range(2, l)]),
            ("last", lambda l: [(1, j) for j in range(2, l)]),
            ("last", lambda l: [(i, j) for i in range(2, l) for j in range(i + 1, l)]),
        ],
        ids=["park, i = 0", "park, i >= 1", "last, i = 0", "last, i = 1",
             "last, i >= 2"],
    )
    def test_each_case_takes_its_stated_moves(self, end, indices):
        # (v_i, v_j) doubled behind the path on l ascending points, any
        # labels, at any offset, becomes (v_0, v_1) parked at gap 1 or
        # behind the path
        rng = random.Random(f"lower:{end}")
        for l in range(3, 10):
            for i, j in indices(l):
                v = sorted(rng.sample(range(1, 40), l))
                cells = [(v[c], v[c + 1]) for c in range(l - 1)]
                lo = rng.randrange(4)
                other = [None] * lo
                start = other + doubled(cells + [(v[i], v[j])]) + other
                planner = _Planner(Factorization(40, start))
                gap = 1 if end == "park" else l - 1
                planner.lower(lo, v, i, j, gap)
                goal = cells[:gap] + [cells[0]] + cells[gap:]
                assert planner.result().canonical.factors == tuple(
                    other + doubled(goal) + other
                )
                assert len(planner.moves) == lowering_moves(l, i, gap)

    def test_corrupted_lowering_in_canonical_form_is_an_internal_error(self):
        climb_down = canonical._climb_down
        f = deep_single_component_block(0)
        short = lambda lo, k: climb_down(lo, k)[:-1]  # without its last move
        with patch.object(canonical, "_climb_down", short):
            with pytest.raises(InternalError) as info:
                canonical_form(f)
        message = str(info.value)
        assert message.startswith("tail: slots [")
        assert message.endswith(f"input {format_factorization(f)}")


class TestWalkPair:
    """The planner's fixed runs, climb and lower, against walk_step_by_step:
    the step-by-step walk of a doubled pair that they replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_tree_walks_match_step_by_step(self, seed):
        # a doubled tree has no leftover, so its path cells are all climbed;
        # after each climb the factors equal the step-by-step walk's
        assert check_climbs(doubled_random_tree(seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_tail_walks_match_step_by_step(self, seed):
        seen = check_tail(deep_single_component_block(seed))
        assert seen["pairs"] and seen["steps"]

    def test_equal_cells_are_skipped_like_step_by_step(self):
        # the (2,3) pair passes path cell 1, an equal (2,3) cell, for free
        f = Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4),
                              (1, 2), (1, 2), (2, 3), (2, 3)])
        assert check_tail(f)["skipped"] > 0
        assert check_tail(palindromic(120))["skipped"] > 0

    @given(scrambled_identity_factorizations())
    @settings(max_examples=60, deadline=None)
    def test_random_walks_match_step_by_step(self, f):
        check_tail(f)

    def test_wrong_expected_value_names_stage_and_input(self):
        # lower is told the pair is (1,3), but it is (2,3): conjugated by
        # path cell 1, (2,3), on its way down, it stays (2,3)
        f = Factorization(3, [(1, 2), (1, 2), (2, 3), (2, 3), (2, 3), (2, 3)])
        planner = _Planner(f)
        with pytest.raises(InternalError) as info:
            planner.lower(0, [1, 2, 3], 0, 2, 1)
        message = str(info.value)
        assert message.startswith(
            "tail: slots [0,6) do not hold the path cells with (1, 2) at gap 1"
        )
        assert message.endswith(f"input {format_factorization(f)}")

    def test_corrupted_step_in_canonical_form_is_an_internal_error(self):
        climb = _Planner.climb

        def corrupted(planner, lo, i, k):
            # the climb without its last move
            run = planner.run
            planner.run = lambda codes: run(codes[:-1])
            climb(planner, lo, i, k)
            del planner.run

        f = doubled_random_tree(0)
        with patch.object(_Planner, "climb", corrupted):
            with pytest.raises(InternalError) as info:
                canonical_form(f)
        message = str(info.value)
        assert message.startswith("climb: ")
        assert message.endswith(f"input {format_factorization(f)}")

    def test_walk_checks_survive_optimization(self):
        # the tail's check is not an assert: under -O it still raises
        code = (
            "from hurwitz.canonical import _Planner\n"
            "from hurwitz.errors import InternalError\n"
            "from hurwitz.factorization import Factorization\n"
            "f = Factorization(3, [(1, 2), (1, 2)] + [(2, 3)] * 4)\n"
            "p = _Planner(f)\n"
            "try:\n"
            "    p.lower(0, [1, 2, 3], 0, 2, 1)\n"
            "except InternalError as e:\n"
            "    print(str(e).split(':')[0])\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert out.stdout == "tail\n", out.stderr


class TestPlannerInvariants:
    """The planner's own invariants raise InternalError naming the stage and
    the input, so `hurwitz canon` reports them with exit 2."""

    def test_group_checks_the_passed_factors(self, tmp_path, capsys):
        # with carry a no-op, carrying (1,2) left past (3,4) leaves (3,4)
        # where the passed factor should have moved
        f = Factorization(4, [(1, 2), (3, 4), (1, 2), (3, 4)])
        with patch.object(_Planner, "carry", lambda *_: None):
            with pytest.raises(InternalError) as info:
                canonical_form(f)
            message = str(info.value)
            assert message.startswith("group: carrying slot 2 to 1")
            assert message.endswith(f"input {format_factorization(f)}")
            path = tmp_path / "f.txt"
            path.write_text(format_factorization(f))
            assert main(["canon", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: group: ") and "Traceback" not in err
        assert err.rstrip("\n").endswith(format_factorization(f))

    def test_tail_checks_the_doubled_pair(self):
        # the path is already in place, so a pull that moves nothing and
        # names the nearest source builds it; the tail's pull then leaves
        # (1,3) undoubled
        f = Factorization(3, [(1, 2), (1, 2), (2, 3), (2, 3),
                              (1, 3), (1, 2), (1, 2), (1, 3)])
        with patch.object(_Planner, "pull", lambda self, lo, hi, sources, b: max(sources)):
            with pytest.raises(InternalError) as info:
                canonical_form(f)
        message = str(info.value)
        assert message.startswith("tail: slot 5 does not double (1, 3) at slot 4")
        assert message.endswith(f"input {format_factorization(f)}")


def palindromic(m):
    """w + w[::-1] on 6 points, w m/2 random transpositions: an identity
    factorization with a heavy tail."""
    rng = random.Random("palindromic:6")
    pairs = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    w = rng.choices(pairs, k=m // 2)
    return Factorization(6, w + w[::-1])


def golden_corpus():
    """30 scrambled identity factorizations with m <= 200, ten each of the
    benchmark's certify shapes: dense (a doubled path on 3..8 points plus
    doubled copies of one of its edges), tree (a doubled spanning tree) and
    multi (5% identity factors and doubled trees on 2..5 points, some with
    one extra doubled edge).  The doubled units are shuffled, then scrambled
    by 4m random moves."""
    rng = random.Random("golden-certificates")
    corpus = []
    for i in range(30):
        shape = ("dense", "tree", "multi")[i % 3]
        m = 2 * rng.randint(8, 100)
        if shape == "dense":
            n = rng.randint(3, 8)
            points = rng.sample(range(1, n + 1), n)
            path = [tuple(sorted(e)) for e in zip(points, points[1:])]
            units = path + [rng.choice(path)] * (m // 2 - len(path))
        elif shape == "tree":
            n = m // 2 + 1 + rng.randint(0, 3)
            points = rng.sample(range(1, n + 1), m // 2 + 1)
            units = [tuple(sorted((p, rng.choice(points[:j]))))
                     for j, p in enumerate(points) if j]
        else:
            units = [None] * round(0.05 * m)
            n = m
            labels = rng.sample(range(1, n + 1), n)
            while len(units) < m // 2:
                l = min(rng.randint(2, 5), m // 2 - len(units) + 1)
                points, labels = labels[:l], labels[l:]
                tree = [tuple(sorted((p, rng.choice(points[:j]))))
                        for j, p in enumerate(points) if j]
                units += tree
                if len(units) < m // 2 and rng.random() < 0.3:
                    units.append(rng.choice(tree))
        # a unit is a doubled factor, so any order keeps the identity
        rng.shuffle(units)
        factors = [f for f in units for _ in range(2)]
        moves = [HurwitzMove(rng.choice(list(Direction)), rng.randrange(m - 1))
                 for _ in range(4 * m)]
        corpus.append(apply_certificate(Factorization(n, factors), moves))
    return corpus


def golden_digest(corpus):
    digest = hashlib.sha256()
    for f in corpus:
        result = canonical_form(f)
        for text in (format_factorization(f), format_factorization(result.canonical),
                     format_certificate(result.certificate)):
            digest.update(text.encode() + b"\0")
    return digest.hexdigest()


class TestGoldenCertificates:
    # the canonical form and certificate text of every golden_corpus()
    # input, pinned byte for byte: 30 inputs, 3,122 factors, 121,513 moves
    # (121,949 when the tail walked, 151,905 when each path cell was slid
    # left and walked back up)
    DIGEST = "9e13b730e459d4f81595e34c52d1f995edbfb254723dcccaf48cf4e83a057edf"

    def test_certificates_are_byte_identical(self):
        corpus = golden_corpus()
        assert sum(map(len, corpus)) == 3122
        assert golden_digest(corpus) == self.DIGEST


class TestCertificateLength:
    def test_palindromic_n6_m800(self):
        # 321,603 moves before front parking
        assert len(canonical_form(palindromic(800)).certificate) <= 80_000

    def test_palindromic_n6_m6400(self):
        # 1,317,473 moves while (v0,v1) pairs stayed behind the path and
        # every later pair slid past them
        assert len(canonical_form(palindromic(6400)).certificate) <= 200_000

    def test_palindromic_moves_per_factor_stay_flat(self):
        per_factor = {
            m: len(canonical_form(palindromic(m)).certificate) / m
            for m in (1600, 6400)
        }
        assert per_factor[6400] <= 1.25 * per_factor[1600]

    def test_tail_pair_of_first_edge_parks_like_any_other(self):
        # the path is built; the (1,2) pair met before the last other pair
        # swaps in front of path cell 1 and later moves behind the path with
        # the parked block, 8(l - 2) = 16 moves; the (2,3) pair goes down to
        # gap 2, climbs and swaps back up, 8(l - 3) + 7 = 15 moves (16 when
        # it walked)
        f = Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4),
                              (1, 2), (1, 2), (2, 3), (2, 3)])
        assert len(canonical_form(f).certificate) == 31

    def test_canonical_heavy_tail_costs_nothing(self):
        f = Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4)]
                          + [(1, 2)] * 40)
        assert canonical_form(f).certificate == ()

    def test_deep_single_component_corpus(self):
        total = sum(
            len(canonical_form(deep_single_component_block(seed)).certificate)
            for seed in range(40)
        )
        # 10,766 when the tail walked
        assert total <= 10_467

    @pytest.mark.parametrize(
        "pair, ceiling, distance",
        [((2, 4), 25, 11), ((1, 4), 29, 7), ((3, 4), 18, 15), ((2, 3), 15, 11)],
    )
    def test_doubled_path_plus_one_pair(self, pair, ceiling, distance):
        # the doubled path 1-2-3-4 plus one doubled pair; the walks took 27,
        # 31, 20 and 16 moves.  For (2,4) and (1,4), path cell 2 is pulled
        # from 2 or 1 and climbed (7 and 11 moves), which leaves (3,4) to
        # the tail
        f = Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4),
                              pair, pair])
        result = canonical_form(f)
        assert len(result.certificate) <= ceiling
        assert bfs_distance(f.factors, result.canonical.factors) == distance

    def test_doubled_random_trees(self):
        # 30 doubled spanning trees on 8..40 points: 46,188 moves before the
        # pulls fixed one BFS path and merged towards the front, 42,024
        # before the climb replaced the slide and walk up the path
        total = sum(
            len(canonical_form(doubled_random_tree(seed)).certificate)
            for seed in range(30)
        )
        assert total <= 30_134

    def test_certificates_against_the_bfs_optimum(self):
        # the yardstick: BFS distances from the canonical shape of the class
        # {1,2,3,4}:8, with a move rule of its own (xyx), against the
        # planner's certificates.  At the pin the sample's distances were
        # 3..19, the median ratio 3.0 and the max 10.25 (41 moves at
        # distance 4); the mean certificate 33.04 moves, the mean distance
        # 11.16.  When the tail walked: median 3.083, max 10.75, mean 34.21;
        # before the climb: median 3.4, max 11.25, mean 37.77
        shape = canonical_shape(
            ComponentSignature(4, 8, 0, (((1, 2, 3, 4), 8),))
        ).factors
        dist = {shape: 0}
        frontier = [shape]
        while frontier:
            reached = []
            for f in frontier:
                d = dist[f] + 1
                for g in moved(f):
                    if g not in dist:
                        dist[g] = d
                        reached.append(g)
            frontier = reached
        assert len(dist) == 131_040 and max(dist.values()) == 19
        ratios = [
            len(canonical_form(Factorization(4, factors)).certificate)
            / dist[factors]
            for factors in random.Random(3).sample(sorted(dist), 2000)
        ]
        assert statistics.median(ratios) <= 3.0 and max(ratios) <= 10.25
