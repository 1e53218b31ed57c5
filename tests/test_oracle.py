"""Brute-force oracle: orbit BFS and exhaustive enumeration."""

import hashlib
import itertools
import random
import time
import tracemalloc
from collections import deque
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.errors import PreconditionError
from hurwitz.factorization import (
    MAX_DEGREE,
    Direction,
    Factorization,
    HurwitzMove,
    apply_move,
    format_factorization,
)
from hurwitz.graph import format_signature, signature
from hurwitz.oracle import (
    DEFAULT_CAP,
    _MoveTable,
    _search,
    enumerate_identity_factorizations,
    enumerate_orbit,
    orbit_partition,
)


class TestEnumerateOrbit:
    def test_fixed_point(self):
        report = enumerate_orbit(Factorization(3, [(1, 2), (1, 2)]))
        assert report.orbit_size == 1
        assert not report.truncated
        assert report.members is None

    def test_three_cycle_orbit_members(self):
        report = enumerate_orbit(
            Factorization(3, [(1, 2), (2, 3)]), keep_members=True
        )
        assert report.orbit_size == 3
        assert report.members == {
            ((1, 2), (2, 3)),
            ((1, 3), (1, 2)),
            ((2, 3), (1, 3)),
        }
        assert not report.truncated

    def test_big_component_orbit(self):
        # the single length-4 signature class on {1,2,3} with one component:
        # Hurwitz's genus-0 count (2n-2)! n^(n-3) = 24 at n = 3
        report = enumerate_orbit(Factorization(3, [(1, 2), (1, 2), (2, 3), (2, 3)]))
        assert report.orbit_size == 24
        assert not report.truncated

    def test_cap_truncates(self):
        report = enumerate_orbit(Factorization(3, [(1, 2), (2, 3)]), cap=2)
        assert report.orbit_size == 2
        assert report.truncated

    def test_cap_equal_to_orbit_size_is_exact(self):
        report = enumerate_orbit(Factorization(3, [(1, 2), (2, 3)]), cap=3)
        assert report.orbit_size == 3
        assert not report.truncated

    def test_cap_must_be_positive(self):
        with pytest.raises(PreconditionError):
            enumerate_orbit(Factorization(3, [(1, 2), (1, 2)]), cap=0)

    def test_identity_factors_participate(self):
        # a move across (e, t) just swaps the slots
        report = enumerate_orbit(
            Factorization(3, [None, (1, 2), (1, 2)]), keep_members=True
        )
        assert (None, (1, 2), (1, 2)) in report.members
        assert ((1, 2), None, (1, 2)) in report.members
        assert ((1, 2), (1, 2), None) in report.members
        assert report.orbit_size == 3

    def test_seed_is_preserved(self):
        f = Factorization(4, [(1, 2), (3, 4)])
        assert enumerate_orbit(f).seed is f

    def test_genus_zero_orbit_n4(self):
        # Hurwitz's genus-0 count (2n-2)! n^(n-3) = 2,880 at n = 4: a doubled
        # spanning tree seeds the one connected class of length 2n-2
        report = enumerate_orbit(
            Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4)])
        )
        assert (report.orbit_size, report.truncated) == (2880, False)

    def test_long_state_packs_and_decodes_in_linear_time(self):
        # packing, windowing and decoding go through the state's bytes once:
        # shifting the whole state once per slot took 4.8 s here
        f = Factorization(2, [(1, 2)] * 400_000)
        start = time.perf_counter()
        report = enumerate_orbit(f, keep_members=True)
        elapsed = time.perf_counter() - start
        assert (report.orbit_size, report.members) == (1, {f.factors})
        assert elapsed < 2.0

    def test_connected_class_n4_m8(self):
        # T(4, 8) = 131,040 connected identity 8-tuples on 4 points, from the
        # Frobenius character count; the theorem makes them one orbit
        f = Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4), (1, 2), (1, 2)])
        report = enumerate_orbit(f)
        assert (report.orbit_size, report.truncated) == (131_040, False)


@given(st.data())
@settings(max_examples=80)
def test_search_gives_the_single_moves_in_slot_order(data):
    # up to 8 factors, one window, or 34..40, which `_search` walks window
    # by window
    n = data.draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    length = data.draw(st.integers(0, 8) | st.integers(34, 40))
    factors = data.draw(
        st.lists(st.one_of(st.none(), st.sampled_from(pairs)), min_size=length, max_size=length)
    )
    f = Factorization(n, factors)
    expected = []
    for k in range(len(f) - 1):
        for d in (Direction.FORWARD, Direction.INVERSE):
            result = apply_move(f, HurwitzMove(d, k)).factors
            if result != f.factors and result not in expected:
                expected.append(result)
    points = len({p for x in f.factors if x is not None for p in x})
    table = _MoveTable(points, len(f))
    # the table packs endpoint pairs and decodes to the public factor tuple
    state = table.pack(f._pairs())
    assert table.decode(state) == f.factors
    # the first BFS level follows the seed: slots ascending, forward before
    # inverse; the cap stops the search right after it
    order = _search(state, table, len(expected) + 1)[0]
    assert [table.decode(s) for s in order] == [f.factors] + expected
    # with the cap reached, the first new state stops the search
    assert _search(state, table, 1) == ([state], bool(expected))


# the smallest number of points whose edges need 1, 2, ..., 10 bits a code
_POINTS_FOR_BITS = [2, 3, 4, 5, 7, 9, 12, 17, 24, 33]


@given(st.data())
@settings(max_examples=150)
def test_state_layout_round_trips_across_run_boundaries(data):
    """A state is its slots' codes, slot k at bit k * bits; above 33 slots,
    window j holds slots [32j, 32j + 33).  Codes of 1..10 bits, 1..130
    slots."""
    bits = data.draw(st.integers(1, 10))
    n = _POINTS_FOR_BITS[bits - 1]
    slots = data.draw(
        st.sampled_from([32, 33, 64, 65, 128, 129]) | st.integers(1, 130)
    )
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    factors = tuple(
        data.draw(st.lists(st.sampled_from(pairs + [(0, 0)]), min_size=slots, max_size=slots))
    )
    table = _MoveTable(n, slots)
    state = table.pack(factors)
    assert table.bits == bits
    codes = [table.codes[x] for x in factors]
    assert state == sum(code << k * bits for k, code in enumerate(codes))
    assert table.decode(state) == tuple(x if x[0] else None for x in factors)

    def window(j):
        return sum(code << k * bits for k, code in enumerate(codes[32 * j:32 * j + 33]))

    if slots > 33:  # a state of one window is read in place
        count = (slots - 2) // 32 + 1
        assert table.windows(state) == [window(j) for j in range(count)]


def _reference_orbit(f, cap):
    """BFS over factor tuples with one `apply_move` per slot and direction."""
    visited = {f.factors}
    queue = deque([f])
    while queue:
        g = queue.popleft()
        for k in range(len(g) - 1):
            for d in (Direction.FORWARD, Direction.INVERSE):
                h = apply_move(g, HurwitzMove(d, k))
                if h.factors in visited:
                    continue
                if len(visited) == cap:
                    return len(visited), True, visited
                visited.add(h.factors)
                queue.append(h)
    return len(visited), False, visited


def _agreement_cases():
    rng = random.Random(20260118)
    cases = [
        Factorization(5, []),
        Factorization(5, [(2, 4)]),
        Factorization(5, [None]),
        Factorization(4, [None] * 4),
    ]
    for _ in range(6):
        n = rng.randint(2, 4)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        m = rng.randint(2, 5)
        # identity factors mixed with transpositions
        cases.append(
            Factorization(n, [None if rng.random() < 0.3 else rng.choice(pairs) for _ in range(m)])
        )
    for _ in range(4):
        # high labels: the points 33..40 of S_40
        points = rng.sample(range(33, 41), 4)
        pairs = [(a, b) for a in points for b in points if a < b]
        cases.append(Factorization(40, [rng.choice(pairs) for _ in range(rng.randint(2, 5))]))
    return cases


def _wide_agreement_cases():
    """Seeds whose packed states cross window boundaries (a window holds 33
    slots) or need wide codes, with orbits too large to close."""
    rng = random.Random(20261018)
    # a doubled random recursive tree on 30 points: 435 edges, 9-bit codes,
    # 58 slots in two windows
    edges = [(rng.randint(1, v - 1), v) for v in range(2, 31)]
    tree = Factorization(30, edges + edges[::-1])
    # a palindrome on 6 points with identities: 70 slots in three windows,
    # 280 bits
    pairs = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    word = [None if rng.random() < 0.2 else rng.choice(pairs) for _ in range(35)]
    palindrome = Factorization(6, word + word[::-1])
    return {"tree30": tree, "palindrome70": palindrome}


def _boundary_agreement_cases():
    """Seeds of 32, 33 and 34 slots: the longest states the search expands
    in one window, and the shortest with two."""
    rng = random.Random(20261020)
    pairs = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    word = [rng.choice(pairs) for _ in range(17)]
    return {
        "palindrome32": Factorization(6, word[:16] + word[15::-1]),
        "palindrome33": Factorization(6, word[:16] + [None] + word[15::-1]),
        "palindrome34": Factorization(6, word + word[::-1]),
    }


def _assert_agrees(f, cap):
    size, truncated, members = _reference_orbit(f, cap)
    report = enumerate_orbit(f, cap=cap, keep_members=True)
    assert (report.orbit_size, report.truncated) == (size, truncated)
    assert report.members == members


@pytest.mark.parametrize("f", _agreement_cases(), ids=str)
@pytest.mark.parametrize("cap", [1, 2, 7, DEFAULT_CAP])
def test_agrees_with_reference_bfs(f, cap):
    _assert_agrees(f, cap)


@pytest.mark.parametrize("name", sorted(_wide_agreement_cases()))
@pytest.mark.parametrize("cap", [1, 2, 7, 500])
def test_agrees_with_reference_bfs_on_wide_states(name, cap):
    f = _wide_agreement_cases()[name]
    assert len(f) > 33
    _assert_agrees(f, cap)


@pytest.mark.parametrize("name", sorted(_boundary_agreement_cases()))
@pytest.mark.parametrize("cap", [1, 2, 7, 500])
def test_agrees_with_reference_bfs_across_the_window_boundary(name, cap):
    f = _boundary_agreement_cases()[name]
    assert len(f) == int(name[-2:])
    _assert_agrees(f, cap)


class TestMemoryBudget:
    """A search that would hold more than its byte budget is refused, never
    truncated; the message names the states reached and the cap that fits."""

    @pytest.mark.parametrize(
        "f, size",
        [
            # the connected n = 4, m = 8 class: 131,040 states of 24 bits
            (Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4), (1, 2), (1, 2)]), 114),
            # 70 slots of 4 bits, in three windows
            (_wide_agreement_cases()["palindrome70"], 150),
        ],
        ids=["one window", "three windows"],
    )
    def test_refused_past_the_budget(self, f, size):
        states = (1 << 20) // size
        with patch("hurwitz.oracle._SEARCH_BUDGET", 1 << 20):
            with pytest.raises(PreconditionError) as info:
                enumerate_orbit(f)
            assert str(info.value) == (
                f"orbit search stopped at its memory budget of 1 MiB: {states} "
                f"states of about {size} B each; a cap of at most {states} fits"
            )
            # that cap is a truncated search, as without the budget
            report = enumerate_orbit(f, cap=states)
        assert (report.orbit_size, report.truncated) == (states, True)

    def test_an_orbit_inside_the_budget_is_exact(self):
        f = Factorization(4, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4)])
        with patch("hurwitz.oracle._SEARCH_BUDGET", 1 << 20):
            report = enumerate_orbit(f)
            partition = orbit_partition(4, 6)
        assert (report.orbit_size, report.truncated) == (2880, False)
        assert sum(r.orbit_size for _, reports in partition for r in reports) == 3_936


class TestEnumeration:
    def test_degree_two(self):
        factors = [f.factors for f in enumerate_identity_factorizations(2, 2)]
        assert factors == [((1, 2), (1, 2))]

    def test_degree_three_length_two(self):
        factors = [f.factors for f in enumerate_identity_factorizations(3, 2)]
        assert factors == [
            ((1, 2), (1, 2)),
            ((1, 3), (1, 3)),
            ((2, 3), (2, 3)),
        ]

    def test_counts(self):
        assert sum(1 for _ in enumerate_identity_factorizations(3, 4)) == 27
        assert sum(1 for _ in enumerate_identity_factorizations(4, 2)) == 6
        assert sum(1 for _ in enumerate_identity_factorizations(2, 4)) == 1

    def test_odd_length_empty(self):
        assert list(enumerate_identity_factorizations(3, 3)) == []

    def test_odd_length_lists_no_transpositions(self):
        # length 1 passes the guard up to degree 14,142; listing all
        # n(n-1)/2 transpositions first peaked at 102.4 MB at degree 1500
        tracemalloc.start()
        try:
            assert list(enumerate_identity_factorizations(1500, 1)) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert orbit_partition(1500, 1) == []

    def test_length_zero(self):
        factorizations = list(enumerate_identity_factorizations(3, 0))
        assert len(factorizations) == 1
        assert factorizations[0].factors == ()

    @pytest.mark.parametrize(
        "degree, length",
        [(n, m) for n in (2, 3, 4) for m in range(6)] + [(5, m) for m in range(5)],
    )
    def test_equals_filtered_product(self, degree, length):
        # every tuple of transpositions in product order, kept when its
        # left-to-right product fixes every point
        pairs = [
            (a, b) for a in range(1, degree + 1) for b in range(a + 1, degree + 1)
        ]

        def is_identity(factors):
            images = list(range(degree + 1))
            for a, b in factors:
                images = [b if x == a else a if x == b else x for x in images]
            return images == list(range(degree + 1))

        expected = [
            t for t in itertools.product(pairs, repeat=length) if is_identity(t)
        ]
        got = [f.factors for f in enumerate_identity_factorizations(degree, length)]
        assert got == expected

    def test_lexicographic_order(self):
        seen = [f.factors for f in enumerate_identity_factorizations(3, 4)]
        assert seen == sorted(seen)

    def test_products_are_identity(self):
        for f in enumerate_identity_factorizations(4, 4):
            assert f.product() == [0, 1, 2, 3, 4]

    def test_guard_refuses_huge_spaces(self):
        with pytest.raises(PreconditionError, match="guard"):
            next(enumerate_identity_factorizations(6, 12))

    def test_guard_boundary(self):
        # degree 5 has 10 transpositions: 10^8 candidate tuples pass, 10^9 do not
        assert next(enumerate_identity_factorizations(5, 8)).factors == ((1, 2),) * 8
        with pytest.raises(PreconditionError, match="guard"):
            next(enumerate_identity_factorizations(5, 9))
        with pytest.raises(PreconditionError, match="guard"):
            next(enumerate_identity_factorizations(2, 10**8 + 1))

    def test_slot_guard_at_degree_two(self):
        # one candidate tuple at any length; the length itself is bounded
        with pytest.raises(PreconditionError, match="1000000 slots"):
            next(enumerate_identity_factorizations(2, DEFAULT_CAP + 1))

    def test_degenerate_arguments(self):
        with pytest.raises(PreconditionError):
            next(enumerate_identity_factorizations(1, 2))
        with pytest.raises(PreconditionError):
            next(enumerate_identity_factorizations(3, -1))

    def test_degree_bounded(self):
        with pytest.raises(PreconditionError, match="degree"):
            next(enumerate_identity_factorizations(MAX_DEGREE + 1, 0))
        with pytest.raises(PreconditionError, match="degree"):
            next(enumerate_identity_factorizations(10**12, 0))

    def test_length_zero_at_the_largest_degree(self):
        # one empty factorization, without listing the n(n-1)/2 transpositions
        factorizations = list(enumerate_identity_factorizations(MAX_DEGREE, 0))
        assert [f.factors for f in factorizations] == [()]
        assert factorizations[0].degree == MAX_DEGREE


class TestOrbitPartition:
    def test_degree_three_length_four(self):
        partition = orbit_partition(3, 4)
        # 4 signature classes, each a single orbit; sizes 1,1,1,24
        assert len(partition) == 4
        sizes = sorted(
            report.orbit_size
            for _, reports in partition
            for report in reports
        )
        assert sizes == [1, 1, 1, 24]
        for sig, reports in partition:
            assert len(reports) == 1
            assert signature(reports[0].seed) == sig
            assert not reports[0].truncated

    def test_total_accounts_for_everything(self):
        partition = orbit_partition(4, 4)
        total = sum(r.orbit_size for _, reports in partition for r in reports)
        assert total == 120
        assert len(partition) == 13

    def test_truncation_propagates(self):
        partition = orbit_partition(3, 4, cap=5)
        assert any(
            r.truncated for _, reports in partition for r in reports
        )

    def test_members_are_dropped(self):
        for _, reports in orbit_partition(3, 2):
            for report in reports:
                assert report.members is None

    def test_partitions_are_pinned(self):
        # signature, seed, orbit size and truncation of every orbit, as the
        # census read them when it still decoded every member
        digest = hashlib.sha256()
        for n, m, cap in [(2, 4, DEFAULT_CAP), (3, 4, DEFAULT_CAP), (3, 6, DEFAULT_CAP),
                          (4, 4, DEFAULT_CAP), (5, 4, DEFAULT_CAP), (4, 6, DEFAULT_CAP),
                          (3, 4, 5)]:
            for sig, reports in orbit_partition(n, m, cap=cap):
                for r in reports:
                    digest.update(
                        f"{format_signature(sig)}\t{format_factorization(r.seed)}\t"
                        f"{r.orbit_size}\t{r.truncated}\n".encode()
                    )
        assert digest.hexdigest() == (
            "cc2338e608284c676dc605724ef9311cb07e68facd5d9ae132715b78bb817c48"
        )

    def test_members_are_never_decoded(self):
        def no_decode(*_):
            raise AssertionError("the census decoded a member")

        with patch.object(_MoveTable, "decode", no_decode):
            partition = orbit_partition(4, 6)
        assert sum(r.orbit_size for _, reports in partition for r in reports) == 3_936
