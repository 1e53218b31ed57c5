"""Graph invariant: edge weights, components, signature, DOT."""

import random
import re
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import factorization
from hurwitz.factorization import (
    Factorization,
    HurwitzMove,
    Direction,
    apply_certificate,
    parse_factorization,
)
from hurwitz.graph import (
    ComponentSignature,
    _dot_lines,
    format_signature,
    signature,
)

F1 = parse_factorization("n=6; [(2,6),(1,4),(1,5),(3,6),(4,5),(1,5),(2,3),(3,6)]")
F2 = parse_factorization("n=6; [(2,6),(1,5),(3,6),(3,6),(2,6),(1,5),(1,4),(1,4)]")


def edge_weights(f):
    """Reference edge multiplicities: a Counter fold over the factors."""
    counts = Counter(f.factors)
    counts.pop(None, None)
    return dict(counts)


def reference_signature(f):
    """The signature by breadth-first labelling of the distinct edges, with
    weights from a Counter fold over all the factors."""
    counts = Counter(f.factors)
    identity = counts.pop(None, 0)
    adj = {}
    for a, b in counts:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    label = {}
    for start in sorted(adj):
        if start in label:
            continue
        label[start] = start
        queue = deque([start])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in label:
                    label[w] = start
                    queue.append(w)
    members, weights = {}, Counter()
    for v in sorted(label):
        members.setdefault(label[v], []).append(v)
    for (a, _), w in counts.items():
        weights[label[a]] += w
    return ComponentSignature(
        degree=f.degree,
        total_factors=len(f),
        identity_factor_count=identity,
        components=tuple((tuple(vs), weights[root]) for root, vs in members.items()),
    )


def dot_edges(f):
    """The edge weights the DOT lines render, as {(a, b): weight}."""
    text = "\n".join(_dot_lines(f))
    return {
        (int(a), int(b)): int(w)
        for a, b, w in re.findall(r'  (\d+) -- (\d+) \[label="w=(\d+)"\];', text)
    }


class TestEdgeWeights:
    def test_worked_example_edge_weights(self):
        expected = {
            (1, 4): 1,
            (1, 5): 2,
            (4, 5): 1,
            (2, 6): 1,
            (3, 6): 2,
            (2, 3): 1,
        }
        assert dot_edges(F1) == edge_weights(F1) == expected
        assert signature(F1).identity_factor_count == 0
        assert sum(dot_edges(F1).values()) == len(F1) == 8

    def test_empty(self):
        assert dot_edges(Factorization(4, [])) == edge_weights(Factorization(4, [])) == {}

    def test_identity_factors_counted_separately(self):
        f = Factorization(3, [None, None])
        assert dot_edges(f) == {}
        assert signature(f).identity_factor_count == 2

    @given(st.data())
    @settings(max_examples=100)
    def test_dot_edges_agree_with_counter_fold(self, data):
        n = data.draw(st.integers(2, 8))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        f = Factorization(n, data.draw(st.lists(st.sampled_from(pairs + [None]), max_size=20)))
        assert dot_edges(f) == edge_weights(f)
        assert list(dot_edges(f)) == sorted(edge_weights(f))


class TestSignatureComponents:
    """The union-find inside `signature`, against a breadth-first labelling."""

    def test_points_without_edges_drop_out(self):
        assert signature(Factorization(7, [(6, 4), (4, 2)])).components == (
            ((2, 4, 6), 2),
        )
        assert signature(Factorization(3, [])).components == ()
        assert signature(Factorization(3, [None])).components == ()

    @given(st.data())
    @settings(max_examples=100)
    def test_agrees_with_breadth_first_labelling(self, data):
        n = data.draw(st.integers(2, 12))
        point = st.integers(1, n)
        edge = st.tuples(point, point).filter(lambda e: e[0] != e[1])
        edges = data.draw(st.lists(edge, max_size=15))
        adj = {v: set() for v in range(1, n + 1)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        label = [0] * (n + 1)
        for start in range(1, n + 1):
            if label[start]:
                continue
            label[start] = start
            queue = deque([start])
            while queue:
                for w in adj[queue.popleft()]:
                    if not label[w]:
                        label[w] = start
                        queue.append(w)
        weight = Counter(label[a] for a, _ in edges)
        expected = tuple(
            (tuple(v for v in range(1, n + 1) if label[v] == root), weight[root])
            for root in sorted(weight)
        )
        assert signature(Factorization(n, edges)).components == expected


class TestSignature:
    def test_worked_example_pair_agrees(self):
        s1, s2 = signature(F1), signature(F2)
        assert s1.components == (((1, 4, 5), 4), ((2, 3, 6), 4))
        assert s1 == s2
        assert s1.identity_factor_count == 0
        assert s1.total_factors == 8

    def test_single_doubled_edge(self):
        s = signature(Factorization(5, [(1, 2), (1, 2)]))
        assert s.components == (((1, 2), 2),)
        assert s.degree == 5

    def test_isolated_vertices_excluded(self):
        s = signature(Factorization(9, [(2, 3), (2, 3)]))
        assert s.components == (((2, 3), 2),)

    def test_identity_count_and_total(self):
        s = signature(Factorization(3, [None, (1, 2), None, (1, 2)]))
        assert s.identity_factor_count == 2
        assert s.total_factors == 4
        assert sum(w for _, w in s.components) + s.identity_factor_count == 4

    def test_degree_matters(self):
        a = signature(Factorization(3, [(1, 2), (1, 2)]))
        b = signature(Factorization(4, [(1, 2), (1, 2)]))
        assert a != b

    def test_weight_counts_multiplicity(self):
        s = signature(Factorization(3, [(1, 2)] * 5))
        assert s.components == (((1, 2), 5),)

    @given(st.data())
    @settings(max_examples=60)
    def test_move_invariance(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        factors = data.draw(
            st.lists(st.one_of(st.none(), st.sampled_from(pairs)), min_size=2, max_size=10)
        )
        f = Factorization(n, factors)
        moves = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from([Direction.FORWARD, Direction.INVERSE]),
                    st.integers(0, len(f) - 2),
                ),
                max_size=40,
            )
        )
        g = apply_certificate(f, [HurwitzMove(d, k) for d, k in moves])
        assert signature(g) == signature(f)

    def test_component_weights_even_for_identity_factorizations(self):
        # each component subproduct is the identity, an even permutation
        from hurwitz.oracle import enumerate_identity_factorizations

        for f in enumerate_identity_factorizations(4, 4):
            for vertices, weight in signature(f).components:
                assert weight % 2 == 0
                assert weight >= 2 * (len(vertices) - 1)


class TestSignatureLengthsAndMemory:
    """signature agrees with the reference on short drawn inputs and on long
    ones: lengths around 131,072 factors with identities on both sides of
    its multiples, two paths joined by the last factor, all identities."""

    @given(st.data())
    @settings(max_examples=150)
    def test_agrees_with_reference_on_drawn_inputs(self, data):
        n = data.draw(st.integers(1, 10))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        f = Factorization(
            n, data.draw(st.lists(st.sampled_from(pairs + [None]), max_size=40))
        )
        assert signature(f) == reference_signature(f)

    @pytest.mark.parametrize(
        "chunks, extra",
        [(1, -1), (1, 0), (1, 1), (3, 7)],
        ids=["chunk-1", "chunk", "chunk+1", "3chunk+7"],
    )
    def test_lengths_around_the_chunk_size(self, chunks, extra):
        m = chunks * 131_072 + extra
        rng = random.Random(m)
        n = 3000
        factors = [
            None if rng.random() < 0.05 else tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(m)
        ]
        # identities on both sides of every multiple of 131,072
        for k in range(131_072, m, 131_072):
            factors[k - 1] = factors[k] = None
        f = Factorization(n, factors)
        assert signature(f) == reference_signature(f)

    def test_halves_joined_in_the_last_chunk(self):
        # odd and even points form two paths, each resolved to its own root
        # over the first 262,144 factors, and the last factor joins them
        n = 200
        odd = [(a, a + 2) for a in range(1, n - 1, 2)]
        even = [(a, a + 2) for a in range(2, n - 1, 2)][::-1]
        cycle = odd + even
        factors = [cycle[k % len(cycle)] for k in range(2 * 131_072)]
        f = Factorization(n, factors + [(n - 1, n)])
        s = signature(f)
        assert s == reference_signature(f)
        assert s.components == ((tuple(range(1, n + 1)), len(f)),)

    def test_large_degree_few_factors(self):
        f = Factorization(10**6, [(1, 10**6), (500_000, 10**6), (2, 3)])
        assert signature(f).components == (
            ((1, 500_000, 10**6), 2),
            ((2, 3), 1),
        )
        assert signature(f) == reference_signature(f)

    def test_all_identities_and_empty(self):
        f = Factorization(5, [None] * 131_073)
        assert signature(f) == ComponentSignature(5, 131_073, 131_073, ())
        assert signature(Factorization(5, [])) == ComponentSignature(5, 0, 0, ())

    def test_memory_stays_near_one_chunk(self):
        # a million distinct edges: one dict of them all peaked at 63 MB
        # under tracemalloc; signature holds three lists of degree + 1 and
        # the components, with no term that grows with m
        n = 1415
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        f = Factorization(n, pairs[:1_000_000])
        del pairs
        tracemalloc.start()
        try:
            s = signature(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.components == ((tuple(range(1, n + 1)), 1_000_000),)
        assert peak < 12_000_000, f"signature peaked at {peak / 1e6:.1f} MB"

    def test_memory_does_not_grow_with_m(self, monkeypatch):
        # the first m distinct edges at n = 1415, parsed from text, with the
        # public factor tuple refused: signature reads the endpoint arrays,
        # and the peak at a million factors is within 0.25 MB of the peak at
        # a thousand
        def refuse(pairs):
            raise AssertionError("signature built the public factor tuple")

        monkeypatch.setattr(factorization, "_as_factors", refuse)
        n = 1415
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        peaks = []
        for m in (1_000, 1_000_000):
            text = "n=%d; [%s]" % (n, ",".join("(%d,%d)" % p for p in pairs[:m]))
            f = parse_factorization(text)
            del text
            tracemalloc.start()
            try:
                s = signature(f)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert s.total_factors == m
            del f
        growth = peaks[1] - peaks[0]
        assert growth < 250_000, f"signature's peak grew by {growth / 1e6:.2f} MB"


class TestFormatting:
    def test_signature_string(self):
        assert (
            format_signature(signature(F1))
            == str(signature(F1))
            == "n=6; m=8; e=0; [{1,4,5}:4,{2,3,6}:4]"
        )

    def test_signature_string_empty(self):
        s = signature(Factorization(3, [None]))
        assert format_signature(s) == "n=3; m=1; e=1; []"

    def test_dot_output_stable(self):
        expected = (
            "graph factorization {\n"
            "  1;\n  2;\n  3;\n  4;\n  5;\n  6;\n"
            '  1 -- 4 [label="w=1"];\n'
            '  1 -- 5 [label="w=2"];\n'
            '  2 -- 3 [label="w=1"];\n'
            '  2 -- 6 [label="w=1"];\n'
            '  3 -- 6 [label="w=2"];\n'
            '  4 -- 5 [label="w=1"];\n'
            "}\n"
        )
        assert "".join(f"{line}\n" for line in _dot_lines(F1)) == expected

    def test_signature_is_hashable_value(self):
        assert len({signature(F1), signature(F2)}) == 1
