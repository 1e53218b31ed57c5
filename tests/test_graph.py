"""Graph invariant: edge weights, components, signature, DOT."""

import random
import re
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import graph
from hurwitz.factorization import (
    Factorization,
    HurwitzMove,
    Direction,
    apply_certificate,
    parse_factorization,
)
from hurwitz.graph import (
    ComponentSignature,
    component_labels,
    format_signature,
    signature,
    to_dot,
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
    """The edge weights to_dot renders, as {(a, b): weight}."""
    return {
        (int(a), int(b)): int(w)
        for a, b, w in re.findall(r'  (\d+) -- (\d+) \[label="w=(\d+)"\];', to_dot(f))
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


class TestComponentLabels:
    def test_points_without_edges_label_themselves(self):
        assert component_labels(7, [(6, 4), (4, 2)]) == [0, 1, 2, 3, 2, 5, 2, 7]
        assert component_labels(3, []) == [0, 1, 2, 3]

    @given(st.data())
    @settings(max_examples=100)
    def test_agrees_with_breadth_first_labelling(self, data):
        n = data.draw(st.integers(1, 12))
        point = st.integers(1, n)
        edges = data.draw(st.lists(st.tuples(point, point), max_size=15))
        adj = {v: set() for v in range(1, n + 1)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        expected = [0] * (n + 1)
        for start in range(1, n + 1):
            if expected[start]:
                continue
            expected[start] = start
            queue = deque([start])
            while queue:
                for w in adj[queue.popleft()]:
                    if not expected[w]:
                        expected[w] = start
                        queue.append(w)
        assert component_labels(n, edges) == expected


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


class TestSignatureChunks:
    """signature counts the factors graph._CHUNK at a time; these inputs put
    edges, identities and joins on either side of the chunk boundaries."""

    @given(st.data())
    @settings(max_examples=150)
    def test_agrees_with_reference_for_any_chunk_size(self, data):
        n = data.draw(st.integers(1, 10))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        f = Factorization(
            n, data.draw(st.lists(st.sampled_from(pairs + [None]), max_size=40))
        )
        chunk = data.draw(st.sampled_from([1, 2, 3, 5, 8, graph._CHUNK]))
        saved = graph._CHUNK
        graph._CHUNK = chunk
        try:
            assert signature(f) == reference_signature(f)
        finally:
            graph._CHUNK = saved

    @pytest.mark.parametrize(
        "chunks, extra",
        [(1, -1), (1, 0), (1, 1), (3, 7)],
        ids=["chunk-1", "chunk", "chunk+1", "3chunk+7"],
    )
    def test_lengths_around_the_chunk_size(self, chunks, extra):
        m = chunks * graph._CHUNK + extra
        rng = random.Random(m)
        n = 3000
        factors = [
            None if rng.random() < 0.05 else tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(m)
        ]
        # identities on both sides of every boundary
        for k in range(graph._CHUNK, m, graph._CHUNK):
            factors[k - 1] = factors[k] = None
        f = Factorization(n, factors)
        assert signature(f) == reference_signature(f)

    def test_halves_joined_in_the_last_chunk(self):
        # odd and even points form two paths, each resolved to its own root
        # over the first chunks, and the last factor joins them
        n = 200
        odd = [(a, a + 2) for a in range(1, n - 1, 2)]
        even = [(a, a + 2) for a in range(2, n - 1, 2)][::-1]
        cycle = odd + even
        factors = [cycle[k % len(cycle)] for k in range(2 * graph._CHUNK)]
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
        f = Factorization(5, [None] * (graph._CHUNK + 1))
        assert signature(f) == ComponentSignature(5, graph._CHUNK + 1, graph._CHUNK + 1, ())
        assert signature(Factorization(5, [])) == ComponentSignature(5, 0, 0, ())

    def test_memory_stays_near_one_chunk(self):
        # a million distinct edges: one dict of them all peaked at 63 MB
        # under tracemalloc, a chunk at a time peaks at 9 MB, and 14 MB when
        # the last chunk's dict outlives the building of the next
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


class TestFormatting:
    def test_signature_string(self):
        assert (
            format_signature(signature(F1))
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
        assert to_dot(F1) == expected

    def test_signature_is_hashable_value(self):
        assert len({signature(F1), signature(F2)}) == 1
