"""Graph invariant: edge weights, components, signature, DOT."""

import re
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

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
