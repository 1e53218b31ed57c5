"""Braid words, projection, and compatibility of the two move actions."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.braid import (
    BraidTuple,
    BraidWord,
    _projection_factor,
    braid_hurwitz_move,
    format_braid_tuple,
    parse_braid_tuple,
    project_tuple,
)
from hurwitz.errors import FormatError, MoveRangeError, PreconditionError
from hurwitz.factorization import MAX_DEGREE, Direction, HurwitzMove, apply_move
from hurwitz.perm import Permutation, transposition_product


def word(degree, *letters):
    return BraidWord(degree, letters)


def project_word(word):
    """Reference image of a word: the product of its letters'
    transpositions (|x|, |x|+1), sign ignored, over all its degree."""
    return transposition_product(
        word.degree, ((abs(x), abs(x) + 1) for x in word.letters)
    )


def compose(p, q):
    """Reference left-to-right product of two permutations: p first, then q."""
    return Permutation(p.degree, tuple(q.images[i - 1] for i in p.images))


def inverse(p):
    """Reference inverse of a permutation."""
    images = [0] * p.degree
    for i, image in enumerate(p.images, 1):
        images[image - 1] = i
    return Permutation(p.degree, tuple(images))


class TestBraidWord:
    def test_letter_range_enforced(self):
        with pytest.raises(PreconditionError):
            word(3, 3)
        with pytest.raises(PreconditionError):
            word(3, 0)
        with pytest.raises(PreconditionError):
            word(3, -3)
        word(3, 1, 2, -1, -2)  # fine

    def test_degree_must_be_positive(self):
        with pytest.raises(PreconditionError):
            BraidWord(0, ())

    def test_inverse_reverses_and_negates(self):
        assert word(4, 1, 2, -3).inverse().letters == (3, -2, -1)
        assert word(4).inverse().letters == ()

    def test_concat_checks_degree(self):
        with pytest.raises(PreconditionError):
            word(3, 1).concat(word(4, 1))
        assert word(3, 1).concat(word(3, 2)).letters == (1, 2)


class TestProjection:
    def test_single_generator(self):
        assert project_word(word(3, 1)) == Permutation.transposition(3, 1, 2)

    def test_sign_ignored(self):
        assert project_word(word(3, -1)) == project_word(word(3, 1))

    def test_empty_word_is_identity(self):
        assert project_word(word(5)) == Permutation.identity(5)

    def test_braid_relator_projects_to_identity(self):
        # sigma1 sigma2 sigma1 sigma2 sigma1 sigma2 maps to ((1,2)(2,3))^3 = id
        assert project_word(word(3, 1, 2, 1, 2, 1, 2)) == Permutation.identity(3)

    @given(st.data())
    @settings(max_examples=80)
    def test_morphism(self, data):
        n = data.draw(st.integers(2, 6))
        alphabet = [s * i for i in range(1, n) for s in (1, -1)]
        letters = st.lists(st.sampled_from(alphabet), max_size=8)
        u = BraidWord(n, data.draw(letters))
        v = BraidWord(n, data.draw(letters))
        assert project_word(u.concat(v)) == compose(project_word(u), project_word(v))

    def test_inverse_projects_to_inverse(self):
        w = word(4, 1, 3, 2, -1)
        assert project_word(w.inverse()) == inverse(project_word(w))

    @given(st.data())
    @settings(max_examples=300)
    def test_projection_factor_agrees_with_full_permutation(self, data):
        """The factor taken on the touched strands alone is the one the
        degree-n permutation shows: the identity, its one transposition, or
        PreconditionError for any other image."""
        n = data.draw(st.integers(2, 7))
        alphabet = [s * i for i in range(1, n) for s in (1, -1)]
        w = BraidWord(n, data.draw(st.lists(st.sampled_from(alphabet), max_size=8)))
        images = project_word(w).images
        moved = [i for i, image in enumerate(images, 1) if image != i]
        if len(moved) in (0, 2):
            assert _projection_factor(w) == (tuple(moved) or None)
        else:
            with pytest.raises(PreconditionError):
                _projection_factor(w)


class TestProjectTuple:
    def test_transpositions_and_identity(self):
        t = BraidTuple(3, [word(3, 1), word(3, 2, 2), word(3, -2)])
        assert project_tuple(t).factors == ((1, 2), None, (2, 3))

    def test_non_transposition_image_rejected_with_index(self):
        t = BraidTuple(3, [word(3, 1), word(3, 1, 2)])
        with pytest.raises(PreconditionError, match="word 1"):
            project_tuple(t)

    def test_conjugated_generator_projects_to_moved_pair(self):
        # sigma2 sigma1 sigma2^-1 projects to (2,3)(1,2)(2,3) = (1,3)
        t = BraidTuple(3, [word(3, 2, 1, -2)])
        assert project_tuple(t).factors == ((1, 3),)

    def test_empty_tuple(self):
        assert len(project_tuple(BraidTuple(3, []))) == 0

    def test_large_degree_projects_in_small_memory(self):
        """Projection works on the strands each word touches, so a tuple of
        short words at the largest degree allocates nothing degree-sized."""
        n = MAX_DEGREE
        t = BraidTuple(n, [word(n, 1), word(n, n - 1), word(n, 500, -500), word(n, 7, 8, -7)])
        tracemalloc.start()
        try:
            f = project_tuple(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.factors == ((1, 2), (n - 1, n), None, (7, 9))
        assert peak < 1_000_000

    def test_degree_mismatch_in_tuple(self):
        with pytest.raises(PreconditionError):
            BraidTuple(3, [word(4, 1)])


class TestBraidMove:
    def test_forward_example(self):
        b = BraidTuple(3, [word(3, 1), word(3, 2)])
        moved = braid_hurwitz_move(b, HurwitzMove(Direction.FORWARD, 0))
        assert [w.letters for w in moved.words] == [(1, 2, -1), (1,)]

    def test_inverse_example(self):
        b = BraidTuple(3, [word(3, 1), word(3, 2)])
        moved = braid_hurwitz_move(b, HurwitzMove(Direction.INVERSE, 0))
        assert [w.letters for w in moved.words] == [(2,), (-2, 1, 2)]

    def test_words_grow_but_projection_returns(self):
        b = BraidTuple(3, [word(3, 1), word(3, 2)])
        f = braid_hurwitz_move(b, HurwitzMove(Direction.FORWARD, 0))
        back = braid_hurwitz_move(f, HurwitzMove(Direction.INVERSE, 0))
        # free words do not cancel, so the tuple is textually longer
        assert sum(len(w) for w in back.words) > sum(len(w) for w in b.words)
        assert project_tuple(back) == project_tuple(b)

    def test_out_of_range(self):
        b = BraidTuple(3, [word(3, 1), word(3, 2)])
        with pytest.raises(MoveRangeError):
            braid_hurwitz_move(b, HurwitzMove(Direction.FORWARD, 1))
        with pytest.raises(MoveRangeError):
            braid_hurwitz_move(b, HurwitzMove(Direction.INVERSE, -1))

    def test_commuting_square_sampled(self):
        rng = random.Random(20260819)
        for _ in range(200):
            n = rng.randint(2, 5)
            m = rng.randint(2, 5)
            words = []
            for _ in range(m):
                # keep images projectable: a generator conjugated by junk
                conj = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 3))]
                core = [rng.randint(1, n - 1)]
                words.append(BraidWord(n, conj + core + [-x for x in reversed(conj)]))
            b = BraidTuple(n, words)
            f = project_tuple(b)
            k = rng.randrange(m - 1)
            mv = HurwitzMove(rng.choice([Direction.FORWARD, Direction.INVERSE]), k)
            assert project_tuple(braid_hurwitz_move(b, mv)) == apply_move(f, mv)


class TestBraidText:
    def test_round_trip(self):
        b = BraidTuple(3, [word(3, 1, 2, -1), word(3, 2)])
        assert format_braid_tuple(b) == "n=3; [1 2 -1 | 2]"
        assert parse_braid_tuple("n=3; [1 2 -1 | 2]") == b

    def test_empty_tuple_round_trip(self):
        assert format_braid_tuple(BraidTuple(4, [])) == "n=4; []"
        assert parse_braid_tuple("n=4; []") == BraidTuple(4, [])

    def test_empty_word_segment(self):
        b = parse_braid_tuple("n=3; [ | 2]")
        assert [w.letters for w in b.words] == [(), (2,)]

    def test_format_word(self):
        assert format_braid_tuple(BraidTuple(4, [word(4, 1, -3, 2)])) == "n=4; [1 -3 2]"

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            parse_braid_tuple("[1 2]")

    def test_bad_letter_names_word(self):
        with pytest.raises(FormatError, match="word 1"):
            parse_braid_tuple("n=3; [1 | x]")

    def test_out_of_range_letter_names_word(self):
        with pytest.raises(FormatError, match="word 0"):
            parse_braid_tuple("n=3; [7]")
