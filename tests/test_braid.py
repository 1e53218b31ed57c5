"""Braid words, projection, and compatibility of the two move actions."""

import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.braid import (
    BraidTuple,
    BraidWord,
    _projection_factor,
    braid_hurwitz_move,
    parse_braid_tuple,
    project_tuple,
)
from hurwitz.errors import FormatError, MoveRangeError, PreconditionError
from hurwitz.factorization import MAX_DEGREE, Direction, HurwitzMove, apply_move


def word(degree, *letters):
    return BraidWord(degree, letters)


def braid_text(b):
    """The text form of a braid tuple, as README gives it."""
    body = " | ".join(" ".join(map(str, w.letters)) for w in b.words)
    return f"n={b.degree}; [{body}]"


def inverse_letters(letters):
    """Reference letters of a word's inverse: reversed, each negated."""
    return tuple(-x for x in reversed(letters))


def project_word(word):
    """Reference image tuple of a word (entry i - 1 is the image of the
    point i): its letters' transpositions (|x|, |x|+1), sign ignored,
    applied left to right over all its degree."""
    images = tuple(range(1, word.degree + 1))
    for x in word.letters:
        a, b = abs(x), abs(x) + 1
        images = tuple(b if y == a else a if y == b else y for y in images)
    return images


def compose(p, q):
    """Reference left-to-right product of two image tuples: p first, then q."""
    return tuple(q[i - 1] for i in p)


def inverse(p):
    """Reference inverse of an image tuple."""
    images = [0] * len(p)
    for i, image in enumerate(p, 1):
        images[image - 1] = i
    return tuple(images)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: BraidWord(3, ["1"]),
        lambda: BraidWord(3, [1.0]),
        lambda: BraidWord(3, [True]),
        lambda: BraidWord(3.5, [1, 2, 3]),
        lambda: BraidTuple(2.5, []),
        lambda: BraidTuple(0, []),
        lambda: BraidTuple(3, [(1,)]),
        lambda: HurwitzMove("F", 0),
        lambda: HurwitzMove(Direction.FORWARD, 1.0),
        lambda: HurwitzMove(Direction.FORWARD, True),
    ],
    ids=[
        "str-letter",
        "float-letter",
        "bool-letter",
        "float-word-degree",
        "float-tuple-degree",
        "zero-tuple-degree",
        "tuple-not-word",
        "str-direction",
        "float-position",
        "bool-position",
    ],
)
def test_public_constructors_raise_precondition_error(build):
    with pytest.raises(PreconditionError):
        build()


class TestProjection:
    def test_single_generator(self):
        assert project_word(word(3, 1)) == (2, 1, 3)

    def test_sign_ignored(self):
        assert project_word(word(3, -1)) == project_word(word(3, 1))

    def test_empty_word_is_identity(self):
        assert project_word(word(5)) == (1, 2, 3, 4, 5)

    def test_braid_relator_projects_to_identity(self):
        # sigma1 sigma2 sigma1 sigma2 sigma1 sigma2 maps to ((1,2)(2,3))^3 = id
        assert project_word(word(3, 1, 2, 1, 2, 1, 2)) == (1, 2, 3)

    @given(st.data())
    @settings(max_examples=80)
    def test_morphism(self, data):
        n = data.draw(st.integers(2, 6))
        alphabet = [s * i for i in range(1, n) for s in (1, -1)]
        letters = st.lists(st.sampled_from(alphabet), max_size=8)
        u = BraidWord(n, data.draw(letters))
        v = BraidWord(n, data.draw(letters))
        uv = BraidWord(n, u.letters + v.letters)
        assert project_word(uv) == compose(project_word(u), project_word(v))

    def test_inverse_projects_to_inverse(self):
        w = word(4, 1, 3, 2, -1)
        w_inv = BraidWord(4, inverse_letters(w.letters))
        assert project_word(w_inv) == inverse(project_word(w))

    @given(st.data())
    @settings(max_examples=300)
    def test_projection_factor_agrees_with_full_permutation(self, data):
        """The factor taken on the touched strands alone is the one the
        degree-n permutation shows: the identity, its one transposition, or
        PreconditionError for any other image."""
        n = data.draw(st.integers(2, 7))
        alphabet = [s * i for i in range(1, n) for s in (1, -1)]
        w = BraidWord(n, data.draw(st.lists(st.sampled_from(alphabet), max_size=8)))
        images = project_word(w)
        moved = [i for i, image in enumerate(images, 1) if image != i]
        if len(moved) in (0, 2):
            # inside the package the identity is the endpoint pair (0, 0)
            assert _projection_factor(w) == (tuple(moved) or (0, 0))
        else:
            with pytest.raises(PreconditionError):
                _projection_factor(w)


class TestProjectTuple:
    def test_transpositions_and_identity(self):
        t = BraidTuple(3, [word(3, 1), word(3, 2, 2), word(3, -2)])
        assert len(t) == 3 and list(t) == list(t.words)
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

    def test_degree_above_the_largest_is_refused(self):
        n = MAX_DEGREE + 1
        with pytest.raises(PreconditionError, match="at most"):
            project_tuple(BraidTuple(n, [word(n, 1)]))

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

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_letter_reference(self, data):
        """Forward gives u v u^-1, u and inverse v, v^-1 u v, letter for
        letter; every other word stays.  Moves build their words without
        the validating constructors, so those are patched to fail once the
        input is built, over a run of moves whose words keep growing; every
        word a move gives keeps a BraidWord's invariants."""
        n = data.draw(st.integers(2, 6))
        alphabet = [s * i for i in range(1, n) for s in (1, -1)]
        letters = st.lists(st.sampled_from(alphabet), max_size=5).map(tuple)
        words = data.draw(st.lists(letters, min_size=2, max_size=5))
        moves = data.draw(st.lists(
            st.builds(HurwitzMove, st.sampled_from(Direction), st.integers(0, len(words) - 2)),
            min_size=1, max_size=6,
        ))
        b = BraidTuple(n, [BraidWord(n, w) for w in words])

        def refuse(self, *args):
            raise AssertionError("a move ran a validating constructor")

        with patch.object(BraidWord, "__init__", refuse), patch.object(BraidTuple, "__init__", refuse):
            for move in moves:
                k = move.position
                u, v = words[k], words[k + 1]
                for direction, pair in (
                    (Direction.FORWARD, [u + v + inverse_letters(u), u]),
                    (Direction.INVERSE, [v, inverse_letters(v) + u + v]),
                ):
                    moved = braid_hurwitz_move(b, HurwitzMove(direction, k))
                    assert [w.letters for w in moved.words] == words[:k] + pair + words[k + 2 :]
                    assert type(moved) is BraidTuple and moved.degree == n
                    assert type(moved.words) is tuple
                    for w in moved.words:
                        assert type(w) is BraidWord and w.degree == n
                        assert type(w.letters) is tuple
                        assert all(type(x) is int and 0 < abs(x) < n for x in w.letters)
                    if direction is move.direction:
                        after = moved
                b = after
                words = [w.letters for w in after.words]
        # the moved words compare and hash as checked ones do
        assert b == BraidTuple(n, [BraidWord(n, w) for w in words])
        assert hash(b) == hash(BraidTuple(n, [BraidWord(n, w) for w in words]))

    def test_out_of_range(self):
        b = BraidTuple(3, [word(3, 1), word(3, 2)])
        with pytest.raises(MoveRangeError):
            braid_hurwitz_move(b, HurwitzMove(Direction.FORWARD, 1))
        with pytest.raises(MoveRangeError):
            braid_hurwitz_move(b, HurwitzMove(Direction.INVERSE, -1))

    def test_out_of_range_names_the_valid_positions(self):
        b = BraidTuple(3, [word(3, 1), word(3, 2), word(3, 1)])
        with pytest.raises(MoveRangeError) as excinfo:
            braid_hurwitz_move(b, HurwitzMove(Direction.FORWARD, 2))
        assert str(excinfo.value) == (
            "move F@2 out of range for length 3 (valid positions 0..1)"
        )

    @pytest.mark.parametrize("text, length", [("n=3; [1]", 1), ("n=3; []", 0)])
    def test_tuple_of_fewer_than_two_words_has_no_valid_position(self, text, length):
        with pytest.raises(MoveRangeError) as excinfo:
            braid_hurwitz_move(parse_braid_tuple(text), HurwitzMove(Direction.FORWARD, 0))
        assert str(excinfo.value) == (
            f"move F@0 out of range for length {length} "
            "(the tuple has no valid position)"
        )

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
        assert braid_text(b) == "n=3; [1 2 -1 | 2]"
        assert parse_braid_tuple("n=3; [1 2 -1 | 2]") == b

    def test_empty_tuple_round_trip(self):
        assert braid_text(BraidTuple(4, [])) == "n=4; []"
        assert parse_braid_tuple("n=4; []") == BraidTuple(4, [])

    def test_empty_word_segment(self):
        b = parse_braid_tuple("n=3; [ | 2]")
        assert [w.letters for w in b.words] == [(), (2,)]

    def test_format_word(self):
        b = BraidTuple(4, [word(4, 1, -3, 2)])
        assert braid_text(b) == "n=4; [1 -3 2]"
        assert parse_braid_tuple("n=4; [1 -3 2]") == b

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            parse_braid_tuple("[1 2]")

    def test_bad_letter_names_word(self):
        with pytest.raises(FormatError, match="word 1"):
            parse_braid_tuple("n=3; [1 | x]")

    def test_out_of_range_letter_names_word(self):
        with pytest.raises(FormatError, match="word 0"):
            parse_braid_tuple("n=3; [7]")

    @pytest.mark.parametrize(
        "text, letters",
        [
            ("n=3; [0001 -02]", [(1, -2)]),
            # past int()'s 4,300-digit limit, a letter is still its
            # significant digits
            ("n=3; [%s1 | -%s2]" % ("0" * 4400, "0" * 4400), [(1,), (-2,)]),
        ],
        ids=["short zero runs", "long zero runs"],
    )
    def test_leading_zeros_are_not_significant(self, text, letters):
        assert [w.letters for w in parse_braid_tuple(text).words] == letters

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("n=3; [7]", "word 0: letter 7 out of range for degree 3", 6),
            ("n=3; [1 | 1 -0007]", "word 1: letter -7 out of range for degree 3", 12),
            ("n=3; [-000]", "word 0: letter 0 out of range for degree 3", 6),
            # more significant digits than MAX_DEGREE: out of range unread
            (
                "n=3; [2 %s12345678]" % ("0" * 4400),
                "word 0: letter 12345678 out of range for degree 3",
                8,
            ),
            (
                "n=3; [-%s]" % ("9" * 5000),
                "word 0: letter -%s... out of range for degree 3" % ("9" * 199),
                6,
            ),
        ],
        ids=["one digit", "zero-padded", "zero", "long zero run", "5,000 digits"],
    )
    def test_out_of_range_letter_message_and_position(self, text, message, position):
        with pytest.raises(FormatError) as info:
            parse_braid_tuple(text)
        valid = "valid magnitudes 1..2"
        assert str(info.value) == f"{message} ({valid}) (at position {position})"
        assert info.value.position == position
