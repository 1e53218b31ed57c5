"""Move engine: single moves, certificates, text formats."""

import copy
import dataclasses
import pickle
import random
import re
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitz import factorization, graph
from hurwitz.braid import BraidTuple, BraidWord, format_braid_tuple, parse_braid_tuple
from hurwitz.canonical import canonical_form
from hurwitz.errors import FormatError, MoveRangeError, PreconditionError
from hurwitz.factorization import (
    MAX_DEGREE,
    Direction,
    Factorization,
    HurwitzMove,
    apply_certificate,
    apply_move,
    conjugate_factor,
    format_certificate,
    format_factorization,
    invert_certificate,
    parse_certificate,
    parse_factorization,
    product_images,
)
from hurwitz.graph import signature


def forward(k):
    return HurwitzMove(Direction.FORWARD, k)


def inverse(k):
    return HurwitzMove(Direction.INVERSE, k)


def fold_product(n, factors):
    """Reference left-to-right product as an image tuple (entry i - 1 is the
    image of the point i), one factor at a time: applying (a, b) after the
    product so far exchanges its images a and b."""
    images = tuple(range(1, n + 1))
    for factor in factors:
        if factor is not None:
            a, b = factor
            images = tuple(b if x == a else a if x == b else x for x in images)
    return images


def conjugated(c, x):
    """The factor c x c (None is the identity): c applied to both points of
    x."""
    if c is None or x is None:
        return x
    p, q = (c[1] if y == c[0] else c[0] if y == c[1] else y for y in x)
    return (p, q) if p < q else (q, p)


def replay_one_by_one(factors, moves):
    """Reference replay: each move rewrites one pair of a fresh tuple, by
    its definition: forward s, t -> s t s, s; inverse s, t -> t, t s t."""
    for move in moves:
        k = move.position
        s, t = factors[k], factors[k + 1]
        if move.direction is Direction.FORWARD:
            pair = (conjugated(s, t), s)
        else:
            pair = (t, conjugated(t, s))
        factors = factors[:k] + pair + factors[k + 2 :]
    return factors


@st.composite
def factorizations(draw, min_len=0, max_len=10):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    factors = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from(pairs)),
            min_size=min_len,
            max_size=max_len,
        )
    )
    return Factorization(n, factors)


@st.composite
def factorization_with_moves(draw, max_moves=30):
    f = draw(factorizations(min_len=2))
    m = len(f)
    raw = draw(
        st.lists(
            st.tuples(st.sampled_from([Direction.FORWARD, Direction.INVERSE]),
                      st.integers(0, m - 2)),
            max_size=max_moves,
        )
    )
    return f, [HurwitzMove(d, k) for d, k in raw]


class TestFactorizationType:
    def test_normalizes_and_validates(self):
        f = Factorization(4, [(3, 1), None, (2, 4)])
        assert f.factors == ((1, 3), None, (2, 4))
        assert len(f) == 3
        assert f.factors.count(None) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            Factorization(3, [(1, 4)])
        with pytest.raises(PreconditionError):
            Factorization(3, [(0, 2)])

    def test_rejects_degenerate_pair(self):
        with pytest.raises(PreconditionError):
            Factorization(3, [(2, 2)])

    def test_degree_bounded_at_construction(self):
        assert Factorization(MAX_DEGREE, []).degree == MAX_DEGREE
        for degree in (MAX_DEGREE + 1, 10**12):
            with pytest.raises(PreconditionError, match="at most"):
                Factorization(degree, [])

    @pytest.mark.parametrize(
        "bad", [(1.5, 2), (True, 2), (1, 2, 3), (1,), 5, ("1", 2), "12"]
    )
    def test_rejects_malformed_factor(self, bad):
        with pytest.raises(PreconditionError):
            Factorization(3, [(1, 2), bad])

    def test_product(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        assert f.product() == [0, 3, 1, 2]
        assert not f.is_identity_factorization()
        assert Factorization(3, [(1, 2), (1, 2)]).is_identity_factorization()
        assert Factorization(3, []).is_identity_factorization()

    @given(factorizations(max_len=6))
    def test_identity_check_agrees_with_product(self, f):
        identity = tuple(range(1, f.degree + 1))
        assert f.is_identity_factorization() == (fold_product(f.degree, f) == identity)


class TestProductImages:
    def test_order_is_left_to_right(self):
        # apply (1,2) first: 1 -> 2 -> 3
        assert product_images(3, [(1, 2), (2, 3)]) == [0, 3, 1, 2]
        assert product_images(3, [(2, 3), (1, 2)]) == [0, 2, 3, 1]

    def test_matches_fold(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(2, 9)
            m = rng.randint(0, 12)
            factors = []
            for _ in range(m):
                if rng.random() < 0.15:
                    factors.append(None)
                else:
                    a, b = rng.sample(range(1, n + 1), 2)
                    factors.append((min(a, b), max(a, b)))
            assert tuple(product_images(n, factors)[1:]) == fold_product(n, factors)

    def test_empty_and_identity_factors(self):
        assert product_images(4, []) == [0, 1, 2, 3, 4]
        assert product_images(4, [None, None]) == [0, 1, 2, 3, 4]
        assert product_images(2, [(1, 2), (1, 2)]) == [0, 1, 2]


class TestConjugation:
    def test_shared_point(self):
        assert conjugate_factor((1, 2), (2, 3)) == (1, 3)
        assert conjugate_factor((2, 3), (1, 2)) == (1, 3)

    def test_disjoint_fixes(self):
        assert conjugate_factor((1, 2), (3, 4)) == (3, 4)

    def test_self_fixes(self):
        assert conjugate_factor((1, 2), (1, 2)) == (1, 2)

    def test_identity_cases(self):
        assert conjugate_factor(None, (1, 2)) == (1, 2)
        assert conjugate_factor((1, 2), None) is None


class TestApplyMove:
    # transposition conjugation cases, one per shape
    def test_forward_shared(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        assert apply_move(f, forward(0)).factors == ((1, 3), (1, 2))

    def test_inverse_shared(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        assert apply_move(f, inverse(0)).factors == ((2, 3), (1, 3))

    def test_forward_disjoint_swaps(self):
        f = Factorization(4, [(1, 2), (3, 4)])
        assert apply_move(f, forward(0)).factors == ((3, 4), (1, 2))

    def test_forward_equal_fixes(self):
        f = Factorization(3, [(1, 2), (1, 2)])
        assert apply_move(f, forward(0)).factors == ((1, 2), (1, 2))

    def test_identity_factor_swaps(self):
        f = Factorization(3, [(1, 2), None])
        assert apply_move(f, forward(0)).factors == (None, (1, 2))
        assert apply_move(f, inverse(0)).factors == (None, (1, 2))

    def test_position_out_of_range(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        with pytest.raises(MoveRangeError):
            apply_move(f, forward(1))
        with pytest.raises(MoveRangeError):
            apply_move(f, forward(-1))
        with pytest.raises(MoveRangeError):
            apply_move(Factorization(3, [(1, 2)]), forward(0))

    @given(factorization_with_moves(max_moves=1))
    def test_product_and_length_preserved(self, fm):
        f, moves = fm
        if not moves:
            return
        g = apply_move(f, moves[0])
        assert len(g) == len(f)
        assert g.product() == f.product()

    @given(factorizations(min_len=2), st.data())
    def test_forward_inverse_cancel(self, f, data):
        k = data.draw(st.integers(0, len(f) - 2))
        assert apply_move(apply_move(f, forward(k)), inverse(k)) == f
        assert apply_move(apply_move(f, inverse(k)), forward(k)) == f

    @given(factorization_with_moves())
    def test_factor_kinds_preserved(self, fm):
        f, moves = fm
        g = apply_certificate(f, moves)
        assert g.factors.count(None) == f.factors.count(None)


class TestCertificates:
    def test_empty_certificate_is_noop(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        assert apply_certificate(f, []) == f

    def test_forward_cubed_cycles_back(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        assert apply_certificate(f, [forward(0)] * 3) == f

    def test_error_names_offending_move(self):
        f = Factorization(3, [(1, 2), (2, 3)])
        with pytest.raises(MoveRangeError, match=r"move 1 "):
            apply_certificate(f, [forward(0), forward(5)])

    def test_matches_a_fold_of_single_moves(self):
        rng = random.Random("replay-fold")
        for _ in range(300):
            n = rng.randint(2, 8)
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            f = Factorization(
                n, rng.choices(pairs + [None], k=rng.randint(2, 30))
            )
            moves = [
                HurwitzMove(rng.choice(list(Direction)), rng.randrange(len(f) - 1))
                for _ in range(rng.randint(0, 200))
            ]
            expected = replay_one_by_one(f.factors, moves)
            assert apply_certificate(f, moves).factors == expected
            assert apply_certificate(f, iter(moves)).factors == expected

    @pytest.mark.parametrize(
        "moves,message",
        [
            ([forward(5)], "move 0 (F@5) out of range for length 2"),
            ([inverse(-1)], "move 0 (I@-1) out of range for length 2"),
            # the index is the first bad move's, also when it repeats
            ([forward(0), forward(5), forward(5)],
             "move 1 (F@5) out of range for length 2"),
            (iter([forward(0), forward(0), inverse(1)]),
             "move 2 (I@1) out of range for length 2"),
        ],
        ids=["list", "negative", "repeated", "generator"],
    )
    def test_out_of_range_error_text(self, moves, message):
        f = Factorization(3, [(1, 2), (2, 3)])
        with pytest.raises(MoveRangeError) as excinfo:
            apply_certificate(f, moves)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "moves,message",
        [
            ([forward(0), "F@0"], "moves must be HurwitzMoves, got 'F@0'"),
            ((m for m in [forward(0), "F@0"]),
             "moves must be HurwitzMoves, got 'F@0'"),
            ([None], "moves must be HurwitzMoves, got None"),
            (5, "moves must be iterable, got int"),
        ],
        ids=["list", "generator", "none", "not-iterable"],
    )
    def test_non_move_error_text(self, moves, message):
        f = Factorization(3, [(1, 2), (2, 3)])
        with pytest.raises(PreconditionError) as excinfo:
            apply_certificate(f, moves)
        assert str(excinfo.value) == message

    def test_look_alike_moves_are_refused(self):
        # objects with a move's attributes, private ones too, are not moves:
        # the first was once replayed as an inverse move, one rendered and
        # the last inverted
        f = Factorization(3, [(1, 2), (2, 3)])
        not_moves = "moves must be HurwitzMoves, got namespace"
        with pytest.raises(PreconditionError, match=not_moves):
            apply_certificate(f, [SimpleNamespace(position=0, direction="F")])
        with pytest.raises(PreconditionError, match=not_moves):
            apply_move(f, SimpleNamespace(position=0, direction=Direction.FORWARD))
        with pytest.raises(PreconditionError, match=not_moves):
            apply_certificate(
                f, [forward(0), SimpleNamespace(position=0, _c_slot=0, _x_slot=1)]
            )
        with pytest.raises(PreconditionError) as excinfo:
            format_certificate([SimpleNamespace(_text="F@0")])
        assert str(excinfo.value) == (
            "moves must be HurwitzMoves, got namespace(_text='F@0')"
        )
        with pytest.raises(PreconditionError, match=not_moves):
            format_certificate(iter([forward(0), SimpleNamespace(_text="F@0")]))
        with pytest.raises(PreconditionError, match=not_moves):
            invert_certificate([SimpleNamespace(inverted=lambda: "x")])

    @pytest.mark.parametrize(
        "moves,message",
        [
            ([forward(0), "F@0"], "moves must be HurwitzMoves, got 'F@0'"),
            (5, "moves must be iterable, got int"),
        ],
        ids=["list", "not-iterable"],
    )
    def test_invert_non_move_error_text(self, moves, message):
        with pytest.raises(PreconditionError) as excinfo:
            invert_certificate(moves)
        assert str(excinfo.value) == message

    def test_invert_examples(self):
        assert invert_certificate([]) == ()
        assert invert_certificate([forward(0)]) == (inverse(0),)
        assert invert_certificate([forward(1), inverse(0)]) == (forward(0), inverse(1))
        assert invert_certificate(iter([forward(1), inverse(0)])) == (forward(0), inverse(1))

    @given(factorization_with_moves())
    @settings(max_examples=60)
    def test_invert_round_trips(self, fm):
        f, moves = fm
        there = apply_certificate(f, moves)
        assert apply_certificate(there, invert_certificate(moves)) == f

    @given(factorization_with_moves())
    @settings(max_examples=60)
    def test_certificate_equals_iterated_moves(self, fm):
        f, moves = fm
        g = f
        for mv in moves:
            g = apply_move(g, mv)
        assert apply_certificate(f, moves) == g


class TestFactorizationText:
    def test_worked_example_round_trip(self):
        text = "n=6; [(2,6),(1,4),(1,5),(3,6),(4,5),(1,5),(2,3),(3,6)]"
        f = parse_factorization(text)
        assert f.degree == 6 and len(f) == 8
        assert format_factorization(f) == text

    def test_empty_list(self):
        f = parse_factorization("n=3; []")
        assert f.factors == ()
        assert format_factorization(f) == "n=3; []"

    def test_normalization_and_identity(self):
        f = parse_factorization("n=3; [(3,1), e]")
        assert f.factors == ((1, 3), None)

    def test_leading_zeros_are_not_significant(self):
        f = parse_factorization("n=3; [(000000003,01), (2, 0000000000000000001)]")
        assert f.factors == ((1, 3), (1, 2))

    def test_whitespace_insensitive(self):
        f = parse_factorization("  n = 6 ;  [ ( 2 , 6 ) , e ,( 1,4 ) ]  ")
        assert f.factors == ((2, 6), None, (1, 4))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "n=; []",
            "[(1,2)]",
            "n=3 [(1,2)]",
            "n=3; [(1,2)",
            "n=3; [(1,2),]",
            "n=3; [(1,2) (1,3)]",
            "n=3; [(2,2)]",
            "n=3; [(1,4)]",
            "n=3; [x]",
            "n=3; [(1,2)] trailing",
        ],
    )
    def test_malformed_raises_with_position(self, bad):
        with pytest.raises(FormatError, match=r"at position \d+"):
            parse_factorization(bad)

    @given(factorizations())
    @settings(max_examples=80)
    def test_round_trip(self, f):
        assert parse_factorization(format_factorization(f)) == f


HEADER = "expected factorization of the form 'n=<int>; [...]'"


class TestFactorizationErrorContract:
    """Every FormatError branch of parse_factorization, with its exact
    message and position."""

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", HEADER, 0),
            ("[(1,2)]", HEADER, 0),
            ("n=3 [(1,2)]", HEADER, 0),
            ("n=; []", HEADER, 0),
            (" n = 0; []", "degree must be in 1..1000000", 5),
            ("n=99999999999999; [(1,2)]", "degree must be in 1..1000000", 2),
            ("n=3; [", "unterminated factor list", 6),
            ("n=3; [(1,2)", "unterminated factor list", 11),
            ("n=3; [(1,2),  ", "unterminated factor list", 14),
            ("n=3; [(1,2),]", "trailing comma in factor list", 12),
            ("n=3; [e , ]", "trailing comma in factor list", 10),
            ("n=3; [(1,2) (1,3)]", "expected ',' or ']' but found '('", 12),
            ("n=3; [e e]", "expected ',' or ']' but found 'e'", 8),
            ("n=3; [(1,2)e]", "expected ',' or ']' but found 'e'", 11),
            ("n=3; [(1,)]", "malformed transposition", 6),
            ("n=3; [(1 2)]", "malformed transposition", 6),
            ("n=3; [(1,2]", "malformed transposition", 6),
            ("n=3; [(12345678 1)]", "malformed transposition", 6),
            ("n=3; [(12345678,1)]", "factor entry out of range for degree 3", 6),
            ("n=3; [e, (1, 000012345678)]", "factor entry out of range for degree 3", 9),
            ("n=3; [(1,4)]", "factor (1,4) out of range for degree 3", 6),
            ("n=3; [(04,1)]", "factor (4,1) out of range for degree 3", 6),
            ("n=3; [(0,1)]", "factor (0,1) out of range for degree 3", 6),
            ("n=3; [(5,5)]", "factor (5,5) out of range for degree 3", 6),
            ("n=3; [(2,2)]", "factor (2,2) is not a transposition", 6),
            ("n=3; [e, (0002,2)]", "factor (2,2) is not a transposition", 9),
            ("n=3; [x]", "expected '(', 'e', or ']' but found 'x'", 6),
            ("n=3; [e,x]", "expected '(', 'e', or ']' but found 'x'", 8),
            ("n=3; [,]", "expected '(', 'e', or ']' but found ','", 6),
            ("n=3; [(1,2)] trailing", "unexpected trailing content 'trailing'", 13),
            ("n=3; [] ]", "unexpected trailing content ']'", 8),
            ("n=3; [e]\n ; ", "unexpected trailing content ';'", 10),
        ],
    )
    def test_message_and_position(self, text, message, position):
        with pytest.raises(FormatError) as info:
            parse_factorization(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text, degree, factors",
        [
            ("n=3; []", 3, ()),
            ("\tn = 3 ;[ \n ]\n", 3, ()),
            ("n=0000003; [(000000003,01)]", 3, ((1, 3),)),
            ("n=3; [(2, 0000000000000000001),e]", 3, ((1, 2), None)),
            ("\n n\t=\t4 ; [\t( 4 ,\n1 ) ,e\t,\r\n(2,3)\n]\t\n", 4, ((1, 4), None, (2, 3))),
        ],
    )
    def test_accepted(self, text, degree, factors):
        f = parse_factorization(text)
        assert (f.degree, f.factors) == (degree, factors)


@st.composite
def rendered_factorizations(draw):
    """A factorization and a text of it with random whitespace between
    tokens and random leading zeros on every number."""
    f = draw(factorizations())
    space = st.text(alphabet=" \t\r\n", max_size=2)
    zeros = st.sampled_from(["", "", "0", "00", "0" * 9])

    def number(value):
        return draw(zeros) + str(value)

    def pad(token):
        return draw(space) + token + draw(space)

    tokens = []
    for factor in f.factors:
        if factor is None:
            tokens.append(pad("e"))
        else:
            a, b = factor if draw(st.booleans()) else factor[::-1]
            tokens.append(pad("(" + pad(number(a)) + "," + pad(number(b)) + ")"))
    text = (
        pad("n") + "=" + pad(number(f.degree)) + ";" + pad("[")
        + ",".join(tokens) + pad("]")
    )
    return f, text


def one_edit(text, edit, where, char):
    """``text`` after one insertion (edit 0), deletion (1) or substitution
    (2) of ``char`` at the fraction ``where`` of its length."""
    k = int(where * (len(text) + 1))
    if edit == 0:
        return text[:k] + char + text[k:]
    if edit == 1:
        return text[:k] + text[k + 1:]
    return text[:k] + char + text[k + 1:]


def parses_or_raises_format_error(parse, text):
    try:
        parse(text)
    except FormatError as exc:
        assert 0 <= exc.position <= len(text)


EDITS = (st.integers(0, 2), st.floats(0, 1, exclude_max=True))
# line breaks str.splitlines knows, '#', and digits int() accepts beyond ASCII
HOSTILE_CHARS = ["\r", "\x85", "\u2028", "#", "\u0663", "\uff15"]


class TestFactorizationFuzz:
    @given(rendered_factorizations())
    @settings(max_examples=150)
    def test_rendered_text_parses_back(self, case):
        f, text = case
        assert parse_factorization(text) == f

    @given(
        rendered_factorizations(),
        *EDITS,
        st.sampled_from(list("()[],;=ne0123456789x \t")),
    )
    @settings(max_examples=300)
    def test_one_edit_parses_or_raises_format_error(self, case, edit, where, char):
        _, text = case
        parses_or_raises_format_error(parse_factorization, one_edit(text, edit, where, char))


@st.composite
def whitespace_free_texts(draw):
    """A factorization text without whitespace, as the bulk path reads it:
    leading zeros, pairs in either order, equal or out of range, and runs of
    'e'.  Also whether every pair is in range and ascending, and whether
    every pair is in range with distinct points."""
    n = draw(st.integers(1, 12))
    zeros = st.sampled_from(["", "", "0", "00", "0" * 9])
    tokens = []
    ascending = valid = True
    for run in draw(st.lists(st.integers(0, 5), max_size=25)):
        if run:
            tokens += ["e"] * run
            continue
        a, b = draw(st.integers(1, n + 1)), draw(st.integers(1, n + 1))
        valid = valid and a != b and max(a, b) <= n
        ascending = ascending and a < b <= n
        tokens.append(f"({draw(zeros)}{a},{draw(zeros)}{b})")
    return f"n={draw(zeros)}{n}; [{','.join(tokens)}]", ascending, valid


def parsed_or_error(text):
    """The factorization of ``text``, or FormatError if it does not parse."""
    try:
        return parse_factorization(text)
    except FormatError:
        return FormatError


class TestBulkParse:
    """A whitespace-free list is parsed in bulk; a space after each comma
    sends the same text through the token loop, which is the reference."""

    @given(whitespace_free_texts(), st.integers(1, 30))
    @settings(max_examples=300)
    def test_matches_token_loop(self, case, chunk):
        text, ascending, valid = case
        with patch.object(factorization, "_CHUNK", chunk):
            got = parsed_or_error(text)
            if ascending and "[]" not in text:
                start = text.index("[") + 1
                degree = parse_factorization(text).degree
                assert factorization._parse_bulk(text, start, degree) is not None
        assert got == parsed_or_error(text.replace(",", ", "))
        assert (got is FormatError) == (not valid)

    @given(
        whitespace_free_texts(),
        st.integers(1, 30),
        *EDITS,
        st.sampled_from(list("()[],;=ne0123456789x \t")),
    )
    @settings(max_examples=300)
    def test_one_edit_matches_token_loop(self, case, chunk, edit, where, char):
        text = one_edit(case[0], edit, where, char)
        with patch.object(factorization, "_CHUNK", chunk):
            got = parsed_or_error(text)
        assert got == parsed_or_error(text.replace(",", ", "))

    @pytest.mark.parametrize("shift", range(8))
    def test_every_cut_offset_at_full_chunk_size(self, shift):
        # an 8-character unit holds a comma inside a pair, one after ')' and
        # one after 'e'; shifting it puts each character at every cut
        body = "(" + "0" * shift + "1,2),e," + "(1,2),e," * (3 * factorization._CHUNK // 8)
        text = f"n=2; [{body}e]"
        start = text.index("[") + 1
        bulk = factorization._parse_bulk(text, start, 2)
        assert bulk is not None and bulk[2] == len(text)
        f = parse_factorization(text)
        expected = [(1, 2), None] * (1 + 3 * factorization._CHUNK // 8) + [None]
        assert list(f.factors) == list(factorization._as_factors(*bulk[:2])) == expected
        assert f == parse_factorization(text.replace(",", ", "))

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("n=3; [(1,2),(2,1)]", None, None),
            ("n=3; [(1,2),(2,2)]", "factor (2,2) is not a transposition", 12),
            ("n=3; [(1,2),(1,4)]", "factor (1,4) out of range for degree 3", 12),
            ("n=3; [(1,2),(0,1)]", "factor (0,1) out of range for degree 3", 12),
            ("n=3; [(1,2),(1,2) ]", None, None),
            ("n=3; [(1,2),(1,2e]", "malformed transposition", 12),
            ("n=3; [(1,2),(1]", "malformed transposition", 12),
            ("n=3; [e,e,(1]", "malformed transposition", 10),
        ],
    )
    def test_refused_by_bulk_path_read_by_token_loop(self, text, message, position):
        assert factorization._parse_bulk(text, text.index("[") + 1, 3) is None
        if message is None:
            assert parse_factorization(text) == parse_factorization(text.replace(",", ", "))
            return
        with pytest.raises(FormatError) as info:
            parse_factorization(text)
        assert str(info.value) == f"{message} (at position {position})"


@st.composite
def rendered_certificates(draw):
    """A certificate and a text of it with padded moves, blank lines and
    comments between them, under any of the line breaks the parser splits on."""
    moves = draw(st.lists(
        st.builds(HurwitzMove, st.sampled_from(Direction), st.integers(0, 10**19 - 1)),
        max_size=8,
    ))
    space = st.text(alphabet=" \t", max_size=2)
    lines = []
    for move in moves:
        lines.extend(draw(st.lists(st.sampled_from(["", "# note", " #F@1"]), max_size=2)))
        lines.append(
            draw(space) + move.direction.value + draw(space) + "@" + draw(space)
            + "0" * draw(st.integers(0, 2)) + str(move.position) + draw(space)
        )
    return moves, draw(st.sampled_from(["\n", "\r\n", "\r", "\x85"])).join(lines)


class TestCertificateFuzz:
    @given(rendered_certificates())
    @settings(max_examples=50)
    def test_rendered_text_parses_back(self, case):
        moves, text = case
        assert parse_certificate(text) == moves
        assert parse_certificate(format_certificate(moves)) == moves

    @given(
        rendered_certificates(),
        *EDITS,
        st.sampled_from(list("FI@0123456789x \t\n") + HOSTILE_CHARS),
    )
    @settings(max_examples=120)
    def test_one_edit_parses_or_raises_format_error(self, case, edit, where, char):
        _, text = case
        parses_or_raises_format_error(parse_certificate, one_edit(text, edit, where, char))


REFERENCE_MOVE_RE = re.compile(r"([FI])\s*@\s*([0-9]+)")


def read_certificate_by_lines(text):
    """Reference reader: ``text.splitlines()`` folded one line at a time,
    each line stripped.  Returns the moves, or the message and position of
    the FormatError for the first bad line."""
    moves, start = [], 0
    lines = zip(text.splitlines(), text.splitlines(keepends=True))
    for number, (line, with_break) in enumerate(lines, 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            m = REFERENCE_MOVE_RE.fullmatch(stripped)
            if m is None or len(m[2].lstrip("0")) > len(str(sys.maxsize)):
                problem = "move position out of range" if m else f"malformed move {stripped!r}"
                return f"{problem} on line {number}", start + len(line) - len(line.lstrip())
            moves.append(HurwitzMove(Direction(m[1]), int(m[2])))
        start += len(with_break)
    return moves


# every line break str.splitlines knows, blanks, comments, leading zeros, a
# 20-digit position and malformed lines, each inserted anywhere
CERTIFICATE_EDITS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", " ", "\t", "#", "# note\n", "\n\n", "0", "000",
    "12345678901234567890", "F@", "@3", "FF@1", "F@\u0663", "I@7",
]


class TestCertificateBulkRead:
    @given(
        st.lists(st.tuples(st.sampled_from("FI"), st.integers(0, 10**19 - 1)), max_size=12),
        st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(CERTIFICATE_EDITS)),
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=400)
    @example([("F", 3), ("I", 0)], [], True)
    @example([("F", 3), ("I", 0)], [(0.5, "0")], False)
    @example([("F", 12)], [(0.5, "12345678901234567890")], False)
    @example([], [(0.0, "F@"), (0.99, "12345678901234567890")], False)
    @example([], [(0.0, "F@"), (0.99, "000"), (0.99, "12345678901234567890")], False)
    @example([("F", 3), ("I", 0)], [(0.4, "\r")], False)
    @example([("F", 3)], [(0.0, "F@")], True)
    def test_matches_a_fold_of_lines(self, moves, edits, trailing_break):
        text = "\n".join(f"{d}@{k}" for d, k in moves) + "\n" * trailing_break
        for where, piece in edits:
            k = int(where * (len(text) + 1))
            text = text[:k] + piece + text[k:]
        expected = read_certificate_by_lines(text)
        try:
            got = parse_certificate(text)
        except FormatError as exc:
            assert isinstance(expected, tuple), text
            message, position = expected
            assert str(exc) == f"{message} (at position {position})"
            assert exc.position == position
        else:
            assert got == expected

    def test_written_certificates_are_read_in_bulk(self):
        moves = [forward(k % 7) if k % 3 else inverse(k) for k in range(200)]
        text = format_certificate(moves)
        assert parse_certificate(text) == moves
        assert parse_certificate(text + "\n") == moves
        assert parse_certificate(text.replace("\n", "\n\n")) == moves

    def test_each_distinct_raw_line_is_matched_once(self):
        # a certificate no formatter writes: CRLF breaks, indented and
        # padded lines, blanks and comments, 10^4 lines over a few moves
        lines = ["F@0", "  I@3", "\tF@12 ", "# note", "", "I@ 3", "F @0"]
        rng = random.Random(11)
        raw = [rng.choice(lines) for _ in range(10_000)]
        text = "\r\n".join(raw) + "\r\n"
        expected = read_certificate_by_lines(text)
        real, calls = factorization._MOVE_RE, []
        counting = SimpleNamespace(match=lambda line: calls.append(line) or real.match(line))
        with patch.object(factorization, "_MOVE_RE", counting):
            assert parse_certificate(text) == expected
        assert len(expected) > 5_000
        assert len(calls) <= len(set(raw))


@st.composite
def braid_tuples(draw):
    n = draw(st.integers(1, 6))
    alphabet = [s * i for i in range(1, n) for s in (1, -1)]
    letters = st.lists(st.sampled_from(alphabet), max_size=4) if alphabet else st.just([])
    return BraidTuple(n, [BraidWord(n, w) for w in draw(st.lists(letters, max_size=5))])


class TestBraidFuzz:
    @given(braid_tuples())
    @settings(max_examples=60)
    def test_rendered_text_parses_back(self, b):
        # the one exception: a single empty word prints as "[]", the empty tuple
        if [w.letters for w in b.words] == [()]:
            b = BraidTuple(b.degree, [])
        assert parse_braid_tuple(format_braid_tuple(b)) == b

    @given(
        braid_tuples(),
        *EDITS,
        st.sampled_from(list("n=;[]|-0123456789x \t\n") + HOSTILE_CHARS),
    )
    @settings(max_examples=200)
    def test_one_edit_parses_or_raises_format_error(self, b, edit, where, char):
        text = one_edit(format_braid_tuple(b), edit, where, char)
        parses_or_raises_format_error(parse_braid_tuple, text)


def traced_parse(text):
    """The factorization of ``text``, and the traced bytes it retains and
    peaks at while parsing."""
    tracemalloc.start()
    try:
        f = parse_factorization(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return f, retained, peak


def sparse_text(n=10_000, m=100_000):
    """A factorization text of ``m`` random factors on ``n`` points, one in
    twenty an identity."""
    rng = random.Random(5)
    factors = [
        None if rng.random() < 0.05 else tuple(sorted(rng.sample(range(1, n + 1), 2)))
        for _ in range(m)
    ]
    return format_factorization(Factorization(n, factors))


def test_parse_streams_factors():
    """The parse holds little beyond the Factorization it returns: no list of
    all tokens or digit strings is built first.  The bound is the peak of a
    parse into factor tuples, 8.4 MB; into endpoint arrays it peaks at
    about 3.2 MB."""
    f, _, peak = traced_parse(sparse_text())
    assert len(f) == 100_000
    assert peak <= 8_300_000


def test_parse_retains_the_endpoints_only():
    """A parsed factorization holds two 4-byte endpoints a factor; a tuple
    a factor would retain about 64 bytes."""
    f, retained, _ = traced_parse(sparse_text())
    assert retained <= 12 * len(f)


@pytest.mark.parametrize(
    "factors, bound",
    [
        ([None] * 100_000, 1_600_000),
        ([edge for edge in [(1, 2), (2, 3), (3, 4), (4, 5)] for _ in range(25_000)], 7_000_000),
    ],
    ids=["all-identity", "blocky"],
)
def test_parse_memory_on_every_shape(factors, bound):
    """The bulk path's scratch lists stay small, also for the shortest factor
    text ('e') and for few distinct points.  The bounds are the peaks of a
    parse into factor tuples; into endpoint arrays these parses peak at
    about 1.2 and 1.5 MB."""
    f, _, peak = traced_parse(format_factorization(Factorization(10_000, factors)))
    assert f.factors == tuple(factors)
    assert peak <= bound


def fold_signature(n, factors):
    """Reference (identity count, components) of a factor list: each
    point's component grown edge by edge as one shared set, and each
    component's weight counted factor by factor."""
    component = {}
    for factor in filter(None, factors):
        merged = set().union(*(component.get(v, {v}) for v in factor))
        component.update(dict.fromkeys(merged, merged))
    weights = Counter(min(component[a]) for a, _ in filter(None, factors))
    components = tuple(
        (tuple(sorted(component[root])), weights[root]) for root in sorted(weights)
    )
    return factors.count(None), components


def written(n, factors, separator=","):
    """Reference text of a factor list, pairs in the order given."""
    return f"n={n}; [{separator.join('e' if f is None else '(%d,%d)' % f for f in factors)}]"


@st.composite
def stores(draw):
    """A factor list with identities on the chunk boundaries of the parse
    (in characters) and of signature (in factors), the two chunk sizes, and
    a text of the list as format_factorization writes it."""
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    factors = draw(st.lists(st.one_of(st.none(), st.sampled_from(pairs)), max_size=40))
    text_chunk, graph_chunk = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    tokens = ["e" if f is None else f"({f[0]},{f[1]})" for f in factors]
    offset = 0
    for k, token in enumerate(tokens):
        # the factor whose token holds a multiple of text_chunk, and those
        # on either side of a multiple of graph_chunk
        if offset // text_chunk != (offset + len(token)) // text_chunk or k % graph_chunk in (0, graph_chunk - 1):
            if draw(st.booleans()):
                factors[k] = None
        offset += len(token) + 1
    return n, factors, text_chunk, graph_chunk, written(n, factors)


class TestStoreAndView:
    """Every way to build a factorization fills the same endpoint store and
    gives the same tuple view, and the readers of the store agree with
    folds over that view."""

    @given(stores(), st.data())
    @settings(max_examples=200)
    def test_every_path_gives_the_reference_factors(self, case, data):
        n, factors, text_chunk, graph_chunk, text = case
        reference = tuple(factors)
        swapped = [f if f is None or data.draw(st.booleans()) else f[::-1] for f in factors]
        moves = data.draw(st.lists(
            st.builds(HurwitzMove, st.sampled_from(Direction), st.integers(0, max(0, len(factors) - 2))),
            max_size=6 if len(factors) > 1 else 0,
        ))
        with patch.object(factorization, "_CHUNK", text_chunk), patch.object(graph, "_CHUNK", graph_chunk):
            built = {
                "bulk": parse_factorization(text),
                "tokens": parse_factorization(written(n, swapped, ", ")),
                "init": Factorization(n, swapped),
                "trusted": Factorization._trusted(n, reference),
                "replay": apply_certificate(Factorization(n, factors), []),
            }
            replayed = apply_certificate(parse_factorization(text), moves)
            expected = {"replay-moves": replay_one_by_one(reference, moves)}
            for name, f in list(built.items()) + [("replay-moves", replayed)]:
                want = expected.get(name, reference)
                assert f.factors == want, name
                assert len(f) == len(want)
                assert format_factorization(f) == written(n, want)
                sig = signature(f)
                assert (sig.identity_factor_count, sig.components) == fold_signature(n, list(want))
                assert (sig.degree, sig.total_factors) == (n, len(want))
                assert tuple(f.product()[1:]) == fold_product(n, want)
        for f in built.values():
            assert f == built["bulk"] and hash(f) == hash(built["bulk"])
            assert f._lo == built["bulk"]._lo and f._hi == built["bulk"]._hi
        assert (replayed == built["bulk"]) == (replayed.factors == reference)
        assert built["bulk"] != Factorization(n, factors + [None])
        assert built["bulk"] != Factorization(n + 1, factors)

    @given(stores())
    @settings(max_examples=50)
    def test_view_is_built_once_and_shared(self, case):
        n, factors, _, _, text = case
        f = parse_factorization(text)
        assert f.factors is f.factors
        view = tuple(factors)
        g = Factorization._trusted(n, view)
        assert g.factors is view and g == f
        assert repr(f) == f"Factorization(degree={n}, factors={tuple(factors)!r})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.degree = n + 1
        assert pickle.loads(pickle.dumps(f)) == copy.deepcopy(f) == f


class TestCertificateText:
    def test_round_trip(self):
        moves = [forward(0), inverse(3), forward(12)]
        assert parse_certificate(format_certificate(moves)) == moves

    def test_comments_and_blanks_skipped(self):
        text = "\n# preamble\nF@0\n\n  I@2  \n# done\n"
        assert parse_certificate(text) == [forward(0), inverse(2)]

    def test_malformed_line_reports_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_certificate("F@0\nG@1\n")

    def test_empty_text(self):
        assert parse_certificate("") == []
        assert format_certificate([]) == ""

    def test_repeated_malformed_line_reports_first_occurrence(self):
        with pytest.raises(FormatError, match="line 2") as info:
            parse_certificate("F@0\nG@1\nG@1\nG@1\n")
        assert info.value.position == len("F@0\n")

    def test_malformed_line_after_many_repeats(self):
        text = "F@0\n" * 10_000 + "G@1\n"
        with pytest.raises(FormatError, match="line 10001") as info:
            parse_certificate(text)
        assert info.value.position == text.index("G")

    def test_whitespace_variants_parse_to_equal_moves(self):
        assert parse_certificate("F @ 3\n  F@3  \nF@3") == [forward(3)] * 3

    def test_repeated_blanks_and_comments_skipped_every_time(self):
        text = "\n# c\nF@0\n\n# c\nI@1\n\n# c\n" * 3
        assert parse_certificate(text) == [forward(0), inverse(1)] * 3

    def test_repeated_lines_share_one_move(self):
        moves = parse_certificate("F@2\n" * 50 + "I@0\n" * 50)
        assert len({id(move) for move in moves}) == 2

    def test_format_renders_fresh_moves_from_a_generator(self):
        moves = [forward(k % 7) if k % 2 else inverse(k % 7) for k in range(1000)]
        text = format_certificate(
            forward(k % 7) if k % 2 else inverse(k % 7) for k in range(1000)
        )
        assert text == "\n".join(str(move) for move in moves)
        assert str(forward(3)) == "F@3"
        assert str(inverse(0)) == "I@0"


class TestMoveText:
    def test_format_joins_str_for_moves_built_every_way(self):
        built = [forward(3), inverse(0), forward(10**18)]
        f = Factorization(3, [(2, 3), (2, 3), (1, 2), (1, 2)])
        for moves in (
            built,
            [move.inverted() for move in built],
            invert_certificate(built),
            parse_certificate("F@3\n I @ 007 \nF@0\nF@0"),
            [dataclasses.replace(move, position=move.position + 1) for move in built],
            canonical_form(f).certificate,
        ):
            assert moves
            assert format_certificate(moves) == "\n".join(map(str, moves))
        assert format_certificate(built) == "F@3\nI@0\nF@1000000000000000000"

    def test_cached_text_is_not_a_field(self):
        move = forward(3)
        assert [field.name for field in dataclasses.fields(move)] == ["direction", "position"]
        assert move == HurwitzMove(Direction.FORWARD, 3) != inverse(3)
        assert hash(move) == hash((Direction.FORWARD, 3))
        assert repr(move) == "HurwitzMove(direction=<Direction.FORWARD: 'F'>, position=3)"
        assert dataclasses.astuple(move) == (Direction.FORWARD, 3)
        moved = dataclasses.replace(move, position=4)
        assert (moved, str(moved)) == (forward(4), "F@4")
        flipped = dataclasses.replace(move, direction=Direction.INVERSE)
        assert (flipped, str(flipped), str(move)) == (inverse(3), "I@3", "F@3")
        # the slots the kernel reads are rebuilt with the text
        f = Factorization(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert apply_move(f, flipped) == apply_move(f, inverse(3)) != apply_move(f, move)


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_certificate, "F@\u0663", "malformed move 'F@\u0663' on line 1", 0),
        (parse_certificate, "F@0\nI@1\uff12", "malformed move 'I@1\uff12' on line 2", 4),
        (
            parse_factorization,
            "n=\u0663; [(\u0661,\u0662),(1,2)]",
            "expected factorization of the form 'n=<int>; [...]'",
            0,
        ),
        (parse_factorization, "n=3; [(\u0661,\u0662),(1,2)]", "malformed transposition", 6),
        (parse_factorization, "n=3; [(1,2),(1,\uff13)]", "malformed transposition", 12),
        (parse_braid_tuple, "n=12; [1_0 | \uff12]", "word 0: invalid letter '1_0'", 7),
        (parse_braid_tuple, "n=12; [1 | \uff12]", "word 1: invalid letter '\uff12'", 11),
        (parse_braid_tuple, "n=3; [+1]", "word 0: invalid letter '+1'", 6),
        (
            parse_braid_tuple,
            "n=\u0661\u0662; [1]",
            "expected braid tuple of the form 'n=<int>; [ ... ]'",
            0,
        ),
    ],
)
def test_numbers_are_ascii_digits(parse, text, message, position):
    # \d and int() take any Unicode decimal digit, int() also '_' and '+';
    # no formatter writes them, so no parser reads them
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize(
    "parse, text, token",
    [
        (parse_factorization, "n=3; [(1,2) (1,3)]", "(1,3)"),
        (parse_factorization, "n=3; [e, (1,4)]", "(1,4)"),
        (parse_factorization, "n=3; [e, x]", "x"),
        (parse_factorization, "n=3; [(1,2)]  tail", "tail"),
        (parse_factorization, " n = 0; []", "0"),
        (parse_factorization, "n=99999999999999; [(1,2),(1,2)]", "99999999999999"),
        (parse_certificate, "F@0\n# note\n\r\n   G@1\n", "G@1"),
        (parse_certificate, "F@0\n  I @ x", "I @ x"),
        (parse_factorization, "n=3; [e, (%s,1)]" % ("9" * 5000), "(9"),
        (parse_certificate, "F@0\n F@%s\n" % ("9" * 5000), "F@9"),
        (parse_braid_tuple, " n=3; [1 | 2 x]", "x"),
        (parse_braid_tuple, "n=3; [1 -1 |  | 2 -3]", "-3"),
        (parse_braid_tuple, "n=99999999999999; [1 | 1]", "99999999999999"),
        (parse_braid_tuple, "n=0; []", "0"),
    ],
)
def test_format_error_position_is_the_offending_token(parse, text, token):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert text.index(token) == info.value.position
