"""Braid-side factor tuples and their projection to transpositions.

A braid word on ``n`` strands is a free word in the standard generators,
stored as a sequence of nonzero indices: ``i`` stands for sigma_i
(``1 <= i <= n-1``) and ``-i`` for its inverse.  Words are never reduced;
equality in the braid group is out of scope, and every check routes through
the projection into the symmetric group.

Projection sends each letter, sign ignored, to the transposition
``(i, i+1)``; a word projects to the left-to-right product of its letters'
images.  A tuple of words projects slot-wise to a factorization when each
word's image is a transposition or the identity.

The word-level elementary move conjugates by concatenation:

* forward at ``k``:   ``..., u, v, ...  ->  ..., u v u^-1, u, ...``
* inverse at ``k``:   ``..., u, v, ...  ->  ..., v, v^-1 u v, ...``

where ``w^-1`` reverses ``w`` and negates each letter.  Lengths grow under
moves by design; projection commutes with moves slot by slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import neg
from typing import Iterable, Iterator

from .errors import FormatError, MoveRangeError, PreconditionError
from .factorization import (
    MAX_DEGREE,
    _DEGREE_DIGITS,
    _FORWARD,
    Direction,
    Factorization,
    HurwitzMove,
    _new,
    _Pair,
    _parse_degree,
    _quote,
    _reject_move,
    _require_int,
    _require_iterable,
    _require_type,
    _setattr,
    product_images,
)


@dataclass(frozen=True)
class BraidWord:
    """A free word in the braid generators on ``degree`` strands."""

    degree: int
    letters: tuple[int, ...]

    def __init__(self, degree: int, letters: Iterable[int]):
        _require_int(degree, "degree must be a positive int", 1)
        letters = tuple(_require_iterable(letters, "letters"))
        for x in letters:
            if type(x) is not int:
                raise PreconditionError(f"letter {x!r} is not an int")
            if x == 0 or abs(x) >= degree:
                raise PreconditionError(
                    f"letter {x} out of range for degree {degree} "
                    f"(valid magnitudes 1..{degree - 1})"
                )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _trusted(cls, degree: int, letters: tuple[int, ...]) -> "BraidWord":
        """Wrap int letters already in range for ``degree``, unchecked."""
        word = _new(cls)
        _setattr(word, "degree", degree)
        _setattr(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class BraidTuple:
    """A sequence of braid words on a common degree."""

    degree: int
    words: tuple[BraidWord, ...]

    def __init__(self, degree: int, words: Iterable[BraidWord]):
        _require_int(degree, "degree must be a positive int", 1)
        words = tuple(_require_iterable(words, "words"))
        for w in words:
            _require_type(w, BraidWord, "a word")
            if w.degree != degree:
                raise PreconditionError(
                    f"word of degree {w.degree} in a degree-{degree} tuple"
                )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "words", words)

    @classmethod
    def _trusted(cls, degree: int, words: tuple[BraidWord, ...]) -> "BraidTuple":
        """Wrap a tuple of words already checked for ``degree``, unchecked."""
        braid = _new(cls)
        _setattr(braid, "degree", degree)
        _setattr(braid, "words", words)
        return braid

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[BraidWord]:
        return iter(self.words)


def _projection_factor(word: BraidWord) -> _Pair:
    """The endpoint pair ``word`` projects to.  Only the strands it touches can
    move, so they are relabelled 1..k in order, multiplied there and mapped
    back: the cost follows the word's length, not its degree.  A strand's
    upper neighbour is the next point, so its letters swap labels i, i + 1."""
    strands = set(map(abs, word.letters))
    points = sorted(strands.union([s + 1 for s in strands]))
    swap = {p: (i, i + 1) for i, p in enumerate(points, 1) if p in strands}
    last_first = map(abs, reversed(word.letters))
    images = product_images(len(points), map(swap.__getitem__, last_first))
    moved = [p for i, p in enumerate(points, 1) if images[i] != i]
    if not moved:
        return (0, 0)
    if len(moved) == 2:
        return (moved[0], moved[1])
    raise PreconditionError(
        "projects to a permutation that is neither a transposition "
        "nor the identity"
    )


def project_tuple(braid: BraidTuple) -> Factorization:
    """Project every word to a factor.

    A word whose image is neither a transposition nor the identity makes the
    tuple unprojectable; the error names the offending word index.

    >>> t = BraidTuple(3, [BraidWord(3, (1,)), BraidWord(3, (2, 2))])
    >>> project_tuple(t).factors
    ((1, 2), None)
    """
    _require_type(braid, BraidTuple, "braid")
    factors: list[_Pair] = []
    for i, word in enumerate(braid.words):
        try:
            factors.append(_projection_factor(word))
        except PreconditionError as exc:
            raise PreconditionError(f"word {i}: {exc}") from exc
    # the factors are normalized and in range; the degree is checked as
    # Factorization checks it, after the words
    degree = braid.degree
    _require_int(degree, f"degree must be at most {MAX_DEGREE}", 1, MAX_DEGREE)
    return Factorization._trusted(degree, factors)


def braid_hurwitz_move(braid: BraidTuple, move: HurwitzMove) -> BraidTuple:
    """Apply one elementary move at the word level.  No reduction happens.

    >>> b = BraidTuple(3, [BraidWord(3, (1,)), BraidWord(3, (2,))])
    >>> moved = braid_hurwitz_move(b, HurwitzMove(Direction.FORWARD, 0))
    >>> [w.letters for w in moved.words]
    [(1, 2, -1), (1,)]
    """
    _require_type(braid, BraidTuple, "braid")
    if type(move) is not HurwitzMove:
        _reject_move(move)
    k = move.position
    words = braid.words
    m = len(words)
    if k < 0 or k + 1 >= m:
        valid = f"valid positions 0..{m - 2}" if m > 1 else "the tuple has no valid position"
        raise MoveRangeError(f"move {move} out of range for length {m} ({valid})")
    u, v = words[k], words[k + 1]
    degree = braid.degree
    # u and v are checked words of the tuple's degree, and negating a letter
    # keeps its magnitude, so the conjugate needs no check of its own
    if move.direction is _FORWARD:
        letters = u.letters + v.letters + tuple(map(neg, reversed(u.letters)))
        pair = (BraidWord._trusted(degree, letters), u)
    else:
        letters = tuple(map(neg, reversed(v.letters))) + u.letters + v.letters
        pair = (v, BraidWord._trusted(degree, letters))
    return BraidTuple._trusted(degree, words[:k] + pair + words[k + 2 :])


# Text form: "n=3; [1 2 -1 | 2]" with words separated by '|', letters
# space-separated signed integers.  A segment with no letters is the empty
# word, so "[ | 2]" has two words.  "[]" is the empty tuple; a tuple holding
# a single empty word prints the same way and parses back as empty.

_TUPLE_RE = re.compile(r"\s*n\s*=\s*([0-9]+)\s*;\s*\[(.*)\]\s*$", re.DOTALL)
# A letter in ASCII digits: int() alone would also take other Unicode digits,
# underscores and a '+' sign.
_LETTER_RE = re.compile(r"-?[0-9]+")


def parse_braid_tuple(text: str) -> BraidTuple:
    """Parse the textual braid tuple form.

    >>> b = parse_braid_tuple("n=3; [1 2 -1 | 2]")
    >>> [w.letters for w in b.words]
    [(1, 2, -1), (2,)]
    """
    _require_type(text, str, "text")
    match = _TUPLE_RE.match(text)
    if not match:
        raise FormatError(
            "expected braid tuple of the form 'n=<int>; [ ... ]'", position=0
        )
    degree = _parse_degree(match)
    body = match.group(2)
    if not body.strip():
        return BraidTuple(degree, [])
    segments = body.split("|")

    def offset(i: int, j: int) -> int:
        """Text offset of letter j of word i, computed only for errors."""
        start = match.start(2) + sum(len(seg) + 1 for seg in segments[:i])
        return start + [t.start() for t in re.finditer(r"\S+", segments[i])][j]

    words = []
    for i, segment in enumerate(segments):
        letters = []
        for j, token in enumerate(segment.split()):
            if not _LETTER_RE.fullmatch(token):
                raise FormatError(
                    f"word {i}: invalid letter {_quote(token)}", position=offset(i, j)
                )
            # its sign and significant digits: more digits than MAX_DEGREE
            # has are out of range for every degree, and int() never reads them
            digits = token.lstrip("-0")
            x = int(digits) if 0 < len(digits) <= _DEGREE_DIGITS else degree
            if x >= degree:
                letter = ("-" if token[0] == "-" and digits else "") + (digits or "0")
                raise FormatError(
                    f"word {i}: letter {_quote(letter, str)} out of range for "
                    f"degree {degree} (valid magnitudes 1..{degree - 1})",
                    position=offset(i, j),
                )
            letters.append(-x if token[0] == "-" else x)
        words.append(BraidWord._trusted(degree, tuple(letters)))
    return BraidTuple._trusted(degree, tuple(words))

